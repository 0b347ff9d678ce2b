//! The repository benchmark: four seed-driven, single-threaded,
//! closed-loop workloads over the public APIs of `pandora-attacks`,
//! `pandora_sim::{Machine, fleet}`, `pandora-server` and
//! `pandora-sandbox`, plus a traced run that splits each call into
//! per-layer spans. `src/main.rs` is the command line; README.md
//! describes the workloads and every metric.

pub mod host;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// SplitMix64: the benchmark's only source of randomness. Every input
/// is `mix(seed, stream, index)`, so the same `--seed` always yields
/// the same inputs and no call depends on another call's draw.
#[must_use]
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th draw of a named input `stream` under `seed`.
#[must_use]
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream) ^ index)
}
