//! `keyrec`: the paper's time-to-key (Fig 6). One call recovers one
//! seed-derived victim key with `BsaesAttack::recover_key`, trying a
//! window of [`WINDOW`] guesses per slice placed at a seed-derived
//! offset around the true slice value, so every key costs
//! `8 * WINDOW + 1` amplified trials. Check: recovered key == victim
//! key. A traced call is one `attacks.recover_key` span around the
//! program's own `recover_key`; its sub-layers (slice recovery, bsaes
//! builds, stepping) are timed by the layer probe.

use pandora_attacks::BsaesAttack;
use pandora_crypto::{bitslice, Block, RoundKeys};
use pandora_runner::fnv1a64;
use pandora_sim::fleet;

use super::{CallError, CallOut, Workload};
use crate::{mix, trace};

/// Guesses per slice.
pub const WINDOW: u16 = 2;
/// Minimum runner-up gap, in cycles, for a slice guess to count.
const MIN_GAP: u64 = 60;

const STREAM_KEY: u64 = 0x6b65_7972_6563_0001;
const STREAM_OFFSET: u64 = 0x6b65_7972_6563_0002;
const STREAM_FIXED: u64 = 0x6b65_7972_6563_0003;

fn block(seed: u64, stream: u64, i: u64) -> Block {
    let (a, b) = (mix(seed, stream, 2 * i), mix(seed, stream, 2 * i + 1));
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&a.to_le_bytes());
    out[8..].copy_from_slice(&b.to_le_bytes());
    out
}

/// Call `i`'s victim key.
#[must_use]
pub fn victim_key(seed: u64, i: u64) -> Block {
    block(seed, STREAM_KEY, i)
}

struct KeyRec {
    seed: u64,
    attacker_key: Block,
    victim_pt: Block,
}

/// Fixes the attacker key and the victim plaintext for the run.
pub fn setup(seed: u64) -> Box<dyn Workload> {
    fleet::set_default_threads(1);
    Box::new(KeyRec {
        seed,
        attacker_key: block(seed, STREAM_FIXED, 0),
        victim_pt: block(seed, STREAM_FIXED, 1),
    })
}

impl KeyRec {
    /// Slice `k`'s guess window for call `i`: [`WINDOW`] consecutive
    /// values holding the truth at a seed-derived position.
    fn window(&self, truth: &[u16; 8], i: u64, k: usize) -> Vec<u16> {
        let at = (mix(self.seed, STREAM_OFFSET, i * 8 + k as u64) % u64::from(WINDOW)) as u16;
        let lo = truth[k].wrapping_sub(at);
        (0..WINDOW).map(|d| lo.wrapping_add(d)).collect()
    }
}

impl Workload for KeyRec {
    fn call(&mut self, i: u64) -> Result<CallOut, CallError> {
        let vk = victim_key(self.seed, i);
        let truth = bitslice::final_subbytes_slices(&RoundKeys::expand(&vk), &self.victim_pt);
        let window = |k: usize| self.window(&truth, i, k);
        let key = trace::span("attacks.recover_key", || {
            BsaesAttack::new(vk, self.attacker_key, self.victim_pt, 0).recover_key(window, MIN_GAP)
        });
        let trials = 8 * u64::from(WINDOW) + 1;
        trace::count("fleet.trials", trials as f64);
        Ok(CallOut {
            work: trials,
            ok: key == Some(vk),
            digest: fnv1a64(key.as_ref().map_or(b"none".as_slice(), |k| k.as_slice())),
        })
    }
}
