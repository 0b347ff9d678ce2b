//! Host facts that are not the program: a fixed reference loop that
//! tracks how fast this host runs right now, and the process's peak
//! resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Times a fixed, program-independent integer loop (about 2 ms on a
/// current x86 core), in milliseconds. Sampled at intervals through a
/// run, its spread shows host contention: a slower reference loop
/// alongside a slower call points at the host, not at a regression.
#[must_use]
pub fn ref_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = 0u64;
    for _ in 0..2_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM` in `/proc/self/status`) in MB.
/// `None` where the kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
