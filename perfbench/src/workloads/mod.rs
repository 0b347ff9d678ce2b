//! The four workloads. Each is one closed loop of equal-sized calls
//! into the program's public APIs, on one fleet thread. Call `i`'s
//! input is a pure function of the workload seed and `i`.

pub mod fork_trials;
pub mod keyrec;
pub mod noisy_leak;
pub mod scan;

use pandora_sim::SimError;

/// What one call produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallOut {
    /// Units of work the call did (the workload's [`Spec::unit`]).
    pub work: u64,
    /// Whether the output passed the workload's check.
    pub ok: bool,
    /// FNV-1a hash of the call's simulated outputs: recovered key,
    /// per-trial cycle counts, scan report bytes or leaked byte.
    pub digest: u64,
}

/// A call that could not produce an output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallError(pub String);

impl From<SimError> for CallError {
    fn from(e: SimError) -> CallError {
        CallError(format!("simulation failed: {e}"))
    }
}

/// One benchmark workload, set up and ready to take calls.
pub trait Workload {
    /// Runs call `i`, checks its output and hashes it. Calls record
    /// layer spans through [`crate::trace`] when the recorder is on,
    /// and must produce the same output either way.
    ///
    /// # Errors
    ///
    /// A [`CallError`] when the program returned an error instead of
    /// an output; the run counts it as a failed op.
    fn call(&mut self, i: u64) -> Result<CallOut, CallError>;
}

/// Static facts about a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// The unit of `work_per_s`.
    pub unit: &'static str,
    /// The first `digest_calls` calls form `sim_digest`, and
    /// `peak_rss_mb` is read after them; every run makes at least that
    /// many.
    pub digest_calls: u64,
    /// Share of calls that may return a wrong answer in a correct run:
    /// 0, except where the attack itself is probabilistic.
    pub max_failed_share: f64,
    /// Builds the workload from the seed: inputs, programs, attacks,
    /// checkpoints. The run then makes one untimed warm-up call.
    pub setup: fn(u64) -> Box<dyn Workload>,
}

/// Every workload. `BENCHMARK.json` gates `fork_trials` and `scan`;
/// `keyrec` and `noisy_leak` run the same way but are not gated (see
/// README.md, "Host noise").
pub const ALL: [Spec; 4] = [
    Spec {
        name: "keyrec",
        unit: "guess trials",
        digest_calls: 4,
        max_failed_share: 0.0,
        setup: keyrec::setup,
    },
    Spec {
        name: "fork_trials",
        unit: "trials",
        digest_calls: 20,
        max_failed_share: 0.0,
        setup: fork_trials::setup,
    },
    Spec {
        name: "scan",
        unit: "requests",
        digest_calls: 2,
        max_failed_share: 0.0,
        setup: scan::setup,
    },
    Spec {
        name: "noisy_leak",
        unit: "bytes",
        digest_calls: 100,
        // Voting at e16's midpoint noise misses a few bytes by design
        // (deterministically per seed); more than one in ten would mean
        // the voted receiver no longer survives that noise.
        max_failed_share: 0.1,
        setup: noisy_leak::setup,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// The call index of the untimed warm-up call, beyond the range any
/// timed call reaches, so the warm-up never repeats a timed input.
pub const WARMUP_CALL: u64 = 1 << 40;
