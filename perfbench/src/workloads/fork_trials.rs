//! `fork_trials`: provisioning-heavy, step-light. One call is one
//! `fleet::trial_grid` of [`TRIALS`] Fig 5 amplified trials, all forked
//! from a single `Arc<Checkpoint>` warmed to the post-fence commit
//! boundary. Each trial's prep writes a seed-chosen silent (equal) or
//! loud (different) old value to the target. Check: every silent trial
//! takes [`SILENT_CYCLES`] and every loud one [`LOUD_CYCLES`], at least
//! 100 cycles more (the paper's amplification).

use std::cell::Cell;
use std::sync::Arc;

use pandora_attacks::{AmplifyGadget, FlushKind};
use pandora_isa::{Asm, Program, Reg};
use pandora_runner::fnv1a64;
use pandora_sim::fleet::{self, MemberSpec};
use pandora_sim::{Checkpoint, Machine, OptConfig, SimConfig, SimStats};

use super::{CallError, CallOut, Workload};
use crate::{mix, trace};

/// Trials per call.
pub const TRIALS: usize = 1000;
/// Cycles of a silent trial (a regression reference from the
/// unvalidated model, not a hardware measurement).
pub const SILENT_CYCLES: u64 = 390;
/// Cycles of a loud trial (same caveat).
pub const LOUD_CYCLES: u64 = 511;
const _: () = assert!(LOUD_CYCLES >= SILENT_CYCLES + 100, "amplified gap");

const TARGET: u64 = 0x1_0000;
const DELAY: u64 = 0x8_0000;
const STREAM_NEW: u64 = 0x666f_726b_0001;
const STREAM_TRIAL: u64 = 0x666f_726b_0002;

/// The value the measured program stores to the target.
fn new_value(seed: u64) -> u64 {
    mix(seed, STREAM_NEW, 0) | 1
}

/// Call `i`'s per-trial old target values: equal to the stored value
/// (silent) or differing from it (loud), chosen by the seed.
#[must_use]
pub fn trial_plan(seed: u64, i: u64) -> Vec<u64> {
    let new = new_value(seed);
    (0..TRIALS as u64)
        .map(|j| {
            let r = mix(
                seed,
                STREAM_TRIAL,
                i.wrapping_mul(TRIALS as u64).wrapping_add(j),
            );
            if r & 1 == 0 {
                new
            } else {
                new ^ (r | 2)
            }
        })
        .collect()
}

/// Fig 5's measured program: warm the target, run the contention
/// gadget, store `new` to the target, drain the trailing stores.
fn measure_program(gadget: &AmplifyGadget, new: u64) -> Program {
    let mut a = Asm::new();
    a.ld(Reg::T0, Reg::ZERO, TARGET as i64);
    for i in 1..6i64 {
        a.ld(Reg::T0, Reg::ZERO, (TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.li(Reg::T0, new);
    gadget.emit(&mut a);
    a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
    for i in 1..6i64 {
        a.sd(Reg::T0, Reg::ZERO, (TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.halt();
    a.assemble().expect("fig5 program assembles")
}

/// The post-fence warm state every trial of a run forks from: the
/// program loaded, the gadget's memory image baked, and the six warm
/// loads plus the fence (seven instructions) committed.
pub fn warm_checkpoint(cfg: SimConfig, new: u64) -> (Arc<Program>, Arc<Checkpoint>) {
    let gadget = AmplifyGadget::new(&cfg, TARGET, DELAY, FlushKind::Contention);
    let prog = Arc::new(measure_program(&gadget, new));
    let mut warm = Machine::new(cfg);
    warm.load_program(&prog);
    gadget.setup_memory(warm.mem_mut());
    gadget.setup_memory_flush_variant(warm.mem_mut());
    warm.run_until_committed(7, 1_000_000)
        .expect("warm prefix commits");
    let ck = trace::span("sim.snapshot", || warm.snapshot());
    (prog, Arc::new(ck))
}

struct ForkTrials {
    seed: u64,
    new: u64,
    cfg: SimConfig,
    prog: Arc<Program>,
    ck: Arc<Checkpoint>,
    /// Counters already in the checkpoint, subtracted per trial so the
    /// traced counters cover only the stepped part.
    at_fork: SimStats,
}

/// Builds the program and the shared warm checkpoint.
pub fn setup(seed: u64) -> Box<dyn Workload> {
    fleet::set_default_threads(1);
    let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
    let new = new_value(seed);
    let (prog, ck) = warm_checkpoint(cfg, new);
    let at_fork = *Machine::from_checkpoint(&ck).stats();
    Box::new(ForkTrials {
        seed,
        new,
        cfg,
        prog,
        ck,
        at_fork,
    })
}

thread_local! {
    /// End of the previous trial stage, for the traced stage spans.
    static MARK: Cell<u64> = const { Cell::new(0) };
}

/// A trial's prep: write the old target value.
fn prep(m: &mut Machine, old: u64) {
    m.mem_mut()
        .write_u64(TARGET, old)
        .expect("target in memory");
}

/// The traced prep: the span since the previous trial's extract (or
/// the grid start) is the fleet's dispatch plus the restore, then the
/// write is the prep.
fn traced_prep(m: &mut Machine, old: u64) {
    let t0 = trace::now_ns();
    trace::record("fleet.restore_stage", MARK.get(), t0);
    prep(m, old);
    let t1 = trace::now_ns();
    trace::record("fleet.prep", t0, t1);
    MARK.set(t1);
}

/// Times `n` direct `Machine::restore`s from `ck` on one machine, each
/// after the machine ran a loud trial to its halt, as a pooled machine
/// has before its next fork. Only the restores are recorded, as
/// `sim.restore` spans.
///
/// # Panics
///
/// Panics if a trial fails; the probe's inputs are fixed.
pub fn direct_restores(ck: &Checkpoint, new: u64, n: usize) {
    let mut m = Machine::from_checkpoint(ck);
    for _ in 0..n {
        prep(&mut m, !new);
        m.run(1_000_000).expect("probe trial runs");
        trace::span("sim.restore", || m.restore(ck));
    }
}

impl ForkTrials {
    fn spec(&self, old: u64, traced: bool) -> MemberSpec {
        MemberSpec::new(self.cfg, Arc::clone(&self.prog))
            .with_start(Arc::clone(&self.ck))
            .with_max_cycles(1_000_000)
            .with_prep(move |m| {
                if traced {
                    traced_prep(m, old);
                } else {
                    prep(m, old);
                }
                Ok(())
            })
    }
}

impl Workload for ForkTrials {
    fn call(&mut self, i: u64) -> Result<CallOut, CallError> {
        let traced = trace::enabled();
        let plan = trial_plan(self.seed, i);
        let specs: Vec<MemberSpec> = trace::span("fleet.build_specs", || {
            plan.iter().map(|&old| self.spec(old, traced)).collect()
        });
        let at_fork = self.at_fork;
        let results = trace::span("fleet.trial_grid", || {
            if traced {
                MARK.set(trace::now_ns());
            }
            fleet::trial_grid(&specs, 1, |_, _, stats| {
                if traced {
                    let t0 = trace::now_ns();
                    trace::record("sim.run", MARK.get(), t0);
                    trace::count("sim.cycles", (stats.cycles - at_fork.cycles) as f64);
                    trace::count(
                        "sim.committed",
                        (stats.committed - at_fork.committed) as f64,
                    );
                    trace::count("sim.squashes", squashes(&stats, &at_fork) as f64);
                    trace::count("sim.trials", 1.0);
                    trace::count("fleet.trials", 1.0);
                    trace::count("fleet.staged_trials", 1.0);
                    let t1 = trace::now_ns();
                    trace::record("fleet.extract", t0, t1);
                    MARK.set(t1);
                }
                stats.cycles
            })
        });
        let mut outputs = Vec::with_capacity(8 * TRIALS);
        let mut ok = true;
        for (r, &old) in results.into_iter().zip(&plan) {
            let cycles = r.map_err(|e| CallError(format!("trial failed: {e}")))?;
            outputs.extend_from_slice(&cycles.to_le_bytes());
            let want = if old == self.new {
                SILENT_CYCLES
            } else {
                LOUD_CYCLES
            };
            ok &= cycles == want;
        }
        Ok(CallOut {
            work: TRIALS as u64,
            ok,
            digest: fnv1a64(&outputs),
        })
    }
}

/// Squash events (branch and value mispredictions) since the fork.
fn squashes(s: &SimStats, at_fork: &SimStats) -> u64 {
    (s.branch_squashes + s.vp_squashes) - (at_fork.branch_squashes + at_fork.vp_squashes)
}
