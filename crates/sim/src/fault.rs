//! Deterministic fault injection for robustness experiments.
//!
//! A [`FaultPlan`] is a cycle-ordered list of microarchitectural
//! disturbances — bit-flips, forced evictions, dropped prefetch fills,
//! spurious squashes, lost completions — installed on a [`Machine`]
//! with [`Machine::inject_faults`] and applied at the start of each
//! matching cycle of [`Machine::step`]. Plans are plain data: the same
//! plan on the same program and configuration reproduces the same run
//! bit for bit, which is what makes fault campaigns regression-testable.
//!
//! Two uses in the workspace:
//!
//! * **hardening tests** — assert that a disturbed machine returns a
//!   structured [`SimError`] (e.g. the watchdog's `Deadlock` after a
//!   [`FaultKind::DroppedCompletion`]) instead of aborting;
//! * **noisy-environment modeling** — periodic [`FaultKind::EvictLine`]
//!   events stand in for co-tenant cache pressure when exercising the
//!   attack harnesses' retry logic.
//!
//! [`Machine`]: crate::Machine
//! [`Machine::inject_faults`]: crate::Machine::inject_faults
//! [`Machine::step`]: crate::Machine::step
//! [`SimError`]: crate::SimError

use std::ops::Range;

use pandora_isa::Reg;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One kind of injected disturbance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Flip bit `bit & 7` of the memory byte at `addr` (a no-op if
    /// `addr` is out of bounds).
    MemBitFlip {
        /// The byte address to corrupt.
        addr: u64,
        /// Which bit of the byte to flip (taken modulo 8).
        bit: u8,
    },
    /// Flip bit `bit & 63` of architectural register `reg`, in both the
    /// committed register file and its current physical mapping (a
    /// no-op on `x0`).
    RegBitFlip {
        /// The register to corrupt.
        reg: Reg,
        /// Which bit to flip (taken modulo 64).
        bit: u8,
    },
    /// Drop the next `count` prefetch fills before they install a line
    /// (models lost fill responses / full prefetch queues).
    DropPrefetches {
        /// How many upcoming prefetch fills to swallow.
        count: u32,
    },
    /// Evict the line containing `addr` from every cache level (models
    /// co-tenant contention).
    EvictLine {
        /// An address inside the line to evict.
        addr: u64,
    },
    /// Squash every uncommitted instruction and refetch from the oldest
    /// one's pc (models a glitched recovery event). A no-op when the
    /// ROB is empty.
    SpuriousSquash,
    /// The oldest executing instruction's completion never arrives
    /// (models a lost cache-fill response). The machine wedges at that
    /// instruction, and the deadlock watchdog — not a cycle-cap
    /// timeout — is expected to report it.
    DroppedCompletion,
}

/// A [`FaultKind`] scheduled at a cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// The cycle at whose start the fault applies (the first cycle of
    /// [`Machine::step`] is cycle 1).
    ///
    /// [`Machine::step`]: crate::Machine::step
    pub cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, cycle-ordered fault schedule.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Capacity-preserving restore: copies `src`'s events into this
    /// plan's buffer.
    pub(crate) fn restore_from(&mut self, src: &FaultPlan) {
        self.events.clone_from(&src.events);
    }

    /// A plan firing the given events; they are sorted by cycle (stable,
    /// so same-cycle events keep their given order).
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.cycle);
        FaultPlan { events }
    }

    /// A plan with one event.
    #[must_use]
    pub fn single(cycle: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent { cycle, kind }])
    }

    /// A seeded pseudo-random disturbance plan: `n` events uniformly
    /// spread over `cycles`, drawing memory/eviction targets from
    /// `mem`. The same seed always produces the same plan.
    ///
    /// Only *recoverable* disturbance kinds are drawn (bit-flips,
    /// dropped prefetches, evictions, spurious squashes) — never
    /// [`FaultKind::DroppedCompletion`], which wedges the pipeline by
    /// design and belongs in targeted deadlock tests.
    #[must_use]
    pub fn random(seed: u64, n: usize, cycles: Range<u64>, mem: Range<u64>) -> FaultPlan {
        assert!(!cycles.is_empty(), "empty cycle window");
        assert!(!mem.is_empty(), "empty memory window");
        let mut rng = SmallRng::seed_from_u64(seed);
        let events = (0..n)
            .map(|_| {
                let cycle = rng.gen_range(cycles.clone());
                let kind = match rng.gen_range(0u8..5) {
                    0 => FaultKind::MemBitFlip {
                        addr: rng.gen_range(mem.clone()),
                        bit: rng.gen_range(0u8..8),
                    },
                    1 => FaultKind::RegBitFlip {
                        // x0 is excluded: flipping it is defined as a
                        // no-op and would waste the event.
                        reg: Reg::new(rng.gen_range(1u8..32)),
                        bit: rng.gen_range(0u8..64),
                    },
                    2 => FaultKind::DropPrefetches {
                        count: rng.gen_range(1u32..4),
                    },
                    3 => FaultKind::EvictLine {
                        addr: rng.gen_range(mem.clone()),
                    },
                    _ => FaultKind::SpuriousSquash,
                };
                FaultEvent { cycle, kind }
            })
            .collect();
        FaultPlan::new(events)
    }

    /// The scheduled events, in cycle order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sorted_by_cycle() {
        let p = FaultPlan::new(vec![
            FaultEvent {
                cycle: 90,
                kind: FaultKind::SpuriousSquash,
            },
            FaultEvent {
                cycle: 10,
                kind: FaultKind::EvictLine { addr: 0x40 },
            },
        ]);
        assert_eq!(p.events()[0].cycle, 10);
        assert_eq!(p.events()[1].cycle, 90);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(7, 32, 100..10_000, 0..0x1000);
        let b = FaultPlan::random(7, 32, 100..10_000, 0..0x1000);
        let c = FaultPlan::random(8, 32, 100..10_000, 0..0x1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn random_plans_stay_in_windows_and_exclude_wedges() {
        let p = FaultPlan::random(3, 64, 50..60, 0x100..0x200);
        for e in p.events() {
            assert!((50..60).contains(&e.cycle));
            match e.kind {
                FaultKind::MemBitFlip { addr, .. } | FaultKind::EvictLine { addr } => {
                    assert!((0x100..0x200).contains(&addr));
                }
                FaultKind::RegBitFlip { reg, .. } => assert!(!reg.is_zero()),
                FaultKind::DropPrefetches { count } => assert!(count >= 1),
                FaultKind::SpuriousSquash => {}
                FaultKind::DroppedCompletion => {
                    panic!("random plans must not schedule wedging faults")
                }
            }
        }
    }
}
