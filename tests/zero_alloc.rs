//! Steady-state allocation audit for the simulator hot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warmup long enough for every pipeline scratch buffer, cache set, ROB
//! ring and event-bus buffer to reach its high-water mark, 10k further
//! [`Machine::step`] calls must perform **zero** heap allocations. This
//! pins the tentpole property of the allocation-free cycle loop: the
//! per-cycle `Uop` clones, rename `srcs` collects, store-resolution
//! Vecs and tag-snapshot collects that used to dominate the profile
//! are gone, and nothing reintroduces them silently.
//!
//! One `#[test]` covers the quiet and noisy fig. 5 configurations plus
//! a [`Machine::reset`] + re-warm leg and a [`Machine::restore`] leg
//! serially: the allocator is process-global, so splitting the
//! measurements into separate `#[test]` functions would let the
//! harness interleave them on different threads and misattribute
//! counts. The reset and restore legs pin the other half of the
//! hot-loop contract — rewinding a machine for another trial neither
//! allocates nor frees the buffers the steady state depends on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use pandora_bench::perf::{
    fig5_noisy_config, fig5_quiet_config, fig5_step_machine, fig5_step_program, warmup,
    NOISY_WARMUP_STEPS, QUIET_WARMUP_STEPS,
};
use pandora_sim::{FleetSpec, Machine};

/// System allocator wrapper that counts every allocation event.
/// Deallocations are deliberately not counted: freeing during
/// steady-state is as much a hot-loop bug as allocating, but every
/// `alloc`/`realloc` pairs with a later free, so counting allocation
/// entry points alone already catches both directions of churn.
struct CountingAlloc {
    allocs: AtomicU64,
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    allocs: AtomicU64::new(0),
};

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

const MEASURED_STEPS: u64 = 10_000;

fn allocs_now() -> u64 {
    ALLOC.allocs.load(Ordering::Relaxed)
}

fn steady_state_allocs(label: &str, m: &mut Machine, warmup_steps: u64) -> u64 {
    warmup(m, warmup_steps);
    let before = allocs_now();
    for _ in 0..MEASURED_STEPS {
        m.step()
            .unwrap_or_else(|e| panic!("{label}: step failed mid-measurement: {e}"));
    }
    let after = allocs_now();
    assert!(!m.is_halted(), "{label}: workload must never halt");
    after - before
}

#[test]
fn steady_state_step_is_allocation_free() {
    let mut quiet_machine = fig5_step_machine(fig5_quiet_config());
    let quiet = steady_state_allocs("fig5_quiet", &mut quiet_machine, QUIET_WARMUP_STEPS);
    assert_eq!(
        quiet, 0,
        "quiet fig5 config allocated {quiet} times across {MEASURED_STEPS} steady-state steps"
    );

    let mut noisy_machine = fig5_step_machine(fig5_noisy_config());
    let noisy = steady_state_allocs("fig5_noisy", &mut noisy_machine, NOISY_WARMUP_STEPS);
    assert_eq!(
        noisy, 0,
        "noisy fig5 config allocated {noisy} times across {MEASURED_STEPS} steady-state steps"
    );

    // `Machine::reset` promises to rewind to the post-construction
    // state *while keeping every allocation* — it is the primitive
    // calibration loops use to re-run trials without rebuilding a
    // machine. Both halves of that promise are audited here: the reset
    // itself must not allocate, and the post-reset machine must re-warm
    // back into an allocation-free steady state (nothing freed during
    // reset that the hot loop then has to re-grow).
    let before_reset = allocs_now();
    noisy_machine.reset();
    let reset_allocs = allocs_now() - before_reset;
    assert_eq!(
        reset_allocs, 0,
        "Machine::reset() allocated {reset_allocs} times; it must recycle in place"
    );

    let reheated = steady_state_allocs("fig5_noisy_after_reset", &mut noisy_machine, NOISY_WARMUP_STEPS);
    assert_eq!(
        reheated, 0,
        "post-reset noisy fig5 config allocated {reheated} times across {MEASURED_STEPS} \
         steady-state steps — reset must keep the hot loop's buffers at their high-water mark"
    );

    // Restore leg, on both configs: `Machine::restore` rewinds to a
    // mid-run checkpoint in place. From the second restore on the same
    // machine onward (the first makes the machine a descendant of the
    // checkpoint's sealed memory image) the restore itself allocates
    // nothing: memory copies back only its dirty pages, every state
    // buffer is rewound with `clone_from` at its captured capacity, the
    // program is re-cloned into its own buffer, and each hook is
    // restored in place instead of re-boxed. The steady state afterwards
    // must not allocate either, with *zero* re-warm steps: the
    // checkpoint captured the high-water marks, so the hot loop resumes
    // allocation-free from the first post-restore step.
    for (label, m) in [
        ("fig5_quiet", &mut quiet_machine),
        ("fig5_noisy", &mut noisy_machine),
    ] {
        let ck = m.snapshot();
        warmup(m, 1000); // drift past the checkpoint before rewinding
        m.restore(&ck);
        warmup(m, 1000);
        let before_restore = allocs_now();
        m.restore(&ck);
        let restore_allocs = allocs_now() - before_restore;
        assert_eq!(
            restore_allocs, 0,
            "{label}: the second Machine::restore from one checkpoint allocated \
             {restore_allocs} times; it must rewind in place"
        );
        let restored = steady_state_allocs(label, m, 0);
        assert_eq!(
            restored, 0,
            "post-restore {label} config allocated {restored} times across {MEASURED_STEPS} \
             steady-state steps — restore must reuse every buffer at its captured high-water mark"
        );
    }

    // Fleet leg: lockstep batch stepping through `Fleet::step_batch`
    // with an effective thread count of 1 runs inline on the caller's
    // thread (no spawning, no result buffers) and must inherit the
    // machines' allocation-free steady state — the fleet adds *zero*
    // per-batch overhead on the single-thread dispatch path that
    // `--fleet-threads 1` and nested-parallelism callers use.
    let program = Arc::new(fig5_step_program());
    let mut fleet = FleetSpec::seed_grid(
        fig5_quiet_config(),
        &program,
        [0, 1],
    )
    .with_threads(1)
    .build();
    fleet.step_batch(QUIET_WARMUP_STEPS);
    let before_fleet = allocs_now();
    fleet.step_batch(MEASURED_STEPS);
    let fleet_allocs = allocs_now() - before_fleet;
    assert_eq!(fleet.running(), 2, "fleet step workloads must never halt");
    assert_eq!(
        fleet_allocs, 0,
        "Fleet::step_batch (threads=1) allocated {fleet_allocs} times across {MEASURED_STEPS} \
         lockstep steps of 2 members — inline dispatch must stay allocation-free"
    );
}
