//! The benchmark's own rules: percentile choice, span self time, seed
//! determinism of every workload's inputs, and `sim_digest` stability.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::run::{run, Opts};
use perfbench::stats::{median, percentile, quartiles, tail_percentile};
use perfbench::trace::{self_times, Span};
use perfbench::workloads::{self, fork_trials, keyrec, noisy_leak, scan, ALL};

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(20), None);
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(9999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    // The rule itself, for every size: at least ten samples lie above
    // the chosen percentile.
    for n in 1..3000usize {
        let sorted: Vec<f64> = (0..n).map(|k| k as f64).collect();
        if let Some(p) = tail_percentile(n) {
            let beyond = sorted
                .iter()
                .filter(|&&x| x > percentile(&sorted, p))
                .count();
            assert!(beyond >= 10, "n={n} p={p} has {beyond} beyond");
        }
    }
}

#[test]
fn order_statistics_match_the_python_definitions() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&xs), 5.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&xs), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    let sorted = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(percentile(&sorted, 50.0), 20.0);
    assert_eq!(percentile(&sorted, 90.0), 40.0);
}

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "s",
        id,
        parent,
        call: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 30),
        // Overlaps its sibling: the shared 20..30 counts once.
        span(2, Some(0), 20, 50),
        span(3, Some(0), 60, 70),
        // A grandchild is its parent's business, not the root's.
        span(4, Some(3), 62, 68),
        // Reaches past its parent's end: only the covered part counts.
        span(5, Some(0), 95, 120),
    ];
    let st = self_times(&spans);
    assert_eq!(st[0], 100 - (40 + 10 + 5));
    assert_eq!(st[1], 20);
    assert_eq!(st[2], 30);
    assert_eq!(st[3], 10 - 6);
    assert_eq!(st[4], 6);
    assert_eq!(st[5], 25);
}

/// Checks that `input(seed, i)` is a pure function of its arguments,
/// differs between seeds, never repeats within a run, and never gives
/// the warm-up call a timed call's input.
fn check_inputs<T: PartialEq + std::fmt::Debug>(name: &str, input: impl Fn(u64, u64) -> T) {
    let run = |seed| (0..50).map(|i| input(seed, i)).collect::<Vec<_>>();
    let a = run(7);
    assert_eq!(a, run(7), "{name}: same seed, same inputs");
    assert_ne!(a, run(8), "{name}: another seed, other inputs");
    for (i, x) in a.iter().enumerate() {
        assert!(
            !a[..i].contains(x),
            "{name}: input {i} repeats within a run"
        );
    }
    assert!(
        !a.contains(&input(7, workloads::WARMUP_CALL)),
        "{name}: the warm-up input is a timed one"
    );
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    check_inputs("keyrec", keyrec::victim_key);
    check_inputs("fork_trials", fork_trials::trial_plan);
    check_inputs("scan", scan::call_bodies);
    check_inputs("noisy_leak", noisy_leak::target);
}

#[test]
fn sim_digest_repeats_across_runs_and_under_tracing() {
    for spec in &ALL {
        let short = |trace| {
            let o = run(&Opts {
                spec,
                seed: 11,
                seconds: 0.0,
                trace,
            });
            assert_eq!(
                o.attempted, spec.digest_calls,
                "{}: a 0 s run makes exactly the digest calls",
                spec.name
            );
            assert!(
                o.correct(spec),
                "{}: {} of {} calls failed",
                spec.name,
                o.failed,
                o.attempted
            );
            o.sim_digest
        };
        let first = short(false);
        assert_eq!(
            first,
            short(false),
            "{}: sim_digest differs between runs",
            spec.name
        );
        assert_eq!(
            first,
            short(true),
            "{}: the traced calls give other outputs",
            spec.name
        );
    }
}
