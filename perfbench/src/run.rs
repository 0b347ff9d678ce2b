//! One benchmark run: set up, warm up, measure a closed loop of calls
//! for the requested time, check every call, and compute the metrics.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use pandora_runner::fnv1a64;

use crate::stats::{median, percentile, quartiles, tail_percentile};
use crate::trace::{self, Recording};
use crate::workloads::{Spec, Workload, WARMUP_CALL};
use crate::{host, probe};

/// Set-ups per run; `setup_s` is their median. The first comes before
/// the first timed call; the rest are spread over the run, so the
/// set-up samples see the host the way the call samples do.
pub const SETUPS: usize = 11;
/// Seconds between reference-loop samples.
const REF_EVERY_S: f64 = 0.5;
/// Sample slots reserved before set-up. The sample vectors then never
/// reallocate mid-run, so the heap layout the program sees (and with it
/// `peak_rss_mb`) does not depend on how many calls fit in the run.
const SAMPLE_SLOTS: usize = 1 << 16;
/// Span budget of a traced run; once reached, the remaining calls run
/// untraced so a long run cannot grow the recorder without bound.
const SPAN_CAP: usize = 100_000;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// The workload.
    pub spec: &'static Spec,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed calls (the run also makes at least
    /// `spec.digest_calls` calls).
    pub seconds: f64,
    /// Traced run: alternate calls record layer spans, then the layer
    /// probe runs, and the per-layer metrics are reported.
    pub trace: bool,
}

/// One metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Calls made (ops attempted).
    pub attempted: u64,
    /// Calls whose output was wrong, that returned an error, or that
    /// panicked.
    pub failed: u64,
    /// Calls that returned an error or panicked (a subset of `failed`).
    pub errors: u64,
    /// Hash of the first `digest_calls` calls' outputs.
    pub sim_digest: u64,
    /// Reported metrics, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// The traced stretch's spans and the probe's (empty when
    /// untraced).
    pub recordings: Option<(Recording, Recording)>,
}

impl Outcome {
    /// Whether every call ran and the wrong-answer share stays within
    /// the workload's allowance.
    #[must_use]
    pub fn correct(&self, spec: &Spec) -> bool {
        self.errors == 0 && (self.failed as f64) <= spec.max_failed_share * self.attempted as f64
    }
}

/// Runs call `i`, catching panics; `None` for an error or a panic.
fn guarded_call(wl: &mut dyn Workload, i: u64) -> Option<crate::workloads::CallOut> {
    match panic::catch_unwind(AssertUnwindSafe(|| wl.call(i))) {
        Ok(Ok(out)) => Some(out),
        Ok(Err(e)) => {
            eprintln!("call {i}: {}", e.0);
            None
        }
        Err(_) => {
            eprintln!("call {i}: panicked");
            None
        }
    }
}

/// Replaces `wl` with a freshly set-up workload (built from the seed,
/// then one untimed warm-up call) and records the set-up time. The old
/// one is dropped first, so two never coexist in `peak_rss_mb`.
fn set_up(opts: &Opts, wl: &mut Option<Box<dyn Workload>>, times: &mut Vec<f64>) -> f64 {
    *wl = None;
    let t = Instant::now();
    let mut fresh = (opts.spec.setup)(opts.seed);
    let _ = guarded_call(fresh.as_mut(), WARMUP_CALL);
    let s = t.elapsed().as_secs_f64();
    *wl = Some(fresh);
    times.push(s);
    s
}

/// Runs the benchmark.
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    let mut lat_ms = Vec::with_capacity(SAMPLE_SLOTS);
    let mut traced_ms = Vec::with_capacity(SAMPLE_SLOTS);
    let mut ref_ms = Vec::with_capacity(SAMPLE_SLOTS);
    // The per-call output hashes `sim_digest` covers.
    let mut outputs = Vec::with_capacity(8 * opts.spec.digest_calls as usize);
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut wl = None;
    set_up(opts, &mut wl, &mut setup_times);
    let spec = opts.spec;
    ref_ms.push(host::ref_loop_ms());
    let (mut work, mut busy_s) = (0u64, 0f64);
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, 0u64);

    let start = Instant::now();
    // Seconds spent on set-ups inside the loop; not measured time.
    let mut paused = 0.0;
    let mut last_ref = 0.0;
    // `peak_rss_mb`, read once the digest calls are done and before any
    // later set-up. Up to there the allocation sequence is a pure
    // function of the seed; the later set-ups fall between calls at
    // host-time-dependent points, and whether the allocator then keeps
    // an extra freed 4 MiB machine image resident varied run to run.
    let mut rss = f64::NAN;
    let mut i = 0u64;
    while i < spec.digest_calls || start.elapsed().as_secs_f64() - paused < opts.seconds {
        let traced = opts.trace && i % 2 == 1 && trace::span_count() < SPAN_CAP;
        trace::set_call(i);
        trace::set_enabled(traced);
        let t = Instant::now();
        let out = trace::span("call", || {
            guarded_call(wl.as_deref_mut().expect("set up"), i)
        });
        let dt = t.elapsed().as_secs_f64();
        trace::set_enabled(false);

        attempted += 1;
        match out {
            Some(o) => {
                if !traced {
                    work += o.work;
                }
                failed += u64::from(!o.ok);
                if i < spec.digest_calls {
                    outputs.extend_from_slice(&o.digest.to_le_bytes());
                }
            }
            None => {
                failed += 1;
                errors += 1;
                if i < spec.digest_calls {
                    outputs.extend_from_slice(b"error");
                }
            }
        }
        if traced {
            traced_ms.push(dt * 1e3);
        } else {
            lat_ms.push(dt * 1e3);
            busy_s += dt;
        }
        if i + 1 == spec.digest_calls {
            rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        }
        let now = start.elapsed().as_secs_f64();
        if now - last_ref >= REF_EVERY_S {
            ref_ms.push(host::ref_loop_ms());
            last_ref = start.elapsed().as_secs_f64();
        }
        let due = opts.seconds * setup_times.len() as f64 / SETUPS as f64;
        if setup_times.len() < SETUPS && i + 1 >= spec.digest_calls && now - paused >= due {
            paused += set_up(opts, &mut wl, &mut setup_times);
        }
        i += 1;
    }
    ref_ms.push(host::ref_loop_ms());
    // Runs that ended before the schedule: set up the rest now.
    while setup_times.len() < SETUPS {
        set_up(opts, &mut wl, &mut setup_times);
    }
    let sim_digest = fnv1a64(&outputs);

    let mut notes = Vec::new();
    let mut metrics = BTreeMap::new();
    let calls = lat_ms.len();
    let mut sorted = lat_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&lat_ms);
    let (r_q1, r_q3) = quartiles(&ref_ms);
    let ref_med = median(&ref_ms);
    notes.push(format!(
        "workload {}  seed {}  unit: {}  calls {attempted} (untraced {calls})  ops attempted {attempted} failed {failed} (errors {errors})",
        spec.name, opts.seed, spec.unit
    ));
    notes.push(format!(
        "sim_digest {sim_digest:016x} over the first {} calls",
        spec.digest_calls
    ));
    notes.push(format!(
        "host.ref_loop_ms median {ref_med:.4} q1 {r_q1:.4} q3 {r_q3:.4} n={} (spread {:.1}%)",
        ref_ms.len(),
        100.0 * (r_q3 - r_q1) / ref_med
    ));

    let recordings = if opts.trace {
        let wl_rec = trace::take();
        drop(wl);
        probe::run(opts.seed);
        let probe_rec = trace::take();
        let t_p50 = median(&traced_ms);
        let layer = layer_metrics(&wl_rec, &probe_rec, traced_ms.len() as f64);
        for (name, (m, source)) in &layer {
            notes.push(format!(
                "{name:<28} {:>14.4} {:<6} from {source}",
                m.value, m.unit
            ));
            metrics.insert(*name, *m);
        }
        let overhead = 100.0 * (t_p50 - p50) / p50;
        notes.push(format!(
            "host.tracing_overhead_pct {overhead:.3} (traced p50 {t_p50:.4} ms n={}, untraced p50 {p50:.4} ms n={calls})",
            traced_ms.len()
        ));
        metrics.insert(
            "host.ref_loop_ms",
            Metric {
                value: ref_med,
                unit: "ms",
            },
        );
        metrics.insert(
            "host.tracing_overhead_pct",
            Metric {
                value: overhead,
                unit: "%",
            },
        );
        Some((wl_rec, probe_rec))
    } else {
        drop(wl);
        let setup_s = median(&setup_times);
        let wps = work as f64 / busy_s;
        let setups: Vec<String> = setup_times.iter().map(|s| format!("{s:.4}")).collect();
        notes.push(format!(
            "setup_s      {setup_s:.6} s   median of {SETUPS} set-ups [{}]",
            setups.join(", ")
        ));
        notes.push(format!(
            "work_per_s   {wps:.4} 1/s ({} per host second over {calls} calls, {busy_s:.3} s busy)",
            spec.unit
        ));
        notes.push(format!("call_p50_ms  {p50:.4} ms  n={calls}"));
        if let Some(p) = tail_percentile(calls) {
            notes.push(format!(
                "call_p{p}_ms  {:.4} ms  n={calls} (not gated)",
                percentile(&sorted, p)
            ));
        }
        notes.push(format!(
            "peak_rss_mb  {rss:.3} MB (VmHWM after set-up and the first {} calls)",
            spec.digest_calls
        ));
        notes.push(format!(
            "call_p50 / ref loop median {:.4} (drift-normalised, not gated)",
            p50 / ref_med
        ));
        metrics.insert(
            "setup_s",
            Metric {
                value: setup_s,
                unit: "s",
            },
        );
        metrics.insert(
            "work_per_s",
            Metric {
                value: wps,
                unit: "1/s",
            },
        );
        metrics.insert(
            "call_p50_ms",
            Metric {
                value: p50,
                unit: "ms",
            },
        );
        metrics.insert(
            "peak_rss_mb",
            Metric {
                value: rss,
                unit: "MB",
            },
        );
        None
    };

    Outcome {
        attempted,
        failed,
        errors,
        sim_digest,
        metrics,
        notes,
        recordings,
    }
}

/// Per-name span aggregates of one recording.
struct Agg<'a> {
    rec: &'a Recording,
    durs: BTreeMap<&'static str, Vec<f64>>,
    selfs: BTreeMap<&'static str, f64>,
    /// Traced calls the recording covers (1 for the probe).
    calls: f64,
}

impl<'a> Agg<'a> {
    fn new(rec: &'a Recording, calls: f64) -> Agg<'a> {
        let selfs_ns = trace::self_times(&rec.spans);
        let mut durs: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        let mut selfs: BTreeMap<_, f64> = BTreeMap::new();
        for (s, self_ns) in rec.spans.iter().zip(selfs_ns) {
            durs.entry(s.name).or_default().push(s.dur_ns() as f64);
            *selfs.entry(s.name).or_default() += self_ns as f64;
        }
        Agg {
            rec,
            durs,
            selfs,
            calls,
        }
    }

    fn count(&self, name: &str) -> Option<f64> {
        self.rec.counts.get(name).copied()
    }

    /// Median duration of `name` spans, in nanoseconds.
    fn median_ns(&self, name: &str) -> Option<f64> {
        self.durs.get(name).map(|d| median(d))
    }

    /// Mean duration of `name` spans, in nanoseconds.
    fn mean_ns(&self, name: &str) -> Option<f64> {
        self.durs
            .get(name)
            .map(|d| d.iter().sum::<f64>() / d.len() as f64)
    }

    /// Summed duration of `name` spans, in nanoseconds.
    fn total_ns(&self, name: &str) -> Option<f64> {
        self.durs.get(name).map(|d| d.iter().sum())
    }
}

/// Reads a metric from a recording (the first argument) with the
/// probe's at hand (the second); `None` when the recording does not
/// reach that layer.
type LayerFn = fn(&Agg, &Agg) -> Option<f64>;

/// Every per-layer metric except the two host ones: name, unit, and
/// how to read it.
const LAYER: [(&str, &str, LayerFn); 23] = [
    ("sim.step_ns_per_cycle", "ns", |a, _| {
        Some(a.total_ns("sim.run")? / a.count("sim.cycles")?)
    }),
    ("sim.cycles_per_call", "count", |a, _| {
        Some(a.count("sim.cycles")? / a.calls)
    }),
    ("sim.ipc", "count", |a, _| {
        Some(a.count("sim.committed")? / a.count("sim.cycles")?)
    }),
    ("sim.squashed_per_kinst", "count", |a, _| {
        Some(1e3 * a.count("sim.squashes")? / a.count("sim.committed")?)
    }),
    ("sim.restore_us", "us", |a, _| {
        Some(a.median_ns("sim.restore")? / 1e3)
    }),
    ("sim.snapshot_us", "us", |a, _| {
        Some(a.median_ns("sim.snapshot")? / 1e3)
    }),
    ("sim.reset_us", "us", |a, _| {
        Some(a.median_ns("sim.reset")? / 1e3)
    }),
    ("sim.image_write_us", "us", |a, _| {
        Some(a.median_ns("sim.image_write")? / 1e3)
    }),
    ("sim.new_machine_us", "us", |a, _| {
        Some(a.median_ns("sim.new_machine")? / 1e3)
    }),
    // A trial's restore stage is the fleet's dispatch plus the
    // restore; the probe's direct restores give the restore alone.
    ("fleet.overhead_us_per_trial", "us", |a, p| {
        let trials = a.count("fleet.staged_trials")?;
        let dispatch = a.total_ns("fleet.restore_stage")? - trials * p.mean_ns("sim.restore")?;
        let own = a.selfs.get("fleet.trial_grid")? + a.total_ns("fleet.build_specs")?;
        Some((dispatch + own) / trials / 1e3)
    }),
    ("fleet.trials", "count", |a, _| {
        Some(a.count("fleet.trials").unwrap_or(0.0) / a.calls)
    }),
    ("noise.step_ns_per_cycle", "ns", |a, _| {
        Some(a.total_ns("attacks.urg_run")? / a.count("noise.cycles")?)
    }),
    ("noise.events_per_kcycle", "count", |a, _| {
        Some(1e3 * a.count("noise.events")? / a.count("noise.cycles")?)
    }),
    ("isa.bsaes_build_ms", "ms", |a, _| {
        Some(a.median_ns("isa.bsaes_build")? / 1e6)
    }),
    ("sandbox.verify_us", "us", |a, _| {
        Some(a.median_ns("sandbox.verify")? / 1e3)
    }),
    ("sandbox.compile_us", "us", |a, _| {
        Some(a.median_ns("sandbox.compile")? / 1e3)
    }),
    ("attacks.recover_slice_ms", "ms", |a, _| {
        Some(a.median_ns("attacks.recover_slice")? / 1e6)
    }),
    ("attacks.urg_run_ms", "ms", |a, _| {
        Some(a.median_ns("attacks.urg_run")? / 1e6)
    }),
    ("attacks.vote_accuracy", "ratio", |a, _| {
        Some(a.count("attacks.bytes_right").unwrap_or(0.0) / a.count("attacks.bytes")?)
    }),
    ("server.parse_job_ms", "ms", |a, _| {
        Some(a.median_ns("server.parse_job")? / 1e6)
    }),
    ("server.run_scan_ms", "ms", |a, _| {
        Some(a.median_ns("server.run_scan")? / 1e6)
    }),
    ("server.report_json_us", "us", |a, _| {
        Some(a.median_ns("server.report_json")? / 1e3)
    }),
    ("server.runs_per_request", "count", |a, _| {
        Some(a.count("server.runs")? / a.count("server.requests")?)
    }),
];

/// Per-layer metrics: each from the workload's traced calls where
/// they reach the layer, else from the probe. `fleet.trials` always
/// comes from the workload (0 when its calls use no fleet grid).
fn layer_metrics(
    wl: &Recording,
    probe: &Recording,
    traced_calls: f64,
) -> BTreeMap<&'static str, (Metric, &'static str)> {
    let (wl, probe) = (Agg::new(wl, traced_calls.max(1.0)), Agg::new(probe, 1.0));
    LAYER
        .iter()
        .map(|&(name, unit, f)| {
            let (value, source) = match f(&wl, &probe) {
                Some(v) => (v, "workload"),
                None => (f(&probe, &probe).unwrap_or(f64::NAN), "probe"),
            };
            (name, (Metric { value, unit }, source))
        })
        .collect()
}
