//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed, as
//! the last line of standard output, by one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 1` the spans are also written, one JSON object per
//! line, under `$CARGO_TARGET_DIR/perfbench-spans/` (default
//! `perfbench/target/perfbench-spans/`).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Opts, Outcome};
use perfbench::trace::{self, Recording};
use perfbench::workloads;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(val).ok_or_else(|| format!("unknown workload {val:?}"))?,
                );
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced.ok_or("--trace is required")?,
    })
}

/// Writes both recordings as JSON lines; returns the file path.
fn write_spans(opts: &Opts, wl: &Recording, probe: &Recording) -> std::io::Result<PathBuf> {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = root.join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", opts.spec.name, opts.seed));
    let mut out = String::new();
    for (part, rec) in [("workload", wl), ("probe", probe)] {
        for (s, self_ns) in rec.spans.iter().zip(trace::self_times(&rec.spans)) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"part":"{part}","name":"{}","id":{},"parent":{parent},"call":{},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.name, s.id, s.call, s.start_ns, s.end_ns
            );
        }
        for (name, v) in &rec.counts {
            let _ = writeln!(out, r#"{{"part":"{part}","counter":"{name}","value":{v}}}"#);
        }
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

fn result_line(opts: &Opts, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{}"}}"#,
                m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.correct(opts.spec),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };
    let outcome = run(&opts);
    if outcome.metrics.values().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: a metric could not be measured");
        for n in &outcome.notes {
            eprintln!("{n}");
        }
        return ExitCode::FAILURE;
    }
    let mut stdout = std::io::stdout().lock();
    for n in &outcome.notes {
        let _ = writeln!(stdout, "{n}");
    }
    if let Some((wl, probe)) = &outcome.recordings {
        match write_spans(&opts, wl, probe) {
            Ok(p) => {
                let _ = writeln!(stdout, "spans written to {}", p.display());
            }
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let _ = writeln!(stdout, "{}", result_line(&opts, &outcome));
    ExitCode::SUCCESS
}
