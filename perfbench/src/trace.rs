//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! it makes into a layer (and, inside fleet grids, at the benchmark's
//! `with_prep`/`extract` closures, which bound each trial's stages).
//! Nothing is written until the run ends. Recording is per thread;
//! every workload runs its fleet on one thread, so all of a call's
//! spans land in one recorder. When the recorder is off, `span` is a
//! flag check around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `sim.restore` or `server.run_scan`.
    pub name: &'static str,
    /// Index of this span in the run's span list.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The call this span belongs to (shared by all of a call's spans).
    pub call: u64,
    /// Start, in nanoseconds since the recorder was switched on.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was switched on.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything a traced stretch recorded.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Closed spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Counters, summed over the stretch.
    pub counts: BTreeMap<&'static str, f64>,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    call: u64,
    stack: Vec<u32>,
    rec: Recording,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        call: 0,
        stack: Vec::new(),
        rec: Recording::default(),
    });
}

/// Switches recording on or off for this thread. Spans and counters
/// are kept across switches until [`take`].
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Whether this thread is recording.
#[must_use]
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Tags subsequent spans with call id `call`.
pub fn set_call(call: u64) {
    REC.with(|r| r.borrow_mut().call = call);
}

/// Nanoseconds since the recorder's epoch.
#[must_use]
pub fn now_ns() -> u64 {
    REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Runs `f` inside a span named `name` when recording; otherwise just
/// runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = open(name);
    let out = f();
    close(id);
    out
}

fn open(name: &'static str) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let id = r.rec.spans.len() as u32;
        let parent = r.stack.last().copied();
        let call = r.call;
        r.rec.spans.push(Span {
            name,
            id,
            parent,
            call,
            start_ns,
            end_ns: start_ns,
        });
        r.stack.push(id);
        id
    })
}

fn close(id: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.rec.spans[id as usize].end_ns = end_ns;
        let popped = r.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    })
}

/// Records an already-finished span `[start_ns, end_ns)` as a child of
/// the innermost open span. Used for trial stages whose boundaries are
/// only known from the prep/extract closures that follow them.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return;
        }
        let id = r.rec.spans.len() as u32;
        let parent = r.stack.last().copied();
        let call = r.call;
        r.rec.spans.push(Span {
            name,
            id,
            parent,
            call,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    });
}

/// Adds `v` to counter `name` when recording.
pub fn count(name: &'static str, v: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            *r.rec.counts.entry(name).or_insert(0.0) += v;
        }
    });
}

/// Number of spans recorded so far on this thread.
#[must_use]
pub fn span_count() -> usize {
    REC.with(|r| r.borrow().rec.spans.len())
}

/// Takes everything recorded on this thread, leaving it empty.
#[must_use]
pub fn take() -> Recording {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().rec))
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once). Indexed like `spans`, whose `id`s must equal their
/// positions.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}
