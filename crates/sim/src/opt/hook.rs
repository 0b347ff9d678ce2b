//! The pluggable optimization layer: [`OptHook`] and its aggregator
//! [`Hooks`].
//!
//! The paper's Table I treats each optimization class as an independent
//! transformation over a fixed baseline; here each class is one
//! [`OptHook`] implementation, and a machine is "baseline + a list of
//! hooks" ([`Hooks::from_config`]). The interception points mirror the
//! stages the paper describes:
//!
//! | hook method | stage | optimization class |
//! |---|---|---|
//! | [`OptHook::store_dequeue_decision`], [`OptHook::silent_stores`] | store dequeue / issue | silent stores |
//! | [`OptHook::plan_alu`], [`OptHook::plan_fp`] | execute (latency planning) | computation simplification |
//! | [`OptHook::operand_packing`] | issue (ALU port accounting) | pipeline compression |
//! | [`OptHook::memo_lookup`], [`OptHook::memo_insert`], [`OptHook::on_rename`] | issue / writeback / rename | computation reuse |
//! | [`OptHook::predict_load`], [`OptHook::on_load_writeback`] | dispatch / writeback | value prediction |
//! | [`OptHook::rfc_compresses`] | writeback (early tag release) | register-file compression |
//! | [`OptHook::on_commit_load`] | commit (fill/observe) | DMP prefetching |
//!
//! Fault injection rides the same layer: [`FaultHook`] consumes a
//! [`FaultPlan`] from [`OptHook::on_cycle_start`] instead of bespoke
//! plumbing in `Machine::step`.

use std::any::Any;
use std::fmt;

use pandora_isa::{AluOp, FpOp, Reg, Width};

use crate::config::SimConfig;
use crate::event::{SimEvent, SquashReason};
use crate::fault::{FaultKind, FaultPlan};
use crate::opt::cdp::Cdp;
use crate::opt::comp_reuse::ReuseTable;
use crate::opt::comp_simpl::{plan_alu, plan_fp, ExecPlan};
use crate::opt::dmp::Imp;
use crate::opt::rf_compress::RfCompressor;
use crate::opt::silent_store::SsState;
use crate::opt::value_pred::ValuePredictor;
use crate::pipeline::{squash, PipelineState};
use crate::trace::NonSilentReason;

/// Result of a computation-reuse memo consultation
/// ([`OptHook::memo_lookup`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemoLookup {
    /// No hook handles this operation; plan and evaluate normally and
    /// do not count a lookup.
    NotApplicable,
    /// Memoized: reuse this result with unit latency and no port.
    Hit(u64),
    /// Eligible but absent: evaluate, then offer the result back via
    /// [`OptHook::memo_insert`] at writeback.
    Miss,
}

/// One optimization class (or the fault injector) plugged into the
/// baseline pipeline.
///
/// Every method has a no-op default, so a hook only implements the
/// interception points its optimization uses. Hooks mutate only their
/// own state plus whatever [`PipelineState`] exposes at the call site;
/// all observation is emitted as [`SimEvent`]s.
///
/// `Send + Sync` because hooks are plain data (learned tables, RNG
/// words — mutation always goes through `&mut self`): machines migrate
/// across fleet worker threads, and [`crate::Checkpoint`]s are shared
/// read-only behind `Arc` so forked trials can clone the hook list.
pub trait OptHook: Any + fmt::Debug + Send + Sync {
    /// A short stable identifier; [`Hooks::install`] replaces any
    /// existing hook with the same name.
    fn name(&self) -> &'static str;

    /// Clones this hook into a box (object-safe `Clone`).
    fn box_clone(&self) -> Box<dyn OptHook>;

    /// Makes `self` equal to `src` in place, reusing its allocations,
    /// when `src` is the same hook type, and reports whether it did.
    /// On `false`, `self` is untouched and [`Hooks`] replaces it with
    /// `src.box_clone()` — the default, always correct, allocates.
    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        let _ = src;
        false
    }

    /// Rewinds this hook to the state [`Hooks::from_config`] would
    /// have built it in, reusing existing allocations: learned state
    /// is forgotten, RNG streams are re-derived from their seeds.
    /// Stateless hooks keep the no-op default.
    fn reset(&mut self, cfg: &SimConfig) {
        let _ = cfg;
    }

    /// Called at the very start of each cycle, before commit.
    fn on_cycle_start(&mut self, st: &mut PipelineState) {
        let _ = st;
    }

    /// Filters the value an `rdcycle` instruction reads: given the
    /// true cycle, return the (possibly coarsened/jittered) value the
    /// program observes, or `None` to leave the timer exact. This is
    /// the noise hook's timer-degradation point.
    fn read_cycle(&mut self, cycle: u64) -> Option<u64> {
        let _ = cycle;
        None
    }

    /// Called when rename redefines architectural register `rd`.
    fn on_rename(&mut self, rd: Reg) {
        let _ = rd;
    }

    /// Value prediction for the load dispatching at `pc`.
    fn predict_load(&self, pc: usize) -> Option<u64> {
        let _ = pc;
        None
    }

    /// Called when a non-faulting load at `pc` writes back `value`.
    fn on_load_writeback(&mut self, pc: usize, value: u64) {
        let _ = (pc, value);
    }

    /// Computation-reuse memo consultation at issue. `base_eligible` is
    /// true for operations the baseline always considers reusable
    /// (multiplies, divides, floating point).
    fn memo_lookup(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        base_eligible: bool,
    ) -> MemoLookup {
        let _ = (pc, vals, srcs, base_eligible);
        MemoLookup::NotApplicable
    }

    /// Offers a computed result for memoization at writeback.
    /// `younger_redefines` reports whether a younger in-flight
    /// instruction already redefined one of the given source registers
    /// (the insert-after-invalidate hazard).
    fn memo_insert(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        result: u64,
        younger_redefines: &mut dyn FnMut(&[Option<Reg>; 2]) -> bool,
    ) {
        let _ = (pc, vals, srcs, result, younger_redefines);
    }

    /// Execution plan for an integer ALU operation (computation
    /// simplification). `None` falls through to the baseline plan.
    fn plan_alu(&self, op: AluOp, a: u64, b: u64) -> Option<ExecPlan> {
        let _ = (op, a, b);
        None
    }

    /// Execution plan for a floating-point operation. `None` falls
    /// through to the baseline plan.
    fn plan_fp(&self, op: FpOp, a: u64, b: u64) -> Option<ExecPlan> {
        let _ = (op, a, b);
        None
    }

    /// Whether narrow ALU operand packing is active this run.
    fn operand_packing(&self) -> bool {
        false
    }

    /// Whether silent-store checking (SS-load issue) is active.
    fn silent_stores(&self) -> bool {
        false
    }

    /// Decides whether the committed store at the SQ head may dequeue
    /// silently (`Ok`) or must perform (`Err` with the reason). `None`
    /// falls through to the baseline, which performs every store.
    fn store_dequeue_decision(&self, ss: SsState) -> Option<Result<(), NonSilentReason>> {
        let _ = ss;
        None
    }

    /// Whether register-file compression shares the tag holding
    /// `result` (given the current architectural registers).
    fn rfc_compresses(&self, result: u64, arch_regs: &[u64]) -> bool {
        let _ = (result, arch_regs);
        false
    }

    /// Called when a load commits: `addr`/`width` are the resolved
    /// access (absent if the load never executed), `value` its result.
    /// This is the DMP observation point.
    fn on_commit_load(
        &mut self,
        st: &mut PipelineState,
        pc: usize,
        addr: Option<u64>,
        value: u64,
        width: Option<Width>,
    ) {
        let _ = (st, pc, addr, value, width);
    }
}

/// An ordered list of [`OptHook`]s with aggregation semantics: "any"
/// for capability flags, "first answer wins" for planning queries, and
/// in-order iteration for notifications.
#[derive(Debug, Default)]
pub struct Hooks {
    list: Vec<Box<dyn OptHook>>,
    /// Cached "any hook enables operand packing / silent stores"
    /// answers. Both are per-hook-type constants, so the aggregate only
    /// changes when the list itself does; the issue stage queries them
    /// every cycle, which made the virtual-dispatch scan measurable.
    packing: bool,
    ss: bool,
}

impl Clone for Hooks {
    fn clone(&self) -> Hooks {
        Hooks {
            list: self.list.iter().map(|h| h.box_clone()).collect(),
            packing: self.packing,
            ss: self.ss,
        }
    }

    /// The checkpoint-restore path: when the two lists match name by
    /// name, every hook is restored in place ([`OptHook::restore_from`])
    /// and nothing is boxed; otherwise the list is re-cloned.
    fn clone_from(&mut self, src: &Hooks) {
        let same_names = self.list.len() == src.list.len()
            && self.list.iter().zip(&src.list).all(|(a, b)| a.name() == b.name());
        if same_names {
            for (dst, src) in self.list.iter_mut().zip(&src.list) {
                if !dst.restore_from(&**src) {
                    *dst = src.box_clone();
                }
            }
        } else {
            self.list.clear();
            self.list.extend(src.list.iter().map(|h| h.box_clone()));
        }
        self.packing = src.packing;
        self.ss = src.ss;
    }
}

/// `src` as an `H`, if it is one.
fn downcast<H: OptHook>(src: &dyn OptHook) -> Option<&H> {
    let src: &dyn Any = src;
    src.downcast_ref()
}

/// In-place [`OptHook::restore_from`] for a hook with no heap state:
/// copies `src` over `dst` if it is an `H`.
pub(crate) fn restore_same<H: OptHook + Clone>(dst: &mut H, src: &dyn OptHook) -> bool {
    downcast(src).map(|src| dst.clone_from(src)).is_some()
}

impl Hooks {
    /// An empty hook list (the pure baseline machine).
    #[must_use]
    pub fn new() -> Hooks {
        Hooks::default()
    }

    /// Builds the hook list matching a [`SimConfig`]'s enabled Table I
    /// optimization classes, in the pipeline's canonical order.
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Hooks {
        let o = &cfg.opts;
        let mut list: Vec<Box<dyn OptHook>> = Vec::new();
        if o.silent_stores {
            list.push(Box::new(SilentStoreHook));
        }
        if o.comp_simpl || o.fp_subnormal {
            list.push(Box::new(CompSimplHook {
                lat: cfg.latency,
                opts: *o,
            }));
        }
        if o.operand_packing {
            list.push(Box::new(PipeCompressHook));
        }
        if o.comp_reuse {
            list.push(Box::new(CompReuseHook {
                table: ReuseTable::new(o.reuse_entries.max(1), o.reuse_key),
                simple_alu: o.reuse_simple_alu,
            }));
        }
        if o.value_pred {
            list.push(Box::new(ValuePredHook {
                vp: ValuePredictor::with_kind(o.vp_confidence, o.vp_kind),
            }));
        }
        if o.rf_compress {
            list.push(Box::new(RfCompressHook {
                rfc: RfCompressor::new(o.rfc_match),
            }));
        }
        if o.cdp {
            list.push(Box::new(CdpHook {
                cdp: Cdp::new(cfg.l1d.line, o.dmp_fill),
            }));
        }
        if o.dmp {
            list.push(Box::new(ImpHook { imp: Imp::new(o) }));
        }
        if cfg.noise.enabled() {
            // Last, so a cycle's optimization decisions precede the
            // environment's disturbances deterministically.
            list.push(Box::new(crate::noise::NoiseHook::new(cfg.noise)));
        }
        let mut hooks = Hooks {
            list,
            packing: false,
            ss: false,
        };
        hooks.recache_capabilities();
        hooks
    }

    /// Recomputes the cached capability flags from the current list.
    /// Must be called after every mutation of `self.list`.
    fn recache_capabilities(&mut self) {
        self.packing = self.list.iter().any(|h| h.operand_packing());
        self.ss = self.list.iter().any(|h| h.silent_stores());
    }

    /// Installs a hook, replacing any existing hook with the same
    /// [`OptHook::name`].
    pub fn install(&mut self, hook: Box<dyn OptHook>) {
        let name = hook.name();
        self.list.retain(|h| h.name() != name);
        self.list.push(hook);
        self.recache_capabilities();
    }

    /// Replaces the environmental-noise hook to match `cfg.noise`:
    /// removes any installed noise hook, then (when the new config has
    /// noise enabled) appends a fresh [`crate::noise::NoiseHook`] with
    /// streams derived from the new seed — exactly the hook
    /// [`Hooks::from_config`] would have built, in its canonical
    /// last-of-list position.
    ///
    /// This is the per-member noise override used by cycle-0
    /// checkpoint forks ([`crate::Machine::set_noise`]): at cycle 0 no
    /// noise has been drawn yet, so swapping the hook is bit-equal to
    /// constructing the machine under the new config.
    pub fn set_noise(&mut self, cfg: &SimConfig) {
        self.list.retain(|h| h.name() != "noise");
        if cfg.noise.enabled() {
            // Keep the canonical order (noise after every optimization
            // class, before any installed fault hook).
            let at = self
                .list
                .iter()
                .position(|h| h.name() == "fault")
                .unwrap_or(self.list.len());
            self.list
                .insert(at, Box::new(crate::noise::NoiseHook::new(cfg.noise)));
        }
        self.recache_capabilities();
    }

    /// The hook names [`Hooks::from_config`] would install for `cfg`,
    /// in canonical order, without allocating any hook.
    fn config_names(cfg: &SimConfig) -> ([&'static str; 9], usize) {
        let o = &cfg.opts;
        let mut names = [""; 9];
        let mut n = 0;
        let mut add = |name| {
            names[n] = name;
            n += 1;
        };
        if o.silent_stores {
            add("silent_store");
        }
        if o.comp_simpl || o.fp_subnormal {
            add("comp_simpl");
        }
        if o.operand_packing {
            add("pipe_compress");
        }
        if o.comp_reuse {
            add("comp_reuse");
        }
        if o.value_pred {
            add("value_pred");
        }
        if o.rf_compress {
            add("rf_compress");
        }
        if o.cdp {
            add("cdp");
        }
        if o.dmp {
            add("dmp");
        }
        if cfg.noise.enabled() {
            add("noise");
        }
        (names, n)
    }

    /// Rewinds the hook list to what [`Hooks::from_config`] builds for
    /// `cfg` — without re-boxing any hook. Any installed fault hook is
    /// dropped (a reset machine has no pending fault plan), learned
    /// state is cleared in place, and the noise RNG streams are
    /// re-derived from their seeds. If the surviving list does not
    /// match the canonical set (e.g. a custom hook was
    /// [`install`](Hooks::install)ed), it falls back to a full
    /// rebuild.
    pub fn reset_from_config(&mut self, cfg: &SimConfig) {
        self.list.retain(|h| h.name() != "fault");
        let (names, n) = Hooks::config_names(cfg);
        let canonical = self.list.len() == n
            && self.list.iter().zip(&names[..n]).all(|(h, e)| h.name() == *e);
        if !canonical {
            *self = Hooks::from_config(cfg);
            return;
        }
        for h in &mut self.list {
            h.reset(cfg);
        }
        self.recache_capabilities();
    }

    /// The installed hook names, in call order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.list.iter().map(|h| h.name()).collect()
    }

    /// Fans [`OptHook::on_cycle_start`] out to every hook in order.
    pub fn on_cycle_start(&mut self, st: &mut PipelineState) {
        for h in &mut self.list {
            h.on_cycle_start(st);
        }
    }

    /// The first hook's degraded `rdcycle` reading, if any.
    pub fn read_cycle(&mut self, cycle: u64) -> Option<u64> {
        self.list.iter_mut().find_map(|h| h.read_cycle(cycle))
    }

    /// Fans [`OptHook::on_rename`] out to every hook in order.
    pub fn on_rename(&mut self, rd: Reg) {
        for h in &mut self.list {
            h.on_rename(rd);
        }
    }

    /// The first hook's load-value prediction, if any.
    #[must_use]
    pub fn predict_load(&self, pc: usize) -> Option<u64> {
        self.list.iter().find_map(|h| h.predict_load(pc))
    }

    /// Fans [`OptHook::on_load_writeback`] out to every hook in order.
    pub fn on_load_writeback(&mut self, pc: usize, value: u64) {
        for h in &mut self.list {
            h.on_load_writeback(pc, value);
        }
    }

    /// The first non-[`MemoLookup::NotApplicable`] memo answer.
    pub fn memo_lookup(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        base_eligible: bool,
    ) -> MemoLookup {
        for h in &mut self.list {
            match h.memo_lookup(pc, vals, srcs, base_eligible) {
                MemoLookup::NotApplicable => continue,
                answer => return answer,
            }
        }
        MemoLookup::NotApplicable
    }

    /// Fans [`OptHook::memo_insert`] out to every hook in order.
    pub fn memo_insert(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        result: u64,
        younger_redefines: &mut dyn FnMut(&[Option<Reg>; 2]) -> bool,
    ) {
        for h in &mut self.list {
            h.memo_insert(pc, vals, srcs, result, younger_redefines);
        }
    }

    /// The first hook's ALU execution plan, if any.
    #[must_use]
    pub fn plan_alu(&self, op: AluOp, a: u64, b: u64) -> Option<ExecPlan> {
        self.list.iter().find_map(|h| h.plan_alu(op, a, b))
    }

    /// The first hook's FP execution plan, if any.
    #[must_use]
    pub fn plan_fp(&self, op: FpOp, a: u64, b: u64) -> Option<ExecPlan> {
        self.list.iter().find_map(|h| h.plan_fp(op, a, b))
    }

    /// Whether any hook enables narrow ALU operand packing.
    #[must_use]
    pub fn operand_packing(&self) -> bool {
        self.packing
    }

    /// Whether any hook enables silent-store checking.
    #[must_use]
    pub fn silent_stores(&self) -> bool {
        self.ss
    }

    /// The first hook's store-dequeue decision, if any.
    #[must_use]
    pub fn store_dequeue_decision(&self, ss: SsState) -> Option<Result<(), NonSilentReason>> {
        self.list.iter().find_map(|h| h.store_dequeue_decision(ss))
    }

    /// Whether any hook compresses `result` into a shared register.
    #[must_use]
    pub fn rfc_compresses(&self, result: u64, arch_regs: &[u64]) -> bool {
        self.list.iter().any(|h| h.rfc_compresses(result, arch_regs))
    }

    /// Fans [`OptHook::on_commit_load`] out to every hook in order.
    pub fn on_commit_load(
        &mut self,
        st: &mut PipelineState,
        pc: usize,
        addr: Option<u64>,
        value: u64,
        width: Option<Width>,
    ) {
        for h in &mut self.list {
            h.on_commit_load(st, pc, addr, value, width);
        }
    }
}

// ---- The seven Table I optimization classes --------------------------

/// Silent stores (§V-A1): SS-load checking plus silent dequeue.
#[derive(Clone, Copy, Debug)]
pub struct SilentStoreHook;

impl OptHook for SilentStoreHook {
    fn name(&self) -> &'static str {
        "silent_store"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(*self)
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        restore_same(self, src)
    }

    fn silent_stores(&self) -> bool {
        true
    }

    fn store_dequeue_decision(&self, ss: SsState) -> Option<Result<(), NonSilentReason>> {
        Some(ss.dequeue_decision())
    }
}

/// Computation simplification (§V-A2) and FP subnormal timing: plans
/// operand-dependent execution latencies.
#[derive(Clone, Copy, Debug)]
pub struct CompSimplHook {
    lat: crate::config::LatencyConfig,
    opts: crate::config::OptConfig,
}

impl OptHook for CompSimplHook {
    fn name(&self) -> &'static str {
        "comp_simpl"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(*self)
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        restore_same(self, src)
    }

    fn plan_alu(&self, op: AluOp, a: u64, b: u64) -> Option<ExecPlan> {
        Some(plan_alu(op, a, b, &self.lat, &self.opts))
    }

    fn plan_fp(&self, op: FpOp, a: u64, b: u64) -> Option<ExecPlan> {
        Some(plan_fp(op, a, b, &self.lat, &self.opts))
    }
}

/// Pipeline compression (§V-A4): packs two narrow ALU operations into
/// one port.
#[derive(Clone, Copy, Debug)]
pub struct PipeCompressHook;

impl OptHook for PipeCompressHook {
    fn name(&self) -> &'static str {
        "pipe_compress"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(*self)
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        restore_same(self, src)
    }

    fn operand_packing(&self) -> bool {
        true
    }
}

/// Computation reuse (§V-A3): memoizes results keyed by pc + operands.
#[derive(Clone, Debug)]
pub struct CompReuseHook {
    table: ReuseTable,
    simple_alu: bool,
}

impl OptHook for CompReuseHook {
    fn name(&self) -> &'static str {
        "comp_reuse"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(self.clone())
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        let Some(src) = downcast::<Self>(src) else {
            return false;
        };
        self.table.restore_from(&src.table);
        self.simple_alu = src.simple_alu;
        true
    }

    fn reset(&mut self, _cfg: &SimConfig) {
        self.table.clear();
    }

    fn on_rename(&mut self, rd: Reg) {
        self.table.invalidate_reg(rd);
    }

    fn memo_lookup(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        base_eligible: bool,
    ) -> MemoLookup {
        if !(base_eligible || self.simple_alu) {
            return MemoLookup::NotApplicable;
        }
        match self.table.lookup(pc, vals, srcs) {
            Some(result) => MemoLookup::Hit(result),
            None => MemoLookup::Miss,
        }
    }

    fn memo_insert(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        result: u64,
        younger_redefines: &mut dyn FnMut(&[Option<Reg>; 2]) -> bool,
    ) {
        let stale =
            self.table.key_kind() == crate::config::ReuseKey::RegIds && younger_redefines(&srcs);
        if !stale {
            self.table.insert(pc, vals, srcs, result);
        }
    }
}

/// Value prediction (§V-A5): predicts load values at dispatch, trains
/// at writeback.
#[derive(Clone, Debug)]
pub struct ValuePredHook {
    vp: ValuePredictor,
}

impl OptHook for ValuePredHook {
    fn name(&self) -> &'static str {
        "value_pred"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(self.clone())
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        let Some(src) = downcast::<Self>(src) else {
            return false;
        };
        self.vp.restore_from(&src.vp);
        true
    }

    fn reset(&mut self, _cfg: &SimConfig) {
        self.vp.clear();
    }

    fn predict_load(&self, pc: usize) -> Option<u64> {
        self.vp.predict(pc)
    }

    fn on_load_writeback(&mut self, pc: usize, value: u64) {
        self.vp.update(pc, value);
    }
}

/// Register-file compression (§V-A6): early tag release for
/// compressible results.
#[derive(Clone, Copy, Debug)]
pub struct RfCompressHook {
    rfc: RfCompressor,
}

impl OptHook for RfCompressHook {
    fn name(&self) -> &'static str {
        "rf_compress"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(*self)
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        restore_same(self, src)
    }

    fn rfc_compresses(&self, result: u64, arch_regs: &[u64]) -> bool {
        self.rfc.compresses(result, arch_regs)
    }
}

/// Content-directed prefetching (§V-C): scans committed loads' lines
/// for pointer-shaped values.
#[derive(Clone, Copy, Debug)]
pub struct CdpHook {
    cdp: Cdp,
}

impl OptHook for CdpHook {
    fn name(&self) -> &'static str {
        "cdp"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(*self)
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        restore_same(self, src)
    }

    fn on_commit_load(
        &mut self,
        st: &mut PipelineState,
        _pc: usize,
        addr: Option<u64>,
        _value: u64,
        _width: Option<Width>,
    ) {
        if let Some(addr) = addr {
            let PipelineState { mem, hier, bus, .. } = st;
            self.cdp.observe(addr, mem, hier, bus);
        }
    }
}

/// Indirect memory prefetching (§V-B): stream detection, indirection
/// correlation, and chained prefetch launch at commit.
#[derive(Clone, Debug)]
pub struct ImpHook {
    imp: Imp,
}

impl OptHook for ImpHook {
    fn name(&self) -> &'static str {
        "dmp"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(self.clone())
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        let Some(src) = downcast::<Self>(src) else {
            return false;
        };
        self.imp.restore_from(&src.imp);
        true
    }

    fn reset(&mut self, _cfg: &SimConfig) {
        self.imp.clear();
    }

    fn on_commit_load(
        &mut self,
        st: &mut PipelineState,
        pc: usize,
        addr: Option<u64>,
        value: u64,
        width: Option<Width>,
    ) {
        if let (Some(addr), Some(width)) = (addr, width) {
            let PipelineState { mem, hier, bus, .. } = st;
            self.imp.observe(pc, addr, value, width, mem, hier, bus);
        }
    }
}

// ---- Fault injection as a hook ---------------------------------------

/// Applies a [`FaultPlan`]'s scheduled events at the start of their
/// cycles — fault injection expressed as just another pipeline hook.
#[derive(Clone, Debug)]
pub struct FaultHook {
    plan: FaultPlan,
    cursor: usize,
}

impl FaultHook {
    /// Wraps a plan; `cursor` indexes the first event not yet applied
    /// (events at or before the install cycle are skipped, not fired
    /// retroactively).
    #[must_use]
    pub fn new(plan: FaultPlan, cursor: usize) -> FaultHook {
        FaultHook { plan, cursor }
    }
}

impl OptHook for FaultHook {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(self.clone())
    }

    fn restore_from(&mut self, src: &dyn OptHook) -> bool {
        let Some(src) = downcast::<Self>(src) else {
            return false;
        };
        self.plan.restore_from(&src.plan);
        self.cursor = src.cursor;
        true
    }

    fn on_cycle_start(&mut self, st: &mut PipelineState) {
        while let Some(ev) = self.plan.events().get(self.cursor) {
            if ev.cycle > st.cycle() {
                break;
            }
            self.cursor += 1;
            apply_fault(st, ev.kind);
        }
    }
}

fn apply_fault(st: &mut PipelineState, kind: FaultKind) {
    match kind {
        FaultKind::MemBitFlip { addr, bit } => {
            // Out-of-bounds targets are no-ops: the plan may be
            // random and the memory small.
            if let Ok(b) = st.mem.read_u8(addr) {
                let _ = st.mem.write_u8(addr, b ^ (1 << (bit & 7)));
                st.bus.emit(SimEvent::FaultInjected);
            }
        }
        FaultKind::RegBitFlip { reg, bit } => {
            if !reg.is_zero() {
                let mask = 1u64 << (bit & 63);
                st.arch_regs[reg.index()] ^= mask;
                // Mirror into the current physical mapping so
                // in-flight readers observe the flip too.
                let tag = st.rat[reg.index()] as usize;
                st.prf_vals[tag] ^= mask;
                st.bus.emit(SimEvent::FaultInjected);
            }
        }
        FaultKind::DropPrefetches { count } => {
            st.hier.suppress_prefetches(count);
            st.bus.emit(SimEvent::FaultInjected);
        }
        FaultKind::EvictLine { addr } => {
            st.hier.flush_line(addr);
            st.bus.emit(SimEvent::FaultInjected);
        }
        FaultKind::SpuriousSquash => {
            if let Some(front) = st.rob.front() {
                let pc = front.pc;
                squash::squash_newer_than(st, None, pc, SquashReason::Fault);
                st.bus.emit(SimEvent::FaultInjected);
            }
        }
        FaultKind::DroppedCompletion => {
            if let Some(u) = st.rob.iter_mut().find(|u| u.executing && !u.done) {
                u.done_cycle = u64::MAX;
                st.bus.emit(SimEvent::FaultInjected);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;

    fn full_cfg() -> SimConfig {
        let mut cfg = SimConfig::with_opts(OptConfig {
            silent_stores: true,
            comp_reuse: true,
            value_pred: true,
            dmp: true,
            ..OptConfig::default()
        });
        cfg.noise = crate::NoiseConfig::at_intensity(10, 7);
        cfg
    }

    #[test]
    fn reset_drops_the_fault_hook_and_keeps_the_boxes() {
        let cfg = full_cfg();
        let mut hooks = Hooks::from_config(&cfg);
        let names_before = hooks.names();
        let ptrs_before: Vec<*const ()> = hooks
            .list
            .iter()
            .map(|h| std::ptr::from_ref::<dyn OptHook>(&**h).cast::<()>())
            .collect();
        hooks.install(Box::new(FaultHook::new(FaultPlan::default(), 0)));
        assert!(hooks.names().contains(&"fault"));

        hooks.reset_from_config(&cfg);
        assert_eq!(hooks.names(), names_before, "canonical order survives reset");
        let ptrs_after: Vec<*const ()> = hooks
            .list
            .iter()
            .map(|h| std::ptr::from_ref::<dyn OptHook>(&**h).cast::<()>())
            .collect();
        assert_eq!(ptrs_before, ptrs_after, "reset must reuse the existing boxes");
    }

    #[test]
    fn reset_clears_learned_state_in_place() {
        let cfg = full_cfg();
        let mut hooks = Hooks::from_config(&cfg);
        // Train the value predictor past its confidence threshold and
        // memoize a multiply result.
        for _ in 0..16 {
            hooks.on_load_writeback(3, 0xdead);
        }
        assert_eq!(hooks.predict_load(3), Some(0xdead));
        hooks.memo_insert(5, [6, 7], [None, None], 42, &mut |_| false);
        assert_eq!(hooks.memo_lookup(5, [6, 7], [None, None], true), MemoLookup::Hit(42));

        hooks.reset_from_config(&cfg);
        assert_eq!(hooks.predict_load(3), None, "VP confidence must be forgotten");
        assert_eq!(
            hooks.memo_lookup(5, [6, 7], [None, None], true),
            MemoLookup::Miss,
            "reuse memos must be forgotten"
        );
    }

    #[test]
    fn clone_from_restores_matching_lists_in_place() {
        let boxes = |h: &Hooks| -> Vec<*const ()> {
            h.list
                .iter()
                .map(|h| std::ptr::from_ref::<dyn OptHook>(&**h).cast::<()>())
                .collect()
        };
        let cfg = full_cfg();
        let mut src = Hooks::from_config(&cfg);
        for _ in 0..16 {
            src.on_load_writeback(3, 0xdead);
        }
        src.memo_insert(5, [6, 7], [None, None], 42, &mut |_| false);
        let mut dst = Hooks::from_config(&cfg);
        dst.on_load_writeback(9, 1);
        let before = boxes(&dst);
        dst.clone_from(&src);
        assert_eq!(boxes(&dst), before, "matching lists restore without re-boxing");
        assert_eq!(format!("{dst:?}"), format!("{src:?}"));
        assert_eq!(dst.predict_load(3), Some(0xdead));

        // A list of another shape is re-cloned.
        dst.install(Box::new(FaultHook::new(FaultPlan::default(), 0)));
        dst.clone_from(&src);
        assert_eq!(dst.names(), src.names());
        assert_eq!(format!("{dst:?}"), format!("{src:?}"));
    }

    #[test]
    fn reset_falls_back_to_rebuild_for_non_canonical_lists() {
        #[derive(Clone, Debug)]
        struct Custom;
        impl OptHook for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn box_clone(&self) -> Box<dyn OptHook> {
                Box::new(self.clone())
            }
        }
        let cfg = full_cfg();
        let mut hooks = Hooks::from_config(&cfg);
        hooks.install(Box::new(Custom));
        hooks.reset_from_config(&cfg);
        assert_eq!(
            hooks.names(),
            Hooks::from_config(&cfg).names(),
            "a non-canonical list is rebuilt from the config"
        );
    }
}
