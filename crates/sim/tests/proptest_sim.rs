//! Property-based tests of the memory subsystem and pipeline
//! invariants.

use pandora_isa::{Asm, Reg, Width};
use pandora_sim::{
    Cache, CacheConfig, Checkpoint, FaultPlan, Hierarchy, Machine, MemLatency, Memory, Replacement,
    SimConfig,
};
use proptest::prelude::*;

fn width_strategy() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::Byte),
        Just(Width::Half),
        Just(Width::Word),
        Just(Width::Dword),
    ]
}

proptest! {
    #[test]
    fn memory_read_back_what_was_written(
        addr in 0u64..4000,
        value: u64,
        w in width_strategy()
    ) {
        let mut m = Memory::new(4096);
        m.write(addr, value, w).unwrap();
        let mask = match w.bytes() {
            1 => 0xffu64,
            2 => 0xffff,
            4 => 0xffff_ffff,
            _ => u64::MAX,
        };
        prop_assert_eq!(m.read(addr, w).unwrap(), value & mask);
    }

    #[test]
    fn disjoint_writes_do_not_interfere(
        a in 0u64..256,
        b in 0u64..256,
        va: u64,
        vb: u64
    ) {
        prop_assume!(a.abs_diff(b) >= 1);
        let mut m = Memory::new(8192);
        m.write_u64(a * 8, va).unwrap();
        m.write_u64(b * 8 + 2048, vb).unwrap();
        prop_assert_eq!(m.read_u64(a * 8).unwrap(), va);
        prop_assert_eq!(m.read_u64(b * 8 + 2048).unwrap(), vb);
    }

    #[test]
    fn cache_access_makes_line_resident(addr: u64, seed: u64) {
        let mut c = Cache::new(CacheConfig::l1d(), seed);
        c.access(addr);
        prop_assert!(c.probe(addr));
        prop_assert!(c.probe(c.line_addr(addr)));
    }

    #[test]
    fn cache_flush_removes_exactly_the_line(addr: u64, other: u64) {
        let mut c = Cache::new(CacheConfig::l1d(), 0);
        c.access(addr);
        c.access(other);
        c.flush_line(addr);
        prop_assert!(!c.probe(addr));
        if c.line_addr(other) != c.line_addr(addr) {
            prop_assert!(c.probe(other));
        }
    }

    #[test]
    fn conflicting_addrs_always_share_a_set(addr: u64, n in 0usize..16) {
        for cfg in [CacheConfig::l1d(), CacheConfig::l2()] {
            let c = Cache::new(cfg, 0);
            let e = c.conflicting_addr(addr, n);
            prop_assert_eq!(c.set_index(e), c.set_index(addr));
            prop_assert_ne!(c.line_addr(e), c.line_addr(addr));
        }
    }

    #[test]
    fn lru_set_never_exceeds_ways(
        addrs in prop::collection::vec(any::<u64>(), 1..200),
        ways in 1usize..8
    ) {
        let mut c = Cache::new(
            CacheConfig { sets: 16, ways, line: 64, replacement: Replacement::Lru },
            0,
        );
        for a in &addrs {
            c.access(*a);
        }
        for set in 0..16 {
            prop_assert!(c.resident_lines(set).len() <= ways);
        }
    }

    #[test]
    fn second_access_is_always_faster(addr: u64, seed: u64) {
        let mut h = Hierarchy::new(
            CacheConfig::l1d(),
            CacheConfig::l2(),
            MemLatency::default(),
            seed,
        );
        let first = h.access(addr).latency;
        let second = h.access(addr).latency;
        prop_assert!(second <= first);
        prop_assert_eq!(second, MemLatency::default().l1);
    }

    #[test]
    fn committed_count_matches_dynamic_instructions(iters in 1u64..40) {
        // A counted loop commits exactly (2 li + iters * 3 + 1 halt).
        let mut a = Asm::new();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, iters);
        a.label("l");
        a.addi(Reg::T0, Reg::T0, 1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        let stats = m.run(1_000_000).unwrap();
        prop_assert_eq!(stats.committed, 2 + iters * 3 + 1);
        prop_assert_eq!(m.reg(Reg::T0), iters);
    }

    #[test]
    fn rdcycle_is_monotone_within_a_program(work in 1u64..30) {
        let mut a = Asm::new();
        a.fence();
        a.rdcycle(Reg::S0);
        a.li(Reg::T1, work);
        a.label("l");
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
        a.fence();
        a.rdcycle(Reg::S1);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.run(1_000_000).unwrap();
        prop_assert!(m.reg(Reg::S1) > m.reg(Reg::S0));
    }

    #[test]
    fn same_fault_plan_seed_gives_identical_stats(seed: u64, n in 0usize..12) {
        // Fault injection must be fully deterministic: two machines
        // running the same program under the same FaultPlan::random
        // seed end with byte-identical statistics and registers.
        let mut a = Asm::new();
        a.li(Reg::T0, 200);
        a.li(Reg::T2, 5);
        a.label("l");
        a.sd(Reg::T2, Reg::ZERO, 0x400);
        a.ld(Reg::T3, Reg::ZERO, 0x400);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "l");
        a.halt();
        let prog = a.assemble().unwrap();
        let run = || {
            let mut m = Machine::new(SimConfig::default());
            m.load_program(&prog);
            m.inject_faults(FaultPlan::random(seed, n, 0..5_000, 0x400..0x800));
            let res = m.run(1_000_000);
            (res, *m.stats(), m.reg(Reg::T3))
        };
        let (ra, sa, xa) = run();
        let (rb, sb, xb) = run();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(xa, xb);
        // Events landing after halt (or on no-op targets) don't fire,
        // so the count is bounded by the plan, not equal to it.
        prop_assert!(sa.faults_injected <= n as u64);
    }
}

// ---- Checkpoint restore: no byte of a previous trial survives --------

/// One memory mutation of a trial, with its address given relative to
/// whichever memory it lands on (see [`apply`]).
#[derive(Clone, Copy, Debug)]
struct MemOp {
    /// 0: `write`, 1: `write_bytes`, 2: partial `clear`, 3: whole-memory
    /// `clear`.
    kind: u8,
    /// 0: anywhere, 1: straddling a page boundary, 2: the last page,
    /// 3: the upper half (above every checkpoint's written prefix).
    place: u8,
    r: u64,
    len: usize,
    value: u64,
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    (0u8..4, 0u8..4, any::<u64>(), 1usize..9000, any::<u64>()).prop_map(
        |(kind, place, r, len, value)| MemOp {
            kind,
            place,
            r,
            len,
            value,
        },
    )
}

/// Applies `op` to `mem`, clamped into bounds.
fn apply(mem: &mut Memory, op: MemOp) {
    let size = mem.size();
    let addr = match op.place {
        0 => op.r as usize % size,
        1 => ((op.r as usize % (size >> 12)) + 1) * 4096 - (op.r >> 40) as usize % 8,
        2 => size - 1 - op.r as usize % 4096,
        _ => size / 2 + op.r as usize % (size / 2),
    };
    let len = op.len.min(size);
    let at = |n: usize| addr.min(size - n) as u64;
    match op.kind {
        0 => {
            let w = [Width::Byte, Width::Half, Width::Word, Width::Dword][op.r as usize % 4];
            mem.write(at(w.bytes()), op.value, w).unwrap();
        }
        1 => {
            let data: Vec<u8> = (0..len)
                .map(|i| (op.value >> (i % 8 * 8)) as u8 | 1)
                .collect();
            mem.write_bytes(at(len), &data).unwrap();
        }
        2 => mem.clear(at(len), len).unwrap(),
        _ => mem.clear(0, size).unwrap(),
    }
}

/// Memory sizes under test: 64 KiB, 32 KiB, and one that ends in a
/// partial page.
const SIZES: [usize; 3] = [1 << 16, 1 << 15, 0x1_0800];

/// A checkpoint taken mid-run (two committed stores in) on a machine
/// of `SIZES[size]` whose memory was first shaped by `image`.
fn checkpoint(size: usize, image: &[MemOp]) -> Checkpoint {
    let mut a = Asm::new();
    a.li(Reg::T0, 0x5ec2e7);
    a.sd(Reg::T0, Reg::ZERO, 0x2ffc);
    a.sd(Reg::T0, Reg::ZERO, 0x3000);
    a.sd(Reg::T0, Reg::ZERO, 0x7ff0);
    a.fence();
    a.halt();
    let mut m = Machine::new(SimConfig {
        mem_size: SIZES[size],
        ..SimConfig::default()
    });
    m.load_program(&a.assemble().unwrap());
    for &op in image {
        apply(m.mem_mut(), op);
    }
    m.run_until_committed(3, 100_000).unwrap();
    m.snapshot()
}

/// After a restore from `ck`: memory equals the image byte for byte
/// and carries its high-water mark, and a whole-memory clear of it
/// leaves fresh memory behind.
fn check_restored(m: &Machine, ck: &Checkpoint, step: &str) -> Result<(), TestCaseError> {
    let (got, want) = (m.mem(), ck.mem());
    prop_assert_eq!(got.size(), want.size(), "{}: size", step);
    let bytes = |mem: &Memory| mem.read_bytes(0, mem.size()).unwrap().to_vec();
    let first_diff = bytes(got)
        .iter()
        .zip(bytes(want))
        .position(|(a, b)| *a != b);
    prop_assert_eq!(
        first_diff,
        None,
        "{}: first byte differing from the image",
        step
    );
    prop_assert_eq!(got.dirty_hi(), want.dirty_hi(), "{}: dirty_hi", step);
    let mut cleared = got.clone();
    cleared.clear(0, cleared.size()).unwrap();
    prop_assert!(
        cleared == Memory::new(got.size()),
        "{}: residue after a whole clear",
        step
    );
    Ok(())
}

/// Runs the forked machine to its halt (pipeline stores), then the
/// trial's own memory mutations.
fn trial(m: &mut Machine, ops: &[MemOp]) {
    m.run(100_000).unwrap();
    for &op in ops {
        apply(m.mem_mut(), op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The secret-leak bug class: a trial's writes — page-straddling,
    /// above the checkpoint's written prefix, on the last page, and
    /// interleaved clears — must never survive a restore, whether the
    /// machine was forked by `from_checkpoint` or recycled from an
    /// unrelated occupant, across two checkpoints A→B→A and across
    /// memory sizes.
    #[test]
    fn checkpoint_restore_leaves_no_trace_of_the_trial(
        sizes in (0usize..3, 0usize..3, 0usize..3),
        images in (prop::collection::vec(mem_op(), 0..4), prop::collection::vec(mem_op(), 0..4)),
        trials in (
            prop::collection::vec(mem_op(), 0..12),
            prop::collection::vec(mem_op(), 0..12),
            prop::collection::vec(mem_op(), 0..12),
            prop::collection::vec(mem_op(), 0..12),
        ),
        recycled: bool,
    ) {
        let (size_a, size_b, size_prev) = sizes;
        let a = checkpoint(size_a, &images.0);
        let b = checkpoint(size_b, &images.1);
        let mut m = if recycled {
            let mut prev = Machine::new(SimConfig {
                mem_size: SIZES[size_prev],
                ..SimConfig::default()
            });
            for &op in &trials.0 {
                apply(prev.mem_mut(), op);
            }
            prev.restore(&a);
            prev
        } else {
            Machine::from_checkpoint(&a)
        };
        check_restored(&m, &a, "fork of A")?;
        trial(&mut m, &trials.1);
        m.restore(&b);
        check_restored(&m, &b, "A -> B")?;
        trial(&mut m, &trials.2);
        m.restore(&a);
        check_restored(&m, &a, "B -> A")?;
        trial(&mut m, &trials.3);
        m.restore(&a);
        check_restored(&m, &a, "A -> A")?;
        // A reset between trials (the pool's cold path) keeps the
        // bookkeeping honest for the next restore.
        trial(&mut m, &trials.1);
        m.reset();
        prop_assert!(*m.mem() == Memory::new(SIZES[size_a]), "reset leaves fresh memory");
        m.restore(&a);
        check_restored(&m, &a, "reset -> A")?;
    }
}
