//! Computation reuse (§IV-C2; MLD Example 6).
//!
//! A hardware memoization table in the style of Sodani & Sohi's
//! *dynamic instruction reuse*. The table is PC-indexed
//! (direct-mapped); each entry records the keying information of the
//! last memoized dynamic instance and its result. A hit skips the
//! functional unit.
//!
//! Two keying flavours are modelled, matching the paper's defense
//! discussion (§VI-A3):
//!
//! * **Sv** — key on operand *values*: highest reuse, but a hit reveals
//!   that the in-flight operands equal values captured in
//!   microarchitectural state (the equality-oracle leak).
//! * **Sn** — key on operand *register ids*, with entries invalidated
//!   whenever a source register is redefined: only reveals which static
//!   instruction is executing (control flow).
//!
//! Per the paper's footnote 5, the table is *not* cleared on a squash,
//! so transient instructions can poison it.

use pandora_isa::Reg;

use crate::config::ReuseKey;

#[derive(Clone, Copy, Debug)]
struct ReuseEntry {
    pc: usize,
    /// Sv: operand values. Sn: operand register indices.
    key: [u64; 2],
    /// Sn only: source registers this entry depends on.
    srcs: [Option<Reg>; 2],
    result: u64,
    valid: bool,
}

/// The memoization table.
#[derive(Clone, Debug)]
pub struct ReuseTable {
    entries: Vec<Option<ReuseEntry>>,
    key_kind: ReuseKey,
}

impl ReuseTable {
    /// Capacity-preserving restore: copies `src`'s entries into this
    /// table's buffer.
    pub(crate) fn restore_from(&mut self, src: &ReuseTable) {
        self.entries.clone_from(&src.entries);
        self.key_kind = src.key_kind;
    }

    /// Creates a direct-mapped table with `entries` slots.
    #[must_use]
    pub fn new(entries: usize, key_kind: ReuseKey) -> ReuseTable {
        ReuseTable {
            entries: vec![None; entries.max(1)],
            key_kind,
        }
    }

    /// Forgets every memoized entry in place (capacity kept).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }

    fn slot(&self, pc: usize) -> usize {
        pc % self.entries.len()
    }

    fn make_key(&self, values: [u64; 2], srcs: [Option<Reg>; 2]) -> [u64; 2] {
        match self.key_kind {
            ReuseKey::Values => values,
            ReuseKey::RegIds => [
                srcs[0].map_or(u64::MAX, |r| r.index() as u64),
                srcs[1].map_or(u64::MAX, |r| r.index() as u64),
            ],
        }
    }

    /// Looks up the instruction at `pc` with operand `values` read from
    /// architectural registers `srcs`. Returns the memoized result on a
    /// hit.
    #[must_use]
    pub fn lookup(&self, pc: usize, values: [u64; 2], srcs: [Option<Reg>; 2]) -> Option<u64> {
        let e = self.entries[self.slot(pc)]?;
        let key = self.make_key(values, srcs);
        (e.valid && e.pc == pc && e.key == key).then_some(e.result)
    }

    /// Inserts the resolved instance into the table.
    pub fn insert(&mut self, pc: usize, values: [u64; 2], srcs: [Option<Reg>; 2], result: u64) {
        let key = self.make_key(values, srcs);
        let slot = self.slot(pc);
        self.entries[slot] = Some(ReuseEntry {
            pc,
            key,
            srcs,
            result,
            valid: true,
        });
    }

    /// Invalidates entries that depend on architectural register `r`.
    /// Only meaningful under [`ReuseKey::RegIds`] (Sv entries key on
    /// values, which remain correct by construction).
    pub fn invalidate_reg(&mut self, r: Reg) {
        if self.key_kind != ReuseKey::RegIds {
            return;
        }
        for e in self.entries.iter_mut().flatten() {
            if e.srcs.contains(&Some(r)) {
                e.valid = false;
            }
        }
    }

    /// The keying flavour.
    #[must_use]
    pub fn key_kind(&self) -> ReuseKey {
        self.key_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRCS: [Option<Reg>; 2] = [Some(Reg::T0), Some(Reg::T1)];

    #[test]
    fn sv_hits_only_on_equal_values() {
        let mut t = ReuseTable::new(16, ReuseKey::Values);
        assert_eq!(t.lookup(100, [2, 3], SRCS), None);
        t.insert(100, [2, 3], SRCS, 6);
        assert_eq!(t.lookup(100, [2, 3], SRCS), Some(6));
        assert_eq!(t.lookup(100, [2, 4], SRCS), None, "value mismatch");
    }

    #[test]
    fn sv_survives_register_redefinition() {
        let mut t = ReuseTable::new(16, ReuseKey::Values);
        t.insert(100, [2, 3], SRCS, 6);
        t.invalidate_reg(Reg::T0);
        assert_eq!(
            t.lookup(100, [2, 3], SRCS),
            Some(6),
            "Sv keys on values; redefinition is irrelevant"
        );
    }

    #[test]
    fn sn_hits_regardless_of_values_until_invalidated() {
        let mut t = ReuseTable::new(16, ReuseKey::RegIds);
        t.insert(100, [2, 3], SRCS, 6);
        assert_eq!(
            t.lookup(100, [9, 9], SRCS),
            Some(6),
            "Sn ignores operand values"
        );
        t.invalidate_reg(Reg::T1);
        assert_eq!(t.lookup(100, [2, 3], SRCS), None, "invalidated");
    }

    #[test]
    fn direct_mapping_conflicts_replace() {
        let mut t = ReuseTable::new(4, ReuseKey::Values);
        t.insert(0, [1, 1], SRCS, 2);
        t.insert(4, [1, 1], SRCS, 9); // same slot
        assert_eq!(t.lookup(0, [1, 1], SRCS), None, "displaced");
        assert_eq!(t.lookup(4, [1, 1], SRCS), Some(9));
    }

    #[test]
    fn different_pcs_different_slots() {
        let mut t = ReuseTable::new(16, ReuseKey::Values);
        t.insert(1, [5, 5], SRCS, 10);
        t.insert(2, [5, 5], SRCS, 25);
        assert_eq!(t.lookup(1, [5, 5], SRCS), Some(10));
        assert_eq!(t.lookup(2, [5, 5], SRCS), Some(25));
    }
}
