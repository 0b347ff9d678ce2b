use std::fmt;
use std::ops::Index;

use crate::Instr;

/// An assembled, immutable program: a sequence of instructions with all
/// branch targets resolved to instruction indices.
///
/// Produced by [`Asm::assemble`]; consumed by the simulator.
///
/// [`Asm::assemble`]: crate::Asm::assemble
#[derive(PartialEq, Eq, Debug, Default)]
pub struct Program {
    instrs: Vec<Instr>,
}

/// Written out so that `clone_from` reuses the destination's buffer (a
/// derived `Clone` would reallocate): a checkpoint restore re-clones
/// the program on every fork.
impl Clone for Program {
    fn clone(&self) -> Program {
        Program {
            instrs: self.instrs.clone(),
        }
    }

    fn clone_from(&mut self, src: &Program) {
        self.instrs.clone_from(&src.instrs);
    }
}

impl Program {
    /// Wraps a raw instruction sequence.
    ///
    /// # Panics
    ///
    /// Panics if any control-flow target points outside the program;
    /// such a program could never have come from the assembler.
    #[must_use]
    pub fn new(instrs: Vec<Instr>) -> Program {
        for (pc, i) in instrs.iter().enumerate() {
            let target = match *i {
                Instr::Branch { target, .. } | Instr::Jal { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                assert!(
                    t < instrs.len(),
                    "instruction {pc} targets {t}, beyond program end {}",
                    instrs.len()
                );
            }
        }
        Program { instrs }
    }

    /// The number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at index `pc`, or `None` past the end.
    #[must_use]
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Iterates over the instructions in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }

    /// A view of the raw instruction slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Instr] {
        &self.instrs
    }
}

impl Index<usize> for Program {
    type Output = Instr;

    fn index(&self, pc: usize) -> &Instr {
        &self.instrs[pc]
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;

    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:5}: {i}")?;
        }
        Ok(())
    }
}

impl Program {
    /// Renders the program as assembly text that [`parse_program`]
    /// accepts: branch/jump targets become generated `L<n>:` labels.
    /// `parse_program(p.to_asm_text()) == p` for every program (a
    /// property the test suite checks).
    ///
    /// [`parse_program`]: crate::parse_program
    #[must_use]
    pub fn to_asm_text(&self) -> String {
        use crate::{AluOp, Instr};
        use std::collections::BTreeSet;

        let targets: BTreeSet<usize> = self
            .instrs
            .iter()
            .filter_map(|i| match *i {
                Instr::Branch { target, .. } | Instr::Jal { target, .. } => Some(target),
                _ => None,
            })
            .collect();
        let label = |pc: usize| format!("L{pc}");

        let mut out = String::new();
        for (pc, i) in self.instrs.iter().enumerate() {
            if targets.contains(&pc) {
                out.push_str(&label(pc));
                out.push_str(":\n");
            }
            let line = match *i {
                Instr::AluRR { op, rd, rs1, rs2 } => {
                    format!("{} {rd}, {rs1}, {rs2}", alu_name(op))
                }
                Instr::AluRI { op, rd, rs1, imm } => {
                    format!("{}i {rd}, {rs1}, {imm}", alu_name(op))
                }
                Instr::Fp { op, rd, rs1, rs2 } => {
                    format!("f{} {rd}, {rs1}, {rs2}", format!("{op:?}").to_lowercase())
                }
                Instr::Li { rd, imm } => {
                    // Immediates round-trip through i64 in the parser.
                    format!("li {rd}, {}", imm as i64)
                }
                Instr::Load {
                    rd,
                    base,
                    offset,
                    width,
                    signed,
                } => {
                    let m = match (width, signed) {
                        (crate::Width::Byte, true) => "lb",
                        (crate::Width::Byte, false) => "lbu",
                        (crate::Width::Half, true) => "lh",
                        (crate::Width::Half, false) => "lhu",
                        (crate::Width::Word, true) => "lw",
                        (crate::Width::Word, false) => "lwu",
                        (crate::Width::Dword, _) => "ld",
                    };
                    format!("{m} {rd}, {offset}({base})")
                }
                Instr::Store {
                    src,
                    base,
                    offset,
                    width,
                } => {
                    let m = match width {
                        crate::Width::Byte => "sb",
                        crate::Width::Half => "sh",
                        crate::Width::Word => "sw",
                        crate::Width::Dword => "sd",
                    };
                    format!("{m} {src}, {offset}({base})")
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => format!(
                    "b{} {rs1}, {rs2}, {}",
                    format!("{cond:?}").to_lowercase(),
                    label(target)
                ),
                Instr::Jal { rd, target } => format!("jal {rd}, {}", label(target)),
                Instr::Jalr { rd, base, offset } => format!("jalr {rd}, {offset}({base})"),
                Instr::RdCycle { rd } => format!("rdcycle {rd}"),
                Instr::Flush { base, offset } => format!("flush {offset}({base})"),
                Instr::Fence => "fence".to_string(),
                Instr::Nop => "nop".to_string(),
                Instr::Halt => "halt".to_string(),
            };
            out.push_str("    ");
            out.push_str(&line);
            out.push('\n');
        }
        return out;

        fn alu_name(op: AluOp) -> String {
            format!("{op:?}").to_lowercase()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Reg};

    #[test]
    fn basic_accessors() {
        let p = Program::new(vec![
            Instr::Li {
                rd: Reg::T0,
                imm: 1,
            },
            Instr::Halt,
        ]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.get(0), Some(&p[0]));
        assert_eq!(p.get(2), None);
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn display_lists_instructions() {
        let p = Program::new(vec![Instr::Nop, Instr::Halt]);
        let s = format!("{p}");
        assert!(s.contains("0: nop"));
        assert!(s.contains("1: halt"));
    }

    #[test]
    #[should_panic(expected = "beyond program end")]
    fn rejects_wild_branch_target() {
        let _ = Program::new(vec![Instr::Branch {
            cond: crate::BranchCond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            target: 7,
        }]);
    }

    #[test]
    fn empty_program_is_ok() {
        let p = Program::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn indexable_by_pc() {
        let p = Program::new(vec![Instr::AluRI {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::ZERO,
            imm: 7,
        }]);
        assert!(matches!(p[0], Instr::AluRI { imm: 7, .. }));
    }
}
