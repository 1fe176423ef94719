//! A small programmatic assembler with labels.
//!
//! Used to hand-write the calibration kernels of the paper's Table II
//! (a reference loop and a test loop stuffed with one instruction
//! category) and for simulator tests. Each emitted slot is one 32-bit
//! word; labels resolve to word-relative displacements at
//! [`Assembler::finish`] time.

use crate::cond::{FCond, ICond};
use crate::encode::encode;
use crate::insn::{AluOp, Instr, MemSize, Operand};
use crate::regs::{FReg, Reg, G0};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while resolving an assembled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch target is out of `disp22` range.
    BranchOutOfRange {
        /// The target label.
        label: String,
        /// The required displacement in words.
        words: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { label, words } => {
                write!(f, "branch to `{label}` out of range ({words} words)")
            }
        }
    }
}

impl std::error::Error for AsmError {}

enum Slot {
    /// A fully resolved instruction.
    Ready(Instr),
    /// Raw data word.
    Word(u32),
    /// Conditional branch to a label.
    Branch {
        cond: ICond,
        annul: bool,
        label: String,
    },
    /// FP conditional branch to a label.
    FBranch {
        cond: FCond,
        annul: bool,
        label: String,
    },
    /// Call to a label.
    Call { label: String },
    /// `sethi %hi(label_address), rd`.
    SethiHi { rd: Reg, label: String },
    /// `or rd, %lo(label_address), rd`.
    OrLo { rd: Reg, label: String },
}

/// Label-resolving assembler. `base` is the load address of the first
/// emitted word (used for `%hi`/`%lo` materialisation).
pub struct Assembler {
    base: u32,
    slots: Vec<Slot>,
    labels: HashMap<String, usize>,
    error: Option<AsmError>,
}

impl Assembler {
    /// Creates an assembler for code loaded at `base`.
    pub fn new(base: u32) -> Self {
        Assembler {
            base,
            slots: Vec::new(),
            labels: HashMap::new(),
            error: None,
        }
    }

    /// Current position in words from the start.
    pub fn here(&self) -> usize {
        self.slots.len()
    }

    /// Defines `name` at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_string(), self.slots.len())
            .is_some()
            && self.error.is_none()
        {
            self.error = Some(AsmError::DuplicateLabel(name.to_string()));
        }
        self
    }

    /// Emits a resolved instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.slots.push(Slot::Ready(i));
        self
    }

    /// Emits a raw data word.
    pub fn word(&mut self, w: u32) -> &mut Self {
        self.slots.push(Slot::Word(w));
        self
    }

    /// Emits a `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::NOP)
    }

    /// Emits an ALU operation.
    pub fn alu(&mut self, op: AluOp, rs1: Reg, op2: impl Into<Operand>, rd: Reg) -> &mut Self {
        self.push(Instr::Alu {
            op,
            rd,
            rs1,
            op2: op2.into(),
        })
    }

    /// `mov op2, rd` (synthesised as `or %g0, op2, rd`).
    pub fn mov(&mut self, op2: impl Into<Operand>, rd: Reg) -> &mut Self {
        self.alu(AluOp::Or, G0, op2, rd)
    }

    /// Materialises an arbitrary 32-bit constant via `sethi` + `or`.
    pub fn set32(&mut self, value: u32, rd: Reg) -> &mut Self {
        self.push(Instr::Sethi {
            rd,
            imm22: value >> 10,
        });
        if value & 0x3ff != 0 {
            self.alu(AluOp::Or, rd, Operand::Imm((value & 0x3ff) as i32), rd);
        }
        self
    }

    /// `sethi %hi(label), rd` — pairs with [`Assembler::or_lo`].
    pub fn sethi_hi(&mut self, label: &str, rd: Reg) -> &mut Self {
        self.slots.push(Slot::SethiHi {
            rd,
            label: label.to_string(),
        });
        self
    }

    /// `or rd, %lo(label), rd`.
    pub fn or_lo(&mut self, label: &str, rd: Reg) -> &mut Self {
        self.slots.push(Slot::OrLo {
            rd,
            label: label.to_string(),
        });
        self
    }

    /// Conditional branch to a label (delay slot NOT inserted).
    pub fn b(&mut self, cond: ICond, label: &str) -> &mut Self {
        self.slots.push(Slot::Branch {
            cond,
            annul: false,
            label: label.to_string(),
        });
        self
    }

    /// Annulled conditional branch to a label.
    pub fn b_a(&mut self, cond: ICond, label: &str) -> &mut Self {
        self.slots.push(Slot::Branch {
            cond,
            annul: true,
            label: label.to_string(),
        });
        self
    }

    /// FP conditional branch to a label.
    pub fn fb(&mut self, cond: FCond, label: &str) -> &mut Self {
        self.slots.push(Slot::FBranch {
            cond,
            annul: false,
            label: label.to_string(),
        });
        self
    }

    /// Annulled FP conditional branch to a label.
    pub fn fb_a(&mut self, cond: FCond, label: &str) -> &mut Self {
        self.slots.push(Slot::FBranch {
            cond,
            annul: true,
            label: label.to_string(),
        });
        self
    }

    /// `ba` unconditional branch to a label.
    pub fn ba(&mut self, label: &str) -> &mut Self {
        self.b(ICond::A, label)
    }

    /// `call label` (delay slot NOT inserted).
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.slots.push(Slot::Call {
            label: label.to_string(),
        });
        self
    }

    /// `jmpl %o7 + 8, %g0` — the standard `retl` return.
    pub fn retl(&mut self) -> &mut Self {
        self.push(Instr::Jmpl {
            rd: G0,
            rs1: crate::regs::O7,
            op2: Operand::Imm(8),
        })
    }

    /// Integer load.
    pub fn ld(
        &mut self,
        size: MemSize,
        signed: bool,
        rs1: Reg,
        op2: impl Into<Operand>,
        rd: Reg,
    ) -> &mut Self {
        self.push(Instr::Load {
            size,
            signed,
            rd,
            rs1,
            op2: op2.into(),
        })
    }

    /// Integer store.
    pub fn st(&mut self, size: MemSize, rd: Reg, rs1: Reg, op2: impl Into<Operand>) -> &mut Self {
        self.push(Instr::Store {
            size,
            rd,
            rs1,
            op2: op2.into(),
        })
    }

    /// FP double load.
    pub fn lddf(&mut self, rs1: Reg, op2: impl Into<Operand>, rd: FReg) -> &mut Self {
        self.push(Instr::LoadF {
            double: true,
            rd,
            rs1,
            op2: op2.into(),
        })
    }

    /// FP double store.
    pub fn stdf(&mut self, rd: FReg, rs1: Reg, op2: impl Into<Operand>) -> &mut Self {
        self.push(Instr::StoreF {
            double: true,
            rd,
            rs1,
            op2: op2.into(),
        })
    }

    /// FPU register operation.
    pub fn fpop(&mut self, op: crate::insn::FpOp, rs1: FReg, rs2: FReg, rd: FReg) -> &mut Self {
        self.push(Instr::FpOp { op, rd, rs1, rs2 })
    }

    /// `ta imm` — software trap (the simulator's exit/host hook).
    pub fn ta(&mut self, trap: i32) -> &mut Self {
        self.push(Instr::Ticc {
            cond: ICond::A,
            rs1: G0,
            op2: Operand::Imm(trap),
        })
    }

    /// Resolves all labels and returns the encoded words.
    pub fn finish(self) -> Result<Vec<u32>, AsmError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let labels = self.labels;
        let base = self.base;
        let resolve = |name: &str| -> Result<usize, AsmError> {
            labels
                .get(name)
                .copied()
                .ok_or_else(|| AsmError::UndefinedLabel(name.to_string()))
        };
        let mut out = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let word = match slot {
                Slot::Ready(i) => encode(*i),
                Slot::Word(w) => *w,
                Slot::Branch { cond, annul, label } => {
                    let target = resolve(label)?;
                    let disp = target as i64 - idx as i64;
                    if !(-0x20_0000..0x20_0000).contains(&disp) {
                        return Err(AsmError::BranchOutOfRange {
                            label: label.clone(),
                            words: disp,
                        });
                    }
                    encode(Instr::Branch {
                        cond: *cond,
                        annul: *annul,
                        disp22: disp as i32,
                    })
                }
                Slot::FBranch { cond, annul, label } => {
                    let target = resolve(label)?;
                    let disp = target as i64 - idx as i64;
                    if !(-0x20_0000..0x20_0000).contains(&disp) {
                        return Err(AsmError::BranchOutOfRange {
                            label: label.clone(),
                            words: disp,
                        });
                    }
                    encode(Instr::FBranch {
                        cond: *cond,
                        annul: *annul,
                        disp22: disp as i32,
                    })
                }
                Slot::Call { label } => {
                    let target = resolve(label)?;
                    encode(Instr::Call {
                        disp30: target as i32 - idx as i32,
                    })
                }
                Slot::SethiHi { rd, label } => {
                    let target = resolve(label)?;
                    let addr = base + (target as u32) * 4;
                    encode(Instr::Sethi {
                        rd: *rd,
                        imm22: addr >> 10,
                    })
                }
                Slot::OrLo { rd, label } => {
                    let target = resolve(label)?;
                    let addr = base + (target as u32) * 4;
                    encode(Instr::Alu {
                        op: AluOp::Or,
                        rd: *rd,
                        rs1: *rd,
                        op2: Operand::Imm((addr & 0x3ff) as i32),
                    })
                }
            };
            out.push(word);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    #[test]
    fn backward_branch_resolves() {
        let mut a = Assembler::new(0x4000_0000);
        a.label("top").nop().nop().ba("top").nop();
        let words = a.finish().unwrap();
        assert_eq!(
            decode(words[2]),
            Instr::Branch {
                cond: ICond::A,
                annul: false,
                disp22: -2,
            }
        );
    }

    #[test]
    fn forward_call_resolves() {
        let mut a = Assembler::new(0x4000_0000);
        a.call("f").nop().label("f").retl().nop();
        let words = a.finish().unwrap();
        assert_eq!(decode(words[0]), Instr::Call { disp30: 2 });
    }

    #[test]
    fn set32_materialises_constants() {
        for value in [0u32, 1, 0x3ff, 0x400, 0xdead_beef, u32::MAX] {
            let mut a = Assembler::new(0);
            a.set32(value, Reg::o(0));
            let words = a.finish().unwrap();
            // Emulate sethi+or by hand.
            let mut r = 0u32;
            for w in words {
                match decode(w) {
                    Instr::Sethi { imm22, .. } => r = imm22 << 10,
                    Instr::Alu {
                        op: AluOp::Or,
                        op2: Operand::Imm(v),
                        ..
                    } => r |= v as u32,
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(r, value);
        }
    }

    #[test]
    fn hi_lo_pair_resolves_to_address() {
        let mut a = Assembler::new(0x4000_0000);
        a.sethi_hi("data", Reg::o(0))
            .or_lo("data", Reg::o(0))
            .retl()
            .nop()
            .label("data")
            .word(0x1234_5678);
        let words = a.finish().unwrap();
        let addr = 0x4000_0000u32 + 4 * 4;
        match decode(words[0]) {
            Instr::Sethi { imm22, .. } => assert_eq!(imm22, addr >> 10),
            other => panic!("{other:?}"),
        }
        match decode(words[1]) {
            Instr::Alu {
                op2: Operand::Imm(v),
                ..
            } => assert_eq!(v as u32, addr & 0x3ff),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new(0);
        a.ba("nowhere").nop();
        assert_eq!(
            a.finish(),
            Err(AsmError::UndefinedLabel("nowhere".to_string()))
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Assembler::new(0);
        a.label("x").nop().label("x");
        assert_eq!(a.finish(), Err(AsmError::DuplicateLabel("x".to_string())));
    }
}
