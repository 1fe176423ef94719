//! Structured instruction representation.
//!
//! [`Instr`] mirrors the grouping a real decoder performs (the paper's
//! Fig. 3: decode entries map onto grouped "morph" functions): all
//! register/immediate ALU variants share one variant parameterised by
//! [`AluOp`], all FPU register-to-register operations share [`FpOp`],
//! and the memory instructions are parameterised by [`MemSize`].

use crate::cond::{FCond, ICond};
use crate::regs::{FReg, Reg};

/// Second source operand of format-3 instructions: a register or a
/// 13-bit sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand (`i = 0`).
    Reg(Reg),
    /// `simm13` immediate operand (`i = 1`), already sign-extended.
    Imm(i32),
}

impl Operand {
    /// True if an immediate fits the signed 13-bit field.
    pub fn fits_simm13(v: i32) -> bool {
        (-4096..=4095).contains(&v)
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    /// Immediate operand; the encoder asserts `simm13` range.
    fn from(v: i32) -> Self {
        Operand::Imm(v)
    }
}

/// Integer-unit ALU operations (format 3, `op = 10`), named by their
/// assembler mnemonics.
///
/// The `cc` variants additionally update the integer condition codes.
#[allow(missing_docs)] // variants are the standard SPARC mnemonics
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    AddCc,
    AddX,
    AddXCc,
    Sub,
    SubCc,
    SubX,
    SubXCc,
    And,
    AndCc,
    AndN,
    AndNCc,
    Or,
    OrCc,
    OrN,
    OrNCc,
    Xor,
    XorCc,
    XNor,
    XNorCc,
    Sll,
    Srl,
    Sra,
    UMul,
    UMulCc,
    SMul,
    SMulCc,
    UDiv,
    UDivCc,
    SDiv,
    SDivCc,
}

impl AluOp {
    /// True for the integer multiplies (`umul`, `smul` and their `cc`
    /// forms), which the iterative LEON3 multiplier runs longer than
    /// simple ALU operations.
    #[inline(always)]
    pub fn is_mul(self) -> bool {
        use AluOp::*;
        matches!(self, UMul | UMulCc | SMul | SMulCc)
    }

    /// True for the integer divides (`udiv`, `sdiv` and their `cc`
    /// forms).
    #[inline(always)]
    pub fn is_div(self) -> bool {
        use AluOp::*;
        matches!(self, UDiv | UDivCc | SDiv | SDivCc)
    }

    /// True if the operation writes the integer condition codes.
    pub fn sets_cc(self) -> bool {
        use AluOp::*;
        matches!(
            self,
            AddCc
                | AddXCc
                | SubCc
                | SubXCc
                | AndCc
                | AndNCc
                | OrCc
                | OrNCc
                | XorCc
                | XNorCc
                | UMulCc
                | SMulCc
                | UDivCc
                | SDivCc
        )
    }

    /// The `op3` field encoding (SPARC V8 Table F-3).
    pub fn op3(self) -> u8 {
        use AluOp::*;
        match self {
            Add => 0b000000,
            AddCc => 0b010000,
            AddX => 0b001000,
            AddXCc => 0b011000,
            Sub => 0b000100,
            SubCc => 0b010100,
            SubX => 0b001100,
            SubXCc => 0b011100,
            And => 0b000001,
            AndCc => 0b010001,
            AndN => 0b000101,
            AndNCc => 0b010101,
            Or => 0b000010,
            OrCc => 0b010010,
            OrN => 0b000110,
            OrNCc => 0b010110,
            Xor => 0b000011,
            XorCc => 0b010011,
            XNor => 0b000111,
            XNorCc => 0b010111,
            Sll => 0b100101,
            Srl => 0b100110,
            Sra => 0b100111,
            UMul => 0b001010,
            UMulCc => 0b011010,
            SMul => 0b001011,
            SMulCc => 0b011011,
            UDiv => 0b001110,
            UDivCc => 0b011110,
            SDiv => 0b001111,
            SDivCc => 0b011111,
        }
    }

    /// Decodes an `op3` field; `None` if it is not an ALU operation.
    pub fn from_op3(op3: u8) -> Option<Self> {
        use AluOp::*;
        Some(match op3 {
            0b000000 => Add,
            0b010000 => AddCc,
            0b001000 => AddX,
            0b011000 => AddXCc,
            0b000100 => Sub,
            0b010100 => SubCc,
            0b001100 => SubX,
            0b011100 => SubXCc,
            0b000001 => And,
            0b010001 => AndCc,
            0b000101 => AndN,
            0b010101 => AndNCc,
            0b000010 => Or,
            0b010010 => OrCc,
            0b000110 => OrN,
            0b010110 => OrNCc,
            0b000011 => Xor,
            0b010011 => XorCc,
            0b000111 => XNor,
            0b010111 => XNorCc,
            0b100101 => Sll,
            0b100110 => Srl,
            0b100111 => Sra,
            0b001010 => UMul,
            0b011010 => UMulCc,
            0b001011 => SMul,
            0b011011 => SMulCc,
            0b001110 => UDiv,
            0b011110 => UDivCc,
            0b001111 => SDiv,
            0b011111 => SDivCc,
            _ => return None,
        })
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use AluOp::*;
        match self {
            Add => "add",
            AddCc => "addcc",
            AddX => "addx",
            AddXCc => "addxcc",
            Sub => "sub",
            SubCc => "subcc",
            SubX => "subx",
            SubXCc => "subxcc",
            And => "and",
            AndCc => "andcc",
            AndN => "andn",
            AndNCc => "andncc",
            Or => "or",
            OrCc => "orcc",
            OrN => "orn",
            OrNCc => "orncc",
            Xor => "xor",
            XorCc => "xorcc",
            XNor => "xnor",
            XNorCc => "xnorcc",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            UMul => "umul",
            UMulCc => "umulcc",
            SMul => "smul",
            SMulCc => "smulcc",
            UDiv => "udiv",
            UDivCc => "udivcc",
            SDiv => "sdiv",
            SDivCc => "sdivcc",
        }
    }
}

/// Floating-point unit operations (`FPop1`, SPARC V8 Table F-6),
/// named by their assembler mnemonics.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Move single (copies bits).
    FMovS,
    /// Negate single (flips the sign bit).
    FNegS,
    /// Absolute value single (clears the sign bit).
    FAbsS,
    FSqrtS,
    FSqrtD,
    FAddS,
    FAddD,
    FSubS,
    FSubD,
    FMulS,
    FMulD,
    FDivS,
    FDivD,
    /// Single × single with double result.
    FsMulD,
    /// Convert 32-bit integer to single.
    FiToS,
    /// Convert 32-bit integer to double.
    FiToD,
    /// Convert single to 32-bit integer (round toward zero).
    FsToI,
    /// Convert double to 32-bit integer (round toward zero).
    FdToI,
    /// Convert single to double.
    FsToD,
    /// Convert double to single.
    FdToS,
}

impl FpOp {
    /// The `opf` field encoding.
    pub fn opf(self) -> u16 {
        use FpOp::*;
        match self {
            FMovS => 0x01,
            FNegS => 0x05,
            FAbsS => 0x09,
            FSqrtS => 0x29,
            FSqrtD => 0x2a,
            FAddS => 0x41,
            FAddD => 0x42,
            FSubS => 0x45,
            FSubD => 0x46,
            FMulS => 0x49,
            FMulD => 0x4a,
            FDivS => 0x4d,
            FDivD => 0x4e,
            FsMulD => 0x69,
            FiToS => 0xc4,
            FiToD => 0xc8,
            FsToI => 0xd1,
            FdToI => 0xd2,
            FsToD => 0xc9,
            FdToS => 0xc6,
        }
    }

    /// Decodes an `opf` field; `None` if unknown.
    pub fn from_opf(opf: u16) -> Option<Self> {
        use FpOp::*;
        Some(match opf {
            0x01 => FMovS,
            0x05 => FNegS,
            0x09 => FAbsS,
            0x29 => FSqrtS,
            0x2a => FSqrtD,
            0x41 => FAddS,
            0x42 => FAddD,
            0x45 => FSubS,
            0x46 => FSubD,
            0x49 => FMulS,
            0x4a => FMulD,
            0x4d => FDivS,
            0x4e => FDivD,
            0x69 => FsMulD,
            0xc4 => FiToS,
            0xc8 => FiToD,
            0xd1 => FsToI,
            0xd2 => FdToI,
            0xc9 => FsToD,
            0xc6 => FdToS,
            _ => return None,
        })
    }

    /// True for the unary operations (source in `rs2` only).
    pub fn is_unary(self) -> bool {
        use FpOp::*;
        matches!(
            self,
            FMovS | FNegS | FAbsS | FSqrtS | FSqrtD | FiToS | FiToD | FsToI | FdToI | FsToD | FdToS
        )
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use FpOp::*;
        match self {
            FMovS => "fmovs",
            FNegS => "fnegs",
            FAbsS => "fabss",
            FSqrtS => "fsqrts",
            FSqrtD => "fsqrtd",
            FAddS => "fadds",
            FAddD => "faddd",
            FSubS => "fsubs",
            FSubD => "fsubd",
            FMulS => "fmuls",
            FMulD => "fmuld",
            FDivS => "fdivs",
            FDivD => "fdivd",
            FsMulD => "fsmuld",
            FiToS => "fitos",
            FiToD => "fitod",
            FsToI => "fstoi",
            FdToI => "fdtoi",
            FsToD => "fstod",
            FdToS => "fdtos",
        }
    }
}

/// Access width of integer memory instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 8-bit.
    Byte,
    /// 16-bit.
    Half,
    /// 32-bit.
    Word,
    /// 64-bit (even/odd register pair, `ldd`/`std`).
    Double,
}

impl MemSize {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::Byte => 1,
            MemSize::Half => 2,
            MemSize::Word => 4,
            MemSize::Double => 8,
        }
    }
}

/// A decoded SPARC V8 instruction.
#[allow(missing_docs)] // field names follow the architecture manual
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `sethi %hi(imm22), rd` — loads `imm22 << 10` into `rd`.
    /// `sethi 0, %g0` is the canonical `nop`.
    Sethi { rd: Reg, imm22: u32 },
    /// Integer conditional branch. `disp22` is in instruction words,
    /// relative to the branch itself.
    Branch {
        cond: ICond,
        annul: bool,
        disp22: i32,
    },
    /// Floating-point conditional branch.
    FBranch {
        cond: FCond,
        annul: bool,
        disp22: i32,
    },
    /// `call disp30` — PC-relative call, writes return address to `%o7`.
    Call { disp30: i32 },
    /// Integer ALU operation `rd = rs1 op operand`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        op2: Operand,
    },
    /// `jmpl rs1 + op2, rd` — indirect jump saving the link in `rd`.
    Jmpl { rd: Reg, rs1: Reg, op2: Operand },
    /// `rd %y, rd` — read the multiply/divide Y register.
    RdY { rd: Reg },
    /// `wr rs1 ^ op2, %y` — write the Y register.
    WrY { rs1: Reg, op2: Operand },
    /// `save rs1 + op2, rd` — new register window plus add.
    Save { rd: Reg, rs1: Reg, op2: Operand },
    /// `restore rs1 + op2, rd` — previous register window plus add.
    Restore { rd: Reg, rs1: Reg, op2: Operand },
    /// `t<cond> rs1 + op2` — conditional software trap.
    Ticc { cond: ICond, rs1: Reg, op2: Operand },
    /// Integer load; `sign` selects sign extension for sub-word sizes.
    Load {
        size: MemSize,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        op2: Operand,
    },
    /// Integer store.
    Store {
        size: MemSize,
        rd: Reg,
        rs1: Reg,
        op2: Operand,
    },
    /// FP load (`ld [..], %f` or `ldd [..], %f` pair).
    LoadF {
        double: bool,
        rd: FReg,
        rs1: Reg,
        op2: Operand,
    },
    /// FP store.
    StoreF {
        double: bool,
        rd: FReg,
        rs1: Reg,
        op2: Operand,
    },
    /// FPU register-to-register operation.
    FpOp {
        op: FpOp,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
    },
    /// FP compare, setting the FSR `fcc` field; `exception` selects the
    /// signalling variant (`fcmpe`).
    FCmp {
        double: bool,
        exception: bool,
        rs1: FReg,
        rs2: FReg,
    },
    /// `unimp const22` — illegal-instruction trap when executed.
    Unimp { const22: u32 },
    /// `flush` — instruction-cache flush; a no-op on the cacheless core.
    Flush { rs1: Reg, op2: Operand },
    /// Any word the decoder does not recognise.
    Illegal { word: u32 },
}

impl Instr {
    /// The canonical `nop` (`sethi 0, %g0`).
    pub const NOP: Instr = Instr::Sethi {
        rd: crate::regs::G0,
        imm22: 0,
    };

    /// True if this instruction is the canonical `nop`.
    pub fn is_nop(&self) -> bool {
        matches!(self, Instr::Sethi { rd, imm22: 0 } if rd.is_zero())
    }

    /// True for control transfers that have an architectural delay slot.
    pub fn has_delay_slot(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. } | Instr::FBranch { .. } | Instr::Call { .. } | Instr::Jmpl { .. }
        )
    }

    /// True for control-transfer instructions (CTIs): everything with a
    /// delay slot. Basic-block segmentation treats these as block
    /// terminators, with the delay slot belonging to the CTI's block.
    pub fn is_cti(&self) -> bool {
        self.has_delay_slot()
    }

    /// True if straight-line execution cannot continue past this
    /// instruction without the machine layer intervening: CTIs redirect
    /// control and `t<cond>` may raise a software trap. (Trapping
    /// instructions like `unimp` stay "linear" — they abort the run
    /// rather than redirect it.)
    pub fn ends_block(&self) -> bool {
        self.is_cti() || matches!(self, Instr::Ticc { .. })
    }

    /// Fall-through distance of a block-ending instruction, in
    /// instruction words: 2 for CTIs (the fall-through block starts
    /// past the delay slot) but 1 for `t<cond>`, which has *no* delay
    /// slot on SPARC V8 — an untaken soft trap continues at the very
    /// next word. Returns `None` for instructions that do not end a
    /// block.
    pub fn fall_through_words(&self) -> Option<usize> {
        if self.has_delay_slot() {
            Some(2)
        } else if matches!(self, Instr::Ticc { .. }) {
            Some(1)
        } else {
            None
        }
    }

    /// Statically known control-transfer target of a CTI at `pc`:
    /// `Some(target)` for pc-relative branches and calls, `None` for
    /// indirect jumps (`jmpl`) and for non-CTIs. The fall-through
    /// successor of a CTI is always `pc + 8` (past the delay slot).
    pub fn static_target(&self, pc: u32) -> Option<u32> {
        match *self {
            Instr::Branch { disp22, .. } | Instr::FBranch { disp22, .. } => {
                Some(pc.wrapping_add((disp22 as u32).wrapping_mul(4)))
            }
            Instr::Call { disp30 } => Some(pc.wrapping_add((disp30 as u32).wrapping_mul(4))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;

    #[test]
    fn nop_detection() {
        assert!(Instr::NOP.is_nop());
        let not_nop = Instr::Sethi {
            rd: Reg::o(0),
            imm22: 0,
        };
        assert!(!not_nop.is_nop());
        let not_nop2 = Instr::Sethi {
            rd: crate::regs::G0,
            imm22: 5,
        };
        assert!(!not_nop2.is_nop());
    }

    #[test]
    fn alu_op3_roundtrip() {
        use AluOp::*;
        for op in [
            Add, AddCc, AddX, AddXCc, Sub, SubCc, SubX, SubXCc, And, AndCc, AndN, AndNCc, Or, OrCc,
            OrN, OrNCc, Xor, XorCc, XNor, XNorCc, Sll, Srl, Sra, UMul, UMulCc, SMul, SMulCc, UDiv,
            UDivCc, SDiv, SDivCc,
        ] {
            assert_eq!(AluOp::from_op3(op.op3()), Some(op));
        }
    }

    #[test]
    fn fpop_opf_roundtrip() {
        use FpOp::*;
        for op in [
            FMovS, FNegS, FAbsS, FSqrtS, FSqrtD, FAddS, FAddD, FSubS, FSubD, FMulS, FMulD, FDivS,
            FDivD, FsMulD, FiToS, FiToD, FsToI, FdToI, FsToD, FdToS,
        ] {
            assert_eq!(FpOp::from_opf(op.opf()), Some(op));
        }
    }

    #[test]
    fn simm13_range() {
        assert!(Operand::fits_simm13(-4096));
        assert!(Operand::fits_simm13(4095));
        assert!(!Operand::fits_simm13(4096));
        assert!(!Operand::fits_simm13(-4097));
    }

    #[test]
    fn delay_slot_classification() {
        assert!(Instr::Call { disp30: 0 }.has_delay_slot());
        assert!(!Instr::NOP.has_delay_slot());
    }

    #[test]
    fn cti_and_block_end_classification() {
        let jmpl = Instr::Jmpl {
            rd: crate::regs::G0,
            rs1: Reg::o(7),
            op2: Operand::Imm(8),
        };
        let ticc = Instr::Ticc {
            cond: crate::cond::ICond::A,
            rs1: crate::regs::G0,
            op2: Operand::Imm(0),
        };
        assert!(jmpl.is_cti() && jmpl.ends_block());
        // `t<cond>` ends a block but is not a CTI (no delay slot).
        assert!(!ticc.is_cti() && ticc.ends_block());
        assert!(!Instr::NOP.ends_block());
        assert!(!Instr::Unimp { const22: 0 }.ends_block());
    }

    #[test]
    fn static_targets() {
        let b = Instr::Branch {
            cond: crate::cond::ICond::E,
            annul: false,
            disp22: -2,
        };
        assert_eq!(b.static_target(0x100), Some(0xf8));
        assert_eq!(Instr::Call { disp30: 3 }.static_target(0x100), Some(0x10c));
        let jmpl = Instr::Jmpl {
            rd: crate::regs::G0,
            rs1: Reg::o(7),
            op2: Operand::Imm(8),
        };
        assert_eq!(jmpl.static_target(0x100), None);
        assert_eq!(Instr::NOP.static_target(0x100), None);
    }
}
