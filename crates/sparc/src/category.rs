//! The paper's nine instruction categories (Table I) and the counter
//! block the simulator maintains for them.
//!
//! The mapping follows Section III of the paper: instruction groups are
//! "further divided into categories like integer, floating point, jumps,
//! etc.", with one internal counter register per category. The category
//! of an instruction is a static property of the decoded form, so the
//! simulator can bake the counter index into its predecoded stream.

use crate::insn::{AluOp, FpOp, Instr};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of instruction categories (rows of the paper's Table I).
pub const CATEGORY_COUNT: usize = 9;

/// Instruction category, exactly the nine rows of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Integer-unit arithmetic, logic, shifts, multiplies, divides,
    /// and `sethi`.
    IntArith = 0,
    /// Control transfers: branches, calls, indirect jumps.
    Jump = 1,
    /// Memory loads, integer and FP.
    MemLoad = 2,
    /// Memory stores, integer and FP.
    MemStore = 3,
    /// The canonical `nop` (`sethi 0, %g0`); the paper measures it
    /// separately because delay-slot fillers are frequent.
    Nop = 4,
    /// Everything else in the integer unit: `rd`/`wr`, window ops,
    /// traps, flushes.
    Other = 5,
    /// FPU add/subtract/multiply plus moves, compares and conversions.
    FpuArith = 6,
    /// FPU divide.
    FpuDiv = 7,
    /// FPU square root.
    FpuSqrt = 8,
}

impl Category {
    /// All categories in Table I order.
    pub const ALL: [Category; CATEGORY_COUNT] = [
        Category::IntArith,
        Category::Jump,
        Category::MemLoad,
        Category::MemStore,
        Category::Nop,
        Category::Other,
        Category::FpuArith,
        Category::FpuDiv,
        Category::FpuSqrt,
    ];

    /// Counter index of this category.
    #[inline(always)]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name, matching the paper's Table I wording.
    pub fn name(self) -> &'static str {
        match self {
            Category::IntArith => "Integer Arithmetic",
            Category::Jump => "Jump",
            Category::MemLoad => "Memory Load",
            Category::MemStore => "Memory Store",
            Category::Nop => "NOP",
            Category::Other => "Other",
            Category::FpuArith => "FPU Arithmetic",
            Category::FpuDiv => "FPU Divide",
            Category::FpuSqrt => "FPU Square root",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Instr {
    /// The Table I category of this instruction.
    pub fn category(&self) -> Category {
        match self {
            i if i.is_nop() => Category::Nop,
            Instr::Sethi { .. } => Category::IntArith,
            Instr::Alu { op, .. } => {
                // Integer divide shares the IU datapath; Table I folds it
                // into Integer Arithmetic.
                let _: &AluOp = op;
                Category::IntArith
            }
            Instr::Branch { .. }
            | Instr::FBranch { .. }
            | Instr::Call { .. }
            | Instr::Jmpl { .. } => Category::Jump,
            Instr::Load { .. } | Instr::LoadF { .. } => Category::MemLoad,
            Instr::Store { .. } | Instr::StoreF { .. } => Category::MemStore,
            Instr::FpOp { op, .. } => match op {
                FpOp::FDivS | FpOp::FDivD => Category::FpuDiv,
                FpOp::FSqrtS | FpOp::FSqrtD => Category::FpuSqrt,
                _ => Category::FpuArith,
            },
            Instr::FCmp { .. } => Category::FpuArith,
            Instr::RdY { .. }
            | Instr::WrY { .. }
            | Instr::Save { .. }
            | Instr::Restore { .. }
            | Instr::Ticc { .. }
            | Instr::Flush { .. }
            | Instr::Unimp { .. }
            | Instr::Illegal { .. } => Category::Other,
        }
    }
}

/// Per-category instruction counts — the simulator's "internal counter
/// registers" read out after a run (paper §III).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryCounts {
    counts: [u64; CATEGORY_COUNT],
}

impl CategoryCounts {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter of `cat` by one.
    #[inline(always)]
    pub fn bump(&mut self, cat: Category) {
        self.counts[cat.index()] += 1;
    }

    /// Total dynamic instruction count across all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(category, count)` pairs in Table I order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        Category::ALL
            .iter()
            .map(move |&c| (c, self.counts[c.index()]))
    }

    /// Element-wise sum, useful when aggregating per-thread runs.
    pub fn merged(&self, other: &CategoryCounts) -> CategoryCounts {
        let mut out = *self;
        for i in 0..CATEGORY_COUNT {
            out.counts[i] += other.counts[i];
        }
        out
    }

    /// Element-wise difference (saturating), useful for differential
    /// kernel measurements.
    pub fn diff(&self, baseline: &CategoryCounts) -> CategoryCounts {
        let mut out = CategoryCounts::new();
        for i in 0..CATEGORY_COUNT {
            out.counts[i] = self.counts[i].saturating_sub(baseline.counts[i]);
        }
        out
    }

    /// Raw access to the counter array in Table I order.
    pub fn as_array(&self) -> &[u64; CATEGORY_COUNT] {
        &self.counts
    }
}

impl Index<Category> for CategoryCounts {
    type Output = u64;
    fn index(&self, cat: Category) -> &u64 {
        &self.counts[cat.index()]
    }
}

impl IndexMut<Category> for CategoryCounts {
    fn index_mut(&mut self, cat: Category) -> &mut u64 {
        &mut self.counts[cat.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::ICond;
    use crate::insn::{MemSize, Operand};
    use crate::regs::{FReg, Reg, G0};

    #[test]
    fn category_of_representatives() {
        use Category::*;
        let cases: Vec<(Instr, Category)> = vec![
            (Instr::NOP, Nop),
            (
                Instr::Sethi {
                    rd: Reg::o(0),
                    imm22: 1,
                },
                IntArith,
            ),
            (
                Instr::Alu {
                    op: AluOp::UDiv,
                    rd: Reg::o(0),
                    rs1: Reg::o(1),
                    op2: Operand::Imm(3),
                },
                IntArith,
            ),
            (
                Instr::Branch {
                    cond: ICond::A,
                    annul: false,
                    disp22: 2,
                },
                Jump,
            ),
            (Instr::Call { disp30: 4 }, Jump),
            (
                Instr::Load {
                    size: MemSize::Word,
                    signed: false,
                    rd: Reg::o(0),
                    rs1: Reg::o(1),
                    op2: Operand::Imm(0),
                },
                MemLoad,
            ),
            (
                Instr::StoreF {
                    double: true,
                    rd: FReg::new(0),
                    rs1: Reg::o(1),
                    op2: Operand::Imm(0),
                },
                MemStore,
            ),
            (
                Instr::FpOp {
                    op: FpOp::FAddD,
                    rd: FReg::new(0),
                    rs1: FReg::new(2),
                    rs2: FReg::new(4),
                },
                FpuArith,
            ),
            (
                Instr::FpOp {
                    op: FpOp::FDivD,
                    rd: FReg::new(0),
                    rs1: FReg::new(2),
                    rs2: FReg::new(4),
                },
                FpuDiv,
            ),
            (
                Instr::FpOp {
                    op: FpOp::FSqrtD,
                    rd: FReg::new(0),
                    rs1: FReg::new(0),
                    rs2: FReg::new(4),
                },
                FpuSqrt,
            ),
            (
                Instr::Save {
                    rd: G0,
                    rs1: G0,
                    op2: Operand::Imm(0),
                },
                Other,
            ),
        ];
        for (i, want) in cases {
            assert_eq!(i.category(), want, "{i:?}");
        }
    }

    #[test]
    fn counts_bump_total_and_diff() {
        let mut a = CategoryCounts::new();
        a.bump(Category::IntArith);
        a.bump(Category::IntArith);
        a.bump(Category::Jump);
        assert_eq!(a.total(), 3);
        assert_eq!(a[Category::IntArith], 2);

        let mut b = CategoryCounts::new();
        b.bump(Category::IntArith);
        let d = a.diff(&b);
        assert_eq!(d[Category::IntArith], 1);
        assert_eq!(d[Category::Jump], 1);
        // diff saturates instead of underflowing
        let d2 = b.diff(&a);
        assert_eq!(d2[Category::IntArith], 0);

        let m = a.merged(&b);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn all_categories_distinct_indices() {
        let mut seen = [false; CATEGORY_COUNT];
        for c in Category::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
