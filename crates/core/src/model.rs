//! The mechanistic cost model (paper Eq. 1) and instruction
//! classifiers.
//!
//! `Ê = Σ_c e_c·n_c` and `T̂ = Σ_c t_c·n_c`: per-class specific
//! energies/times multiplied by dynamic instruction counts. The paper
//! uses nine classes (Table I); the [`Coarse`] and [`Fine`]
//! classifiers exist for the granularity ablation (what happens with
//! one class, or with integer multiply/divide split out).
//!
//! The simulator commits its built-in Table I counters per block in
//! every run, observed or not, so the counts Eq. 1 prices are read out
//! of whatever simulation already ran: the pipeline takes them from the
//! testbed pass. [`Classifier::fold`] turns per-category counts, plus
//! the integer multiply and divide counts the testbed's hardware ledger
//! keeps, into any classifier's classes. [`count_classes`] is a
//! counting run of its own on a machine of its own: one
//! [`Machine::run_observed`] of a [`ClassCounter`], a ledger that
//! folds each trace's counts the same way and runs at the machine's
//! dispatch, traced by default.

use nfp_sim::{ExecInfo, Machine, Observer, Residue, RunResult, SimError};
use nfp_sparc::{Category, CategoryCounts, Instr, CATEGORY_COUNT};

/// Maps instructions onto model classes. Classification must be
/// static (a property of the decoded instruction), because the ISS
/// counts instructions without dynamic context.
///
/// Every classifier here refines the Table I categories by at most the
/// integer multiplies and divides, so it also says how to
/// [`fold`](Classifier::fold) per-category counts into its classes: a
/// [`ClassCounter`] folds each trace's counts instead of classifying
/// every instruction, and a run that already counted, such as the
/// testbed pass, folds its totals.
///
/// The implementations here mark `classify` and `fold` `#[inline]`: a
/// [`ClassCounter`] calls them from the simulator's run loops, in
/// another crate, per stepped instruction and per trace.
pub trait Classifier {
    /// Number of classes.
    fn class_count(&self) -> usize;
    /// Class index of an instruction.
    fn classify(&self, instr: &Instr) -> usize;
    /// Human-readable class name.
    fn class_name(&self, class: usize) -> &'static str;
    /// Adds to `into` (one entry per class) the class counts of
    /// instructions with `per_category` counts (indexed like
    /// [`Category::ALL`]), of which `int_mul` are integer multiplies and
    /// `int_div` integer divides ([`nfp_sparc::AluOp::is_mul`],
    /// [`nfp_sparc::AluOp::is_div`]). Must agree with `classify`.
    fn fold(&self, per_category: &[u64], int_mul: u64, int_div: u64, into: &mut [u64]);

    /// [`Classifier::fold`] into zeroed counts.
    fn folded(&self, per_category: &[u64], int_mul: u64, int_div: u64) -> Vec<u64> {
        let mut counts = vec![0; self.class_count()];
        self.fold(per_category, int_mul, int_div, &mut counts);
        counts
    }
}

/// The paper's nine Table I categories.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paper;

impl Classifier for Paper {
    fn class_count(&self) -> usize {
        CATEGORY_COUNT
    }
    #[inline]
    fn classify(&self, instr: &Instr) -> usize {
        instr.category().index()
    }
    fn class_name(&self, class: usize) -> &'static str {
        Category::ALL[class].name()
    }
    #[inline]
    fn fold(&self, per_category: &[u64], _int_mul: u64, _int_div: u64, into: &mut [u64]) {
        for (count, &n) in into.iter_mut().zip(per_category) {
            *count += n;
        }
    }
}

/// A single class: every instruction costs the same (the crudest
/// mechanistic model; ablation baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct Coarse;

impl Classifier for Coarse {
    fn class_count(&self) -> usize {
        1
    }
    #[inline]
    fn classify(&self, _instr: &Instr) -> usize {
        0
    }
    fn class_name(&self, _class: usize) -> &'static str {
        "Any instruction"
    }
    #[inline]
    fn fold(&self, per_category: &[u64], _int_mul: u64, _int_div: u64, into: &mut [u64]) {
        into[0] += per_category.iter().sum::<u64>();
    }
}

/// Eleven classes: Table I with integer multiply and divide split out
/// of "Integer Arithmetic" (they have very different latencies on the
/// iterative LEON3 units).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fine;

/// Class indices of [`Fine`] beyond the paper's nine.
pub const FINE_INT_MUL: usize = 9;
/// Integer divide class of [`Fine`].
pub const FINE_INT_DIV: usize = 10;

impl Classifier for Fine {
    fn class_count(&self) -> usize {
        CATEGORY_COUNT + 2
    }
    #[inline]
    fn classify(&self, instr: &Instr) -> usize {
        match instr {
            Instr::Alu { op, .. } if op.is_mul() => FINE_INT_MUL,
            Instr::Alu { op, .. } if op.is_div() => FINE_INT_DIV,
            _ => instr.category().index(),
        }
    }
    fn class_name(&self, class: usize) -> &'static str {
        match class {
            FINE_INT_MUL => "Integer Multiply",
            FINE_INT_DIV => "Integer Divide",
            c => Category::ALL[c].name(),
        }
    }
    #[inline]
    fn fold(&self, per_category: &[u64], int_mul: u64, int_div: u64, into: &mut [u64]) {
        Paper.fold(per_category, 0, 0, into);
        into[Category::IntArith.index()] -= int_mul + int_div;
        into[FINE_INT_MUL] += int_mul;
        into[FINE_INT_DIV] += int_div;
    }
}

/// Per-class instruction counter, attachable to a simulator run as an
/// observer (the generalisation of the ISS's built-in nine counters).
/// It is a ledger ([`Observer::LEDGER`]): inside the simulator's traces
/// it folds each batch's category counts and multiply and divide
/// counts ([`Classifier::fold`]), and it classifies each stepped
/// instruction on its own.
pub struct ClassCounter<C: Classifier> {
    classifier: C,
    counts: Vec<u64>,
}

impl<C: Classifier> ClassCounter<C> {
    /// Zeroed counters for `classifier`.
    pub fn new(classifier: C) -> Self {
        let n = classifier.class_count();
        ClassCounter {
            classifier,
            counts: vec![0; n],
        }
    }

    /// The per-class counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total instructions counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl<C: Classifier> Observer for ClassCounter<C> {
    const LEDGER: bool = true;

    #[inline]
    fn observe(&mut self, info: &ExecInfo) {
        self.counts[self.classifier.classify(&info.instr)] += 1;
    }

    #[inline(always)]
    fn retire_batch(&mut self, counts: &CategoryCounts, residue: &Residue) {
        self.classifier.fold(
            counts.as_array(),
            residue.int_mul,
            residue.int_div,
            &mut self.counts,
        );
    }
}

/// Runs `machine` for at most `max_instrs` instructions and counts what
/// it retires per class of `classifier`: one [`Machine::run_observed`]
/// of a [`ClassCounter`], at the machine's dispatch (traced by
/// default). A simulation that already ran, such as the testbed pass,
/// needs no second run: [`Classifier::fold`] its counts instead.
pub fn count_classes<C: Classifier + Clone>(
    machine: &mut Machine,
    classifier: &C,
    max_instrs: u64,
) -> Result<(RunResult, Vec<u64>), SimError> {
    let mut counter = ClassCounter::new(classifier.clone());
    let run = machine.run_observed(max_instrs, &mut counter)?;
    Ok((run, counter.counts))
}

/// The calibrated model: specific time and energy per class
/// (the paper's Table I content).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Specific time per class in seconds.
    pub time_s: Vec<f64>,
    /// Specific energy per class in joules.
    pub energy_j: Vec<f64>,
}

/// An estimate produced by the model (Eq. 1).
///
/// ```
/// use nfp_core::paper_table1;
/// // One million integer instructions at the paper's Table I costs:
/// let mut counts = [0u64; 9];
/// counts[0] = 1_000_000; // Integer Arithmetic
/// let est = paper_table1().estimate(&counts);
/// assert!((est.time_s - 0.045).abs() < 1e-12);   // 45 ns each
/// assert!((est.energy_j - 0.015).abs() < 1e-12); // 15 nJ each
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated processing time in seconds.
    pub time_s: f64,
    /// Estimated energy in joules.
    pub energy_j: f64,
}

impl CostModel {
    /// Applies Eq. 1 to a count vector.
    ///
    /// # Panics
    /// Panics if `counts` has a different class count than the model.
    pub fn estimate(&self, counts: &[u64]) -> Estimate {
        assert_eq!(counts.len(), self.time_s.len(), "class count mismatch");
        let mut time_s = 0.0;
        let mut energy_j = 0.0;
        for (i, &n) in counts.iter().enumerate() {
            time_s += self.time_s[i] * n as f64;
            energy_j += self.energy_j[i] * n as f64;
        }
        Estimate { time_s, energy_j }
    }
}

/// The paper's published Table I values (nine classes, Table I
/// order), for comparison against calibrated values in reports.
pub fn paper_table1() -> CostModel {
    CostModel {
        time_s: vec![
            45e-9, 238e-9, 700e-9, 376e-9, 46e-9, 41e-9, 46e-9, 431e-9, 612e-9,
        ],
        energy_j: vec![
            15e-9, 76e-9, 229e-9, 166e-9, 13e-9, 13e-9, 14e-9, 431e-9, 88e-9,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::{AluOp, Operand, Reg};

    fn add() -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(1),
        }
    }

    fn mul() -> Instr {
        Instr::Alu {
            op: AluOp::SMul,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        }
    }

    #[test]
    fn paper_classifier_matches_categories() {
        let p = Paper;
        assert_eq!(p.class_count(), 9);
        assert_eq!(p.classify(&add()), Category::IntArith.index());
        assert_eq!(p.classify(&Instr::NOP), Category::Nop.index());
    }

    #[test]
    fn fine_classifier_splits_mul_div() {
        let f = Fine;
        assert_eq!(f.class_count(), 11);
        assert_eq!(f.classify(&add()), Category::IntArith.index());
        assert_eq!(f.classify(&mul()), FINE_INT_MUL);
        let div = Instr::Alu {
            op: AluOp::UDiv,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        };
        assert_eq!(f.classify(&div), FINE_INT_DIV);
        assert_eq!(f.class_name(FINE_INT_MUL), "Integer Multiply");
    }

    #[test]
    fn fine_fold_moves_mul_div_out_of_integer_arithmetic() {
        let per_category: Vec<u64> = (1..=CATEGORY_COUNT as u64).map(|n| n * 10).collect();
        let fine = Fine.folded(&per_category, 3, 2);
        assert_eq!(fine.len(), Fine.class_count());
        assert_eq!(fine[Category::IntArith.index()], 5);
        assert_eq!((fine[FINE_INT_MUL], fine[FINE_INT_DIV]), (3, 2));
        assert_eq!(fine[1..CATEGORY_COUNT], per_category[1..]);
        assert_eq!(fine.iter().sum::<u64>(), per_category.iter().sum::<u64>());
    }

    #[test]
    fn coarse_maps_everything_to_one() {
        let c = Coarse;
        assert_eq!(c.classify(&add()), 0);
        assert_eq!(c.classify(&Instr::NOP), 0);
    }

    /// Folding one instruction's counts (a one in its category, and in
    /// `int_mul` or `int_div` if it is one) gives a one in its class.
    fn assert_fold_agrees(classifier: &dyn Classifier, instr: &Instr) {
        let mut per_category = [0; CATEGORY_COUNT];
        per_category[instr.category().index()] = 1;
        let (mul, div) = match instr {
            Instr::Alu { op, .. } => (op.is_mul(), op.is_div()),
            _ => (false, false),
        };
        let mut want = vec![0; classifier.class_count()];
        want[classifier.classify(instr)] = 1;
        let got = classifier.folded(&per_category, mul as u64, div as u64);
        assert_eq!(got, want, "{instr:?}");
    }

    #[test]
    fn folds_agree_with_classify() {
        let div = Instr::Alu {
            op: AluOp::SDiv,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        };
        for instr in [add(), mul(), div, Instr::NOP] {
            for classifier in [&Paper as &dyn Classifier, &Coarse, &Fine] {
                assert_fold_agrees(classifier, &instr);
            }
        }
    }

    #[test]
    fn fold_adds_categories_into_classes() {
        let per_category: Vec<u64> = (1..=CATEGORY_COUNT as u64).collect();
        assert_eq!(Paper.folded(&per_category, 0, 0), per_category);
        assert_eq!(
            Coarse.folded(&per_category, 0, 0),
            vec![per_category.iter().sum::<u64>()]
        );
        // Folding adds to what is there.
        let mut twice = Paper.folded(&per_category, 0, 0);
        Paper.fold(&per_category, 0, 0, &mut twice);
        assert_eq!(
            twice,
            per_category.iter().map(|n| 2 * n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn estimate_is_dot_product() {
        let model = CostModel {
            time_s: vec![1e-9, 10e-9],
            energy_j: vec![2e-9, 20e-9],
        };
        let est = model.estimate(&[1000, 100]);
        assert!((est.time_s - 2e-6).abs() < 1e-18);
        assert!((est.energy_j - 4e-6).abs() < 1e-18);
    }

    #[test]
    fn paper_table1_has_nine_rows() {
        let m = paper_table1();
        assert_eq!(m.time_s.len(), 9);
        assert_eq!(m.energy_j.len(), 9);
        // Spot values from the paper.
        assert_eq!(m.time_s[Category::MemLoad.index()], 700e-9);
        assert_eq!(m.energy_j[Category::FpuDiv.index()], 431e-9);
    }

    #[test]
    #[should_panic]
    fn estimate_rejects_wrong_length() {
        paper_table1().estimate(&[0; 3]);
    }
}
