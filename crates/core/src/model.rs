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
//! testbed pass. [`fold_categories`] turns them into the classes of any
//! classifier whose classes are unions of Table I categories, and
//! [`Fine::split`] into [`Fine`]'s, with the integer multiply and
//! divide counts the testbed's hardware ledger keeps. [`count_classes`]
//! is a counting run of its own on a machine of its own: it folds the
//! counters of an unobserved (traced) run where it can, and attaches a
//! [`ClassCounter`] observer only where it cannot. Both paths run at
//! the machine's dispatch, traced by default.

use nfp_sim::{ExecInfo, Machine, Observer, RunResult, SimError};
use nfp_sparc::{Category, Instr, CATEGORY_COUNT};

/// Maps instructions onto model classes. Classification must be
/// static (a property of the decoded instruction), because the ISS
/// counts instructions without dynamic context.
///
/// A classifier whose classes are unions of Table I categories says so
/// through [`Classifier::category_class`]; [`fold_categories`] then
/// folds the simulator's own category counters into classes instead of
/// observing every instruction.
///
/// The implementations here mark `classify` `#[inline]`: a
/// [`ClassCounter`] calls it once per retired instruction inside the
/// simulator's traces, where an outlined call cost about a third of a
/// counted run's speed.
pub trait Classifier {
    /// Number of classes.
    fn class_count(&self) -> usize;
    /// Class index of an instruction.
    fn classify(&self, instr: &Instr) -> usize;
    /// Human-readable class name.
    fn class_name(&self, class: usize) -> &'static str;
    /// The class of every instruction in Table I `category`, or `None`
    /// (the default) when instructions of one category can fall into
    /// different classes. Where it returns `Some(c)`, `classify` must
    /// return `c` for every instruction of that category.
    fn category_class(&self, _category: Category) -> Option<usize> {
        None
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
    fn category_class(&self, category: Category) -> Option<usize> {
        Some(category.index())
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
    fn category_class(&self, _category: Category) -> Option<usize> {
        Some(0)
    }
}

/// Eleven classes: Table I with integer multiply and divide split out
/// of "Integer Arithmetic" (they have very different latencies on the
/// iterative LEON3 units). Its classes are not unions of categories, so
/// [`count_classes`] counts it through a [`ClassCounter`]; a run that
/// counted its multiplies and divides, such as the testbed pass, folds
/// into it with [`Fine::split`] instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fine;

impl Fine {
    /// [`Fine`] counts of a run from its per-category counts (indexed
    /// like [`Category::ALL`]) and its integer multiply and divide
    /// counts, which "Integer Arithmetic" includes.
    pub fn split(per_category: &[u64], int_mul: u64, int_div: u64) -> Vec<u64> {
        let mut counts = per_category.to_vec();
        counts[Category::IntArith.index()] -= int_mul + int_div;
        counts.extend([int_mul, int_div]);
        counts
    }
}

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
}

/// Per-class instruction counter, attachable to a simulator run as an
/// observer (the generalisation of the ISS's built-in nine counters).
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
    #[inline]
    fn observe(&mut self, info: &ExecInfo) {
        self.counts[self.classifier.classify(&info.instr)] += 1;
    }
}

/// Folds per-category counts, indexed like [`Category::ALL`], into the
/// classes of `classifier`, or `None` when some category has no single
/// class ([`Classifier::category_class`]).
pub fn fold_categories<C: Classifier>(classifier: &C, per_category: &[u64]) -> Option<Vec<u64>> {
    let mut counts = vec![0; classifier.class_count()];
    for (&category, &n) in Category::ALL.iter().zip(per_category) {
        counts[classifier.category_class(category)?] += n;
    }
    Some(counts)
}

/// Runs `machine` for at most `max_instrs` instructions and counts what
/// it retires per class of `classifier`.
///
/// If every Table I category maps to a class
/// ([`Classifier::category_class`]) and the machine keeps its category
/// counters ([`MachineConfig::count_categories`]), this is an
/// unobserved [`Machine::run`] at the machine's dispatch (traced by
/// default) whose [`RunResult::counts`] are folded into classes by
/// [`fold_categories`]. Otherwise a [`ClassCounter`] is attached
/// through [`Machine::run_observed`], which dispatches the same way and
/// calls the counter once per retired instruction. Both give the same
/// counts. A simulation that already ran, such as the testbed pass,
/// needs no second run: fold its [`RunResult::counts`] instead.
///
/// [`MachineConfig::count_categories`]: nfp_sim::MachineConfig::count_categories
pub fn count_classes<C: Classifier + Clone>(
    machine: &mut Machine,
    classifier: &C,
    max_instrs: u64,
) -> Result<(RunResult, Vec<u64>), SimError> {
    let folds = Category::ALL
        .iter()
        .all(|&c| classifier.category_class(c).is_some());
    if !folds || !machine.config().count_categories {
        let mut counter = ClassCounter::new(classifier.clone());
        let run = machine.run_observed(max_instrs, &mut counter)?;
        return Ok((run, counter.counts));
    }
    // The machine's counters span its whole life; count only this run,
    // as an observer attached now would.
    let before = *machine.counts();
    let run = machine.run(max_instrs)?;
    let counts = fold_categories(classifier, run.counts.diff(&before).as_array())
        .expect("every category maps to a class");
    Ok((run, counts))
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
    fn fine_split_moves_mul_div_out_of_integer_arithmetic() {
        let per_category: Vec<u64> = (1..=CATEGORY_COUNT as u64).map(|n| n * 10).collect();
        let fine = Fine::split(&per_category, 3, 2);
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

    #[test]
    fn category_classes_agree_with_classify() {
        for (i, &cat) in Category::ALL.iter().enumerate() {
            assert_eq!(Paper.category_class(cat), Some(i), "{cat}");
            assert_eq!(Coarse.category_class(cat), Some(0), "{cat}");
            assert_eq!(Fine.category_class(cat), None, "{cat}");
        }
        for instr in [add(), mul(), Instr::NOP] {
            let cat = instr.category();
            assert_eq!(Paper.category_class(cat), Some(Paper.classify(&instr)));
            assert_eq!(Coarse.category_class(cat), Some(Coarse.classify(&instr)));
        }
    }

    #[test]
    fn fold_categories_sums_categories_into_classes() {
        let per_category: Vec<u64> = (1..=CATEGORY_COUNT as u64).collect();
        assert_eq!(
            fold_categories(&Paper, &per_category),
            Some(per_category.clone())
        );
        assert_eq!(
            fold_categories(&Coarse, &per_category),
            Some(vec![per_category.iter().sum()])
        );
        assert_eq!(fold_categories(&Fine, &per_category), None);
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
