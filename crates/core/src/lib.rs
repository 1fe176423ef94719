#![warn(missing_docs)]
//! `nfp-core`: the paper's primary contribution — mechanistic
//! estimation of non-functional properties (processing time and
//! energy) from instruction-accurate simulation.
//!
//! Workflow (paper Sections IV–V):
//!
//! 1. **Calibrate** per-class specific costs on the (virtual) hardware
//!    testbed with differential reference/test kernels —
//!    [`calibration::calibrate`] regenerates Table I.
//! 2. **Count** instructions per class on the fast ISS. The simulator
//!    commits its built-in Table I counters in every run, so the counts
//!    are read out of a simulation that already ran (the pipeline reads
//!    them from its one testbed pass per variant), and
//!    [`model::Classifier::fold`] folds them, with the integer multiply
//!    and divide counts the testbed pass also keeps, into the classes
//!    of any classifier. A run of its own is [`model::count_classes`]:
//!    it attaches a [`model::ClassCounter`], a ledger that folds each
//!    trace's counts the same way.
//! 3. **Estimate** `Ê = Σ e_c·n_c`, `T̂ = Σ t_c·n_c` —
//!    [`model::CostModel::estimate`] (Eq. 1).
//! 4. **Evaluate** against testbed measurements with
//!    [`error::ErrorSummary`] (Eq. 3, Table III) and drive design
//!    decisions with [`dse::fpu_tradeoff`] (Table IV).
//!
//! The [`model::Coarse`] and [`model::Fine`] classifiers support the
//! category-granularity ablation.

pub mod calibration;
pub mod consistency;
pub mod dse;
pub mod error;
pub mod model;
pub mod vulnerability;

pub use calibration::{calibrate, calibrate_class, Calibration, ClassCalibration, UNROLL};
pub use consistency::{check_structure, validate, Finding, Severity, Validation};
pub use dse::{fpu_tradeoff, FpuTradeoff, KernelNfp};
pub use error::{relative_error, ErrorSummary, NfpError};
pub use model::{
    count_classes, paper_table1, ClassCounter, Classifier, Coarse, CostModel, Estimate, Fine, Paper,
};
pub use vulnerability::{HarnessCause, Outcome, OutcomeCounts, VulnerabilityReport, OUTCOME_COUNT};
