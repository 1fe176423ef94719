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
//!    them from its one testbed pass per variant) and
//!    [`model::fold_categories`] folds them into the classes of any
//!    classifier whose classes are unions of Table I categories;
//!    [`model::Fine::split`] splits integer multiply and divide out
//!    with the counts the testbed pass also keeps. A classifier that
//!    splits a category otherwise needs a run of its own:
//!    [`model::count_classes`] attaches a [`model::ClassCounter`]
//!    observer for it, which runs traced too.
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
    count_classes, fold_categories, paper_table1, ClassCounter, Classifier, Coarse, CostModel,
    Estimate, Fine, Paper,
};
pub use vulnerability::{HarnessCause, Outcome, OutcomeCounts, VulnerabilityReport, OUTCOME_COUNT};
