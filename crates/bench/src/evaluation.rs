//! The evaluation pipeline: calibration, estimation, and ground-truth
//! measurement.
//!
//! Every kernel variant is simulated once, on the virtual board. The
//! board's hardware observer runs inside the simulator's traces while
//! the machine commits its Table I counters per block, so one
//! [`Testbed::run`] gives the measurement, the exit code and emitted
//! words the pipeline checks, and the Table I counts that Eq. 1 prices:
//! the "ISS + mechanistic model" of Fig. 1, read out of the same
//! simulation. [`run_variants`] runs the variants of any number of
//! boards in one round, longest first by a key known before any run,
//! so the long soft-float FSE variants do not leave a thread idle at
//! the end of the sweep.

use nfp_cc::FloatMode;
use nfp_core::{calibrate, Calibration, Estimate, NfpError, Paper};
use nfp_testbed::{HwTotals, Measurement, Testbed};
use nfp_workloads::{machine_for, Kernel, Workload, KERNEL_BUDGET};
use std::cmp::Reverse;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Float ("with FPU") or fixed ("-msoft-float") kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Float,
    Fixed,
}

impl Mode {
    /// Both variants, paper order.
    pub const BOTH: [Mode; 2] = [Mode::Float, Mode::Fixed];

    /// The compiler mode of this variant.
    pub fn float_mode(self) -> FloatMode {
        match self {
            Mode::Float => FloatMode::Hard,
            Mode::Fixed => FloatMode::Soft,
        }
    }

    /// Suffix used in kernel result names.
    pub fn suffix(self) -> &'static str {
        match self {
            Mode::Float => "float",
            Mode::Fixed => "fixed",
        }
    }

    /// Inverse of [`Mode::suffix`], for parsing journal headers and
    /// worker handshakes.
    pub fn from_suffix(s: &str) -> Option<Mode> {
        match s {
            "float" => Some(Mode::Float),
            "fixed" => Some(Mode::Fixed),
            _ => None,
        }
    }
}

/// Everything the pipeline learns about one kernel variant.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// `<kernel>_<float|fixed>`.
    pub name: String,
    /// The kernel's registry name (without variant suffix).
    pub base_name: String,
    /// Variant.
    pub mode: Mode,
    /// Per-category (Table I) instruction counts of the testbed pass.
    pub counts: Vec<u64>,
    /// Model estimate (Eq. 1).
    pub estimate: Estimate,
    /// Instrument-reported ground truth.
    pub measured: Measurement,
    /// True (noise-free) hardware totals, for introspection.
    pub totals: HwTotals,
    /// Dynamic instruction count.
    pub instret: u64,
}

impl KernelResult {
    /// Signed relative time error (Eq. 3).
    pub fn time_error(&self) -> f64 {
        nfp_core::relative_error(self.estimate.time_s, self.measured.time_s)
    }

    /// Signed relative energy error (Eq. 3).
    pub fn energy_error(&self) -> f64 {
        nfp_core::relative_error(self.estimate.energy_j, self.measured.energy_j)
    }
}

/// Every kernel of `kernels` in every mode of `modes`, in plan order.
pub fn variants<'a>(
    kernels: &'a [Kernel],
    modes: &'a [Mode],
) -> impl Iterator<Item = (&'a Kernel, Mode)> {
    kernels
        .iter()
        .flat_map(move |k| modes.iter().map(move |&m| (k, m)))
}

/// `<kernel>_<float|fixed>`, the name of one kernel variant.
fn variant_name(kernel: &Kernel, mode: Mode) -> String {
    format!("{}_{}", kernel.name, mode.suffix())
}

/// The order in which [`run_variants`] starts `variants`:
/// longest first by a key known before any run, ties in plan order.
/// Soft-float variants retire far more instructions than hard-float
/// ones, and FSE more than HEVC: on the quick preset the soft-float FSE
/// variants retire 66.5–67.7 M instructions and every other variant
/// 2.7–5.9 M.
fn start_order(variants: &[(&Kernel, Mode)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..variants.len()).collect();
    // Stable, so ties keep plan order.
    order.sort_by_key(|&i| {
        let (kernel, mode) = variants[i];
        Reverse((mode == Mode::Fixed, kernel.workload == Workload::Fse))
    });
    order
}

/// The seed every calibration of the pipeline draws its instrument
/// noise from.
pub(crate) const CALIBRATION_SEED: u64 = 0xcafe;

/// A calibrated evaluation context.
pub struct Evaluation {
    /// The virtual board.
    pub testbed: Testbed,
    /// Calibration output (Table I).
    pub calibration: Calibration,
}

impl Evaluation {
    /// Calibrates the paper's nine-class model on the paper's cacheless
    /// board.
    pub fn new() -> Result<Self, NfpError> {
        Self::for_board(Testbed::new())
    }

    /// Calibrates the paper's nine-class model on `testbed`.
    pub fn for_board(testbed: Testbed) -> Result<Self, NfpError> {
        let calibration = calibrate(&testbed, &Paper, CALIBRATION_SEED)?;
        Ok(Evaluation {
            testbed,
            calibration,
        })
    }

    /// Runs one kernel variant through the pipeline in one simulation:
    /// a [`Testbed::run`] on a fresh machine whose exit code and emitted
    /// words are checked, whose Table I counts (the [`Paper`] classes)
    /// Eq. 1 prices, and whose instruments give the measurement.
    pub fn run_kernel(&self, kernel: &Kernel, mode: Mode) -> Result<KernelResult, NfpError> {
        let name = variant_name(kernel, mode);
        let mut machine = machine_for(kernel, mode.float_mode())?;
        let measured = self.testbed.run(&mut machine, kernel.seed, KERNEL_BUDGET)?;
        let run = &measured.run;
        if run.exit_code != 0 {
            return Err(NfpError::KernelFailed {
                kernel: name,
                exit_code: run.exit_code,
            });
        }
        if run.words != kernel.expected_words {
            return Err(NfpError::OutputMismatch { kernel: name });
        }
        // A fresh machine's counters hold this run alone, and the Paper
        // classes are the Table I categories in order.
        let counts = run.counts.as_array().to_vec();
        Ok(KernelResult {
            name,
            base_name: kernel.name.clone(),
            mode,
            estimate: self.calibration.model.estimate(&counts),
            counts,
            measured: measured.measurement,
            totals: measured.totals,
            instret: run.instret,
        })
    }

    /// Runs every kernel in both variants (the paper's M = 2×|kernels|
    /// evaluation set).
    pub fn run_all(&self, kernels: &[Kernel]) -> Result<Vec<KernelResult>, NfpError> {
        variants(kernels, &Mode::BOTH)
            .map(|(kernel, mode)| self.run_kernel(kernel, mode))
            .collect()
    }

    /// Like [`Evaluation::run_all`] but spread over threads by
    /// [`run_variants`].
    pub fn run_all_parallel(&self, kernels: &[Kernel]) -> Result<Vec<KernelResult>, NfpError> {
        let jobs: Vec<_> = variants(kernels, &Mode::BOTH)
            .map(|(kernel, mode)| (self, kernel, mode))
            .collect();
        run_variants(&jobs)
    }
}

/// Runs `jobs`, each a kernel variant on an evaluation's board, over
/// `available_parallelism()` worker threads (at most one per job), each
/// on its own simulator instance, in one round that starts the longest
/// variants first. Results come back in plan order, each equal to its
/// [`Evaluation::run_kernel`], and on failure the error is the first
/// one in plan order. A job that panicked reports
/// [`NfpError::WorkerLost`].
pub fn run_variants(jobs: &[(&Evaluation, &Kernel, Mode)]) -> Result<Vec<KernelResult>, NfpError> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let variants: Vec<(&Kernel, Mode)> = jobs.iter().map(|&(_, k, m)| (k, m)).collect();
    let order = start_order(&variants);
    let done = run_pool(&order, threads, |&i| {
        let (eval, kernel, mode) = jobs[i];
        eval.run_kernel(kernel, mode)
    });
    let mut slots: Vec<Option<Result<KernelResult, NfpError>>> =
        jobs.iter().map(|_| None).collect();
    for (&i, result) in order.iter().zip(done) {
        slots[i] = result;
    }
    let names: Vec<String> = variants.iter().map(|&(k, m)| variant_name(k, m)).collect();
    collect_parallel_slots(slots, &names)
}

/// Runs `work` on every job across `threads` scoped threads, which take
/// the jobs in slice order, and returns each job's result in the job's
/// slot. A job that panics leaves its slot `None`, and its thread goes
/// on to the next job.
pub(crate) fn run_pool<J: Sync, T: Send>(
    jobs: &[J],
    threads: usize,
    work: impl Fn(&J) -> T + Sync,
) -> Vec<Option<T>> {
    // Only hands out job indices; results travel back through `join`.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            return done;
                        };
                        // Jobs share only read-only state, so a panic
                        // leaves nothing half-updated for the next job.
                        if let Ok(result) = panic::catch_unwind(AssertUnwindSafe(|| work(job))) {
                            done.push((i, result));
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            // A worker that died outside a job loses its results,
            // which leaves their slots empty too.
            for (i, result) in worker.join().unwrap_or_default() {
                slots[i] = Some(result);
            }
        }
    });
    slots
}

/// Drains the per-job result slots of [`run_pool`] in plan order. An
/// empty slot (its job panicked, or its worker died) reports
/// [`NfpError::WorkerLost`] naming the job (a kernel variant), so an
/// operator knows exactly which job to rerun.
pub(crate) fn collect_parallel_slots<T>(
    slots: Vec<Option<Result<T, NfpError>>>,
    names: &[String],
) -> Result<Vec<T>, NfpError> {
    slots
        .into_iter()
        .zip(names)
        .map(|(slot, name)| slot.ok_or_else(|| NfpError::WorkerLost { job: name.clone() })?)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_core::{count_classes, Classifier, Fine};
    use nfp_workloads::Preset;

    #[test]
    fn pipeline_produces_consistent_results_for_one_kernel() {
        let eval = Evaluation::new().unwrap();
        let kernels = nfp_workloads::hevc_kernels(&Preset::quick()).expect("kernels");
        let r = eval.run_kernel(&kernels[0], Mode::Float).unwrap();
        assert!(r.estimate.time_s > 0.0);
        assert!(r.estimate.energy_j > 0.0);
        assert!(r.measured.time_s > 0.0);
        assert!(r.measured.energy_j > 0.0);
        assert_eq!(r.counts.iter().sum::<u64>(), r.instret);
        // The estimate should already be in the right ballpark.
        assert!(
            r.time_error().abs() < 0.25,
            "time error {:.1}%",
            r.time_error() * 100.0
        );
        assert!(
            r.energy_error().abs() < 0.25,
            "energy error {:.1}%",
            r.energy_error() * 100.0
        );
    }

    #[test]
    fn lost_parallel_slot_names_the_kernel_variant() {
        let slots: Vec<Option<Result<KernelResult, NfpError>>> = vec![None];
        let names = vec!["fse_img00_float".to_string()];
        match collect_parallel_slots(slots, &names) {
            Err(NfpError::WorkerLost { job }) => {
                assert_eq!(job, "fse_img00_float");
                let shown = NfpError::WorkerLost { job }.to_string();
                assert!(shown.contains("fse_img00_float"), "message: {shown}");
            }
            other => panic!("expected WorkerLost, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn panicking_job_is_named_and_spares_the_rest() {
        let names: Vec<String> = ["hevc_a_float", "hevc_a_fixed", "fse_b_float", "fse_b_fixed"]
            .map(String::from)
            .to_vec();
        // One thread must carry on past the panic by itself.
        for threads in [1, 2] {
            let slots = run_pool(&names, threads, |name| {
                if name == "hevc_a_fixed" {
                    panic!("simulated crash in {name}");
                }
                Ok(name.len())
            });
            for (name, slot) in names.iter().zip(&slots) {
                assert_eq!(slot.is_none(), name == "hevc_a_fixed", "{name}");
            }
            match collect_parallel_slots(slots, &names) {
                Err(NfpError::WorkerLost { job }) => assert_eq!(job, "hevc_a_fixed"),
                other => panic!("expected WorkerLost, got {other:?}"),
            }
        }
    }

    /// `count_classes` for `classifier` against a stepped
    /// `ClassCounter`, on a fresh machine each; returns the counts and
    /// instret they agree on.
    fn assert_counts_match_observer<C: Classifier + Clone>(
        kernel: &Kernel,
        mode: Mode,
        classifier: C,
    ) -> (Vec<u64>, u64) {
        let name = variant_name(kernel, mode);
        let mut machine = machine_for(kernel, mode.float_mode()).unwrap();
        let (run, counts) = count_classes(&mut machine, &classifier, KERNEL_BUDGET).unwrap();
        assert!(
            machine.dispatch_stats().traced > 0,
            "{name}: counting stepped through an observer"
        );
        let mut machine = machine_for(kernel, mode.float_mode()).unwrap();
        machine.set_dispatch(nfp_sim::Dispatch::Step);
        let mut counter = nfp_core::ClassCounter::new(classifier);
        let observed = machine.run_observed(KERNEL_BUDGET, &mut counter).unwrap();
        assert_eq!(counts, counter.counts(), "{name}");
        assert_eq!(run.instret, observed.instret, "{name}");
        assert_eq!(run.words, kernel.expected_words, "{name}");
        (counts, run.instret)
    }

    #[test]
    fn trace_speed_counts_equal_class_counter_counts() {
        let eval = Evaluation::new().unwrap();
        let preset = Preset::quick();
        let hevc = nfp_workloads::hevc_kernels(&preset).expect("kernels");
        let fse = nfp_workloads::fse_kernels(&preset).expect("kernels");
        for kernel in [&hevc[0], &fse[0]] {
            for mode in Mode::BOTH {
                let (counts, instret) = assert_counts_match_observer(kernel, mode, Paper);
                assert_counts_match_observer(kernel, mode, nfp_core::Coarse);
                let (fine, _) = assert_counts_match_observer(kernel, mode, Fine);
                // The testbed pass is the counting pass: its counts are
                // those of a ClassCounter run, and fold into Fine's.
                let r = eval.run_kernel(kernel, mode).unwrap();
                assert_eq!(r.counts, counts, "{}", r.name);
                assert_eq!(r.instret, instret, "{}", r.name);
                let (mul, div) = (r.totals.int_mul, r.totals.int_div);
                assert_eq!(Fine.folded(&r.counts, mul, div), fine, "{}", r.name);
            }
        }
    }

    #[test]
    fn sweep_starts_soft_float_fse_first_and_keeps_plan_order_in_ties() {
        let kernel = |name: &str, workload| Kernel {
            name: name.to_string(),
            workload,
            input: Vec::new(),
            expected_words: Vec::new(),
            seed: 0,
        };
        let kernels = [
            kernel("hevc_a", Workload::Hevc),
            kernel("fse_b", Workload::Fse),
            kernel("hevc_c", Workload::Hevc),
            kernel("fse_d", Workload::Fse),
        ];
        let variants: Vec<(&Kernel, Mode)> = variants(&kernels, &Mode::BOTH).collect();
        let started: Vec<String> = start_order(&variants)
            .into_iter()
            .map(|i| variant_name(variants[i].0, variants[i].1))
            .collect();
        assert_eq!(
            started,
            [
                "fse_b_fixed",
                "fse_d_fixed",
                "hevc_a_fixed",
                "hevc_c_fixed",
                "fse_b_float",
                "fse_d_float",
                "hevc_a_float",
                "hevc_c_float",
            ]
        );
    }

    #[test]
    fn fixed_variant_runs_longer_on_fse() {
        let eval = Evaluation::new().unwrap();
        let kernels = nfp_workloads::fse_kernels(&Preset::quick()).expect("kernels");
        let float = eval.run_kernel(&kernels[0], Mode::Float).unwrap();
        let fixed = eval.run_kernel(&kernels[0], Mode::Fixed).unwrap();
        assert!(fixed.measured.time_s > 3.0 * float.measured.time_s);
    }
}
