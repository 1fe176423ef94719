//! The evaluation pipeline: calibration, per-kernel counting,
//! estimation, and ground-truth measurement.
//!
//! Every kernel variant takes two passes. The counting pass runs the
//! ISS through [`count_classes`]; for the paper's classifier that is a
//! traced run read out through the simulator's Table I counters, the
//! "ISS + mechanistic model" point of Fig. 1. The testbed pass runs the
//! variant again on the virtual board, whose hardware observer runs
//! inside the same traces but charges a cycle and energy cost per
//! instruction, so it is the longer of the two.
//! [`Evaluation::run_all_parallel`]
//! counts every variant first and then starts the testbed passes
//! longest first, so the long soft-float variants do not leave a
//! thread idle at the end of the sweep.

use nfp_cc::FloatMode;
use nfp_core::{
    calibrate, count_classes, Calibration, Classifier, CostModel, Estimate, NfpError, Paper,
};
use nfp_testbed::{HwTotals, Measurement, Testbed};
use nfp_workloads::{machine_for, Kernel, KERNEL_BUDGET};
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
    /// Per-class instruction counts from the ISS.
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

/// What the counting pass learns about one kernel variant.
struct Counted {
    /// Per-class instruction counts.
    counts: Vec<u64>,
    /// Dynamic instruction count.
    instret: u64,
}

/// `<kernel>_<float|fixed>`, the name of one kernel variant.
fn variant_name(kernel: &Kernel, mode: Mode) -> String {
    format!("{}_{}", kernel.name, mode.suffix())
}

/// The counting half of [`Evaluation::run_kernel_with`]: counts one
/// variant per class of `classifier` and checks its exit code and
/// emitted words.
fn count_variant<C: Classifier + Clone>(
    kernel: &Kernel,
    mode: Mode,
    classifier: &C,
) -> Result<Counted, NfpError> {
    let mut machine = machine_for(kernel, mode.float_mode())?;
    let (run, counts) = count_classes(&mut machine, classifier, KERNEL_BUDGET)?;
    if run.exit_code != 0 {
        return Err(NfpError::KernelFailed {
            kernel: variant_name(kernel, mode),
            exit_code: run.exit_code,
        });
    }
    if run.words != kernel.expected_words {
        return Err(NfpError::OutputMismatch {
            kernel: variant_name(kernel, mode),
        });
    }
    Ok(Counted {
        counts,
        instret: run.instret,
    })
}

/// A calibrated evaluation context.
pub struct Evaluation {
    /// The virtual board.
    pub testbed: Testbed,
    /// Calibration output (Table I).
    pub calibration: Calibration,
}

impl Evaluation {
    /// Calibrates the paper's nine-class model on a fresh testbed.
    pub fn new() -> Result<Self, NfpError> {
        let testbed = Testbed::new();
        let calibration = calibrate(&testbed, &Paper, 0xcafe)?;
        Ok(Evaluation {
            testbed,
            calibration,
        })
    }

    /// Runs one kernel variant through the full pipeline: ISS counting
    /// pass (verifying functional output), estimation, and measured
    /// testbed pass.
    pub fn run_kernel(&self, kernel: &Kernel, mode: Mode) -> Result<KernelResult, NfpError> {
        self.run_kernel_with(kernel, mode, &Paper, &self.calibration.model)
    }

    /// Like [`Evaluation::run_kernel`] with an explicit classifier and
    /// model (for the granularity ablation). The counting pass goes
    /// through [`count_classes`]: a traced run for classifiers whose
    /// classes are unions of Table I categories ([`Paper`],
    /// [`nfp_core::Coarse`]), a traced run with a counting observer
    /// otherwise ([`nfp_core::Fine`]). Either way it checks the exit code and the
    /// emitted words before the testbed pass runs.
    pub fn run_kernel_with<C: Classifier + Clone>(
        &self,
        kernel: &Kernel,
        mode: Mode,
        classifier: &C,
        model: &CostModel,
    ) -> Result<KernelResult, NfpError> {
        let counted = count_variant(kernel, mode, classifier)?;
        self.measure_variant(kernel, mode, &counted, model)
    }

    /// The testbed half of [`Evaluation::run_kernel_with`]: measures
    /// one variant on the virtual board and sets the estimate `model`
    /// makes from `counted` beside the measurement.
    fn measure_variant(
        &self,
        kernel: &Kernel,
        mode: Mode,
        counted: &Counted,
        model: &CostModel,
    ) -> Result<KernelResult, NfpError> {
        let mut machine = machine_for(kernel, mode.float_mode())?;
        let measured = self.testbed.run(&mut machine, kernel.seed, KERNEL_BUDGET)?;
        Ok(KernelResult {
            name: variant_name(kernel, mode),
            base_name: kernel.name.clone(),
            mode,
            counts: counted.counts.clone(),
            estimate: model.estimate(&counted.counts),
            measured: measured.measurement,
            totals: measured.totals,
            instret: counted.instret,
        })
    }

    /// Runs every kernel in both variants (the paper's M = 2×|kernels|
    /// evaluation set).
    pub fn run_all(&self, kernels: &[Kernel]) -> Result<Vec<KernelResult>, NfpError> {
        let mut results = Vec::with_capacity(kernels.len() * 2);
        for kernel in kernels {
            for mode in Mode::BOTH {
                results.push(self.run_kernel(kernel, mode)?);
            }
        }
        Ok(results)
    }

    /// Like [`Evaluation::run_all`] but spread over
    /// `available_parallelism()` worker threads (at most one per
    /// variant), each variant on its own simulator instances.
    ///
    /// The sweep runs in two rounds. Round 1 counts every variant in
    /// plan order. Round 2 runs the testbed passes in descending
    /// counted `instret`, ties in plan order: the testbed pass costs
    /// about the same per instruction for every variant, so starting
    /// the longest first keeps the threads busy to the end. Results
    /// come back in plan order, byte-identical to [`Evaluation::run_all`],
    /// and on failure the error is the first one in plan order. A
    /// variant whose job panicked reports [`NfpError::WorkerLost`].
    pub fn run_all_parallel(&self, kernels: &[Kernel]) -> Result<Vec<KernelResult>, NfpError> {
        let jobs: Vec<(&Kernel, Mode)> = kernels
            .iter()
            .flat_map(|k| Mode::BOTH.map(|m| (k, m)))
            .collect();
        let names: Vec<String> = jobs.iter().map(|&(k, m)| variant_name(k, m)).collect();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(jobs.len().max(1));

        let counted = run_pool(&jobs, threads, |&(kernel, mode)| {
            count_variant(kernel, mode, &Paper)
        });
        let mut longest_first: Vec<(usize, &Counted)> = counted
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                Some(Ok(c)) => Some((i, c)),
                _ => None,
            })
            .collect();
        // Stable, so ties keep plan order.
        longest_first.sort_by_key(|&(_, c)| Reverse(c.instret));
        let measured = run_pool(&longest_first, threads, |&(i, counted)| {
            let (kernel, mode) = jobs[i];
            self.measure_variant(kernel, mode, counted, &self.calibration.model)
        });

        let mut slots: Vec<Option<Result<KernelResult, NfpError>>> =
            jobs.iter().map(|_| None).collect();
        for (&(i, _), result) in longest_first.iter().zip(measured) {
            slots[i] = result;
        }
        for (slot, c) in slots.iter_mut().zip(counted) {
            if let Some(Err(e)) = c {
                *slot = Some(Err(e));
            }
        }
        collect_parallel_slots(slots, &names)
    }
}

/// Runs `work` on every job across `threads` scoped threads, which take
/// the jobs in slice order, and returns each job's result in the job's
/// slot. A job that panics leaves its slot `None`, and its thread goes
/// on to the next job.
fn run_pool<J: Sync, T: Send>(
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

/// Drains the per-job result slots of [`Evaluation::run_all_parallel`]
/// in plan order. An empty slot (its job panicked, or its worker died)
/// reports [`NfpError::WorkerLost`] naming the kernel variant, so an
/// operator knows exactly which job to rerun.
fn collect_parallel_slots<T>(
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

    /// `count_classes` for `classifier` against a stepping
    /// `ClassCounter`, on a fresh machine each.
    fn assert_counts_match_observer<C: Classifier + Clone>(
        kernel: &Kernel,
        mode: Mode,
        classifier: C,
    ) {
        let name = variant_name(kernel, mode);
        let mut machine = machine_for(kernel, mode.float_mode()).unwrap();
        let (run, counts) = count_classes(&mut machine, &classifier, KERNEL_BUDGET).unwrap();
        assert!(
            machine.dispatch_stats().traced > 0,
            "{name}: counting stepped through an observer"
        );
        let mut machine = machine_for(kernel, mode.float_mode()).unwrap();
        let mut counter = nfp_core::ClassCounter::new(classifier);
        let observed = machine.run_observed(KERNEL_BUDGET, &mut counter).unwrap();
        assert_eq!(counts, counter.counts(), "{name}");
        assert_eq!(run.instret, observed.instret, "{name}");
        assert_eq!(run.words, kernel.expected_words, "{name}");
    }

    #[test]
    fn trace_speed_counts_equal_class_counter_counts() {
        let preset = Preset::quick();
        let hevc = nfp_workloads::hevc_kernels(&preset).expect("kernels");
        let fse = nfp_workloads::fse_kernels(&preset).expect("kernels");
        for kernel in [&hevc[0], &fse[0]] {
            for mode in Mode::BOTH {
                assert_counts_match_observer(kernel, mode, Paper);
                assert_counts_match_observer(kernel, mode, nfp_core::Coarse);
            }
        }
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
