//! Cross-crate integration tests: the full estimation pipeline from
//! calibration through workload simulation to error evaluation, at
//! reduced workload sizes.

use nfp_bench::{Evaluation, Mode};
use nfp_repro::core::ErrorSummary;
use nfp_repro::workloads::{fse_kernels, hevc_kernels, Preset};

/// One shared evaluation (calibration is the expensive part).
fn eval() -> &'static Evaluation {
    use std::sync::OnceLock;
    static EVAL: OnceLock<Evaluation> = OnceLock::new();
    EVAL.get_or_init(|| Evaluation::new().expect("calibration"))
}

#[test]
fn estimation_errors_are_in_the_papers_band() {
    let eval = eval();
    let preset = Preset::quick();
    // A representative slice: 4 HEVC + 2 FSE kernels, both variants.
    let mut kernels = Vec::new();
    let hevc = hevc_kernels(&preset).expect("kernels");
    kernels.extend(hevc.into_iter().step_by(9));
    kernels.extend(fse_kernels(&preset).expect("kernels").into_iter().take(2));
    let results = eval.run_all(&kernels).expect("pipeline");
    assert_eq!(results.len(), kernels.len() * 2);

    let t = ErrorSummary::from_errors(&results.iter().map(|r| r.time_error()).collect::<Vec<_>>())
        .expect("non-empty kernel set");
    let e =
        ErrorSummary::from_errors(&results.iter().map(|r| r.energy_error()).collect::<Vec<_>>())
            .expect("non-empty kernel set");
    // The paper reports ~2.7 % mean and <7 % max; allow headroom but
    // fail if the model drifts out of the regime.
    assert!(
        t.mean_abs < 0.06,
        "mean |time error| = {:.2}%",
        t.mean_abs * 100.0
    );
    assert!(
        e.mean_abs < 0.06,
        "mean |energy error| = {:.2}%",
        e.mean_abs * 100.0
    );
    assert!(
        t.max_abs < 0.12,
        "max |time error| = {:.2}%",
        t.max_abs * 100.0
    );
    assert!(
        e.max_abs < 0.12,
        "max |energy error| = {:.2}%",
        e.max_abs * 100.0
    );
}

#[test]
fn fpu_tradeoff_has_the_papers_shape() {
    let eval = eval();
    let preset = Preset::quick();
    let fse = &fse_kernels(&preset).expect("kernels")[0];
    let hevc = &hevc_kernels(&preset).expect("kernels")[4];

    let run = |k, m| eval.run_kernel(k, m).expect("run");
    let fse_float = run(fse, Mode::Float);
    let fse_fixed = run(fse, Mode::Fixed);
    let hevc_float = run(hevc, Mode::Float);
    let hevc_fixed = run(hevc, Mode::Fixed);

    // FSE: the FPU should save the vast majority of time and energy.
    let fse_saving = 1.0 - fse_float.measured.time_s / fse_fixed.measured.time_s;
    assert!(
        fse_saving > 0.80,
        "FSE time saving {:.1}% (paper: 92.8%)",
        fse_saving * 100.0
    );
    // HEVC: a clear but much smaller saving.
    let hevc_saving = 1.0 - hevc_float.measured.time_s / hevc_fixed.measured.time_s;
    assert!(
        (0.15..0.60).contains(&hevc_saving),
        "HEVC time saving {:.1}% (paper: 43.5%)",
        hevc_saving * 100.0
    );
    assert!(fse_saving > hevc_saving + 0.2, "FSE must benefit far more");
}

#[test]
fn estimates_track_counts_not_measurements() {
    // The estimator must be a pure function of the count vector: two
    // kernels with identical counts get identical estimates even
    // though measurement noise differs.
    let eval = eval();
    let preset = Preset::quick();
    let kernel = &hevc_kernels(&preset).expect("kernels")[0];
    let a = eval.run_kernel(kernel, Mode::Float).expect("run");
    let b = eval.run_kernel(kernel, Mode::Float).expect("run");
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.estimate, b.estimate);
    // Same seed -> same measurement too (full determinism).
    assert_eq!(a.measured, b.measured);
}

#[test]
fn umbrella_crate_reexports_work_together() {
    // Compile with nfp_repro paths only (the public API surface).
    let program = nfp_repro::cc::compile(
        "int main() { return 7; }",
        &nfp_repro::cc::CompileOptions::new(nfp_repro::cc::FloatMode::Hard),
    )
    .unwrap();
    let mut machine = nfp_repro::sim::Machine::boot(&program.words);
    let result = machine.run(10_000).unwrap();
    assert_eq!(result.exit_code, 7);
    assert_eq!(
        nfp_repro::sparc::Category::ALL.len(),
        nfp_repro::sparc::CATEGORY_COUNT
    );
}

#[test]
fn parallel_sweep_matches_sequential() {
    let eval = eval();
    let preset = Preset::quick();
    // The parallel sweep runs its testbed passes longest first. The FSE
    // soft-float variant is the longest and comes last in plan order,
    // so the two orders differ and results must still land in plan
    // order.
    let mut kernels: Vec<_> = hevc_kernels(&preset)
        .expect("kernels")
        .into_iter()
        .take(2)
        .collect();
    kernels.extend(fse_kernels(&preset).expect("kernels").into_iter().take(1));
    let seq = eval.run_all(&kernels).expect("sequential");
    let par = eval.run_all_parallel(&kernels).expect("parallel");
    let longest = seq.iter().max_by_key(|r| r.instret).expect("results");
    assert_eq!(longest.name, seq.last().expect("results").name);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.instret, b.instret);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.totals, b.totals);
    }
}
