//! The `estimate` workload: the paper pipeline (`Evaluation`) over a
//! seeded, stratified subset of the quick registry.
//!
//! The subset keeps its strata fixed — one HEVC kernel for each of the
//! 4 encoder configurations × 3 QPs (the seed picks the input
//! sequence), plus [`FSE_PICKS`] FSE images picked by the seed — and
//! every kernel runs in both `Float` and `Fixed` variants.

use crate::trace::Tracer;
use crate::{
    check, end_to_end, median, metric, Fail, Registry, Report, Rng, DEFAULT_SEED, SETUP_REPS,
};
use nfp_bench::{report_table3, report_table4, Evaluation, KernelResult, Mode};
use nfp_core::{ClassCounter, Paper};
use nfp_workloads::{fnv1a, machine_for, Kernel, KERNEL_BUDGET};
use std::time::{Duration, Instant};

/// FSE images in the subset.
pub const FSE_PICKS: usize = 3;

/// FNV-1a of the Table III + Table IV text for [`DEFAULT_SEED`].
const REPORT_DIGEST: u32 = 0xea85_e361;

/// Synthesis, cold compile and calibration: the `estimate` set-up.
pub fn setup(t: &mut Tracer) -> Result<(Registry, Evaluation), Fail> {
    let registry = Registry::build(t)?;
    let eval = t.span("calibration.calibrate", |_| Evaluation::new())?;
    Ok((registry, eval))
}

/// The seed's stratified subset, in registry order (HEVC, then FSE).
pub fn subset(registry: &Registry, seed: u64) -> Result<Vec<Kernel>, Fail> {
    // `hevc_kernels` nests scene → config → QP: 3 × 4 × 3.
    const SCENES: usize = 3;
    const STRATA: usize = 12;
    if registry.hevc.len() != SCENES * STRATA || registry.fse.len() < FSE_PICKS {
        return Err(Fail::Error(format!(
            "unexpected registry shape: {} HEVC, {} FSE kernels",
            registry.hevc.len(),
            registry.fse.len()
        )));
    }
    let mut rng = Rng::new(seed ^ 0xe571_3a7e);
    let mut picked: Vec<Kernel> = (0..STRATA)
        .map(|stratum| registry.hevc[rng.below(SCENES) * STRATA + stratum].clone())
        .collect();
    let mut images: Vec<usize> = (0..registry.fse.len()).collect();
    for i in 0..FSE_PICKS {
        let j = i + rng.below(images.len() - i);
        images.swap(i, j);
    }
    let mut chosen = images[..FSE_PICKS].to_vec();
    chosen.sort_unstable();
    picked.extend(chosen.into_iter().map(|i| registry.fse[i].clone()));
    Ok(picked)
}

/// Checks one sweep's results: Σ counts = instret for every variant,
/// hardware totals saw the same instructions, and (when given) every
/// exact figure repeats the reference sweep.
fn check_results(results: &[KernelResult], reference: Option<&[KernelResult]>) -> Result<(), Fail> {
    for r in results {
        check(r.counts.iter().sum::<u64>() == r.instret, || {
            format!("{}: Σ counts != instret {}", r.name, r.instret)
        })?;
        check(r.totals.instret == r.instret, || {
            format!(
                "{}: testbed saw {} instructions, ISS {}",
                r.name, r.totals.instret, r.instret
            )
        })?;
    }
    if let Some(reference) = reference {
        check(results.len() == reference.len(), || {
            "sweep size changed".to_string()
        })?;
        for (r, x) in results.iter().zip(reference) {
            check(
                r.name == x.name
                    && r.counts == x.counts
                    && r.totals == x.totals
                    && r.estimate == x.estimate
                    && r.measured == x.measured,
                || format!("{}: result differs between sweeps", r.name),
            )?;
        }
    }
    Ok(())
}

/// Renders Tables III and IV and, for the default seed, checks their
/// digest against the pinned one.
pub fn render_and_check(t: &mut Tracer, results: &[KernelResult], seed: u64) -> Result<(), Fail> {
    let text = t.span("reports.render", |_| {
        report_table3(results) + &report_table4(results)
    });
    let digest = fnv1a(text.as_bytes());
    if seed == DEFAULT_SEED {
        check(digest == REPORT_DIGEST, || {
            format!("Table III/IV digest {digest:#010x}, pinned {REPORT_DIGEST:#010x}:\n{text}")
        })?;
    }
    Ok(())
}

/// Mean absolute Eq. 3 time and energy errors, in percent.
pub fn errors_pct(results: &[KernelResult]) -> (f64, f64) {
    let n = results.len() as f64;
    let time = results.iter().map(|r| r.time_error().abs()).sum::<f64>() / n;
    let energy = results.iter().map(|r| r.energy_error().abs()).sum::<f64>() / n;
    (time * 100.0, energy * 100.0)
}

/// Threads `run_all_parallel` uses for `jobs` variants.
pub fn sweep_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.max(1))
}

/// One timed sweep. `Ok(None)` is a sweep that failed without an
/// output mismatch (counted, not fatal).
pub fn sweep(
    eval: &Evaluation,
    kernels: &[Kernel],
    reference: Option<&[KernelResult]>,
) -> Result<(f64, Option<Vec<KernelResult>>), Fail> {
    let start = Instant::now();
    let outcome = eval.run_all_parallel(kernels);
    let wall = start.elapsed().as_secs_f64();
    match outcome {
        Ok(results) => {
            check_results(&results, reference)?;
            Ok((wall, Some(results)))
        }
        Err(e) => match Fail::from(e) {
            Fail::Error(what) => {
                eprintln!("pipebench: sweep failed: {what}");
                Ok((wall, None))
            }
            mismatch => Err(mismatch),
        },
    }
}

/// The untraced `estimate` run.
pub fn measure(seed: u64, seconds: Duration) -> Result<Report, Fail> {
    let mut off = Tracer::disabled();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = setup(&mut off)?;
        setups.push(start.elapsed().as_secs_f64());
        state = Some(built);
    }
    let (registry, eval) = state.expect("SETUP_REPS > 0");
    let kernels = subset(&registry, seed)?;
    Registry::warm_programs()?;
    let variants = (kernels.len() * Mode::BOTH.len()) as u64;

    let mut walls = Vec::new();
    let mut reference: Option<Vec<KernelResult>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < seconds {
        let (wall, results) = sweep(&eval, &kernels, reference.as_deref())?;
        attempted += variants;
        match results {
            Some(results) => {
                walls.push(wall);
                reference.get_or_insert(results);
            }
            None => failed += variants,
        }
    }
    let results = reference.ok_or_else(|| Fail::Error("every sweep failed".to_string()))?;
    render_and_check(&mut off, &results, seed)?;
    let (time_err, energy_err) = errors_pct(&results);
    let per_s = variants as f64 / median(&walls);
    Ok(Report {
        attempted,
        failed,
        metrics: end_to_end(median(&setups), per_s),
        extra: vec![
            metric("variants_per_s", per_s, "1/s"),
            metric("time_err_pct", time_err, "%"),
            metric("energy_err_pct", energy_err, "%"),
            metric("sweeps", walls.len() as f64, "count"),
        ],
    })
}

/// What the traced `estimate` section measured.
pub struct Traced {
    pub variants: usize,
    pub threads: usize,
    pub instret: u64,
    pub cycles: u64,
    pub traced_frac: f64,
    pub stepped_frac: f64,
    pub time_err_pct: f64,
    pub energy_err_pct: f64,
}

/// The traced `estimate` section: one parallel sweep under a span, then
/// a sequential pass per variant with a span around each layer call.
/// The pass cross-checks the layers against `run_kernel`: the traced
/// `Machine::run` and the observed `ClassCounter` count exactly what it
/// counted, and `Testbed::run` measures exactly what it measured.
pub fn traced(
    t: &mut Tracer,
    eval: &Evaluation,
    kernels: &[Kernel],
    seed: u64,
) -> Result<Traced, Fail> {
    let parallel = t.span("evaluation.run_all_parallel", |_| {
        eval.run_all_parallel(kernels)
    })?;
    check_results(&parallel, None)?;
    let mut dispatch = nfp_sim::DispatchStats::default();
    let mut sequential = Vec::with_capacity(parallel.len());
    t.span("evaluation.sequential_pass", |t| {
        for kernel in kernels {
            for mode in Mode::BOTH {
                let name = format!("{}_{}", kernel.name, mode.suffix());
                let r = t.span_detail("variant", name.clone(), |t| {
                    variant(t, eval, kernel, mode, &mut dispatch)
                })?;
                sequential.push(r);
            }
        }
        Ok::<_, Fail>(())
    })?;
    check_results(&sequential, Some(&parallel))?;
    render_and_check(t, &parallel, seed)?;
    let (time_err_pct, energy_err_pct) = errors_pct(&parallel);
    let retired = (dispatch.traced + dispatch.batched + dispatch.stepped).max(1) as f64;
    Ok(Traced {
        variants: parallel.len(),
        threads: sweep_threads(parallel.len()),
        instret: parallel.iter().map(|r| r.instret).sum(),
        cycles: parallel.iter().map(|r| r.totals.cycles).sum(),
        traced_frac: dispatch.traced as f64 / retired,
        stepped_frac: dispatch.stepped as f64 / retired,
        time_err_pct,
        energy_err_pct,
    })
}

fn variant(
    t: &mut Tracer,
    eval: &Evaluation,
    kernel: &Kernel,
    mode: Mode,
    dispatch: &mut nfp_sim::DispatchStats,
) -> Result<KernelResult, Fail> {
    let r = t.span("evaluation.run_kernel", |_| eval.run_kernel(kernel, mode))?;
    let float = mode.float_mode();

    let mut machine = t.span("workloads.machine_for", |_| machine_for(kernel, float))?;
    let run = t.span("sim.run", |_| machine.run(KERNEL_BUDGET))?;
    let stats = machine.dispatch_stats();
    dispatch.traced += stats.traced;
    dispatch.batched += stats.batched;
    dispatch.stepped += stats.stepped;
    let counts: Vec<u64> = run.counts.iter().map(|(_, n)| n).collect();
    check(run.instret == r.instret && counts == r.counts, || {
        format!(
            "{}: traced Machine::run counts differ from run_kernel's",
            r.name
        )
    })?;
    check(run.words == kernel.expected_words, || {
        format!("{}: traced Machine::run emitted wrong words", r.name)
    })?;

    let mut machine = t.span("workloads.machine_for", |_| machine_for(kernel, float))?;
    let mut counter = ClassCounter::new(Paper);
    let observed = t.span("sim.run_observed", |_| {
        machine.run_observed(KERNEL_BUDGET, &mut counter)
    })?;
    check(
        observed.instret == r.instret && counter.counts() == r.counts.as_slice(),
        || format!("{}: ClassCounter counts differ from run_kernel's", r.name),
    )?;

    let mut machine = t.span("workloads.machine_for", |_| machine_for(kernel, float))?;
    let measured = t.span("testbed.run", |_| {
        eval.testbed.run(&mut machine, kernel.seed, KERNEL_BUDGET)
    })?;
    check(
        measured.totals == r.totals && measured.measurement == r.measured,
        || format!("{}: Testbed::run totals differ from run_kernel's", r.name),
    )?;
    Ok(r)
}
