//! Pipeline benchmark: end-to-end and per-layer figures for the paper
//! pipeline (`estimate`) and the fault-campaign stack (`campaign`,
//! `campaign_remote`).
//!
//! ```text
//! pipebench --workload <estimate|campaign|campaign_remote|all> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the workload runs with tracing off for `--seconds`
//! (default [`RUN_SECONDS`], the `run_seconds` of `BENCHMARK.json`) and
//! the last stdout line is a JSON object with the end-to-end metrics.
//! With `--trace 1` the benchmark instead records a span around each
//! public call it makes into a layer, writes the spans to
//! `pipebench/runs/<workload>.spans.jsonl`, and reports the per-layer
//! metrics derived from them. `--workload all` runs the three
//! workloads one after another, each in its own process. Every output
//! check that fails makes the run exit nonzero. See `README.md` for the
//! metric definitions.

mod campaign;
mod estimate;
mod layers;
mod trace;

use nfp_cc::{compile, CompileOptions, FloatMode};
use nfp_core::NfpError;
use nfp_workloads::{fse_kernels, hevc_kernels, Kernel, Preset, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Seed used when `--seed` is absent; the report digest is pinned for it.
pub const DEFAULT_SEED: u64 = 1;

/// Measured seconds per untraced run when `--seconds` is absent.
pub const RUN_SECONDS: f64 = 20.0;

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["estimate", "campaign", "campaign_remote"];

/// Why a run stopped early.
#[derive(Debug)]
pub enum Fail {
    /// An output check failed: the program computed something wrong.
    Mismatch(String),
    /// The benchmark could not run the workload at all.
    Error(String),
}

impl From<NfpError> for Fail {
    fn from(e: NfpError) -> Self {
        match e {
            NfpError::OutputMismatch { .. } | NfpError::KernelFailed { .. } => {
                Fail::Mismatch(e.to_string())
            }
            other => Fail::Error(other.to_string()),
        }
    }
}

impl From<nfp_sim::SimError> for Fail {
    fn from(e: nfp_sim::SimError) -> Self {
        Fail::Error(e.to_string())
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Self {
        Fail::Error(e.to_string())
    }
}

/// Fails the run with an output mismatch unless `ok`.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), Fail> {
    if ok {
        Ok(())
    } else {
        Err(Fail::Mismatch(what()))
    }
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Figures for the JSON line.
    pub metrics: Vec<Metric>,
    /// Extra named figures printed only in the human-readable table.
    pub extra: Vec<Metric>,
}

/// The end-to-end figures of the JSON line, the same on every workload:
/// set-up time and operations (variants or injections) per second.
pub fn end_to_end(setup_s: f64, per_s: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_per_s", per_s, "1/s"),
    ]
}

/// The deterministic generator behind every seeded choice (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is tiny here, so modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host memory high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Fail::Error("no VmHWM line in /proc/self/status".to_string()))
}

/// Directory for journals and span files, inside the checkout.
pub fn runs_dir() -> Result<PathBuf, Fail> {
    let dir = PathBuf::from("pipebench/runs");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The quick registry, as every workload synthesises it.
pub struct Registry {
    pub hevc: Vec<Kernel>,
    pub fse: Vec<Kernel>,
}

impl Registry {
    /// Kernel synthesis plus a cold compile of the four workload
    /// programs: the set-up every workload pays.
    pub fn build(t: &mut Tracer) -> Result<Registry, Fail> {
        let preset = Preset::quick();
        let (hevc, fse) = t.span("workloads.synth", |_| {
            Ok::<_, NfpError>((hevc_kernels(&preset)?, fse_kernels(&preset)?))
        })?;
        t.span("cc.compile", |_| {
            for (workload, source) in [
                (Workload::Hevc, nfp_workloads::hevc::minic::decoder_source()),
                (Workload::Fse, nfp_workloads::fse::minic::fse_source()),
            ] {
                for mode in [FloatMode::Hard, FloatMode::Soft] {
                    compile(&source, &CompileOptions::new(mode))
                        .map_err(|e| Fail::Error(format!("compile {workload:?}/{mode:?}: {e}")))?;
                }
            }
            Ok::<_, Fail>(())
        })?;
        Ok(Registry { hevc, fse })
    }

    /// Fills the process-wide program cache that `machine_for` reads, so
    /// the first timed run does not pay a compile.
    pub fn warm_programs() -> Result<(), Fail> {
        for workload in [Workload::Hevc, Workload::Fse] {
            for mode in [FloatMode::Hard, FloatMode::Soft] {
                nfp_workloads::program(workload, mode)?;
            }
        }
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, Fail> {
    if args.trace {
        return layers::run(&args.workload, args.seed);
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    match args.workload.as_str() {
        "estimate" => estimate::measure(args.seed, seconds),
        "campaign" => campaign::measure_local(args.seed, seconds),
        _ => campaign::measure_remote(args.seed, seconds),
    }
}

/// Runs every workload in its own process (so each reports its own
/// peak memory), passing the other flags through.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pipebench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut passthrough: Vec<String> = std::env::args().skip(1).collect();
    let mut worst = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        if let Some(i) = passthrough.iter().position(|a| a == "--workload") {
            passthrough[i + 1] = workload.to_string();
        }
        match std::process::Command::new(&exe).args(&passthrough).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("pipebench: {workload} exited with {status}");
                worst = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("pipebench: cannot run {workload}: {e}");
                worst = ExitCode::FAILURE;
            }
        }
    }
    worst
}

fn print_report(args: &Args, report: &Report, correct: bool) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "pipebench {} seed {} ({mode}): attempted {}, failed {}, failed_frac {}",
        args.workload,
        args.seed,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Ok(rss) = peak_rss_mb() {
        println!("  {:<28} {:>16.6} MiB", "peak_rss_mb", rss);
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    match run(&args) {
        Ok(report) => {
            print_report(&args, &report, true);
            ExitCode::SUCCESS
        }
        Err(Fail::Mismatch(what)) => {
            eprintln!("pipebench: output check failed: {what}");
            ExitCode::FAILURE
        }
        Err(Fail::Error(what)) => {
            eprintln!("pipebench: {what}");
            ExitCode::from(2)
        }
    }
}
