//! The traced run: a span around every public call the benchmark makes
//! into a layer, and the per-layer metrics derived from those spans.
//!
//! Every traced run covers every layer, whichever workload it is named
//! after, so each run reports the same metric set: the estimate
//! pipeline on the seed's subset, then the campaign stack on the seed's
//! fault plan. The named workload decides only which operation the
//! tracing overhead is measured on.

use crate::trace::Tracer;
use crate::{campaign, estimate, metric, peak_rss_mb, runs_dir, Fail, Registry, Report};
use std::time::Instant;

/// Runs every layer under a recording tracer, writes the spans to
/// `pipebench/runs/<workload>.spans.jsonl` and returns the per-layer
/// metrics.
pub fn run(workload: &str, seed: u64) -> Result<Report, Fail> {
    let mut t = Tracer::new(format!("{workload}-{seed}"));
    let (registry, eval) = t.span("setup", estimate::setup)?;
    Registry::warm_programs()?;

    let kernels = estimate::subset(&registry, seed)?;
    let est = estimate::traced(&mut t, &eval, &kernels, seed)?;
    let kernel = campaign::kernel(registry)?;
    let cfg = campaign::plan(seed);
    let camp = campaign::traced(&mut t, &kernel, &cfg)?;

    // Tracing overhead: the workload's own operation once more with the
    // tracer off, against its span in the traced pass above.
    let mut off = Tracer::disabled();
    let (traced, untraced) = match workload {
        "estimate" => {
            let start = Instant::now();
            estimate::sweep(&eval, &kernels, None)?;
            let untraced = start.elapsed().as_secs_f64();
            (t.total("evaluation.run_all_parallel"), untraced)
        }
        "campaign" => {
            let sup = campaign::supervised(&mut off, &kernel, &cfg, &camp.report)?;
            (t.total("supervisor.run_supervised"), sup.wall)
        }
        _ => {
            let rep = campaign::remote_rep(&mut off, &kernel, &cfg, &camp.report)?;
            (t.total("serve.submit"), rep.submit)
        }
    };

    t.write_jsonl(&runs_dir()?.join(format!("{workload}.spans.jsonl")))?;
    println!("spans (count, total s, self s):");
    for (name, count, total, own) in t.summary() {
        println!("  {name:<32} {count:>4} {total:>12.6} {own:>12.6}");
    }

    let mean = |name: &str| t.total(name) / t.count(name).max(1) as f64;
    // Every variant runs once on each path, so each path retires the
    // subset's summed instruction count.
    let mips = |name: &str| est.instret as f64 / t.total(name) / 1e6;
    let traced_mips = mips("sim.run");
    let observed_mips = mips("sim.run_observed");
    let mut metrics = vec![
        metric("workloads.synth_s", t.total("workloads.synth"), "s"),
        metric(
            "workloads.machine_for_ms",
            mean("workloads.machine_for") * 1e3,
            "ms",
        ),
        metric("cc.compile_s", t.total("cc.compile"), "s"),
        metric(
            "calibration.calibrate_s",
            t.total("calibration.calibrate"),
            "s",
        ),
        metric("sim.traced_mips", traced_mips, "MIPS"),
        metric("sim.observed_mips", observed_mips, "MIPS"),
        metric("sim.headroom", traced_mips / observed_mips, "ratio"),
        metric("sim.traced_frac", est.traced_frac, "ratio"),
        metric("sim.stepped_frac", est.stepped_frac, "ratio"),
        metric("testbed.run_mips", mips("testbed.run"), "MIPS"),
        metric(
            "evaluation.run_kernel_s",
            t.total("evaluation.run_kernel"),
            "s",
        ),
        metric(
            "evaluation.parallel_eff",
            t.total("evaluation.run_kernel")
                / (est.threads as f64 * t.total("evaluation.run_all_parallel")),
            "ratio",
        ),
        metric("evaluation.time_err_pct", est.time_err_pct, "%"),
        metric("evaluation.energy_err_pct", est.energy_err_pct, "%"),
        metric("reports.render_ms", t.total("reports.render") * 1e3, "ms"),
    ];
    metrics.extend(campaign::layer_metrics(&camp));
    metrics.push(metric("trace.overhead", traced / untraced, "ratio"));
    metrics.push(metric("host.peak_rss_mb", peak_rss_mb()?, "MiB"));
    Ok(Report {
        attempted: (est.variants + cfg.injections) as u64,
        failed: camp.failed,
        metrics,
        // Exact counts: they repeat bit for bit for a given seed.
        extra: vec![
            metric("sim.instret", est.instret as f64, "count"),
            metric("testbed.cycles", est.cycles as f64, "count"),
            metric("campaign.masked", camp.outcomes[0] as f64, "count"),
            metric("campaign.sdc", camp.outcomes[1] as f64, "count"),
            metric("campaign.trap", camp.outcomes[2] as f64, "count"),
            metric("campaign.hang", camp.outcomes[3] as f64, "count"),
        ],
    })
}
