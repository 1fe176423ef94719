//! Renders every table and figure of the paper as text, side by side
//! with the paper's published numbers where applicable.

use crate::evaluation::{Evaluation, KernelResult, Mode, CALIBRATION_SEED};
use nfp_core::{
    calibrate, calibrate_class, count_classes, paper_table1, Classifier, Coarse, CostModel,
    ErrorSummary, Fine, NfpError, Paper,
};
use nfp_sim::MachineConfig;
use nfp_testbed::{AreaModel, Testbed};
use nfp_workloads::{machine_for, Kernel, KERNEL_BUDGET};
use std::fmt::Write;

/// Table I: calibrated specific times and energies vs the paper's,
/// with the automated consistency check (paper §V) appended.
pub fn report_table1(eval: &Evaluation) -> String {
    let paper = paper_table1();
    let mut out = String::new();
    writeln!(out, "TABLE I — instruction categories and specific costs").unwrap();
    writeln!(
        out,
        "{:<22} {:>10} {:>10}   {:>10} {:>10}",
        "Category", "t_c [ns]", "paper", "e_c [nJ]", "paper"
    )
    .unwrap();
    for (i, detail) in eval.calibration.details.iter().enumerate() {
        writeln!(
            out,
            "{:<22} {:>10.1} {:>10.0}   {:>10.1} {:>10.0}",
            detail.class,
            eval.calibration.model.time_s[i] * 1e9,
            paper.time_s[i] * 1e9,
            eval.calibration.model.energy_j[i] * 1e9,
            paper.energy_j[i] * 1e9,
        )
        .unwrap();
    }
    let findings = nfp_core::check_structure(&eval.calibration);
    match nfp_core::validate(&eval.testbed, &eval.calibration, 0.10) {
        Ok((validation, warnings)) => {
            writeln!(
                out,
                "
consistency: {} structural finding(s); mixed-kernel residuals time {:+.2}%, energy {:+.2}%",
                findings.len(),
                validation.time_residual * 100.0,
                validation.energy_residual * 100.0
            )
            .unwrap();
            for f in findings.iter().chain(&warnings) {
                writeln!(out, "  {f}").unwrap();
            }
        }
        Err(e) => writeln!(
            out,
            "
consistency validation failed: {e}"
        )
        .unwrap(),
    }
    out
}

/// Fig. 4: measured vs estimated energy and time for showcase kernels
/// (FSE float/fixed and HEVC float/fixed, like the paper's bars).
pub fn report_fig4(results: &[KernelResult]) -> String {
    let mut out = String::new();
    writeln!(out, "FIG. 4 — measurement vs estimation, showcase kernels").unwrap();
    writeln!(
        out,
        "{:<34} {:>11} {:>11} {:>8}   {:>9} {:>9} {:>8}",
        "Kernel", "E_meas[mJ]", "E_est[mJ]", "err", "T_meas[s]", "T_est[s]", "err"
    )
    .unwrap();
    for r in results {
        writeln!(
            out,
            "{:<34} {:>11.2} {:>11.2} {:>7.2}%   {:>9.3} {:>9.3} {:>7.2}%",
            r.name,
            r.measured.energy_j * 1e3,
            r.estimate.energy_j * 1e3,
            r.energy_error() * 100.0,
            r.measured.time_s,
            r.estimate.time_s,
            r.time_error() * 100.0,
        )
        .unwrap();
    }
    out
}

/// Table III: mean and maximum absolute estimation errors.
pub fn report_table3(results: &[KernelResult]) -> String {
    let e_summary =
        ErrorSummary::from_errors(&results.iter().map(|r| r.energy_error()).collect::<Vec<_>>());
    let t_summary =
        ErrorSummary::from_errors(&results.iter().map(|r| r.time_error()).collect::<Vec<_>>());
    let (Some(e_summary), Some(t_summary)) = (e_summary, t_summary) else {
        return "TABLE III — no kernel results to summarise\n".to_string();
    };
    let mut out = String::new();
    writeln!(
        out,
        "TABLE III — estimation errors over M = {} kernels",
        results.len()
    )
    .unwrap();
    writeln!(out, "{:<28} {:>10} {:>10}", "", "Energy", "Time").unwrap();
    writeln!(
        out,
        "{:<28} {:>9.2}% {:>9.2}%   (paper: 2.68% / 2.72%)",
        "Mean absolute error",
        e_summary.mean_abs * 100.0,
        t_summary.mean_abs * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>9.2}% {:>9.2}%   (paper: 6.32% / 6.95%)",
        "Maximum absolute error",
        e_summary.max_abs * 100.0,
        t_summary.max_abs * 100.0
    )
    .unwrap();
    out
}

/// Table IV: non-functional property changes when introducing an FPU.
pub fn report_table4(results: &[KernelResult]) -> String {
    let tradeoff_for = |prefix: &str| {
        let mut without = Vec::new();
        let mut with = Vec::new();
        for r in results {
            if !r.base_name.starts_with(prefix) {
                continue;
            }
            let nfp = nfp_core::KernelNfp {
                time_s: r.measured.time_s,
                energy_j: r.measured.energy_j,
            };
            match r.mode {
                Mode::Fixed => without.push((r.base_name.clone(), nfp)),
                Mode::Float => with.push((r.base_name.clone(), nfp)),
            }
        }
        without.sort_by(|a, b| a.0.cmp(&b.0));
        with.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            without.iter().map(|p| &p.0).collect::<Vec<_>>(),
            with.iter().map(|p| &p.0).collect::<Vec<_>>(),
            "paired kernel sets"
        );
        nfp_core::fpu_tradeoff(
            &without.into_iter().map(|p| p.1).collect::<Vec<_>>(),
            &with.into_iter().map(|p| p.1).collect::<Vec<_>>(),
        )
    };
    let fse = tradeoff_for("fse");
    let hevc = tradeoff_for("hevc");
    let base_le = AreaModel::baseline().logical_elements();
    let fpu_le = AreaModel::with_fpu().logical_elements();
    let mut out = String::new();
    writeln!(out, "TABLE IV — change when introducing an FPU").unwrap();
    writeln!(out, "{:<22} {:>12} {:>16}", "", "FSE", "HEVC Decoding").unwrap();
    writeln!(
        out,
        "{:<22} {:>11.1}% {:>15.1}%   (paper: -92.6% / -42.9%)",
        "Energy consumption",
        fse.energy_change * 100.0,
        hevc.energy_change * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<22} {:>11.1}% {:>15.1}%   (paper: -92.8% / -43.5%)",
        "Processing time",
        fse.time_change * 100.0,
        hevc.time_change * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<22} {:>11.1}% {:>15.1}%   (paper: +109% / +109%; {} -> {} LEs)",
        "# logical elements",
        fse.area_change * 100.0,
        hevc.area_change * 100.0,
        base_le,
        fpu_le,
    )
    .unwrap();
    out
}

/// Rounds over which [`report_fig1`] times each layer.
const FIG1_ROUNDS: usize = 5;

/// Fig. 1: simulation speed vs non-functional-property accuracy for
/// three simulator classes run on the same kernel: the detailed
/// hardware model ("CAS-like", defines ground truth: the pipeline's own
/// testbed pass, [`Testbed::run`]), the ISS with the mechanistic model
/// (this paper: a traced run counting Table I categories,
/// [`count_classes`] with [`Paper`]), and the bare ISS
/// (functional only). The three layers run back to back in each of
/// five rounds, so drift in the host's speed hits all of them alike,
/// and each reports its median speed. Timing the layers is the figure;
/// the mechanistic layer's NFP error is that of `result`, the sweep's
/// result for `kernel`'s float variant.
pub fn report_fig1(
    eval: &Evaluation,
    kernel: &Kernel,
    result: &KernelResult,
) -> Result<String, NfpError> {
    let mode = Mode::Float;
    let run_timed = |count: bool, detailed: bool| -> Result<f64, NfpError> {
        let mut machine = machine_for(kernel, mode.float_mode())?;
        if !count {
            machine = {
                let program = nfp_workloads::program(kernel.workload, mode.float_mode())?;
                let mut m = nfp_sim::Machine::new(MachineConfig {
                    count_categories: false,
                    ..MachineConfig::default()
                });
                m.load_image(program.base, &program.words)?;
                m.bus
                    .write_bytes(nfp_workloads::INPUT_BASE, &kernel.input)
                    .map_err(nfp_sim::SimError::from)?;
                m
            };
        }
        let start = std::time::Instant::now();
        let instret = if detailed {
            let measured = eval.testbed.run(&mut machine, kernel.seed, KERNEL_BUDGET)?;
            measured.run.instret
        } else if count {
            count_classes(&mut machine, &Paper, KERNEL_BUDGET)?
                .0
                .instret
        } else {
            machine.run(KERNEL_BUDGET)?.instret
        };
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        Ok(instret as f64 / dt)
    };

    let model_err = result.time_error().abs().max(result.energy_error().abs());

    // (name, NFP error, count, detailed) per layer, in the figure's
    // order.
    let layers = [
        ("detailed HW model (CAS-like)", Some(0.0), true, true),
        ("ISS + mechanistic model", Some(model_err), true, false),
        ("bare ISS (functional only)", None, false, false),
    ];
    let mut samples = layers.map(|_| Vec::with_capacity(FIG1_ROUNDS));
    for _ in 0..FIG1_ROUNDS {
        for (speeds, &(_, _, count, detailed)) in samples.iter_mut().zip(&layers) {
            speeds.push(run_timed(count, detailed)?);
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "FIG. 1 — simulation speed vs NFP accuracy ({})",
        kernel.name
    )
    .unwrap();
    writeln!(
        out,
        "{:<32} {:>14} {:>18}",
        "Simulator", "speed [MIPS]", "NFP error"
    )
    .unwrap();
    for ((name, accuracy, ..), mut speeds) in layers.into_iter().zip(samples) {
        speeds.sort_by(f64::total_cmp);
        let mips = speeds[FIG1_ROUNDS / 2];
        let acc = match accuracy {
            Some(e) => format!("{:.2}%", e * 100.0),
            None => "n/a (no NFP)".to_string(),
        };
        writeln!(out, "{:<32} {:>14.1} {:>18}", name, mips / 1e6, acc).unwrap();
    }
    Ok(out)
}

/// Mean absolute energy and time errors of `results`; `what` names the
/// set in the error when it is empty.
fn mean_abs_errors(results: &[KernelResult], what: &'static str) -> Result<(f64, f64), NfpError> {
    let mean_abs = |error: fn(&KernelResult) -> f64| {
        let errors: Vec<f64> = results.iter().map(error).collect();
        ErrorSummary::from_errors(&errors)
            .map(|s| s.mean_abs)
            .ok_or(NfpError::Empty { what })
    };
    Ok((
        mean_abs(KernelResult::energy_error)?,
        mean_abs(KernelResult::time_error)?,
    ))
}

/// Ablation E6: estimation error as a function of category
/// granularity (1 class / the paper's 9 / 11 with mul+div split).
///
/// `results` are the sweep's results, and every row prices their
/// measurements. Each row folds the sweep's Table I counts, with the
/// multiplies and divides the testbed counted, into its classifier's
/// classes ([`Classifier::fold`]), so the paper's row is the sweep's
/// own estimate under `eval.calibration`. No row simulates a variant
/// again, and the fine model reuses `eval.calibration`'s nine rows, so
/// only its integer multiply and divide classes are calibrated here.
pub fn report_ablation_categories(
    eval: &Evaluation,
    results: &[KernelResult],
) -> Result<String, NfpError> {
    /// A row: every result's counts folded into `classifier`'s classes
    /// and priced by `model`, which has a row per class.
    fn row(
        name: &str,
        model: &CostModel,
        classifier: &impl Classifier,
        results: &[KernelResult],
    ) -> Result<String, NfpError> {
        let priced: Vec<KernelResult> = results
            .iter()
            .map(|r| {
                let counts = classifier.folded(&r.counts, r.totals.int_mul, r.totals.int_div);
                KernelResult {
                    estimate: model.estimate(&counts),
                    ..r.clone()
                }
            })
            .collect();
        let (energy, time) = mean_abs_errors(&priced, "ablation kernel errors")?;
        let classes = model.time_s.len();
        Ok(format!(
            "{name:<28} {classes:>8} {:>9.2}% {:>9.2}%\n",
            energy * 100.0,
            time * 100.0
        ))
    }
    let mut out = String::new();
    writeln!(
        out,
        "ABLATION — model granularity (mean |error| over kernels)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>8} {:>10} {:>10}",
        "Model", "classes", "energy", "time"
    )
    .unwrap();
    let coarse = calibrate(&eval.testbed, &Coarse, CALIBRATION_SEED)?.model;
    out += &row("single class (coarse)", &coarse, &Coarse, results)?;
    let paper = &eval.calibration.model;
    out += &row("Table I categories (paper)", paper, &Paper, results)?;
    let fine = eval
        .calibration
        .extended(&eval.testbed, &Fine, CALIBRATION_SEED)?
        .model;
    out += &row("+ int mul/div split (fine)", &fine, &Fine, results)?;
    Ok(out)
}

/// Ablation E7: calibration sensitivity — derived specific time of the
/// integer-arithmetic class as a function of calibration loop length,
/// and of the power-meter noise level.
pub fn report_ablation_calibration(testbed: &Testbed) -> Result<String, NfpError> {
    let mut out = String::new();
    writeln!(
        out,
        "ABLATION — calibration sensitivity (Integer Arithmetic)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<26} {:>12} {:>12}",
        "Loop iterations", "t_c [ns]", "e_c [nJ]"
    )
    .unwrap();
    for iters in [1_000u32, 10_000, 100_000, 400_000] {
        let cal = calibrate_class(testbed, "Integer Arithmetic", iters, 5)?;
        writeln!(
            out,
            "{:<26} {:>12.2} {:>12.2}",
            iters,
            cal.time_s * 1e9,
            cal.energy_j * 1e9
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<26} {:>12} {:>12}",
        "Meter noise sigma", "t_c [ns]", "e_c [nJ]"
    )
    .unwrap();
    for sigma in [0.0, 0.02, 0.10, 0.30] {
        let mut tb = testbed.clone();
        tb.meter.sample_sigma = sigma;
        let cal = calibrate_class(&tb, "Integer Arithmetic", 200_000, 6)?;
        writeln!(
            out,
            "{:<26} {:>12.2} {:>12.2}",
            format!("{sigma:.2}"),
            cal.time_s * 1e9,
            cal.energy_j * 1e9
        )
        .unwrap();
    }
    Ok(out)
}

/// Extension E8: what happens to the constant-cost model when the core
/// gains a data cache (the paper's stated future work). `cacheless` and
/// `cached` are the sweep's results for the same variants on the
/// paper's cacheless board and on a board with a data cache, each
/// estimated with its own board's calibration. With the cache,
/// per-access memory cost becomes history-dependent and the Eq. 1
/// assumption breaks down visibly.
pub fn report_cache_extension(
    cacheless: &[KernelResult],
    cached: &[KernelResult],
) -> Result<String, NfpError> {
    let mut out = String::new();
    writeln!(
        out,
        "EXTENSION E8 — cache vs the constant-cost model (mean |error|)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<30} {:>10} {:>10}",
        "Board configuration", "energy", "time"
    )
    .unwrap();
    for (name, results) in [
        ("cacheless (paper's config)", cacheless),
        ("with 4 KiB D-cache", cached),
    ] {
        let (energy, time) = mean_abs_errors(results, "cache-extension kernel errors")?;
        writeln!(
            out,
            "{:<30} {:>9.2}% {:>9.2}%",
            name,
            energy * 100.0,
            time * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nWith a cache, calibration loops always hit while real workloads mix\n\
         hits and misses: a single t_c(Memory Load) can no longer represent\n\
         both, which is exactly why the paper's first model targets a\n\
         cacheless core and defers caches to future work."
    )
    .unwrap();
    Ok(out)
}

/// Machinery counters from a supervised or sharded campaign, rendered
/// by [`report_campaign_footer`]. `repro campaign` prints the footer
/// to **stderr** after the stdout report so that reports stay
/// byte-identical across isolation and sharding configurations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignFooter {
    /// Worker processes a supervisor SIGKILLed (deadline or
    /// heartbeat-silence).
    pub kills: usize,
    /// Worker processes respawned after a kill, death, or failed
    /// handshake.
    pub respawns: usize,
    /// Shard count the campaign ran with (0 or 1: not sharded).
    pub shards: u32,
    /// Shard attempts re-dispatched after a lost worker, torn tail,
    /// or checksum failure.
    pub shard_retries: usize,
    /// Straggling shards speculatively duplicated.
    pub speculated: usize,
    /// Injection ranges absent from the merged result (non-empty only
    /// for `--allow-partial` runs).
    pub missing_ranges: Vec<(u64, u64)>,
    /// Worker reconnections the coordinator observed during a remote
    /// campaign (joins carrying a nonzero reconnect ordinal).
    pub reconnects: usize,
    /// Shard leases revoked from silent or overrunning remote peers.
    pub leases_revoked: usize,
    /// Frames rejected as corrupt, out-of-protocol, or checksum-failed.
    pub frames_rejected: usize,
    /// Remote peers retired after a violation, silence, or death.
    pub peers_retired: usize,
    /// Injection ranges sampled for a quorum audit (re-dispatched to a
    /// disjoint worker and compared stream against stream).
    pub ranges_audited: usize,
    /// Audit comparisons that agreed — either two disjoint workers
    /// matched, or a held-back stream matched the local truth.
    pub audits_passed: usize,
    /// Workers convicted of returning falsified records by the trusted
    /// local tie-breaker, and blacklisted.
    pub workers_convicted: usize,
    /// Previously-accepted ranges invalidated and re-dispatched because
    /// their producer was later convicted.
    pub ranges_invalidated: usize,
    /// Golden-run dispatch-path counters, when the campaign rig is in
    /// hand (remote campaigns and future local plumbing).
    pub dispatch: Option<nfp_sim::DispatchStats>,
    /// Result-cache hits over the coordinator's lifetime so far
    /// (coordinator-served campaigns only; zero elsewhere).
    pub cache_hits: usize,
    /// Result-cache misses over the coordinator's lifetime so far.
    pub cache_misses: usize,
    /// Identical in-flight submissions deduplicated into one live
    /// campaign instead of being re-simulated.
    pub submits_deduped: usize,
    /// Clients that re-attached to a journal-resumed campaign.
    pub sessions_resumed: usize,
    /// Times the coordinator restarted over its service journal.
    pub restarts: usize,
}

impl CampaignFooter {
    /// Counters of a plain supervised (unsharded) run.
    pub fn from_supervisor(outcome: &crate::supervisor::SupervisorOutcome) -> Self {
        CampaignFooter {
            kills: outcome.kills,
            respawns: outcome.respawns,
            dispatch: Some(outcome.dispatch),
            ..CampaignFooter::default()
        }
    }

    /// Counters of a sharded orchestrator run.
    pub fn from_sharded(outcome: &crate::shards::ShardOutcome) -> Self {
        CampaignFooter {
            kills: outcome.kills,
            respawns: outcome.respawns,
            shards: outcome.shards,
            shard_retries: outcome.shard_retries,
            speculated: outcome.speculated,
            missing_ranges: outcome.missing_ranges.clone(),
            dispatch: Some(outcome.dispatch),
            ..CampaignFooter::default()
        }
    }

    /// Counters of an offline `merge-journals` pass.
    pub fn from_merge(outcome: &crate::shards::MergeOutcome) -> Self {
        CampaignFooter {
            shards: outcome.shards,
            missing_ranges: outcome.missing_ranges.clone(),
            dispatch: Some(outcome.dispatch),
            ..CampaignFooter::default()
        }
    }
}

/// Renders the indented machinery footer. Empty when there is nothing
/// to report (no kills, no shards, no gaps), so callers can print the
/// result unconditionally.
///
/// The `worker pool:` line keeps its historical wording — CI greps
/// `worker pool: N SIGKILLed, M respawned` to prove the chaos jobs
/// actually exercised the kill path.
pub fn report_campaign_footer(footer: &CampaignFooter) -> String {
    let mut out = String::new();
    if footer.kills > 0 || footer.respawns > 0 {
        writeln!(
            out,
            "  worker pool: {} SIGKILLed, {} respawned",
            footer.kills, footer.respawns
        )
        .unwrap();
    }
    if footer.shards > 1 {
        writeln!(
            out,
            "  shards: {} merged, {} re-dispatched, {} speculated",
            footer.shards, footer.shard_retries, footer.speculated
        )
        .unwrap();
    }
    if footer.reconnects > 0
        || footer.leases_revoked > 0
        || footer.frames_rejected > 0
        || footer.peers_retired > 0
    {
        writeln!(
            out,
            "  net: {} reconnects, {} leases revoked, {} frames rejected, {} peers retired",
            footer.reconnects, footer.leases_revoked, footer.frames_rejected, footer.peers_retired
        )
        .unwrap();
    }
    if footer.ranges_audited > 0 || footer.workers_convicted > 0 {
        writeln!(
            out,
            "  audit: {} ranges audited, {} passed, {} workers convicted, {} ranges invalidated",
            footer.ranges_audited,
            footer.audits_passed,
            footer.workers_convicted,
            footer.ranges_invalidated
        )
        .unwrap();
    }
    if footer.cache_hits > 0
        || footer.cache_misses > 0
        || footer.submits_deduped > 0
        || footer.sessions_resumed > 0
        || footer.restarts > 0
    {
        writeln!(
            out,
            "  coordinator: {} cache hits, {} misses, {} submits deduplicated, {} sessions \
             resumed, {} restarts",
            footer.cache_hits,
            footer.cache_misses,
            footer.submits_deduped,
            footer.sessions_resumed,
            footer.restarts
        )
        .unwrap();
    }
    if !footer.missing_ranges.is_empty() {
        let uncovered: u64 = footer.missing_ranges.iter().map(|&(s, e)| e - s).sum();
        let ranges = footer
            .missing_ranges
            .iter()
            .map(|&(s, e)| format!("{s}..{e}"))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(
            out,
            "  missing ranges: {ranges} ({uncovered} injections uncovered)"
        )
        .unwrap();
    }
    if let Some(d) = footer.dispatch {
        if d.traced + d.batched + d.stepped > 0 {
            writeln!(
                out,
                "  golden dispatch: {} traced, {} batched, {} stepped",
                d.traced, d.batched, d.stepped
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod footer_tests {
    use super::*;

    #[test]
    fn empty_footer_renders_nothing() {
        assert_eq!(report_campaign_footer(&CampaignFooter::default()), "");
    }

    #[test]
    fn worker_pool_line_keeps_the_grepped_wording() {
        let footer = CampaignFooter {
            kills: 3,
            respawns: 4,
            ..CampaignFooter::default()
        };
        // CI's campaign-process job greps for exactly this shape.
        assert_eq!(
            report_campaign_footer(&footer),
            "  worker pool: 3 SIGKILLed, 4 respawned\n"
        );
    }

    #[test]
    fn sharded_partial_run_renders_every_counter() {
        let footer = CampaignFooter {
            kills: 1,
            respawns: 2,
            shards: 4,
            shard_retries: 3,
            speculated: 1,
            missing_ranges: vec![(0, 25), (75, 100)],
            ..CampaignFooter::default()
        };
        assert_eq!(
            report_campaign_footer(&footer),
            "  worker pool: 1 SIGKILLed, 2 respawned\n\
             \x20 shards: 4 merged, 3 re-dispatched, 1 speculated\n\
             \x20 missing ranges: 0..25, 75..100 (50 injections uncovered)\n"
        );
    }

    #[test]
    fn coordinator_counters_render_on_their_own_line() {
        let footer = CampaignFooter {
            cache_hits: 2,
            cache_misses: 5,
            submits_deduped: 1,
            sessions_resumed: 3,
            restarts: 2,
            ..CampaignFooter::default()
        };
        // The chaos CI job greps this line (`restarts`) to prove the
        // coordinator actually died and resumed mid-campaign.
        assert_eq!(
            report_campaign_footer(&footer),
            "  coordinator: 2 cache hits, 5 misses, 1 submits deduplicated, 3 sessions \
             resumed, 2 restarts\n"
        );
        // A coordinator that never cached, deduplicated, or restarted
        // stays silent — local campaigns keep their footer unchanged.
        assert_eq!(
            report_campaign_footer(&CampaignFooter {
                restarts: 1,
                ..CampaignFooter::default()
            }),
            "  coordinator: 0 cache hits, 0 misses, 0 submits deduplicated, 0 sessions \
             resumed, 1 restarts\n"
        );
    }

    #[test]
    fn remote_run_renders_net_and_dispatch_lines() {
        let footer = CampaignFooter {
            shards: 4,
            shard_retries: 1,
            reconnects: 2,
            leases_revoked: 1,
            frames_rejected: 3,
            peers_retired: 2,
            dispatch: Some(nfp_sim::DispatchStats {
                traced: 900,
                batched: 80,
                stepped: 20,
            }),
            ..CampaignFooter::default()
        };
        assert_eq!(
            report_campaign_footer(&footer),
            "  shards: 4 merged, 1 re-dispatched, 0 speculated\n\
             \x20 net: 2 reconnects, 1 leases revoked, 3 frames rejected, 2 peers retired\n\
             \x20 golden dispatch: 900 traced, 80 batched, 20 stepped\n"
        );
    }

    #[test]
    fn audit_counters_render_between_net_and_coordinator_lines() {
        let footer = CampaignFooter {
            reconnects: 1,
            ranges_audited: 3,
            audits_passed: 2,
            workers_convicted: 1,
            ranges_invalidated: 4,
            cache_misses: 1,
            ..CampaignFooter::default()
        };
        // CI's liar chaos job greps `workers convicted` on this line.
        assert_eq!(
            report_campaign_footer(&footer),
            "  net: 1 reconnects, 0 leases revoked, 0 frames rejected, 0 peers retired\n\
             \x20 audit: 3 ranges audited, 2 passed, 1 workers convicted, 4 ranges invalidated\n\
             \x20 coordinator: 0 cache hits, 1 misses, 0 submits deduplicated, 0 sessions \
             resumed, 0 restarts\n"
        );
        // A conviction renders even when sampling itself never fired
        // (the convict was caught by a held-back stream at fallback).
        assert_eq!(
            report_campaign_footer(&CampaignFooter {
                workers_convicted: 1,
                ..CampaignFooter::default()
            }),
            "  audit: 0 ranges audited, 0 passed, 1 workers convicted, 0 ranges invalidated\n"
        );
        // An unaudited, unconvicted campaign keeps its footer unchanged.
        assert_eq!(
            report_campaign_footer(&CampaignFooter {
                audits_passed: 0,
                ranges_invalidated: 0,
                ..CampaignFooter::default()
            }),
            ""
        );
    }

    #[test]
    fn all_zero_dispatch_stats_render_nothing() {
        let footer = CampaignFooter {
            dispatch: Some(nfp_sim::DispatchStats::default()),
            ..CampaignFooter::default()
        };
        assert_eq!(report_campaign_footer(&footer), "");
    }

    #[test]
    fn unsharded_run_omits_the_shard_line() {
        let footer = CampaignFooter {
            shards: 1,
            missing_ranges: vec![(10, 12)],
            ..CampaignFooter::default()
        };
        assert_eq!(
            report_campaign_footer(&footer),
            "  missing ranges: 10..12 (2 injections uncovered)\n"
        );
    }
}
