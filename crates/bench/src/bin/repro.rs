//! `repro`: regenerates every table and figure of the paper.
//!
//! ```text
//! repro table1                 # Table I  — calibrated specific costs
//! repro fig4                   # Fig. 4   — measured vs estimated, showcase kernels
//! repro table3                 # Table III — estimation-error summary (M = 120)
//! repro table4                 # Table IV — the FPU trade-off
//! repro fig1                   # Fig. 1   — simulation speed vs accuracy
//! repro ablation-categories    # E6 — model granularity
//! repro ablation-calibration   # E7 — calibration sensitivity
//! repro campaign               # SEU fault-injection vulnerability report
//! repro all                    # everything above (campaign excluded: opt-in)
//! repro all --quick            # reduced workload sizes (fast smoke run)
//! ```
//!
//! Campaign flags (crash safety and isolation — see DESIGN.md §10–§11):
//!
//! ```text
//! repro campaign --journal j.jsonl     # write-ahead journal every injection
//! repro campaign --resume j.jsonl      # skip completed injections, continue
//! repro campaign --injections 400      # override the plan size
//! repro campaign --kernel fse          # only showcase kernels matching 'fse'
//! repro campaign --dispatch step       # step|traced execution of this process
//! repro campaign --isolation process   # worker subprocesses (SIGKILL watchdogs)
//! repro campaign --heartbeat-ms 200    # worker idle-heartbeat interval
//! repro campaign --deadline-ms 60000   # per-injection wall deadline (process mode)
//! repro campaign --max-respawns 3      # crash-loop budget per worker slot
//! ```
//!
//! Reports are byte-identical under both dispatch modes, so `--dispatch`
//! is a local choice outside the campaign identity: journals, worker
//! handshakes and submits do not carry it, and process and remote
//! workers always run traced.
//!
//! Sharding flags (fault-tolerant split campaigns — DESIGN.md §12):
//!
//! ```text
//! repro campaign --journal c.jsonl --shards 4       # orchestrate 4 shard sub-campaigns, merge
//! repro campaign --journal c.jsonl --shards 4 \
//!                --shard-index 2                    # run ONLY shard 2 (for external schedulers)
//! repro campaign ... --shard-retries 3              # re-dispatch budget per lost/corrupt shard
//! repro campaign ... --straggler-ms 5000            # speculatively duplicate slow shards
//! repro campaign ... --allow-partial                # degrade to a partial report on shard loss
//! repro merge-journals [--allow-partial] <j...>     # merge shard journals into one report
//! ```
//!
//! Remote dispatch (networked shard campaigns — DESIGN.md §14):
//!
//! ```text
//! repro serve --listen 127.0.0.1:7447 --quick      # coordinator: accept workers + submissions
//! repro serve ... --campaigns 1                    # shut down after N campaigns (CI)
//! repro serve ... --max-inflight 2 --max-queue 2   # admission control limits
//! repro serve ... --peer-grace-ms 2000             # local-pool fallback deadline
//! repro serve ... --lease-ms 120000                # hard per-lease deadline
//! repro serve ... --straggler-ms 5000              # speculative duplicate leases
//! repro worker --connect 127.0.0.1:7447            # remote worker (reconnects with backoff)
//! repro worker --connect ... --max-retries 8       # consecutive-failure budget
//! repro submit --connect 127.0.0.1:7447 \
//!              --kernel fse --injections 400       # submit a campaign, print the report
//! repro submit ... --shards 0                      # 0 = one shard per live worker
//! repro submit ... --allow-partial                 # partial report instead of shard-loss error
//! ```
//!
//! Crash-safe coordinator (service journal + idempotent submits — DESIGN.md §15):
//!
//! ```text
//! repro serve ... --journal s.jsonl                # write-ahead service journal
//! repro serve ... --journal s.jsonl --resume       # rebuild hub state after a crash
//! repro serve ... --drain /tmp/drain.flag          # graceful shutdown sentinel
//! repro serve ... --cache-cap-bytes 67108864       # LRU result-cache byte budget
//! repro submit ... --retry 100                     # reconnect through coordinator restarts
//! ```
//!
//! Byzantine worker auditing (quorum re-execution — DESIGN.md §16):
//!
//! ```text
//! repro serve ... --audit-rate 0.05                # fraction of ranges re-run on a disjoint
//!                                                  # worker and compared (default 0.05; 0 off)
//! repro worker --connect ... --lie-rate 1.0 \
//!              --lie-seed 9                        # test-only saboteur: falsify outcomes
//! ```
//!
//! There is also a hidden `repro worker` subcommand: the supervisor
//! spawns it for `--isolation process` and drives it over stdin/stdout.
//! With `--connect` it instead dials a `repro serve` coordinator over
//! TCP. It is not for interactive use.
//!
//! Every failure exits nonzero with a message naming the stage that
//! failed; a panic in this binary is a bug.

use nfp_bench::{
    merge_journals, peek_campaign, report_ablation_calibration, report_ablation_categories,
    report_campaign, report_campaign_footer, report_fig1, report_fig4, report_table1,
    report_table3, report_table4, run_sharded, run_supervised, shard_journal_path,
    submit_campaign_retry, CampaignConfig, CampaignFooter, CampaignRequest, Evaluation,
    KernelResult, Mode, ServeConfig, Server, ShardConfig, ShardSpec, SupervisorConfig,
    WorkerIsolation, WorkerPreset,
};
use nfp_sim::Dispatch;
use nfp_workloads::{all_kernels, fse_kernels, hevc_kernels, Kernel, Preset};
use std::path::PathBuf;
use std::time::Duration;

/// Reports a failed stage and exits nonzero. The stage name is the
/// user's breadcrumb: it says *which* part of the reproduction died
/// without needing a backtrace.
fn fail(stage: &str, detail: impl std::fmt::Display) -> ! {
    eprintln!("repro: {stage} failed: {detail}");
    std::process::exit(1);
}

/// The value following a `--flag`, if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn preset_from_args(args: &[String]) -> Preset {
    if args.iter().any(|a| a == "--quick") {
        Preset::quick()
    } else {
        Preset::paper()
    }
}

fn showcase_kernels(preset: &Preset) -> Vec<Kernel> {
    // Fig. 4's four representative cases: one FSE kernel and one HEVC
    // kernel, each in float and fixed variants.
    let fse = fse_kernels(preset)
        .unwrap_or_else(|e| fail("kernel registry", e))
        .into_iter()
        .next()
        .unwrap_or_else(|| fail("kernel selection", "preset contains no FSE kernels"));
    let hevc = hevc_kernels(preset)
        .unwrap_or_else(|e| fail("kernel registry", e))
        .into_iter()
        .find(|k| k.name.contains("movobj_lowdelay_qp32"))
        .unwrap_or_else(|| {
            fail(
                "kernel selection",
                "preset lacks the representative hevc kernel movobj_lowdelay_qp32",
            )
        });
    vec![fse, hevc]
}

fn run_results(eval: &Evaluation, kernels: &[Kernel]) -> Vec<KernelResult> {
    eprintln!(
        "  running {} kernels x 2 variants across {} threads...",
        kernels.len(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    eval.run_all_parallel(kernels)
        .unwrap_or_else(|e| fail("kernel sweep", e))
}

/// The `campaign` subcommand: a supervised (journaled, panic-isolated)
/// SEU campaign over the showcase kernels. Opt-in only — it replays
/// millions of instructions per injection.
fn run_campaign_command(args: &[String], preset: &Preset) {
    let mut campaign = CampaignConfig::default();
    if let Some(n) = flag_value(args, "--injections") {
        campaign.injections = n.parse().unwrap_or_else(|_| {
            fail(
                "argument parsing",
                format!("--injections wants a count, got '{n}'"),
            )
        });
    }
    if let Some(d) = flag_value(args, "--dispatch") {
        campaign.dispatch = Dispatch::parse(d).unwrap_or_else(|| {
            fail(
                "argument parsing",
                format!("--dispatch wants step|traced, got '{d}'"),
            )
        });
    }
    let mut sup = SupervisorConfig::new(campaign);
    sup.preset = if args.iter().any(|a| a == "--quick") {
        WorkerPreset::Quick
    } else {
        WorkerPreset::Paper
    };
    if let Some(mode) = flag_value(args, "--isolation") {
        sup.isolation = match mode {
            "thread" => WorkerIsolation::Thread,
            "process" => WorkerIsolation::Process,
            other => fail(
                "argument parsing",
                format!("--isolation wants 'thread' or 'process', got '{other}'"),
            ),
        };
    }
    let ms_flag = |name: &str| {
        flag_value(args, name).map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                fail(
                    "argument parsing",
                    format!("{name} wants milliseconds, got '{v}'"),
                )
            })
        })
    };
    if let Some(ms) = ms_flag("--heartbeat-ms") {
        sup.heartbeat = Duration::from_millis(ms.max(1));
    }
    sup.deadline = ms_flag("--deadline-ms").map(Duration::from_millis);
    if sup.deadline.is_none() && sup.isolation == WorkerIsolation::Process {
        // Process isolation without any deadline cannot put down a
        // worker wedged mid-replay; default to a generous bound.
        sup.deadline = Some(Duration::from_secs(300));
    }
    if let Some(n) = flag_value(args, "--max-respawns") {
        sup.max_respawns = n.parse().unwrap_or_else(|_| {
            fail(
                "argument parsing",
                format!("--max-respawns wants a count, got '{n}'"),
            )
        });
    }
    sup.journal = flag_value(args, "--journal").map(PathBuf::from);
    if let Some(path) = flag_value(args, "--resume") {
        if sup.journal.is_some() {
            fail(
                "argument parsing",
                "--journal and --resume are mutually exclusive \
                 (--resume appends to the journal it resumes from)",
            );
        }
        sup.journal = Some(PathBuf::from(path));
        sup.resume = true;
    }

    let count_flag = |name: &str| {
        flag_value(args, name).map(|v| {
            v.parse::<u32>().unwrap_or_else(|_| {
                fail(
                    "argument parsing",
                    format!("{name} wants a count, got '{v}'"),
                )
            })
        })
    };
    let shards = count_flag("--shards");
    let shard_index = count_flag("--shard-index");
    let allow_partial = args.iter().any(|a| a == "--allow-partial");
    match (shards, shard_index) {
        (Some(0), _) => fail("argument parsing", "--shards wants a nonzero count"),
        (None, Some(_)) => fail("argument parsing", "--shard-index requires --shards"),
        (Some(count), Some(index)) if index >= count => fail(
            "argument parsing",
            format!("--shard-index {index} is out of range for --shards {count}"),
        ),
        _ => {}
    }
    if shards.is_some() && sup.journal.is_none() {
        fail(
            "argument parsing",
            "--shards requires --journal (every shard journal derives from it)",
        );
    }

    let mut kernels = showcase_kernels(preset);
    if let Some(filter) = flag_value(args, "--kernel") {
        kernels.retain(|k| k.name.contains(filter));
        if kernels.is_empty() {
            fail(
                "kernel selection",
                format!("no showcase kernel matches '{filter}'"),
            );
        }
    }

    // A journal binds to exactly one kernel+mode, so a multi-kernel
    // sweep derives one journal per kernel from the given path.
    let base_journal = sup.journal.clone();
    for kernel in &kernels {
        // A journal binds to exactly one kernel+mode, so a multi-kernel
        // sweep derives one journal per kernel from the given path.
        let journal = base_journal.as_ref().map(|p| {
            if kernels.len() == 1 {
                p.clone()
            } else {
                p.with_extension(format!("{}.jsonl", kernel.name))
            }
        });
        eprintln!(
            "  injecting {} faults into {}...",
            sup.campaign.injections, kernel.name
        );

        // `--shards N` without `--shard-index`: the in-process
        // orchestrator runs every shard and merges the journals.
        if let (Some(count), None) = (shards, shard_index) {
            let mut cfg = ShardConfig::new(sup.clone(), count);
            cfg.supervisor.journal = journal;
            if let Some(k) = count_flag("--shard-retries") {
                cfg.shard_retries = k;
            }
            if let Some(ms) = ms_flag("--straggler-ms") {
                cfg.straggler = Some(Duration::from_millis(ms.max(1)));
            }
            cfg.allow_partial = allow_partial;
            let outcome = run_sharded(kernel, Mode::Float, &cfg)
                .unwrap_or_else(|e| fail(&format!("sharded campaign ({})", kernel.name), e));
            eprint!(
                "{}",
                report_campaign_footer(&CampaignFooter::from_sharded(&outcome))
            );
            println!("{}", report_campaign(&outcome.result));
            continue;
        }

        sup.journal = journal;
        if let (Some(count), Some(index)) = (shards, shard_index) {
            // `--shard-index I`: run exactly one shard — the mode an
            // external scheduler (or the CI chaos job) uses to place
            // shards in separate processes. Re-running the same index
            // resumes its journal automatically.
            sup.shard = Some(ShardSpec { index, count });
            sup.journal = sup
                .journal
                .as_deref()
                .map(|p| shard_journal_path(p, index, count));
            sup.resume = sup.journal.as_ref().is_some_and(|p| p.exists());
        }
        let outcome = run_supervised(kernel, Mode::Float, &sup)
            .unwrap_or_else(|e| fail(&format!("campaign ({})", kernel.name), e));
        if outcome.resumed > 0 {
            eprintln!(
                "  resumed {} completed injections from the journal, replayed {}",
                outcome.resumed,
                outcome.completed - outcome.resumed
            );
        }
        eprint!(
            "{}",
            report_campaign_footer(&CampaignFooter::from_supervisor(&outcome))
        );
        for q in &outcome.quarantined {
            eprintln!(
                "  quarantined injection {} ({}) — {}: {}",
                q.index, q.fault, q.cause, q.detail
            );
        }
        println!("{}", report_campaign(&outcome.result));
    }
}

/// The `merge-journals` subcommand: fold a set of shard journals
/// (written by `--shard-index` runs or left behind by an interrupted
/// `--shards` orchestration) into the single report a sequential run
/// would have produced. The campaign configuration is recovered from
/// the first journal's header; the preset (`--quick` or not) must
/// match the one the shards ran with, or the golden-run binding check
/// rejects the merge.
fn run_merge_command(args: &[String], preset: &Preset) {
    let allow_partial = args.iter().any(|a| a == "--allow-partial");
    let paths: Vec<PathBuf> = args[1..]
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        fail(
            "argument parsing",
            "merge-journals wants at least one shard journal path",
        );
    }
    let (name, mode, campaign) =
        peek_campaign(&paths[0]).unwrap_or_else(|e| fail("journal inspection", e));
    let kernels = all_kernels(preset).unwrap_or_else(|e| fail("kernel registry", e));
    let kernel = kernels.iter().find(|k| k.name == name).unwrap_or_else(|| {
        fail(
            "kernel selection",
            format!("the journal names kernel '{name}', which this preset does not provide"),
        )
    });
    let outcome = merge_journals(kernel, mode, &campaign, &paths, allow_partial)
        .unwrap_or_else(|e| fail("journal merge", e));
    eprint!(
        "{}",
        report_campaign_footer(&CampaignFooter::from_merge(&outcome))
    );
    println!("{}", report_campaign(&outcome.result));
}

/// The `serve` subcommand: a remote dispatch coordinator. Workers dial
/// in with `repro worker --connect`, clients with `repro submit`.
fn run_serve_command(args: &[String]) {
    let ms_flag = |name: &str| {
        flag_value(args, name).map(|v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                fail(
                    "argument parsing",
                    format!("{name} wants milliseconds, got '{v}'"),
                )
            })
        })
    };
    let count_flag = |name: &str| {
        flag_value(args, name).map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                fail(
                    "argument parsing",
                    format!("{name} wants a count, got '{v}'"),
                )
            })
        })
    };
    let mut cfg = ServeConfig::default();
    if let Some(addr) = flag_value(args, "--listen") {
        cfg.listen = addr.to_string();
    }
    cfg.preset = if args.iter().any(|a| a == "--quick") {
        WorkerPreset::Quick
    } else {
        WorkerPreset::Paper
    };
    if let Some(n) = count_flag("--max-inflight") {
        cfg.max_inflight = n;
    }
    if let Some(n) = count_flag("--max-queue") {
        cfg.max_queued_per_client = n;
    }
    if let Some(ms) = ms_flag("--peer-grace-ms") {
        cfg.peer_grace = Duration::from_millis(ms);
    }
    if let Some(ms) = ms_flag("--lease-ms") {
        cfg.lease_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = ms_flag("--heartbeat-ms") {
        cfg.heartbeat = Duration::from_millis(ms.max(1));
    }
    cfg.straggler = ms_flag("--straggler-ms").map(|ms| Duration::from_millis(ms.max(1)));
    if let Some(n) = flag_value(args, "--shard-retries") {
        cfg.shard_retries = n.parse().unwrap_or_else(|_| {
            fail(
                "argument parsing",
                format!("--shard-retries wants a count, got '{n}'"),
            )
        });
    }
    cfg.campaigns = count_flag("--campaigns");
    cfg.journal = flag_value(args, "--journal").map(PathBuf::from);
    cfg.resume = args.iter().any(|a| a == "--resume");
    if cfg.resume && cfg.journal.is_none() {
        fail(
            "argument parsing",
            "--resume wants --journal PATH (the service journal to resume from)",
        );
    }
    cfg.drain = flag_value(args, "--drain").map(PathBuf::from);
    if let Some(n) = count_flag("--cache-cap-bytes") {
        cfg.cache_cap_bytes = n;
    }
    if let Some(mode) = flag_value(args, "--isolation") {
        cfg.isolation = match mode {
            "thread" => WorkerIsolation::Thread,
            "process" => WorkerIsolation::Process,
            other => fail(
                "argument parsing",
                format!("--isolation wants 'thread' or 'process', got '{other}'"),
            ),
        };
    }
    if let Some(v) = flag_value(args, "--audit-rate") {
        let rate = v.parse::<f64>().unwrap_or(-1.0);
        if !(0.0..=1.0).contains(&rate) {
            fail(
                "argument parsing",
                format!("--audit-rate wants a fraction in 0..=1, got '{v}'"),
            );
        }
        cfg.audit_rate = rate;
    }
    let server = Server::bind(cfg).unwrap_or_else(|e| fail("serve bind", e));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| fail("serve bind", e));
    eprintln!("serve: listening on {addr}");
    let summary = server.run().unwrap_or_else(|e| fail("serve", e));
    eprintln!(
        "serve: done — {} campaigns, {} peers seen, {} reconnects, {} frames rejected, \
         {} peers retired, {} workers convicted",
        summary.campaigns,
        summary.peers_seen,
        summary.reconnects,
        summary.frames_rejected,
        summary.peers_retired,
        summary.workers_convicted
    );
    eprintln!(
        "serve: cache — {} hits, {} misses, {} evictions; {} submits deduplicated, \
         {} sessions resumed, {} coordinator restarts",
        summary.cache_hits,
        summary.cache_misses,
        summary.cache_evictions,
        summary.submits_deduped,
        summary.sessions_resumed,
        summary.restarts
    );
}

/// The `submit` subcommand: sends a campaign to a coordinator and
/// prints the returned report on stdout (notes go to stderr), so
/// `repro submit ... > report.txt` is byte-comparable with a local
/// `repro campaign` run.
fn run_submit_command(args: &[String]) {
    let Some(addr) = flag_value(args, "--connect") else {
        fail("argument parsing", "submit wants --connect HOST:PORT");
    };
    let mut campaign = CampaignConfig::default();
    if let Some(n) = flag_value(args, "--injections") {
        campaign.injections = n.parse().unwrap_or_else(|_| {
            fail(
                "argument parsing",
                format!("--injections wants a count, got '{n}'"),
            )
        });
    }
    if let Some(n) = flag_value(args, "--seed") {
        campaign.seed = n
            .parse()
            .unwrap_or_else(|_| fail("argument parsing", format!("--seed wants a u64, got '{n}'")));
    }
    // The submitted kernel must resolve inside the *coordinator's*
    // preset; `--quick` here only picks which showcase registry the
    // name is resolved against for the error message locality.
    let preset = preset_from_args(args);
    let kernels = showcase_kernels(&preset);
    let filter = flag_value(args, "--kernel").unwrap_or("");
    let Some(kernel) = kernels.iter().find(|k| k.name.contains(filter)) else {
        fail(
            "kernel selection",
            format!("no showcase kernel matches '{filter}'"),
        );
    };
    let req = CampaignRequest {
        client: flag_value(args, "--client").unwrap_or("cli").to_string(),
        kernel: kernel.name.clone(),
        mode: Mode::Float,
        campaign,
        shards: flag_value(args, "--shards")
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    fail(
                        "argument parsing",
                        format!("--shards wants a count (0 = auto), got '{v}'"),
                    )
                })
            })
            .unwrap_or(0),
        allow_partial: args.iter().any(|a| a == "--allow-partial"),
    };
    let retries: u32 = flag_value(args, "--retry")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                fail(
                    "argument parsing",
                    format!("--retry wants a reconnect count, got '{v}'"),
                )
            })
        })
        .unwrap_or(0);
    eprintln!(
        "  submitting {} ({} injections) to {addr}...",
        req.kernel, req.campaign.injections
    );
    let outcome = submit_campaign_retry(addr, &req, retries, |note| eprintln!("{note}"))
        .unwrap_or_else(|e| fail("remote campaign", e));
    // `println!`, exactly like the local campaign path: the report is
    // byte-comparable with `repro campaign` output, trailing newline
    // included.
    println!("{}", outcome.report);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");

    // The hidden worker subcommand speaks the supervisor protocol on
    // stdin/stdout (or, with --connect, the TCP lease protocol) and
    // must never run any of the reporting machinery.
    if command == "worker" {
        if let Some(addr) = flag_value(&args, "--connect") {
            let max_retries = flag_value(&args, "--max-retries")
                .map(|v| {
                    v.parse::<u32>().unwrap_or_else(|_| {
                        fail(
                            "argument parsing",
                            format!("--max-retries wants a count, got '{v}'"),
                        )
                    })
                })
                .unwrap_or(8);
            // Test-only saboteur: with --lie-rate the worker returns
            // plausible, CRC-valid but falsified outcomes for a seeded
            // fraction of its injections — the adversary the audit
            // tier exists to convict. Never set this outside chaos
            // testing.
            let lies = flag_value(&args, "--lie-rate").map(|v| {
                let rate = v.parse::<f64>().unwrap_or(-1.0);
                if !(0.0..=1.0).contains(&rate) {
                    fail(
                        "argument parsing",
                        format!("--lie-rate wants a fraction in 0..=1, got '{v}'"),
                    );
                }
                let seed = flag_value(&args, "--lie-seed")
                    .map(|s| {
                        s.parse::<u64>().unwrap_or_else(|_| {
                            fail(
                                "argument parsing",
                                format!("--lie-seed wants an integer, got '{s}'"),
                            )
                        })
                    })
                    .unwrap_or(0);
                nfp_bench::LiePlan { rate, seed }
            });
            std::process::exit(nfp_bench::run_worker_connect_with(addr, max_retries, lies));
        }
        std::process::exit(nfp_bench::run_worker());
    }

    if command == "serve" {
        run_serve_command(&args);
        return;
    }

    if command == "submit" {
        run_submit_command(&args);
        return;
    }

    let preset = preset_from_args(&args);

    // The campaign needs no calibration; it is also the long-running
    // mode where crash-safety flags apply, so it gets its own path.
    if command == "campaign" {
        run_campaign_command(&args, &preset);
        return;
    }

    // Merging shard journals likewise needs no calibration — only the
    // golden replay of the one kernel the journals bind to.
    if command == "merge-journals" {
        run_merge_command(&args, &preset);
        return;
    }

    eprintln!("calibrating the cost model (Table II differential kernels)...");
    let eval = Evaluation::new().unwrap_or_else(|e| fail("calibration", e));

    let mut ran_any = false;
    let want = |name: &str| command == name || command == "all";

    if want("table1") {
        ran_any = true;
        println!("{}", report_table1(&eval));
    }
    if want("fig4") {
        ran_any = true;
        let kernels = showcase_kernels(&preset);
        let results = run_results(&eval, &kernels);
        println!("{}", report_fig4(&results));
    }
    if want("table3") {
        ran_any = true;
        let kernels = all_kernels(&preset).unwrap_or_else(|e| fail("kernel registry", e));
        eprintln!(
            "running {} kernels x 2 variants (this is the paper's full M = {} set)...",
            kernels.len(),
            kernels.len() * 2
        );
        let results = run_results(&eval, &kernels);
        println!("{}", report_table3(&results));
        println!("{}", report_table4(&results));
    }
    if want("table4") && command != "all" {
        ran_any = true;
        let kernels = all_kernels(&preset).unwrap_or_else(|e| fail("kernel registry", e));
        let results = run_results(&eval, &kernels);
        println!("{}", report_table4(&results));
    }
    if want("fig1") {
        ran_any = true;
        let kernels = hevc_kernels(&preset).unwrap_or_else(|e| fail("kernel registry", e));
        let kernel = kernels
            .first()
            .unwrap_or_else(|| fail("kernel selection", "preset contains no HEVC kernels"));
        let (text, _) = report_fig1(&eval, kernel).unwrap_or_else(|e| fail("fig1", e));
        println!("{text}");
    }
    if want("ablation-categories") {
        ran_any = true;
        // A representative subset keeps the three-fold calibration and
        // six-fold kernel sweep affordable.
        let mut subset = Vec::new();
        subset.extend(
            hevc_kernels(&preset)
                .unwrap_or_else(|e| fail("kernel registry", e))
                .into_iter()
                .take(3),
        );
        subset.extend(
            fse_kernels(&preset)
                .unwrap_or_else(|e| fail("kernel registry", e))
                .into_iter()
                .take(2),
        );
        let text = report_ablation_categories(&eval, &subset)
            .unwrap_or_else(|e| fail("ablation-categories", e));
        println!("{text}");
    }
    if want("ablation-calibration") {
        ran_any = true;
        let text = report_ablation_calibration(&eval.testbed)
            .unwrap_or_else(|e| fail("ablation-calibration", e));
        println!("{text}");
    }
    if want("cache") {
        ran_any = true;
        let mut subset = Vec::new();
        subset.extend(
            hevc_kernels(&preset)
                .unwrap_or_else(|e| fail("kernel registry", e))
                .into_iter()
                .take(3),
        );
        subset.extend(
            fse_kernels(&preset)
                .unwrap_or_else(|e| fail("kernel registry", e))
                .into_iter()
                .take(1),
        );
        let text = nfp_bench::report_cache_extension(&subset)
            .unwrap_or_else(|e| fail("cache extension", e));
        println!("{text}");
    }
    if !ran_any {
        eprintln!(
            "unknown command `{command}`; expected table1|fig4|table3|table4|fig1|ablation-categories|ablation-calibration|cache|campaign|merge-journals|serve|submit|all"
        );
        std::process::exit(2);
    }
}
