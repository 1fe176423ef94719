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
//! repro campaign --heartbeat-ms 200    # worker heartbeat interval
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

use nfp_bench::evaluation::variants;
use nfp_bench::{
    merge_journals, peek_campaign, report_ablation_calibration, report_ablation_categories,
    report_cache_extension, report_campaign, report_campaign_footer, report_fig1, report_fig4,
    report_table1, report_table3, report_table4, run_sharded, run_supervised, run_variants,
    shard_journal_path, submit_campaign_retry, CampaignConfig, CampaignFooter, CampaignRequest,
    Evaluation, KernelResult, Mode, ServeConfig, Server, ShardConfig, ShardSpec, SupervisorConfig,
    WorkerIsolation, WorkerPreset,
};
use nfp_core::NfpError;
use nfp_sim::Dispatch;
use nfp_testbed::{CacheConfig, Testbed};
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

/// The value following `--flag` parsed as a `T`. A value that does not
/// parse fails argument parsing: "`name` wants `what`, got '`value`'".
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, what: &str) -> Option<T> {
    flag_value(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            fail(
                "argument parsing",
                format!("{name} wants {what}, got '{v}'"),
            )
        })
    })
}

/// The value following `--flag` as a fraction in `0..=1`.
fn fraction(args: &[String], name: &str) -> Option<f64> {
    flag_value(args, name).map(|v| match v.parse::<f64>() {
        Ok(x) if (0.0..=1.0).contains(&x) => x,
        _ => fail(
            "argument parsing",
            format!("{name} wants a fraction in 0..=1, got '{v}'"),
        ),
    })
}

/// The workload preset `--quick` picks.
fn worker_preset(args: &[String]) -> WorkerPreset {
    if args.iter().any(|a| a == "--quick") {
        WorkerPreset::Quick
    } else {
        WorkerPreset::Paper
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

/// A board the sweep runs variants on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Board {
    /// The paper's cacheless board.
    Paper,
    /// E8's board with a 4 KiB data cache.
    Cached,
}

/// One report of `repro`, rendered from the sweep.
#[derive(Clone, Copy)]
enum Section {
    Table1,
    Fig4,
    /// Tables III and IV.
    Table3,
    Table4,
    Fig1,
    /// E6, model granularity.
    Categories,
    /// E7, calibration sensitivity.
    Calibration,
    /// E8, the cache extension.
    Cache,
}

impl Section {
    /// The sections `command` prints, in order, or `None` when it names
    /// no report.
    fn resolve(command: &str) -> Option<&'static [Section]> {
        use Section::*;
        Some(match command {
            "all" => &[Table1, Fig4, Table3, Fig1, Categories, Calibration, Cache],
            "table1" => &[Table1],
            "fig4" => &[Fig4],
            "table3" => &[Table3],
            "table4" => &[Table4],
            "fig1" => &[Fig1],
            "ablation-categories" => &[Categories],
            "ablation-calibration" => &[Calibration],
            "cache" => &[Cache],
            _ => return None,
        })
    }

    /// The kernels this section reports on, in its plan order, the
    /// modes it runs them in, and the boards it runs those variants on.
    fn plan(self, preset: &Preset) -> (Vec<Kernel>, &'static [Mode], &'static [Board]) {
        let registry = |kernels: Result<Vec<Kernel>, NfpError>| {
            kernels.unwrap_or_else(|e| fail("kernel registry", e))
        };
        // The first `hevc` HEVC and `fse` FSE kernels: representative
        // subsets keep E6's extra calibrations and E8's second board
        // affordable.
        let subset = |hevc: usize, fse: usize| -> Vec<Kernel> {
            let hevc = registry(hevc_kernels(preset)).into_iter().take(hevc);
            hevc.chain(registry(fse_kernels(preset)).into_iter().take(fse))
                .collect()
        };
        let paper: &[Board] = &[Board::Paper];
        match self {
            Section::Table1 | Section::Calibration => (Vec::new(), &[], &[]),
            Section::Fig4 => (showcase_kernels(preset), &Mode::BOTH, paper),
            Section::Table3 | Section::Table4 => {
                (registry(all_kernels(preset)), &Mode::BOTH, paper)
            }
            Section::Fig1 => {
                let Some(kernel) = registry(hevc_kernels(preset)).into_iter().next() else {
                    fail("kernel selection", "preset contains no HEVC kernels");
                };
                (vec![kernel], &[Mode::Float], paper)
            }
            Section::Categories => (subset(3, 2), &Mode::BOTH, paper),
            Section::Cache => (subset(3, 1), &Mode::BOTH, &[Board::Paper, Board::Cached]),
        }
    }
}

/// The `campaign` subcommand: a supervised (journaled, panic-isolated)
/// SEU campaign over the showcase kernels. Opt-in only — it replays
/// millions of instructions per injection.
fn run_campaign_command(args: &[String], preset: &Preset) {
    let mut campaign = CampaignConfig::default();
    if let Some(n) = parsed(args, "--injections", "a count") {
        campaign.injections = n;
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
    sup.preset = worker_preset(args);
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
    if let Some(ms) = parsed::<u64>(args, "--heartbeat-ms", "milliseconds") {
        sup.heartbeat = Duration::from_millis(ms.max(1));
    }
    sup.deadline = parsed(args, "--deadline-ms", "milliseconds").map(Duration::from_millis);
    if sup.deadline.is_none() && sup.isolation == WorkerIsolation::Process {
        // Process isolation without any deadline cannot put down a
        // worker wedged mid-replay; default to a generous bound.
        sup.deadline = Some(Duration::from_secs(300));
    }
    if let Some(n) = parsed(args, "--max-respawns", "a count") {
        sup.max_respawns = n;
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

    let shards: Option<u32> = parsed(args, "--shards", "a count");
    let shard_index: Option<u32> = parsed(args, "--shard-index", "a count");
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
    let shard_retries = parsed(args, "--shard-retries", "a count");
    let straggler = parsed::<u64>(args, "--straggler-ms", "milliseconds")
        .map(|ms| Duration::from_millis(ms.max(1)));

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
            if let Some(k) = shard_retries {
                cfg.shard_retries = k;
            }
            cfg.straggler = straggler;
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
    let kernel =
        nfp_workloads::kernel(preset, &name).unwrap_or_else(|e| fail("kernel selection", e));
    let outcome = merge_journals(&kernel, mode, &campaign, &paths, allow_partial)
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
    let ms = |name: &str| parsed::<u64>(args, name, "milliseconds");
    let mut cfg = ServeConfig::default();
    if let Some(addr) = flag_value(args, "--listen") {
        cfg.listen = addr.to_string();
    }
    cfg.preset = worker_preset(args);
    if let Some(n) = parsed(args, "--max-inflight", "a count") {
        cfg.max_inflight = n;
    }
    if let Some(n) = parsed(args, "--max-queue", "a count") {
        cfg.max_queued_per_client = n;
    }
    if let Some(ms) = ms("--peer-grace-ms") {
        cfg.peer_grace = Duration::from_millis(ms);
    }
    if let Some(ms) = ms("--lease-ms") {
        cfg.lease_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = ms("--heartbeat-ms") {
        cfg.heartbeat = Duration::from_millis(ms.max(1));
    }
    cfg.straggler = ms("--straggler-ms").map(|ms| Duration::from_millis(ms.max(1)));
    if let Some(n) = parsed(args, "--shard-retries", "a count") {
        cfg.shard_retries = n;
    }
    cfg.campaigns = parsed(args, "--campaigns", "a count");
    cfg.journal = flag_value(args, "--journal").map(PathBuf::from);
    cfg.resume = args.iter().any(|a| a == "--resume");
    if cfg.resume && cfg.journal.is_none() {
        fail(
            "argument parsing",
            "--resume wants --journal PATH (the service journal to resume from)",
        );
    }
    cfg.drain = flag_value(args, "--drain").map(PathBuf::from);
    if let Some(n) = parsed(args, "--cache-cap-bytes", "a count") {
        cfg.cache_cap_bytes = n;
    }
    if let Some(rate) = fraction(args, "--audit-rate") {
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
    if let Some(n) = parsed(args, "--injections", "a count") {
        campaign.injections = n;
    }
    if let Some(seed) = parsed(args, "--seed", "a u64") {
        campaign.seed = seed;
    }
    // The submitted kernel must resolve inside the *coordinator's*
    // preset; `--quick` here only picks which showcase registry the
    // name is resolved against for the error message locality.
    let preset = worker_preset(args).build();
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
        shards: parsed(args, "--shards", "a count (0 = auto)").unwrap_or(0),
        allow_partial: args.iter().any(|a| a == "--allow-partial"),
    };
    let retries = parsed(args, "--retry", "a reconnect count").unwrap_or(0);
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

    // The hidden worker subcommand serves campaign leases — to the
    // supervisor's process pool over stdin/stdout, or with --connect to
    // a coordinator over TCP — and must never run any of the reporting
    // machinery.
    if command == "worker" {
        if let Some(addr) = flag_value(&args, "--connect") {
            let max_retries = parsed(&args, "--max-retries", "a count").unwrap_or(8);
            // Test-only saboteur: with --lie-rate the worker returns
            // plausible, CRC-valid but falsified outcomes for a seeded
            // fraction of its injections — the adversary the audit
            // tier exists to convict. Never set this outside chaos
            // testing.
            let lies = fraction(&args, "--lie-rate").map(|rate| nfp_bench::LiePlan {
                rate,
                seed: parsed(&args, "--lie-seed", "an integer").unwrap_or(0),
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

    let preset = worker_preset(&args).build();

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

    let Some(sections) = Section::resolve(command) else {
        eprintln!(
            "unknown command `{command}`; expected table1|fig4|table3|table4|fig1|ablation-categories|ablation-calibration|cache|campaign|merge-journals|serve|submit|all"
        );
        std::process::exit(2);
    };
    let plans: Vec<_> = sections.iter().map(|&s| (s, s.plan(&preset))).collect();

    eprintln!("calibrating the cost model (Table II differential kernels)...");
    let eval = Evaluation::new().unwrap_or_else(|e| fail("calibration", e));
    let cached = plans
        .iter()
        .any(|(_, (_, _, boards))| boards.contains(&Board::Cached))
        .then(|| {
            eprintln!("calibrating the board with a data cache...");
            Evaluation::for_board(Testbed::with_cache(CacheConfig::default()))
                .unwrap_or_else(|e| fail("cached-board calibration", e))
        });
    let on = |board| match board {
        Board::Paper => &eval,
        Board::Cached => cached.as_ref().expect("calibrated when a plan names it"),
    };

    // One sweep simulates every variant the sections report on, once
    // per board.
    let mut seen = std::collections::HashSet::new();
    let sweep_plan: Vec<(Board, &Kernel, Mode)> = plans
        .iter()
        .flat_map(|(_, (kernels, modes, boards))| {
            boards.iter().flat_map(move |&board| {
                variants(kernels, modes).map(move |(kernel, mode)| (board, kernel, mode))
            })
        })
        .filter(|&(board, kernel, mode)| seen.insert((board, &kernel.name, mode.suffix())))
        .collect();
    if !sweep_plan.is_empty() {
        eprintln!(
            "running {} kernel variants across {} threads...",
            sweep_plan.len(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
    }
    let jobs: Vec<_> = sweep_plan.iter().map(|&(b, k, m)| (on(b), k, m)).collect();
    let sweep = run_variants(&jobs).unwrap_or_else(|e| fail("kernel sweep", e));
    // A section's results on `board`, in its plan order.
    let results_on = |board: Board, kernels: &[Kernel], modes: &[Mode]| -> Vec<KernelResult> {
        variants(kernels, modes)
            .map(|(k, m)| {
                let found = sweep_plan
                    .iter()
                    .zip(&sweep)
                    .find(|((b, ..), r)| *b == board && r.base_name == k.name && r.mode == m);
                found.expect("the sweep ran every variant").1.clone()
            })
            .collect()
    };

    for (section, (kernels, modes, _)) in &plans {
        let results = results_on(Board::Paper, kernels, modes);
        let text = match section {
            Section::Table1 => report_table1(&eval),
            Section::Fig4 => report_fig4(&results),
            Section::Table3 => format!("{}\n{}", report_table3(&results), report_table4(&results)),
            Section::Table4 => report_table4(&results),
            Section::Fig1 => {
                report_fig1(&eval, &kernels[0], &results[0]).unwrap_or_else(|e| fail("fig1", e))
            }
            Section::Categories => report_ablation_categories(&eval, &results)
                .unwrap_or_else(|e| fail("ablation-categories", e)),
            Section::Calibration => report_ablation_calibration(&eval.testbed)
                .unwrap_or_else(|e| fail("ablation-calibration", e)),
            Section::Cache => {
                report_cache_extension(&results, &results_on(Board::Cached, kernels, modes))
                    .unwrap_or_else(|e| fail("cache extension", e))
            }
        };
        println!("{text}");
    }
}
