//! The `campaign` and `campaign_remote` workloads: one seeded fault
//! campaign on the Float `fse_img00`, run by the thread-isolated
//! supervisor with its write-ahead journal (`campaign`), or submitted
//! to an in-process coordinator over loopback with two connected
//! workers (`campaign_remote`).
//!
//! Both compare every report byte for byte with a sequential
//! `run_campaign` of the same plan, computed outside the timed region.

use crate::trace::Tracer;
use crate::{
    check, end_to_end, median, metric, runs_dir, Fail, Metric, Registry, Report, Rng, SETUP_REPS,
};
use nfp_bench::{
    report_campaign, run_campaign, run_campaign_parallel, run_supervised, run_worker_connect,
    submit_campaign, CampaignConfig, CampaignRequest, CampaignResult, Mode, RemoteOutcome,
    ServeConfig, Server, SupervisorConfig, WorkerIsolation,
};
use nfp_core::Outcome;
use nfp_workloads::Kernel;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The campaign kernel (Float variant).
pub const KERNEL: &str = "fse_img00";

/// Planned injections per campaign.
pub const INJECTIONS: usize = 600;

/// Replay workers: supervisor threads, or connected remote workers.
pub const WORKERS: usize = 2;

/// Shards a remote submit is split into.
pub const SHARDS: u32 = 4;

/// The seed's fault plan.
pub fn plan(seed: u64) -> CampaignConfig {
    CampaignConfig {
        injections: INJECTIONS,
        seed: Rng::new(seed ^ 0xf417_5eed).next_u64(),
        ..CampaignConfig::default()
    }
}

/// The campaign kernel out of a built registry.
pub fn kernel(registry: Registry) -> Result<Kernel, Fail> {
    registry
        .fse
        .into_iter()
        .find(|k| k.name == KERNEL)
        .ok_or_else(|| Fail::Error(format!("{KERNEL} is not in the quick registry")))
}

/// Synthesis and cold compile, returning the campaign kernel.
pub fn setup(t: &mut Tracer) -> Result<Kernel, Fail> {
    kernel(Registry::build(t)?)
}

/// The sequential reference report, plus its wall time.
pub fn reference(
    t: &mut Tracer,
    kernel: &Kernel,
    cfg: &CampaignConfig,
) -> Result<(CampaignResult, String, f64), Fail> {
    let start = Instant::now();
    let result = t.span("campaign.run_campaign", |_| {
        run_campaign(kernel, Mode::Float, cfg)
    })?;
    let wall = start.elapsed().as_secs_f64();
    let text = report_campaign(&result);
    Ok((result, text, wall))
}

/// Injections that failed to classify: harness faults (which include
/// the quarantined ones) plus plan entries left uncovered.
fn failed_injections(result: &CampaignResult, planned: usize) -> u64 {
    let totals = result.outcome_totals();
    totals.get(Outcome::HarnessFault) + planned.saturating_sub(result.records.len()) as u64
}

/// One supervised campaign: wall time, failed injections, journal size.
pub struct Supervised {
    pub wall: f64,
    pub failed: u64,
    pub journal_bytes: u64,
}

/// Runs the plan under the supervisor and checks its report.
pub fn supervised(
    t: &mut Tracer,
    kernel: &Kernel,
    cfg: &CampaignConfig,
    expected: &str,
) -> Result<Supervised, Fail> {
    let journal = runs_dir()?.join("campaign.journal");
    let mut sup = SupervisorConfig::new(cfg.clone());
    sup.journal = Some(journal.clone());
    sup.workers = Some(WORKERS);
    sup.isolation = WorkerIsolation::Thread;
    let start = Instant::now();
    let outcome = t.span("supervisor.run_supervised", |_| {
        run_supervised(kernel, Mode::Float, &sup)
    })?;
    let wall = start.elapsed().as_secs_f64();
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&journal);
    let failed = failed_injections(&outcome.result, cfg.injections);
    if failed == 0 {
        check(report_campaign(&outcome.result) == expected, || {
            "supervised report differs from the sequential run_campaign".to_string()
        })?;
    }
    Ok(Supervised {
        wall,
        failed,
        journal_bytes,
    })
}

/// The untraced `campaign` run.
pub fn measure_local(seed: u64, seconds: Duration) -> Result<Report, Fail> {
    let mut off = Tracer::disabled();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kernel = None;
    for _ in 0..SETUP_REPS {
        let (k, s) = timed(|| setup(&mut off));
        setups.push(s);
        kernel = Some(k?);
    }
    let kernel = kernel.expect("SETUP_REPS > 0");
    Registry::warm_programs()?;
    let cfg = plan(seed);
    let (_, expected, _) = reference(&mut off, &kernel, &cfg)?;

    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < seconds {
        let run = supervised(&mut off, &kernel, &cfg, &expected)?;
        attempted += cfg.injections as u64;
        failed += run.failed;
        walls.push(run.wall);
    }
    let per_s = cfg.injections as f64 / median(&walls);
    Ok(Report {
        attempted,
        failed,
        metrics: end_to_end(median(&setups), per_s),
        extra: vec![
            metric("injections_per_s", per_s, "1/s"),
            metric("campaigns", walls.len() as f64, "count"),
        ],
    })
}

/// One coordinator lifetime: bind, two workers handshaken, the timed
/// submit, and the identical re-submit answered from the cache.
pub struct RemoteRep {
    /// Bind plus both workers handshaken (a warm-up submit).
    pub serve_setup: f64,
    pub submit: f64,
    pub cache_hit: f64,
    /// Injections that failed: uncovered ranges, or a whole failed submit.
    pub failed: u64,
    /// Shards, re-dispatches, speculations and audits of the timed submit.
    pub footer: Footer,
    /// Service journal plus records files.
    pub journal_bytes: u64,
}

/// The counters of a remote campaign's footer notes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Footer {
    pub shards: u64,
    pub redispatched: u64,
    pub speculated: u64,
    pub audited: u64,
    pub uncovered: u64,
}

impl Footer {
    /// Parses the `shards:`, `audit:` and `missing ranges:` note lines.
    fn parse(notes: &[String]) -> Footer {
        let numbers = |line: &str| -> Vec<u64> {
            line.split(|c: char| !c.is_ascii_digit())
                .filter_map(|w| w.parse().ok())
                .collect()
        };
        let mut f = Footer::default();
        for note in notes {
            let note = note.trim();
            if let Some(rest) = note.strip_prefix("shards:") {
                if let [shards, redispatched, speculated, ..] = numbers(rest)[..] {
                    (f.shards, f.redispatched, f.speculated) = (shards, redispatched, speculated);
                }
            } else if let Some(rest) = note.strip_prefix("audit:") {
                f.audited = numbers(rest).first().copied().unwrap_or(0);
            } else if let Some(rest) = note.strip_prefix("missing ranges:") {
                // "... (N injections uncovered)"
                let tail = rest.rsplit('(').next().unwrap_or("");
                f.uncovered = numbers(tail).first().copied().unwrap_or(0);
            }
        }
        f
    }

    /// Shards ÷ leases dispatched (shards + re-dispatched + speculated
    /// + audited).
    pub fn useful_frac(&self) -> f64 {
        let leases = self.shards + self.redispatched + self.speculated + self.audited;
        self.shards as f64 / leases.max(1) as f64
    }
}

fn request(kernel: &Kernel, cfg: &CampaignConfig) -> CampaignRequest {
    CampaignRequest {
        client: "pipebench".to_string(),
        kernel: kernel.name.clone(),
        mode: Mode::Float,
        campaign: cfg.clone(),
        shards: SHARDS,
        allow_partial: false,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Starts a coordinator plus two workers, runs the timed submit and
/// the cached re-submit, and shuts everything down. Both reports must
/// equal `expected` byte for byte.
pub fn remote_rep(
    t: &mut Tracer,
    kernel: &Kernel,
    cfg: &CampaignConfig,
    expected: &str,
) -> Result<RemoteRep, Fail> {
    let dir: PathBuf = runs_dir()?.join("serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let drain = dir.join("drain");
    let start = Instant::now();
    let server = t.span("serve.bind", |_| {
        Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            // Warm-up, timed submit, cached re-submit.
            campaigns: Some(3),
            peer_grace: Duration::from_secs(60),
            journal: Some(dir.join("serve.journal")),
            drain: Some(drain.clone()),
            // The default 5 % per-shard audit draw depends on the plan
            // seed, so about one seed in five re-runs a quarter of its
            // plan and halves its throughput. Audits stay off so that
            // every seed measures the same amount of work.
            audit_rate: 0.0,
            ..ServeConfig::default()
        })
    })?;
    let addr = server
        .local_addr()
        .map_err(|e| Fail::Error(e.to_string()))?
        .to_string();
    let server = std::thread::spawn(move || server.run());
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker_connect(&addr, 5))
        })
        .collect();

    let outcome = (|| {
        // The coordinator reports no join events, so a tiny campaign of
        // two one-injection shards stands for the handshake: it returns
        // once workers have joined, passed the golden-instret check and
        // served its leases. Its plan differs from the timed one, so
        // nothing it caches is reused.
        let warmup = CampaignConfig {
            injections: 2,
            seed: cfg.seed ^ 0x3a3a,
            ..cfg.clone()
        };
        let mut warm_req = request(kernel, &warmup);
        warm_req.shards = 2;
        t.span("serve.handshake", |_| submit_campaign(&addr, &warm_req))?;
        let serve_setup = start.elapsed().as_secs_f64();

        let req = request(kernel, cfg);
        let (first, submit) = timed(|| t.span("serve.submit", |_| submit_campaign(&addr, &req)));
        let (cached, cache_hit) =
            timed(|| t.span("serve.resubmit", |_| submit_campaign(&addr, &req)));
        Ok::<_, Fail>((serve_setup, first, submit, cached, cache_hit))
    })();
    let served_all = matches!(&outcome, Ok((_, Ok(_), _, Ok(_), _)));
    if !served_all {
        // A failed campaign never counts towards the coordinator's
        // budget: ask it to drain instead.
        let _ = std::fs::write(&drain, b"");
    }
    let summary = server
        .join()
        .map_err(|_| Fail::Error("coordinator thread panicked".to_string()))?;
    for w in workers {
        let code = w
            .join()
            .map_err(|_| Fail::Error("worker thread panicked".to_string()))?;
        if code != 0 && served_all {
            return Err(Fail::Error(format!("worker exited with code {code}")));
        }
    }
    let journal_bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (serve_setup, first, submit, cached, cache_hit) = outcome?;
    let summary = summary.map_err(|e| Fail::Error(format!("coordinator: {e}")))?;

    // The timed submit counts per injection; the cached re-submit
    // classifies nothing and counts as one operation.
    let mut failed = 0;
    let mut footer = Footer::default();
    match first {
        Ok(RemoteOutcome { report, notes }) => {
            footer = Footer::parse(&notes);
            if footer.uncovered > 0 {
                failed += footer.uncovered;
            } else {
                check(report == expected, || {
                    "remote report differs from the sequential run_campaign".to_string()
                })?;
            }
        }
        Err(e) => {
            eprintln!("pipebench: submit failed: {e}");
            failed += cfg.injections as u64;
        }
    }
    match cached {
        Ok(RemoteOutcome { report, notes }) if Footer::parse(&notes).uncovered == 0 => {
            check(report == expected, || {
                "cached remote report differs from the sequential run_campaign".to_string()
            })?;
        }
        Ok(_) => failed += 1,
        Err(e) => {
            eprintln!("pipebench: cached re-submit failed: {e}");
            failed += 1;
        }
    }
    if served_all {
        check(summary.cache_hits == 1, || {
            format!(
                "expected one cache hit, coordinator served {}",
                summary.cache_hits
            )
        })?;
    }
    Ok(RemoteRep {
        serve_setup,
        submit,
        cache_hit,
        failed,
        footer,
        journal_bytes,
    })
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The untraced `campaign_remote` run. Every repetition is a fresh
/// coordinator, so each one contributes a set-up sample.
pub fn measure_remote(seed: u64, seconds: Duration) -> Result<Report, Fail> {
    let mut off = Tracer::disabled();
    let kernel = setup(&mut off)?;
    Registry::warm_programs()?;
    let cfg = plan(seed);
    let (_, expected, _) = reference(&mut off, &kernel, &cfg)?;

    let (mut setups, mut submits, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < seconds {
        let (_, registry_s) = timed(|| setup(&mut off));
        let rep = remote_rep(&mut off, &kernel, &cfg, &expected)?;
        setups.push(registry_s + rep.serve_setup);
        attempted += cfg.injections as u64 + 1;
        failed += rep.failed;
        submits.push(rep.submit);
        hits.push(rep.cache_hit);
    }
    let per_s = cfg.injections as f64 / median(&submits);
    Ok(Report {
        attempted,
        failed,
        metrics: end_to_end(median(&setups), per_s),
        extra: vec![
            metric("injections_per_s", per_s, "1/s"),
            metric("cache_hit_ms", median(&hits) * 1e3, "ms"),
            metric("campaigns", submits.len() as f64, "count"),
        ],
    })
}

/// What the traced campaign sections measured.
pub struct Traced {
    pub prepare_s: f64,
    pub replay_ms: f64,
    pub hang_frac: f64,
    pub outcomes: [u64; 4],
    pub supervisor_overhead: f64,
    pub supervisor_journal_kb: f64,
    pub supervised_wall: f64,
    pub remote: RemoteRep,
    /// The sequential reference report.
    pub report: String,
    /// Failed injections of the supervised and remote runs.
    pub failed: u64,
}

/// The traced campaign sections: prepare-only campaign, sequential
/// reference, parallel and supervised runs, and one coordinator
/// lifetime.
pub fn traced(t: &mut Tracer, kernel: &Kernel, cfg: &CampaignConfig) -> Result<Traced, Fail> {
    let one = CampaignConfig {
        injections: 1,
        ..cfg.clone()
    };
    let start = Instant::now();
    t.span("campaign.prepare", |_| {
        run_campaign(kernel, Mode::Float, &one)
    })?;
    let prepare_s = start.elapsed().as_secs_f64();
    let (result, expected, sequential) = reference(t, kernel, cfg)?;
    let totals = result.outcome_totals();
    let outcomes =
        [Outcome::Masked, Outcome::Sdc, Outcome::Trap, Outcome::Hang].map(|o| totals.get(o));

    let (parallel, parallel_s) = timed(|| {
        t.span("campaign.run_campaign_parallel", |_| {
            run_campaign_parallel(kernel, Mode::Float, cfg)
        })
    });
    check(report_campaign(&parallel?) == expected, || {
        "parallel report differs from the sequential run_campaign".to_string()
    })?;
    let sup = supervised(t, kernel, cfg, &expected)?;
    let remote = t.span("serve.lifetime", |t| remote_rep(t, kernel, cfg, &expected))?;
    let injections = cfg.injections as f64;
    Ok(Traced {
        prepare_s,
        replay_ms: (sequential - prepare_s) / injections * 1e3,
        hang_frac: outcomes[3] as f64 / injections,
        outcomes,
        supervisor_overhead: sup.wall / parallel_s,
        supervisor_journal_kb: sup.journal_bytes as f64 / 1024.0,
        supervised_wall: sup.wall,
        failed: sup.failed + remote.failed,
        remote,
        report: expected,
    })
}

/// Per-layer metrics of the traced campaign sections.
pub fn layer_metrics(c: &Traced) -> Vec<Metric> {
    let r = &c.remote;
    vec![
        metric("campaign.prepare_s", c.prepare_s, "s"),
        metric("campaign.replay_ms", c.replay_ms, "ms"),
        metric("campaign.hang_frac", c.hang_frac, "ratio"),
        metric("supervisor.overhead", c.supervisor_overhead, "ratio"),
        metric("supervisor.journal_kb", c.supervisor_journal_kb, "KiB"),
        metric("serve.overhead", r.submit / c.supervised_wall, "ratio"),
        metric("serve.useful_frac", r.footer.useful_frac(), "ratio"),
        metric("serve.journal_kb", r.journal_bytes as f64 / 1024.0, "KiB"),
        metric("serve.cache_hit_ms", r.cache_hit * 1e3, "ms"),
        metric("serve.setup_s", r.serve_setup, "s"),
    ]
}
