//! Crash-safety suite for the coordinator (DESIGN.md §15).
//!
//! The bar is the same as every other layer: the report must be
//! **byte-identical** to a sequential same-seed run — now across
//! coordinator SIGKILLs and restarts. A killed coordinator resumes
//! from its service journal, re-dispatches only what its records files
//! do not already hold, and a re-presented submit either re-attaches
//! to the live campaign or comes back from the result cache without a
//! single re-simulated injection.

use nfp_bench::{
    report_campaign, run_supervised, run_worker_connect, submit_campaign_retry,
    submit_campaign_with, CampaignConfig, CampaignRequest, Mode, ServeConfig, ServeSummary, Server,
    SupervisorConfig, WorkerPreset,
};
use nfp_workloads::{all_kernels, Kernel, Preset};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn quick_kernel() -> Kernel {
    all_kernels(&Preset::quick())
        .expect("quick kernel registry")
        .into_iter()
        .find(|k| k.name.contains("fse"))
        .expect("quick preset has an FSE kernel")
}

fn campaign(injections: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        ..CampaignConfig::default()
    }
}

/// The sequential same-seed report every served run must reproduce.
fn reference_report(injections: usize) -> String {
    let kernel = quick_kernel();
    let outcome = run_supervised(
        &kernel,
        Mode::Float,
        &SupervisorConfig::new(campaign(injections)),
    )
    .expect("sequential reference campaign");
    report_campaign(&outcome.result)
}

fn request(injections: usize, shards: u32) -> CampaignRequest {
    CampaignRequest {
        client: "resume-test".to_string(),
        kernel: quick_kernel().name,
        mode: Mode::Float,
        campaign: campaign(injections),
        shards,
        allow_partial: false,
    }
}

fn serve_config(heartbeat_ms: u64) -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        preset: WorkerPreset::Quick,
        heartbeat: Duration::from_millis(heartbeat_ms),
        // These tests exercise journaling and caching, not the local
        // fallback: keep the grace period out of the picture unless a
        // test opts in.
        peer_grace: Duration::from_secs(120),
        lease_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

fn spawn_server(cfg: ServeConfig) -> (String, JoinHandle<ServeSummary>) {
    let server = Server::bind(cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn spawn_worker_thread(addr: &str) -> JoinHandle<i32> {
    let addr = addr.to_string();
    std::thread::spawn(move || run_worker_connect(&addr, 200))
}

/// A scratch directory named after the test, wiped on entry so reruns
/// never resume from a previous invocation's journal.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfp-serve-resume-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Polls a log file until `needle` appears (or panics at the deadline).
fn wait_for_log(path: &Path, needle: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if std::fs::read_to_string(path)
            .map(|s| s.contains(needle))
            .unwrap_or(false)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let log = std::fs::read_to_string(path).unwrap_or_default();
    panic!("'{needle}' never appeared in {}:\n{log}", path.display());
}

#[test]
fn identical_submits_dedupe_then_hit_the_cache_and_drain_shuts_down() {
    let dir = scratch("dedupe");
    let reference = reference_report(200);
    let drain_flag = dir.join("drain.flag");
    let cfg = ServeConfig {
        drain: Some(drain_flag.clone()),
        ..serve_config(200)
    };
    let (addr, server) = spawn_server(cfg);
    let w1 = spawn_worker_thread(&addr);
    let w2 = spawn_worker_thread(&addr);
    std::thread::sleep(Duration::from_millis(300));
    // Two identical submissions, the second arriving while the first
    // is (almost surely) still running: at most one simulation runs.
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign_with(&addr, &request(200, 4), |_| {}))
    };
    std::thread::sleep(Duration::from_millis(300));
    let second = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign_with(&addr, &request(200, 4), |_| {}))
    };
    let a = first.join().expect("first submit").expect("first report");
    let b = second
        .join()
        .expect("second submit")
        .expect("second report");
    assert_eq!(a.report, reference, "leader report diverged");
    assert_eq!(b.report, reference, "deduplicated report diverged");
    // A third, after both finished, must be a pure cache hit.
    let mut notes = Vec::new();
    let c = submit_campaign_with(&addr, &request(200, 4), |n| notes.push(n.to_string()))
        .expect("cached submit");
    assert_eq!(c.report, reference, "cached report diverged");
    assert!(
        notes.iter().any(|n| n.contains("result cache hit")),
        "no cache-hit note in {notes:?}"
    );
    // Drain: the sentinel refuses new work, finishes what is in
    // flight (nothing), and shuts the coordinator down cleanly.
    std::fs::write(&drain_flag, b"").expect("touch drain flag");
    let summary = server.join().expect("server thread");
    assert!(summary.cache_hits >= 1, "{summary:?}");
    // Whether the second submit overlapped (deduplicated) or landed
    // late (cache hit), exactly one of the three simulated.
    assert!(
        summary.cache_hits + summary.submits_deduped >= 2,
        "{summary:?}"
    );
    assert_eq!(w1.join().expect("worker 1"), 0);
    assert_eq!(w2.join().expect("worker 2"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn sigkilled_coordinator_resumes_and_the_report_is_byte_identical() {
    use std::process::{Command, Stdio};

    let dir = scratch("sigkill");
    let reference = reference_report(400);
    let journal = dir.join("serve.journal");
    let drain_flag = dir.join("drain.flag");
    // A fixed port survives the coordinator restart (picked by the
    // kernel, then released for the serve child to claim).
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").port()
    };
    let addr = format!("127.0.0.1:{port}");
    let serve_child = |resume: bool, log: &Path| {
        let mut args = vec![
            "serve".to_string(),
            "--listen".to_string(),
            addr.clone(),
            "--quick".to_string(),
            "--heartbeat-ms".to_string(),
            "100".to_string(),
            "--peer-grace-ms".to_string(),
            "120000".to_string(),
            "--journal".to_string(),
            journal.display().to_string(),
            "--drain".to_string(),
            drain_flag.display().to_string(),
        ];
        if resume {
            args.push("--resume".to_string());
        }
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log).expect("serve log"))
            .spawn()
            .expect("spawn repro serve")
    };

    let log1 = dir.join("serve1.log");
    let mut first = serve_child(false, &log1);
    let w1 = spawn_worker_thread(&addr);
    let w2 = spawn_worker_thread(&addr);
    // The client retries through the kill with capped jittered
    // backoff, re-presenting the same campaign key each attempt.
    let submit = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign_retry(&addr, &request(400, 4), 100, |_| {}))
    };
    // Kill the coordinator the hard way once work is actually leased.
    wait_for_log(&log1, "leased to", Duration::from_secs(60));
    Command::new("kill")
        .args(["-KILL", &first.id().to_string()])
        .status()
        .expect("kill -KILL serve");
    let _ = first.wait();

    // Restart over the journal: the interrupted campaign resumes
    // headless, the retrying client re-attaches, and the report must
    // not betray that any of this happened.
    let log2 = dir.join("serve2.log");
    let mut second = serve_child(true, &log2);
    let outcome = submit
        .join()
        .expect("submit thread")
        .expect("remote campaign across a coordinator SIGKILL");
    assert_eq!(
        outcome.report, reference,
        "report diverged across the coordinator restart"
    );
    let resumed_log = std::fs::read_to_string(&log2).unwrap_or_default();
    assert!(
        resumed_log.contains("resuming"),
        "restarted coordinator never resumed from the journal:\n{resumed_log}"
    );

    // Submitting the identical campaign again must be a cache hit —
    // byte-identical bytes straight from the restarted coordinator.
    let mut notes = Vec::new();
    let cached = submit_campaign_with(&addr, &request(400, 4), |n| notes.push(n.to_string()))
        .expect("cached submit after restart");
    assert_eq!(cached.report, reference, "cached report diverged");
    assert!(
        notes.iter().any(|n| n.contains("result cache hit")),
        "no cache-hit note in {notes:?}"
    );

    // Drain the restarted coordinator and check its counters: the hit
    // above must show up, and the journal must record the clean drain.
    std::fs::write(&drain_flag, b"").expect("touch drain flag");
    let status = second.wait().expect("wait for drained serve");
    assert!(status.success(), "drained serve exited {status:?}");
    let log = std::fs::read_to_string(&log2).expect("serve2 log");
    assert!(
        log.contains("served from the result cache"),
        "no cache-hit line in:\n{log}"
    );
    assert!(log.contains("drained cleanly"), "no drain line in:\n{log}");
    let journal_text = std::fs::read_to_string(&journal).expect("service journal");
    assert!(
        journal_text.contains("\"ev\":\"fin\"") && journal_text.contains("\"ev\":\"drain\""),
        "journal lacks fin/drain records:\n{journal_text}"
    );
    assert_eq!(w1.join().expect("worker 1"), 0);
    assert_eq!(w2.join().expect("worker 2"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn sigkilled_coordinator_preserves_the_blacklist_and_the_report() {
    use std::process::{Command, Stdio};

    let dir = scratch("audit-sigkill");
    let reference = reference_report(400);
    let journal = dir.join("serve.journal");
    let drain_flag = dir.join("drain.flag");
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").port()
    };
    let addr = format!("127.0.0.1:{port}");
    let serve_child = |resume: bool, log: &Path| {
        let mut args = vec![
            "serve".to_string(),
            "--listen".to_string(),
            addr.clone(),
            "--quick".to_string(),
            "--heartbeat-ms".to_string(),
            "100".to_string(),
            // Audit everything, and let a second opinion that cannot
            // come (the only disjoint peer is the banned liar) fall to
            // the local tie-breaker quickly.
            "--audit-rate".to_string(),
            "1".to_string(),
            "--peer-grace-ms".to_string(),
            "1000".to_string(),
            "--journal".to_string(),
            journal.display().to_string(),
            "--drain".to_string(),
            drain_flag.display().to_string(),
        ];
        if resume {
            args.push("--resume".to_string());
        }
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log).expect("serve log"))
            .spawn()
            .expect("spawn repro serve")
    };

    let log1 = dir.join("serve1.log");
    let mut first = serve_child(false, &log1);
    let honest = spawn_worker_thread(&addr);
    let liar = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "worker",
            "--connect",
            &addr,
            "--max-retries",
            "5",
            "--lie-rate",
            "1.0",
            "--lie-seed",
            "9",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lying worker");
    let submit = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign_retry(&addr, &request(400, 4), 100, |_| {}))
    };
    // SIGKILL the coordinator right after the audit tier convicts the
    // liar: the ban and any pending invalidations exist only in the
    // service journal at that instant.
    wait_for_log(&log1, "convicted", Duration::from_secs(120));
    Command::new("kill")
        .args(["-KILL", &first.id().to_string()])
        .status()
        .expect("kill -KILL serve");
    let _ = first.wait();

    let log2 = dir.join("serve2.log");
    let mut second = serve_child(true, &log2);
    let outcome = submit
        .join()
        .expect("submit thread")
        .expect("remote campaign across a mid-audit coordinator SIGKILL");
    assert_eq!(
        outcome.report, reference,
        "report diverged across the mid-audit restart"
    );
    // The restarted coordinator replayed the journaled conviction: the
    // blacklist exists before the liar can reconnect and lie again.
    wait_for_log(&log2, "resuming blacklist", Duration::from_secs(10));

    std::fs::write(&drain_flag, b"").expect("touch drain flag");
    let status = second.wait().expect("wait for drained serve");
    assert!(status.success(), "drained serve exited {status:?}");
    let journal_text = std::fs::read_to_string(&journal).expect("service journal");
    assert!(
        journal_text.contains("\"ev\":\"audit\"") && journal_text.contains("\"ev\":\"ban\""),
        "journal lacks audit/ban records:\n{journal_text}"
    );
    assert_eq!(honest.join().expect("honest worker"), 0);
    let mut liar = liar;
    let _ = liar.kill();
    let _ = liar.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_service_journal_is_quarantined_not_trusted() {
    // Garbage, and the torn header a kill inside the first header write
    // leaves: neither may be appended to.
    for (case, bytes) in [
        ("quarantine", "this is not a service journal\n"),
        ("quarantine-torn-header", "{\"v\":2,\"kind\":\"nfp-se"),
    ] {
        let dir = scratch(case);
        let journal = dir.join("serve.journal");
        std::fs::write(&journal, bytes).expect("write garbage");
        let cfg = ServeConfig {
            journal: Some(journal.clone()),
            resume: true,
            // A zero-campaign budget makes run() return immediately: the
            // test only cares about the bind-time journal handling.
            campaigns: Some(0),
            ..serve_config(200)
        };
        let (_, server) = spawn_server(cfg);
        let summary = server.join().expect("server thread");
        assert_eq!(summary.campaigns, 0);
        // The garbage was set aside, not deleted, and a fresh journal took
        // its place — evidence is preserved, state is not trusted.
        let quarantined = dir.join("serve.journal.quarantined");
        assert!(quarantined.exists(), "no quarantine file");
        assert_eq!(
            std::fs::read_to_string(&quarantined).expect("quarantined bytes"),
            bytes
        );
        let fresh = std::fs::read_to_string(&journal).expect("fresh journal");
        assert!(
            fresh.contains("nfp-serve-journal"),
            "fresh journal lacks a header: {fresh:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn draining_coordinator_refuses_new_submissions_typed() {
    let dir = scratch("drain-refusal");
    let drain_flag = dir.join("drain.flag");
    std::fs::write(&drain_flag, b"").expect("touch drain flag");
    let cfg = ServeConfig {
        drain: Some(drain_flag),
        peer_grace: Duration::from_millis(200),
        ..serve_config(200)
    };
    let (addr, server) = spawn_server(cfg);
    // The sentinel pre-exists, so the very first poll flips the
    // coordinator into draining; with nothing in flight it exits —
    // but a submit racing the shutdown gets a typed refusal, not a
    // hang or a silent drop.
    match submit_campaign_with(&addr, &request(10, 1), |_| {}) {
        Ok(_) => panic!("a draining coordinator accepted new work"),
        Err(e) => {
            let text = e.to_string();
            assert!(
                text.contains("draining") || text.contains("connect") || text.contains("refused"),
                "unexpected refusal shape: {text}"
            );
        }
    }
    let summary = server.join().expect("server thread");
    assert_eq!(summary.campaigns, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
