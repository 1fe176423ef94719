//! Process-isolation acceptance tests: a campaign whose workers run as
//! `repro worker` subprocesses survives worker aborts and harness-level
//! hangs that would be fatal to any in-process pool, and still produces
//! the byte-identical same-seed report — modulo the quarantined entry —
//! across isolation modes and kill/respawn interleavings.

use nfp_bench::{
    run_supervised, CampaignConfig, Mode, SupervisorConfig, SupervisorOutcome, WorkerIsolation,
};
use nfp_core::{HarnessCause, NfpError, Outcome};
use nfp_workloads::{fse_kernels, Kernel, Preset};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn kernel() -> Kernel {
    fse_kernels(&Preset::quick())
        .expect("quick preset builds")
        .into_iter()
        .next()
        .expect("quick preset has FSE kernels")
}

fn campaign(injections: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed: 0xfeed_5eed,
        ..CampaignConfig::default()
    }
}

/// A process-isolated supervisor pointed at the freshly built `repro`
/// binary (tests do not run inside it, so `current_exe` would name the
/// test harness — exactly the skew `worker_bin` exists for).
fn process_supervisor(campaign: CampaignConfig) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(campaign);
    cfg.workers = Some(2);
    cfg.isolation = WorkerIsolation::Process;
    cfg.worker_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_repro")));
    cfg
}

fn thread_supervisor(campaign: CampaignConfig) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(campaign);
    cfg.workers = Some(2);
    cfg
}

fn tmp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nfp_process_{name}_{}.jsonl", std::process::id()))
}

/// Asserts every record except `except` matches the thread-mode
/// baseline exactly.
fn assert_records_match(got: &SupervisorOutcome, want: &SupervisorOutcome, except: Option<usize>) {
    assert_eq!(got.result.records.len(), want.result.records.len());
    for (i, (g, w)) in got
        .result
        .records
        .iter()
        .zip(&want.result.records)
        .enumerate()
    {
        if Some(i) != except {
            assert_eq!(g, w, "record {i} diverged across isolation modes");
        }
    }
}

#[test]
fn process_mode_report_is_byte_identical_to_thread_mode() {
    let k = kernel();
    let threads = run_supervised(&k, Mode::Float, &thread_supervisor(campaign(48))).unwrap();
    let procs = run_supervised(&k, Mode::Float, &process_supervisor(campaign(48))).unwrap();

    assert!(procs.process_isolation, "subprocess pool did not come up");
    assert!(!threads.process_isolation);
    assert_eq!(procs.kills, 0);
    assert_eq!(procs.respawns, 0);
    assert!(procs.quarantined.is_empty());
    assert_records_match(&procs, &threads, None);
    assert_eq!(procs.result.report, threads.result.report);
    assert_eq!(procs.result.report.render(), threads.result.report.render());
    assert_eq!(procs.result.golden_instret, threads.result.golden_instret);
}

#[test]
fn aborting_worker_is_retried_then_quarantined() {
    let k = kernel();
    let baseline = run_supervised(&k, Mode::Float, &thread_supervisor(campaign(24))).unwrap();

    // The worker `abort()`s whenever asked to replay injection 5: no
    // unwinding, no goodbye frame — SIGABRT. The supervisor must
    // respawn the slot, retry once on the fresh process (which aborts
    // again), quarantine, and carry the campaign to completion.
    let mut cfg = process_supervisor(campaign(24));
    cfg.test_worker_abort_at = Some(5);
    let outcome = run_supervised(&k, Mode::Float, &cfg).unwrap();

    assert!(outcome.process_isolation);
    assert_eq!(outcome.completed, 24);
    assert!(outcome.respawns >= 1, "no respawn after SIGABRT");
    assert_eq!(outcome.quarantined.len(), 1);
    let q = &outcome.quarantined[0];
    assert_eq!(q.index, 5);
    assert!(
        matches!(q.cause, HarnessCause::WorkerKilled { .. }),
        "expected a worker death, got {:?}",
        q.cause
    );
    assert_eq!(outcome.result.records[5].outcome, Outcome::HarnessFault);
    assert_eq!(
        outcome.result.records[5].fault,
        baseline.result.records[5].fault
    );
    // Everything else is byte-identical to the undisturbed thread run.
    assert_records_match(&outcome, &baseline, Some(5));
    assert_eq!(
        outcome.result.outcome_totals().get(Outcome::HarnessFault),
        1
    );
}

#[test]
fn hung_worker_is_sigkilled_respawned_and_quarantined() {
    let k = kernel();
    // Unbounded escalation: the instruction budget can never classify
    // the spin on its own, and no wall deadline is set inside the
    // replay either — the worker genuinely wedges mid-replay while its
    // side thread keeps heartbeating, so silence never ends the lease
    // and only the supervisor's per-injection deadline can put it down.
    let wedge = CampaignConfig {
        escalation: u32::MAX,
        ..campaign(48)
    };
    let baseline = run_supervised(&k, Mode::Float, &thread_supervisor(wedge.clone())).unwrap();
    assert_eq!(
        baseline.result.outcome_totals().get(Outcome::Hang),
        0,
        "pick a seed whose plan has no genuine hangs for this test"
    );

    let mut cfg = process_supervisor(wedge);
    cfg.test_spin_at = Some(3);
    // Past the 2 s silence limit of the default 200 ms heartbeat: a
    // wedged replay that stopped the beat would end as a heartbeat
    // timeout before the deadline could fire.
    cfg.deadline = Some(Duration::from_millis(3000));
    let outcome = run_supervised(&k, Mode::Float, &cfg).unwrap();

    assert!(outcome.process_isolation);
    assert_eq!(outcome.completed, 48);
    // Attempt one and the retry both wedge: two SIGKILLs, at least one
    // backoff respawn, then quarantine.
    assert!(outcome.kills >= 2, "kills = {}", outcome.kills);
    assert!(outcome.respawns >= 1, "respawns = {}", outcome.respawns);
    assert_eq!(outcome.quarantined.len(), 1);
    let q = &outcome.quarantined[0];
    assert_eq!(q.index, 3);
    assert_eq!(q.cause, HarnessCause::DeadlineExceeded);
    assert_eq!(outcome.result.records[3].outcome, Outcome::HarnessFault);
    assert_records_match(&outcome, &baseline, Some(3));
}

#[test]
fn process_journal_resumes_in_thread_mode() {
    let k = kernel();
    let baseline = run_supervised(&k, Mode::Float, &thread_supervisor(campaign(32))).unwrap();

    // Kill a journaled process-mode campaign after 10 writes...
    let journal = tmp_journal("cross_mode");
    let mut interrupted = process_supervisor(campaign(32));
    interrupted.journal = Some(journal.clone());
    interrupted.test_abort_after = Some(10);
    let aborted = run_supervised(&k, Mode::Float, &interrupted).unwrap();
    assert!(aborted.aborted);
    assert!(aborted.process_isolation);
    assert_eq!(aborted.completed, 10);

    // ...and resume it with plain thread workers: journals are
    // byte-compatible across isolation modes, and the merged result is
    // the uninterrupted thread-mode result.
    let mut resuming = thread_supervisor(campaign(32));
    resuming.journal = Some(journal.clone());
    resuming.resume = true;
    let resumed = run_supervised(&k, Mode::Float, &resuming).unwrap();
    assert!(!resumed.process_isolation);
    assert_eq!(resumed.resumed, 10);
    assert_eq!(resumed.completed, 32);
    assert_eq!(resumed.result.records, baseline.result.records);
    assert_eq!(
        resumed.result.report.render(),
        baseline.result.report.render()
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn missing_worker_binary_falls_back_to_thread_mode() {
    let k = kernel();
    let mut cfg = process_supervisor(campaign(16));
    cfg.worker_bin = Some(PathBuf::from("/nonexistent/repro-worker-binary"));
    let outcome = run_supervised(&k, Mode::Float, &cfg).unwrap();
    assert!(
        !outcome.process_isolation,
        "an unspawnable binary must fall back to threads"
    );
    assert_eq!(outcome.completed, 16);
    assert!(outcome.quarantined.is_empty());

    let baseline = run_supervised(&k, Mode::Float, &thread_supervisor(campaign(16))).unwrap();
    assert_records_match(&outcome, &baseline, None);
}

#[test]
#[cfg(unix)]
fn workers_that_never_join_fail_the_run_typed_and_journal_nothing() {
    // `/bin/false` spawns but exits before its join: every spawn of
    // both slots fails, no worker is ever leased an injection, and the
    // run fails naming that failure. Nothing it journals may read as a
    // result on resume.
    let k = kernel();
    let journal = tmp_journal("never_joins");
    let mut cfg = process_supervisor(campaign(16));
    cfg.worker_bin = Some(PathBuf::from("/bin/false"));
    cfg.journal = Some(journal.clone());
    match run_supervised(&k, Mode::Float, &cfg) {
        Err(NfpError::WorkerLost { job }) => {
            assert!(job.contains("every worker slot retired"), "{job}");
            assert!(job.contains("before its join"), "{job}");
        }
        other => panic!(
            "expected a typed WorkerLost, got {:?}",
            other.map(|o| o.completed)
        ),
    }
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 1, "more than a header:\n{text}");

    let mut resuming = thread_supervisor(campaign(16));
    resuming.journal = Some(journal.clone());
    resuming.resume = true;
    let resumed = run_supervised(&k, Mode::Float, &resuming).unwrap();
    let clean = run_supervised(&k, Mode::Float, &thread_supervisor(campaign(16))).unwrap();
    assert_eq!(resumed.resumed, 0);
    assert!(resumed.quarantined.is_empty());
    assert_eq!(resumed.result.records, clean.result.records);
    assert_eq!(resumed.result.report.render(), clean.result.report.render());
    let _ = std::fs::remove_file(&journal);
}

/// Pumps a piped worker's stdout frames into a channel, so no read can
/// hang a test.
fn frames_of(mut out: ChildStdout) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || loop {
        let mut len = [0u8; 4];
        if out.read_exact(&mut len).is_err() {
            return;
        }
        let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
        if out.read_exact(&mut payload).is_err() {
            return;
        }
        if tx
            .send(String::from_utf8_lossy(&payload).into_owned())
            .is_err()
        {
            return;
        }
    });
    rx
}

fn exit_code_within(child: &mut Child, within: Duration) -> i32 {
    let deadline = Instant::now() + within;
    loop {
        if let Some(status) = child.try_wait().expect("poll the worker") {
            return status.code().expect("an exit code, not a signal");
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("worker did not exit within {within:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn piped_worker_joins_first_fails_bad_leases_and_exits_on_eof() {
    let spawn = || {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn repro worker");
        let frames = frames_of(child.stdout.take().expect("piped stdout"));
        let join = frames
            .recv_timeout(Duration::from_secs(10))
            .expect("a first frame");
        assert!(join.contains("\"kind\":\"join\""), "first frame: {join}");
        (child, frames)
    };

    // Closing stdin after the join is a clean exit.
    let (mut child, _frames) = spawn();
    drop(child.stdin.take());
    assert_eq!(exit_code_within(&mut child, Duration::from_secs(5)), 0);

    // A lease naming a kernel the preset lacks is deterministic: the
    // worker answers with an error frame and exits 1.
    let (mut child, frames) = spawn();
    let hello = "{\"v\":1,\"kind\":\"hello\",\"kernel\":\"no_such_kernel\",\"mode\":\"float\",\
                 \"injections\":4,\"seed\":1,\"checkpoints\":16,\"escalation\":2,\"wall_ms\":null,\
                 \"golden_instret\":1,\"shard_index\":0,\"shard_count\":1,\"range_start\":0,\
                 \"range_end\":1,\"preset\":\"quick\",\"heartbeat_ms\":200,\"spin_at\":null,\
                 \"abort_at\":null}";
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(&(hello.len() as u32).to_be_bytes())
        .and_then(|()| stdin.write_all(hello.as_bytes()))
        .and_then(|()| stdin.flush())
        .expect("send the hello");
    let reply = loop {
        let frame = frames
            .recv_timeout(Duration::from_secs(60))
            .expect("a reply to the hello");
        if frame != "{\"kind\":\"hb\"}" {
            break frame;
        }
    };
    assert!(
        reply.contains("\"kind\":\"error\"") && reply.contains("no_such_kernel"),
        "reply: {reply}"
    );
    assert_eq!(exit_code_within(&mut child, Duration::from_secs(10)), 1);
}
