//! End-to-end chaos suite for the remote dispatch layer (DESIGN.md §14).
//!
//! Every test drives a real [`Server`] over real TCP sockets and holds
//! it to the same bar as the local machinery: the merged remote report
//! must be **byte-identical** to a sequential same-seed run, no matter
//! what the network or the workers do — SIGKILLed peers, SIGSTOPped
//! peers, garbage first frames, torn frames, or no peers at all.

use nfp_bench::{
    report_campaign, run_supervised, run_worker_connect, run_worker_connect_with, submit_campaign,
    submit_campaign_with, CampaignConfig, CampaignRequest, LiePlan, Mode, ServeConfig,
    ServeSummary, Server, SupervisorConfig, WorkerPreset,
};
use nfp_core::NfpError;
use nfp_workloads::{all_kernels, Kernel, Preset};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
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

/// The sequential same-seed report every remote run must reproduce.
fn reference_report(injections: usize) -> String {
    reference_report_for(campaign(injections))
}

fn reference_report_for(cfg: CampaignConfig) -> String {
    let kernel = quick_kernel();
    let outcome = run_supervised(&kernel, Mode::Float, &SupervisorConfig::new(cfg))
        .expect("sequential reference campaign");
    report_campaign(&outcome.result)
}

fn request(injections: usize, shards: u32) -> CampaignRequest {
    CampaignRequest {
        client: "chaos-test".to_string(),
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
        // Worker tests must exercise reassignment, not the local
        // fallback: keep the grace period out of the picture.
        peer_grace: Duration::from_secs(120),
        lease_timeout: Duration::from_secs(60),
        campaigns: Some(1),
        ..ServeConfig::default()
    }
}

/// Binds a one-campaign server and returns its address plus the
/// summary-producing join handle.
fn spawn_server(cfg: ServeConfig) -> (String, JoinHandle<ServeSummary>) {
    let server = Server::bind(cfg).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// An in-process worker riding the public reconnect loop.
fn spawn_worker_thread(addr: &str) -> JoinHandle<i32> {
    let addr = addr.to_string();
    std::thread::spawn(move || run_worker_connect(&addr, 50))
}

/// A real `repro worker --connect` subprocess, for signal chaos.
fn spawn_worker_process(addr: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["worker", "--connect", addr, "--max-retries", "50"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro worker --connect")
}

fn signal(child: &Child, sig: &str) {
    let ok = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok, "kill {sig} {} failed", child.id());
}

#[test]
fn remote_report_is_byte_identical_to_local() {
    let reference = reference_report(120);
    let (addr, server) = spawn_server(serve_config(200));
    let w1 = spawn_worker_thread(&addr);
    let w2 = spawn_worker_thread(&addr);
    std::thread::sleep(Duration::from_millis(300));
    let outcome = submit_campaign(&addr, &request(120, 4)).expect("remote campaign");
    assert_eq!(outcome.report, reference, "remote report diverged");
    let summary = server.join().expect("server thread");
    assert_eq!(summary.campaigns, 1);
    assert!(summary.peers_seen >= 2, "{summary:?}");
    // Both workers got a goodbye and exited cleanly.
    assert_eq!(w1.join().expect("worker 1"), 0);
    assert_eq!(w2.join().expect("worker 2"), 0);
}

#[test]
#[cfg(unix)]
fn sigkilled_worker_loses_its_lease_and_the_report_survives() {
    let reference = reference_report(400);
    let (addr, server) = spawn_server(serve_config(100));
    let victim = spawn_worker_process(&addr);
    let survivor = spawn_worker_thread(&addr);
    std::thread::sleep(Duration::from_millis(500));
    let submit = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign(&addr, &request(400, 4)))
    };
    // Let the victim pick up work, then kill it the hard way.
    std::thread::sleep(Duration::from_millis(1500));
    let mut victim = victim;
    signal(&victim, "-KILL");
    let _ = victim.wait();
    let outcome = submit
        .join()
        .expect("submit thread")
        .expect("remote campaign under SIGKILL");
    assert_eq!(outcome.report, reference, "report diverged after SIGKILL");
    let summary = server.join().expect("server thread");
    assert_eq!(summary.campaigns, 1);
    assert_eq!(survivor.join().expect("survivor"), 0);
}

#[test]
#[cfg(unix)]
fn sigstopped_worker_is_revoked_and_the_report_survives() {
    let reference = reference_report(400);
    // 100 ms heartbeats put the idle revocation deadline at its 2 s
    // floor, so the wedged peer loses its lease quickly.
    let (addr, server) = spawn_server(serve_config(100));
    let wedged = spawn_worker_process(&addr);
    let survivor = spawn_worker_thread(&addr);
    std::thread::sleep(Duration::from_millis(500));
    let submit = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign(&addr, &request(400, 4)))
    };
    std::thread::sleep(Duration::from_millis(1500));
    signal(&wedged, "-STOP");
    let outcome = submit
        .join()
        .expect("submit thread")
        .expect("remote campaign under SIGSTOP");
    assert_eq!(outcome.report, reference, "report diverged after SIGSTOP");
    let summary = server.join().expect("server thread");
    assert_eq!(summary.campaigns, 1);
    assert_eq!(survivor.join().expect("survivor"), 0);
    let mut wedged = wedged;
    signal(&wedged, "-CONT");
    signal(&wedged, "-KILL");
    let _ = wedged.wait();
}

/// Copies one direction of a relayed connection until either end
/// closes; returns when `marker` first passed through.
fn pump(mut from: TcpStream, mut to: TcpStream, marker: &'static [u8]) -> Option<Instant> {
    let (mut seen, mut window, mut buf) = (None, Vec::new(), [0u8; 4096]);
    while let Ok(n @ 1..) = from.read(&mut buf) {
        window.extend_from_slice(&buf[..n]);
        if seen.is_none() && window.windows(marker.len()).any(|w| w == marker) {
            seen = Some(Instant::now());
        }
        window.drain(..window.len().saturating_sub(marker.len()));
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    seen
}

/// A relay for one worker connection to the coordinator at `addr`.
/// Returns its address, and a handle yielding how long the first lease
/// lasted: from its hello reaching the worker to its fin leaving it.
fn spawn_lease_timer(addr: &str) -> (String, JoinHandle<Option<Duration>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the relay");
    let relay = listener.local_addr().expect("relay addr").to_string();
    let addr = addr.to_string();
    let handle = std::thread::spawn(move || {
        let (worker, _) = listener.accept().expect("the worker connects");
        let coordinator = TcpStream::connect(&addr).expect("connect to the coordinator");
        let (w, c) = (
            worker.try_clone().unwrap(),
            coordinator.try_clone().unwrap(),
        );
        let down = std::thread::spawn(move || pump(c, w, b"\"kind\":\"hello\""));
        let fin = pump(worker, coordinator, b"\"fin\":1");
        let hello = down.join().expect("relay down");
        Some(fin? - hello?)
    });
    (relay, handle)
}

#[test]
fn a_lease_longer_than_the_silence_limit_keeps_its_worker() {
    // 100 ms heartbeats put the coordinator's silence limit at its 2 s
    // floor. One worker takes the single shard, and its lease (a rig
    // build with nothing but beats to show for it, then the whole plan,
    // about half of whose faults replay) outlasts that limit: 2000
    // injections measured a 5.1 s lease on a 2-core x86-64 box. The
    // coordinator must judge silence from the worker's last frame,
    // never from the hello.
    let injections = 2000;
    let reference = reference_report(injections);
    let (addr, server) = spawn_server(serve_config(100));
    let (relay, timer) = spawn_lease_timer(&addr);
    let worker = spawn_worker_thread(&relay);
    let outcome = submit_campaign(&addr, &request(injections, 1)).expect("remote campaign");
    assert_eq!(outcome.report, reference, "remote report diverged");
    let summary = server.join().expect("server thread");
    assert_eq!(summary.peers_retired, 0, "{summary:?}");
    assert!(
        !outcome.notes.iter().any(|n| n.contains("leases revoked")),
        "{:?}",
        outcome.notes
    );
    assert_eq!(worker.join().expect("worker"), 0);
    let lease = timer.join().expect("relay").expect("the relay saw a lease");
    eprintln!("lease lasted {}ms", lease.as_millis());
    assert!(
        lease > Duration::from_secs(2),
        "the lease took {}ms, inside the 2 s silence limit: it proves nothing",
        lease.as_millis()
    );
}

#[test]
fn garbage_peers_are_rejected_while_honest_workers_complete() {
    let reference = reference_report(120);
    let (addr, server) = spawn_server(serve_config(200));
    let honest = spawn_worker_thread(&addr);
    // A peer whose first frame is valid framing around nonsense.
    let mut babbler = TcpStream::connect(&addr).expect("connect babbler");
    let payload = b"{\"kind\":\"gossip\"}";
    babbler
        .write_all(&(payload.len() as u32).to_be_bytes())
        .and_then(|()| babbler.write_all(payload))
        .expect("send garbage frame");
    // And a peer that tears its frame mid-payload: it declares 64
    // bytes, delivers 7, and hangs up.
    let mut torn = TcpStream::connect(&addr).expect("connect torn peer");
    torn.write_all(&64u32.to_be_bytes())
        .and_then(|()| torn.write_all(b"{\"kind\""))
        .expect("send torn frame");
    drop(torn);
    std::thread::sleep(Duration::from_millis(300));
    let outcome = submit_campaign(&addr, &request(120, 2)).expect("remote campaign");
    assert_eq!(outcome.report, reference, "report diverged amid garbage");
    drop(babbler);
    let summary = server.join().expect("server thread");
    assert!(summary.frames_rejected >= 2, "{summary:?}");
    assert_eq!(honest.join().expect("honest worker"), 0);
}

#[test]
fn fake_worker_that_tears_its_lease_costs_nothing_but_a_retry() {
    let reference = reference_report(120);
    let (addr, server) = spawn_server(serve_config(200));
    // The saboteur joins correctly, waits for a lease hello, then
    // sends a torn frame and dies — after the lease was assigned.
    let saboteur = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(&addr).expect("connect saboteur");
            s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let join = b"{\"v\":2,\"kind\":\"join\",\"preset\":\"quick\",\"reconnects\":0}";
            s.write_all(&(join.len() as u32).to_be_bytes())
                .and_then(|()| s.write_all(join))
                .expect("send join");
            // Heartbeat dutifully while scanning the raw byte stream
            // for a lease hello (heartbeat frames alone would also
            // accumulate bytes, so match on content).
            let hb = b"{\"kind\":\"hb\"}";
            let mut seen = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            let mut buf = [0u8; 4096];
            let mut leased = false;
            while std::time::Instant::now() < deadline && !leased {
                let _ = s
                    .write_all(&(hb.len() as u32).to_be_bytes())
                    .and_then(|()| s.write_all(hb));
                match std::io::Read::read(&mut s, &mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        seen.extend_from_slice(&buf[..n]);
                        leased = seen
                            .windows(b"\"kind\":\"hello\"".len())
                            .any(|w| w == b"\"kind\":\"hello\"");
                    }
                    Err(_) => {}
                }
            }
            assert!(leased, "saboteur never received a lease hello");
            // Declare a big frame, deliver a sliver, vanish.
            let _ = s.write_all(&1024u32.to_be_bytes());
            let _ = s.write_all(b"{\"i\":0");
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    let submit = {
        let addr = addr.clone();
        std::thread::spawn(move || submit_campaign(&addr, &request(120, 2)))
    };
    // The saboteur holds its lease until it tears; the honest worker
    // arrives afterwards and sweeps up everything, retries included.
    saboteur.join().expect("saboteur thread");
    let honest = spawn_worker_thread(&addr);
    let outcome = submit
        .join()
        .expect("submit thread")
        .expect("remote campaign despite sabotage");
    assert_eq!(outcome.report, reference, "report diverged after sabotage");
    let summary = server.join().expect("server thread");
    assert!(summary.peers_retired >= 1, "{summary:?}");
    assert_eq!(honest.join().expect("honest worker"), 0);
}

/// A worker that falsifies every outcome it returns.
fn spawn_liar_thread(addr: &str, seed: u64) -> JoinHandle<i32> {
    let addr = addr.to_string();
    std::thread::spawn(move || run_worker_connect_with(&addr, 5, Some(LiePlan { rate: 1.0, seed })))
}

#[test]
fn lying_worker_is_convicted_and_the_report_stays_byte_identical() {
    let reference = reference_report(120);
    let cfg = ServeConfig {
        // Audit every range: the liar cannot dodge the sampler, and a
        // second opinion that cannot come (every disjoint peer banned)
        // falls to the local tie-breaker after ~2 s of patience.
        audit_rate: 1.0,
        peer_grace: Duration::from_secs(1),
        ..serve_config(200)
    };
    let (addr, server) = spawn_server(cfg);
    // The saboteur returns plausible, CRC-valid, digest-consistent but
    // falsified outcomes for every injection it touches. Three honest
    // peers carry the campaign once it is convicted.
    let liar = spawn_liar_thread(&addr, 9);
    let honest: Vec<JoinHandle<i32>> = (0..3).map(|_| spawn_worker_thread(&addr)).collect();
    std::thread::sleep(Duration::from_millis(400));
    let outcome = submit_campaign(&addr, &request(120, 4)).expect("audited campaign");
    assert_eq!(outcome.report, reference, "a lie reached the report");
    let summary = server.join().expect("server thread");
    assert!(
        summary.workers_convicted >= 1,
        "the liar was never convicted: {summary:?}"
    );
    for w in honest {
        assert_eq!(w.join().expect("honest worker"), 0);
    }
    // The liar was blacklisted: refusals burn its retry budget, so its
    // exit code is its own business — it just must terminate.
    let _ = liar.join().expect("liar thread");
}

#[test]
fn conviction_invalidates_the_liars_unaudited_ranges() {
    // Seed 17 samples shards {0, 2} of 4 at rate 0.5 (a pure function
    // of the seed, so this test is deterministic): the liar can land
    // unaudited ranges — whatever it produced for shards 1 and 3 is
    // accepted at first, then invalidated and re-dispatched the moment
    // a sampled shard convicts it. The report must still come out
    // byte-identical to the sequential run.
    let cfg_campaign = CampaignConfig {
        injections: 120,
        seed: 17,
        ..CampaignConfig::default()
    };
    let reference = reference_report_for(cfg_campaign.clone());
    let cfg = ServeConfig {
        audit_rate: 0.5,
        peer_grace: Duration::from_secs(1),
        ..serve_config(200)
    };
    let (addr, server) = spawn_server(cfg);
    let liar = spawn_liar_thread(&addr, 11);
    let honest = spawn_worker_thread(&addr);
    std::thread::sleep(Duration::from_millis(400));
    let req = CampaignRequest {
        campaign: cfg_campaign,
        ..request(120, 4)
    };
    let outcome = submit_campaign(&addr, &req).expect("audited campaign");
    assert_eq!(outcome.report, reference, "an invalidated lie survived");
    let summary = server.join().expect("server thread");
    assert!(
        summary.workers_convicted >= 1,
        "the liar was never convicted: {summary:?}"
    );
    assert_eq!(honest.join().expect("honest worker"), 0);
    let _ = liar.join().expect("liar thread");
}

#[test]
fn no_peers_degrades_to_the_local_pool_byte_identically() {
    let reference = reference_report(60);
    let cfg = ServeConfig {
        peer_grace: Duration::from_millis(200),
        ..serve_config(200)
    };
    let (addr, server) = spawn_server(cfg);
    let mut notes = Vec::new();
    let outcome = submit_campaign_with(&addr, &request(60, 2), |note| {
        notes.push(note.to_string());
    })
    .expect("degraded campaign");
    assert_eq!(outcome.report, reference, "local fallback diverged");
    assert!(
        notes.iter().any(|n| n.contains("falling back")),
        "no fallback note in {notes:?}"
    );
    let summary = server.join().expect("server thread");
    assert_eq!(summary.campaigns, 1);
}

#[test]
fn admission_refusal_is_typed_not_a_hang() {
    let cfg = ServeConfig {
        max_inflight: 0,
        ..serve_config(200)
    };
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    // This server never completes a campaign, so run() never returns;
    // the thread leaks and dies with the test process.
    std::thread::spawn(move || server.run());
    match submit_campaign(&addr, &request(10, 1)) {
        Err(NfpError::Admission { client, reason }) => {
            assert_eq!(client, "chaos-test");
            assert!(reason.contains("admits no campaigns"), "{reason}");
        }
        other => panic!("expected a typed admission refusal, got {other:?}"),
    }
}
