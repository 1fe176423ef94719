//! Fig. 1 micro-benchmark: simulation speed of the three simulator
//! layers on the same workload.
//!
//! * bare ISS (functional only — the fastest point of Fig. 1's x-axis),
//! * ISS with the paper's category counters (the proposed layer;
//!   the overhead of counting is the paper's "only slightly increased
//!   simulation times"),
//! * the detailed hardware model (the CAS-like slow/accurate end).
//!
//! Plus the dispatch-mode comparison: the same FSE kernel under
//! per-instruction stepping and superblock traces, and on the testbed
//! (`Testbed::run`, the hardware ledger under the default dispatch),
//! measured directly and recorded to `BENCH_sim.json`
//! at the workspace root (CI uploads it as an artifact and gates on
//! traced-dispatch and observed-run regressions).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nfp_bench::{
    merge_journals, run_sharded, run_supervised, run_worker_connect, shard_journal_path,
    submit_campaign, CampaignConfig, CampaignRequest, Mode, ServeConfig, Server, ShardConfig,
    SupervisorConfig, WorkerIsolation, WorkerPreset,
};
use nfp_cc::FloatMode;
use nfp_sim::{Dispatch, Machine, MachineConfig};
use nfp_testbed::Testbed;
use nfp_workloads::{fse_kernels, hevc_kernels, machine_for, Kernel, Preset, INPUT_BASE};
use std::time::Instant;

fn kernel() -> Kernel {
    hevc_kernels(&Preset::quick())
        .unwrap()
        .into_iter()
        .next()
        .unwrap()
}

fn instret(kernel: &Kernel) -> u64 {
    let mut machine = machine_for(kernel, FloatMode::Hard).expect("machine");
    machine.run(u64::MAX).unwrap().instret
}

fn bench_sim_layers(c: &mut Criterion) {
    let kernel = kernel();
    let n = instret(&kernel);
    let mut group = c.benchmark_group("sim_speed");
    group.throughput(Throughput::Elements(n));
    group.sample_size(10);

    group.bench_function("bare_iss", |b| {
        b.iter(|| {
            let program =
                nfp_workloads::program(kernel.workload, FloatMode::Hard).expect("program");
            let mut machine = Machine::new(MachineConfig {
                count_categories: false,
                ..MachineConfig::default()
            });
            machine
                .load_image(program.base, &program.words)
                .expect("image fits in RAM");
            machine
                .bus
                .write_bytes(INPUT_BASE, &kernel.input)
                .expect("input fits in RAM");
            machine.run(u64::MAX).unwrap().instret
        })
    });

    group.bench_function("iss_with_counters", |b| {
        b.iter(|| {
            let mut machine = machine_for(&kernel, FloatMode::Hard).expect("machine");
            machine.run(u64::MAX).unwrap().instret
        })
    });

    let testbed = Testbed::new();
    group.bench_function("detailed_hw_model", |b| {
        b.iter(|| {
            let mut machine = machine_for(&kernel, FloatMode::Hard).expect("machine");
            testbed
                .run(&mut machine, kernel.seed, u64::MAX)
                .unwrap()
                .totals
                .cycles
        })
    });

    group.finish();
}

/// Median-of-N wall time of one full kernel run in every dispatch
/// mode, then on the testbed (`Testbed::run`: the hardware ledger under
/// the default dispatch); returns the seconds (`Dispatch::ALL` order,
/// then the observed leg) plus the common instret.
///
/// The reps are interleaved round-robin across the modes rather than
/// run as per-mode blocks: on shared/contended runners the available
/// CPU drifts on a seconds timescale, and a blocked schedule lands an
/// entire mode's sample inside one drift phase, skewing the cross-mode
/// ratios that the CI gate consumes. Round-robin spreads every mode
/// across the same phases so the drift cancels out of the ratios.
fn time_modes(kernel: &Kernel, reps: usize) -> ([f64; 3], u64) {
    let mut times = [(); 3].map(|()| Vec::with_capacity(reps));
    let mut instret = [0u64; 3];
    let testbed = Testbed::new();
    for _ in 0..reps {
        for (i, &dispatch) in Dispatch::ALL.iter().enumerate() {
            let mut machine = machine_for(kernel, FloatMode::Hard).expect("machine");
            machine.set_dispatch(dispatch);
            let start = Instant::now();
            instret[i] = machine.run(u64::MAX).unwrap().instret;
            times[i].push(start.elapsed().as_secs_f64());
        }
        let mut machine = machine_for(kernel, FloatMode::Hard).expect("machine");
        let start = Instant::now();
        instret[2] = testbed
            .run(&mut machine, kernel.seed, u64::MAX)
            .unwrap()
            .run
            .instret;
        times[2].push(start.elapsed().as_secs_f64());
    }
    assert!(
        instret.iter().all(|&n| n == instret[0]),
        "modes must retire identically"
    );
    let medians = times.map(|mut t| {
        t.sort_by(|a, b| a.total_cmp(b));
        t[reps / 2]
    });
    (medians, instret[0])
}

/// Median-of-N wall time of a 200-injection supervised campaign with
/// the write-ahead journal on or off — the cost of the crash-safety
/// layer itself — and optionally with the process-isolated worker
/// pool — the cost of subprocess spawning plus the wire protocol.
fn time_supervised(
    kernel: &Kernel,
    journal: Option<&std::path::Path>,
    isolation: WorkerIsolation,
    reps: usize,
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut cfg = SupervisorConfig::new(CampaignConfig {
            injections: 200,
            ..CampaignConfig::default()
        });
        cfg.journal = journal.map(std::path::Path::to_path_buf);
        cfg.isolation = isolation;
        if isolation == WorkerIsolation::Process {
            // Benches run in their own harness binary, so point the
            // pool at the freshly built `repro` explicitly.
            cfg.worker_bin = Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_repro")));
        }
        let start = Instant::now();
        let outcome = run_supervised(kernel, Mode::Float, &cfg).expect("supervised campaign");
        assert_eq!(
            outcome.process_isolation,
            isolation == WorkerIsolation::Process,
            "requested worker pool did not come up"
        );
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[reps / 2]
}

/// Median-of-N wall time of the same 200-injection campaign split into
/// `shards` supervised sub-campaigns and merged (`seconds_total`), and
/// of the merge integrity pass alone re-run over the finished journals
/// (`seconds_merge`) — the headers, CRCs, digests, and coverage checks
/// without any simulation.
fn time_sharded(kernel: &Kernel, base: &std::path::Path, shards: u32, reps: usize) -> (f64, f64) {
    let mut totals = Vec::with_capacity(reps);
    let mut merges = Vec::with_capacity(reps);
    let campaign = CampaignConfig {
        injections: 200,
        ..CampaignConfig::default()
    };
    for _ in 0..reps {
        let paths: Vec<std::path::PathBuf> = (0..shards)
            .map(|i| shard_journal_path(base, i, shards))
            .collect();
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        let mut sup = SupervisorConfig::new(campaign.clone());
        sup.journal = Some(base.to_path_buf());
        let cfg = ShardConfig::new(sup, shards);
        let start = Instant::now();
        run_sharded(kernel, Mode::Float, &cfg).expect("sharded campaign");
        totals.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        merge_journals(kernel, Mode::Float, &campaign, &paths, false).expect("merge");
        merges.push(start.elapsed().as_secs_f64());
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
    }
    totals.sort_by(|a, b| a.total_cmp(b));
    merges.sort_by(|a, b| a.total_cmp(b));
    (totals[reps / 2], merges[reps / 2])
}

/// Median-of-N wall time of the same 200-injection campaign dispatched
/// over loopback TCP: an in-process coordinator, two connected workers,
/// and a framed submit/report round trip — the full price of remote
/// dispatch (framing, CRCs, digests, heartbeats) with zero real network
/// latency under it.
fn time_remote_once(
    kernel: &Kernel,
    journal: Option<&std::path::Path>,
    audit_rate: f64,
) -> (f64, f64) {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        preset: WorkerPreset::Quick,
        campaigns: Some(if journal.is_some() { 2 } else { 1 }),
        peer_grace: std::time::Duration::from_secs(120),
        journal: journal.map(std::path::Path::to_path_buf),
        audit_rate,
        ..ServeConfig::default()
    })
    .expect("bind loopback coordinator");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || server.run().expect("server run"));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker_connect(&addr, 50))
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let req = CampaignRequest {
        client: "bench".to_string(),
        kernel: kernel.name.clone(),
        mode: Mode::Float,
        campaign: CampaignConfig {
            injections: 200,
            ..CampaignConfig::default()
        },
        shards: 4,
        allow_partial: false,
    };
    let start = Instant::now();
    submit_campaign(&addr, &req).expect("remote campaign");
    let first = start.elapsed().as_secs_f64();
    // On a journaled coordinator a second identical submit is answered
    // from the result cache — time the idempotency dividend too.
    let hit = if journal.is_some() {
        let start = Instant::now();
        submit_campaign(&addr, &req).expect("cached remote campaign");
        start.elapsed().as_secs_f64()
    } else {
        0.0
    };
    server.join().expect("server thread");
    for w in workers {
        assert_eq!(w.join().expect("worker thread"), 0);
    }
    (first, hit)
}

/// Median-of-N wall times of the 200-injection campaign run three ways
/// back-to-back inside each rep — a plain local supervised run, the
/// loopback-TCP remote dispatch, and the remote dispatch with the crash
/// safety layer on (service journal + per-campaign records file) plus a
/// second identical submit answered from the result cache. Interleaving
/// the variants per rep means machine drift over the bench's runtime
/// hits all three alike and cancels out of the overhead ratios, same as
/// the dispatch-mode measurement above. Returns `(local, remote,
/// journaled_remote, cache_hit, audited_remote)` seconds; the last is
/// the remote run with `--audit-rate 1` — every range re-executed by a
/// disjoint worker before it is trusted (DESIGN.md §16), the worst-case
/// price of the Byzantine audit tier.
fn time_remote_suite(kernel: &Kernel, reps: usize) -> (f64, f64, f64, f64, f64) {
    let journal_path = std::env::temp_dir().join("nfp_sim_speed_serve.journal");
    let mut locals = Vec::with_capacity(reps);
    let mut remotes = Vec::with_capacity(reps);
    let mut journaled = Vec::with_capacity(reps);
    let mut hits = Vec::with_capacity(reps);
    let mut audited = Vec::with_capacity(reps);
    for _ in 0..reps {
        let cfg = SupervisorConfig::new(CampaignConfig {
            injections: 200,
            ..CampaignConfig::default()
        });
        let start = Instant::now();
        run_supervised(kernel, Mode::Float, &cfg).expect("local baseline campaign");
        locals.push(start.elapsed().as_secs_f64());
        let (remote, _) = time_remote_once(kernel, None, 0.0);
        remotes.push(remote);
        let _ = std::fs::remove_file(&journal_path);
        let (first, hit) = time_remote_once(kernel, Some(&journal_path), 0.0);
        journaled.push(first);
        hits.push(hit);
        let (aud, _) = time_remote_once(kernel, None, 1.0);
        audited.push(aud);
    }
    let _ = std::fs::remove_file(&journal_path);
    let median = |mut t: Vec<f64>| {
        t.sort_by(|a, b| a.total_cmp(b));
        t[reps / 2]
    };
    (
        median(locals),
        median(remotes),
        median(journaled),
        median(hits),
        median(audited),
    )
}

/// Step-vs-traced measurement plus the campaign machinery's overheads
/// on the FSE kernel; prints the rates and writes `BENCH_sim.json` for
/// the CI artifact.
fn bench_dispatch_and_campaigns(_c: &mut Criterion) {
    let kernel = fse_kernels(&Preset::quick())
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    // Ten interleaved reps of each leg steady the ratios the CI gate
    // reads.
    let reps = 10;
    let ([step_s, traced_s, hw_observed_s], instret) = time_modes(&kernel, reps);
    let step_mips = instret as f64 / step_s / 1e6;
    let traced_mips = instret as f64 / traced_s / 1e6;
    let hw_observed_mips = instret as f64 / hw_observed_s / 1e6;
    let traced_speedup = step_s / traced_s;
    for (label, secs, mips) in [
        ("dispatch/step", step_s, step_mips),
        ("dispatch/traced", traced_s, traced_mips),
        ("dispatch/hw_observed", hw_observed_s, hw_observed_mips),
    ] {
        println!(
            "{:<40} {:>12.3} ms/iter  {:>10.1} Melem/s",
            label,
            secs * 1e3,
            mips
        );
    }
    println!(
        "traced speedup over step on {}: {traced_speedup:.2}x",
        kernel.name
    );

    // Supervisor overhead: the same campaign with the write-ahead
    // journal on and off, so the robustness layer's cost stays visible,
    // and with the process-isolated worker pool, so the price of
    // subprocess spawning plus the wire protocol stays visible too.
    let journal_path = std::env::temp_dir().join("nfp_sim_speed_journal.jsonl");
    let nojournal_s = time_supervised(&kernel, None, WorkerIsolation::Thread, 3);
    let journal_s = time_supervised(&kernel, Some(&journal_path), WorkerIsolation::Thread, 3);
    let _ = std::fs::remove_file(&journal_path);
    let process_s = time_supervised(&kernel, None, WorkerIsolation::Process, 3);
    let journal_overhead = journal_s / nojournal_s;
    let process_overhead = process_s / nojournal_s;
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/no_journal",
        nojournal_s * 1e3
    );
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/journal",
        journal_s * 1e3
    );
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/process_pool",
        process_s * 1e3
    );
    println!(
        "supervisor journal overhead: {journal_overhead:.3}x on {}",
        kernel.name
    );
    println!(
        "supervisor process-pool overhead: {process_overhead:.3}x on {}",
        kernel.name
    );

    // Sharding overhead: the same campaign as four checksummed shard
    // journals merged back together, plus the merge integrity pass
    // alone — the price of distrust (CRCs, digests, coverage checks)
    // relative to one journaled sequential run.
    let shard_base = std::env::temp_dir().join("nfp_sim_speed_shards.jsonl");
    let (sharded_s, merge_s) = time_sharded(&kernel, &shard_base, 4, 3);
    let shard_merge_overhead = merge_s / journal_s;
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/sharded_x4",
        sharded_s * 1e3
    );
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/shard_merge",
        merge_s * 1e3
    );
    println!(
        "shard-merge overhead: {shard_merge_overhead:.3}x of a journaled run on {}",
        kernel.name
    );

    // Remote dispatch overhead: the same campaign over loopback TCP
    // with two connected workers — framing, CRC re-validation, digests,
    // and heartbeats, minus any real network latency — and with the
    // crash-safe coordinator on top (service journal + records files,
    // plus the cache-hit round trip a repeat submit costs). All three
    // variants are interleaved per rep against a fresh local baseline
    // so drift cancels out of the overhead ratios.
    let (remote_base_s, remote_s, serve_journal_s, cache_hit_s, audited_s) =
        time_remote_suite(&kernel, 3);
    let remote_overhead = remote_s / remote_base_s;
    let serve_resume_overhead = serve_journal_s / remote_base_s;
    let audit_overhead = audited_s / remote_s;
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/remote_tcp_x2",
        remote_s * 1e3
    );
    println!(
        "remote dispatch overhead: {remote_overhead:.3}x of a local run on {}",
        kernel.name
    );
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/remote_journaled",
        serve_journal_s * 1e3
    );
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/remote_cache_hit",
        cache_hit_s * 1e3
    );
    println!(
        "journaled remote overhead: {serve_resume_overhead:.3}x of a local run on {} \
         (unjournaled remote: {remote_overhead:.3}x)",
        kernel.name
    );
    println!(
        "{:<40} {:>12.3} ms/iter",
        "supervisor/remote_audited",
        audited_s * 1e3
    );
    println!(
        "audit-everything overhead: {audit_overhead:.3}x of an unaudited remote run on {}",
        kernel.name
    );

    // Hand-rolled JSON: the workspace has no serde, and the schema is
    // a handful of scalars.
    let json = format!(
        "{{\n  \"kernel\": \"{}\",\n  \"instret\": {},\n  \
         \"step_seconds\": {:.6},\n  \"traced_seconds\": {:.6},\n  \
         \"step_mips\": {:.1},\n  \"traced_mips\": {:.1},\n  \
         \"traced_speedup\": {:.3},\n  \
         \"hw_observed_seconds\": {:.6},\n  \"hw_observed_mips\": {:.1},\n  \
         \"supervised_nojournal_seconds\": {:.6},\n  \
         \"supervised_journal_seconds\": {:.6},\n  \
         \"journal_overhead\": {:.3},\n  \
         \"supervised_process_seconds\": {:.6},\n  \
         \"process_overhead\": {:.3},\n  \
         \"sharded_4_seconds\": {:.6},\n  \
         \"shard_merge_seconds\": {:.6},\n  \
         \"shard_merge_overhead\": {:.3},\n  \
         \"remote_tcp_seconds\": {:.6},\n  \
         \"remote_dispatch_overhead\": {:.3},\n  \
         \"serve_journal_seconds\": {:.6},\n  \
         \"serve_resume_overhead\": {:.3},\n  \
         \"cache_hit_seconds\": {:.6},\n  \
         \"audited_remote_seconds\": {:.6},\n  \
         \"audit_overhead\": {:.3}\n}}\n",
        kernel.name,
        instret,
        step_s,
        traced_s,
        step_mips,
        traced_mips,
        traced_speedup,
        hw_observed_s,
        hw_observed_mips,
        nojournal_s,
        journal_s,
        journal_overhead,
        process_s,
        process_overhead,
        sharded_s,
        merge_s,
        shard_merge_overhead,
        remote_s,
        remote_overhead,
        serve_journal_s,
        serve_resume_overhead,
        cache_hit_s,
        audited_s,
        audit_overhead
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, json).expect("write BENCH_sim.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_sim_layers, bench_dispatch_and_campaigns);
criterion_main!(benches);
