//! The campaign worker (`repro worker`) and its lease protocol.
//!
//! A worker serves *leases*: contiguous ranges of a campaign's fault
//! plan. It speaks first, then answers every lease hello it is sent:
//!
//! ```text
//! worker → peer   {"v":2,"kind":"join","preset":...,"wid":...}     once
//! peer → worker   {"v":1,"kind":"hello",...,"range_start":a,...}  per lease
//! worker → peer   {"kind":"ready","golden_instret":N}             per lease
//! worker → peer   {"i":a,"at":...,"attempts":1,"crc":...}         per injection
//! worker → peer   {"fin":1,"records":...,"digest":...,"crc":...}  per lease
//! both ways       {"kind":"hb"}                                   every heartbeat
//! peer → worker   {"kind":"bye"}                                  shutdown
//! worker → peer   {"kind":"error","detail":"..."}                 fatal, then exit
//! ```
//!
//! Every message is one length-prefixed flat-JSON frame (the crate's
//! `net` module), and one session loop serves it over two transports:
//! `repro worker --connect ADDR` joins a remote coordinator over TCP
//! ([`run_worker_connect`], DESIGN.md §14) and reconnects with backoff;
//! plain `repro worker` ([`run_worker`]) serves the supervisor's
//! process pool ([`WorkerIsolation::Process`], §11) over stdin and
//! stdout, one injection per lease, and exits when stdin closes.
//!
//! The hello carries the journal header's binding fields, so the worker
//! rebuilds the *same* deterministic rig the other side would have used;
//! `ready` echoes the golden instruction count as a cross-check,
//! records are journal-identical lines with their CRC, and the fin's
//! plan-order digest seals the range. The receiving side runs every
//! frame through the one lease checker, next to the journal codec in
//! the crate's `journal` module.
//! Heartbeats come from a side thread and continue through replays, so
//! only a frozen or dead worker ever goes silent.
//!
//! [`WorkerIsolation::Process`]: crate::supervisor::WorkerIsolation::Process

use crate::backoff::{backoff_sleep, splitmix64};
use crate::campaign::{CampaignConfig, CampaignRig, InjectionRecord};
use crate::flatjson::{esc, parse_flat, Obj};
use crate::journal::{fin_line, record_line, FinRecord, JournalHeader};
use crate::net::{
    render_join, tick_socket, violation, write_frame, FrameReader, JoinFrame, Recv, HB_FRAME,
};
use crate::supervisor::{quarantine_record, replay_guarded, replay_spinning, Replayed};
use nfp_core::{NfpError, Outcome};
use nfp_sim::fault::plan;
use nfp_sim::Fault;
use nfp_workloads::Preset;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload preset a worker process rebuilds its kernel registry from.
/// Carried by name in the hello frame ([`Preset`] itself is a bag of
/// sizes; the two named presets are the only ones the CLI can ask for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerPreset {
    /// [`Preset::quick`] — reduced workload sizes.
    Quick,
    /// [`Preset::paper`] — evaluation-scale workloads.
    Paper,
}

impl WorkerPreset {
    /// Wire name of this preset.
    pub fn name(self) -> &'static str {
        match self {
            WorkerPreset::Quick => "quick",
            WorkerPreset::Paper => "paper",
        }
    }

    /// Inverse of [`WorkerPreset::name`].
    pub fn from_name(s: &str) -> Option<WorkerPreset> {
        match s {
            "quick" => Some(WorkerPreset::Quick),
            "paper" => Some(WorkerPreset::Paper),
            _ => None,
        }
    }

    /// The workload sizes this preset names.
    pub fn build(self) -> Preset {
        match self {
            WorkerPreset::Quick => Preset::quick(),
            WorkerPreset::Paper => Preset::paper(),
        }
    }
}

fn opt_u64_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

// ---------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------

/// A lease: the campaign identity and plan range (the journal-header
/// binding fields) plus the knobs only a worker needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerHello {
    /// Campaign binding — same fields, same meaning as the journal
    /// header, so the worker rebuilds the identical deterministic rig;
    /// the range fields name the leased slice of the plan.
    pub(crate) header: JournalHeader,
    /// Preset to rebuild the kernel registry from.
    pub(crate) preset: WorkerPreset,
    /// Heartbeat interval the worker should keep.
    pub(crate) heartbeat_ms: u64,
    /// Test hook: replay this plan index with a patched self-loop.
    pub(crate) spin_at: Option<u64>,
    /// Test hook: `abort()` when asked to replay this plan index.
    pub(crate) abort_at: Option<u64>,
}

pub(crate) fn render_hello(h: &WorkerHello) -> String {
    format!(
        "{{\"v\":1,\"kind\":\"hello\",{},\"preset\":\"{}\",\"heartbeat_ms\":{},\"spin_at\":{},\"abort_at\":{}}}",
        h.header.render_fields(),
        h.preset.name(),
        h.heartbeat_ms,
        opt_u64_json(h.spin_at),
        opt_u64_json(h.abort_at),
    )
}

pub(crate) fn parse_hello(line: &str) -> Result<WorkerHello, NfpError> {
    let obj = Obj(parse_flat(line).ok_or_else(|| violation("malformed hello frame"))?);
    if obj.str("kind") != Some("hello") {
        return Err(violation(format!(
            "expected a hello frame, got kind {:?}",
            obj.str("kind")
        )));
    }
    match obj.u64("v") {
        Some(1) => {}
        v => {
            return Err(violation(format!(
                "worker protocol version mismatch: supervisor speaks {}, this worker speaks v1",
                v.map_or_else(|| "(none)".to_string(), |n| format!("v{n}")),
            )))
        }
    }
    let field = |k: &str| violation(format!("hello lacks \"{k}\""));
    let header = JournalHeader::from_obj(&obj).map_err(field)?;
    let preset = WorkerPreset::from_name(obj.str("preset").ok_or_else(|| field("preset"))?)
        .ok_or_else(|| violation("hello names an unknown preset"))?;
    Ok(WorkerHello {
        header,
        preset,
        heartbeat_ms: obj
            .u64("heartbeat_ms")
            .ok_or_else(|| field("heartbeat_ms"))?,
        spin_at: obj.opt_u64("spin_at").ok_or_else(|| field("spin_at"))?,
        abort_at: obj.opt_u64("abort_at").ok_or_else(|| field("abort_at"))?,
    })
}

pub(crate) fn render_ready(golden_instret: u64) -> String {
    format!("{{\"kind\":\"ready\",\"golden_instret\":{golden_instret}}}")
}

pub(crate) fn render_error(detail: &str) -> String {
    format!("{{\"kind\":\"error\",\"detail\":\"{}\"}}", esc(detail))
}

// ---------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------

/// How long a connect attempt may block before it counts as a failed
/// attempt (and backs off).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the worker tolerates total coordinator silence while idle
/// before it drops the connection and reconnects. The coordinator
/// heartbeats idle peers every few hundred milliseconds, so this is an
/// order of magnitude of slack.
const COORD_SILENCE: Duration = Duration::from_secs(10);

/// Heartbeat interval before the first lease names one.
const DEFAULT_HEARTBEAT_MS: u64 = 200;

/// Writes one frame to the shared write side. Whole frames go out
/// under the lock so the heartbeat thread can never interleave bytes
/// into a record.
fn send<W: Write>(writer: &Mutex<W>, frame: &str) -> std::io::Result<()> {
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    write_frame(&mut *w, frame)
}

/// Clears the heartbeat thread's liveness flag on every session exit
/// path, so a stale thread never keeps writing into a dead stream.
struct Alive(Arc<AtomicBool>);

impl Drop for Alive {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// The deterministic campaign state a hello names. A worker keeps it
/// between leases: rebuilding rig and plan costs a golden run, so
/// consecutive leases of the same campaign reuse them.
struct LeaseRig {
    header: JournalHeader,
    preset: WorkerPreset,
    campaign: CampaignConfig,
    rig: CampaignRig,
    faults: Vec<Fault>,
}

fn build_rig(hello: &WorkerHello) -> Result<LeaseRig, NfpError> {
    let id = &hello.header.id;
    let campaign = id.config();
    let kernels = nfp_workloads::all_kernels(&hello.preset.build())?;
    let kernel = kernels
        .iter()
        .find(|k| k.name == id.kernel)
        .ok_or_else(|| {
            violation(format!(
                "hello names kernel {:?}, which the {} preset does not contain",
                id.kernel,
                hello.preset.name()
            ))
        })?;
    let (rig, space) = CampaignRig::prepare(kernel, id.mode, &campaign)?;
    let faults = plan(&space, campaign.injections, campaign.seed);
    Ok(LeaseRig {
        header: hello.header.clone(),
        preset: hello.preset,
        campaign,
        rig,
        faults,
    })
}

/// How one session ended.
enum SessionEnd {
    /// The peer said goodbye: clean exit, no reconnect.
    Bye,
    /// The input ended on a frame boundary. `leases` counts leases
    /// completed this session.
    Closed { leases: u64 },
    /// The connection (or the peer) failed; over TCP, reconnect with
    /// backoff. Any lease completed this session resets the
    /// consecutive-failure budget.
    Lost { leases: u64, detail: String },
}

/// Why a lease could not be completed.
enum LeaseFail {
    /// The transport failed mid-lease: reconnect and let the
    /// coordinator re-dispatch the shard.
    Send(String),
    /// A deterministic error (unknown kernel, golden mismatch, replay
    /// error): reconnecting would hit it again, so the worker reports
    /// it and exits.
    Fatal(NfpError),
}

/// Test-only saboteur knobs for `repro worker --connect`: lie on a
/// deterministic `rate` fraction of records, keyed by `seed` and the
/// plan index. A lying worker flips only the recorded *outcome* — the
/// fault fields, CRC, and fin digest all cover the falsified record, so
/// every transport-level integrity check passes and only redundant
/// re-execution (the audit tier) can catch it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiePlan {
    /// Fraction of records to falsify, in `[0, 1]`.
    pub rate: f64,
    /// Seed decorrelating this liar's choices from the audit sampler.
    pub seed: u64,
}

impl LiePlan {
    /// Whether this plan falsifies the record at `index` — a pure
    /// function of `(seed, index)` so reconnects and retries lie
    /// identically, which keeps the liar's fin digests self-consistent.
    pub(crate) fn lies_at(self, index: usize) -> bool {
        // Same 53-bit uniform-fraction construction as the coordinator's
        // audit sampler; the salt keeps seed 0 from degenerating.
        let x = splitmix64(self.seed ^ (index as u64) ^ 0x5ab0_7a9e_11e5_eed1);
        ((x >> 11) as f64) / ((1u64 << 53) as f64) < self.rate
    }
}

/// A stable per-worker identity sent in the join frame: pid in the high
/// bits (decorrelates a fleet of processes), a process-global sequence
/// starting at 1 in the low bits (decorrelates threads sharing a pid —
/// the in-process chaos tests run several workers per test binary).
/// Never 0: zero is the wire's "peer sent no identity" sentinel and is
/// exempt from blacklisting.
fn fresh_wid() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 20) | (SEQ.fetch_add(1, Ordering::Relaxed) & 0xf_ffff)
}

/// The `repro worker` entry point of the supervisor's process pool:
/// one lease session over stdin and stdout. Returns the process exit
/// code — 0 once stdin closes, 1 after a fatal error, which the worker
/// first reports in an `error` frame.
pub fn run_worker() -> i32 {
    let writer = match stdout_file() {
        Ok(out) => Arc::new(Mutex::new(out)),
        Err(e) => {
            eprintln!("worker: cannot open stdout: {e}");
            return 1;
        }
    };
    let join = JoinFrame {
        preset: WorkerPreset::Quick,
        reconnects: 0,
        wid: fresh_wid(),
    };
    let mut stdin = std::io::stdin().lock();
    match session(&mut stdin, &writer, "stdin", &join, None, None, &mut None) {
        Ok(SessionEnd::Bye | SessionEnd::Closed { .. }) => 0,
        Ok(SessionEnd::Lost { detail, .. }) => {
            let _ = send(&writer, &render_error(&detail));
            1
        }
        Err(_) => 1,
    }
}

/// Standard output as an unbuffered file. `Stdout` is line-buffered, so
/// a length prefix holding a `\n` byte would split a frame into two
/// writes, and a worker killed between them would leave a torn frame.
/// One write of a small frame to a pipe is atomic.
#[cfg(unix)]
fn stdout_file() -> std::io::Result<std::fs::File> {
    use std::os::fd::AsFd;
    Ok(std::io::stdout().as_fd().try_clone_to_owned()?.into())
}

#[cfg(not(unix))]
fn stdout_file() -> std::io::Result<std::io::Stdout> {
    Ok(std::io::stdout())
}

/// The `repro worker --connect <addr>` entry point: joins a
/// coordinator over TCP, executes shard leases until told goodbye, and
/// survives coordinator restarts with capped jittered backoff. Returns
/// the process exit code — 0 after a `bye`, 1 on a fatal error or an
/// exhausted reconnect budget.
pub fn run_worker_connect(addr: &str, max_retries: u32) -> i32 {
    run_worker_connect_with(addr, max_retries, None)
}

/// [`run_worker_connect`] with an optional [`LiePlan`] — the test-only
/// `--lie-rate`/`--lie-seed` saboteur that returns plausible
/// wrong-but-CRC-valid outcomes to exercise the coordinator's audit
/// tier over a live socket.
pub fn run_worker_connect_with(addr: &str, max_retries: u32, lies: Option<LiePlan>) -> i32 {
    // Jitter key: no campaign seed exists before a lease arrives, and
    // reconnect timing never influences results — the pid decorrelates
    // a fleet of workers launched together.
    let seed = u64::from(std::process::id());
    let wid = fresh_wid();
    if let Some(l) = lies {
        eprintln!(
            "worker: SABOTEUR enabled — lying on ~{:.0}% of records (seed {:#x}, wid {wid})",
            l.rate * 100.0,
            l.seed
        );
    }
    let mut reconnects = 0u64;
    let mut failures = 0u32;
    let mut cache: Option<LeaseRig> = None;
    loop {
        let (leases, detail) = match connect_session(addr, reconnects, wid, lies, &mut cache) {
            Ok(SessionEnd::Bye) => {
                eprintln!("worker: coordinator said goodbye; exiting");
                return 0;
            }
            Ok(SessionEnd::Closed { leases }) => {
                (leases, "coordinator closed the connection".to_string())
            }
            Ok(SessionEnd::Lost { leases, detail }) => (leases, detail),
            Err(e) => {
                eprintln!("worker: fatal: {e}");
                return 1;
            }
        };
        if leases > 0 {
            failures = 0;
        }
        failures += 1;
        if failures > max_retries {
            let e = NfpError::Net {
                addr: addr.to_string(),
                detail: format!(
                    "gave up after {max_retries} consecutive failed connections: {detail}"
                ),
            };
            eprintln!("worker: {e}");
            return 1;
        }
        eprintln!(
            "worker: connection lost ({detail}); reconnect attempt \
             {failures}/{max_retries} after backoff"
        );
        backoff_sleep(seed, 0, failures, &AtomicBool::new(false));
        reconnects += 1;
    }
}

pub(crate) fn tcp_connect(addr: &str) -> Result<TcpStream, String> {
    let addrs = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve '{addr}': {e}"))?;
    let mut last = format!("'{addr}' resolved to no addresses");
    for sa in addrs {
        match TcpStream::connect_timeout(&sa, CONNECT_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = format!("connect to {sa} failed: {e}"),
        }
    }
    Err(last)
}

/// One TCP session: connect, then the lease session over the socket.
/// `Err` is fatal; everything transport-shaped comes back as
/// [`SessionEnd::Lost`].
fn connect_session(
    addr: &str,
    reconnects: u64,
    wid: u64,
    lies: Option<LiePlan>,
    cache: &mut Option<LeaseRig>,
) -> Result<SessionEnd, NfpError> {
    let lost = |detail: String| Ok(SessionEnd::Lost { leases: 0, detail });
    let mut stream = match tcp_connect(addr) {
        Ok(s) => s,
        Err(detail) => return lost(detail),
    };
    let writer = match tick_socket(&stream).and_then(|()| stream.try_clone()) {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => return lost(format!("socket setup: {e}")),
    };
    let join = JoinFrame {
        preset: cache.as_ref().map_or(WorkerPreset::Quick, |c| c.preset),
        reconnects,
        wid,
    };
    session(
        &mut stream,
        &writer,
        addr,
        &join,
        Some(COORD_SILENCE),
        lies,
        cache,
    )
}

/// The lease session over any transport: send the join, heartbeat from
/// a side thread, then serve leases until the input ends, the peer says
/// goodbye, or something fails. `silence` bounds how long the peer may
/// say nothing at all; blocking pipe reads never time out, so the piped
/// worker passes `None`. `Err` is fatal, and the peer has been told in
/// an `error` frame.
fn session<W: Write + Send + 'static>(
    input: &mut impl Read,
    writer: &Arc<Mutex<W>>,
    peer: &str,
    join: &JoinFrame,
    silence: Option<Duration>,
    lies: Option<LiePlan>,
    cache: &mut Option<LeaseRig>,
) -> Result<SessionEnd, NfpError> {
    let lost = |leases: u64, detail: String| Ok(SessionEnd::Lost { leases, detail });
    if let Err(e) = send(writer, &render_join(join)) {
        return lost(0, format!("send join: {e}"));
    }

    // The heartbeat keeps beating *through* replays: the peer's idle
    // limit must only ever see a frozen or dead worker (SIGSTOP, death,
    // scheduler starvation), never a slow replay.
    let alive = Arc::new(AtomicBool::new(true));
    let hb_ms = Arc::new(AtomicU64::new(DEFAULT_HEARTBEAT_MS));
    {
        let (alive, hb_ms, writer) = (Arc::clone(&alive), Arc::clone(&hb_ms), Arc::clone(writer));
        std::thread::spawn(move || {
            while alive.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(hb_ms.load(Ordering::Relaxed).max(1)));
                if !alive.load(Ordering::Relaxed) || send(&writer, HB_FRAME).is_err() {
                    break;
                }
            }
        });
    }
    let _alive = Alive(Arc::clone(&alive));

    let mut reader = FrameReader::new(peer);
    let mut leases = 0u64;
    let mut idle = Instant::now();
    loop {
        let line = match reader.recv(input) {
            Err(e) => return lost(leases, e.to_string()),
            Ok(Recv::Eof) => return Ok(SessionEnd::Closed { leases }),
            Ok(Recv::Idle) => match silence {
                Some(limit) if idle.elapsed() > limit => {
                    return lost(
                        leases,
                        format!("coordinator silent for {}s while idle", limit.as_secs()),
                    )
                }
                _ => continue,
            },
            Ok(Recv::Frame(line)) => line,
        };
        idle = Instant::now();
        let Some(obj) = parse_flat(&line).map(Obj) else {
            return lost(
                leases,
                format!("unparseable frame from coordinator: {line:?}"),
            );
        };
        match obj.str("kind") {
            Some("hb") => {}
            Some("bye") => return Ok(SessionEnd::Bye),
            Some("hello") => {
                let outcome = match parse_hello(&line) {
                    Ok(hello) => {
                        hb_ms.store(hello.heartbeat_ms.max(1), Ordering::Relaxed);
                        execute_lease(&hello, cache, lies, writer)
                    }
                    Err(e) => Err(LeaseFail::Fatal(e)),
                };
                match outcome {
                    Ok(()) => {
                        leases += 1;
                        idle = Instant::now();
                    }
                    Err(LeaseFail::Send(detail)) => return lost(leases, detail),
                    Err(LeaseFail::Fatal(e)) => {
                        let _ = send(writer, &render_error(&e.to_string()));
                        return Err(e);
                    }
                }
            }
            other => {
                return lost(
                    leases,
                    format!("unknown frame kind {other:?} from coordinator"),
                )
            }
        }
    }
}

/// Executes one lease: (re)build the deterministic rig if the campaign
/// binding changed, cross-check the golden count, replay the leased
/// range in plan order, and stream journal-identical record lines
/// followed by a digest-carrying fin.
fn execute_lease<W: Write>(
    hello: &WorkerHello,
    cache: &mut Option<LeaseRig>,
    lies: Option<LiePlan>,
    writer: &Mutex<W>,
) -> Result<(), LeaseFail> {
    let stale = !cache
        .as_ref()
        .is_some_and(|c| c.header.same_campaign(&hello.header) && c.preset == hello.preset);
    if stale {
        // Drop the old rig before building its replacement: two full
        // rigs of different campaigns never need to coexist.
        *cache = None;
        eprintln!(
            "worker: building rig for '{}' ({} injections, seed {:#x})",
            hello.header.id.kernel, hello.header.id.injections, hello.header.id.seed
        );
        *cache = Some(build_rig(hello).map_err(LeaseFail::Fatal)?);
    }
    let c = cache.as_mut().expect("rig built above");
    if c.rig.golden_instret != hello.header.golden_instret {
        return Err(LeaseFail::Fatal(violation(format!(
            "golden instruction count mismatch: coordinator expects {}, this worker's rig ran {} \
             — preset or kernel registry skew between the two binaries",
            hello.header.golden_instret, c.rig.golden_instret
        ))));
    }
    let (start, end) = hello.header.range();
    if start > end || end > c.faults.len() {
        return Err(LeaseFail::Fatal(violation(format!(
            "lease range {start}..{end} does not fit the {}-injection plan",
            c.faults.len()
        ))));
    }
    let send_or = |frame: &str, what: &str| {
        send(writer, frame).map_err(|e| LeaseFail::Send(format!("{what}: {e}")))
    };
    send_or(&render_ready(c.rig.golden_instret), "send ready")?;

    let wall = c.campaign.wall;
    let mut slots: Vec<Option<(InjectionRecord, u32)>> = vec![None; end - start];
    for (slot, (index, &fault)) in slots
        .iter_mut()
        .zip((start..end).zip(&c.faults[start..end]))
    {
        if hello.abort_at == Some(index as u64) {
            // Test hook: die the way a heap-corrupting harness bug
            // would — no unwinding, no goodbye frame.
            std::process::abort();
        }
        let spin = hello.spin_at == Some(index as u64);
        let (replayed, attempts) = replay_guarded(
            &mut c.rig,
            |rig, _| {
                if spin {
                    replay_spinning(rig, &fault, wall)
                } else {
                    rig.run_one(&fault, wall)
                }
            },
            || build_rig(hello).map(|fresh| fresh.rig),
        )
        .map_err(LeaseFail::Fatal)?;
        let record = match replayed {
            Replayed::Record(record) => record,
            Replayed::Panicked { rig_lost: true, .. } => {
                return Err(LeaseFail::Fatal(violation(format!(
                    "replay of injection {index} panicked and the rig could not be rebuilt"
                ))))
            }
            Replayed::Panicked { .. } => {
                eprintln!("worker: quarantined injection {index} after {attempts} attempts");
                quarantine_record(fault)
            }
        };
        let record = match lies {
            // The lie happens *before* the record line, the slot fill,
            // and therefore the fin digest: the saboteur's CRC, stream,
            // and digest are all internally consistent — only a second
            // opinion from a disjoint worker can expose it.
            Some(l) if l.lies_at(index) => falsify(record),
            _ => record,
        };
        send_or(&record_line(index, &record, attempts), "send record")?;
        *slot = Some((record, attempts));
    }
    send_or(&fin_line(&FinRecord::seal(start, &slots)), "send fin")?;
    Ok(())
}

/// Falsifies one record the way a subtly-broken (or malicious) worker
/// would: the fault fields stay truthful — they are what the
/// coordinator cross-checks against its own plan — and only the
/// *outcome* flips to a plausible neighbour. Masked becomes SDC (a
/// false alarm that inflates the vulnerability factor); everything else
/// collapses to masked (a cover-up that deflates it).
fn falsify(mut record: InjectionRecord) -> InjectionRecord {
    record.outcome = match record.outcome {
        Outcome::Masked => Outcome::Sdc,
        _ => Outcome::Masked,
    };
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sim::FaultTarget;
    use nfp_sparc::Category;

    fn hello() -> WorkerHello {
        WorkerHello {
            header: JournalHeader {
                id: crate::identity::Identity {
                    kernel: "fse_img00".to_string(),
                    mode: crate::evaluation::Mode::Float,
                    injections: 24,
                    seed: 0xfeed_5eed,
                    checkpoints: 8,
                    escalation: 2,
                    wall_ms: Some(400),
                },
                golden_instret: 123_456,
                shard_index: 1,
                shard_count: 4,
                range_start: 6,
                range_end: 12,
            },
            preset: WorkerPreset::Quick,
            heartbeat_ms: 200,
            spin_at: None,
            abort_at: Some(5),
        }
    }

    #[test]
    fn hello_roundtrips() {
        let h = hello();
        assert_eq!(parse_hello(&render_hello(&h)).unwrap(), h);
        let plain = WorkerHello {
            spin_at: Some(3),
            abort_at: None,
            ..hello()
        };
        assert_eq!(parse_hello(&render_hello(&plain)).unwrap(), plain);
    }

    #[test]
    fn version_mismatch_handshake_is_a_protocol_violation() {
        let v2 = render_hello(&hello()).replacen("\"v\":1", "\"v\":2", 1);
        match parse_hello(&v2) {
            Err(NfpError::ProtocolViolation { detail }) => {
                assert!(detail.contains("version"), "detail: {detail}");
                assert!(detail.contains("v2"), "detail: {detail}");
            }
            other => panic!("expected ProtocolViolation, got {other:?}"),
        }
        // A frame that is not a hello at all is also a violation.
        assert!(parse_hello(HB_FRAME).is_err());
    }

    #[test]
    fn lie_plans_are_deterministic_and_hit_the_requested_fraction() {
        let plan = LiePlan {
            rate: 0.25,
            seed: 9,
        };
        let first: Vec<bool> = (0..4096).map(|i| plan.lies_at(i)).collect();
        let second: Vec<bool> = (0..4096).map(|i| plan.lies_at(i)).collect();
        assert_eq!(first, second, "lie decisions must be pure");
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (700..=1350).contains(&hits),
            "rate 0.25 over 4096 indices hit {hits} times"
        );
        let always = LiePlan { rate: 1.0, seed: 9 };
        assert!((0..256).all(|i| always.lies_at(i)));
        let never = LiePlan { rate: 0.0, seed: 9 };
        assert!(!(0..256).any(|i| never.lies_at(i)));
        // A different seed reshuffles which indices are lied about.
        let other = LiePlan {
            rate: 0.25,
            seed: 10,
        };
        assert_ne!(
            first,
            (0..4096).map(|i| other.lies_at(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn falsified_records_flip_only_the_outcome() {
        let truth = InjectionRecord {
            fault: Fault {
                at: 8_317,
                target: FaultTarget::Ram {
                    addr: 0x4100_0040,
                    bit: 31,
                },
            },
            category: Some(Category::MemLoad),
            outcome: Outcome::Masked,
        };
        let lie = falsify(truth.clone());
        assert_eq!(lie.outcome, Outcome::Sdc, "masked inflates to SDC");
        assert_eq!(lie.fault, truth.fault, "fault fields stay truthful");
        assert_eq!(lie.category, truth.category);
        for covered in [
            Outcome::Sdc,
            Outcome::Trap,
            Outcome::Hang,
            Outcome::HarnessFault,
        ] {
            let rec = InjectionRecord {
                outcome: covered,
                ..truth.clone()
            };
            assert_eq!(
                falsify(rec).outcome,
                Outcome::Masked,
                "{covered:?} covers up"
            );
        }
    }

    #[test]
    fn fresh_wids_are_unique_and_never_the_unattributable_zero() {
        let a = fresh_wid();
        let b = fresh_wid();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(
            a, b,
            "two workers in one process must be attributable apart"
        );
        assert_eq!(
            a >> 20,
            u64::from(std::process::id()),
            "pid in the high bits"
        );
    }
}
