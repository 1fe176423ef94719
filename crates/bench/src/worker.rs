//! The campaign worker-process protocol and the worker side of it.
//!
//! [`crate::supervisor`] in [`WorkerIsolation::Process`] mode drives
//! one `repro worker` subprocess per slot over line-delimited flat JSON
//! on stdin/stdout (the same grammar as the campaign journal — see
//! [`crate::flatjson`]). The conversation is deliberately tiny:
//!
//! ```text
//! supervisor → worker   {"v":1,"kind":"hello","kernel":...}   once
//! worker → supervisor   {"kind":"ready","golden_instret":N}   once
//! supervisor → worker   {"kind":"run","i":17}                 per injection
//! worker → supervisor   {"kind":"done","i":17,...}            per injection
//! worker → supervisor   {"kind":"hb"}                         while idle
//! worker → supervisor   {"kind":"error","detail":"..."}       fatal, then exit
//! ```
//!
//! The hello carries the exact campaign-binding fields of the journal
//! header, so a worker rebuilds the *same* deterministic rig the
//! supervisor would have used in-process; the `ready` reply echoes the
//! golden instruction count as a cross-check that both sides really
//! built the same campaign. Heartbeats are gated on a busy flag: a
//! worker is silent *by design* mid-replay (the deadline watchdog owns
//! that phase) and audible everywhere else (handshake, idle), so idle
//! silence is always a dead or wedged process, never a slow replay.
//!
//! Framing is one JSON object per `\n`-terminated line, capped at
//! [`MAX_LINE`]. Anything else — an oversized line, a line torn by a
//! dying peer, invalid UTF-8, an unknown or out-of-order frame — is a
//! [`NfpError::ProtocolViolation`], never a hang and never a panic.
//!
//! [`WorkerIsolation::Process`]: crate::supervisor::WorkerIsolation::Process

use crate::backoff::{backoff_sleep, splitmix64};
use crate::campaign::{CampaignConfig, CampaignRig, InjectionRecord};
use crate::flatjson::{esc, parse_flat, Obj};
use crate::net::{render_join, write_frame, FrameReader, JoinFrame, Recv};
use crate::supervisor::{
    fin_line, quarantine_record, range_digest, record_line, replay_spinning, target_fields,
    target_from_fields, FinRecord, JournalHeader,
};
use nfp_core::{NfpError, Outcome};
use nfp_sim::fault::plan;
use nfp_sim::Fault;
use nfp_sparc::Category;
use nfp_workloads::Preset;
use std::io::{BufRead, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Longest protocol line either side will accept. Real frames are a few
/// hundred bytes; the cap exists so a corrupt or hostile peer cannot
/// make the reader buffer unboundedly.
pub(crate) const MAX_LINE: usize = 64 * 1024;

fn violation(detail: impl Into<String>) -> NfpError {
    NfpError::ProtocolViolation {
        detail: detail.into(),
    }
}

/// Reads one `\n`-terminated protocol line. `Ok(None)` is a clean EOF
/// (the peer closed the stream between frames); everything irregular —
/// an oversized line, a final line torn mid-write, invalid UTF-8 — is a
/// [`NfpError::ProtocolViolation`].
pub(crate) fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<String>, NfpError> {
    let mut buf = Vec::new();
    let n = r
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|e| violation(format!("frame read failed: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        if n > MAX_LINE {
            return Err(violation(format!(
                "oversized frame: line exceeds {MAX_LINE} bytes"
            )));
        }
        return Err(violation(format!(
            "truncated frame: stream ended mid-line after {n} bytes"
        )));
    }
    buf.pop();
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| violation("frame is not valid UTF-8"))
}

fn opt_u64_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

// ---------------------------------------------------------------------
// Supervisor → worker frames.
// ---------------------------------------------------------------------

/// The handshake the supervisor opens each worker process with: the
/// campaign identity (the journal-header binding fields) plus the
/// knobs only a subprocess needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerHello {
    /// Campaign binding — same fields, same meaning as the journal
    /// header, so the worker rebuilds the identical deterministic rig.
    pub(crate) header: JournalHeader,
    /// Preset to rebuild the kernel registry from.
    pub(crate) preset: WorkerPreset,
    /// Heartbeat emission interval while idle.
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

pub(crate) fn render_run(index: usize) -> String {
    format!("{{\"kind\":\"run\",\"i\":{index}}}")
}

pub(crate) fn parse_run(line: &str) -> Result<usize, NfpError> {
    let obj = Obj(parse_flat(line).ok_or_else(|| violation("malformed run frame"))?);
    if obj.str("kind") != Some("run") {
        return Err(violation(format!(
            "expected a run frame, got kind {:?}",
            obj.str("kind")
        )));
    }
    usize::try_from(
        obj.u64("i")
            .ok_or_else(|| violation("run frame lacks \"i\""))?,
    )
    .map_err(|_| violation("run frame index overflows usize"))
}

// ---------------------------------------------------------------------
// Worker → supervisor frames.
// ---------------------------------------------------------------------

/// One frame a worker process sends upstream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reply {
    /// Handshake complete; echoes the golden instruction count the
    /// worker's own rig measured, as a campaign-identity cross-check.
    Ready { golden_instret: u64 },
    /// Idle keepalive.
    Hb,
    /// One injection replayed and classified.
    Done {
        index: usize,
        record: InjectionRecord,
    },
    /// The worker hit a deterministic error and is about to exit.
    Error { detail: String },
}

pub(crate) fn render_ready(golden_instret: u64) -> String {
    format!("{{\"kind\":\"ready\",\"golden_instret\":{golden_instret}}}")
}

pub(crate) const HB_FRAME: &str = "{\"kind\":\"hb\"}";

pub(crate) fn render_done(index: usize, rec: &InjectionRecord) -> String {
    let (kind, a, b) = target_fields(rec.fault.target);
    format!(
        "{{\"kind\":\"done\",\"i\":{},\"at\":{},\"target\":\"{}\",\"a\":{},\"b\":{},\"cat\":{},\"outcome\":\"{}\"}}",
        index,
        rec.fault.at,
        kind,
        a,
        b,
        rec.category
            .map_or_else(|| "null".to_string(), |c| c.index().to_string()),
        rec.outcome.name(),
    )
}

pub(crate) fn render_error(detail: &str) -> String {
    format!("{{\"kind\":\"error\",\"detail\":\"{}\"}}", esc(detail))
}

pub(crate) fn parse_reply(line: &str) -> Result<Reply, NfpError> {
    let bad = |what: &str| violation(format!("{what} in worker frame: {line:?}"));
    let obj = Obj(parse_flat(line).ok_or_else(|| bad("malformed JSON"))?);
    match obj.str("kind") {
        Some("hb") => Ok(Reply::Hb),
        Some("ready") => Ok(Reply::Ready {
            golden_instret: obj
                .u64("golden_instret")
                .ok_or_else(|| bad("missing golden_instret"))?,
        }),
        Some("error") => Ok(Reply::Error {
            detail: obj
                .str("detail")
                .ok_or_else(|| bad("missing detail"))?
                .to_string(),
        }),
        Some("done") => {
            let index = usize::try_from(obj.u64("i").ok_or_else(|| bad("missing index"))?)
                .map_err(|_| bad("index overflow"))?;
            let fault = Fault {
                at: obj.u64("at").ok_or_else(|| bad("missing at"))?,
                target: target_from_fields(
                    obj.str("target").ok_or_else(|| bad("missing target"))?,
                    obj.u64("a").ok_or_else(|| bad("missing a"))?,
                    obj.u64("b").ok_or_else(|| bad("missing b"))?,
                )
                .ok_or_else(|| bad("unknown fault target"))?,
            };
            let category = match obj.opt_u64("cat").ok_or_else(|| bad("missing cat"))? {
                None => None,
                Some(i) => Some(
                    *usize::try_from(i)
                        .ok()
                        .and_then(|i| Category::ALL.get(i))
                        .ok_or_else(|| bad("category out of range"))?,
                ),
            };
            let outcome =
                Outcome::from_name(obj.str("outcome").ok_or_else(|| bad("missing outcome"))?)
                    .ok_or_else(|| bad("unknown outcome"))?;
            Ok(Reply::Done {
                index,
                record: InjectionRecord {
                    fault,
                    category,
                    outcome,
                },
            })
        }
        other => Err(violation(format!(
            "unknown worker frame kind {other:?}: {line:?}"
        ))),
    }
}

/// Validates that a done frame answers the injection actually in
/// flight. The protocol is strictly one-run-one-done, so any other
/// index means the two sides have lost sync and the worker must go.
pub(crate) fn check_index(got: usize, expect: usize) -> Result<(), NfpError> {
    if got == expect {
        Ok(())
    } else {
        Err(violation(format!(
            "out-of-order done: worker answered injection {got} while {expect} was in flight"
        )))
    }
}

// ---------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------

/// Writes one frame to stdout, atomically and flushed (the supervisor
/// reads line-by-line; a buffered half-line would look like a torn
/// frame).
fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(line.as_bytes());
    let _ = out.write_all(b"\n");
    let _ = out.flush();
}

/// The `repro worker` entry point: speaks the protocol on
/// stdin/stdout until EOF. Returns the process exit code — 0 for a
/// clean shutdown (supervisor closed stdin), 1 after emitting an
/// `error` frame.
pub fn run_worker() -> i32 {
    match worker_main() {
        Ok(()) => 0,
        Err(e) => {
            emit(&render_error(&e.to_string()));
            1
        }
    }
}

fn worker_main() -> Result<(), NfpError> {
    let stdin = std::io::stdin();
    let mut stdin = std::io::BufReader::new(stdin.lock());
    let Some(line) = read_frame(&mut stdin)? else {
        // EOF before the hello: the supervisor was only probing that
        // worker processes can spawn at all.
        return Ok(());
    };
    let hello = parse_hello(&line)?;

    // Heartbeats start before the (potentially slow) rig build so the
    // supervisor's liveness watchdog covers the handshake too. The
    // busy gate silences them for exactly the span of each replay.
    let busy = Arc::new(AtomicBool::new(false));
    let alive = Arc::new(AtomicBool::new(true));
    let interval = Duration::from_millis(hello.heartbeat_ms.max(1));
    {
        let (busy, alive) = (Arc::clone(&busy), Arc::clone(&alive));
        std::thread::spawn(move || {
            while alive.load(Ordering::Relaxed) {
                if !busy.load(Ordering::Relaxed) {
                    emit(HB_FRAME);
                }
                std::thread::sleep(interval);
            }
        });
    }

    let ConnectRig {
        mut rig,
        campaign,
        faults,
        ..
    } = build_rig(&hello)?;
    if rig.golden_instret != hello.header.golden_instret {
        return Err(violation(format!(
            "golden instruction count mismatch: supervisor expects {}, this worker's rig ran {} \
             — preset or kernel registry skew between the two binaries",
            hello.header.golden_instret, rig.golden_instret
        )));
    }
    emit(&render_ready(rig.golden_instret));

    loop {
        let Some(line) = read_frame(&mut stdin)? else {
            alive.store(false, Ordering::Relaxed);
            return Ok(());
        };
        let index = parse_run(&line)?;
        let fault = *faults.get(index).ok_or_else(|| {
            violation(format!(
                "run frame indexes injection {index} of a {}-injection plan",
                faults.len()
            ))
        })?;
        if hello.abort_at == Some(index as u64) {
            // Test hook: die the way a heap-corrupting harness bug
            // would — no unwinding, no goodbye frame.
            std::process::abort();
        }
        busy.store(true, Ordering::Relaxed);
        let replayed = if hello.spin_at == Some(index as u64) {
            replay_spinning(&mut rig, &fault, campaign.wall)
        } else {
            rig.run_one(&fault, campaign.wall)
        };
        busy.store(false, Ordering::Relaxed);
        emit(&render_done(index, &replayed?));
    }
}

// ---------------------------------------------------------------------
// The remote (TCP) worker side: `repro worker --connect <addr>`.
// ---------------------------------------------------------------------

/// How long a connect attempt may block before it counts as a failed
/// attempt (and backs off).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket write deadline: a coordinator that cannot drain a few
/// hundred bytes in this long is as good as gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket read deadline per poll — the worker's idle-loop tick.
const READ_TICK: Duration = Duration::from_millis(50);

/// How long the worker tolerates total coordinator silence while idle
/// before it drops the connection and reconnects. The coordinator
/// heartbeats idle peers every few hundred milliseconds, so this is an
/// order of magnitude of slack.
const COORD_SILENCE: Duration = Duration::from_secs(10);

/// Heartbeat interval before the first lease names one.
const DEFAULT_HEARTBEAT_MS: u64 = 200;

/// Writes one frame to the shared TCP write side. Whole frames go out
/// under the lock so the heartbeat thread can never interleave bytes
/// into a record.
fn send(writer: &Mutex<TcpStream>, frame: &str) -> std::io::Result<()> {
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    write_frame(&mut *w, frame)
}

/// Clears the heartbeat thread's liveness flag on every session exit
/// path, so a stale thread never keeps writing into a dead socket.
struct Alive(Arc<AtomicBool>);

impl Drop for Alive {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// The deterministic campaign state a hello names. A connected worker
/// keeps it between leases: rebuilding rig and plan costs a golden
/// run, so consecutive leases of the same campaign reuse them.
struct ConnectRig {
    header: JournalHeader,
    preset: WorkerPreset,
    campaign: CampaignConfig,
    rig: CampaignRig,
    faults: Vec<Fault>,
}

fn build_rig(hello: &WorkerHello) -> Result<ConnectRig, NfpError> {
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
    Ok(ConnectRig {
        header: hello.header.clone(),
        preset: hello.preset,
        campaign,
        rig,
        faults,
    })
}

/// How one TCP session with the coordinator ended.
enum SessionEnd {
    /// The coordinator said goodbye: clean exit, no reconnect.
    Bye,
    /// The connection (or the coordinator) failed; reconnect with
    /// backoff. `leases` counts leases completed this session — any
    /// progress resets the consecutive-failure budget.
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
    let mut cache: Option<ConnectRig> = None;
    loop {
        match connect_session(addr, reconnects, wid, lies, &mut cache) {
            Ok(SessionEnd::Bye) => {
                eprintln!("worker: coordinator said goodbye; exiting");
                return 0;
            }
            Ok(SessionEnd::Lost { leases, detail }) => {
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
            Err(e) => {
                eprintln!("worker: fatal: {e}");
                return 1;
            }
        }
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

/// One TCP session: connect, join, then serve leases until the stream
/// dies or the coordinator says goodbye. `Err` is fatal; everything
/// transport-shaped comes back as [`SessionEnd::Lost`].
fn connect_session(
    addr: &str,
    reconnects: u64,
    wid: u64,
    lies: Option<LiePlan>,
    cache: &mut Option<ConnectRig>,
) -> Result<SessionEnd, NfpError> {
    let lost = |leases: u64, detail: String| Ok(SessionEnd::Lost { leases, detail });
    let mut stream = match tcp_connect(addr) {
        Ok(s) => s,
        Err(detail) => return lost(0, detail),
    };
    let _ = stream.set_nodelay(true);
    let io_lost = |what: &str, e: std::io::Error| format!("{what}: {e}");
    if let Err(e) = stream.set_read_timeout(Some(READ_TICK)) {
        return lost(0, io_lost("set read timeout", e));
    }
    if let Err(e) = stream.set_write_timeout(Some(WRITE_TIMEOUT)) {
        return lost(0, io_lost("set write timeout", e));
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => return lost(0, io_lost("clone stream", e)),
    };
    let join = JoinFrame {
        preset: cache.as_ref().map_or(WorkerPreset::Quick, |c| c.preset),
        reconnects,
        wid,
    };
    if let Err(e) = send(&writer, &render_join(&join)) {
        return lost(0, io_lost("send join", e));
    }

    // Unlike the stdin worker's busy-gated heartbeat, this one keeps
    // beating *through* replays: over TCP the coordinator revokes
    // silent leases, so only a real freeze (SIGSTOP, death, scheduler
    // starvation) may silence the worker — a slow replay must not.
    let alive = Arc::new(AtomicBool::new(true));
    let hb_ms = Arc::new(AtomicU64::new(DEFAULT_HEARTBEAT_MS));
    {
        let (alive, hb_ms, writer) = (Arc::clone(&alive), Arc::clone(&hb_ms), Arc::clone(&writer));
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

    let mut reader = FrameReader::new(addr);
    let mut leases = 0u64;
    let mut idle = Instant::now();
    loop {
        match reader.recv(&mut stream) {
            Err(e) => return lost(leases, e.to_string()),
            Ok(Recv::Eof) => return lost(leases, "coordinator closed the connection".to_string()),
            Ok(Recv::Idle) => {
                if idle.elapsed() > COORD_SILENCE {
                    return lost(
                        leases,
                        format!(
                            "coordinator silent for {}s while idle",
                            COORD_SILENCE.as_secs()
                        ),
                    );
                }
            }
            Ok(Recv::Frame(line)) => {
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
                        let hello = match parse_hello(&line) {
                            Ok(h) => h,
                            Err(e) => {
                                let _ = send(&writer, &render_error(&e.to_string()));
                                return Err(e);
                            }
                        };
                        hb_ms.store(hello.heartbeat_ms.max(1), Ordering::Relaxed);
                        match execute_lease(&hello, cache, lies, &writer) {
                            Ok(()) => {
                                leases += 1;
                                idle = Instant::now();
                            }
                            Err(LeaseFail::Send(detail)) => return lost(leases, detail),
                            Err(LeaseFail::Fatal(e)) => {
                                let _ = send(&writer, &render_error(&e.to_string()));
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
    }
}

/// Executes one shard lease: (re)build the deterministic rig if the
/// campaign binding changed, cross-check the golden count, replay the
/// leased range in plan order, and stream journal-identical record
/// lines followed by a digest-carrying fin.
fn execute_lease(
    hello: &WorkerHello,
    cache: &mut Option<ConnectRig>,
    lies: Option<LiePlan>,
    writer: &Mutex<TcpStream>,
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
    eprintln!(
        "worker: leased shard {} of {} (injections {start}..{end})",
        hello.header.shard_index, hello.header.shard_count
    );

    let mut slots: Vec<Option<(InjectionRecord, u32)>> = vec![None; c.faults.len()];
    // An index loop, not an iterator: the body rebuilds `c` (and with
    // it `c.faults`) when a replay panics mid-range.
    #[allow(clippy::needless_range_loop)]
    for index in start..end {
        let fault = c.faults[index];
        if hello.abort_at == Some(index as u64) {
            // Test hook: die the way a heap-corrupting harness bug
            // would — no unwinding, no goodbye frame.
            std::process::abort();
        }
        let mut attempts = 0u32;
        let record = loop {
            attempts += 1;
            let wall = c.campaign.wall;
            let run = catch_unwind(AssertUnwindSafe(|| {
                if hello.spin_at == Some(index as u64) {
                    replay_spinning(&mut c.rig, &fault, wall)
                } else {
                    c.rig.run_one(&fault, wall)
                }
            }));
            match run {
                Ok(Ok(rec)) => break rec,
                Ok(Err(e)) => return Err(LeaseFail::Fatal(e)),
                Err(_) => {
                    // The panicked rig may hold a half-armed fault:
                    // replace it before judging whether to retry —
                    // exactly the supervisor's thread-worker policy,
                    // so quarantine decisions stay byte-identical.
                    match catch_unwind(AssertUnwindSafe(|| build_rig(hello))) {
                        Ok(Ok(fresh)) => *c = fresh,
                        _ => {
                            return Err(LeaseFail::Fatal(violation(format!(
                                "replay of injection {index} panicked and the rig could not \
                                 be rebuilt"
                            ))))
                        }
                    }
                    if attempts >= 2 {
                        eprintln!(
                            "worker: quarantined injection {index} after {attempts} attempts"
                        );
                        break quarantine_record(fault);
                    }
                }
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
        slots[index] = Some((record, attempts));
    }
    let fin = FinRecord {
        records: (end - start) as u64,
        range_start: start as u64,
        range_end: end as u64,
        digest: range_digest(&slots, (start, end)),
    };
    send_or(&fin_line(&fin), "send fin")?;
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
    fn oversized_frame_is_a_protocol_violation() {
        let line = vec![b'x'; MAX_LINE + 10];
        match read_frame(&mut &line[..]) {
            Err(NfpError::ProtocolViolation { detail }) => {
                assert!(detail.contains("oversized"), "detail: {detail}");
            }
            other => panic!("expected ProtocolViolation, got {other:?}"),
        }
        // Exactly at the cap (plus the newline) still passes.
        let mut max = vec![b'y'; MAX_LINE];
        max.push(b'\n');
        assert_eq!(read_frame(&mut &max[..]).unwrap().unwrap().len(), MAX_LINE);
    }

    #[test]
    fn truncated_frame_is_a_protocol_violation() {
        // A peer that died mid-write leaves a newline-less tail.
        match read_frame(&mut &b"{\"kind\":\"hb\""[..]) {
            Err(NfpError::ProtocolViolation { detail }) => {
                assert!(detail.contains("truncated"), "detail: {detail}");
            }
            other => panic!("expected ProtocolViolation, got {other:?}"),
        }
        // Invalid UTF-8 cannot become a frame either.
        assert!(read_frame(&mut &b"\xff\xfe\n"[..]).is_err());
        // And a closed stream between frames is a clean EOF, not an error.
        assert_eq!(read_frame(&mut &b""[..]).unwrap(), None);
    }

    #[test]
    fn truncated_json_inside_a_frame_is_a_protocol_violation() {
        for bad in ["{\"kind\":\"done\",\"i\":3", "{\"kind\":\"done\",\"i\":}"] {
            assert!(
                matches!(parse_reply(bad), Err(NfpError::ProtocolViolation { .. })),
                "accepted: {bad:?}"
            );
        }
        // Structurally valid JSON with missing done fields is equally dead.
        assert!(parse_reply("{\"kind\":\"done\",\"i\":3}").is_err());
        assert!(parse_reply("{\"kind\":\"warp\"}").is_err());
    }

    #[test]
    fn out_of_order_done_is_a_protocol_violation() {
        check_index(3, 3).unwrap();
        match check_index(7, 3) {
            Err(NfpError::ProtocolViolation { detail }) => {
                assert!(detail.contains("out-of-order"), "detail: {detail}");
                assert!(
                    detail.contains('7') && detail.contains('3'),
                    "detail: {detail}"
                );
            }
            other => panic!("expected ProtocolViolation, got {other:?}"),
        }
    }

    #[test]
    fn replies_roundtrip() {
        assert_eq!(
            parse_reply(&render_ready(99)).unwrap(),
            Reply::Ready { golden_instret: 99 }
        );
        assert_eq!(parse_reply(HB_FRAME).unwrap(), Reply::Hb);
        let nasty = "panic: \"quoted\"\nwith newline";
        assert_eq!(
            parse_reply(&render_error(nasty)).unwrap(),
            Reply::Error {
                detail: nasty.to_string()
            }
        );
        let record = InjectionRecord {
            fault: Fault {
                at: 8_317,
                target: FaultTarget::Ram {
                    addr: 0x4100_0040,
                    bit: 31,
                },
            },
            category: Some(Category::MemLoad),
            outcome: Outcome::Sdc,
        };
        assert_eq!(
            parse_reply(&render_done(7, &record)).unwrap(),
            Reply::Done { index: 7, record }
        );
    }

    #[test]
    fn run_frames_roundtrip() {
        assert_eq!(parse_run(&render_run(41)).unwrap(), 41);
        assert!(parse_run("{\"kind\":\"hb\"}").is_err());
        assert!(parse_run("{\"kind\":\"run\"}").is_err());
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
