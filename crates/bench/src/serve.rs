//! The remote dispatch coordinator (`repro serve`) and its client.
//!
//! [`Server`] listens on TCP and speaks the length-framed protocol of
//! the crate's `net` module with two kinds of peers: **workers**
//! (`repro worker --connect`) that join, receive shard leases, and
//! stream back journal-identical record lines, and **clients** (`repro
//! submit`) that submit a campaign and receive the report. The
//! coordinator trusts no peer: each lease stream goes through the
//! checker the supervisor's process pool uses too — every record line
//! re-verifies its CRC and its fault-plan binding, and every shard must
//! close with a plan-order digest that the checker recomputes — and a
//! peer that violates the protocol is retired, never argued with.
//!
//! Robustness model (DESIGN.md §14):
//!
//! * **Every wait is bounded.** Sockets carry read/write deadlines, a
//!   silent peer loses its lease after an idle deadline, a slow peer
//!   loses it at the lease timeout, admission waits poll a shutdown
//!   flag, and the accept loop is non-blocking.
//! * **Leases, not assignments.** A shard lease is revocable: when the
//!   holder goes silent or dies the shard re-enters the queue after a
//!   capped jittered backoff (the crate's `backoff` module), and an
//!   optional straggler deadline dispatches a speculative duplicate —
//!   first-valid-wins, which is safe because campaigns are
//!   deterministic.
//! * **Admission control.** A bounded number of campaigns run
//!   concurrently; each client may queue a bounded number more;
//!   everything beyond that is refused with a typed
//!   [`NfpError::Admission`] instead of an unbounded backlog.
//! * **Graceful degradation.** With no live workers past a grace
//!   period the coordinator runs the remaining shards on its own
//!   local pool ([`crate::supervisor`]), so a campaign never depends
//!   on the network being healthy — only faster.

use crate::backoff::{backoff_delay, splitmix64, TICK};
use crate::cache::ResultCache;
use crate::campaign::{assemble, report_campaign, CampaignConfig, CampaignRig, InjectionRecord};
use crate::evaluation::Mode;
use crate::flatjson::{esc, parse_flat, Obj};
use crate::identity::Identity;
use crate::journal::{quarantine, CampaignJournal, JournalHeader, LeaseCheck, LeaseRecords, Step};
use crate::net::{
    parse_join, render_note, render_reject, render_report_chunk, send_err, write_frame,
    FrameReader, JoinFrame, Recv, BYE_FRAME, END_FRAME, HB_FRAME, NET_VERSION,
};
use crate::reports::{report_campaign_footer, CampaignFooter};
use crate::servejournal::{load_service_journal, records_path, OpenCampaign, ServiceJournal};
use crate::shards::{clear_range, missing_ranges_of, ShardSpec};
use crate::supervisor::{run_supervised, SupervisorConfig, WorkerIsolation};
use crate::worker::{render_error, render_hello, tcp_connect, WorkerHello, WorkerPreset};
use nfp_core::NfpError;
use nfp_sim::fault::plan;
use nfp_sim::Fault;
use nfp_workloads::{all_kernels, Kernel};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Socket read deadline per poll: the coordinator's event-loop tick.
const READ_TICK: Duration = Duration::from_millis(50);

/// Socket write deadline: a peer that cannot drain a few hundred bytes
/// in this long is as good as gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a fresh connection may dawdle before its first frame
/// (join or submit) before the coordinator drops it.
const FIRST_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Heartbeat interval towards a waiting client.
const CLIENT_BEAT: Duration = Duration::from_secs(1);

/// How long the submit client tolerates total coordinator silence.
/// The coordinator heartbeats clients every [`CLIENT_BEAT`], so this
/// is more than an order of magnitude of slack.
const CLIENT_SILENCE: Duration = Duration::from_secs(60);

/// Report chunk size towards the client. Escaping can at worst double
/// a chunk (quotes, backslashes, newlines), so this stays far from
/// [`crate::net::MAX_FRAME`].
const REPORT_CHUNK: usize = 8 * 1024;

fn violation(detail: impl Into<String>) -> NfpError {
    NfpError::ProtocolViolation {
        detail: detail.into(),
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One leased-record slot table, indexed by plan position.
type Slots = Vec<Option<(InjectionRecord, u32)>>;

// ---------------------------------------------------------------------
// Configuration and summary.
// ---------------------------------------------------------------------

/// Coordinator configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7447` (`:0` picks a free port).
    pub listen: String,
    /// Workload preset leases name; workers rebuild kernels from it
    /// and the golden-count handshake catches any skew.
    pub preset: WorkerPreset,
    /// Campaigns allowed to run concurrently. `0` refuses every
    /// submission (useful only for testing admission itself).
    pub max_inflight: usize,
    /// Submissions one client may keep queued beyond the in-flight
    /// limit before further ones are refused.
    pub max_queued_per_client: usize,
    /// How long a campaign waits for a live worker before degrading to
    /// the coordinator's local worker pool.
    pub peer_grace: Duration,
    /// Hard per-lease deadline: a shard lease still open after this
    /// long is revoked and re-queued regardless of heartbeats.
    pub lease_timeout: Duration,
    /// Heartbeat interval towards (and expected from) workers. A peer
    /// silent for ten intervals (min 2 s) loses its lease.
    pub heartbeat: Duration,
    /// Re-dispatch budget per shard after failed or revoked leases.
    pub shard_retries: u32,
    /// Straggler deadline: a lease still open after this long gets a
    /// speculative duplicate dispatched (first valid result wins).
    /// `None` disables speculation.
    pub straggler: Option<Duration>,
    /// Worker isolation for the local-fallback pool.
    pub isolation: WorkerIsolation,
    /// Worker executable for a process-isolated local fallback.
    pub worker_bin: Option<PathBuf>,
    /// Stop accepting connections and shut down after this many
    /// completed campaigns. `None` serves until the process dies.
    pub campaigns: Option<usize>,
    /// Write-ahead service journal path (DESIGN.md §15). `None` runs
    /// the coordinator volatile, exactly as before PR 8.
    pub journal: Option<PathBuf>,
    /// Rebuild hub state from an existing journal at [`Self::journal`]
    /// before serving (a missing journal is a fresh start, so `--resume`
    /// is safe to pass unconditionally). Without `resume`, an existing
    /// journal is truncated.
    pub resume: bool,
    /// Drain sentinel path: once this file exists the coordinator
    /// stops admitting submissions, finishes the campaigns in flight,
    /// journals a clean drain, and exits.
    pub drain: Option<PathBuf>,
    /// Byte budget for the content-addressed result cache (LRU).
    pub cache_cap_bytes: usize,
    /// Audit tier (DESIGN.md §16): the fraction of remotely-completed
    /// shard leases whose ranges are re-dispatched to a *disjoint*
    /// worker and compared record-for-record. On disagreement the
    /// coordinator's trusted local pool re-executes the range and
    /// convicts whichever worker lied: its session is revoked, its id
    /// is blacklisted with capped-backoff parole, and every unaudited
    /// range it returned is invalidated and re-dispatched. `0.0`
    /// disables auditing; `1.0` audits every remote shard. The sampler
    /// is a pure function of the campaign seed and shard index, so a
    /// resumed coordinator audits the same shards.
    pub audit_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:7447".to_string(),
            preset: WorkerPreset::Quick,
            max_inflight: 2,
            max_queued_per_client: 2,
            peer_grace: Duration::from_secs(2),
            lease_timeout: Duration::from_secs(120),
            heartbeat: Duration::from_millis(200),
            shard_retries: 2,
            straggler: None,
            isolation: WorkerIsolation::Thread,
            worker_bin: None,
            campaigns: None,
            journal: None,
            resume: false,
            drain: None,
            cache_cap_bytes: 64 * 1024 * 1024,
            audit_rate: 0.05,
        }
    }
}

/// What a coordinator served before shutting down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Campaigns completed (reports delivered or degraded).
    pub campaigns: usize,
    /// Worker connections accepted over the server's lifetime.
    pub peers_seen: usize,
    /// Worker reconnections observed (joins carrying a nonzero
    /// reconnect ordinal).
    pub reconnects: usize,
    /// Frames rejected as corrupt, out-of-protocol, or checksum-failed.
    pub frames_rejected: usize,
    /// Peers retired after a violation, silence, or death.
    pub peers_retired: usize,
    /// Submissions answered from the result cache, no re-simulation.
    pub cache_hits: usize,
    /// Submissions that had to run (or join) a live campaign.
    pub cache_misses: usize,
    /// Concurrent identical submissions folded into one live campaign.
    pub submits_deduped: usize,
    /// Clients that re-attached to a crash-resumed campaign.
    pub sessions_resumed: usize,
    /// Cache entries evicted under the byte budget.
    pub cache_evictions: usize,
    /// Coordinator starts recorded in the journal before this one.
    pub restarts: usize,
    /// Workers convicted by the audit tier and blacklisted.
    pub workers_convicted: usize,
}

// ---------------------------------------------------------------------
// The hub: state shared between the accept loop, peers, and campaigns.
// ---------------------------------------------------------------------

/// One revocable shard assignment waiting for (or held by) a peer.
struct Lease {
    hello: WorkerHello,
    faults: Arc<Vec<Fault>>,
    shard: u32,
    attempt: u32,
    events: mpsc::Sender<LeaseEvent>,
    /// Set by the owning campaign when the shard no longer needs this
    /// lease (completed elsewhere, campaign over): peers skip it.
    abandoned: Arc<AtomicBool>,
    /// Worker id that must NOT take this lease — an audit re-execution
    /// is only a second opinion when it comes from a disjoint worker.
    exclude: Option<u64>,
}

/// What a peer reports back to the owning campaign about a lease.
enum LeaseEvent {
    /// A peer picked the lease up.
    Started { shard: u32 },
    /// The leased range completed and validated (CRCs, plan binding,
    /// fin digest). First valid result wins. `wid` attributes the
    /// records to the producing worker for the audit tier (0 when the
    /// peer sent no identity).
    Done {
        shard: u32,
        wid: u64,
        records: LeaseRecords,
    },
    /// The lease failed; `revoked` marks deadline revocations (silent
    /// or overrunning peers) as opposed to deaths and violations.
    Failed {
        shard: u32,
        detail: String,
        revoked: bool,
    },
}

/// One blacklisted worker: its conviction count and the instant its
/// capped-backoff parole expires (it may rejoin after that — and earn
/// a longer parole if it is convicted again).
struct BanState {
    strikes: u32,
    until: Instant,
}

/// Parole backoff after `strikes` convictions: 500 ms doubling per
/// strike, capped at 60 s. Deterministic (no jitter): parole gates
/// admission only, never results.
fn parole_delay(strikes: u32) -> Duration {
    let exp = strikes.saturating_sub(1).min(10);
    Duration::from_millis((500u64 << exp).min(60_000))
}

/// Shared coordinator state.
struct Hub {
    queue: Mutex<VecDeque<Lease>>,
    shutdown: AtomicBool,
    live_peers: AtomicUsize,
    peers_seen: AtomicUsize,
    reconnects: AtomicUsize,
    frames_rejected: AtomicUsize,
    peers_retired: AtomicUsize,
    next_peer: AtomicU64,
    /// Audit-tier blacklist by worker id (never wid 0 — a peer that
    /// sent no identity cannot be attributed, so it is never banned).
    bans: Mutex<HashMap<u64, BanState>>,
    /// Convictions over the server's lifetime, for the summary.
    convicted: AtomicUsize,
}

impl Hub {
    fn new() -> Self {
        Hub {
            queue: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            live_peers: AtomicUsize::new(0),
            peers_seen: AtomicUsize::new(0),
            reconnects: AtomicUsize::new(0),
            frames_rejected: AtomicUsize::new(0),
            peers_retired: AtomicUsize::new(0),
            next_peer: AtomicU64::new(0),
            bans: Mutex::new(HashMap::new()),
            convicted: AtomicUsize::new(0),
        }
    }

    /// Pops the next live lease the worker `wid` may take, discarding
    /// abandoned ones and skipping (but keeping, in order) leases that
    /// exclude this worker — an audit lease waits for a disjoint peer.
    fn pop_lease(&self, wid: u64) -> Option<Lease> {
        let mut q = lock(&self.queue);
        let mut skipped: Vec<Lease> = Vec::new();
        let mut found = None;
        while let Some(lease) = q.pop_front() {
            if lease.abandoned.load(Ordering::SeqCst) {
                continue;
            }
            if lease.exclude.is_some_and(|x| x == wid) {
                skipped.push(lease);
                continue;
            }
            found = Some(lease);
            break;
        }
        while let Some(lease) = skipped.pop() {
            q.push_front(lease);
        }
        found
    }

    /// Records a conviction: the strike count increments and the
    /// parole instant backs off. Returns the new strike count.
    fn ban(&self, wid: u64) -> u32 {
        let mut bans = lock(&self.bans);
        let entry = bans.entry(wid).or_insert(BanState {
            strikes: 0,
            until: Instant::now(),
        });
        entry.strikes += 1;
        entry.until = Instant::now() + parole_delay(entry.strikes);
        self.convicted.fetch_add(1, Ordering::SeqCst);
        entry.strikes
    }

    /// Replays a journaled ban on resume. Instants cannot be journaled,
    /// so parole restarts from the resume instant — strictly the
    /// distrustful direction.
    fn restore_ban(&self, wid: u64, strikes: u32) {
        lock(&self.bans).insert(
            wid,
            BanState {
                strikes,
                until: Instant::now() + parole_delay(strikes),
            },
        );
    }

    /// Whether `wid` is currently blacklisted (parole not yet up).
    fn banned(&self, wid: u64) -> bool {
        wid != 0
            && lock(&self.bans)
                .get(&wid)
                .is_some_and(|b| Instant::now() < b.until)
    }

    /// Queues a lease, compacting abandoned entries while it holds the
    /// lock so the queue never accumulates dead weight.
    fn push_lease(&self, lease: Lease) {
        let mut q = lock(&self.queue);
        q.retain(|l| !l.abandoned.load(Ordering::SeqCst));
        q.push_back(lease);
    }

    fn reject_frame(&self) {
        self.frames_rejected.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks a peer retired — unless the server is shutting down, in
    /// which case departures are the plan, not a failure.
    fn retire(&self, label: &str, why: &str) {
        if !self.shutdown.load(Ordering::SeqCst) {
            self.peers_retired.fetch_add(1, Ordering::SeqCst);
            eprintln!("serve: {label} retired: {why}");
        }
    }
}

/// Everything a connection thread needs.
struct Ctx {
    cfg: ServeConfig,
    hub: Hub,
    admission: Admission,
    served: AtomicUsize,
    /// Content-addressed result cache: identical submits cost one
    /// simulation, the rest are byte-identical replays.
    cache: Mutex<ResultCache>,
    /// Live campaigns by [`campaign_key`]: concurrent identical
    /// submits subscribe to the one in flight instead of racing it.
    live: Mutex<HashMap<String, Arc<LiveEntry>>>,
    /// Write-ahead service journal, when durability is configured.
    journal: Option<ServiceJournal>,
    /// Next durable campaign id (continues past resumed ids).
    next_cid: AtomicU64,
    /// True once the drain sentinel appeared: admit nothing new,
    /// finish what is in flight, journal a clean drain, exit.
    draining: AtomicBool,
    /// Coordinator starts recorded in the journal before this one.
    restarts: usize,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
    submits_deduped: AtomicUsize,
    sessions_resumed: AtomicUsize,
    cache_evictions: AtomicUsize,
}

/// One campaign in flight, shared between its leader thread and any
/// follower clients that submitted the same key while it ran.
struct LiveEntry {
    state: Mutex<LiveState>,
    cv: Condvar,
    /// True for campaigns rebuilt from the service journal: a client
    /// re-presenting this key is a resumed session, not a dedup.
    resumed: bool,
    /// Follower clients currently subscribed. A leader whose own
    /// client dies keeps running while anyone is still watching (or
    /// while the campaign is journaled).
    subscribers: AtomicUsize,
}

enum LiveState {
    Running,
    Done { notes: Vec<String>, report: String },
    Failed(String),
}

impl LiveEntry {
    fn new(resumed: bool) -> Self {
        LiveEntry {
            state: Mutex::new(LiveState::Running),
            cv: Condvar::new(),
            resumed,
            subscribers: AtomicUsize::new(0),
        }
    }

    /// Publishes the terminal state and wakes every follower.
    fn publish(&self, state: LiveState) {
        *lock(&self.state) = state;
        self.cv.notify_all();
    }
}

/// The idempotency key a submission is cached and deduplicated under:
/// the campaign identity plus `allow_partial`, and nothing else — not
/// the client label, not the shard count (campaign reports are
/// shard-invariant by the merge discipline). The golden instruction
/// length is itself a deterministic function of the identity —
/// recomputing it is the very simulation the cache exists to avoid, and
/// the records-file header still enforces the full golden binding on
/// every durable run.
pub(crate) fn campaign_key(req: &CampaignRequest) -> String {
    format!("{}|{}", req.identity().render(), req.allow_partial)
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

struct AdmissionState {
    inflight: usize,
    queued: HashMap<String, usize>,
}

/// Bounded-concurrency gate for campaign submissions: `max_inflight`
/// campaigns run at once, each client may wait with at most
/// `max_queue` more, and everything beyond that is refused with a
/// typed [`NfpError::Admission`]. All waits are caller-paced
/// ([`Admission::wait`] with a timeout), so a waiting submission can
/// keep heartbeating its client and abandon the queue when the client
/// disappears — no unbounded block anywhere.
pub(crate) struct Admission {
    max_inflight: usize,
    max_queue: usize,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

/// Outcome of [`Admission::try_enter`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// A slot was free; the campaign may run now.
    Admitted,
    /// The campaign holds a queue place; poll [`Admission::wait`].
    Queued,
}

impl Admission {
    pub(crate) fn new(max_inflight: usize, max_queue: usize) -> Self {
        Admission {
            max_inflight,
            max_queue,
            state: Mutex::new(AdmissionState {
                inflight: 0,
                queued: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Takes a slot, takes a queue place, or refuses — never blocks.
    pub(crate) fn try_enter(&self, client: &str) -> Result<Gate, NfpError> {
        let refuse = |reason: String| {
            Err(NfpError::Admission {
                client: client.to_string(),
                reason,
            })
        };
        if self.max_inflight == 0 {
            return refuse("server admits no campaigns".to_string());
        }
        let mut s = lock(&self.state);
        if s.inflight < self.max_inflight {
            s.inflight += 1;
            return Ok(Gate::Admitted);
        }
        let q = s.queued.entry(client.to_string()).or_insert(0);
        if *q >= self.max_queue {
            let held = *q;
            return refuse(format!(
                "{held} campaigns already queued (per-client cap {})",
                self.max_queue
            ));
        }
        *q += 1;
        Ok(Gate::Queued)
    }

    /// Waits up to `patience` for a slot; returns true when admitted
    /// (the queue place converts into the slot).
    pub(crate) fn wait(&self, client: &str, patience: Duration) -> bool {
        let s = lock(&self.state);
        let (mut s, _) = self
            .cv
            .wait_timeout(s, patience)
            .unwrap_or_else(PoisonError::into_inner);
        if s.inflight < self.max_inflight {
            s.inflight += 1;
            Self::dequeue(&mut s, client);
            return true;
        }
        false
    }

    /// Gives a queue place back (the queued client went away).
    pub(crate) fn abandon_queue(&self, client: &str) {
        Self::dequeue(&mut lock(&self.state), client);
    }

    /// Releases an in-flight slot and wakes every waiter.
    pub(crate) fn finish(&self) {
        lock(&self.state).inflight -= 1;
        self.cv.notify_all();
    }

    fn dequeue(s: &mut AdmissionState, client: &str) {
        if let Some(q) = s.queued.get_mut(client) {
            *q -= 1;
            if *q == 0 {
                s.queued.remove(client);
            }
        }
    }
}

/// Releases the admission slot on every campaign exit path.
struct AdmissionGuard<'a>(&'a Admission);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

// ---------------------------------------------------------------------
// Submit frames.
// ---------------------------------------------------------------------

/// A campaign submission, sent by [`submit_campaign`] and executed by
/// a [`Server`].
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// Client label for admission accounting and error messages.
    pub client: String,
    /// Kernel name within the server's preset registry.
    pub kernel: String,
    /// Float or fixed variant.
    pub mode: Mode,
    /// The campaign parameters (plan size, seed, ...). Its `dispatch`
    /// is not sent: the coordinator and its workers run traced.
    pub campaign: CampaignConfig,
    /// Shards to split the plan into; `0` lets the coordinator pick
    /// one shard per live worker.
    pub shards: u32,
    /// Degrade to a partial report (with explicit missing ranges)
    /// instead of failing when a shard exhausts its retry budget.
    pub allow_partial: bool,
}

impl CampaignRequest {
    pub(crate) fn identity(&self) -> Identity {
        Identity::of(&self.kernel, self.mode, &self.campaign)
    }

    /// The request as the body of a flat JSON object, shared by the
    /// submit frame and the service journal's submit event.
    pub(crate) fn render_fields(&self) -> String {
        format!(
            "\"client\":\"{}\",{},\"shards\":{},\"allow_partial\":{}",
            esc(&self.client),
            self.identity().render(),
            self.shards,
            self.allow_partial
        )
    }

    /// Parses a request out of a flat object; `Err` names the first
    /// missing or out-of-range field.
    pub(crate) fn from_obj(obj: &Obj) -> Result<CampaignRequest, &'static str> {
        let client = obj.str("client").ok_or("client")?.to_string();
        let id = Identity::parse(obj)?;
        let shards = obj.u64("shards").ok_or("shards")?;
        Ok(CampaignRequest {
            client,
            campaign: id.config(),
            kernel: id.kernel,
            mode: id.mode,
            shards: u32::try_from(shards).map_err(|_| "shards")?,
            allow_partial: obj.bool("allow_partial").ok_or("allow_partial")?,
        })
    }
}

pub(crate) fn render_submit(req: &CampaignRequest) -> String {
    format!(
        "{{\"v\":{NET_VERSION},\"kind\":\"submit\",{}}}",
        req.render_fields()
    )
}

pub(crate) fn parse_submit(line: &str) -> Result<CampaignRequest, NfpError> {
    let obj = Obj(parse_flat(line).ok_or_else(|| violation("unparseable submit frame"))?);
    match obj.u64("v") {
        Some(NET_VERSION) => {}
        got => {
            return Err(violation(format!(
                "submit version mismatch: client speaks {got:?}, this coordinator speaks \
                 v{NET_VERSION}"
            )))
        }
    }
    if obj.str("kind") != Some("submit") {
        return Err(violation("frame is not a submit"));
    }
    CampaignRequest::from_obj(&obj).map_err(|k| violation(format!("submit lacks \"{k}\"")))
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// A bound (but not yet serving) coordinator. [`Server::run`] consumes
/// it and blocks until the configured campaign budget is served.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    /// Campaigns the service journal recorded as submitted but never
    /// finished: [`Server::run`] re-runs them headless, re-dispatching
    /// only the shards their records files do not already cover.
    resumed: Vec<OpenCampaign>,
}

impl Server {
    /// Binds the listen address and prepares the shared state. The
    /// socket is non-blocking; nothing is served until [`Server::run`].
    ///
    /// With [`ServeConfig::journal`] set this opens (or, under
    /// [`ServeConfig::resume`], replays) the service journal: torn
    /// tails are truncated, a corrupt journal is renamed aside to
    /// `*.quarantined` and a fresh one started, and every campaign
    /// recorded as open is queued for headless resumption.
    pub fn bind(cfg: ServeConfig) -> Result<Server, NfpError> {
        let net_err = |detail: String| NfpError::Net {
            addr: cfg.listen.clone(),
            detail,
        };
        let listener =
            TcpListener::bind(&cfg.listen).map_err(|e| net_err(format!("bind failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| net_err(format!("set nonblocking failed: {e}")))?;
        let admission = Admission::new(cfg.max_inflight, cfg.max_queued_per_client);
        let mut restarts = 0usize;
        let mut resumed: Vec<OpenCampaign> = Vec::new();
        let mut next_cid = 0u64;
        let mut bans: Vec<(u64, u32)> = Vec::new();
        let journal = match &cfg.journal {
            None => None,
            Some(path) => {
                let journal = if cfg.resume && path.exists() {
                    match load_service_journal(path) {
                        Ok(state) => {
                            restarts = state.starts;
                            next_cid = state.next_cid;
                            resumed = state.open;
                            bans = state.bans;
                            sweep_finished_records(path, &state.finished);
                            ServiceJournal::resume(path, state.intact_len)?
                        }
                        Err(e) => {
                            // The journal is evidence, not an oracle:
                            // set it aside and start clean rather than
                            // trusting a corrupt record.
                            let q = quarantine(path)?;
                            eprintln!("serve: service journal quarantined to {}: {e}", q.display());
                            ServiceJournal::create(path)?
                        }
                    }
                } else {
                    ServiceJournal::create(path)?
                };
                journal.start()?;
                Some(journal)
            }
        };
        if !resumed.is_empty() {
            eprintln!(
                "serve: resuming {} interrupted campaign(s) from the service journal \
                 (coordinator restart {restarts})",
                resumed.len()
            );
        }
        let hub = Hub::new();
        for (wid, strikes) in bans {
            eprintln!(
                "serve: resuming blacklist: worker {wid} blacklisted (strike {strikes}, parole \
                 {}ms)",
                parole_delay(strikes).as_millis()
            );
            hub.restore_ban(wid, strikes);
        }
        Ok(Server {
            listener,
            ctx: Arc::new(Ctx {
                cache: Mutex::new(ResultCache::new(cfg.cache_cap_bytes)),
                cfg,
                hub,
                admission,
                served: AtomicUsize::new(0),
                live: Mutex::new(HashMap::new()),
                journal,
                next_cid: AtomicU64::new(next_cid),
                draining: AtomicBool::new(false),
                restarts,
                cache_hits: AtomicUsize::new(0),
                cache_misses: AtomicUsize::new(0),
                submits_deduped: AtomicUsize::new(0),
                sessions_resumed: AtomicUsize::new(0),
                cache_evictions: AtomicUsize::new(0),
            }),
            resumed,
        })
    }

    /// The bound address — the way tests (and `--listen 127.0.0.1:0`
    /// users) learn the picked port.
    pub fn local_addr(&self) -> Result<SocketAddr, NfpError> {
        self.listener.local_addr().map_err(|e| NfpError::Net {
            addr: self.ctx.cfg.listen.clone(),
            detail: format!("local_addr failed: {e}"),
        })
    }

    /// Serves until [`ServeConfig::campaigns`] campaigns completed
    /// (forever when `None`), then says goodbye to every peer and
    /// returns the tallies.
    pub fn run(self) -> Result<ServeSummary, NfpError> {
        let Server {
            listener,
            ctx,
            resumed,
        } = self;
        let mut handles = Vec::new();
        // Resumed campaigns run headless (they were admitted before
        // the crash); registering them in the live map *before* the
        // accept loop means a client re-presenting the key attaches to
        // the resumed run instead of racing it with a duplicate.
        for open in resumed {
            let key = campaign_key(&open.req);
            let entry = Arc::new(LiveEntry::new(true));
            lock(&ctx.live).insert(key.clone(), Arc::clone(&entry));
            let ctx = Arc::clone(&ctx);
            handles.push(std::thread::spawn(move || {
                resume_campaign(open, entry, key, &ctx);
            }));
        }
        loop {
            if let Some(limit) = ctx.cfg.campaigns {
                if ctx.served.load(Ordering::SeqCst) >= limit {
                    ctx.hub.shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
            if !ctx.draining.load(Ordering::SeqCst) {
                if let Some(sentinel) = &ctx.cfg.drain {
                    if sentinel.exists() {
                        ctx.draining.store(true, Ordering::SeqCst);
                        eprintln!(
                            "serve: drain requested; refusing new submissions, finishing {} \
                             in flight",
                            lock(&ctx.live).len()
                        );
                    }
                }
            }
            if ctx.draining.load(Ordering::SeqCst) && lock(&ctx.live).is_empty() {
                if let Some(journal) = &ctx.journal {
                    let _ = journal.drain();
                }
                eprintln!("serve: drained cleanly");
                ctx.hub.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            match listener.accept() {
                Ok((stream, addr)) => {
                    let ctx = Arc::clone(&ctx);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(stream, addr, &ctx);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(TICK),
                Err(e) => {
                    ctx.hub.shutdown.store(true, Ordering::SeqCst);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(NfpError::Net {
                        addr: ctx.cfg.listen.clone(),
                        detail: format!("accept failed: {e}"),
                    });
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(ServeSummary {
            campaigns: ctx.served.load(Ordering::SeqCst),
            peers_seen: ctx.hub.peers_seen.load(Ordering::SeqCst),
            reconnects: ctx.hub.reconnects.load(Ordering::SeqCst),
            frames_rejected: ctx.hub.frames_rejected.load(Ordering::SeqCst),
            peers_retired: ctx.hub.peers_retired.load(Ordering::SeqCst),
            cache_hits: ctx.cache_hits.load(Ordering::SeqCst),
            cache_misses: ctx.cache_misses.load(Ordering::SeqCst),
            submits_deduped: ctx.submits_deduped.load(Ordering::SeqCst),
            sessions_resumed: ctx.sessions_resumed.load(Ordering::SeqCst),
            cache_evictions: ctx.cache_evictions.load(Ordering::SeqCst),
            restarts: ctx.restarts,
            workers_convicted: ctx.hub.convicted.load(Ordering::SeqCst),
        })
    }
}

/// Classifies a fresh connection by its first frame — a worker join or
/// a client submit — and hands it to the matching driver. Anything
/// else (silence, garbage, a torn frame) costs the connection and
/// nothing more.
fn handle_connection(mut stream: TcpStream, addr: SocketAddr, ctx: &Ctx) {
    let label = addr.to_string();
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = FrameReader::new(label.clone());
    let opened = Instant::now();
    let first = loop {
        match reader.recv(&mut stream) {
            Ok(Recv::Frame(line)) => break line,
            Ok(Recv::Idle) => {
                if opened.elapsed() > FIRST_FRAME_DEADLINE {
                    ctx.hub.reject_frame();
                    eprintln!("serve: dropped {label}: no frame within the handshake deadline");
                    return;
                }
            }
            Ok(Recv::Eof) => return,
            Err(e) => {
                ctx.hub.reject_frame();
                eprintln!("serve: dropped {label}: {e}");
                return;
            }
        }
    };
    let kind = parse_flat(&first)
        .map(Obj)
        .and_then(|o| o.str("kind").map(str::to_string));
    match kind.as_deref() {
        Some("join") => match parse_join(&first) {
            Ok(join) => drive_peer(stream, reader, join, ctx),
            Err(e) => {
                ctx.hub.reject_frame();
                let _ = write_frame(&mut stream, &render_error(&e.to_string()));
                eprintln!("serve: dropped {label}: {e}");
            }
        },
        Some("submit") => match parse_submit(&first) {
            Ok(req) => run_remote_campaign(stream, reader, req, ctx),
            Err(e) => {
                ctx.hub.reject_frame();
                let _ = write_frame(&mut stream, &render_error(&e.to_string()));
                eprintln!("serve: dropped {label}: {e}");
            }
        },
        _ => {
            ctx.hub.reject_frame();
            let _ = write_frame(
                &mut stream,
                &render_error("first frame must be a join or a submit"),
            );
            eprintln!("serve: dropped {label}: first frame is neither join nor submit");
        }
    }
}

// ---------------------------------------------------------------------
// The peer side: one thread per joined worker.
// ---------------------------------------------------------------------

/// Keeps the live-peer census exact on every exit path.
struct PeerGuard<'a>(&'a Hub);

impl Drop for PeerGuard<'_> {
    fn drop(&mut self) {
        self.0.live_peers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Drives one joined worker: heartbeats both ways, an idle deadline,
/// and one lease at a time popped from the hub queue. Any violation,
/// silence, or death retires the peer — its shard (if any) re-enters
/// the queue via the lease's `Failed` event, and the worker's own
/// reconnect backoff brings it back for a clean slate.
fn drive_peer(mut stream: TcpStream, mut reader: FrameReader, join: JoinFrame, ctx: &Ctx) {
    let hub = &ctx.hub;
    // The blacklist gates admission: a convicted worker is turned away
    // at the door until its parole expires.
    if hub.banned(join.wid) {
        eprintln!(
            "serve: refused worker {}: blacklisted pending parole",
            join.wid
        );
        let _ = write_frame(
            &mut stream,
            &render_error(&format!("worker {} is blacklisted", join.wid)),
        );
        return;
    }
    let id = hub.next_peer.fetch_add(1, Ordering::SeqCst) + 1;
    let label = format!("peer {id}");
    hub.peers_seen.fetch_add(1, Ordering::SeqCst);
    if join.reconnects > 0 {
        hub.reconnects.fetch_add(1, Ordering::SeqCst);
    }
    hub.live_peers.fetch_add(1, Ordering::SeqCst);
    let _census = PeerGuard(hub);
    eprintln!(
        "serve: {label} joined ({} reconnects so far, wid {})",
        join.reconnects, join.wid
    );

    let idle_limit = idle_limit(ctx.cfg.heartbeat);
    let mut last_heard = Instant::now();
    let mut last_beat = Instant::now();
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            let _ = write_frame(&mut stream, BYE_FRAME);
            return;
        }
        if last_beat.elapsed() >= ctx.cfg.heartbeat {
            if let Err(e) = write_frame(&mut stream, HB_FRAME) {
                hub.retire(&label, &format!("heartbeat write failed: {e}"));
                return;
            }
            last_beat = Instant::now();
        }
        match reader.recv(&mut stream) {
            Ok(Recv::Idle) => {
                if last_heard.elapsed() > idle_limit {
                    hub.retire(
                        &label,
                        &format!(
                            "silent for {}ms while idle",
                            last_heard.elapsed().as_millis()
                        ),
                    );
                    return;
                }
            }
            Ok(Recv::Frame(line)) => {
                last_heard = Instant::now();
                let kind = parse_flat(&line)
                    .map(Obj)
                    .and_then(|o| o.str("kind").map(str::to_string));
                if kind.as_deref() != Some("hb") {
                    hub.reject_frame();
                    hub.retire(&label, &format!("unexpected idle frame {kind:?}"));
                    return;
                }
            }
            Ok(Recv::Eof) => {
                hub.retire(&label, "disconnected");
                return;
            }
            Err(e) => {
                if matches!(e, NfpError::ProtocolViolation { .. }) {
                    hub.reject_frame();
                }
                hub.retire(&label, &e.to_string());
                return;
            }
        }
        // A conviction can land while the session is open: revoke it.
        if hub.banned(join.wid) {
            let _ = write_frame(
                &mut stream,
                &render_error(&format!("worker {} is blacklisted", join.wid)),
            );
            hub.retire(
                &label,
                &format!("wid {} blacklisted after an audit conviction", join.wid),
            );
            return;
        }
        let Some(lease) = hub.pop_lease(join.wid) else {
            continue;
        };
        let _ = lease
            .events
            .send(LeaseEvent::Started { shard: lease.shard });
        eprintln!(
            "serve: shard {} leased to {label} (attempt {})",
            lease.shard, lease.attempt
        );
        match run_lease(&mut stream, &mut reader, &lease, ctx) {
            Ok(Some(records)) => {
                let _ = lease.events.send(LeaseEvent::Done {
                    shard: lease.shard,
                    wid: join.wid,
                    records,
                });
                last_heard = Instant::now();
                last_beat = Instant::now();
            }
            Ok(None) => {
                // Shutdown mid-lease: hand the shard back and bow out.
                let _ = lease.events.send(LeaseEvent::Failed {
                    shard: lease.shard,
                    detail: "coordinator shutting down".to_string(),
                    revoked: false,
                });
                let _ = write_frame(&mut stream, BYE_FRAME);
                return;
            }
            Err(fail) => {
                let _ = lease.events.send(LeaseEvent::Failed {
                    shard: lease.shard,
                    detail: fail.detail.clone(),
                    revoked: fail.revoked,
                });
                hub.retire(&label, &fail.detail);
                return;
            }
        }
    }
}

/// A peer silent for ten heartbeat intervals (but at least two
/// seconds) has lost its claim to liveness.
fn idle_limit(heartbeat: Duration) -> Duration {
    (heartbeat * 10).max(Duration::from_secs(2))
}

/// Why a lease failed on this peer.
struct LeaseFail {
    detail: String,
    /// True for deadline revocations (the peer may be alive but too
    /// silent or too slow); false for deaths and violations.
    revoked: bool,
}

/// Runs one lease on a connected peer: send the shard hello, then feed
/// every frame the peer sends to the lease checker until a fin seals
/// the range. `Ok(None)` means the coordinator began shutting down
/// mid-lease. Every wait inside is bounded by the idle deadline and the
/// overall lease timeout.
fn run_lease(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    lease: &Lease,
    ctx: &Ctx,
) -> Result<Option<LeaseRecords>, LeaseFail> {
    let hub = &ctx.hub;
    let fail = |detail: String, revoked: bool| Err(LeaseFail { detail, revoked });
    if let Err(e) = write_frame(stream, &render_hello(&lease.hello)) {
        return fail(format!("lease write failed: {e}"), false);
    }
    let idle_limit = idle_limit(ctx.cfg.heartbeat);
    let deadline = Instant::now() + ctx.cfg.lease_timeout;
    let mut last_heard = Instant::now();
    let mut last_beat = Instant::now();
    let mut check = LeaseCheck::new(&lease.hello.header, &lease.faults);
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        if Instant::now() >= deadline {
            return fail(
                format!(
                    "lease revoked: shard {} still open after the {}s lease deadline",
                    lease.shard,
                    ctx.cfg.lease_timeout.as_secs()
                ),
                true,
            );
        }
        if last_beat.elapsed() >= ctx.cfg.heartbeat {
            if let Err(e) = write_frame(stream, HB_FRAME) {
                return fail(format!("heartbeat write failed mid-lease: {e}"), false);
            }
            last_beat = Instant::now();
        }
        let line = match reader.recv(stream) {
            Ok(Recv::Idle) => {
                if last_heard.elapsed() > idle_limit {
                    return fail(
                        format!(
                            "lease revoked: peer silent for {}ms mid-lease",
                            last_heard.elapsed().as_millis()
                        ),
                        true,
                    );
                }
                continue;
            }
            Ok(Recv::Eof) => {
                return fail("peer closed the connection mid-lease".to_string(), false)
            }
            Err(e) => {
                if matches!(e, NfpError::ProtocolViolation { .. }) {
                    hub.reject_frame();
                }
                return fail(e.to_string(), false);
            }
            Ok(Recv::Frame(line)) => line,
        };
        last_heard = Instant::now();
        match check.feed(&line) {
            Ok(Step::More | Step::Ready) => {}
            Ok(Step::Fin(records)) => return Ok(Some(records)),
            Ok(Step::Error(detail)) => return fail(format!("peer reported: {detail}"), false),
            Err(e) => {
                hub.reject_frame();
                return fail(e.to_string(), false);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The campaign side: one thread per admitted submission.
// ---------------------------------------------------------------------

/// Audit posture of one shard (DESIGN.md §16).
enum AuditPhase {
    /// Not sampled (or already arbitrated): the first valid result
    /// persists immediately.
    Clear,
    /// Sampled by the deterministic audit sampler: results are held
    /// back until two disjoint workers agree — or the trusted local
    /// pool arbitrates. `streams` holds the (wid, records) pairs that
    /// arrived so far; `since` marks the first arrival, bounding how
    /// long the coordinator waits for a second opinion.
    Sampled {
        streams: Vec<(u64, LeaseRecords)>,
        since: Option<Instant>,
    },
}

/// Audit-tier tallies of one campaign, for the footer.
#[derive(Default)]
struct AuditCounters {
    ranges_audited: usize,
    audits_passed: usize,
    workers_convicted: usize,
    ranges_invalidated: usize,
}

/// The deterministic, seed-driven audit sampler: whether `shard` of a
/// campaign seeded `seed` gets a second opinion. A pure function, so a
/// resumed coordinator — and every retry of the same shard — samples
/// identically, and no clock or ambient randomness can influence which
/// ranges are checked.
fn audit_sampled(seed: u64, shard: u32, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let x = splitmix64(seed ^ (u64::from(shard) << 32) ^ 0x00d1_7a5a_3713_e2c5);
    ((x >> 11) as f64) / ((1u64 << 53) as f64) < rate
}

/// Whether two validated record streams for the same range agree.
/// Attempt counts are deliberately ignored: an honest worker that
/// retried a panicked replay reports `attempts: 2` where another
/// reports `1`, and nobody gets convicted over retry bookkeeping.
fn streams_match(a: &LeaseRecords, b: &LeaseRecords) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ia, ra, _), (ib, rb, _))| ia == ib && ra == rb)
}

/// Whether a remote stream agrees with the trusted local re-execution
/// of `start..start+local.len()`. Same attempt-blindness as
/// [`streams_match`].
fn matches_local(stream: &LeaseRecords, start: usize, local: &[InjectionRecord]) -> bool {
    stream.len() == local.len()
        && stream
            .iter()
            .enumerate()
            .all(|(k, (i, rec, _))| *i == start + k && rec == &local[k])
}

/// Per-shard dispatch state inside one campaign.
struct Track {
    done: bool,
    lost: bool,
    retries: u32,
    attempts: u32,
    in_flight: usize,
    leased_at: Option<Instant>,
    speculated: bool,
    retry_at: Option<Instant>,
    abandoned: Arc<AtomicBool>,
    /// Worker id whose records currently fill this shard's range.
    /// `None` for the trusted local pool and disk-restored records.
    producer: Option<u64>,
    /// Audit posture; see [`AuditPhase`].
    audit: AuditPhase,
}

/// Handles one client submission end to end: drain gate, result-cache
/// fast path, live-campaign deduplication, admission, then the
/// dispatch loop ([`drive_campaign`]) and result publication
/// ([`finish_campaign`]).
fn run_remote_campaign(
    mut client: TcpStream,
    mut creader: FrameReader,
    req: CampaignRequest,
    ctx: &Ctx,
) {
    let label = format!("client '{}'", req.client);
    if ctx.draining.load(Ordering::SeqCst) {
        let reason = "coordinator is draining; no new campaigns are admitted";
        let _ = write_frame(&mut client, &render_reject(&req.client, reason));
        eprintln!("serve: refused {label}: {reason}");
        return;
    }
    // Idempotent fast path: a finished identical campaign is answered
    // from the cache, byte-identical and without any simulation.
    let key = campaign_key(&req);
    if let Some(report) = lock(&ctx.cache).get(&key) {
        ctx.cache_hits.fetch_add(1, Ordering::SeqCst);
        eprintln!(
            "serve: campaign '{}' for {label} served from the result cache",
            req.kernel
        );
        let note = format!(
            "result cache hit for campaign '{}' — returning the stored report",
            req.kernel
        );
        match deliver(
            &mut client,
            &req.client,
            std::slice::from_ref(&note),
            &report,
        ) {
            Ok(()) => {
                ctx.served.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => eprintln!("serve: cached report not delivered to {label}: {e}"),
        }
        return;
    }
    ctx.cache_misses.fetch_add(1, Ordering::SeqCst);
    // Concurrent deduplication: an identical campaign already in
    // flight gains a follower instead of a duplicate simulation.
    let (entry, leader) = {
        let mut live = lock(&ctx.live);
        match live.get(&key) {
            Some(entry) => (Arc::clone(entry), false),
            None => {
                let entry = Arc::new(LiveEntry::new(false));
                live.insert(key.clone(), Arc::clone(&entry));
                (entry, true)
            }
        }
    };
    if !leader {
        ctx.submits_deduped.fetch_add(1, Ordering::SeqCst);
        if entry.resumed {
            ctx.sessions_resumed.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "serve: {label} re-attached to the resumed campaign for '{}'",
                req.kernel
            );
        } else {
            eprintln!(
                "serve: {label} deduplicated into the live campaign for '{}'",
                req.kernel
            );
        }
        entry.subscribers.fetch_add(1, Ordering::SeqCst);
        follow_live(client, creader, &entry, ctx, &label);
        entry.subscribers.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    // Admission next: nothing is planned, no memory is committed, for
    // a submission the server will not run. Every bail-out must also
    // unblock any follower that subscribed in the meantime.
    match ctx.admission.try_enter(&req.client) {
        Err(e) => {
            let reason = match &e {
                NfpError::Admission { reason, .. } => reason.clone(),
                other => other.to_string(),
            };
            let _ = write_frame(&mut client, &render_reject(&req.client, &reason));
            eprintln!("serve: refused {label}: {reason}");
            abort_entry(&key, &entry, &format!("admission refused: {reason}"), ctx);
            return;
        }
        Ok(Gate::Admitted) => {}
        Ok(Gate::Queued) => {
            eprintln!("serve: queued {label} behind the in-flight limit");
            let mut last_beat = Instant::now();
            loop {
                if ctx.admission.wait(&req.client, Duration::from_millis(100)) {
                    break;
                }
                if ctx.hub.shutdown.load(Ordering::SeqCst) {
                    ctx.admission.abandon_queue(&req.client);
                    let _ = write_frame(&mut client, &render_error("coordinator shutting down"));
                    abort_entry(&key, &entry, "coordinator shutting down", ctx);
                    return;
                }
                if last_beat.elapsed() >= CLIENT_BEAT {
                    if write_frame(&mut client, HB_FRAME).is_err() {
                        ctx.admission.abandon_queue(&req.client);
                        abort_entry(&key, &entry, "client left the admission queue", ctx);
                        return;
                    }
                    last_beat = Instant::now();
                }
                match creader.recv(&mut client) {
                    Ok(Recv::Idle) => {}
                    Ok(Recv::Frame(line)) if is_hb(&line) => {}
                    _ => {
                        // The queued client died or babbled: its place
                        // goes back to the pool.
                        ctx.admission.abandon_queue(&req.client);
                        eprintln!("serve: {label} left the queue");
                        abort_entry(&key, &entry, "client left the admission queue", ctx);
                        return;
                    }
                }
            }
        }
    }
    let _slot = AdmissionGuard(&ctx.admission);
    eprintln!(
        "serve: campaign '{}' ({} injections, {} mode) admitted for {label}",
        req.kernel,
        req.campaign.injections,
        req.mode.suffix()
    );
    let durable = if ctx.journal.is_some() {
        Durable::Fresh
    } else {
        Durable::No
    };
    let mut link = Some(ClientLink {
        stream: client,
        reader: creader,
    });
    let outcome = drive_campaign(&mut link, &req, &entry, durable, ctx);
    finish_campaign(outcome, link, &key, &entry, &label, ctx);
}

/// Unregisters a live campaign that never produced a result, waking
/// any followers with the failure.
fn abort_entry(key: &str, entry: &LiveEntry, detail: &str, ctx: &Ctx) {
    entry.publish(LiveState::Failed(detail.to_string()));
    lock(&ctx.live).remove(key);
}

/// Rides an existing live campaign on behalf of a second client with
/// the same key: heartbeat both ways until the leader publishes, then
/// deliver the same notes and report (or the same failure).
fn follow_live(
    mut client: TcpStream,
    mut creader: FrameReader,
    entry: &LiveEntry,
    ctx: &Ctx,
    label: &str,
) {
    let mut last_beat = Instant::now();
    loop {
        let published = {
            let guard = lock(&entry.state);
            let (guard, _) = entry
                .cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            match &*guard {
                LiveState::Running => None,
                LiveState::Done { notes, report } => Some(Ok((notes.clone(), report.clone()))),
                LiveState::Failed(detail) => Some(Err(detail.clone())),
            }
        };
        match published {
            Some(Ok((notes, report))) => {
                if let Err(e) = deliver(&mut client, label, &notes, &report) {
                    eprintln!("serve: {label} unreachable during the shared report: {e}");
                }
                return;
            }
            Some(Err(detail)) => {
                let _ = write_frame(&mut client, &render_error(&detail));
                return;
            }
            None => {}
        }
        if ctx.hub.shutdown.load(Ordering::SeqCst) {
            let _ = write_frame(&mut client, &render_error("coordinator shutting down"));
            return;
        }
        if last_beat.elapsed() >= CLIENT_BEAT {
            if write_frame(&mut client, HB_FRAME).is_err() {
                eprintln!("serve: {label} stopped following; the campaign continues");
                return;
            }
            last_beat = Instant::now();
        }
        match creader.recv(&mut client) {
            Ok(Recv::Idle) => {}
            Ok(Recv::Frame(line)) if is_hb(&line) => {}
            _ => {
                eprintln!("serve: {label} stopped following; the campaign continues");
                return;
            }
        }
    }
}

/// Total write budget towards one client for the notes and the chunked
/// report. Every frame write already carries [`WRITE_TIMEOUT`]; the
/// budget bounds their *sum*, so a slow-loris client draining a few
/// bytes per deadline cannot pin a coordinator thread (and the report
/// buffers it holds) for more than this long.
const CLIENT_WRITE_BUDGET: Duration = Duration::from_secs(30);

/// Streams notes, the chunked report, and the end frame to a client,
/// under [`CLIENT_WRITE_BUDGET`].
fn deliver(
    stream: &mut TcpStream,
    client: &str,
    notes: &[String],
    report: &str,
) -> Result<(), NfpError> {
    deliver_by(
        stream,
        client,
        notes,
        report,
        Instant::now() + CLIENT_WRITE_BUDGET,
    )
}

/// [`deliver`] against an explicit deadline. Exhausting the budget is a
/// typed [`NfpError::Admission`] refusal — the client was admitted, but
/// it has stopped holding up its end of the conversation.
fn deliver_by(
    stream: &mut TcpStream,
    client: &str,
    notes: &[String],
    report: &str,
    deadline: Instant,
) -> Result<(), NfpError> {
    let mut sent = 0usize;
    let mut put = |stream: &mut TcpStream, frame: &str| -> Result<(), NfpError> {
        if Instant::now() >= deadline {
            return Err(NfpError::Admission {
                client: client.to_string(),
                reason: format!(
                    "per-report write budget of {}s exhausted after {sent} bytes — slow client",
                    CLIENT_WRITE_BUDGET.as_secs()
                ),
            });
        }
        write_frame(stream, frame).map_err(|e| NfpError::Net {
            addr: client.to_string(),
            detail: format!("report write failed: {e}"),
        })?;
        sent += frame.len();
        Ok(())
    };
    for note in notes {
        put(stream, &render_note(note))?;
    }
    let mut rest = report;
    while !rest.is_empty() {
        let mut cut = rest.len().min(REPORT_CHUNK);
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (head, tail) = rest.split_at(cut);
        put(stream, &render_report_chunk(head))?;
        rest = tail;
    }
    put(stream, END_FRAME)
}

/// Re-runs a campaign the service journal recorded as open, headless:
/// the original client is gone (it re-attaches as a follower if it is
/// still interested), and only the shards missing from the records
/// file are re-dispatched.
fn resume_campaign(open: OpenCampaign, entry: Arc<LiveEntry>, key: String, ctx: &Ctx) {
    let label = format!("resumed campaign {} ('{}')", open.cid, open.req.kernel);
    eprintln!("serve: {label} re-dispatching from the service journal");
    let mut link = None;
    let durable = Durable::Resumed {
        cid: open.cid,
        golden_instret: open.golden_instret,
        done_shards: open.done_shards,
    };
    let outcome = drive_campaign(&mut link, &open.req, &entry, durable, ctx);
    finish_campaign(outcome, link, &key, &entry, &label, ctx);
}

/// Durability posture of one campaign run.
enum Durable {
    /// No journal configured: volatile, exactly the pre-journal
    /// behavior.
    No,
    /// Fresh submit on a journaled coordinator: allocate a campaign id
    /// and journal the submit once the golden run has bound it.
    Fresh,
    /// Rebuilt from the journal after a coordinator restart.
    /// `done_shards` is the journaled completion set net of
    /// invalidations: records-file restoration is gated on it.
    Resumed {
        cid: u64,
        golden_instret: u64,
        done_shards: Vec<u32>,
    },
}

/// How a campaign run ended when it did not produce a report.
enum DriveFail {
    /// The campaign itself is unrunnable or lost: its journal entry is
    /// closed so a restart does not retry it forever.
    Fatal(String),
    /// The coordinator is going down or nobody is listening: the
    /// journal entry stays open so a resume picks the campaign up.
    Interrupted(String),
}

impl DriveFail {
    fn detail(&self) -> &str {
        match self {
            DriveFail::Fatal(d) | DriveFail::Interrupted(d) => d,
        }
    }
}

/// What a completed dispatch loop hands back for publication.
struct DriveOutcome {
    /// Notes already streamed to the attached client mid-run (the
    /// local-fallback notice); stored for followers, not re-sent.
    live_notes: Vec<String>,
    /// Footer lines to send ahead of the report.
    footer_notes: Vec<String>,
    report: String,
    /// No missing ranges: the report is cacheable.
    complete: bool,
}

/// A submit client attached to a campaign run.
struct ClientLink {
    stream: TcpStream,
    reader: FrameReader,
}

/// Opens a campaign's records file: a campaign journal next to the
/// service journal, appended at each shard completion and deleted once
/// the campaign's fin lands in the service journal — so disk stays
/// O(campaigns in flight), not O(history). An existing file is resumed,
/// prefilling `slots` from every intact record; a corrupt one is
/// quarantined aside and restarted empty — re-simulation over trust.
fn open_records(
    path: &Path,
    header: &JournalHeader,
    faults: &[Fault],
    slots: &mut Slots,
) -> Result<CampaignJournal, NfpError> {
    if path.exists() {
        match CampaignJournal::resume(path, header, faults, slots) {
            Ok((records, _)) => return Ok(records),
            Err(e) => {
                let q = quarantine(path)?;
                eprintln!("serve: records journal quarantined to {}: {e}", q.display());
                slots.fill(None);
            }
        }
    }
    CampaignJournal::create(path, header)
}

/// Durable bookkeeping of one journaled campaign run.
struct DurableRun {
    cid: u64,
    records: CampaignJournal,
}

/// Closes out the durable state of a finished (or terminally failed)
/// campaign: seal the records file when the run is complete, journal
/// the service fin, and delete the records file.
fn close_durable(run: Option<DurableRun>, complete_slots: Option<&Slots>, ctx: &Ctx) {
    let Some(mut run) = run else { return };
    if let Some(slots) = complete_slots {
        let _ = run.records.seal(slots);
    }
    drop(run.records);
    if let Some(journal) = &ctx.journal {
        let _ = journal.fin(run.cid);
        let _ = std::fs::remove_file(records_path(journal.path(), run.cid));
    }
}

/// Deletes the records files of the campaigns a resumed service journal
/// shows finished. [`close_durable`] journals the fin before it deletes
/// the file, so a kill in between leaves a file that nothing else would
/// remove. A missing file is the normal case; any other error is logged
/// and the coordinator starts anyway.
fn sweep_finished_records(journal: &Path, finished: &BTreeSet<u64>) {
    for &cid in finished {
        let records = records_path(journal, cid);
        if let Err(e) = std::fs::remove_file(&records) {
            if e.kind() != ErrorKind::NotFound {
                eprintln!("serve: could not delete {}: {e}", records.display());
            }
        }
    }
}

/// Persists a completed shard's records and journals the completion.
/// On a write failure the durable state is closed out (best-effort)
/// and the campaign dies — durability was promised.
fn persist_shard(
    durable_run: &mut Option<DurableRun>,
    slots: &Slots,
    range: (usize, usize),
    shard: u32,
    ctx: &Ctx,
) -> Result<(), DriveFail> {
    let Some(run) = durable_run.as_mut() else {
        return Ok(());
    };
    match run.records.append(slots, range) {
        Ok(()) => {
            if let Some(journal) = &ctx.journal {
                let _ = journal.shard_done(run.cid, shard);
            }
            Ok(())
        }
        Err(e) => {
            close_durable(durable_run.take(), None, ctx);
            Err(DriveFail::Fatal(e.to_string()))
        }
    }
}

/// Everything the audit arbitration needs that stays constant across
/// one campaign run.
struct AuditEnv<'a> {
    kernel: &'a Kernel,
    req: &'a CampaignRequest,
    campaign: &'a CampaignConfig,
    count: u32,
    label: &'a str,
    cid: Option<u64>,
    ctx: &'a Ctx,
}

/// The trusted tie-breaker: re-executes `shard` on the coordinator's
/// own pool, journals a verdict for every held-back stream (`pass` for
/// streams matching the local truth, `convict` for the rest), bans each
/// convicted worker with capped-backoff parole, invalidates and clears
/// every other range a convict returned, installs the local records,
/// and persists the shard. Called with two disagreeing streams (the
/// audit caught a liar), one stream (the second opinion never came —
/// the caller journals `inconclusive` first), or none (plain local
/// fallback). Returns `(kills, respawns, shards to re-dispatch)`.
#[allow(clippy::too_many_arguments)]
fn arbitrate_shard(
    env: &AuditEnv<'_>,
    shard: u32,
    streams: Vec<(u64, LeaseRecords)>,
    tracks: &mut [Track],
    slots: &mut Slots,
    durable_run: &mut Option<DurableRun>,
    counters: &mut AuditCounters,
) -> Result<(usize, usize, Vec<u32>), NfpError> {
    let ctx = env.ctx;
    let count = env.count;
    let spec = ShardSpec {
        index: shard,
        count,
    };
    let range = spec.range(env.campaign.injections);
    let mut sup = SupervisorConfig::new(env.campaign.clone());
    sup.isolation = ctx.cfg.isolation;
    sup.preset = ctx.cfg.preset;
    sup.worker_bin = ctx.cfg.worker_bin.clone();
    if sup.isolation == WorkerIsolation::Process {
        sup.deadline = Some(Duration::from_secs(300));
    }
    sup.shard = Some(spec);
    let out = run_supervised(env.kernel, env.req.mode, &sup)?;
    let local = out.result.records;
    let mut redispatch: Vec<u32> = Vec::new();
    let mut rewrite_needed = false;
    for (wid, stream) in streams {
        if matches_local(&stream, range.0, &local) {
            counters.audits_passed += 1;
            if let (Some(cid), Some(journal)) = (env.cid, &ctx.journal) {
                let _ = journal.audit(cid, shard, wid, "pass");
            }
            eprintln!(
                "serve: audit of shard {shard} of {}: worker {wid} agrees with the local truth",
                env.label
            );
            continue;
        }
        counters.workers_convicted += 1;
        if let (Some(cid), Some(journal)) = (env.cid, &ctx.journal) {
            let _ = journal.audit(cid, shard, wid, "convict");
        }
        if wid == 0 {
            eprintln!(
                "serve: audit of shard {shard} of {}: an unattributable worker (wid 0) returned \
                 falsified records — discarded, but there is no identity to blacklist",
                env.label
            );
            continue;
        }
        let strikes = ctx.hub.ban(wid);
        if let Some(journal) = &ctx.journal {
            let _ = journal.ban(wid, strikes);
        }
        eprintln!(
            "serve: worker {wid} convicted of falsifying shard {shard} of {}; blacklisted \
             (strike {strikes}, parole {}ms)",
            env.label,
            parole_delay(strikes).as_millis()
        );
        // Every other range the convict returned is now distrusted:
        // journal the invalidation *first*, then drop the records and
        // re-dispatch — a crash in between still drops them on resume.
        for other in 0..count {
            let t = &mut tracks[other as usize];
            if other != shard && t.done && t.producer == Some(wid) {
                if let (Some(cid), Some(journal)) = (env.cid, &ctx.journal) {
                    let _ = journal.invalidate(cid, other);
                }
                clear_range(
                    slots,
                    ShardSpec {
                        index: other,
                        count,
                    }
                    .range(env.campaign.injections),
                );
                t.done = false;
                t.producer = None;
                t.retries = 0;
                t.retry_at = None;
                // The completion set this flag; re-dispatches need a
                // fresh one or their leases are stillborn.
                t.abandoned = Arc::new(AtomicBool::new(false));
                t.audit = if audit_sampled(env.campaign.seed, other, ctx.cfg.audit_rate) {
                    AuditPhase::Sampled {
                        streams: Vec::new(),
                        since: None,
                    }
                } else {
                    AuditPhase::Clear
                };
                counters.ranges_invalidated += 1;
                rewrite_needed = true;
                redispatch.push(other);
                eprintln!(
                    "serve: shard {other} of {} invalidated (returned by convicted worker \
                     {wid}); re-dispatching",
                    env.label
                );
            }
            // Held-back streams from the convict are worthless too.
            if let AuditPhase::Sampled { streams, since } = &mut t.audit {
                streams.retain(|(w, _)| *w != wid);
                if streams.is_empty() {
                    *since = None;
                }
            }
        }
    }
    // Install the local truth — the trusted pool needs no audit.
    for (k, rec) in local.into_iter().enumerate() {
        slots[range.0 + k] = Some((rec, 1));
    }
    let t = &mut tracks[shard as usize];
    t.done = true;
    t.producer = None;
    t.audit = AuditPhase::Clear;
    t.abandoned.store(true, Ordering::SeqCst);
    if let Some(run) = durable_run.as_mut() {
        // The `invalidate` events went to the service journal first, so
        // a crash before this rewrite still drops the convict's records
        // on resume: restoration is gated on the journaled shard set.
        if rewrite_needed {
            run.records.rewrite(slots)?;
        }
        run.records.append(slots, range)?;
        if let (Some(cid), Some(journal)) = (env.cid, &ctx.journal) {
            let _ = journal.shard_done(cid, shard);
        }
    }
    Ok((out.kills, out.respawns, redispatch))
}

/// Executes one campaign end to end: plan it, split it into shard
/// leases, ride the lease events (retry with backoff, revoke,
/// speculate, degrade to the local pool), journaling every durable
/// transition along the way. `link` carries the attached submit client
/// when there is one; a journaled (or followed) campaign survives its
/// client and keeps running headless so the result still lands in the
/// cache. Exits abandon every outstanding lease so peers never work
/// for a dead campaign.
fn drive_campaign(
    link: &mut Option<ClientLink>,
    req: &CampaignRequest,
    entry: &LiveEntry,
    durable: Durable,
    ctx: &Ctx,
) -> Result<DriveOutcome, DriveFail> {
    let label = format!("client '{}'", req.client);
    let fatal = |detail: String| Err(DriveFail::Fatal(detail));
    // Plan the campaign. The golden run here is the trust anchor every
    // remote result must re-derive (golden handshake, CRCs, digests).
    let kernels = match all_kernels(&ctx.cfg.preset.build()) {
        Ok(k) => k,
        Err(e) => return fatal(e.to_string()),
    };
    let Some(kernel) = kernels.iter().find(|k| k.name == req.kernel) else {
        return fatal(format!(
            "kernel '{}' is not in the {} preset",
            req.kernel,
            ctx.cfg.preset.name()
        ));
    };
    let campaign = req.campaign.clone();
    let (rig, space) = match CampaignRig::prepare(kernel, req.mode, &campaign) {
        Ok(r) => r,
        Err(e) => return fatal(e.to_string()),
    };
    let faults = Arc::new(plan(&space, campaign.injections, campaign.seed));
    let count = match &durable {
        // A resumed submit already carries the resolved shard count.
        Durable::Resumed { .. } => req.shards.max(1),
        _ => {
            let live_now = ctx.hub.live_peers.load(Ordering::SeqCst) as u32;
            if req.shards == 0 {
                live_now.max(1)
            } else {
                req.shards
            }
            .min(campaign.injections.max(1) as u32)
            .max(1)
        }
    };

    let mut slots: Slots = vec![None; faults.len()];
    let header = JournalHeader::bind(kernel, req.mode, &campaign, rig.golden_instret, None);
    // A journaled run is bound to a campaign id: a fresh one for a new
    // submit, journaled once the golden run bound it, or the journaled
    // one on a resume.
    let durable_cid = match (&ctx.journal, &durable) {
        (None, _) | (_, Durable::No) => None,
        (Some(journal), Durable::Fresh) => {
            let cid = ctx.next_cid.fetch_add(1, Ordering::SeqCst);
            let mut resolved = req.clone();
            resolved.shards = count;
            if let Err(e) = journal.submit(cid, &resolved, rig.golden_instret) {
                return fatal(e.to_string());
            }
            Some(cid)
        }
        (
            Some(journal),
            Durable::Resumed {
                cid,
                golden_instret,
                ..
            },
        ) => {
            if rig.golden_instret != *golden_instret {
                let _ = journal.fin(*cid);
                return fatal(format!(
                    "resumed campaign {cid} bound golden instret {golden_instret} but this \
                     coordinator's rig ran {} — stale journal",
                    rig.golden_instret
                ));
            }
            Some(*cid)
        }
    };
    let mut durable_run: Option<DurableRun> = None;
    if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
        let path = records_path(journal.path(), cid);
        let opened = open_records(&path, &header, &faults, &mut slots).and_then(|mut records| {
            if let Durable::Resumed { done_shards, .. } = &durable {
                // Restoration is gated on the journaled shard_done set
                // (net of `invalidate` events): records of a shard never
                // journaled as done — including a convicted worker's
                // ranges when the crash landed between the invalidate
                // event and the records-file rewrite — are distrusted,
                // dropped, and re-run.
                let mut dropped = 0usize;
                for shard in 0..count {
                    if done_shards.contains(&shard) {
                        continue;
                    }
                    let range = ShardSpec {
                        index: shard,
                        count,
                    }
                    .range(campaign.injections);
                    dropped += clear_range(&mut slots, range);
                }
                if dropped > 0 {
                    eprintln!(
                        "serve: {label}: {dropped} record(s) of never-completed or \
                         invalidated shards dropped on resume"
                    );
                    records.rewrite(&slots)?;
                }
            }
            Ok(records)
        });
        match opened {
            Ok(records) => durable_run = Some(DurableRun { cid, records }),
            Err(e) => {
                let _ = journal.fin(cid);
                return fatal(e.to_string());
            }
        }
    }
    let restored = slots.iter().filter(|s| s.is_some()).count();
    if restored > 0 {
        eprintln!(
            "serve: campaign for {label}: {restored}/{} records restored from the records \
             journal",
            slots.len()
        );
    }

    let (ev_tx, ev_rx) = mpsc::channel::<LeaseEvent>();
    let shard_range = |shard: u32| {
        ShardSpec {
            index: shard,
            count,
        }
        .range(campaign.injections)
    };
    let mut tracks: Vec<Track> = (0..count)
        .map(|shard| {
            let (start, end) = shard_range(shard);
            // A shard whose whole range was restored from the records
            // file never re-dispatches (and was audited, or unsampled,
            // before it was allowed to persist).
            let done = (start..end).all(|i| slots[i].is_some());
            Track {
                done,
                lost: false,
                retries: 0,
                attempts: 0,
                in_flight: 0,
                leased_at: None,
                speculated: false,
                retry_at: None,
                abandoned: Arc::new(AtomicBool::new(false)),
                producer: None,
                audit: if !done && audit_sampled(campaign.seed, shard, ctx.cfg.audit_rate) {
                    AuditPhase::Sampled {
                        streams: Vec::new(),
                        since: None,
                    }
                } else {
                    AuditPhase::Clear
                },
            }
        })
        .collect();
    let hello_for = |shard: u32| WorkerHello {
        header: JournalHeader::bind(
            kernel,
            req.mode,
            &campaign,
            rig.golden_instret,
            Some(ShardSpec {
                index: shard,
                count,
            }),
        ),
        preset: ctx.cfg.preset,
        heartbeat_ms: ctx.cfg.heartbeat.as_millis() as u64,
        spin_at: None,
        abort_at: None,
    };
    let dispatch = |t: &mut Track, shard: u32, exclude: Option<u64>| {
        t.attempts += 1;
        t.in_flight += 1;
        t.leased_at = None;
        if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
            let _ = journal.lease(cid, shard, t.attempts);
        }
        ctx.hub.push_lease(Lease {
            hello: hello_for(shard),
            faults: Arc::clone(&faults),
            shard,
            attempt: t.attempts,
            events: ev_tx.clone(),
            abandoned: Arc::clone(&t.abandoned),
            exclude,
        });
    };
    let abandon_all = |tracks: &[Track]| {
        for t in tracks {
            t.abandoned.store(true, Ordering::SeqCst);
        }
    };
    for (shard, t) in tracks.iter_mut().enumerate() {
        if !t.done {
            dispatch(t, shard as u32, None);
        }
    }

    // Ride the lease events. Counters snapshot the hub so the footer
    // reports this campaign's share of the network churn.
    let started = Instant::now();
    let mut last_beat = Instant::now();
    let reconnects0 = ctx.hub.reconnects.load(Ordering::SeqCst);
    let rejected0 = ctx.hub.frames_rejected.load(Ordering::SeqCst);
    let retired0 = ctx.hub.peers_retired.load(Ordering::SeqCst);
    let mut kills = 0usize;
    let mut respawns = 0usize;
    let mut revoked_n = 0usize;
    let mut live_notes: Vec<String> = Vec::new();
    let mut audit = AuditCounters::default();
    let audit_patience = ctx.cfg.peer_grace.max(Duration::from_secs(2));
    let env = AuditEnv {
        kernel,
        req,
        campaign: &campaign,
        count,
        label: &label,
        cid: durable_cid,
        ctx,
    };
    // Runs the trusted tie-breaker for one shard and folds its outcome
    // back into the loop state. A macro rather than a closure because
    // the fatal path must `return` from `drive_campaign` itself.
    macro_rules! arbitrate {
        ($shard:expr, $streams:expr) => {{
            let shard: u32 = $shard;
            match arbitrate_shard(
                &env,
                shard,
                $streams,
                &mut tracks,
                &mut slots,
                &mut durable_run,
                &mut audit,
            ) {
                Ok((k, r, again)) => {
                    kills += k;
                    respawns += r;
                    for other in again {
                        dispatch(&mut tracks[other as usize], other, None);
                    }
                }
                Err(e) => {
                    if req.allow_partial && !matches!(e, NfpError::Journal { .. }) {
                        eprintln!("serve: local arbitration of shard {shard} failed: {e}");
                        tracks[shard as usize].lost = true;
                    } else {
                        abandon_all(&tracks);
                        close_durable(durable_run.take(), None, ctx);
                        return fatal(e.to_string());
                    }
                }
            }
        }};
    }
    while !tracks.iter().all(|t| t.done || t.lost) {
        match ev_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(LeaseEvent::Started { shard }) => {
                tracks[shard as usize].leased_at = Some(Instant::now());
            }
            Ok(LeaseEvent::Done {
                shard,
                wid,
                records,
            }) => {
                let s = shard as usize;
                tracks[s].in_flight = tracks[s].in_flight.saturating_sub(1);
                if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
                    let _ = journal.lease_return(cid, shard, true);
                }
                if tracks[s].done || tracks[s].lost {
                    // Stale speculative duplicate: the first valid
                    // stream won.
                } else if wid != 0 && ctx.hub.banned(wid) {
                    // A conviction landed while this lease was running:
                    // nothing a blacklisted worker returns is accepted.
                    eprintln!(
                        "serve: discarding shard {shard} records from blacklisted worker {wid}"
                    );
                    if tracks[s].in_flight == 0 {
                        tracks[s].retry_at = Some(Instant::now());
                    }
                } else {
                    match std::mem::replace(&mut tracks[s].audit, AuditPhase::Clear) {
                        AuditPhase::Clear => {
                            let t = &mut tracks[s];
                            t.done = true;
                            t.producer = (wid != 0).then_some(wid);
                            t.abandoned.store(true, Ordering::SeqCst);
                            for (i, rec, attempts) in records {
                                slots[i] = Some((rec, attempts));
                            }
                            eprintln!("serve: shard {shard} of {label} complete");
                            if let Err(fail) = persist_shard(
                                &mut durable_run,
                                &slots,
                                shard_range(shard),
                                shard,
                                ctx,
                            ) {
                                abandon_all(&tracks);
                                return Err(fail);
                            }
                        }
                        AuditPhase::Sampled { mut streams, since } => {
                            if streams.len() == 1 && wid != 0 && streams[0].0 == wid {
                                // The producer answered again (a
                                // speculative duplicate landed on the
                                // same peer): agreement with itself is
                                // no second opinion — keep waiting.
                                tracks[s].audit = AuditPhase::Sampled { streams, since };
                            } else {
                                streams.push((wid, records));
                                if streams.len() < 2 {
                                    audit.ranges_audited += 1;
                                    eprintln!(
                                        "serve: shard {shard} of {label} sampled for audit; \
                                         re-dispatching to a disjoint worker"
                                    );
                                    tracks[s].audit = AuditPhase::Sampled {
                                        streams,
                                        since: Some(Instant::now()),
                                    };
                                    dispatch(&mut tracks[s], shard, (wid != 0).then_some(wid));
                                } else if streams_match(&streams[0].1, &streams[1].1) {
                                    let (w1, first) = streams.swap_remove(0);
                                    let w2 = streams[0].0;
                                    audit.audits_passed += 1;
                                    if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal)
                                    {
                                        let _ = journal.audit(cid, shard, w1, "pass");
                                    }
                                    eprintln!(
                                        "serve: audit of shard {shard} of {label} passed \
                                         (workers {w1} and {w2} agree)"
                                    );
                                    let t = &mut tracks[s];
                                    t.done = true;
                                    t.producer = (w1 != 0).then_some(w1);
                                    t.abandoned.store(true, Ordering::SeqCst);
                                    for (i, rec, attempts) in first {
                                        slots[i] = Some((rec, attempts));
                                    }
                                    if let Err(fail) = persist_shard(
                                        &mut durable_run,
                                        &slots,
                                        shard_range(shard),
                                        shard,
                                        ctx,
                                    ) {
                                        abandon_all(&tracks);
                                        return Err(fail);
                                    }
                                } else {
                                    eprintln!(
                                        "serve: audit of shard {shard} of {label} found \
                                         disagreeing record streams (workers {} vs {}); \
                                         re-executing on the trusted local pool",
                                        streams[0].0, streams[1].0
                                    );
                                    arbitrate!(shard, streams);
                                }
                            }
                        }
                    }
                }
            }
            Ok(LeaseEvent::Failed {
                shard,
                detail,
                revoked,
            }) => {
                let t = &mut tracks[shard as usize];
                t.in_flight = t.in_flight.saturating_sub(1);
                if revoked {
                    revoked_n += 1;
                }
                if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
                    let _ = journal.lease_return(cid, shard, false);
                }
                if !t.done && !t.lost {
                    eprintln!("serve: shard {shard} lease failed ({detail})");
                    if t.in_flight == 0 {
                        t.retries += 1;
                        if t.retries > ctx.cfg.shard_retries {
                            let held = matches!(
                                &t.audit,
                                AuditPhase::Sampled { streams, .. } if !streams.is_empty()
                            );
                            if held {
                                // The audit re-dispatch burned the
                                // retry budget without producing a
                                // second opinion: journal the verdict
                                // and let the trusted pool arbitrate.
                                let AuditPhase::Sampled { streams, .. } = std::mem::replace(
                                    &mut tracks[shard as usize].audit,
                                    AuditPhase::Clear,
                                ) else {
                                    unreachable!()
                                };
                                if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
                                    let _ = journal.audit(cid, shard, streams[0].0, "inconclusive");
                                }
                                eprintln!(
                                    "serve: audit of shard {shard} of {label} inconclusive (no \
                                     disjoint second opinion); re-executing on the trusted \
                                     local pool"
                                );
                                arbitrate!(shard, streams);
                            } else {
                                let (start, end) = shard_range(shard);
                                if req.allow_partial {
                                    tracks[shard as usize].lost = true;
                                    eprintln!(
                                        "serve: shard {shard} lost after exhausting its \
                                         re-dispatch budget"
                                    );
                                } else {
                                    abandon_all(&tracks);
                                    close_durable(durable_run.take(), None, ctx);
                                    return fatal(
                                        NfpError::ShardLost {
                                            shard,
                                            start: start as u64,
                                            end: end as u64,
                                            detail,
                                        }
                                        .to_string(),
                                    );
                                }
                            }
                        } else {
                            t.retry_at = Some(
                                Instant::now()
                                    + backoff_delay(campaign.seed, shard as usize, t.retries),
                            );
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Unreachable: this function holds `ev_tx` until it returns.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        let now = Instant::now();
        // Re-dispatch shards whose backoff expired.
        for shard in 0..count {
            let t = &mut tracks[shard as usize];
            if t.done || t.lost || t.in_flight > 0 {
                continue;
            }
            if t.retry_at.is_some_and(|at| now >= at) {
                t.retry_at = None;
                dispatch(t, shard, None);
            }
        }
        // A sampled shard whose audit lease no disjoint worker claimed
        // within the patience window falls to the trusted local pool:
        // journal the inconclusive verdict and arbitrate. Without this
        // a fleet where the producer is the only live peer would wait
        // forever for a second opinion that cannot come.
        for shard in 0..count {
            let s = shard as usize;
            if tracks[s].done || tracks[s].lost {
                continue;
            }
            // A claimed, still-running audit lease gets its full lease
            // timeout; a lease nobody claimed (`leased_at` never set)
            // or a shard with nothing in flight at all (the second
            // opinion was discarded, or came from the producer itself)
            // is what patience is for.
            if tracks[s].in_flight > 0 && tracks[s].leased_at.is_some() {
                continue;
            }
            let stalled = matches!(
                &tracks[s].audit,
                AuditPhase::Sampled { streams, since: Some(at) }
                    if !streams.is_empty() && at.elapsed() > audit_patience
            );
            if stalled {
                let AuditPhase::Sampled { streams, .. } =
                    std::mem::replace(&mut tracks[s].audit, AuditPhase::Clear)
                else {
                    unreachable!()
                };
                // Cancel the unclaimed audit lease; any later dispatch
                // of this shard needs a fresh abandonment flag.
                tracks[s].abandoned.store(true, Ordering::SeqCst);
                tracks[s].abandoned = Arc::new(AtomicBool::new(false));
                tracks[s].in_flight = 0;
                if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
                    let _ = journal.audit(cid, shard, streams[0].0, "inconclusive");
                }
                eprintln!(
                    "serve: audit of shard {shard} of {label} inconclusive after {}ms (no \
                     disjoint worker claimed the re-execution); arbitrating locally",
                    audit_patience.as_millis()
                );
                arbitrate!(shard, streams);
            }
        }
        // Straggler speculation: duplicate a lease that has been held
        // too long. Determinism makes first-valid-wins safe.
        if let Some(limit) = ctx.cfg.straggler {
            for shard in 0..count {
                let t = &mut tracks[shard as usize];
                if t.done || t.lost || t.speculated || t.in_flight == 0 {
                    continue;
                }
                if t.leased_at.is_some_and(|at| at.elapsed() > limit) {
                    t.speculated = true;
                    eprintln!(
                        "serve: shard {shard} straggling; dispatching a speculative duplicate"
                    );
                    dispatch(t, shard, None);
                }
            }
        }
        // Graceful degradation: no live peers past the grace period
        // means the network is not coming to help — run what remains
        // on the local pool, byte-identically.
        if ctx.hub.live_peers.load(Ordering::SeqCst) == 0 && started.elapsed() >= ctx.cfg.peer_grace
        {
            let pending = (0..count)
                .filter(|&s| {
                    let t = &tracks[s as usize];
                    !t.done && !t.lost
                })
                .count();
            if pending > 0 {
                let note = format!(
                    "no live peers after {}ms; falling back to the local worker pool for \
                     {pending} shards",
                    ctx.cfg.peer_grace.as_millis(),
                );
                eprintln!("serve: {note}");
                if let Some(l) = link.as_mut() {
                    let _ = write_frame(&mut l.stream, &render_note(&note));
                }
                live_notes.push(note);
                abandon_all(&tracks);
                // Arbitration handles both shapes: a shard holding a
                // lone unaudited stream gets its inconclusive verdict
                // journaled and the stream judged against the local
                // truth; a clear shard is a plain local run. The loop
                // re-scans because a conviction can invalidate shards
                // that were already done when the scan started.
                while let Some(shard) = (0..count).find(|&s| {
                    let t = &tracks[s as usize];
                    !t.done && !t.lost
                }) {
                    let streams = match std::mem::replace(
                        &mut tracks[shard as usize].audit,
                        AuditPhase::Clear,
                    ) {
                        AuditPhase::Sampled { streams, .. } => {
                            if let Some((w, _)) = streams.first() {
                                if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
                                    let _ = journal.audit(cid, shard, *w, "inconclusive");
                                }
                            }
                            streams
                        }
                        AuditPhase::Clear => Vec::new(),
                    };
                    arbitrate!(shard, streams);
                }
            }
        }
        // Client liveness. A journaled campaign — or one with
        // followers — outlives its client: detach and keep running
        // headless so the result lands in the cache for the session
        // to resume. Otherwise a dead client frees the workers.
        let mut client_gone = false;
        if let Some(l) = link.as_mut() {
            if last_beat.elapsed() >= CLIENT_BEAT {
                if write_frame(&mut l.stream, HB_FRAME).is_err() {
                    client_gone = true;
                } else {
                    last_beat = Instant::now();
                }
            }
            if !client_gone {
                match l.reader.recv(&mut l.stream) {
                    Ok(Recv::Idle) => {}
                    Ok(Recv::Frame(line)) => {
                        if !is_hb(&line) {
                            ctx.hub.reject_frame();
                        }
                    }
                    Ok(Recv::Eof) | Err(_) => client_gone = true,
                }
            }
        }
        if client_gone {
            *link = None;
            if durable_cid.is_some() || entry.subscribers.load(Ordering::SeqCst) > 0 {
                eprintln!("serve: {label} disconnected; the campaign continues headless");
            } else {
                eprintln!("serve: {label} disconnected; abandoning the campaign");
                abandon_all(&tracks);
                return Err(DriveFail::Interrupted(
                    "client disconnected mid-campaign".to_string(),
                ));
            }
        }
        if ctx.hub.shutdown.load(Ordering::SeqCst) {
            abandon_all(&tracks);
            return Err(DriveFail::Interrupted(
                "coordinator shutting down".to_string(),
            ));
        }
    }
    // Stale speculative leases must not outlive the campaign.
    abandon_all(&tracks);

    let missing = missing_ranges_of(&slots);
    let complete = missing.is_empty();
    close_durable(durable_run.take(), complete.then_some(&slots), ctx);
    let footer = CampaignFooter {
        kills,
        respawns,
        shards: count,
        shard_retries: tracks.iter().map(|t| t.retries as usize).sum(),
        speculated: tracks.iter().filter(|t| t.speculated).count(),
        missing_ranges: missing,
        reconnects: ctx.hub.reconnects.load(Ordering::SeqCst) - reconnects0,
        leases_revoked: revoked_n,
        frames_rejected: ctx.hub.frames_rejected.load(Ordering::SeqCst) - rejected0,
        peers_retired: ctx.hub.peers_retired.load(Ordering::SeqCst) - retired0,
        ranges_audited: audit.ranges_audited,
        audits_passed: audit.audits_passed,
        workers_convicted: audit.workers_convicted,
        ranges_invalidated: audit.ranges_invalidated,
        dispatch: Some(rig.machine.dispatch_stats()),
        cache_hits: ctx.cache_hits.load(Ordering::SeqCst),
        cache_misses: ctx.cache_misses.load(Ordering::SeqCst),
        submits_deduped: ctx.submits_deduped.load(Ordering::SeqCst),
        sessions_resumed: ctx.sessions_resumed.load(Ordering::SeqCst),
        restarts: ctx.restarts,
    };
    let records: Vec<InjectionRecord> = slots.into_iter().flatten().map(|(rec, _)| rec).collect();
    let result = assemble(kernel, req.mode, &rig, records);
    eprintln!("serve: campaign '{}' for {label} assembled", result.name);
    Ok(DriveOutcome {
        live_notes,
        footer_notes: report_campaign_footer(&footer)
            .lines()
            .map(str::to_string)
            .collect(),
        report: report_campaign(&result),
        complete,
    })
}

/// Publishes a finished campaign run: cache the report (journaling any
/// evictions), wake the followers, unregister the live entry, and
/// deliver to the attached client when one is still there.
fn finish_campaign(
    outcome: Result<DriveOutcome, DriveFail>,
    mut link: Option<ClientLink>,
    key: &str,
    entry: &LiveEntry,
    label: &str,
    ctx: &Ctx,
) {
    match outcome {
        Ok(out) => {
            // Cache first, then publish, then unregister: a submission
            // arriving at any instant finds the result through exactly
            // one of the cache, the live entry, or a fresh run.
            if out.complete {
                let evicted = lock(&ctx.cache).put(key, &out.report);
                for (evicted_key, bytes) in evicted {
                    ctx.cache_evictions.fetch_add(1, Ordering::SeqCst);
                    if let Some(journal) = &ctx.journal {
                        let _ = journal.evict(&evicted_key, bytes);
                    }
                    eprintln!("serve: result cache evicted '{evicted_key}' ({bytes} bytes)");
                }
            }
            let mut notes = out.live_notes.clone();
            notes.extend(out.footer_notes.iter().cloned());
            entry.publish(LiveState::Done {
                notes,
                report: out.report.clone(),
            });
            lock(&ctx.live).remove(key);
            ctx.served.fetch_add(1, Ordering::SeqCst);
            if let Some(l) = link.as_mut() {
                if let Err(e) = deliver(&mut l.stream, label, &out.footer_notes, &out.report) {
                    eprintln!(
                        "serve: {label} unreachable during the report ({e}); the result is cached"
                    );
                }
            }
            eprintln!("serve: campaign for {label} complete");
        }
        Err(fail) => {
            let detail = fail.detail().to_string();
            entry.publish(LiveState::Failed(detail.clone()));
            lock(&ctx.live).remove(key);
            if let Some(l) = link.as_mut() {
                let _ = write_frame(&mut l.stream, &render_error(&detail));
            }
            eprintln!("serve: campaign for {label} failed: {detail}");
        }
    }
}

fn is_hb(line: &str) -> bool {
    parse_flat(line)
        .map(Obj)
        .is_some_and(|o| o.str("kind") == Some("hb"))
}

// ---------------------------------------------------------------------
// The submit client.
// ---------------------------------------------------------------------

/// What a remote campaign submission returned.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// The campaign report, byte-identical to a local same-seed run.
    pub report: String,
    /// Progress/footer notes the coordinator sent along the way
    /// (stderr material; the report stays byte-stable).
    pub notes: Vec<String>,
}

/// Submits a campaign to a coordinator and blocks until the report
/// (or a typed refusal/failure) comes back. [`submit_campaign_with`]
/// with a note sink.
pub fn submit_campaign(addr: &str, req: &CampaignRequest) -> Result<RemoteOutcome, NfpError> {
    submit_campaign_with(addr, req, |_| {})
}

/// Submits a campaign, invoking `on_note` for every progress note as
/// it arrives. Admission refusals come back as [`NfpError::Admission`],
/// transport failures as [`NfpError::Net`]; total coordinator silence
/// beyond an internal deadline is a typed error, never a hang.
pub fn submit_campaign_with(
    addr: &str,
    req: &CampaignRequest,
    mut on_note: impl FnMut(&str),
) -> Result<RemoteOutcome, NfpError> {
    let net = |detail: String| NfpError::Net {
        addr: addr.to_string(),
        detail,
    };
    let mut stream = tcp_connect(addr).map_err(net)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(|e| net(format!("set read timeout: {e}")))?;
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| net(format!("set write timeout: {e}")))?;
    write_frame(&mut stream, &render_submit(req)).map_err(|e| send_err(addr, e))?;
    let mut reader = FrameReader::new(addr);
    let mut report = String::new();
    let mut notes = Vec::new();
    let mut last_heard = Instant::now();
    loop {
        let line = match reader.recv(&mut stream)? {
            Recv::Idle => {
                if last_heard.elapsed() > CLIENT_SILENCE {
                    return Err(net(format!(
                        "coordinator silent for {}s",
                        CLIENT_SILENCE.as_secs()
                    )));
                }
                continue;
            }
            Recv::Eof => {
                return Err(net(
                    "coordinator closed the connection before the report completed".to_string(),
                ))
            }
            Recv::Frame(line) => line,
        };
        last_heard = Instant::now();
        let obj = Obj(parse_flat(&line)
            .ok_or_else(|| violation(format!("unparseable frame from coordinator: {line:?}")))?);
        match obj.str("kind") {
            Some("hb") => {}
            Some("note") => {
                let text = obj
                    .str("text")
                    .ok_or_else(|| violation("note frame lacks text"))?
                    .to_string();
                on_note(&text);
                notes.push(text);
            }
            Some("report") => {
                report.push_str(
                    obj.str("chunk")
                        .ok_or_else(|| violation("report frame lacks a chunk"))?,
                );
            }
            Some("end") => return Ok(RemoteOutcome { report, notes }),
            Some("reject") => {
                return Err(NfpError::Admission {
                    client: obj.str("client").unwrap_or(&req.client).to_string(),
                    reason: obj.str("reason").unwrap_or("(no reason given)").to_string(),
                })
            }
            Some("error") => {
                return Err(net(format!(
                    "coordinator reported: {}",
                    obj.str("detail").unwrap_or("(no detail)")
                )))
            }
            Some("bye") => return Err(net("coordinator is shutting down".to_string())),
            other => return Err(violation(format!("unknown frame kind {other:?}"))),
        }
    }
}

/// [`submit_campaign_with`] wrapped in a capped, deterministically
/// jittered retry loop (the worker's reconnect discipline, on the
/// client). Only transport failures ([`NfpError::Net`]) — connection
/// refused while a coordinator restarts, a crash mid-report — are
/// retried, up to `retries` times; admission refusals and protocol
/// violations surface immediately. Because a finished campaign is
/// cached on the coordinator keyed by its request, a retried submit is
/// idempotent: the re-presented key returns the byte-identical report
/// (or re-attaches to the still-running campaign) rather than
/// re-simulating.
pub fn submit_campaign_retry(
    addr: &str,
    req: &CampaignRequest,
    retries: u32,
    mut on_note: impl FnMut(&str),
) -> Result<RemoteOutcome, NfpError> {
    let mut attempt = 0u32;
    loop {
        match submit_campaign_with(addr, req, &mut on_note) {
            Ok(outcome) => return Ok(outcome),
            Err(NfpError::Net { detail, .. }) if attempt < retries => {
                attempt += 1;
                let delay = backoff_delay(req.campaign.seed, 0, attempt);
                on_note(&format!(
                    "submit attempt {attempt} failed ({detail}); retrying in {}ms",
                    delay.as_millis()
                ));
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_core::Outcome;
    use nfp_sim::FaultTarget;

    fn fault(i: u64) -> Fault {
        Fault {
            at: 100 + i,
            target: FaultTarget::IntReg {
                index: (i % 8) as u8,
                bit: (i % 32) as u8,
            },
        }
    }

    fn record(i: u64) -> InjectionRecord {
        InjectionRecord {
            fault: fault(i),
            category: None,
            outcome: Outcome::Masked,
        }
    }

    // -- resume ------------------------------------------------------

    #[test]
    fn resume_deletes_the_records_files_of_finished_campaigns() {
        let dir = std::env::temp_dir().join(format!("nfp_serve_sweep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.journal");
        let req = CampaignRequest {
            client: "tenant".to_string(),
            kernel: "fse".to_string(),
            mode: Mode::Float,
            campaign: CampaignConfig::default(),
            shards: 2,
            allow_partial: false,
        };
        let journal = ServiceJournal::create(&path).unwrap();
        journal.start().unwrap();
        journal.submit(0, &req, 1).unwrap();
        journal.fin(0).unwrap();
        journal.submit(1, &req, 1).unwrap();
        drop(journal);
        // Campaign 0's coordinator was killed between its fin and the
        // delete; campaign 1 is still open.
        for cid in [0, 1] {
            std::fs::write(records_path(&path, cid), "records\n").unwrap();
        }
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            journal: Some(path.clone()),
            resume: true,
            ..ServeConfig::default()
        })
        .unwrap();
        assert!(
            !records_path(&path, 0).exists(),
            "finished campaign's file kept"
        );
        assert!(
            records_path(&path, 1).exists(),
            "open campaign's file deleted"
        );
        assert_eq!(server.resumed.len(), 1);
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // -- admission ----------------------------------------------------

    #[test]
    fn zero_inflight_refuses_immediately_and_typed() {
        let adm = Admission::new(0, 4);
        match adm.try_enter("tenant-a") {
            Err(NfpError::Admission { client, reason }) => {
                assert_eq!(client, "tenant-a");
                assert!(reason.contains("admits no campaigns"), "{reason}");
            }
            other => panic!("expected an admission refusal, got {other:?}"),
        }
    }

    #[test]
    fn queue_cap_refuses_the_overflowing_client() {
        let adm = Admission::new(1, 1);
        assert_eq!(adm.try_enter("a").unwrap(), Gate::Admitted);
        assert_eq!(adm.try_enter("a").unwrap(), Gate::Queued);
        match adm.try_enter("a") {
            Err(NfpError::Admission { reason, .. }) => {
                assert!(reason.contains("per-client cap"), "{reason}");
            }
            other => panic!("expected an admission refusal, got {other:?}"),
        }
        // The cap is per client: another tenant can still queue.
        assert_eq!(adm.try_enter("b").unwrap(), Gate::Queued);
    }

    #[test]
    fn queued_submission_admits_once_a_slot_frees() {
        let adm = Arc::new(Admission::new(1, 1));
        assert_eq!(adm.try_enter("a").unwrap(), Gate::Admitted);
        assert_eq!(adm.try_enter("b").unwrap(), Gate::Queued);
        // Nothing freed yet: the bounded wait comes back empty-handed.
        assert!(!adm.wait("b", Duration::from_millis(10)));
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while Instant::now() < deadline {
                    if adm.wait("b", Duration::from_millis(50)) {
                        return true;
                    }
                }
                false
            })
        };
        adm.finish();
        assert!(waiter.join().unwrap(), "queued waiter was never admitted");
        // The queue place converted; abandoning it now is a no-op.
        adm.abandon_queue("b");
        adm.finish();
    }

    // -- submit frames ------------------------------------------------

    #[test]
    fn submit_frames_roundtrip() {
        let req = CampaignRequest {
            client: "tenant \"a\"".to_string(),
            kernel: "fse_img00".to_string(),
            mode: Mode::Float,
            campaign: CampaignConfig {
                injections: 400,
                seed: 0xfeed_5eed,
                checkpoints: 8,
                wall: Some(Duration::from_millis(750)),
                dispatch: nfp_sim::Dispatch::Step,
                escalation: 2,
            },
            shards: 4,
            allow_partial: true,
        };
        let parsed = parse_submit(&render_submit(&req)).unwrap();
        assert_eq!(parsed.client, req.client);
        assert_eq!(parsed.kernel, req.kernel);
        assert_eq!(parsed.mode, req.mode);
        assert_eq!(parsed.campaign.injections, req.campaign.injections);
        assert_eq!(parsed.campaign.seed, req.campaign.seed);
        assert_eq!(parsed.campaign.checkpoints, req.campaign.checkpoints);
        assert_eq!(parsed.campaign.wall, req.campaign.wall);
        // Dispatch is local: it is not sent, and the coordinator runs
        // traced.
        assert_eq!(parsed.campaign.dispatch, nfp_sim::Dispatch::Traced);
        assert_eq!(parsed.campaign.escalation, req.campaign.escalation);
        assert_eq!(parsed.shards, req.shards);
        assert_eq!(parsed.allow_partial, req.allow_partial);
        // No wall deadline survives as None, not 0.
        let req = CampaignRequest {
            campaign: CampaignConfig {
                wall: None,
                ..req.campaign
            },
            ..req
        };
        assert_eq!(
            parse_submit(&render_submit(&req)).unwrap().campaign.wall,
            None
        );
    }

    #[test]
    fn submit_version_mismatch_is_typed() {
        let req = CampaignRequest {
            client: "cli".to_string(),
            kernel: "fse_img00".to_string(),
            mode: Mode::Float,
            campaign: CampaignConfig::default(),
            shards: 0,
            allow_partial: false,
        };
        // v1 is the version whose submits still carried `dispatch`.
        for old in [1, 99] {
            let frame = render_submit(&req).replacen(
                &format!("\"v\":{NET_VERSION}"),
                &format!("\"v\":{old}"),
                1,
            );
            let err = parse_submit(&frame).unwrap_err();
            assert!(
                matches!(&err, NfpError::ProtocolViolation { detail }
                    if detail.contains("version mismatch")),
                "v{old}: {err}"
            );
        }
        assert!(parse_submit("garbage").is_err());
        assert!(parse_submit(HB_FRAME).is_err());
    }

    // -- the idempotency key ------------------------------------------

    #[test]
    fn campaign_key_ignores_identity_but_not_the_plan() {
        let req = CampaignRequest {
            client: "tenant-a".to_string(),
            kernel: "fse_img00".to_string(),
            mode: Mode::Float,
            campaign: CampaignConfig {
                injections: 400,
                seed: 7,
                checkpoints: 8,
                wall: None,
                dispatch: nfp_sim::Dispatch::Traced,
                escalation: 2,
            },
            shards: 4,
            allow_partial: false,
        };
        // Who asks, how the work is split and how it is dispatched
        // don't change the report bytes, so they must not change the
        // key.
        let mut same = req.clone();
        same.client = "tenant-b".to_string();
        same.shards = 0;
        same.campaign.dispatch = nfp_sim::Dispatch::Step;
        assert_eq!(campaign_key(&req), campaign_key(&same));
        // Anything the report depends on must change the key.
        for tweak in [
            |r: &mut CampaignRequest| r.kernel = "other".to_string(),
            |r: &mut CampaignRequest| r.mode = Mode::Fixed,
            |r: &mut CampaignRequest| r.campaign.injections += 1,
            |r: &mut CampaignRequest| r.campaign.seed += 1,
            |r: &mut CampaignRequest| r.campaign.checkpoints += 1,
            |r: &mut CampaignRequest| r.campaign.wall = Some(Duration::from_millis(10)),
            |r: &mut CampaignRequest| r.campaign.escalation += 1,
            |r: &mut CampaignRequest| r.allow_partial = true,
        ] {
            let mut other = req.clone();
            tweak(&mut other);
            assert_ne!(campaign_key(&req), campaign_key(&other));
        }
    }

    // -- the audit tier -----------------------------------------------

    #[test]
    fn audit_sampler_is_deterministic_and_rate_faithful() {
        // Resume safety: the sample set is a pure function of
        // (campaign seed, shard), so a restarted coordinator re-derives
        // exactly the shards its predecessor had marked for audit.
        for shard in 0..256 {
            assert_eq!(
                audit_sampled(0xfeed, shard, 0.25),
                audit_sampled(0xfeed, shard, 0.25)
            );
        }
        assert!((0..4096).all(|s| !audit_sampled(7, s, 0.0)));
        assert!((0..4096).all(|s| audit_sampled(7, s, 1.0)));
        let hits = (0..4096u32).filter(|&s| audit_sampled(7, s, 0.25)).count();
        assert!((700..=1350).contains(&hits), "0.25 sampled {hits}/4096");
        // Different seeds sample different sets.
        let other = (0..4096u32).filter(|&s| audit_sampled(8, s, 0.25)).count();
        assert!(
            (0..4096u32).any(|s| audit_sampled(7, s, 0.25) != audit_sampled(8, s, 0.25)),
            "seeds 7 and 8 picked identical sets ({hits} vs {other})"
        );
    }

    #[test]
    fn parole_doubles_per_strike_and_caps() {
        assert_eq!(parole_delay(1), Duration::from_millis(500));
        assert_eq!(parole_delay(2), Duration::from_millis(1000));
        assert_eq!(parole_delay(3), Duration::from_millis(2000));
        assert_eq!(parole_delay(8), Duration::from_millis(60_000));
        // A career criminal neither overflows nor escapes the cap.
        assert_eq!(parole_delay(u32::MAX), Duration::from_millis(60_000));
        // Strike zero (never convicted) still yields a sane floor.
        assert_eq!(parole_delay(0), Duration::from_millis(500));
    }

    #[test]
    fn convictions_escalate_strikes_and_parole_gates_admission() {
        let hub = Hub::new();
        assert!(!hub.banned(5));
        assert_eq!(hub.ban(5), 1);
        assert_eq!(hub.ban(5), 2);
        assert_eq!(hub.ban(9), 1);
        assert!(hub.banned(5));
        assert!(hub.banned(9));
        assert_eq!(hub.convicted.load(Ordering::SeqCst), 3);
        // wid 0 is unattributable and can never be blacklisted, even if
        // something inserted a ban record for it.
        assert!(!hub.banned(0));
        // A journal-restored ban gates admission like a live one, and
        // an expired parole readmits.
        hub.restore_ban(11, 4);
        assert!(hub.banned(11));
        lock(&hub.bans).get_mut(&11).unwrap().until = Instant::now();
        assert!(!hub.banned(11));
    }

    fn lease_to(shard: u32, exclude: Option<u64>, events: &mpsc::Sender<LeaseEvent>) -> Lease {
        Lease {
            hello: WorkerHello {
                header: JournalHeader {
                    id: Identity {
                        kernel: "k".to_string(),
                        mode: Mode::Float,
                        injections: 8,
                        seed: 1,
                        checkpoints: 2,
                        escalation: 2,
                        wall_ms: None,
                    },
                    golden_instret: 100,
                    shard_index: shard,
                    shard_count: 4,
                    range_start: 0,
                    range_end: 2,
                },
                preset: WorkerPreset::Quick,
                heartbeat_ms: 50,
                spin_at: None,
                abort_at: None,
            },
            faults: Arc::new(Vec::new()),
            shard,
            attempt: 1,
            events: events.clone(),
            abandoned: Arc::new(AtomicBool::new(false)),
            exclude,
        }
    }

    #[test]
    fn audit_leases_wait_for_a_disjoint_worker() {
        let hub = Hub::new();
        let (tx, _rx) = mpsc::channel::<LeaseEvent>();
        hub.push_lease(lease_to(0, Some(7), &tx));
        hub.push_lease(lease_to(1, None, &tx));
        // The producer itself asks first: it must not be handed its own
        // audit back — it gets the plain lease behind it instead.
        let got = hub.pop_lease(7).expect("a non-excluded lease");
        assert_eq!(got.shard, 1);
        assert!(got.exclude.is_none());
        // The skipped audit lease stayed queued, in order, for the next
        // disjoint worker.
        let got = hub.pop_lease(8).expect("the audit lease");
        assert_eq!(got.shard, 0);
        assert_eq!(got.exclude, Some(7));
        assert!(hub.pop_lease(8).is_none());
    }

    #[test]
    fn slow_clients_get_a_typed_admission_refusal() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let (_peer, _) = listener.accept().unwrap();
        // An already-expired budget refuses before the first write, no
        // matter how cooperative the socket is.
        let err = deliver_by(
            &mut stream,
            "tenant-slow",
            &["one note".to_string()],
            "report body",
            Instant::now(),
        )
        .unwrap_err();
        match err {
            NfpError::Admission { client, reason } => {
                assert_eq!(client, "tenant-slow");
                assert!(reason.contains("write budget"), "{reason}");
            }
            other => panic!("expected an admission refusal, got {other}"),
        }
        // With budget in hand the same delivery goes through.
        deliver_by(
            &mut stream,
            "tenant-slow",
            &["one note".to_string()],
            "report body",
            Instant::now() + Duration::from_secs(5),
        )
        .unwrap();
    }

    #[test]
    fn matching_streams_ignore_attempt_counts() {
        // An honest worker that needed a respawn mid-shard reports
        // attempts > 1; the audit comparison must not convict it for
        // that — only (index, record) content counts.
        let a: LeaseRecords = vec![(0, record(0), 1), (1, record(1), 1)];
        let b: LeaseRecords = vec![(0, record(0), 3), (1, record(1), 2)];
        assert!(streams_match(&a, &b));
        let local = vec![record(0), record(1)];
        assert!(matches_local(&b, 0, &local));
        assert!(!matches_local(&b, 1, &local));
        // A flipped outcome is exactly what it must catch.
        let mut lie = record(1);
        lie.outcome = Outcome::Sdc;
        let c: LeaseRecords = vec![(0, record(0), 1), (1, lie, 1)];
        assert!(!streams_match(&a, &c));
        assert!(!matches_local(&c, 0, &local));
        // As is a silently shortened stream.
        let d: LeaseRecords = vec![(0, record(0), 1)];
        assert!(!streams_match(&a, &d));
        assert!(!matches_local(&d, 0, &local));
    }
}
