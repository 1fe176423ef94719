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
//! * **Every wait is bounded.** Every conversation is a link of the
//!   crate's `net` module with a read tick, a write timeout and its own
//!   beat and silence limit, and one lease driver serves this
//!   coordinator and the supervisor's process pool alike. Admission
//!   waits poll a shutdown flag; the accept loop is non-blocking.
//! * **Leases, not assignments.** A shard lease is revocable. The
//!   crate's shard book decides what follows — a retry after its
//!   backoff deadline, a speculative duplicate of a straggler, an
//!   audit, a loss — and each campaign's thread here is only its shell.
//! * **Admission control.** A bounded number of campaigns run
//!   concurrently; each client may queue a bounded number more;
//!   everything beyond that is refused with a typed
//!   [`NfpError::Admission`] instead of an unbounded backlog.
//! * **Graceful degradation.** With no live workers past a grace
//!   period the coordinator runs the remaining shards on its own
//!   local pool ([`crate::supervisor`]), so a campaign never depends
//!   on the network being healthy — only faster.

use crate::backoff::{backoff_delay, TICK};
use crate::book::{Action, Event, Policy, ShardBook, Why};
use crate::cache::ResultCache;
use crate::campaign::{assemble, report_campaign, CampaignConfig, CampaignRig, InjectionRecord};
use crate::evaluation::Mode;
use crate::flatjson::{esc, parse_flat, Obj};
use crate::identity::Identity;
use crate::journal::{quarantine, CampaignJournal, JournalHeader, LeaseRecords};
use crate::net::{
    drive_lease, frame_kind, parse_join, render_note, render_reject, render_report_chunk,
    violation, worker_silence, Failure, JoinFrame, LeaseEnd, Link, BYE_FRAME, END_FRAME,
    NET_VERSION,
};
use crate::reports::{report_campaign_footer, CampaignFooter};
use crate::servejournal::{load_service_journal, records_path, OpenCampaign, ServiceJournal};
use crate::shards::{clear_range, missing_ranges_of, shard_range, ShardSpec};
use crate::supervisor::{run_supervised, SupervisorConfig, WorkerIsolation};
use crate::worker::{render_error, tcp_connect, WorkerHello, WorkerPreset};
use nfp_core::{HarnessCause, NfpError};
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

/// How long a fresh connection may stay silent before its first frame
/// (join or submit) before the coordinator drops it.
const FIRST_FRAME_SILENCE: Duration = Duration::from_secs(5);

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
    /// Where the lease's start, return or failure goes: the owning
    /// campaign's shard book.
    events: mpsc::Sender<Event<LeaseRecords>>,
    /// Set by the owning campaign when the shard no longer needs this
    /// lease (completed elsewhere, campaign over): peers skip it.
    abandoned: Arc<AtomicBool>,
    /// Worker id that must NOT take this lease — an audit re-execution
    /// is only a second opinion when it comes from a disjoint worker.
    exclude: Option<u64>,
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
#[derive(Default)]
struct Hub {
    queue: Mutex<VecDeque<Lease>>,
    shutdown: AtomicBool,
    live_peers: AtomicUsize,
    peers_seen: AtomicUsize,
    reconnects: AtomicUsize,
    frames_rejected: AtomicUsize,
    peers_retired: AtomicUsize,
    /// Leases revoked from silent or overrunning peers.
    leases_revoked: AtomicUsize,
    next_peer: AtomicU64,
    /// Audit-tier blacklist by worker id (never wid 0 — a peer that
    /// sent no identity cannot be attributed, so it is never banned).
    bans: Mutex<HashMap<u64, BanState>>,
    /// Convictions over the server's lifetime, for the summary.
    convicted: AtomicUsize,
}

impl Hub {
    /// Pops the next live lease the worker `wid` may take, discarding
    /// abandoned ones and skipping (but keeping, in order) leases that
    /// exclude this worker — an audit lease waits for a disjoint peer.
    fn pop_lease(&self, wid: u64) -> Option<Lease> {
        let mut q = lock(&self.queue);
        q.retain(|l| !l.abandoned.load(Ordering::SeqCst));
        let at = q.iter().position(|l| l.exclude != Some(wid))?;
        q.remove(at)
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

    /// Counts a rejected frame when a conversation broke over one.
    fn tally(&self, f: &Failure) {
        if f.cause == HarnessCause::ProtocolViolation {
            self.frames_rejected.fetch_add(1, Ordering::SeqCst);
        }
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
#[derive(Default)]
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

#[derive(Default)]
enum LiveState {
    #[default]
    Running,
    Done {
        notes: Vec<String>,
        report: String,
    },
    Failed(String),
}

impl LiveEntry {
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

#[derive(Default)]
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
            state: Mutex::default(),
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
        let hub = Hub::default();
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
            let entry = Arc::new(LiveEntry {
                resumed: true,
                ..LiveEntry::default()
            });
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
fn handle_connection(stream: TcpStream, addr: SocketAddr, ctx: &Ctx) {
    let label = addr.to_string();
    let Ok(mut link) = Link::tcp(stream, label.clone()) else {
        return;
    };
    link.pace(None, Some(FIRST_FRAME_SILENCE));
    let first = match link.next(&ctx.hub.shutdown) {
        Ok(Some(frame)) => frame,
        Ok(None) => return,
        Err(f) => {
            ctx.hub.tally(&f);
            eprintln!("serve: dropped {label}: {}", f.detail);
            return;
        }
    };
    let refused = match frame_kind(&first).as_deref() {
        Some("join") => match parse_join(&first) {
            Ok(join) => return drive_peer(link, join, ctx),
            Err(e) => e.to_string(),
        },
        Some("submit") => match parse_submit(&first) {
            Ok(req) => return run_remote_campaign(link, req, ctx),
            Err(e) => e.to_string(),
        },
        _ => "first frame must be a join or a submit".to_string(),
    };
    ctx.hub.frames_rejected.fetch_add(1, Ordering::SeqCst);
    let _ = link.send(&render_error(&refused));
    eprintln!("serve: dropped {label}: {refused}");
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

/// Drives one joined worker: heartbeats both ways, the worker silence
/// limit, and one lease at a time popped from the hub queue, each run
/// by [`drive_lease`] under the lease deadline. Any violation, silence,
/// or death retires the peer — its shard (if any) re-enters the queue
/// via the lease's `Failed` event, and the worker's own reconnect
/// backoff brings it back for a clean slate.
fn drive_peer(mut link: Link, join: JoinFrame, ctx: &Ctx) {
    let hub = &ctx.hub;
    let blacklisted = format!("worker {} is blacklisted", join.wid);
    // The blacklist gates admission: a convicted worker is turned away
    // at the door until its parole expires.
    if hub.banned(join.wid) {
        eprintln!(
            "serve: refused worker {}: blacklisted pending parole",
            join.wid
        );
        let _ = link.send(&render_error(&blacklisted));
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

    let beat = ctx.cfg.heartbeat;
    link.pace(Some(beat), Some(worker_silence(beat)));
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            let _ = link.send(BYE_FRAME);
            return;
        }
        if let Err(f) = link.idle() {
            hub.tally(&f);
            hub.retire(&label, &format!("{} while idle", f.detail));
            return;
        }
        // A conviction can land while the session is open: revoke it.
        if hub.banned(join.wid) {
            let _ = link.send(&render_error(&blacklisted));
            hub.retire(
                &label,
                &format!("wid {} blacklisted after an audit conviction", join.wid),
            );
            return;
        }
        let Some(lease) = hub.pop_lease(join.wid) else {
            continue;
        };
        let (shard, attempt) = (lease.shard, lease.attempt);
        let _ = lease.events.send(Event::Leased { shard, attempt });
        eprintln!("serve: shard {shard} leased to {label} (attempt {attempt})");
        let failed = |detail: String| Event::Failed {
            shard,
            attempt,
            detail,
        };
        let deadline = Some(ctx.cfg.lease_timeout);
        let leased = drive_lease(
            &mut link,
            &lease.hello,
            &lease.faults,
            deadline,
            &hub.shutdown,
        );
        let detail = match leased {
            Ok(LeaseEnd::Fin(records)) => {
                let _ = lease.events.send(Event::Returned {
                    shard,
                    attempt,
                    wid: join.wid,
                    // A conviction can land while the lease runs.
                    banned: hub.banned(join.wid),
                    stream: records,
                });
                continue;
            }
            Ok(LeaseEnd::Stopped) => {
                // Shutdown mid-lease: hand the shard back and bow out.
                let _ = lease
                    .events
                    .send(failed("coordinator shutting down".to_string()));
                let _ = link.send(BYE_FRAME);
                return;
            }
            Ok(LeaseEnd::Error(detail)) => format!("peer reported: {detail}"),
            Err(f) => {
                hub.tally(&f);
                // A lease lost to a clock is revoked.
                if matches!(
                    f.cause,
                    HarnessCause::HeartbeatTimeout | HarnessCause::DeadlineExceeded
                ) {
                    hub.leases_revoked.fetch_add(1, Ordering::SeqCst);
                }
                f.detail
            }
        };
        let _ = lease.events.send(failed(detail.clone()));
        hub.retire(&label, &detail);
        return;
    }
}

// ---------------------------------------------------------------------
// The campaign side: one thread per admitted submission.
// ---------------------------------------------------------------------

/// Handles one client submission end to end: drain gate, result-cache
/// fast path, live-campaign deduplication, admission, then the
/// dispatch loop ([`drive_campaign`]) and result publication
/// ([`finish_campaign`]).
fn run_remote_campaign(mut client: Link, req: CampaignRequest, ctx: &Ctx) {
    let label = format!("client '{}'", req.client);
    // A waiting client gets a beat; it owes nothing but heartbeats.
    client.pace(Some(CLIENT_BEAT), None);
    if ctx.draining.load(Ordering::SeqCst) {
        let reason = "coordinator is draining; no new campaigns are admitted";
        let _ = client.send(&render_reject(&req.client, reason));
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
        match deliver(&mut client, &req.client, &[note], &report) {
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
                let entry = Arc::new(LiveEntry::default());
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
        follow_live(client, &entry, ctx, &label);
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
            let _ = client.send(&render_reject(&req.client, &reason));
            eprintln!("serve: refused {label}: {reason}");
            abort_entry(&key, &entry, &format!("admission refused: {reason}"), ctx);
            return;
        }
        Ok(Gate::Admitted) => {}
        Ok(Gate::Queued) => {
            eprintln!("serve: queued {label} behind the in-flight limit");
            loop {
                if ctx.admission.wait(&req.client, Duration::from_millis(100)) {
                    break;
                }
                if ctx.hub.shutdown.load(Ordering::SeqCst) {
                    ctx.admission.abandon_queue(&req.client);
                    let _ = client.send(&render_error("coordinator shutting down"));
                    abort_entry(&key, &entry, "coordinator shutting down", ctx);
                    return;
                }
                if let Err(f) = client.idle() {
                    // The queued client died or babbled: its place goes
                    // back to the pool.
                    ctx.hub.tally(&f);
                    ctx.admission.abandon_queue(&req.client);
                    eprintln!("serve: {label} left the queue");
                    abort_entry(&key, &entry, "client left the admission queue", ctx);
                    return;
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
    let mut link = Some(client);
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
fn follow_live(mut client: Link, entry: &LiveEntry, ctx: &Ctx, label: &str) {
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
                let _ = client.send(&render_error(&detail));
                return;
            }
            None => {}
        }
        if ctx.hub.shutdown.load(Ordering::SeqCst) {
            let _ = client.send(&render_error("coordinator shutting down"));
            return;
        }
        if let Err(f) = client.idle() {
            ctx.hub.tally(&f);
            eprintln!("serve: {label} stopped following; the campaign continues");
            return;
        }
    }
}

/// Total write budget towards one client for the notes and the chunked
/// report. Every frame write already carries the link's write timeout
/// ([`crate::net::WRITE_TIMEOUT`]); the budget bounds their *sum*, so a
/// slow-loris client draining a few bytes per deadline cannot pin a
/// coordinator thread (and the report buffers it holds) for more than
/// this long.
const CLIENT_WRITE_BUDGET: Duration = Duration::from_secs(30);

/// Streams notes, the chunked report, and the end frame to a client,
/// under [`CLIENT_WRITE_BUDGET`].
fn deliver(link: &mut Link, client: &str, notes: &[String], report: &str) -> Result<(), NfpError> {
    let deadline = Instant::now() + CLIENT_WRITE_BUDGET;
    deliver_by(link, client, notes, report, deadline)
}

/// [`deliver`] against an explicit deadline. Exhausting the budget is a
/// typed [`NfpError::Admission`] refusal — the client was admitted, but
/// it has stopped holding up its end of the conversation.
fn deliver_by(
    link: &mut Link,
    client: &str,
    notes: &[String],
    report: &str,
    deadline: Instant,
) -> Result<(), NfpError> {
    let mut sent = 0usize;
    let mut put = |frame: &str| -> Result<(), NfpError> {
        if Instant::now() >= deadline {
            return Err(NfpError::Admission {
                client: client.to_string(),
                reason: format!(
                    "per-report write budget of {}s exhausted after {sent} bytes — slow client",
                    CLIENT_WRITE_BUDGET.as_secs()
                ),
            });
        }
        link.send(frame).map_err(|e| NfpError::Net {
            addr: client.to_string(),
            detail: format!("report write failed: {e}"),
        })?;
        sent += frame.len();
        Ok(())
    };
    for note in notes {
        put(&render_note(note))?;
    }
    let mut rest = report;
    while !rest.is_empty() {
        let mut cut = rest.len().min(REPORT_CHUNK);
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (head, tail) = rest.split_at(cut);
        put(&render_report_chunk(head))?;
        rest = tail;
    }
    put(END_FRAME)
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

/// Deletes the records files of the campaigns a resumed service journal
/// shows finished. [`CampaignShell::close`] journals the fin before it deletes
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

/// One campaign's side of the coordinator: executes the shard book's
/// actions over the lease queue, the records file, the service journal
/// and the trusted local pool.
struct CampaignShell<'a> {
    ctx: &'a Ctx,
    kernel: &'a Kernel,
    req: &'a CampaignRequest,
    label: &'a str,
    cid: Option<u64>,
    /// Each shard's lease hello; its header names the shard's range.
    hellos: Vec<WorkerHello>,
    faults: Arc<Vec<Fault>>,
    events: mpsc::Sender<Event<LeaseRecords>>,
    /// Per-shard cancellation flag, shared with the shard's leases.
    abandoned: Vec<Arc<AtomicBool>>,
    slots: Slots,
    /// The records file of a durable campaign, bound to `cid`.
    records: Option<CampaignJournal>,
    /// Ranges were cleared since the records file was last rewritten.
    cleared: bool,
    kills: usize,
    respawns: usize,
    /// The campaign's epoch: the book's instants count from here.
    clock: Instant,
}

impl CampaignShell<'_> {
    /// Appends a service-journal event of a durable campaign.
    fn journal(&self, event: impl FnOnce(&ServiceJournal, u64) -> Result<(), NfpError>) {
        if let (Some(cid), Some(journal)) = (self.cid, &self.ctx.journal) {
            let _ = event(journal, cid);
        }
    }

    /// Cancels every lease: peers never work for a finished campaign.
    fn abandon_all(&self) {
        for flag in &self.abandoned {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Ends the campaign: cancel every lease and close out the durable
    /// state so a restart does not retry it forever.
    fn fatal(&mut self, detail: String) -> DriveFail {
        self.abandon_all();
        self.close(false);
        DriveFail::Fatal(detail)
    }

    /// Closes out the durable state of a finished (or terminally failed)
    /// campaign: seal the records file when the run is complete, journal
    /// the service fin, and delete the records file.
    fn close(&mut self, complete: bool) {
        let (Some(mut records), Some(cid)) = (self.records.take(), self.cid) else {
            return;
        };
        if complete {
            let _ = records.seal(&self.slots);
        }
        drop(records);
        if let Some(journal) = &self.ctx.journal {
            let _ = journal.fin(cid);
            let _ = std::fs::remove_file(records_path(journal.path(), cid));
        }
    }

    /// Carries out the book's actions in order. An arbitration runs at
    /// once, and what the book makes of it is carried out before the rest.
    fn execute(
        &mut self,
        book: &mut ShardBook<LeaseRecords>,
        actions: Vec<Action<LeaseRecords>>,
    ) -> Result<(), DriveFail> {
        let label = self.label;
        for action in actions {
            match action {
                Action::Dispatch {
                    shard,
                    attempt,
                    exclude,
                    why,
                } => {
                    match why {
                        Why::Fresh => {}
                        Why::Audit => eprintln!(
                            "serve: shard {shard} of {label} sampled for audit; re-dispatching \
                             to a disjoint worker"
                        ),
                        Why::Speculate => eprintln!(
                            "serve: shard {shard} straggling; dispatching a speculative duplicate"
                        ),
                    }
                    self.journal(|j, cid| j.lease(cid, shard, attempt));
                    self.ctx.hub.push_lease(Lease {
                        hello: self.hellos[shard as usize].clone(),
                        faults: Arc::clone(&self.faults),
                        shard,
                        attempt,
                        events: self.events.clone(),
                        abandoned: Arc::clone(&self.abandoned[shard as usize]),
                        exclude,
                    });
                }
                Action::Accept { shard, stream, .. } => {
                    for (i, rec, attempts) in stream {
                        self.slots[i] = Some((rec, attempts));
                    }
                    eprintln!("serve: shard {shard} of {label} complete");
                    self.persist(shard)?;
                }
                Action::Cancel { shard } => {
                    // Later dispatches of the shard need a fresh flag, or
                    // their leases are stillborn.
                    let flag = &mut self.abandoned[shard as usize];
                    flag.store(true, Ordering::SeqCst);
                    *flag = Arc::new(AtomicBool::new(false));
                }
                Action::Arbitrate { shard } => {
                    eprintln!("serve: shard {shard} of {label}: re-executing on the local pool");
                    let truth = self.run_local(shard);
                    let verdicts =
                        book.on(self.clock.elapsed(), Event::Arbitrated { shard, truth });
                    self.execute(book, verdicts)?;
                }
                Action::Verdict {
                    shard,
                    wid,
                    verdict,
                } => {
                    // A convict is named only once its ban is journaled.
                    self.journal(|j, cid| j.audit(cid, shard, wid, verdict));
                    eprintln!(
                        "serve: audit of shard {shard} of {label}: '{verdict}' for worker {wid}"
                    );
                }
                Action::Ban { shard, wid } => {
                    let strikes = self.ctx.hub.ban(wid);
                    if let Some(journal) = &self.ctx.journal {
                        let _ = journal.ban(wid, strikes);
                    }
                    eprintln!(
                        "serve: worker {wid} convicted of falsifying records; blacklisted over \
                         shard {shard} of {label} (strike {strikes}, parole {}ms)",
                        parole_delay(strikes).as_millis()
                    );
                }
                Action::Invalidate { shard, wid } => {
                    // Journal the invalidation first, then drop the
                    // records: a crash in between still drops them on
                    // resume.
                    self.journal(|j, cid| j.invalidate(cid, shard));
                    clear_range(&mut self.slots, self.hellos[shard as usize].header.range());
                    self.cleared = true;
                    eprintln!(
                        "serve: shard {shard} of {label} invalidated (returned by convicted \
                         worker {wid}); re-dispatching"
                    );
                }
                Action::Lose(e) => eprintln!("serve: {e}; continuing under --allow-partial"),
                Action::Fail(e) => return Err(self.fatal(e.to_string())),
            }
        }
        Ok(())
    }

    /// Persists an accepted shard's records and journals the completion.
    /// The `invalidate` events went to the service journal first, so a
    /// crash before the records-file rewrite still drops a convict's
    /// records on resume: restoration is gated on the journaled shard
    /// set. A write failure ends the campaign — durability was promised.
    fn persist(&mut self, shard: u32) -> Result<(), DriveFail> {
        let cleared = std::mem::take(&mut self.cleared);
        let Some(records) = self.records.as_mut() else {
            return Ok(());
        };
        let range = self.hellos[shard as usize].header.range();
        let rewritten = if cleared {
            records.rewrite(&self.slots)
        } else {
            Ok(())
        };
        match rewritten.and_then(|()| records.append(&self.slots, range)) {
            Ok(()) => {
                self.journal(|j, cid| j.shard_done(cid, shard));
                Ok(())
            }
            Err(e) => Err(self.fatal(e.to_string())),
        }
    }

    /// The trusted tie-breaker: re-executes `shard` on the coordinator's
    /// own pool.
    fn run_local(&mut self, shard: u32) -> Result<LeaseRecords, NfpError> {
        let cfg = &self.ctx.cfg;
        let mut sup = SupervisorConfig::new(self.req.campaign.clone());
        sup.isolation = cfg.isolation;
        sup.preset = cfg.preset;
        sup.worker_bin = cfg.worker_bin.clone();
        if sup.isolation == WorkerIsolation::Process {
            sup.deadline = Some(Duration::from_secs(300));
        }
        sup.shard = Some(ShardSpec {
            index: shard,
            count: self.hellos.len() as u32,
        });
        let out = run_supervised(self.kernel, self.req.mode, &sup)
            .inspect_err(|e| eprintln!("serve: local arbitration of shard {shard} failed: {e}"))?;
        self.kills += out.kills;
        self.respawns += out.respawns;
        let start = self.hellos[shard as usize].header.range().0;
        let records = out.result.records.into_iter().enumerate();
        Ok(records.map(|(k, rec)| (start + k, rec, 1)).collect())
    }
}

impl From<NfpError> for DriveFail {
    fn from(e: NfpError) -> Self {
        DriveFail::Fatal(e.to_string())
    }
}

/// Executes one campaign end to end: plan it, split it into shard
/// leases, and feed the lease events to the shard book, carrying out
/// its decisions and journaling every durable transition. `link` is the
/// attached submit client, if any; a journaled (or followed) campaign
/// survives its client and runs on headless so the result still lands
/// in the cache.
fn drive_campaign(
    link: &mut Option<Link>,
    req: &CampaignRequest,
    entry: &LiveEntry,
    durable: Durable,
    ctx: &Ctx,
) -> Result<DriveOutcome, DriveFail> {
    let label = format!("client '{}'", req.client);
    let fatal = |detail: String| Err(DriveFail::Fatal(detail));
    // Plan the campaign. The golden run here is the trust anchor every
    // remote result must re-derive (golden handshake, CRCs, digests).
    let kernels = all_kernels(&ctx.cfg.preset.build())?;
    let Some(kernel) = kernels.iter().find(|k| k.name == req.kernel) else {
        return fatal(format!(
            "kernel '{}' is not in the {} preset",
            req.kernel,
            ctx.cfg.preset.name()
        ));
    };
    let campaign = &req.campaign;
    let (rig, space) = CampaignRig::prepare(kernel, req.mode, campaign)?;
    let faults = Arc::new(plan(&space, campaign.injections, campaign.seed));
    // No shard count asks for one shard per live peer; a resumed submit
    // carries the count its first run resolved.
    let wanted = match req.shards {
        0 => ctx.hub.live_peers.load(Ordering::SeqCst) as u32,
        n => n,
    };
    let count = wanted.min(campaign.injections.max(1) as u32).max(1);

    let mut slots: Slots = vec![None; faults.len()];
    let bind = |shard| JournalHeader::bind(kernel, req.mode, campaign, rig.golden_instret, shard);
    // A journaled run is bound to a campaign id: a fresh one for a new
    // submit, journaled once the golden run bound it, or the journaled
    // one on a resume.
    let durable_cid = match (&ctx.journal, &durable) {
        (None, _) | (_, Durable::No) => None,
        (Some(journal), Durable::Fresh) => {
            let cid = ctx.next_cid.fetch_add(1, Ordering::SeqCst);
            let mut resolved = req.clone();
            resolved.shards = count;
            journal.submit(cid, &resolved, rig.golden_instret)?;
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
    let mut records: Option<CampaignJournal> = None;
    if let (Some(cid), Some(journal)) = (durable_cid, &ctx.journal) {
        let path = records_path(journal.path(), cid);
        let opened =
            open_records(&path, &bind(None), &faults, &mut slots).and_then(|mut records| {
                if let Durable::Resumed { done_shards, .. } = &durable {
                    // Restoration is gated on the journaled shard_done set
                    // (net of `invalidate` events): records of a shard never
                    // journaled as done — including a convicted worker's
                    // ranges when the crash landed between the invalidate
                    // event and the records-file rewrite — are distrusted,
                    // dropped, and re-run.
                    let dropped: usize = (0..count)
                        .filter(|shard| !done_shards.contains(shard))
                        .map(|shard| {
                            clear_range(&mut slots, shard_range(campaign.injections, shard, count))
                        })
                        .sum();
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
            Ok(opened) => records = Some(opened),
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

    let hellos: Vec<WorkerHello> = (0..count)
        .map(|index| WorkerHello {
            header: bind(Some(ShardSpec { index, count })),
            preset: ctx.cfg.preset,
            heartbeat_ms: ctx.cfg.heartbeat.as_millis() as u64,
            spin_at: None,
            abort_at: None,
        })
        .collect();
    // A shard whose whole range was restored from the records file never
    // re-dispatches (and was audited, or unsampled, before it was
    // allowed to persist).
    let done: Vec<bool> = hellos
        .iter()
        .map(|h| {
            let (start, end) = h.header.range();
            slots[start..end].iter().all(Option::is_some)
        })
        .collect();
    let policy = Policy {
        seed: campaign.seed,
        injections: campaign.injections,
        retries: ctx.cfg.shard_retries,
        straggler: ctx.cfg.straggler,
        allow_partial: req.allow_partial,
        audit_rate: ctx.cfg.audit_rate,
        patience: ctx.cfg.peer_grace.max(Duration::from_secs(2)),
    };
    let (mut book, first) = ShardBook::open(policy, &done);
    let (events, ev_rx) = mpsc::channel::<Event<LeaseRecords>>();
    let mut shell = CampaignShell {
        ctx,
        kernel,
        req,
        label: &label,
        cid: durable_cid,
        hellos,
        faults,
        events,
        abandoned: (0..count).map(|_| Arc::default()).collect(),
        slots,
        records,
        cleared: false,
        kills: 0,
        respawns: 0,
        clock: Instant::now(),
    };
    shell.execute(&mut book, first)?;

    // Ride the lease events. Counters snapshot the hub so the footer
    // reports this campaign's share of the network churn.
    let reconnects0 = ctx.hub.reconnects.load(Ordering::SeqCst);
    let rejected0 = ctx.hub.frames_rejected.load(Ordering::SeqCst);
    let retired0 = ctx.hub.peers_retired.load(Ordering::SeqCst);
    let revoked0 = ctx.hub.leases_revoked.load(Ordering::SeqCst);
    let mut live_notes: Vec<String> = Vec::new();
    while !book.finished() {
        match ev_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(event) => {
                match &event {
                    Event::Returned {
                        shard, wid, banned, ..
                    } => {
                        shell.journal(|j, cid| j.lease_return(cid, *shard, true));
                        if *banned {
                            eprintln!(
                                "serve: discarding shard {shard} from blacklisted worker {wid}"
                            );
                        }
                    }
                    Event::Failed { shard, detail, .. } => {
                        shell.journal(|j, cid| j.lease_return(cid, *shard, false));
                        eprintln!("serve: shard {shard} lease failed ({detail})");
                    }
                    _ => {}
                }
                let actions = book.on(shell.clock.elapsed(), event);
                shell.execute(&mut book, actions)?;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Unreachable: the shell holds a sender until this returns.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        // Graceful degradation: no live peers past the grace period
        // means the network is not coming to help — the book sends what
        // remains to the local pool, which runs it byte-identically.
        let stranded = ctx.hub.live_peers.load(Ordering::SeqCst) == 0
            && shell.clock.elapsed() >= ctx.cfg.peer_grace;
        if stranded && book.pending() > 0 {
            let note = format!(
                "no live peers after {}ms; falling back to the local worker pool for {} shards",
                ctx.cfg.peer_grace.as_millis(),
                book.pending()
            );
            eprintln!("serve: {note}");
            if let Some(l) = link.as_mut() {
                let _ = l.send(&render_note(&note));
            }
            live_notes.push(note);
        }
        let actions = book.on(shell.clock.elapsed(), Event::Tick { stranded });
        shell.execute(&mut book, actions)?;
        // Client liveness. A journaled campaign — or one with
        // followers — outlives its client: detach and keep running
        // headless so the result lands in the cache for the session
        // to resume. Otherwise a dead (or babbling) client frees the
        // workers.
        if let Some(Err(f)) = link.as_mut().map(Link::idle) {
            ctx.hub.tally(&f);
            *link = None;
            if durable_cid.is_some() || entry.subscribers.load(Ordering::SeqCst) > 0 {
                eprintln!("serve: {label} disconnected; the campaign continues headless");
            } else {
                eprintln!("serve: {label} disconnected; abandoning the campaign");
                shell.abandon_all();
                return Err(DriveFail::Interrupted(
                    "client disconnected mid-campaign".to_string(),
                ));
            }
        }
        if ctx.hub.shutdown.load(Ordering::SeqCst) {
            shell.abandon_all();
            return Err(DriveFail::Interrupted(
                "coordinator shutting down".to_string(),
            ));
        }
    }
    // Stale speculative leases must not outlive the campaign.
    shell.abandon_all();
    let missing = missing_ranges_of(&shell.slots);
    let complete = missing.is_empty();
    shell.close(complete);
    let tally = book.tally();
    let footer = CampaignFooter {
        kills: shell.kills,
        respawns: shell.respawns,
        shards: count,
        shard_retries: tally.redispatched,
        speculated: tally.speculated,
        missing_ranges: missing,
        reconnects: ctx.hub.reconnects.load(Ordering::SeqCst) - reconnects0,
        leases_revoked: ctx.hub.leases_revoked.load(Ordering::SeqCst) - revoked0,
        frames_rejected: ctx.hub.frames_rejected.load(Ordering::SeqCst) - rejected0,
        peers_retired: ctx.hub.peers_retired.load(Ordering::SeqCst) - retired0,
        ranges_audited: tally.audited,
        audits_passed: tally.passed,
        workers_convicted: tally.convicted,
        ranges_invalidated: tally.invalidated,
        dispatch: Some(rig.machine.dispatch_stats()),
        cache_hits: ctx.cache_hits.load(Ordering::SeqCst),
        cache_misses: ctx.cache_misses.load(Ordering::SeqCst),
        submits_deduped: ctx.submits_deduped.load(Ordering::SeqCst),
        sessions_resumed: ctx.sessions_resumed.load(Ordering::SeqCst),
        restarts: ctx.restarts,
    };
    let records = shell.slots.into_iter().flatten().map(|(rec, _)| rec);
    let result = assemble(kernel, req.mode, &rig, records.collect());
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
    mut link: Option<Link>,
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
                if let Err(e) = deliver(l, label, &out.footer_notes, &out.report) {
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
                let _ = l.send(&render_error(&detail));
            }
            eprintln!("serve: campaign for {label} failed: {detail}");
        }
    }
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
    let stream = tcp_connect(addr).map_err(net)?;
    let mut link = Link::tcp(stream, addr).map_err(|e| net(format!("socket setup: {e}")))?;
    link.pace(None, Some(CLIENT_SILENCE));
    link.send(&render_submit(req))
        .map_err(|e| net(format!("write failed: {e}")))?;
    let mut report = String::new();
    let mut notes = Vec::new();
    loop {
        let line = match link.poll() {
            Ok(Some(line)) => line,
            Ok(None) => continue,
            Err(f) if f.cause == HarnessCause::ProtocolViolation => {
                return Err(violation(f.detail))
            }
            Err(f) => return Err(net(format!("coordinator: {}", f.detail))),
        };
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
    use crate::net::HB_FRAME;

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
        let hub = Hub::default();
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

    fn lease_to(
        shard: u32,
        exclude: Option<u64>,
        events: &mpsc::Sender<Event<LeaseRecords>>,
    ) -> Lease {
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
        let hub = Hub::default();
        let (tx, _rx) = mpsc::channel::<Event<LeaseRecords>>();
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
        let mut stream = Link::tcp(TcpStream::connect(addr).unwrap(), "tenant-slow").unwrap();
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
}
