//! Crash-safe campaign supervisor: journaled resume and panic
//! isolation for long fault-injection campaigns.
//!
//! A multi-hour campaign must survive the two ways it actually dies in
//! practice: the host kills the process (OOM, preemption, ^C) and a
//! latent harness bug panics mid-replay. The supervisor addresses both
//! without giving up the campaign contract that a fixed seed yields a
//! bit-identical [`CampaignResult`]:
//!
//! * **Write-ahead journal** — with [`SupervisorConfig::journal`] set,
//!   every classified injection is appended to a JSONL file and
//!   flushed before the next record is accepted, all on the supervisor
//!   thread. The format and its crash discipline (binding header, CRC'd
//!   records, one torn tail truncated on resume, the fin that seals a
//!   complete range) belong to the crate's `journal` module, which the
//!   shard merge and the remote coordinator share.
//! * **Resume** — [`SupervisorConfig::resume`] replays the journal,
//!   marks its injections complete, and runs only the remainder. The
//!   merged result is identical to an uninterrupted campaign.
//! * **Panic isolation** — every replay in a process, a worker thread's
//!   and a `repro worker`'s alike, runs through one executor under
//!   [`std::panic::catch_unwind`]. A panicking replay is retried once on
//!   a fresh machine that replays against the campaign's one shared
//!   golden reference (the panicked machine may hold a half-armed
//!   fault); a second panic quarantines the injection as
//!   [`Outcome::HarnessFault`] with its full fault spec logged, and the
//!   campaign carries on. Harness faults are excluded from the
//!   vulnerability quotient — they measure the harness, not the kernel.
//! * **Process isolation** — [`WorkerIsolation::Process`] moves each
//!   replay slot's rig into a `repro worker` subprocess that speaks the
//!   lease protocol of [`crate::worker`] over its stdin and stdout, one
//!   injection per lease, driven by the lease driver the remote
//!   coordinator uses (the crate's `net` module). Threads cannot
//!   survive an `abort()`, a segfault, or a replay that wedges inside
//!   native code; processes can. A worker that dies takes only its
//!   in-flight injection with it; one that goes silent, overruns its
//!   deadline, or sends a frame the checker refuses is SIGKILLed.
//!   Either way the injection is retried once on a freshly spawned
//!   process and quarantined on a second failed lease — exactly the
//!   panic-isolation semantics, lifted to process granularity. A worker
//!   lost before its join fails no lease. Respawns back off
//!   exponentially (capped, with deterministic seeded jitter so wall
//!   clocks never leak into results). Journals and reports are
//!   byte-compatible with thread mode.
//! * **One slot loop** — thread and process slots run the same loop and
//!   differ only in their rig, a machine in this process or a worker
//!   subprocess, set up on demand, which runs one attempt at a claim.
//!   The loop claims plan indices, counts attempts, files quarantines,
//!   charges the respawn budget (only process rigs fail) and retires a
//!   slot whose rig cannot go on: a worker that keeps crash-looping, or
//!   a thread that loads no fresh machine after a panic. A retiring
//!   slot hands its claim back, and the pool degrades in parallelism,
//!   never in coverage.
//!
use crate::backoff::{backoff_sleep, TICK};
use crate::campaign::{CampaignConfig, CampaignResult, Golden, InjectionRecord};
use crate::evaluation::Mode;
use crate::journal::{CampaignJournal, JournalHeader, LeaseRecords};
use crate::net::{drive_lease, lock, parse_join, worker_silence, Failure, LeaseEnd, Link};
use crate::shards::ShardSpec;
use crate::worker::{WorkerHello, WorkerPreset};
use nfp_core::{HarnessCause, NfpError, Outcome};
use nfp_sim::{DispatchStats, Fault, Machine, SimError};
use nfp_workloads::Kernel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// How the supervisor isolates its replay workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerIsolation {
    /// Worker threads in the supervisor's own process, with panic
    /// isolation per replay. No defence against aborts, segfaults, or
    /// runaway native loops inside a replay.
    Thread,
    /// One `repro worker` subprocess per slot, leased one injection at
    /// a time over its stdin and stdout. A worker that dies, goes
    /// heartbeat-silent, or overruns its injection deadline is
    /// SIGKILLed and respawned with capped exponential backoff; the
    /// in-flight injection is retried once on a fresh process and then
    /// quarantined. Falls back to [`WorkerIsolation::Thread`] (with a
    /// logged warning) when subprocesses cannot be spawned at all.
    Process,
}

/// Supervisor parameters wrapping a [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The campaign to supervise.
    pub campaign: CampaignConfig,
    /// Write-ahead journal path. `None` runs without crash safety.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal at [`SupervisorConfig::journal`]
    /// instead of starting fresh (which truncates any existing file).
    pub resume: bool,
    /// Worker thread count; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Worker isolation mode. The same seed yields a byte-identical
    /// report either way; [`WorkerIsolation::Process`] additionally
    /// survives worker aborts, segfaults, and harness-level hangs.
    pub isolation: WorkerIsolation,
    /// Workload preset the worker processes rebuild their kernel from.
    /// Must be the preset that produced the supervised [`Kernel`]; the
    /// handshake cross-checks the golden instruction count to catch a
    /// mismatch.
    pub preset: WorkerPreset,
    /// Heartbeat emission interval for worker processes. A worker's link
    /// beats from its own thread, rig builds and replays included, so a
    /// silence of ten intervals (at least 2 s) at any point of a lease
    /// means the worker is dead, frozen or wedged.
    pub heartbeat: Duration,
    /// Per-injection wall deadline for worker processes, counted from
    /// the lease's hello, so it also covers a fresh worker's rig build.
    /// A lease still open past it gets its worker SIGKILLed and the
    /// injection is retried on a fresh process. `None` relies on the
    /// guest watchdog (and [`CampaignConfig::wall`]) to bound replays.
    pub deadline: Option<Duration>,
    /// Consecutive worker-process failures (kills, deaths, failed
    /// spawns) a slot tolerates before it retires. Each respawn backs
    /// off exponentially (capped, deterministically jittered). A
    /// successful injection resets the count.
    pub max_respawns: u32,
    /// Worker executable for [`WorkerIsolation::Process`]. `None` uses
    /// the current executable (correct for the `repro` binary; tests
    /// must point at `env!("CARGO_BIN_EXE_repro")`).
    pub worker_bin: Option<PathBuf>,
    /// Run only this shard's contiguous slice of the fault plan. The
    /// journal header binds the shard identity and range, and the run
    /// completes when exactly that range is covered. `None` runs the
    /// whole plan (equivalently, shard 0 of 1).
    pub shard: Option<ShardSpec>,
    /// Test hook: panic inside the replay of injection `.0` on its
    /// first `.1` attempts (so `(i, 1)` recovers on retry and `(i, 2)`
    /// quarantines). Thread isolation only.
    #[doc(hidden)]
    pub test_panic_at: Option<(usize, u32)>,
    /// Test hook: patch an unconditional self-loop at the injection
    /// point of this plan index so the replay genuinely hangs.
    #[doc(hidden)]
    pub test_spin_at: Option<usize>,
    /// Test hook: simulate a kill after this many journal writes — the
    /// supervisor stops accepting results, exactly as if the process
    /// had died with a valid journal on disk.
    #[doc(hidden)]
    pub test_abort_after: Option<usize>,
    /// Test hook: worker processes `abort()` whenever asked to replay
    /// this plan index (SIGABRT, no unwinding — only process isolation
    /// survives it).
    #[doc(hidden)]
    pub test_worker_abort_at: Option<usize>,
}

impl SupervisorConfig {
    /// A supervisor for `campaign` with journaling off and defaults
    /// everywhere else.
    pub fn new(campaign: CampaignConfig) -> Self {
        SupervisorConfig {
            campaign,
            journal: None,
            resume: false,
            workers: None,
            isolation: WorkerIsolation::Thread,
            preset: WorkerPreset::Quick,
            heartbeat: Duration::from_millis(200),
            deadline: None,
            max_respawns: 3,
            worker_bin: None,
            shard: None,
            test_panic_at: None,
            test_spin_at: None,
            test_abort_after: None,
            test_worker_abort_at: None,
        }
    }
}

/// An injection whose replay failed twice (panic, worker death, or
/// liveness kill) and was excluded from the vulnerability quotient.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Plan index of the quarantined injection.
    pub index: usize,
    /// The fault whose replay failed.
    pub fault: Fault,
    /// What killed the replay.
    pub cause: HarnessCause,
    /// Panic payload, kill detail, or a note when loaded from a
    /// journal.
    pub detail: String,
}

/// What a supervised campaign produced.
#[derive(Debug)]
pub struct SupervisorOutcome {
    /// The assembled campaign result. For an aborted run
    /// ([`SupervisorOutcome::aborted`]) it covers only the completed
    /// injections.
    pub result: CampaignResult,
    /// Injections quarantined as [`Outcome::HarnessFault`].
    pub quarantined: Vec<QuarantineEntry>,
    /// Records restored from the journal instead of replayed.
    pub resumed: usize,
    /// Total completed injections (equals the plan length unless the
    /// run aborted).
    pub completed: usize,
    /// True when the `test_abort_after` hook simulated a kill.
    pub aborted: bool,
    /// True when worker processes were actually used (false in thread
    /// mode and after the spawn-unavailable fallback).
    pub process_isolation: bool,
    /// Worker processes the supervisor SIGKILLed (deadline or
    /// heartbeat-silence).
    pub kills: usize,
    /// Worker processes respawned after a kill, death, or failed
    /// spawn.
    pub respawns: usize,
    /// Simulator dispatch counters from the golden reference's ladder
    /// run (the replay workers run on machines of their own; the
    /// reference is what every mode shares).
    pub dispatch: DispatchStats,
}

// ---------------------------------------------------------------------
// The supervisor itself.
// ---------------------------------------------------------------------

/// Message from a replay worker to the journaling supervisor thread.
enum Msg {
    Done {
        index: usize,
        record: InjectionRecord,
        attempts: u32,
        /// `Some` when the record is a quarantine: what killed the
        /// replay, and the payload/detail text.
        quarantine: Option<(HarnessCause, String)>,
    },
    Fatal {
        error: NfpError,
    },
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The quarantine record for an injection whose replay panicked twice.
/// Category attribution comes from the replay that panicked, so it is
/// untrusted and left empty.
fn quarantine_record(fault: Fault) -> InjectionRecord {
    InjectionRecord {
        fault,
        category: None,
        outcome: Outcome::HarnessFault,
    }
}

/// Replays one injection with an unconditional self-loop patched over
/// the injection point (the `test_spin_at` hook): a guaranteed genuine
/// hang that must flow through the escalating watchdog — or the wall
/// deadline — and classify as [`Outcome::Hang`].
fn replay_spinning(
    golden: &Golden,
    m: &mut Machine,
    fault: &Fault,
) -> Result<InjectionRecord, NfpError> {
    golden.seek(m, fault.at)?;
    let category = m.next_category();
    let index = m.cpu.pc.wrapping_sub(m.code_base()) as usize / 4;
    // `ba .` with a nop in its delay slot: a two-word self-loop.
    let old_branch = m.patch_code_word(index, 0x1080_0000)?;
    let old_slot = m.patch_code_word(index + 1, 0x0100_0000)?;
    let run = golden.run_escalating(m);
    m.patch_code_word(index, old_branch)?;
    m.patch_code_word(index + 1, old_slot)?;
    let outcome = match run {
        Err(SimError::WatchdogExpired { .. }) => Outcome::Hang,
        Err(SimError::Trap(_)) | Err(SimError::UnknownSoftTrap { .. }) => Outcome::Trap,
        Ok(_) => Outcome::Sdc,
        Err(e) => return Err(e.into()),
    };
    Ok(InjectionRecord {
        fault: *fault,
        category,
        outcome,
    })
}

/// A settled injection: its record, the attempts it took, and the
/// panic text when a second panic quarantined it.
pub(crate) type Settled = (InjectionRecord, u32, Option<String>);

/// Replays injection `index` of `golden`'s plan on `m` under
/// `catch_unwind`: the one executor of every replay in this process, a
/// thread slot's claims and a worker process's leases alike. `m` is
/// loaded first if it is `None`. A panic replaces `m` with a fresh
/// machine on `golden`'s shared ladder (the panicked one may hold a
/// half-armed fault or a mid-seek state) and retries once; a second
/// panic quarantines the injection. When no fresh machine loads, the
/// first panic quarantines it and leaves `m` `None`: the caller has no
/// rig to go on with. The test hooks name plan indices: `spin_at` is
/// replayed over a patched self-loop, and the first `panic_at.1`
/// attempts at `panic_at.0` panic ([`SupervisorConfig::test_spin_at`],
/// [`SupervisorConfig::test_panic_at`]). `Err` is the replay's own
/// error, or a failed first load, which no retry would change.
pub(crate) fn replay_guarded(
    golden: &Golden,
    m: &mut Option<Machine>,
    index: usize,
    spin_at: Option<u64>,
    panic_at: Option<(usize, u32)>,
) -> Result<Settled, NfpError> {
    let fault = golden.faults[index];
    let mut attempts = 0;
    loop {
        let machine = match m {
            Some(machine) => machine,
            None => m.insert(golden.machine()?),
        };
        attempts += 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            if panic_at.is_some_and(|(i, n)| i == index && attempts <= n) {
                panic!("supervisor test hook: forced panic on injection {index}");
            }
            if spin_at == Some(index as u64) {
                replay_spinning(golden, machine, &fault)
            } else {
                golden.run_one(machine, &fault)
            }
        }));
        match run {
            Ok(run) => return run.map(|record| (record, attempts, None)),
            Err(payload) => {
                *m = catch_unwind(|| golden.machine()).ok().and_then(Result::ok);
                if m.is_none() || attempts >= 2 {
                    let text = panic_text(payload);
                    return Ok((quarantine_record(fault), attempts, Some(text)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The replay slots.
// ---------------------------------------------------------------------

/// The plan indices a run owes, shared by its slots, one claim per slot
/// at a time. A slot that retires hands its claim back with the leases
/// it has failed, and another slot finishes it: a claim is lost only
/// when no slot is left to take it.
struct Claims {
    state: Mutex<ClaimState>,
    /// Signalled whenever a claim is finished or handed back.
    settled: Condvar,
}

struct ClaimState {
    /// Unclaimed plan indices with the leases each has failed, the next
    /// on top.
    todo: Vec<(usize, u32)>,
    /// Claims a slot is working on.
    held: usize,
    /// Slots that have not retired.
    live: usize,
}

impl Claims {
    fn new(pending: &[usize], slots: usize) -> Self {
        let todo = pending.iter().rev().map(|&index| (index, 0)).collect();
        Claims {
            state: Mutex::new(ClaimState {
                todo,
                held: 0,
                live: slots,
            }),
            settled: Condvar::new(),
        }
    }

    /// The next claim and the leases it has failed so far; `None` once
    /// `stop` or `cancel` is raised or the run owes nothing. While
    /// another slot holds a claim it may yet hand back, this waits.
    fn take(&self, stop: &AtomicBool, cancel: &AtomicBool) -> Option<(usize, u32)> {
        let mut s = lock(&self.state);
        while !stop.load(Ordering::Relaxed) && !cancel.load(Ordering::Relaxed) {
            if let Some(claim) = s.todo.pop() {
                s.held += 1;
                return Some(claim);
            }
            if s.held == 0 {
                return None;
            }
            s = self
                .settled
                .wait_timeout(s, TICK)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        None
    }

    /// The slot's claim is finished: its record went upstream.
    fn done(&self) {
        let mut s = lock(&self.state);
        s.held -= 1;
        self.settled.notify_all();
    }

    /// Retires a slot, handing back its claim unless it is finished.
    /// Once no live slot is left, returns how many injections the run
    /// still owes.
    fn retire(&self, unfinished: Option<(usize, u32)>) -> Option<usize> {
        let mut s = lock(&self.state);
        s.held -= 1;
        s.live -= 1;
        s.todo.extend(unfinished);
        self.settled.notify_all();
        (s.live == 0).then_some(s.todo.len())
    }
}

/// A live worker subprocess and the link over its pipes.
struct WorkerProc {
    child: Child,
    link: Link,
}

/// Why an attempt settled nothing.
enum Lost {
    /// Deterministic — every retry would hit it again, so the whole
    /// campaign fails: a replay error, a machine that does not load,
    /// a worker that does not match this supervisor or reports an error.
    Fatal(NfpError),
    /// This process is gone (and reaped) but a respawn may well
    /// succeed. The flag records whether the supervisor itself put the
    /// worker down.
    Failed(Failure, bool),
    /// The campaign is stopping: neither a kill nor a death.
    Stopped,
}

#[cfg(unix)]
fn status_signal(status: &ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn status_signal(_status: &ExitStatus) -> Option<i32> {
    None
}

/// SIGKILLs a worker (nothing happens to one already dead) and reaps
/// it.
fn kill_and_reap(child: &mut Child) -> std::io::Result<ExitStatus> {
    let _ = child.kill();
    child.wait()
}

/// Asks a worker to exit by closing its stdin, grants it a short grace
/// period, then makes sure. The grace matters on the happy path — a
/// drained plan should not end with a gratuitous SIGKILL in the logs —
/// and the kill matters on the unhappy one, where the worker is wedged
/// mid-replay and will never see the EOF.
fn shutdown(WorkerProc { mut child, link }: WorkerProc) {
    drop(link);
    for _ in 0..50 {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(TICK),
            Err(_) => break,
        }
    }
    let _ = kill_and_reap(&mut child);
}

/// Probes that worker subprocesses can be spawned at all. The probe
/// child gets an immediate EOF on stdin (a clean-exit condition for the
/// worker) and is killed and reaped regardless, so it cannot linger.
fn probe_worker(bin: &Path) -> bool {
    match Command::new(bin)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(mut child) => {
            drop(child.stdin.take());
            let _ = kill_and_reap(&mut child);
            true
        }
        Err(_) => false,
    }
}

impl WorkerProc {
    /// Puts down a worker whose link broke. A stream that ended is the
    /// worker's own death, classified from its exit status; any other
    /// failure is answered with SIGKILL.
    fn lost(&mut self, f: Failure) -> Lost {
        let status = kill_and_reap(&mut self.child);
        if !matches!(f.cause, HarnessCause::WorkerKilled { .. }) {
            let detail = format!("{}; worker SIGKILLed", f.detail);
            return Lost::Failed(Failure { detail, ..f }, true);
        }
        let signal = status.as_ref().ok().and_then(status_signal);
        let died = match status {
            Ok(status) => format!("{}; worker process died: {status}", f.detail),
            Err(e) => format!("{}; worker process died (reap failed: {e})", f.detail),
        };
        let cause = HarnessCause::WorkerKilled { signal };
        Lost::Failed(Failure::new(cause, died), false)
    }
}

/// Spawns one worker process and waits for its join under the silence
/// limit of a worker beating every `heartbeat`. The worker speaks
/// first, so a complete first frame that is not a current-version join
/// means the binary does not match this supervisor: a deterministic
/// failure, like a golden-count mismatch.
fn spawn_worker(bin: &Path, heartbeat: Duration, stop: &AtomicBool) -> Result<WorkerProc, Lost> {
    let mut child = Command::new(bin)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| {
            let detail = format!("spawn of {} failed: {e}", bin.display());
            Lost::Failed(Failure::lost(detail), false)
        })?;
    let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        let _ = kill_and_reap(&mut child);
        let detail = "spawned worker came up without stdio pipes";
        return Err(Lost::Failed(Failure::lost(detail), true));
    };
    let mut link = Link::pipes(stdout, stdin, "worker process");
    link.pace(None, Some(worker_silence(heartbeat)));
    let mut w = WorkerProc { child, link };
    let frame = match w.link.next(stop) {
        Ok(Some(frame)) => frame,
        Ok(None) => {
            let _ = kill_and_reap(&mut w.child);
            return Err(Lost::Stopped);
        }
        Err(f) => {
            let detail = format!("before its join: {}", f.detail);
            return Err(w.lost(Failure { detail, ..f }));
        }
    };
    match parse_join(&frame) {
        Ok(_) => Ok(w),
        Err(e) => {
            let _ = kill_and_reap(&mut w.child);
            Err(Lost::Fatal(NfpError::ProtocolViolation {
                detail: format!("worker binary does not match this supervisor: {e}"),
            }))
        }
    }
}

/// Leases injection `index` to a live worker: one hello for the range
/// `index..index+1`, driven by [`drive_lease`] under the run's
/// deadline. A worker retries a panicking replay itself and quarantines
/// it after a second panic, so its record settles the injection.
fn lease_one(w: &mut WorkerProc, pool: &Pool, index: usize) -> Result<Settled, Lost> {
    let mut hello = pool.hello.clone();
    hello.header.range_start = index as u64;
    hello.header.range_end = index as u64 + 1;
    let faults = &pool.golden.faults;
    match drive_lease(&mut w.link, &hello, faults, pool.cfg.deadline, &pool.stop) {
        Ok(LeaseEnd::Fin(mut records)) => {
            let (_, record, attempts) = records
                .pop()
                .expect("a checked fin seals its one-injection range");
            let panicked = (record.outcome == Outcome::HarnessFault)
                .then(|| "the replay panicked twice in the worker process".to_string());
            Ok((record, attempts, panicked))
        }
        Ok(LeaseEnd::Stopped) => Err(Lost::Stopped),
        Ok(LeaseEnd::Error(reason)) => {
            let _ = kill_and_reap(&mut w.child);
            Err(Lost::Fatal(NfpError::Workload {
                what: "campaign worker".to_string(),
                reason,
            }))
        }
        Err(f) => Err(w.lost(f)),
    }
}

/// Everything the slots of one run share.
struct Pool<'a> {
    golden: &'a Golden,
    cfg: &'a SupervisorConfig,
    /// The worker binary under process isolation; `None` runs every
    /// slot on a machine in this process.
    bin: Option<PathBuf>,
    /// The lease every worker is sent, its range set per injection.
    hello: WorkerHello,
    claims: Claims,
    /// The run's own stop: a fatal error, a failed journal write or the
    /// abort hook.
    stop: AtomicBool,
    /// The caller's stop: once raised, the slots take no more claims.
    /// The run never raises it, so a retry of a shard that stopped for
    /// its own reasons starts with it clear.
    cancel: &'a AtomicBool,
    kills: AtomicUsize,
    respawns: AtomicUsize,
}

/// What one slot replays on, set up on demand: a machine in this
/// process (boxed, as a machine is large), or a `repro worker`
/// subprocess of this binary.
enum Rig<'a> {
    Thread(Box<Option<Machine>>),
    Process(&'a Path, Option<WorkerProc>),
}

impl Rig<'_> {
    /// Runs one attempt at injection `index`, counting it in `attempts`
    /// once the injection is in the rig's hands. A thread rig runs the
    /// executor; a process rig spawns a worker if it has none, then
    /// leases it the injection.
    fn attempt(&mut self, pool: &Pool, index: usize, attempts: &mut u32) -> Result<Settled, Lost> {
        match self {
            Rig::Thread(m) => {
                *attempts += 1;
                let (spin_at, panic_at) = (pool.hello.spin_at, pool.cfg.test_panic_at);
                replay_guarded(pool.golden, m, index, spin_at, panic_at).map_err(Lost::Fatal)
            }
            Rig::Process(bin, proc) => {
                let w = match proc {
                    Some(w) => w,
                    None => proc.insert(spawn_worker(bin, pool.cfg.heartbeat, &pool.stop)?),
                };
                *attempts += 1;
                let leased = lease_one(w, pool, index);
                if let Err(Lost::Failed(..)) = leased {
                    *proc = None;
                }
                leased
            }
        }
    }

    /// Why the rig can take no further claim: a thread rig that loaded
    /// no fresh machine after a panic.
    fn spent(&self) -> Option<Failure> {
        let detail = "no fresh machine loaded after a panic";
        matches!(self, Rig::Thread(m) if m.is_none())
            .then(|| Failure::new(HarnessCause::Panic, detail))
    }
}

/// Drives one replay slot, thread or process alike: claims plan
/// indices, runs attempts at each on the slot's [`Rig`], and reports
/// results upstream. A failed lease costs the injection one attempt,
/// and a second one quarantines it; a failed spawn, or a worker lost
/// before its join, fails no lease. Every rig failure charges the
/// slot's respawn budget, and the respawn backs off; thread rigs never
/// fail. More than `max_respawns` *consecutive* failures retire the
/// slot, handing back a claim not yet settled, and the remaining slots
/// absorb its share of the plan; any settled injection resets the
/// count. A spent rig retires its slot after handing over its record.
fn drive_slot(pool: &Pool, slot: usize, tx: &mpsc::Sender<Msg>) {
    let mut rig = match pool.bin.as_deref() {
        Some(bin) => Rig::Process(bin, None),
        None => Rig::Thread(Box::new(None)),
    };
    let mut consecutive: u32 = 0;
    'plan: while let Some((index, mut attempts)) = pool.claims.take(&pool.stop, pool.cancel) {
        let (record, attempts, quarantine, retiring) = loop {
            if consecutive > 0 {
                pool.respawns.fetch_add(1, Ordering::Relaxed);
                backoff_sleep(pool.golden.campaign.seed, slot, consecutive, &pool.stop);
                if pool.stop.load(Ordering::Relaxed) {
                    break 'plan;
                }
            }
            let f = match rig.attempt(pool, index, &mut attempts) {
                Ok((record, rig_attempts, panicked)) => {
                    consecutive = 0;
                    // The rig's own retries add to the slot's.
                    let attempts = attempts.saturating_add(rig_attempts.saturating_sub(1));
                    let quarantine = panicked.map(|text| (HarnessCause::Panic, text));
                    break (record, attempts, quarantine, rig.spent());
                }
                Err(Lost::Stopped) => break 'plan,
                Err(Lost::Fatal(error)) => {
                    let _ = tx.send(Msg::Fatal { error });
                    return;
                }
                Err(Lost::Failed(f, killed)) => {
                    if killed {
                        pool.kills.fetch_add(1, Ordering::Relaxed);
                    }
                    f
                }
            };
            consecutive += 1;
            let retire = consecutive > pool.cfg.max_respawns;
            if attempts >= 2 {
                let record = quarantine_record(pool.golden.faults[index]);
                let quarantine = Some((f.cause, f.detail.clone()));
                break (record, attempts, quarantine, retire.then_some(f));
            }
            if retire {
                retire_slot(pool, slot, tx, Some((index, attempts)), &f);
                break 'plan;
            }
        };
        let msg = Msg::Done {
            index,
            record,
            attempts,
            quarantine,
        };
        let sent = tx.send(msg).is_ok();
        match retiring {
            Some(last) => {
                retire_slot(pool, slot, tx, None, &last);
                break;
            }
            None => pool.claims.done(),
        }
        if !sent {
            break;
        }
    }
    if let Rig::Process(_, Some(w)) = rig {
        shutdown(w);
    }
}

/// Retires a slot after its rig failed for the `last` time, handing
/// back `unfinished`. When no slot is left to finish the plan, the run
/// fails naming that failure.
fn retire_slot(
    pool: &Pool,
    slot: usize,
    tx: &mpsc::Sender<Msg>,
    unfinished: Option<(usize, u32)>,
    last: &Failure,
) {
    eprintln!(
        "supervisor: worker slot {slot} retired ({}: {}); remaining slots absorb its share",
        last.cause, last.detail
    );
    if let Some(owed @ 1..) = pool.claims.retire(unfinished) {
        let job = format!(
            "{owed} injections: every worker slot retired, the last after {}: {}",
            last.cause, last.detail
        );
        let _ = tx.send(Msg::Fatal {
            error: NfpError::WorkerLost { job },
        });
    }
}

/// Like [`crate::run_campaign`] but sweeping injections across worker
/// threads: [`run_supervised`] without a journal, one thread per core,
/// each replaying on a machine of its own against the campaign's one
/// golden reference; the result is the sequential campaign's. A replay
/// that panics is retried once on a fresh machine, then quarantined as
/// [`Outcome::HarnessFault`], and the campaign carries on.
pub fn run_campaign_parallel(
    kernel: &Kernel,
    mode: Mode,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, NfpError> {
    Ok(run_supervised(kernel, mode, &SupervisorConfig::new(cfg.clone()))?.result)
}

/// Runs a supervised campaign: journaling, resume, panic isolation, and
/// graceful pool degradation around the plain deterministic campaign.
pub fn run_supervised(
    kernel: &Kernel,
    mode: Mode,
    cfg: &SupervisorConfig,
) -> Result<SupervisorOutcome, NfpError> {
    if let Some(spec) = cfg.shard {
        if spec.count == 0 || spec.index >= spec.count {
            return Err(NfpError::Workload {
                what: format!("shard {} of {}", spec.index, spec.count),
                reason: "shard index must be < shard count (and count nonzero)".to_string(),
            });
        }
    }
    supervise(
        &Golden::prepare(kernel, mode, &cfg.campaign)?,
        cfg,
        &AtomicBool::new(false),
    )
}

/// One supervised run of a shard as a lease: its range's records in plan
/// order, each counted as one attempt (`None`: the `test_abort_after`
/// hook cut the run short), and the worker processes it SIGKILLed and
/// respawned.
pub(crate) struct Leased {
    pub(crate) records: Option<LeaseRecords>,
    pub(crate) kills: usize,
    pub(crate) respawns: usize,
}

/// [`supervise`] as one lease of `cfg.shard`: how every attempt of the
/// sharded runner and every arbitration of the coordinator returns its
/// records.
pub(crate) fn supervise_lease(
    golden: &Golden,
    cfg: &SupervisorConfig,
    cancel: &AtomicBool,
) -> Result<Leased, NfpError> {
    let out = supervise(golden, cfg, cancel)?;
    let start = cfg.shard.map_or(0, |s| s.range(golden.faults.len()).0);
    let records = out.result.records.into_iter().enumerate();
    Ok(Leased {
        records: (!out.aborted).then(|| records.map(|(k, rec)| (start + k, rec, 1)).collect()),
        kills: out.kills,
        respawns: out.respawns,
    })
}

/// [`run_supervised`] against `cfg.campaign`'s prepared reference, for
/// a valid shard: the sharded runner and the coordinator's local pool
/// prepare a campaign once and supervise it many times. Once `cancel`
/// is raised the slots take no more claims, and a run cut short that
/// way fails with the injections it still owes.
pub(crate) fn supervise(
    golden: &Golden,
    cfg: &SupervisorConfig,
    cancel: &AtomicBool,
) -> Result<SupervisorOutcome, NfpError> {
    let faults = &golden.faults;
    let header = JournalHeader::bind(golden, cfg.shard);
    let range = header.range();

    let mut slots: Vec<Option<(InjectionRecord, u32)>> = vec![None; faults.len()];
    let mut quarantined = Vec::new();
    let mut resumed = 0usize;

    // Resume: stream the journal into the slot table and reopen it past
    // its intact prefix, so appended records start on a fresh line.
    let mut journal = match (&cfg.journal, cfg.resume) {
        (None, true) => {
            return Err(NfpError::Journal {
                path: "(none)".to_string(),
                reason: "resume requested without a journal path".to_string(),
            })
        }
        (None, false) => None,
        (Some(path), false) => Some(CampaignJournal::create(path, &header)?),
        (Some(path), true) => {
            let (journal, loaded) = CampaignJournal::resume(path, &header, faults, &mut slots)?;
            resumed = loaded.restored;
            for (index, slot) in slots.iter().enumerate() {
                let Some((rec, _)) = slot else { continue };
                if rec.outcome == Outcome::HarnessFault {
                    quarantined.push(QuarantineEntry {
                        index,
                        fault: rec.fault,
                        cause: HarnessCause::Unknown,
                        detail: "quarantined in a previous run (restored from journal)".to_string(),
                    });
                }
            }
            Some(journal)
        }
    };

    let pending: Vec<usize> = (range.0..range.1).filter(|&i| slots[i].is_none()).collect();
    let workers = cfg
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, pending.len().max(1));

    // Process isolation: resolve and probe the worker binary up front,
    // falling back to thread isolation when subprocesses are
    // unavailable (no binary, or an environment that cannot fork).
    let bin: Option<PathBuf> = match cfg.isolation {
        WorkerIsolation::Thread => None,
        WorkerIsolation::Process => {
            let bin = cfg
                .worker_bin
                .clone()
                .or_else(|| std::env::current_exe().ok());
            match bin {
                Some(bin) if probe_worker(&bin) => Some(bin),
                Some(bin) => {
                    eprintln!(
                        "supervisor: cannot spawn worker processes from {}; falling back to \
                         in-process thread isolation",
                        bin.display()
                    );
                    None
                }
                None => {
                    eprintln!(
                        "supervisor: no worker binary (current_exe unavailable); falling back \
                         to in-process thread isolation"
                    );
                    None
                }
            }
        }
    };
    let pool = Pool {
        golden,
        cfg,
        bin,
        hello: WorkerHello {
            header: header.clone(),
            preset: cfg.preset,
            heartbeat_ms: (cfg.heartbeat.as_millis() as u64).max(1),
            spin_at: cfg.test_spin_at.map(|i| i as u64),
            abort_at: cfg.test_worker_abort_at.map(|i| i as u64),
        },
        claims: Claims::new(&pending, workers),
        stop: AtomicBool::new(false),
        cancel,
        kills: AtomicUsize::new(0),
        respawns: AtomicUsize::new(0),
    };
    let (tx, rx) = mpsc::channel::<Msg>();

    let mut fatal: Option<NfpError> = None;
    let mut written = 0usize;
    let mut aborted = false;

    std::thread::scope(|scope| {
        for slot in 0..workers {
            let (pool, tx) = (&pool, tx.clone());
            scope.spawn(move || drive_slot(pool, slot, &tx));
        }
        drop(tx);

        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Done {
                    index,
                    record,
                    attempts,
                    quarantine,
                } => {
                    let fault = record.fault;
                    slots[index] = Some((record, attempts));
                    if let Some(journal) = journal.as_mut() {
                        if let Err(e) = journal.append(&slots, (index, index + 1)) {
                            fatal = Some(e);
                            pool.stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    if let Some((cause, detail)) = quarantine {
                        eprintln!(
                            "supervisor: quarantined injection {index} ({fault}) after \
                             {attempts} attempts — {cause}: {detail}"
                        );
                        quarantined.push(QuarantineEntry {
                            index,
                            fault,
                            cause,
                            detail,
                        });
                    }
                    written += 1;
                    if cfg.test_abort_after == Some(written) {
                        aborted = true;
                        pool.stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                Msg::Fatal { error } => {
                    fatal = Some(error);
                    pool.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        // Falling out of the loop with the stop flag raised: workers
        // exit at their next claim; the scope joins them. In-flight
        // sends go nowhere — after an abort the journal must look
        // exactly as a kill would have left it.
    });

    if let Some(error) = fatal {
        return Err(error);
    }

    let completed = slots.iter().flatten().count();
    let complete = slots[range.0..range.1].iter().all(Option::is_some);
    // Seal a completed journal with the shard summary record — the
    // machine-checkable claim "this range is fully covered", plus the
    // plan-order digest the merge recomputes. A resumed journal that
    // already carried one is left alone.
    if complete && !aborted {
        if let Some(journal) = journal.as_mut() {
            journal.seal(&slots)?;
        }
    }
    let records: Vec<InjectionRecord> = if aborted {
        slots.into_iter().flatten().map(|(r, _)| r).collect()
    } else {
        slots
            .drain(range.0..range.1)
            .enumerate()
            .map(|(offset, s)| {
                s.map(|(r, _)| r).ok_or_else(|| NfpError::WorkerLost {
                    job: format!(
                        "injection {} ({})",
                        range.0 + offset,
                        faults[range.0 + offset]
                    ),
                })
            })
            .collect::<Result<_, _>>()?
    };
    Ok(SupervisorOutcome {
        dispatch: golden.dispatch,
        result: golden.assemble(records),
        quarantined,
        resumed,
        completed,
        aborted,
        process_isolation: pool.bin.is_some(),
        kills: pool.kills.load(Ordering::Relaxed),
        respawns: pool.respawns.load(Ordering::Relaxed),
    })
}
