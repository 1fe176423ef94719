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
//!   flushed before the next record is accepted. The first line is a
//!   header binding the journal to its campaign (kernel, mode, seed,
//!   injection count, watchdog settings, golden instruction count), so
//!   a stale journal from a different campaign is rejected instead of
//!   silently corrupting a resume. All writes happen on the supervisor
//!   thread, so the journal is never torn by concurrency; a trailing
//!   partial line from a mid-write kill is detected and truncated on
//!   resume.
//! * **Resume** — [`SupervisorConfig::resume`] replays the journal,
//!   marks its injections complete, and runs only the remainder. The
//!   merged result is identical to an uninterrupted campaign.
//! * **Panic isolation** — each replay runs under
//!   [`std::panic::catch_unwind`] on its worker. A panicking replay is
//!   retried once on a freshly prepared rig (the panicked rig may hold
//!   a half-armed fault); a second panic quarantines the injection as
//!   [`Outcome::HarnessFault`] with its full fault spec logged, and
//!   the campaign carries on. Harness faults are excluded from the
//!   vulnerability quotient — they measure the harness, not the
//!   kernel. A worker that cannot even rebuild its rig retires, and
//!   the remaining workers absorb its share of the plan: the pool
//!   degrades in parallelism, never in coverage.
//! * **Process isolation** — [`WorkerIsolation::Process`] moves each
//!   replay slot into a `repro worker` subprocess that speaks the lease
//!   protocol of [`crate::worker`] over its stdin and stdout, one
//!   injection per lease, and every frame it sends goes through the
//!   same lease checker the remote coordinator uses. Threads cannot
//!   survive an `abort()`, a segfault, or a replay that wedges inside
//!   native code; processes can. A worker that dies takes only its
//!   in-flight injection with it; one that goes heartbeat-silent before
//!   a lease's `ready`, overruns its per-injection deadline, or sends a
//!   frame the checker refuses is SIGKILLed. Either way the injection
//!   is retried once on a freshly spawned process and quarantined on a
//!   second failure — exactly the panic-isolation semantics, lifted to
//!   process granularity. Respawns back off exponentially (capped, with
//!   deterministic seeded jitter so wall clocks never leak into
//!   results); a slot that keeps crash-looping retires and the pool
//!   degrades in parallelism, never in coverage.
//!   Journals and reports are byte-compatible with thread mode: the
//!   same seed yields the same report regardless of isolation mode or
//!   kill/respawn interleaving.
//!
//! The journal is deliberately human-greppable:
//!
//! ```text
//! {"v":1,"kind":"nfp-campaign-journal","kernel":"fse_distance",...}
//! {"i":0,"at":8317,"target":"IntReg","a":19,"b":7,"cat":2,"outcome":"masked","attempts":1}
//! {"i":1,"at":90211,"target":"Ram","a":1090523136,"b":30,"cat":0,"outcome":"SDC","attempts":1}
//! ```

use crate::backoff::{backoff_sleep, TICK};
use crate::campaign::{assemble, CampaignConfig, CampaignResult, CampaignRig, InjectionRecord};
use crate::crc::{crc32, crc32_finish, crc32_update, CRC_INIT};
use crate::evaluation::Mode;
use crate::flatjson::{parse_flat, Obj};
use crate::identity::{self, Field, Identity};
use crate::net::{parse_join, write_frame, FrameReader, Recv};
use crate::shards::{shard_range, ShardSpec};
use crate::worker::{render_hello, WorkerHello, WorkerPreset};
use nfp_core::{HarnessCause, NfpError, Outcome};
use nfp_sim::fault::plan;
use nfp_sim::{DispatchStats, Fault, FaultTarget, SimError};
use nfp_sparc::Category;
use nfp_workloads::Kernel;
use std::io::{BufRead, Seek, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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
    /// Heartbeat emission interval for worker processes. Workers
    /// heartbeat from a side thread, replays included, so a silence of
    /// ten intervals (at least 2 s) before a lease's `ready` means the
    /// worker is dead or wedged.
    pub heartbeat: Duration,
    /// Per-injection wall deadline for worker processes, counted from
    /// the lease's `ready`. A replay still in flight past the deadline
    /// gets its worker SIGKILLed and the injection is retried on a
    /// fresh process. `None` relies on the
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
    /// Simulator dispatch counters from the golden run (the replay
    /// workers run on their own rigs; the golden run is the
    /// deterministic reference every mode shares).
    pub dispatch: DispatchStats,
}

// ---------------------------------------------------------------------
// Journal header and records.
// ---------------------------------------------------------------------

/// The binding a journal is bound to: the campaign [`Identity`], the
/// golden run's length, and the shard slice. Every field must match
/// for a resume (or a merge) to proceed. The shard fields bind a
/// journal to one contiguous slice of the fault plan: a sequential
/// journal is shard 0 of 1 covering the whole plan, and a merge rejects
/// any journal whose claimed range disagrees with the deterministic
/// split its `shard_index`/`shard_count` imply. The worker hello (and
/// with it the remote lease) carries the same fields.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalHeader {
    pub(crate) id: Identity,
    pub(crate) golden_instret: u64,
    pub(crate) shard_index: u32,
    pub(crate) shard_count: u32,
    pub(crate) range_start: u64,
    pub(crate) range_end: u64,
}

/// The `kind` tag on a campaign journal's first line.
const JOURNAL_KIND: &str = "nfp-campaign-journal";

impl JournalHeader {
    pub(crate) fn bind(
        kernel: &Kernel,
        mode: Mode,
        cfg: &CampaignConfig,
        golden_instret: u64,
        shard: Option<ShardSpec>,
    ) -> Self {
        let spec = shard.unwrap_or(ShardSpec { index: 0, count: 1 });
        let (start, end) = shard_range(cfg.injections, spec.index, spec.count);
        JournalHeader {
            id: Identity::of(&kernel.name, mode, cfg),
            golden_instret,
            shard_index: spec.index,
            shard_count: spec.count.max(1),
            range_start: start as u64,
            range_end: end as u64,
        }
    }

    /// The plan slice this journal is bound to.
    pub(crate) fn range(&self) -> (usize, usize) {
        (self.range_start as usize, self.range_end as usize)
    }

    /// True when `other` binds the same campaign — every field except
    /// the shard slice. A connected worker keys its rig cache on this:
    /// two leases of different shards of one campaign share the rig
    /// and the fault plan, costing one golden run instead of two.
    pub(crate) fn same_campaign(&self, other: &JournalHeader) -> bool {
        self.id == other.id && self.golden_instret == other.golden_instret
    }

    /// The binding fields in wire order: the identity first.
    fn fields(&self) -> Vec<Field> {
        let mut fields = self.id.fields().to_vec();
        fields.extend([
            ("golden_instret", self.golden_instret.to_string()),
            ("shard_index", self.shard_index.to_string()),
            ("shard_count", self.shard_count.to_string()),
            ("range_start", self.range_start.to_string()),
            ("range_end", self.range_end.to_string()),
        ]);
        fields
    }

    /// The binding fields as the body of a flat JSON object, shared by
    /// the journal header line and the worker hello.
    pub(crate) fn render_fields(&self) -> String {
        identity::render(&self.fields())
    }

    pub(crate) fn render(&self) -> String {
        format!(
            "{{\"v\":1,\"kind\":\"{JOURNAL_KIND}\",{}}}",
            self.render_fields()
        )
    }

    /// Parses the binding fields out of a flat object, ignoring any
    /// other key (a header written before dispatch left the identity
    /// still carries `"dispatch"`). `Err` names the first field that is
    /// missing or out of range.
    pub(crate) fn from_obj(obj: &Obj) -> Result<JournalHeader, &'static str> {
        let num = |k: &'static str| obj.u64(k).ok_or(k);
        let num32 = |k: &'static str| u32::try_from(num(k)?).map_err(|_| k);
        Ok(JournalHeader {
            id: Identity::parse(obj)?,
            golden_instret: num("golden_instret")?,
            shard_index: num32("shard_index")?,
            shard_count: num32("shard_count")?,
            range_start: num("range_start")?,
            range_end: num("range_end")?,
        })
    }

    /// Parses a journal header line without validating it against any
    /// campaign — the merge path uses this to discover which campaign
    /// (and which shard) a journal *claims* to belong to before
    /// cross-checking the claim. `Err` is the reason, for the caller's
    /// error type.
    pub(crate) fn parse(line: &str) -> Result<JournalHeader, String> {
        let obj = Obj(parse_flat(line).ok_or("missing or corrupt header line")?);
        if obj.str("kind") != Some(JOURNAL_KIND) {
            return Err("not a campaign journal (bad \"kind\")".to_string());
        }
        if obj.u64("v") != Some(1) {
            return Err("unsupported journal version".to_string());
        }
        JournalHeader::from_obj(&obj).map_err(|field| format!("header lacks {field}"))
    }

    /// Validates a header line against this campaign, naming the first
    /// mismatching field.
    pub(crate) fn check(&self, path: &str, line: &str) -> Result<(), NfpError> {
        let journal = JournalHeader::parse(line).map_err(|reason| NfpError::Journal {
            path: path.to_string(),
            reason,
        })?;
        match identity::first_mismatch(&journal.fields(), &self.fields()) {
            Some((field, journal, campaign)) => Err(NfpError::JournalMismatch {
                path: path.to_string(),
                field,
                journal,
                campaign,
            }),
            None => Ok(()),
        }
    }
}

/// `(kind, a, b)` encoding of a fault target for the journal.
pub(crate) fn target_fields(t: FaultTarget) -> (&'static str, u64, u64) {
    match t {
        FaultTarget::IntReg { index, bit } => ("IntReg", index as u64, bit as u64),
        FaultTarget::FpReg { index, bit } => ("FpReg", index as u64, bit as u64),
        FaultTarget::Icc { bit } => ("Icc", bit as u64, 0),
        FaultTarget::YReg { bit } => ("YReg", bit as u64, 0),
        FaultTarget::Fcc { bit } => ("Fcc", bit as u64, 0),
        FaultTarget::Ram { addr, bit } => ("Ram", addr as u64, bit as u64),
        FaultTarget::Code { index, bit } => ("Code", index as u64, bit as u64),
    }
}

pub(crate) fn target_from_fields(kind: &str, a: u64, b: u64) -> Option<FaultTarget> {
    Some(match kind {
        "IntReg" => FaultTarget::IntReg {
            index: u8::try_from(a).ok()?,
            bit: u8::try_from(b).ok()?,
        },
        "FpReg" => FaultTarget::FpReg {
            index: u8::try_from(a).ok()?,
            bit: u8::try_from(b).ok()?,
        },
        "Icc" => FaultTarget::Icc {
            bit: u8::try_from(a).ok()?,
        },
        "YReg" => FaultTarget::YReg {
            bit: u8::try_from(a).ok()?,
        },
        "Fcc" => FaultTarget::Fcc {
            bit: u8::try_from(a).ok()?,
        },
        "Ram" => FaultTarget::Ram {
            addr: u32::try_from(a).ok()?,
            bit: u8::try_from(b).ok()?,
        },
        "Code" => FaultTarget::Code {
            index: u32::try_from(a).ok()?,
            bit: u8::try_from(b).ok()?,
        },
        _ => return None,
    })
}

/// The canonical record rendering the per-record CRC covers — every
/// field except the CRC itself. The shard digest is computed over these
/// canonical bytes too, so it is independent of incidental formatting.
pub(crate) fn record_line_base(index: usize, rec: &InjectionRecord, attempts: u32) -> String {
    let (kind, a, b) = target_fields(rec.fault.target);
    format!(
        "{{\"i\":{},\"at\":{},\"target\":\"{}\",\"a\":{},\"b\":{},\"cat\":{},\"outcome\":\"{}\",\"attempts\":{}}}",
        index,
        rec.fault.at,
        kind,
        a,
        b,
        rec.category
            .map_or("null".to_string(), |c| c.index().to_string()),
        rec.outcome.name(),
        attempts,
    )
}

/// Splices `,"crc":N` into a canonical rendering just before its
/// closing brace, where `N` checksums the canonical bytes.
pub(crate) fn with_crc(base: String) -> String {
    let crc = crc32(base.as_bytes());
    format!("{},\"crc\":{crc}}}", &base[..base.len() - 1])
}

pub(crate) fn record_line(index: usize, rec: &InjectionRecord, attempts: u32) -> String {
    with_crc(record_line_base(index, rec, attempts))
}

/// Parses and *verifies* a record line: the stored CRC must match the
/// checksum of the canonical re-rendering of the parsed fields, so any
/// bit flip — in a value or in the CRC itself — returns `None`.
pub(crate) fn parse_record(line: &str) -> Option<(usize, InjectionRecord, u32)> {
    let obj = Obj(parse_flat(line)?);
    let crc = u32::try_from(obj.u64("crc")?).ok()?;
    let index = usize::try_from(obj.u64("i")?).ok()?;
    let fault = Fault {
        at: obj.u64("at")?,
        target: target_from_fields(obj.str("target")?, obj.u64("a")?, obj.u64("b")?)?,
    };
    let category = match obj.opt_u64("cat")? {
        None => None,
        Some(i) => Some(*Category::ALL.get(usize::try_from(i).ok()?)?),
    };
    let outcome = Outcome::from_name(obj.str("outcome")?)?;
    let attempts = u32::try_from(obj.u64("attempts")?).ok()?;
    let rec = InjectionRecord {
        fault,
        category,
        outcome,
    };
    if crc32(record_line_base(index, &rec, attempts).as_bytes()) != crc {
        return None;
    }
    Some((index, rec, attempts))
}

/// The shard-final summary record: written once, as the last line, when
/// a journal covers its whole bound range. Its presence is the
/// machine-checkable claim "this shard is complete"; its digest is a
/// CRC-32 over every canonical record rendering (each followed by a
/// newline) in plan order, so a dropped or substituted record trips the
/// shard-level check even when each surviving line is individually
/// intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FinRecord {
    pub(crate) records: u64,
    pub(crate) range_start: u64,
    pub(crate) range_end: u64,
    pub(crate) digest: u32,
}

fn fin_base(fin: &FinRecord) -> String {
    format!(
        "{{\"fin\":1,\"records\":{},\"range_start\":{},\"range_end\":{},\"digest\":{}}}",
        fin.records, fin.range_start, fin.range_end, fin.digest
    )
}

pub(crate) fn fin_line(fin: &FinRecord) -> String {
    with_crc(fin_base(fin))
}

/// Parses and verifies a shard-final summary line. `None` for record
/// lines and anything tampered.
pub(crate) fn parse_fin(line: &str) -> Option<FinRecord> {
    let obj = Obj(parse_flat(line)?);
    if obj.u64("fin")? != 1 {
        return None;
    }
    let crc = u32::try_from(obj.u64("crc")?).ok()?;
    let fin = FinRecord {
        records: obj.u64("records")?,
        range_start: obj.u64("range_start")?,
        range_end: obj.u64("range_end")?,
        digest: u32::try_from(obj.u64("digest")?).ok()?,
    };
    if crc32(fin_base(&fin).as_bytes()) != crc {
        return None;
    }
    Some(fin)
}

/// The order-independent digest a range's summary record must carry:
/// CRC-32 over the canonical rendering of every completed record of
/// `slots` — the table of the range that starts at plan index `start`
/// — each followed by `\n`, in plan order (journal write order is a
/// race artefact; plan order is not).
pub(crate) fn range_digest(start: usize, slots: &[Option<(InjectionRecord, u32)>]) -> u32 {
    let mut state = CRC_INIT;
    for (offset, slot) in slots.iter().enumerate() {
        if let Some((rec, attempts)) = slot {
            let base = record_line_base(start + offset, rec, *attempts);
            state = crc32_update(state, base.as_bytes());
            state = crc32_update(state, b"\n");
        }
    }
    crc32_finish(state)
}

// ---------------------------------------------------------------------
// Record and fin checks, and the lease-stream checker built on them.
// ---------------------------------------------------------------------

/// Files one CRC-verified record into `slots`, the table of the plan
/// range that starts at `start`: the index must fall inside the range
/// and be new there, and the fault must be the one the deterministic
/// plan holds at that index, so neither a worker nor a journal can
/// substitute results. `Err` is the reason, for the caller's error
/// type.
pub(crate) fn file_record(
    (index, rec, attempts): (usize, InjectionRecord, u32),
    faults: &[Fault],
    start: usize,
    slots: &mut [Option<(InjectionRecord, u32)>],
) -> Result<(), String> {
    let Some(slot) = index.checked_sub(start).and_then(|k| slots.get_mut(k)) else {
        return Err(format!(
            "record {index} is outside the range {start}..{}",
            start + slots.len()
        ));
    };
    if slot.is_some() {
        return Err(format!("duplicate record for injection {index}"));
    }
    if rec.fault != faults[index] {
        return Err(format!(
            "record {index} disagrees with the deterministic fault plan (record: {}, plan: {})",
            rec.fault, faults[index]
        ));
    }
    *slot = Some((rec, attempts));
    Ok(())
}

/// Checks a fin against the table of the range it seals (see
/// [`file_record`]): the claimed range, a count equal to the range's
/// length, full coverage, and the plan-order digest. `Err` is the
/// reason.
pub(crate) fn check_fin(
    fin: &FinRecord,
    start: usize,
    slots: &[Option<(InjectionRecord, u32)>],
) -> Result<(), String> {
    let end = start + slots.len();
    if (fin.range_start, fin.range_end) != (start as u64, end as u64) {
        return Err(format!(
            "fin covers {}..{} but the range is {start}..{end}",
            fin.range_start, fin.range_end
        ));
    }
    if fin.records != slots.len() as u64 {
        return Err(format!(
            "fin claims {} records for a range of {}",
            fin.records,
            slots.len()
        ));
    }
    if let Some(k) = slots.iter().position(Option::is_none) {
        return Err(format!("fin arrived before record {}", start + k));
    }
    if fin.digest != range_digest(start, slots) {
        return Err("fin digest disagrees with the records it covers".to_string());
    }
    Ok(())
}

/// Validated records of one range: plan index, record, and the attempt
/// count the worker reported.
pub(crate) type LeaseRecords = Vec<(usize, InjectionRecord, u32)>;

/// What one frame of a lease stream meant, once [`LeaseCheck`] took it.
#[derive(Debug)]
pub(crate) enum Step {
    /// A heartbeat or a record: keep reading.
    More,
    /// The worker built the campaign's rig; its records may follow.
    Ready,
    /// The fin sealed the range: its records, in plan order.
    Fin(LeaseRecords),
    /// The worker reported a fatal error, in its own words.
    Error(String),
}

/// The one validator of a worker's lease stream, free of I/O: the
/// coordinator's peer sessions and the supervisor's process slots feed
/// it every frame a worker sends for a lease. Heartbeats may come at
/// any time; `ready` comes once and must echo the golden instruction
/// count; each record must verify and file into the range (see
/// [`file_record`]); a fin that seals the range (see [`check_fin`])
/// ends the lease. Anything else, or anything out of that order, is a
/// typed [`NfpError::ProtocolViolation`].
pub(crate) struct LeaseCheck<'a> {
    golden_instret: u64,
    faults: &'a [Fault],
    start: usize,
    slots: Vec<Option<(InjectionRecord, u32)>>,
    ready: bool,
}

impl<'a> LeaseCheck<'a> {
    /// A checker for the lease `header` binds, over the campaign's
    /// fault plan.
    pub(crate) fn new(header: &JournalHeader, faults: &'a [Fault]) -> Self {
        let (start, end) = header.range();
        LeaseCheck {
            golden_instret: header.golden_instret,
            faults,
            start,
            slots: vec![None; end.saturating_sub(start)],
            ready: false,
        }
    }

    /// Takes the stream's next frame.
    pub(crate) fn feed(&mut self, frame: &str) -> Result<Step, NfpError> {
        let violation = |detail: String| NfpError::ProtocolViolation { detail };
        let obj = Obj(parse_flat(frame)
            .ok_or_else(|| violation(format!("unparseable frame from the worker: {frame:?}")))?);
        let is_fin = obj.get("fin").is_some();
        if is_fin || obj.get("crc").is_some() {
            let what = if is_fin { "fin" } else { "record" };
            if !self.ready {
                return Err(violation(format!("{what} before the ready handshake")));
            }
            if is_fin {
                let fin = parse_fin(frame)
                    .ok_or_else(|| violation("corrupt or checksum-failed fin".to_string()))?;
                check_fin(&fin, self.start, &self.slots).map_err(violation)?;
                let records = std::mem::take(&mut self.slots)
                    .into_iter()
                    .zip(self.start..)
                    .filter_map(|(slot, i)| slot.map(|(rec, attempts)| (i, rec, attempts)))
                    .collect();
                return Ok(Step::Fin(records));
            }
            let record = parse_record(frame)
                .ok_or_else(|| violation("corrupt or checksum-failed record".to_string()))?;
            file_record(record, self.faults, self.start, &mut self.slots).map_err(violation)?;
            return Ok(Step::More);
        }
        match obj.str("kind") {
            Some("hb") => Ok(Step::More),
            Some("ready") if self.ready => Err(violation("duplicate ready".to_string())),
            Some("ready") => match obj.u64("golden_instret") {
                Some(got) if got == self.golden_instret => {
                    self.ready = true;
                    Ok(Step::Ready)
                }
                got => Err(violation(format!(
                    "golden instruction count mismatch: the campaign's golden run retired {}, \
                     the worker's rig ran {got:?} — worker binary or preset skew",
                    self.golden_instret
                ))),
            },
            Some("error") => obj
                .str("detail")
                .map(|detail| Step::Error(detail.to_string()))
                .ok_or_else(|| violation("error frame lacks its detail".to_string())),
            other => Err(violation(format!("unknown frame kind {other:?}"))),
        }
    }
}

/// What survived journal validation. Records are written directly into
/// the caller's slot table as they stream past — the loader holds one
/// line buffer at a time, never the whole file or an intermediate
/// record vector, so a multi-million-injection shard journal loads at
/// O(line) transient memory.
pub(crate) struct LoadedJournal {
    /// Byte length of the intact prefix: everything past it is the torn
    /// trailing line of a mid-write kill, to truncate before appending.
    pub(crate) intact_len: u64,
    /// The shard-final summary record, when the journal carries one —
    /// i.e. when a previous run completed this journal's whole range.
    pub(crate) fin: Option<FinRecord>,
    /// Plan indices restored into previously empty slots.
    pub(crate) restored: usize,
}

/// Streams a journal line-by-line and fills `slots` (indexed by
/// absolute plan index) with its records, under the same record and
/// fin checks a lease stream gets ([`file_record`], [`check_fin`]) over
/// the header's bound range. A torn final line is tolerated and
/// excluded from `intact_len`; corruption anywhere else — a failed CRC,
/// an out-of-range index, a duplicate, a record after the summary, or a
/// summary that does not seal the range — is a hard error.
pub(crate) fn load_journal(
    path: &Path,
    header: &JournalHeader,
    faults: &[Fault],
    slots: &mut [Option<(InjectionRecord, u32)>],
) -> Result<LoadedJournal, NfpError> {
    let shown = path.display().to_string();
    let journal_err = |reason: String| NfpError::Journal {
        path: shown.clone(),
        reason,
    };
    let file = std::fs::File::open(path)
        .map_err(|e| journal_err(format!("cannot open for resume: {e}")))?;
    let (start, end) = header.range();
    let table = &mut slots[start..end];
    let mut reader = std::io::BufReader::new(file);
    let mut line = String::new();
    let mut offset = 0u64;
    let mut lineno = 0usize;
    let mut intact_len = 0u64;
    let mut fin: Option<FinRecord> = None;
    let mut restored = 0usize;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| journal_err(format!("read failed at byte {offset}: {e}")))?;
        if n == 0 {
            break;
        }
        offset += n as u64;
        lineno += 1;
        let complete = line.ends_with('\n');
        if lineno == 1 {
            header.check(&shown, &line)?;
            intact_len = offset;
            continue;
        }
        if !complete {
            // A newline-less final line is the torn tail of a mid-write
            // kill (records are appended and flushed whole): drop it
            // and resume from the intact prefix.
            let at_eof = reader.fill_buf().map_or(true, <[u8]>::is_empty);
            if at_eof {
                break;
            }
            return Err(journal_err(format!("corrupt record at line {lineno}")));
        }
        if fin.is_some() {
            return Err(journal_err(format!(
                "record at line {lineno} appears after the shard summary"
            )));
        }
        if let Some(record) = parse_record(&line) {
            file_record(record, faults, start, table)
                .map_err(|reason| journal_err(format!("record at line {lineno}: {reason}")))?;
            restored += 1;
            intact_len = offset;
        } else if let Some(summary) = parse_fin(&line) {
            check_fin(&summary, start, table).map_err(|reason| {
                journal_err(format!("shard summary at line {lineno}: {reason}"))
            })?;
            fin = Some(summary);
            intact_len = offset;
        } else {
            return Err(journal_err(format!("corrupt record at line {lineno}")));
        }
    }
    if lineno == 0 {
        return Err(journal_err("journal is empty (no header)".to_string()));
    }
    Ok(LoadedJournal {
        intact_len,
        fin,
        restored,
    })
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
pub(crate) fn quarantine_record(fault: Fault) -> InjectionRecord {
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
pub(crate) fn replay_spinning(
    rig: &mut CampaignRig,
    fault: &Fault,
    wall: Option<Duration>,
) -> Result<InjectionRecord, NfpError> {
    rig.seek(fault.at)?;
    let category = rig.machine.next_category();
    let pc = rig.machine.cpu.pc;
    let index = pc.wrapping_sub(rig.machine.code_base()) as usize / 4;
    // `ba .` with a nop in its delay slot: a two-word self-loop.
    let old_branch = rig.machine.patch_code_word(index, 0x1080_0000)?;
    let old_slot = rig.machine.patch_code_word(index + 1, 0x0100_0000)?;
    let soft = rig.budget.saturating_sub(fault.at).max(1);
    let run = rig.run_escalating(soft, wall);
    rig.machine.patch_code_word(index, old_branch)?;
    rig.machine.patch_code_word(index + 1, old_slot)?;
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

/// How [`replay_guarded`] ended.
pub(crate) enum Replayed {
    /// The replay classified the injection.
    Record(InjectionRecord),
    /// The replay panicked on its last attempt: quarantine the
    /// injection. `text` is the panic payload; `rig_lost` means the rig
    /// could not be rebuilt after the panic, so the caller has none to
    /// go on with.
    Panicked { text: String, rig_lost: bool },
}

/// Replays one injection under `catch_unwind` — the panic policy every
/// replay slot shares, the supervisor's worker threads and the lease
/// executor of a worker process alike. A panic rebuilds the rig (the
/// panicked one may hold a half-armed fault or a mid-seek machine) and
/// retries once; a second panic gives up so the caller can quarantine.
/// `replay` gets the 1-based attempt number. Returns the verdict with
/// the attempts it took; `Err` is the replay's own error, which no
/// retry would change.
pub(crate) fn replay_guarded(
    rig: &mut CampaignRig,
    mut replay: impl FnMut(&mut CampaignRig, u32) -> Result<InjectionRecord, NfpError>,
    mut rebuild: impl FnMut() -> Result<CampaignRig, NfpError>,
) -> Result<(Replayed, u32), NfpError> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| replay(rig, attempts))) {
            Ok(run) => return run.map(|record| (Replayed::Record(record), attempts)),
            Err(payload) => {
                let text = panic_text(payload);
                let rig_lost = match catch_unwind(AssertUnwindSafe(&mut rebuild)) {
                    Ok(Ok(fresh)) => {
                        *rig = fresh;
                        false
                    }
                    _ => true,
                };
                if rig_lost || attempts >= 2 {
                    return Ok((Replayed::Panicked { text, rig_lost }, attempts));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The process-isolated worker pool.
// ---------------------------------------------------------------------

/// A live worker subprocess: the child handle, its stdin, and a channel
/// fed by a detached reader thread framing the child's stdout (blocking
/// pipe reads cannot carry timeouts; a channel can).
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<Result<String, NfpError>>,
}

/// Why a slot got no result out of a worker process.
enum Lost {
    /// Deterministic — every respawn would hit it again, so the whole
    /// campaign fails (mirrors a thread worker's rig-prepare error).
    Fatal(NfpError),
    /// This process is gone (and reaped) but a respawn may well
    /// succeed. `killed` records whether the supervisor itself put the
    /// worker down.
    Failed {
        cause: HarnessCause,
        detail: String,
        killed: bool,
    },
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

/// SIGKILLs a worker and reaps it, reporting the terminating signal
/// (from the kill, or from whatever felled the child first).
fn kill_and_reap(child: &mut Child) -> Option<i32> {
    let _ = child.kill();
    child.wait().ok().as_ref().and_then(status_signal)
}

/// Reaps a worker found dead on its own (EOF on stdout) and classifies
/// the death from its exit status.
fn death_of(child: &mut Child) -> Lost {
    let (signal, detail) = match child.wait() {
        Ok(status) => (
            status_signal(&status),
            format!("worker process died: {status}"),
        ),
        Err(e) => (None, format!("worker process died (reap failed: {e})")),
    };
    Lost::Failed {
        cause: HarnessCause::WorkerKilled { signal },
        detail,
        killed: false,
    }
}

/// Asks a worker to exit by closing its stdin, grants it a short grace
/// period, then makes sure. The grace matters on the happy path — a
/// drained plan should not end with a gratuitous SIGKILL in the logs —
/// and the kill matters on the unhappy one, where the worker is wedged
/// mid-replay and will never see the EOF.
fn shutdown(mut w: WorkerProc) {
    drop(w.stdin);
    for _ in 0..50 {
        match w.child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(TICK),
            Err(_) => break,
        }
    }
    let _ = w.child.kill();
    let _ = w.child.wait();
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
            let _ = child.kill();
            let _ = child.wait();
            true
        }
        Err(_) => false,
    }
}

impl WorkerProc {
    /// Waits for the worker's next frame. A frame the reader could not
    /// decode is a protocol violation and the end of the stream is a
    /// death; `limit` is the instant silence turns fatal, with the
    /// cause and detail to report for it. Every failure reaps the
    /// process.
    fn next_frame(
        &mut self,
        limit: Option<(Instant, HarnessCause, String)>,
        stop: &AtomicBool,
    ) -> Result<String, Lost> {
        loop {
            if stop.load(Ordering::Relaxed) {
                return Err(Lost::Stopped);
            }
            if let Some((at, cause, detail)) = &limit {
                if Instant::now() >= *at {
                    return Err(self.kill(*cause, detail.clone()));
                }
            }
            match self.frames.recv_timeout(TICK) {
                Ok(Ok(frame)) => return Ok(frame),
                Ok(Err(e)) => return Err(self.kill(HarnessCause::ProtocolViolation, e.to_string())),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(death_of(&mut self.child)),
            }
        }
    }

    /// SIGKILLs and reaps the worker, reporting why.
    fn kill(&mut self, cause: HarnessCause, detail: String) -> Lost {
        kill_and_reap(&mut self.child);
        Lost::Failed {
            cause,
            detail,
            killed: true,
        }
    }
}

/// Spawns one worker process and reads its join. The worker speaks
/// first, so a complete first frame that is not a current-version join
/// means the binary does not match this supervisor: a deterministic
/// failure, like a golden-count mismatch. The wait is policed by the
/// idle limit, and a worker that dies before its join is a death.
fn spawn_worker(bin: &Path, idle: Duration, stop: &AtomicBool) -> Result<WorkerProc, Lost> {
    let mut child = Command::new(bin)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| Lost::Failed {
            cause: HarnessCause::WorkerKilled { signal: None },
            detail: format!("spawn of {} failed: {e}", bin.display()),
            killed: false,
        })?;
    let (Some(stdin), Some(mut stdout)) = (child.stdin.take(), child.stdout.take()) else {
        kill_and_reap(&mut child);
        return Err(Lost::Failed {
            cause: HarnessCause::WorkerKilled { signal: None },
            detail: "spawned worker came up without stdio pipes".to_string(),
            killed: true,
        });
    };
    // The reader thread is detached on purpose: it parks in a blocking
    // pipe read and exits on worker EOF, or on send failure once the
    // receiver is gone. Framing errors travel the channel as values.
    let (tx, frames) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = FrameReader::new("worker process");
        loop {
            let sent = match reader.recv(&mut stdout) {
                Ok(Recv::Frame(frame)) => tx.send(Ok(frame)),
                Ok(Recv::Idle) => Ok(()),
                Ok(Recv::Eof) => return,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            };
            if sent.is_err() {
                return;
            }
        }
    });
    let mut w = WorkerProc {
        child,
        stdin,
        frames,
    };
    let limit = (
        Instant::now() + idle,
        HarnessCause::HeartbeatTimeout,
        format!(
            "no join within {}ms of the spawn; worker SIGKILLed",
            idle.as_millis()
        ),
    );
    let frame = match w.next_frame(Some(limit), stop) {
        Ok(frame) => frame,
        Err(lost) => {
            if matches!(lost, Lost::Stopped) {
                kill_and_reap(&mut w.child);
            }
            return Err(lost);
        }
    };
    match parse_join(&frame) {
        Ok(_) => Ok(w),
        Err(e) => {
            kill_and_reap(&mut w.child);
            Err(Lost::Fatal(NfpError::ProtocolViolation {
                detail: format!("worker binary does not match this supervisor: {e}"),
            }))
        }
    }
}

/// Leases injection `index` to a live worker: one hello for the range
/// `index..index+1`, then every frame through a [`LeaseCheck`]. Until
/// `ready` the idle limit polices silence (the worker may be building
/// its rig); from `ready` on only the per-injection deadline applies,
/// so it times the replay alone. Returns the record and the attempts
/// the worker reported for it.
fn lease_one(
    w: &mut WorkerProc,
    ctx: &SlotCtx,
    index: usize,
    idle: Duration,
) -> Result<(InjectionRecord, u32), Lost> {
    let mut hello = ctx.hello.clone();
    hello.header.range_start = index as u64;
    hello.header.range_end = index as u64 + 1;
    if let Err(e) = write_frame(&mut w.stdin, &render_hello(&hello)) {
        let signal = kill_and_reap(&mut w.child);
        return Err(Lost::Failed {
            cause: HarnessCause::WorkerKilled { signal },
            detail: format!("worker would not accept a lease: {e}"),
            killed: false,
        });
    }
    let mut check = LeaseCheck::new(&hello.header, ctx.faults);
    let mut heard = Instant::now();
    let mut ready: Option<Instant> = None;
    loop {
        let limit = match (ready, ctx.deadline) {
            (None, _) => Some((
                heard + idle,
                HarnessCause::HeartbeatTimeout,
                format!(
                    "no heartbeat for {}ms before ready; worker SIGKILLed",
                    idle.as_millis()
                ),
            )),
            (Some(at), Some(d)) => Some((
                at + d,
                HarnessCause::DeadlineExceeded,
                format!(
                    "replay overran its {}ms deadline; worker SIGKILLed",
                    d.as_millis()
                ),
            )),
            (Some(_), None) => None,
        };
        let frame = w.next_frame(limit, ctx.stop)?;
        heard = Instant::now();
        match check.feed(&frame) {
            Ok(Step::More) => {}
            Ok(Step::Ready) => ready = Some(heard),
            Ok(Step::Fin(mut records)) => {
                let (_, record, attempts) = records
                    .pop()
                    .expect("a checked fin seals its one-injection range");
                return Ok((record, attempts));
            }
            Ok(Step::Error(reason)) => {
                kill_and_reap(&mut w.child);
                return Err(Lost::Fatal(NfpError::Workload {
                    what: "campaign worker".to_string(),
                    reason,
                }));
            }
            Err(e) => return Err(w.kill(HarnessCause::ProtocolViolation, e.to_string())),
        }
    }
}

/// Everything one process slot borrows from [`run_supervised`].
struct SlotCtx<'a> {
    bin: &'a Path,
    hello: &'a WorkerHello,
    seed: u64,
    deadline: Option<Duration>,
    heartbeat: Duration,
    max_respawns: u32,
    slot: usize,
    pending: &'a [usize],
    faults: &'a [Fault],
    next: &'a AtomicUsize,
    stop: &'a AtomicBool,
    kills: &'a AtomicUsize,
    respawns: &'a AtomicUsize,
}

/// Drives one process slot: claims plan indices, leases each to a
/// (re)spawned worker, and reports results upstream. Per injection:
/// retry once on a fresh process, quarantine on the second failure.
/// Per slot: more than `max_respawns` *consecutive* process failures
/// retires the slot (quarantining whatever was in flight) and the
/// remaining slots absorb its share of the plan; any successful
/// injection resets the count.
fn drive_process_slot(ctx: &SlotCtx, tx: &mpsc::Sender<Msg>) {
    let idle = (ctx.heartbeat * 10).max(Duration::from_secs(2));
    let mut proc: Option<WorkerProc> = None;
    let mut consecutive: u32 = 0;

    'plan: while !ctx.stop.load(Ordering::Relaxed) {
        let Some(&index) = ctx.pending.get(ctx.next.fetch_add(1, Ordering::Relaxed)) else {
            break;
        };
        let mut attempts = 0u32;

        // Each pass either spawns a worker or leases `index` to the
        // live one. Two failed leases quarantine the injection — the
        // panic-isolation retry policy at process granularity.
        let verdict: Result<(InjectionRecord, u32), (HarnessCause, String)> = 'attempt: loop {
            let lost = match proc.as_mut() {
                None => {
                    if consecutive > 0 {
                        ctx.respawns.fetch_add(1, Ordering::Relaxed);
                        backoff_sleep(ctx.seed, ctx.slot, consecutive, ctx.stop);
                        if ctx.stop.load(Ordering::Relaxed) {
                            break 'plan;
                        }
                    }
                    match spawn_worker(ctx.bin, idle, ctx.stop) {
                        Ok(w) => {
                            proc = Some(w);
                            continue 'attempt;
                        }
                        Err(lost) => lost,
                    }
                }
                Some(w) => {
                    attempts += 1;
                    match lease_one(w, ctx, index, idle) {
                        Ok(done) => break 'attempt Ok(done),
                        Err(lost) => lost,
                    }
                }
            };
            match lost {
                Lost::Stopped => break 'plan,
                Lost::Fatal(error) => {
                    let _ = tx.send(Msg::Fatal { error });
                    return;
                }
                Lost::Failed {
                    cause,
                    detail,
                    killed,
                } => {
                    if killed {
                        ctx.kills.fetch_add(1, Ordering::Relaxed);
                    }
                    proc = None;
                    consecutive += 1;
                    if attempts >= 2 || consecutive > ctx.max_respawns {
                        break 'attempt Err((cause, detail));
                    }
                }
            }
        };

        let (msg, retire) = match verdict {
            Ok((record, worker_attempts)) => {
                consecutive = 0;
                // A worker retries a panicking replay itself and
                // quarantines it after a second panic; its attempts
                // beyond the first add to the slot's.
                let quarantine = (record.outcome == Outcome::HarnessFault).then(|| {
                    (
                        HarnessCause::Panic,
                        "the replay panicked twice in the worker process".to_string(),
                    )
                });
                let attempts = attempts.saturating_add(worker_attempts.saturating_sub(1));
                let msg = Msg::Done {
                    index,
                    record,
                    attempts,
                    quarantine,
                };
                (msg, false)
            }
            Err((cause, detail)) => {
                let msg = Msg::Done {
                    index,
                    record: quarantine_record(ctx.faults[index]),
                    attempts,
                    quarantine: Some((cause, detail)),
                };
                (msg, consecutive > ctx.max_respawns)
            }
        };
        if retire {
            eprintln!(
                "supervisor: worker slot {} retired after {consecutive} consecutive process \
                 failures; remaining slots absorb its share",
                ctx.slot
            );
        }
        if tx.send(msg).is_err() || retire {
            break;
        }
    }
    if let Some(w) = proc.take() {
        shutdown(w);
    }
}

/// Runs a supervised campaign: journaling, resume, panic isolation, and
/// graceful pool degradation around the plain deterministic campaign.
/// Without a journal or hooks this is behaviourally
/// [`crate::run_campaign_parallel`] with per-replay panic isolation.
pub fn run_supervised(
    kernel: &Kernel,
    mode: Mode,
    cfg: &SupervisorConfig,
) -> Result<SupervisorOutcome, NfpError> {
    let campaign = &cfg.campaign;
    if let Some(spec) = cfg.shard {
        if spec.count == 0 || spec.index >= spec.count {
            return Err(NfpError::Workload {
                what: format!("shard {} of {}", spec.index, spec.count),
                reason: "shard index must be < shard count (and count nonzero)".to_string(),
            });
        }
    }
    let (rig, space) = CampaignRig::prepare(kernel, mode, campaign)?;
    let faults = plan(&space, campaign.injections, campaign.seed);
    let header = JournalHeader::bind(kernel, mode, campaign, rig.golden_instret, cfg.shard);
    let range = header.range();

    let mut slots: Vec<Option<(InjectionRecord, u32)>> = vec![None; faults.len()];
    let mut quarantined = Vec::new();
    let mut resumed = 0usize;
    let mut has_fin = false;

    // Resume: stream the journal into the slot table, then truncate any
    // torn tail so appended records start on a fresh line.
    let mut journal_file = match (&cfg.journal, cfg.resume) {
        (None, true) => {
            return Err(NfpError::Journal {
                path: "(none)".to_string(),
                reason: "resume requested without a journal path".to_string(),
            })
        }
        (None, false) => None,
        (Some(path), resume) => {
            let shown = path.display().to_string();
            let io_err = |e: std::io::Error| NfpError::Journal {
                path: shown.clone(),
                reason: e.to_string(),
            };
            let mut file;
            if resume {
                let loaded = load_journal(path, &header, &faults, &mut slots)?;
                resumed = loaded.restored;
                has_fin = loaded.fin.is_some();
                for (index, slot) in slots.iter().enumerate() {
                    let Some((rec, _)) = slot else { continue };
                    if rec.outcome == Outcome::HarnessFault {
                        quarantined.push(QuarantineEntry {
                            index,
                            fault: rec.fault,
                            cause: HarnessCause::Unknown,
                            detail: "quarantined in a previous run (restored from journal)"
                                .to_string(),
                        });
                    }
                }
                file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(io_err)?;
                file.set_len(loaded.intact_len).map_err(io_err)?;
                file.seek(std::io::SeekFrom::End(0)).map_err(io_err)?;
            } else {
                file = std::fs::File::create(path).map_err(io_err)?;
                writeln!(file, "{}", header.render()).map_err(io_err)?;
                file.flush().map_err(io_err)?;
            }
            Some(file)
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
    let process_bin: Option<PathBuf> = match cfg.isolation {
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
    let hello = WorkerHello {
        header: header.clone(),
        preset: cfg.preset,
        heartbeat_ms: (cfg.heartbeat.as_millis() as u64).max(1),
        spin_at: cfg.test_spin_at.map(|i| i as u64),
        abort_at: cfg.test_worker_abort_at.map(|i| i as u64),
    };
    let kills = AtomicUsize::new(0);
    let respawns = AtomicUsize::new(0);

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Msg>();

    let mut fatal: Option<NfpError> = None;
    let mut written = 0usize;
    let mut aborted = false;

    std::thread::scope(|scope| {
        for slot in 0..workers {
            let tx = tx.clone();
            let (next, stop, pending, faults) = (&next, &stop, &pending, &faults);
            if let Some(bin) = process_bin.as_deref() {
                let ctx = SlotCtx {
                    bin,
                    hello: &hello,
                    seed: campaign.seed,
                    deadline: cfg.deadline,
                    heartbeat: cfg.heartbeat,
                    max_respawns: cfg.max_respawns,
                    slot,
                    pending,
                    faults,
                    next,
                    stop,
                    kills: &kills,
                    respawns: &respawns,
                };
                scope.spawn(move || drive_process_slot(&ctx, &tx));
                continue;
            }
            scope.spawn(move || {
                let mut rig = match CampaignRig::prepare(kernel, mode, campaign) {
                    Ok((r, _)) => r,
                    Err(error) => {
                        let _ = tx.send(Msg::Fatal { error });
                        return;
                    }
                };
                while !stop.load(Ordering::Relaxed) {
                    let Some(&index) = pending.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        return;
                    };
                    let fault = faults[index];
                    let replayed = replay_guarded(
                        &mut rig,
                        |rig, attempt| {
                            if cfg
                                .test_panic_at
                                .is_some_and(|(i, n)| i == index && attempt <= n)
                            {
                                panic!("supervisor test hook: forced panic on injection {index}");
                            }
                            if cfg.test_spin_at == Some(index) {
                                replay_spinning(rig, &fault, campaign.wall)
                            } else {
                                rig.run_one(&fault, campaign.wall)
                            }
                        },
                        || CampaignRig::prepare(kernel, mode, campaign).map(|(fresh, _)| fresh),
                    );
                    let (msg, retire) = match replayed {
                        Ok((Replayed::Record(record), attempts)) => {
                            let msg = Msg::Done {
                                index,
                                record,
                                attempts,
                                quarantine: None,
                            };
                            (msg, false)
                        }
                        Ok((Replayed::Panicked { text, rig_lost }, attempts)) => {
                            let msg = Msg::Done {
                                index,
                                record: quarantine_record(fault),
                                attempts,
                                quarantine: Some((HarnessCause::Panic, text)),
                            };
                            // With no rig to continue with, hand the
                            // quarantined record over and retire; the
                            // surviving workers drain the rest of the
                            // plan.
                            (msg, rig_lost)
                        }
                        Err(error) => (Msg::Fatal { error }, false),
                    };
                    if tx.send(msg).is_err() || retire {
                        return;
                    }
                }
            });
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
                    if let Some(file) = journal_file.as_mut() {
                        let line = record_line(index, &record, attempts);
                        let io = writeln!(file, "{line}").and_then(|()| file.flush());
                        if let Err(e) = io {
                            fatal = Some(NfpError::Journal {
                                path: cfg
                                    .journal
                                    .as_ref()
                                    .map_or_else(String::new, |p| p.display().to_string()),
                                reason: format!("write failed: {e}"),
                            });
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    if let Some((cause, detail)) = quarantine {
                        eprintln!(
                            "supervisor: quarantined injection {index} ({}) after {attempts} \
                             attempts — {cause}: {detail}",
                            record.fault
                        );
                        quarantined.push(QuarantineEntry {
                            index,
                            fault: record.fault,
                            cause,
                            detail,
                        });
                    }
                    slots[index] = Some((record, attempts));
                    written += 1;
                    if cfg.test_abort_after == Some(written) {
                        aborted = true;
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                Msg::Fatal { error } => {
                    fatal = Some(error);
                    stop.store(true, Ordering::Relaxed);
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
    // Seal a freshly completed journal with the shard summary record —
    // the machine-checkable claim "this range is fully covered", plus
    // the plan-order digest the merge recomputes. A resumed journal
    // that already carried one is left alone.
    if complete && !aborted && !has_fin {
        if let Some(file) = journal_file.as_mut() {
            let fin = FinRecord {
                records: (range.1 - range.0) as u64,
                range_start: range.0 as u64,
                range_end: range.1 as u64,
                digest: range_digest(range.0, &slots[range.0..range.1]),
            };
            let io = writeln!(file, "{}", fin_line(&fin)).and_then(|()| file.flush());
            io.map_err(|e| NfpError::Journal {
                path: cfg
                    .journal
                    .as_ref()
                    .map_or_else(String::new, |p| p.display().to_string()),
                reason: format!("write of shard summary failed: {e}"),
            })?;
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
        dispatch: rig.machine.dispatch_stats(),
        result: assemble(kernel, mode, &rig, records),
        quarantined,
        resumed,
        completed,
        aborted,
        process_isolation: process_bin.is_some(),
        kills: kills.load(Ordering::Relaxed),
        respawns: respawns.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::HB_FRAME;
    use crate::worker::{render_error, render_ready};

    #[test]
    fn flat_json_roundtrips_records() {
        let rec = InjectionRecord {
            fault: Fault {
                at: 12345,
                target: FaultTarget::Ram {
                    addr: 0x4100_0040,
                    bit: 31,
                },
            },
            category: Some(Category::MemLoad),
            outcome: Outcome::Sdc,
        };
        let line = record_line(7, &rec, 2);
        let (i, parsed, attempts) = parse_record(&line).unwrap();
        assert_eq!(i, 7);
        assert_eq!(parsed, rec);
        assert_eq!(attempts, 2);
    }

    #[test]
    fn flat_json_roundtrips_every_target_kind() {
        let targets = [
            FaultTarget::IntReg { index: 3, bit: 9 },
            FaultTarget::FpReg { index: 31, bit: 0 },
            FaultTarget::Icc { bit: 2 },
            FaultTarget::YReg { bit: 17 },
            FaultTarget::Fcc { bit: 1 },
            FaultTarget::Ram {
                addr: 0xffff_fffc,
                bit: 5,
            },
            FaultTarget::Code {
                index: 999,
                bit: 30,
            },
        ];
        for (n, target) in targets.into_iter().enumerate() {
            let rec = InjectionRecord {
                fault: Fault {
                    at: n as u64,
                    target,
                },
                category: None,
                outcome: Outcome::HarnessFault,
            };
            let (_, parsed, _) = parse_record(&record_line(n, &rec, 1)).unwrap();
            assert_eq!(parsed, rec);
        }
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        for bad in [
            "",
            "{",
            "{}garbage",
            "{\"i\":}",
            "{\"i\":1",
            "{\"i\":18446744073709551616}", // u64 overflow
            "not json at all",
            "{\"i\":1,\"at\":2,\"target\":\"Warp\",\"a\":0,\"b\":0,\"cat\":null,\"outcome\":\"SDC\",\"attempts\":1}",
        ] {
            assert!(parse_record(bad).is_none(), "accepted: {bad:?}");
        }
    }

    fn test_header() -> JournalHeader {
        JournalHeader {
            id: Identity {
                kernel: "fse_distance".to_string(),
                mode: Mode::Float,
                injections: 100,
                seed: 1,
                checkpoints: 16,
                escalation: 2,
                wall_ms: None,
            },
            golden_instret: 5000,
            shard_index: 0,
            shard_count: 1,
            range_start: 0,
            range_end: 100,
        }
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let header = test_header();
        let mut other = header.clone();
        other.id.seed = 2;
        let line = other.render();
        match header.check("j.jsonl", &line) {
            Err(NfpError::JournalMismatch { field, .. }) => assert_eq!(field, "seed"),
            other => panic!("expected JournalMismatch, got {other:?}"),
        }
        // And an identical header passes.
        header.check("j.jsonl", &header.render()).unwrap();
    }

    #[test]
    fn header_shard_binding_mismatch_names_the_field() {
        let header = test_header();
        let mut other = header.clone();
        other.range_end = 50;
        match header.check("j.jsonl", &other.render()) {
            Err(NfpError::JournalMismatch { field, .. }) => assert_eq!(field, "range_end"),
            got => panic!("expected JournalMismatch, got {got:?}"),
        }
        let mut other = header.clone();
        other.shard_index = 1;
        other.shard_count = 4;
        match header.check("j.jsonl", &other.render()) {
            Err(NfpError::JournalMismatch { field, .. }) => assert_eq!(field, "shard_index"),
            got => panic!("expected JournalMismatch, got {got:?}"),
        }
    }

    #[test]
    fn header_parses_back_exactly() {
        let mut header = test_header();
        header.shard_index = 2;
        header.shard_count = 4;
        header.range_start = 50;
        header.range_end = 75;
        assert_eq!(JournalHeader::parse(&header.render()), Ok(header));
        assert!(JournalHeader::parse("{\"v\":1,\"kind\":\"other\"}").is_err());
        assert!(JournalHeader::parse("not json").is_err());
    }

    #[test]
    fn record_crc_rejects_any_bit_flip() {
        let rec = InjectionRecord {
            fault: Fault {
                at: 8317,
                target: FaultTarget::IntReg { index: 19, bit: 7 },
            },
            category: Some(Category::IntArith),
            outcome: Outcome::Masked,
        };
        let line = record_line(3, &rec, 1);
        assert!(parse_record(&line).is_some(), "untampered line must parse");
        // Flip every bit of every byte in turn: each tampering must be
        // rejected (unparseable or CRC mismatch — either way `None`).
        let mut bytes = line.clone().into_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                if let Ok(tampered) = std::str::from_utf8(&bytes) {
                    assert!(
                        parse_record(tampered).is_none(),
                        "accepted a flip at {byte}:{bit}: {tampered}"
                    );
                }
                bytes[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn fin_roundtrips_and_rejects_tampering() {
        let fin = FinRecord {
            records: 25,
            range_start: 50,
            range_end: 75,
            digest: 0xdead_beef,
        };
        let line = fin_line(&fin);
        assert_eq!(parse_fin(&line), Some(fin));
        // A record line is not a fin and vice versa.
        let rec = InjectionRecord {
            fault: Fault {
                at: 1,
                target: FaultTarget::Icc { bit: 0 },
            },
            category: None,
            outcome: Outcome::Masked,
        };
        assert_eq!(parse_fin(&record_line(0, &rec, 1)), None);
        assert!(parse_record(&line).is_none());
        // Tampering with a count field trips the CRC.
        let tampered = line.replace("\"records\":25", "\"records\":24");
        assert_eq!(parse_fin(&tampered), None);
    }

    // -- the lease checker (the distrust boundary) --------------------

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

    fn plan_of(n: u64) -> Vec<Fault> {
        (0..n).map(fault).collect()
    }

    fn lease(start: u64, end: u64) -> JournalHeader {
        JournalHeader {
            range_start: start,
            range_end: end,
            ..test_header()
        }
    }

    /// A checker for the lease `start..end`, past its `ready`.
    fn ready_check(faults: &[Fault], start: u64, end: u64) -> LeaseCheck<'_> {
        let header = lease(start, end);
        let mut check = LeaseCheck::new(&header, faults);
        let ready = check.feed(&render_ready(header.golden_instret));
        assert!(matches!(ready, Ok(Step::Ready)), "{ready:?}");
        check
    }

    fn refused(got: Result<Step, NfpError>) -> String {
        match got {
            Err(NfpError::ProtocolViolation { detail }) => detail,
            other => panic!("expected a ProtocolViolation, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_or_checksum_failed_records_are_refused() {
        let faults = plan_of(4);
        let good = record_line(1, &record(1), 1);
        let tampered = good.replace("\"at\":101", "\"at\":102");
        let mut check = ready_check(&faults, 0, 4);
        let detail = refused(check.feed(&tampered));
        assert!(detail.contains("corrupt or checksum-failed"), "{detail}");
        assert!(check.slots.iter().all(Option::is_none));
    }

    #[test]
    fn out_of_range_and_interleaved_records_are_refused() {
        // The lease covers 2..4; a record for 5 belongs to another
        // shard — out-of-order/interleaved shard output is a violation.
        let faults = plan_of(8);
        let mut check = ready_check(&faults, 2, 4);
        let detail = refused(check.feed(&record_line(5, &record(5), 1)));
        assert!(detail.contains("outside the range 2..4"), "{detail}");
        // In-range is fine, in either order within the range.
        let mut check = ready_check(&faults, 2, 4);
        for i in [3, 2] {
            let fed = check.feed(&record_line(i, &record(i as u64), 1));
            assert!(matches!(fed, Ok(Step::More)), "{fed:?}");
        }
    }

    #[test]
    fn duplicate_records_are_refused() {
        let faults = plan_of(4);
        let mut check = ready_check(&faults, 0, 4);
        let line = record_line(1, &record(1), 1);
        assert!(matches!(check.feed(&line), Ok(Step::More)));
        let detail = refused(check.feed(&line));
        assert!(detail.contains("duplicate record"), "{detail}");
    }

    #[test]
    fn plan_binding_mismatches_are_refused() {
        // A record whose CRC is fine but whose fault is not what the
        // deterministic plan holds at that index: a confused (or
        // malicious) worker answering some other campaign.
        let faults = plan_of(4);
        let mut check = ready_check(&faults, 0, 4);
        let detail = refused(check.feed(&record_line(1, &record(2), 1)));
        assert!(detail.contains("deterministic fault plan"), "{detail}");
    }

    #[test]
    fn fin_validation_demands_range_count_coverage_and_digest() {
        let slots: Vec<Option<(InjectionRecord, u32)>> =
            (2..6).map(|i| Some((record(i), 1))).collect();
        let good = FinRecord {
            records: 4,
            range_start: 2,
            range_end: 6,
            digest: range_digest(2, &slots),
        };
        check_fin(&good, 2, &slots).unwrap();
        // Wrong range.
        let bad = FinRecord {
            range_start: 0,
            ..good
        };
        assert!(check_fin(&bad, 2, &slots).is_err());
        // Wrong count.
        let bad = FinRecord { records: 3, ..good };
        assert!(check_fin(&bad, 2, &slots).is_err());
        // Wrong digest.
        let bad = FinRecord {
            digest: good.digest ^ 1,
            ..good
        };
        assert!(check_fin(&bad, 2, &slots).is_err());
        // A gap in coverage (fin before every record arrived).
        let mut torn = slots.clone();
        torn[2] = None;
        let err = check_fin(&good, 2, &torn).unwrap_err();
        assert!(err.contains("record 4"), "{err}");
        // And the round-tripped wire rendering still parses and checks.
        let fin = parse_fin(&fin_line(&good)).unwrap();
        check_fin(&fin, 2, &slots).unwrap();
    }

    #[test]
    fn a_checked_stream_returns_its_ranges_records() {
        let faults = plan_of(8);
        let mut check = ready_check(&faults, 2, 5);
        let mut slots = vec![None; 3];
        // Heartbeats may come anywhere, and records in any order.
        for i in [4, 2, 3] {
            assert!(matches!(check.feed(HB_FRAME), Ok(Step::More)));
            let fed = check.feed(&record_line(i, &record(i as u64), 1));
            assert!(matches!(fed, Ok(Step::More)), "{fed:?}");
            slots[i - 2] = Some((record(i as u64), 1));
        }
        let fin = FinRecord {
            records: 3,
            range_start: 2,
            range_end: 5,
            digest: range_digest(2, &slots),
        };
        match check.feed(&fin_line(&fin)) {
            Ok(Step::Fin(records)) => {
                let want: LeaseRecords = (2..5).map(|i| (i, record(i as u64), 1)).collect();
                assert_eq!(records, want);
            }
            other => panic!("expected the range's records, got {other:?}"),
        }
    }

    #[test]
    fn frames_out_of_order_are_protocol_violations() {
        let faults = plan_of(4);
        let header = lease(0, 4);
        let fin = fin_line(&FinRecord {
            records: 4,
            range_start: 0,
            range_end: 4,
            digest: 0,
        });
        for (frame, want) in [
            (
                record_line(1, &record(1), 1),
                "record before the ready handshake",
            ),
            (fin, "fin before the ready handshake"),
        ] {
            let mut check = LeaseCheck::new(&header, &faults);
            let detail = refused(check.feed(&frame));
            assert!(detail.contains(want), "{detail}");
        }
        let mut check = ready_check(&faults, 0, 4);
        let detail = refused(check.feed(&render_ready(header.golden_instret)));
        assert!(detail.contains("duplicate ready"), "{detail}");
    }

    #[test]
    fn a_golden_count_mismatch_is_a_protocol_violation() {
        let faults = plan_of(4);
        let header = lease(0, 4);
        let mut check = LeaseCheck::new(&header, &faults);
        let detail = refused(check.feed(&render_ready(header.golden_instret + 1)));
        assert!(
            detail.contains("golden instruction count mismatch"),
            "{detail}"
        );
        assert!(refused(check.feed("{\"kind\":\"ready\"}")).contains("mismatch"));
    }

    #[test]
    fn unknown_or_unparseable_frames_are_protocol_violations() {
        let faults = plan_of(4);
        for (frame, want) in [
            ("{\"kind\":\"warp\"}", "unknown frame kind"),
            ("{\"i\":1}", "unknown frame kind"),
            (
                "{\"kind\":\"done\",\"i\":3,\"outcome\":\"SDC\"}",
                "unknown frame kind",
            ),
            ("{\"kind\":\"done\",\"i\":3", "unparseable"),
            ("not json", "unparseable"),
        ] {
            let mut check = ready_check(&faults, 0, 4);
            let detail = refused(check.feed(frame));
            assert!(detail.contains(want), "{frame:?}: {detail}");
        }
    }

    #[test]
    fn error_frames_return_the_workers_detail() {
        let faults = plan_of(4);
        let nasty = "panic: \"quoted\"\nwith newline";
        let mut check = LeaseCheck::new(&lease(0, 4), &faults);
        match check.feed(&render_error(nasty)) {
            Ok(Step::Error(detail)) => assert_eq!(detail, nasty),
            other => panic!("expected the worker's error, got {other:?}"),
        }
        assert!(refused(check.feed("{\"kind\":\"error\"}")).contains("detail"));
    }

    #[test]
    fn load_journal_rejects_a_fin_short_of_its_range() {
        // Records 0..3 of a journal bound to 0..4, sealed by a fin whose
        // count and digest match the records present: the fin claims a
        // complete range that is not.
        let faults = plan_of(4);
        let header = lease(0, 4);
        let slots: Vec<Option<(InjectionRecord, u32)>> =
            (0..4).map(|i| (i < 3).then(|| (record(i), 1))).collect();
        let fin = FinRecord {
            records: 3,
            range_start: 0,
            range_end: 4,
            digest: range_digest(0, &slots),
        };
        let mut text = format!("{}\n", header.render());
        for i in 0..3 {
            text.push_str(&format!("{}\n", record_line(i, &record(i as u64), 1)));
        }
        text.push_str(&format!("{}\n", fin_line(&fin)));
        let path = std::env::temp_dir().join(format!("nfp_short_fin_{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let mut table = vec![None; 4];
        let got = load_journal(&path, &header, &faults, &mut table);
        let _ = std::fs::remove_file(&path);
        match got {
            Err(NfpError::Journal { reason, .. }) => {
                assert!(reason.contains("shard summary at line 5"), "{reason}");
                assert!(reason.contains("claims 3 records"), "{reason}");
            }
            Err(other) => panic!("expected a journal error, got {other}"),
            Ok(_) => panic!("a fin short of its range loaded"),
        }
    }
}
