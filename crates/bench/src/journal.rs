//! The journals: the campaign-journal codec, and the one line-file
//! discipline every journal kind is written and read under — the
//! campaign journal of `run_supervised` (one per shard under
//! `run_sharded`), the coordinator's per-campaign records file (a
//! campaign journal too), and its service journal (the crate's
//! `servejournal` module holds the events). A report stays a pure
//! function of (kernel, float mode, seed) across kills and resumes
//! because all three obey the same rules:
//!
//! * **A header binds the file.** Line 1 names the kind and, for a
//!   campaign journal, binds the campaign (kernel, mode, seed,
//!   injection count, watchdog settings), the golden instruction count
//!   and the shard slice, so a stale journal is rejected instead of
//!   silently corrupting a resume. A missing, torn or foreign header is
//!   an error for every kind ([`read_journal`]).
//! * **Write-ahead, one line at a time.** Each record is one CRC'd
//!   line, appended and flushed before the next is accepted
//!   ([`JournalWriter`]), by one writer at a time.
//! * **One torn tail.** A kill mid-write leaves at most one
//!   newline-less final line; the reader skips exactly that one, and a
//!   resume truncates it ([`JournalWriter::reopen`]). Corruption anywhere
//!   else is a hard error naming the line.
//! * **A fin seals a range** with the plan-order digest of its records
//!   ([`CampaignJournal::seal`]).
//! * **Quarantine, not trust.** A journal its owner does not fail on is
//!   renamed aside ([`quarantine`]) and a fresh one started.
//!
//! ```text
//! {"v":1,"kind":"nfp-campaign-journal","kernel":"fse_img00",...,"range_end":300}
//! {"i":200,"at":8317,"target":"IntReg","a":19,"b":7,"cat":0,"outcome":"masked","attempts":1,"crc":995392009}
//! {"i":204,"at":5,"target":"Fcc","a":1,"b":0,"cat":null,"outcome":"harness","attempts":2,"crc":2191558067}
//! {"fin":1,"records":7,"range_start":200,"range_end":207,"digest":2539470383,"crc":3254945397}
//! ```

use crate::campaign::{CampaignConfig, InjectionRecord};
use crate::crc::{crc32, crc32_finish, crc32_update, CRC_INIT};
use crate::evaluation::Mode;
use crate::flatjson::{parse_flat, Obj};
use crate::identity::{self, Field, Identity};
use crate::shards::{shard_range, ShardSpec};
use nfp_core::{NfpError, Outcome};
use nfp_sim::{Fault, FaultTarget};
use nfp_sparc::Category;
use nfp_workloads::Kernel;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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

impl FinRecord {
    /// The fin that seals `slots`, the table of the range that starts
    /// at plan index `start`: the range, its length as the record
    /// count, and the plan-order [`range_digest`] of its records. Every
    /// writer of a fin — a journal sealing its range, a worker closing
    /// a lease — builds it here.
    pub(crate) fn seal(start: usize, slots: &[Option<(InjectionRecord, u32)>]) -> FinRecord {
        FinRecord {
            records: slots.len() as u64,
            range_start: start as u64,
            range_end: (start + slots.len()) as u64,
            digest: range_digest(start, slots),
        }
    }
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
    let (start, end) = header.range();
    let table = &mut slots[start..end];
    let mut fin: Option<FinRecord> = None;
    let mut restored = 0usize;
    let check = |line: &str| header.check(&shown, line);
    let ((), intact_len) = read_journal(
        path,
        check,
        Some(|lineno, line: &str| {
            if fin.is_some() {
                return Err(format!(
                    "record at line {lineno} appears after the shard summary"
                ));
            }
            if let Some(record) = parse_record(line) {
                file_record(record, faults, start, table)
                    .map_err(|reason| format!("record at line {lineno}: {reason}"))?;
                restored += 1;
            } else if let Some(summary) = parse_fin(line) {
                check_fin(&summary, start, table)
                    .map_err(|reason| format!("shard summary at line {lineno}: {reason}"))?;
                fin = Some(summary);
            } else {
                return Err(format!("corrupt record at line {lineno}"));
            }
            Ok(())
        }),
    )?;
    Ok(LoadedJournal {
        intact_len,
        fin,
        restored,
    })
}

// ---------------------------------------------------------------------
// The line-file discipline: one reader, one writer, quarantine.
// ---------------------------------------------------------------------

/// An [`NfpError::Journal`] naming `path`.
pub(crate) fn journal_err(path: &Path, reason: impl Into<String>) -> NfpError {
    NfpError::Journal {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// The one reader of every journal kind. It opens the journal at `path`
/// and hands line 1 to `header`, which returns what it parsed or rejects
/// a foreign header, then every later complete line to `line` with its
/// 1-based number; `Err` from `line` is why the journal is corrupt.
/// Without `line`, reading stops after the header. Returns what
/// `header` parsed and the intact length: the bytes up to the end of
/// the last complete line.
///
/// Line 1 is never a torn tail: an empty file, and a header without its
/// newline (the torn first write of a killed run), are errors. After
/// it, a newline-less final line is the torn tail of a mid-write kill
/// (lines are appended and flushed whole) and is skipped. Lines are
/// read as bytes, so a tail cut inside a multi-byte character is still
/// just a torn tail.
pub(crate) fn read_journal<H>(
    path: &Path,
    header: impl FnOnce(&str) -> Result<H, NfpError>,
    mut line: Option<impl FnMut(usize, &str) -> Result<(), String>>,
) -> Result<(H, u64), NfpError> {
    let err = |reason: String| journal_err(path, reason);
    let file = File::open(path).map_err(|e| err(format!("cannot open: {e}")))?;
    let mut input = BufReader::new(file);
    let mut header = Some(header);
    let mut parsed = None;
    let mut buf = Vec::new();
    let mut intact_len = 0u64;
    for lineno in 1.. {
        buf.clear();
        let n = input
            .read_until(b'\n', &mut buf)
            .map_err(|e| err(format!("read failed at byte {intact_len}: {e}")))?;
        let complete = buf.pop_if(|b| *b == b'\n').is_some();
        if n == 0 || (!complete && header.is_none()) {
            break;
        }
        let text =
            std::str::from_utf8(&buf).map_err(|_| err(format!("line {lineno} is not UTF-8")))?;
        if let Some(header) = header.take() {
            parsed = Some(header(text)?);
            if !complete {
                return Err(err("torn header line (no newline)".to_string()));
            }
        } else if let Some(line) = line.as_mut() {
            line(lineno, text).map_err(err)?;
        }
        intact_len += n as u64;
        if line.is_none() {
            break;
        }
    }
    let parsed = parsed.ok_or_else(|| err("journal is empty (no header)".to_string()))?;
    Ok((parsed, intact_len))
}

/// A journal file open for appending: the one writer of every journal
/// kind.
pub(crate) struct JournalWriter {
    path: PathBuf,
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a journal that holds just its header line,
    /// synced to disk, so a kill after `create` returns never leaves a
    /// torn header behind.
    pub(crate) fn create(path: &Path, header: &str) -> Result<JournalWriter, NfpError> {
        let file =
            File::create(path).map_err(|e| journal_err(path, format!("cannot create: {e}")))?;
        let mut out = JournalWriter {
            path: path.to_path_buf(),
            file,
        };
        out.append([header])?;
        out.file
            .sync_data()
            .map_err(|e| journal_err(path, format!("cannot sync the header: {e}")))?;
        Ok(out)
    }

    /// Reopens a journal for appending at the intact length a load
    /// returned: the torn tail is truncated, so appended lines start on
    /// a fresh line.
    pub(crate) fn reopen(path: &Path, intact_len: u64) -> Result<JournalWriter, NfpError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| journal_err(path, format!("cannot reopen: {e}")))?;
        file.set_len(intact_len)
            .and_then(|()| file.seek(SeekFrom::End(0)))
            .map_err(|e| journal_err(path, format!("cannot truncate the torn tail: {e}")))?;
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends `lines`, each with its newline, and flushes them before
    /// returning.
    pub(crate) fn append<S: AsRef<str>>(
        &mut self,
        lines: impl IntoIterator<Item = S>,
    ) -> Result<(), NfpError> {
        let mut out = BufWriter::new(&mut self.file);
        lines
            .into_iter()
            .try_for_each(|line| {
                out.write_all(line.as_ref().as_bytes())?;
                out.write_all(b"\n")
            })
            .and_then(|()| out.flush())
            .map_err(|e| journal_err(&self.path, format!("append failed: {e}")))
    }
}

/// Where a journal that failed to load is moved so a fresh one can
/// start at its path without destroying the evidence:
/// `c.jsonl` → `c.jsonl.quarantined`.
pub(crate) fn quarantined_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".quarantined");
    PathBuf::from(os)
}

/// Renames a journal that failed to load aside to its
/// [`quarantined_path`] — the evidence is kept, its state is not
/// trusted — and returns where it went.
pub(crate) fn quarantine(path: &Path) -> Result<PathBuf, NfpError> {
    let aside = quarantined_path(path);
    std::fs::rename(path, &aside)
        .map_err(|e| journal_err(path, format!("cannot quarantine corrupt journal: {e}")))?;
    Ok(aside)
}

/// The one campaign-journal writer: `run_supervised`'s journal and the
/// coordinator's per-campaign records file. It appends each record of
/// its bound range at most once, since [`load_journal`] rejects
/// duplicates, and seals the range with its fin once.
pub(crate) struct CampaignJournal {
    file: JournalWriter,
    /// The rendered header, for [`CampaignJournal::rewrite`].
    header: String,
    /// First plan index of the bound range.
    start: usize,
    /// Which plan indices of the range the file holds, from `start` on.
    journaled: Vec<bool>,
    /// True once the file carries its fin.
    sealed: bool,
}

impl CampaignJournal {
    /// Creates (truncating) the journal at `path`, bound to `header`.
    pub(crate) fn create(path: &Path, header: &JournalHeader) -> Result<CampaignJournal, NfpError> {
        let file = JournalWriter::create(path, &header.render())?;
        Ok(CampaignJournal::over(file, header))
    }

    /// Resumes the journal at `path`: loads it into `slots` under
    /// `header` (see [`load_journal`]), then reopens it at its intact
    /// length.
    pub(crate) fn resume(
        path: &Path,
        header: &JournalHeader,
        faults: &[Fault],
        slots: &mut [Option<(InjectionRecord, u32)>],
    ) -> Result<(CampaignJournal, LoadedJournal), NfpError> {
        let loaded = load_journal(path, header, faults, slots)?;
        let file = JournalWriter::reopen(path, loaded.intact_len)?;
        let mut journal = CampaignJournal::over(file, header);
        let (start, end) = header.range();
        journal.journaled = slots[start..end].iter().map(Option::is_some).collect();
        journal.sealed = loaded.fin.is_some();
        Ok((journal, loaded))
    }

    fn over(file: JournalWriter, header: &JournalHeader) -> CampaignJournal {
        let (start, end) = header.range();
        CampaignJournal {
            file,
            header: header.render(),
            start,
            journaled: vec![false; end - start],
            sealed: false,
        }
    }

    /// Appends every record of `range` that `slots` (indexed by plan
    /// index) holds and the journal does not, in plan order.
    pub(crate) fn append(
        &mut self,
        slots: &[Option<(InjectionRecord, u32)>],
        range: (usize, usize),
    ) -> Result<(), NfpError> {
        let (start, journaled) = (self.start, &mut self.journaled);
        let lines = (range.0..range.1).filter_map(|index| {
            let (rec, attempts) = slots[index].as_ref()?;
            let fresh = !std::mem::replace(&mut journaled[index - start], true);
            fresh.then(|| record_line(index, rec, *attempts))
        });
        self.file.append(lines)
    }

    /// Rewrites the whole file from `slots`: a fresh header, then every
    /// filled slot of the range. Invalidation needs this: the loader
    /// rejects duplicate indices, so distrusted records must leave the
    /// file before their range is appended again.
    pub(crate) fn rewrite(
        &mut self,
        slots: &[Option<(InjectionRecord, u32)>],
    ) -> Result<(), NfpError> {
        self.file = JournalWriter::create(&self.file.path, &self.header)?;
        self.journaled.fill(false);
        self.sealed = false;
        self.append(slots, (self.start, self.start + self.journaled.len()))
    }

    /// Seals the range with its fin; a journal that already carries one
    /// is left alone.
    pub(crate) fn seal(
        &mut self,
        slots: &[Option<(InjectionRecord, u32)>],
    ) -> Result<(), NfpError> {
        if self.sealed {
            return Ok(());
        }
        let table = &slots[self.start..self.start + self.journaled.len()];
        self.file
            .append([fin_line(&FinRecord::seal(self.start, table))])?;
        self.sealed = true;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::net::HB_FRAME;
    use crate::worker::{render_error, render_ready};
    use std::fmt::Debug;

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

    // -- the bytes on disk ---------------------------------------------

    /// Lines the codec rendered before it moved out of the supervisor,
    /// kept as literals: every campaign journal on disk is made of
    /// these, so a rendering change that still round-trips would strand
    /// them all.
    const GOLDEN_HEADER: &str = "{\"v\":1,\"kind\":\"nfp-campaign-journal\",\"kernel\":\"fse_img00\",\"mode\":\"float\",\"injections\":400,\"seed\":7,\"checkpoints\":16,\"escalation\":2,\"wall_ms\":120000,\"golden_instret\":389441,\"shard_index\":2,\"shard_count\":4,\"range_start\":200,\"range_end\":300}";
    const GOLDEN_RECORDS: [&str; 7] = [
        "{\"i\":200,\"at\":8317,\"target\":\"IntReg\",\"a\":19,\"b\":7,\"cat\":0,\"outcome\":\"masked\",\"attempts\":1,\"crc\":995392009}",
        "{\"i\":201,\"at\":90211,\"target\":\"FpReg\",\"a\":31,\"b\":0,\"cat\":7,\"outcome\":\"SDC\",\"attempts\":2,\"crc\":78998784}",
        "{\"i\":202,\"at\":4,\"target\":\"Icc\",\"a\":2,\"b\":0,\"cat\":1,\"outcome\":\"trap\",\"attempts\":1,\"crc\":1107360527}",
        "{\"i\":203,\"at\":123456789,\"target\":\"YReg\",\"a\":17,\"b\":0,\"cat\":5,\"outcome\":\"hang\",\"attempts\":1,\"crc\":763890616}",
        "{\"i\":204,\"at\":5,\"target\":\"Fcc\",\"a\":1,\"b\":0,\"cat\":null,\"outcome\":\"harness\",\"attempts\":2,\"crc\":2191558067}",
        "{\"i\":205,\"at\":77,\"target\":\"Ram\",\"a\":1090519104,\"b\":30,\"cat\":2,\"outcome\":\"SDC\",\"attempts\":1,\"crc\":24196301}",
        "{\"i\":206,\"at\":66,\"target\":\"Code\",\"a\":999,\"b\":31,\"cat\":8,\"outcome\":\"trap\",\"attempts\":1,\"crc\":3802723133}",
    ];
    const GOLDEN_FIN: &str = "{\"fin\":1,\"records\":7,\"range_start\":200,\"range_end\":207,\"digest\":2539470383,\"crc\":3254945397}";

    fn golden_header() -> JournalHeader {
        JournalHeader {
            id: Identity {
                kernel: "fse_img00".to_string(),
                mode: Mode::Float,
                injections: 400,
                seed: 7,
                checkpoints: 16,
                escalation: 2,
                wall_ms: Some(120_000),
            },
            golden_instret: 389_441,
            shard_index: 2,
            shard_count: 4,
            range_start: 200,
            range_end: 300,
        }
    }

    /// One record of every target kind from plan index 200 on; the
    /// `Fcc` one is a quarantine, with no category.
    fn golden_records() -> Vec<(usize, InjectionRecord, u32)> {
        use Category::*;
        use FaultTarget::*;
        let rows = [
            (
                8317,
                IntReg { index: 19, bit: 7 },
                Some(IntArith),
                Outcome::Masked,
                1,
            ),
            (
                90211,
                FpReg { index: 31, bit: 0 },
                Some(FpuDiv),
                Outcome::Sdc,
                2,
            ),
            (4, Icc { bit: 2 }, Some(Jump), Outcome::Trap, 1),
            (123_456_789, YReg { bit: 17 }, Some(Other), Outcome::Hang, 1),
            (5, Fcc { bit: 1 }, None, Outcome::HarnessFault, 2),
            (
                77,
                Ram {
                    addr: 0x4100_0040,
                    bit: 30,
                },
                Some(MemLoad),
                Outcome::Sdc,
                1,
            ),
            (
                66,
                Code {
                    index: 999,
                    bit: 31,
                },
                Some(FpuSqrt),
                Outcome::Trap,
                1,
            ),
        ];
        rows.into_iter()
            .enumerate()
            .map(|(k, (at, target, category, outcome, attempts))| {
                let fault = Fault { at, target };
                let rec = InjectionRecord {
                    fault,
                    category,
                    outcome,
                };
                (200 + k, rec, attempts)
            })
            .collect()
    }

    #[test]
    fn journal_lines_render_byte_for_byte() {
        let header = golden_header();
        assert_eq!(header.render(), GOLDEN_HEADER);
        assert_eq!(JournalHeader::parse(GOLDEN_HEADER), Ok(header));
        let mut slots = Vec::new();
        for ((index, rec, attempts), line) in golden_records().into_iter().zip(GOLDEN_RECORDS) {
            assert_eq!(record_line(index, &rec, attempts), line);
            assert_eq!(parse_record(line), Some((index, rec.clone(), attempts)));
            slots.push(Some((rec, attempts)));
        }
        let fin = FinRecord::seal(200, &slots);
        assert_eq!(fin_line(&fin), GOLDEN_FIN);
        assert_eq!(parse_fin(GOLDEN_FIN), Some(fin));
    }

    // -- crash at every byte -------------------------------------------

    /// Cuts `text`, a whole journal of any kind, at every byte and loads
    /// each prefix through `load` — the kind's loader on the shared
    /// reader — which returns the intact length and what it restored.
    /// A cut inside line 1 must be a `Journal` error. Any other cut
    /// must load with the intact length at the end of the last complete
    /// line and restore exactly what the complete lines hold: the load
    /// of that prefix alone, the file the writer had left after its
    /// last whole append. Reopened at the intact length with the rest
    /// of the lines appended, the file must load as the uncut one does.
    pub(crate) fn check_every_cut<S: PartialEq + Debug>(
        name: &str,
        text: &str,
        load: impl Fn(&Path) -> Result<(u64, S), NfpError>,
    ) {
        let path =
            std::env::temp_dir().join(format!("nfp_cut_{name}_{}.jsonl", std::process::id()));
        let load_bytes = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            load(&path)
        };
        let text = text.as_bytes();
        let whole = load_bytes(text).expect("the uncut journal loads");
        assert_eq!(whole.0, text.len() as u64, "{name}: uncut intact length");
        let header_end = text.iter().position(|&b| b == b'\n').unwrap() + 1;
        for k in 0..=text.len() {
            let cut = &text[..k];
            if k < header_end {
                match load_bytes(cut) {
                    Err(NfpError::Journal { .. }) => continue,
                    got => panic!("{name}: a cut at byte {k} inside line 1 gave {got:?}"),
                }
            }
            let intact = cut.iter().rposition(|&b| b == b'\n').unwrap() + 1;
            let complete = load_bytes(&text[..intact]).unwrap();
            let (len, restored) =
                load_bytes(cut).unwrap_or_else(|e| panic!("{name}: cut at byte {k}: {e}"));
            assert_eq!(len, intact as u64, "{name}: cut at byte {k}");
            assert_eq!(restored, complete.1, "{name}: cut at byte {k}");
            let mut file = JournalWriter::reopen(&path, len).unwrap();
            let rest = std::str::from_utf8(&text[intact..]).unwrap();
            file.append(rest.lines()).unwrap();
            let resumed = load(&path).unwrap();
            assert_eq!(resumed, whole, "{name}: resumed after a cut at byte {k}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The golden records as a whole plan `0..7`, for journals that
    /// must load: the header binds the range, `faults` is the plan.
    fn golden_plan() -> (
        JournalHeader,
        Vec<Fault>,
        Vec<(usize, InjectionRecord, u32)>,
    ) {
        let records: Vec<_> = golden_records()
            .into_iter()
            .map(|(index, rec, attempts)| (index - 200, rec, attempts))
            .collect();
        let mut header = golden_header();
        header.id.injections = records.len();
        (header.shard_index, header.shard_count) = (0, 1);
        (header.range_start, header.range_end) = (0, records.len() as u64);
        let faults = records.iter().map(|(_, rec, _)| rec.fault).collect();
        (header, faults, records)
    }

    type Restored = (
        Vec<Option<(InjectionRecord, u32)>>,
        Option<FinRecord>,
        usize,
    );

    fn load_plan(
        path: &Path,
        header: &JournalHeader,
        faults: &[Fault],
    ) -> Result<(u64, Restored), NfpError> {
        let mut slots = vec![None; faults.len()];
        let loaded = load_journal(path, header, faults, &mut slots)?;
        Ok((loaded.intact_len, (slots, loaded.fin, loaded.restored)))
    }

    #[test]
    fn every_cut_of_a_sealed_campaign_journal_restores_its_complete_lines() {
        let (header, faults, records) = golden_plan();
        let path = std::env::temp_dir().join(format!("nfp_sealed_{}.jsonl", std::process::id()));
        let mut journal = CampaignJournal::create(&path, &header).unwrap();
        let mut slots = vec![None; faults.len()];
        // Out of plan order, as a worker pool finishes them.
        for (index, rec, attempts) in records.into_iter().rev() {
            slots[index] = Some((rec, attempts));
            journal.append(&slots, (index, index + 1)).unwrap();
        }
        journal.seal(&slots).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 1 + faults.len() + 1);
        let load = |p: &Path| load_plan(p, &header, &faults);
        check_every_cut("sealed", &text, load);
        // A cut anywhere inside the fin loads with no fin.
        let fin_start = text.trim_end().rfind('\n').unwrap() + 1;
        for k in fin_start..text.len() {
            std::fs::write(&path, &text[..k]).unwrap();
            let (_, (_, fin, restored)) = load(&path).unwrap();
            assert_eq!((fin, restored), (None, faults.len()), "cut at byte {k}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_cut_of_a_rewritten_records_file_restores_its_complete_lines() {
        let (header, faults, records) = golden_plan();
        let path = std::env::temp_dir().join(format!("nfp_rewritten_{}.jsonl", std::process::id()));
        let mut slots = vec![None; faults.len()];
        for (index, rec, attempts) in records {
            slots[index] = Some((rec, attempts));
        }
        let mut records = CampaignJournal::create(&path, &header).unwrap();
        records.append(&slots, (0, 4)).unwrap();
        // An invalidation drops record 1: the rewrite takes it out of
        // the file before its range is appended again.
        let dropped = slots[1].take();
        records.rewrite(&slots).unwrap();
        records.append(&slots, (0, 7)).unwrap();
        slots[1] = dropped;
        records.append(&slots, (0, 7)).unwrap();
        records.seal(&slots).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let indices: Vec<usize> = text
            .lines()
            .filter_map(|line| parse_record(line).map(|(index, _, _)| index))
            .collect();
        assert_eq!(indices, [0, 2, 3, 4, 5, 6, 1]);
        check_every_cut("rewritten", &text, |p| load_plan(p, &header, &faults));
    }
}
