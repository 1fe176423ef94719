//! Write-ahead **service journal** for the `repro serve` coordinator.
//!
//! The supervisor journal (DESIGN.md §10) makes one *campaign*
//! crash-safe; this module makes the *coordinator* crash-safe. Every
//! state transition the hub cares about — a start, an accepted submit,
//! a lease grant/return, a shard completion, a campaign fin, a cache
//! eviction, a clean drain — is appended as a CRC'd flat-JSON record
//! before the transition is acted on, so `repro serve --resume` can
//! rebuild the hub (in-flight campaigns, completed shards, restart
//! count) from the journal alone.
//!
//! The file is written and read under the crate's one journal
//! discipline ([`crate::journal`]): line 1 is a binding header, every
//! event line carries a CRC-32 of its canonical rendering (so a flipped
//! bit in a value *or* in the CRC itself is caught), a newline-less
//! final line is the torn tail of a mid-write kill and is truncated on
//! resume, and corruption anywhere else is a hard typed
//! [`NfpError::Journal`] naming the line. This module adds the event
//! vocabulary, the typed appends and the state rebuild.
//!
//! Per-campaign *records* live outside this file: each accepted submit
//! gets a sibling campaign journal at `<path>.c<cid>` (header + CRC'd
//! records + fin, written by the same campaign-journal writer as the
//! supervisor's), appended at each shard completion and deleted once
//! the campaign's fin event lands here — so the service journal stays
//! O(events), not O(plan).

use crate::crc::crc32;
use crate::flatjson::{esc, parse_flat, Obj};
use crate::journal::{journal_err, read_journal, with_crc, JournalWriter};
use crate::serve::CampaignRequest;
use nfp_core::NfpError;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Journal schema version. Bump on any incompatible rendering change
/// (v2: submit events no longer carry `dispatch`).
const SERVICE_V: u64 = 2;
/// The `kind` tag on line 1 that distinguishes a service journal from
/// the (header-compatible) campaign journals sitting next to it.
const SERVICE_KIND: &str = "nfp-serve-journal";

fn header_line() -> String {
    format!("{{\"v\":{SERVICE_V},\"kind\":\"{SERVICE_KIND}\"}}")
}

// ---------------------------------------------------------------------
// Canonical event renderings (the bytes each record's CRC covers).
// ---------------------------------------------------------------------

fn start_base() -> String {
    "{\"ev\":\"start\"}".to_string()
}

fn submit_base(cid: u64, req: &CampaignRequest, golden_instret: u64) -> String {
    format!(
        "{{\"ev\":\"submit\",\"cid\":{cid},{},\"golden_instret\":{golden_instret}}}",
        req.render_fields()
    )
}

fn lease_base(cid: u64, shard: u32, attempt: u32) -> String {
    format!("{{\"ev\":\"lease\",\"cid\":{cid},\"shard\":{shard},\"attempt\":{attempt}}}")
}

fn return_base(cid: u64, shard: u32, ok: bool) -> String {
    format!("{{\"ev\":\"return\",\"cid\":{cid},\"shard\":{shard},\"ok\":{ok}}}")
}

fn shard_base(cid: u64, shard: u32) -> String {
    format!("{{\"ev\":\"shard\",\"cid\":{cid},\"shard\":{shard}}}")
}

fn fin_base(cid: u64) -> String {
    format!("{{\"ev\":\"fin\",\"cid\":{cid}}}")
}

fn evict_base(key: &str, bytes: usize) -> String {
    format!(
        "{{\"ev\":\"evict\",\"key\":\"{}\",\"bytes\":{bytes}}}",
        esc(key)
    )
}

fn audit_base(cid: u64, shard: u32, wid: u64, verdict: &str) -> String {
    format!(
        "{{\"ev\":\"audit\",\"cid\":{cid},\"shard\":{shard},\"wid\":{wid},\"verdict\":\"{}\"}}",
        esc(verdict)
    )
}

fn ban_base(wid: u64, strikes: u32) -> String {
    format!("{{\"ev\":\"ban\",\"wid\":{wid},\"strikes\":{strikes}}}")
}

fn invalidate_base(cid: u64, shard: u32) -> String {
    format!("{{\"ev\":\"invalidate\",\"cid\":{cid},\"shard\":{shard}}}")
}

fn drain_base() -> String {
    "{\"ev\":\"drain\"}".to_string()
}

// ---------------------------------------------------------------------
// The append side.
// ---------------------------------------------------------------------

/// An open, flushed-per-record service journal. Shared by reference
/// across the coordinator's connection threads; the mutex serialises
/// appends so records land whole.
pub(crate) struct ServiceJournal {
    path: PathBuf,
    file: Mutex<JournalWriter>,
}

impl ServiceJournal {
    /// Creates (truncating) a fresh journal with its header line.
    pub(crate) fn create(path: &Path) -> Result<ServiceJournal, NfpError> {
        JournalWriter::create(path, &header_line()).map(|file| ServiceJournal::over(path, file))
    }

    /// Reopens an existing journal for appending, first truncating the
    /// torn tail a loader identified (`intact_len` bytes survive).
    pub(crate) fn resume(path: &Path, intact_len: u64) -> Result<ServiceJournal, NfpError> {
        JournalWriter::reopen(path, intact_len).map(|file| ServiceJournal::over(path, file))
    }

    fn over(path: &Path, file: JournalWriter) -> ServiceJournal {
        ServiceJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        }
    }

    /// The journal's own path (per-campaign records files derive from
    /// it via [`records_path`]).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event. Each append is one line-file write, so a
    /// panicking peer thread cannot leave the file torn: recover a
    /// poisoned lock rather than poisoning every later append.
    fn append(&self, base: String) -> Result<(), NfpError> {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.append([with_crc(base)])
    }

    pub(crate) fn start(&self) -> Result<(), NfpError> {
        self.append(start_base())
    }

    pub(crate) fn submit(
        &self,
        cid: u64,
        req: &CampaignRequest,
        golden_instret: u64,
    ) -> Result<(), NfpError> {
        self.append(submit_base(cid, req, golden_instret))
    }

    pub(crate) fn lease(&self, cid: u64, shard: u32, attempt: u32) -> Result<(), NfpError> {
        self.append(lease_base(cid, shard, attempt))
    }

    pub(crate) fn lease_return(&self, cid: u64, shard: u32, ok: bool) -> Result<(), NfpError> {
        self.append(return_base(cid, shard, ok))
    }

    pub(crate) fn shard_done(&self, cid: u64, shard: u32) -> Result<(), NfpError> {
        self.append(shard_base(cid, shard))
    }

    pub(crate) fn fin(&self, cid: u64) -> Result<(), NfpError> {
        self.append(fin_base(cid))
    }

    pub(crate) fn evict(&self, key: &str, bytes: usize) -> Result<(), NfpError> {
        self.append(evict_base(key, bytes))
    }

    /// Journals an audit verdict (`pass`, `convict`, or
    /// `inconclusive`) for one shard's producing worker.
    pub(crate) fn audit(
        &self,
        cid: u64,
        shard: u32,
        wid: u64,
        verdict: &str,
    ) -> Result<(), NfpError> {
        self.append(audit_base(cid, shard, wid, verdict))
    }

    /// Journals a worker blacklisting, with its cumulative strike
    /// count, so `--resume` replays the ban (parole restarts from the
    /// resume instant — wall-clock deadlines don't survive a crash).
    pub(crate) fn ban(&self, wid: u64, strikes: u32) -> Result<(), NfpError> {
        self.append(ban_base(wid, strikes))
    }

    /// Journals the invalidation of a previously completed shard —
    /// written *before* the records file is rewritten, so a crash
    /// between the two still drops the distrusted records on resume.
    pub(crate) fn invalidate(&self, cid: u64, shard: u32) -> Result<(), NfpError> {
        self.append(invalidate_base(cid, shard))
    }

    pub(crate) fn drain(&self) -> Result<(), NfpError> {
        self.append(drain_base())
    }
}

/// The per-campaign records journal sitting next to a service journal:
/// `serve.journal` → `serve.journal.c7` for campaign id 7.
pub(crate) fn records_path(journal: &Path, cid: u64) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(format!(".c{cid}"));
    PathBuf::from(os)
}

// ---------------------------------------------------------------------
// The load side.
// ---------------------------------------------------------------------

/// A campaign the journal saw submitted but not finished: the resumed
/// coordinator re-runs it headless, re-dispatching only the shards not
/// already completed in its records file.
#[derive(Debug)]
pub(crate) struct OpenCampaign {
    pub(crate) cid: u64,
    /// The submit, with `shards` already resolved to the concrete
    /// count the first run dispatched (journaled post-resolution, so a
    /// resume never re-guesses from live-peer census).
    pub(crate) req: CampaignRequest,
    /// Golden instruction count the first run bound its leases to.
    pub(crate) golden_instret: u64,
    /// Shards whose records landed in the campaign's records file.
    pub(crate) done_shards: Vec<u32>,
}

/// Hub state rebuilt from an intact service journal prefix.
#[derive(Debug, Default)]
pub(crate) struct ServiceState {
    /// Byte length of the intact prefix (everything past it is a torn
    /// mid-write tail, truncated by [`ServiceJournal::resume`]).
    pub(crate) intact_len: u64,
    /// Coordinator starts recorded — a resumed run's restart counter.
    pub(crate) starts: usize,
    /// Whether the journal ends in a clean drain (no open campaigns
    /// were abandoned; a fresh start may still follow).
    pub(crate) drained: bool,
    /// First campaign id not yet used.
    pub(crate) next_cid: u64,
    /// Campaigns submitted but not finished, oldest first.
    pub(crate) open: Vec<OpenCampaign>,
    /// Cache evictions journaled across all starts.
    pub(crate) evictions: usize,
    /// Blacklisted workers as `(wid, strikes)`, last strike count per
    /// wid — the resumed hub re-arms each ban with a fresh parole
    /// deadline derived from the strike count.
    pub(crate) bans: Vec<(u64, u32)>,
}

fn verified(obj: &Obj, base: &str) -> bool {
    obj.u64("crc").and_then(|c| u32::try_from(c).ok()) == Some(crc32(base.as_bytes()))
}

fn parse_submit_event(obj: &Obj) -> Option<(u64, CampaignRequest, u64)> {
    let cid = obj.u64("cid")?;
    let req = CampaignRequest::from_obj(obj).ok()?;
    let golden = obj.u64("golden_instret")?;
    Some((cid, req, golden))
}

/// Streams a service journal line-by-line, verifying each record's CRC
/// and event-ordering discipline, and rebuilds the hub state. A torn
/// newline-less final line is tolerated and excluded from `intact_len`;
/// corruption anywhere else is a hard [`NfpError::Journal`] naming the
/// line, so the caller can quarantine the file rather than trust it.
pub(crate) fn load_service_journal(path: &Path) -> Result<ServiceState, NfpError> {
    let mut state = ServiceState::default();
    let mut finished: HashSet<u64> = HashSet::new();
    let header = |line: &str| {
        let ok = parse_flat(line).map(Obj).is_some_and(|obj| {
            obj.str("kind") == Some(SERVICE_KIND) && obj.u64("v") == Some(SERVICE_V)
        });
        ok.then_some(())
            .ok_or_else(|| journal_err(path, "not a service journal (bad or missing header)"))
    };
    let events = |lineno, line: &str| {
        let corrupt = || format!("corrupt record at line {lineno}");
        let obj = Obj(parse_flat(line).ok_or_else(corrupt)?);
        let ev = obj.str("ev").ok_or_else(corrupt)?.to_string();
        if state.drained && ev != "start" {
            return Err(format!(
                "record at line {lineno} appears after a clean drain"
            ));
        }
        // Events that bind a campaign id must name one the journal has
        // seen submitted and not yet finished.
        let live_cid = |cid: Option<u64>| -> Result<u64, String> {
            let cid = cid.ok_or_else(corrupt)?;
            if finished.contains(&cid) {
                return Err(format!(
                    "record at line {lineno} appears after campaign {cid} finished"
                ));
            }
            if !state.open.iter().any(|c| c.cid == cid) {
                return Err(format!(
                    "record at line {lineno} names unknown campaign {cid}"
                ));
            }
            Ok(cid)
        };
        match ev.as_str() {
            "start" => {
                if !verified(&obj, &start_base()) {
                    return Err(corrupt());
                }
                state.starts += 1;
                state.drained = false;
            }
            "submit" => {
                let (cid, req, golden) = parse_submit_event(&obj).ok_or_else(corrupt)?;
                if !verified(&obj, &submit_base(cid, &req, golden)) {
                    return Err(corrupt());
                }
                if finished.contains(&cid) || state.open.iter().any(|c| c.cid == cid) {
                    return Err(format!(
                        "duplicate submit for campaign {cid} at line {lineno}"
                    ));
                }
                state.next_cid = state.next_cid.max(cid + 1);
                state.open.push(OpenCampaign {
                    cid,
                    req,
                    golden_instret: golden,
                    done_shards: Vec::new(),
                });
            }
            "lease" => {
                let (cid, shard, attempt) = (
                    obj.u64("cid"),
                    obj.u64("shard").ok_or_else(corrupt)?,
                    obj.u64("attempt").ok_or_else(corrupt)?,
                );
                let cid = live_cid(cid)?;
                let (shard, attempt) = (
                    u32::try_from(shard).map_err(|_| corrupt())?,
                    u32::try_from(attempt).map_err(|_| corrupt())?,
                );
                if !verified(&obj, &lease_base(cid, shard, attempt)) {
                    return Err(corrupt());
                }
            }
            "return" => {
                let shard = obj.u64("shard").ok_or_else(corrupt)?;
                let ok = obj.bool("ok").ok_or_else(corrupt)?;
                let cid = live_cid(obj.u64("cid"))?;
                let shard = u32::try_from(shard).map_err(|_| corrupt())?;
                if !verified(&obj, &return_base(cid, shard, ok)) {
                    return Err(corrupt());
                }
            }
            "shard" => {
                let shard = obj.u64("shard").ok_or_else(corrupt)?;
                let cid = live_cid(obj.u64("cid"))?;
                let shard = u32::try_from(shard).map_err(|_| corrupt())?;
                if !verified(&obj, &shard_base(cid, shard)) {
                    return Err(corrupt());
                }
                let open = state
                    .open
                    .iter_mut()
                    .find(|c| c.cid == cid)
                    .expect("live_cid checked membership");
                if open.done_shards.contains(&shard) {
                    return Err(format!(
                        "duplicate shard {shard} completion for campaign {cid} at line {lineno}"
                    ));
                }
                open.done_shards.push(shard);
            }
            "fin" => {
                let cid = live_cid(obj.u64("cid"))?;
                if !verified(&obj, &fin_base(cid)) {
                    return Err(corrupt());
                }
                state.open.retain(|c| c.cid != cid);
                finished.insert(cid);
            }
            "evict" => {
                let key = obj.str("key").ok_or_else(corrupt)?;
                let bytes = usize::try_from(obj.u64("bytes").ok_or_else(corrupt)?)
                    .map_err(|_| corrupt())?;
                if !verified(&obj, &evict_base(key, bytes)) {
                    return Err(corrupt());
                }
                state.evictions += 1;
            }
            "audit" => {
                let shard = obj.u64("shard").ok_or_else(corrupt)?;
                let wid = obj.u64("wid").ok_or_else(corrupt)?;
                let verdict = obj.str("verdict").ok_or_else(corrupt)?;
                let cid = live_cid(obj.u64("cid"))?;
                let shard = u32::try_from(shard).map_err(|_| corrupt())?;
                if !verified(&obj, &audit_base(cid, shard, wid, verdict)) {
                    return Err(corrupt());
                }
                if !matches!(verdict, "pass" | "convict" | "inconclusive") {
                    return Err(format!(
                        "record at line {lineno} carries unknown audit verdict '{verdict}'"
                    ));
                }
                // Verdicts are evidence, not state: done/undone shard
                // state is carried by `shard` and `invalidate` events.
            }
            "ban" => {
                let wid = obj.u64("wid").ok_or_else(corrupt)?;
                let strikes = u32::try_from(obj.u64("strikes").ok_or_else(corrupt)?)
                    .map_err(|_| corrupt())?;
                if !verified(&obj, &ban_base(wid, strikes)) {
                    return Err(corrupt());
                }
                state.bans.retain(|&(w, _)| w != wid);
                state.bans.push((wid, strikes));
            }
            "invalidate" => {
                let shard = obj.u64("shard").ok_or_else(corrupt)?;
                let cid = live_cid(obj.u64("cid"))?;
                let shard = u32::try_from(shard).map_err(|_| corrupt())?;
                if !verified(&obj, &invalidate_base(cid, shard)) {
                    return Err(corrupt());
                }
                let open = state
                    .open
                    .iter_mut()
                    .find(|c| c.cid == cid)
                    .expect("live_cid checked membership");
                open.done_shards.retain(|&s| s != shard);
            }
            "drain" => {
                if !verified(&obj, &drain_base()) {
                    return Err(corrupt());
                }
                state.drained = true;
            }
            _ => return Err(corrupt()),
        }
        Ok(())
    };
    let ((), intact_len) = read_journal(path, header, Some(events))?;
    state.intact_len = intact_len;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::evaluation::Mode;
    use crate::journal::quarantined_path;
    use proptest::prelude::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "nfp_servejournal_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    fn request() -> CampaignRequest {
        CampaignRequest {
            client: "unit \"client\"".to_string(),
            kernel: "fse".to_string(),
            mode: Mode::Float,
            campaign: CampaignConfig {
                injections: 40,
                seed: 0xfeed,
                checkpoints: 4,
                wall: Some(Duration::from_millis(120_000)),
                dispatch: nfp_sim::Dispatch::default(),
                escalation: 2,
            },
            shards: 4,
            allow_partial: false,
        }
    }

    fn populated(name: &str) -> PathBuf {
        let path = tmp(name);
        let j = ServiceJournal::create(&path).unwrap();
        j.start().unwrap();
        j.submit(0, &request(), 777).unwrap();
        j.lease(0, 0, 1).unwrap();
        j.lease_return(0, 0, true).unwrap();
        j.shard_done(0, 0).unwrap();
        j.shard_done(0, 1).unwrap();
        path
    }

    #[test]
    fn roundtrip_rebuilds_open_campaigns_and_counters() {
        let path = populated("roundtrip");
        let state = load_service_journal(&path).unwrap();
        assert_eq!(state.starts, 1);
        assert_eq!(state.next_cid, 1);
        assert!(!state.drained);
        assert_eq!(state.open.len(), 1);
        let open = &state.open[0];
        assert_eq!(open.cid, 0);
        assert_eq!(open.golden_instret, 777);
        assert_eq!(open.done_shards, vec![0, 1]);
        assert_eq!(open.req.client, "unit \"client\"");
        assert_eq!(open.req.campaign.seed, 0xfeed);
        assert_eq!(open.req.campaign.wall, Some(Duration::from_millis(120_000)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fin_closes_the_campaign_and_drain_marks_a_clean_end() {
        let path = populated("fin_drain");
        let j = ServiceJournal::resume(&path, std::fs::metadata(&path).unwrap().len()).unwrap();
        j.evict("fse|f32|40", 1234).unwrap();
        j.fin(0).unwrap();
        j.drain().unwrap();
        let state = load_service_journal(&path).unwrap();
        assert!(state.open.is_empty());
        assert!(state.drained);
        assert_eq!(state.evictions, 1);
        assert_eq!(state.next_cid, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated_on_resume() {
        let path = populated("torn");
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"ev\":\"shard\",\"cid\":0,\"sha").unwrap();
        drop(f);
        let state = load_service_journal(&path).unwrap();
        assert_eq!(state.intact_len, intact);
        assert_eq!(state.open[0].done_shards, vec![0, 1]);
        // Resume truncates the tail; appends land on a clean prefix.
        let j = ServiceJournal::resume(&path, state.intact_len).unwrap();
        j.shard_done(0, 2).unwrap();
        let state = load_service_journal(&path).unwrap();
        assert_eq!(state.open[0].done_shards, vec![0, 1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_a_typed_journal_error_naming_the_line() {
        let path = populated("flip");
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip one digit inside the submit record (line 3).
        let flipped = text.replacen("\"injections\":40", "\"injections\":41", 1);
        assert_ne!(text, flipped);
        std::fs::write(&path, flipped).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        match err {
            NfpError::Journal { reason, .. } => {
                assert_eq!(reason, "corrupt record at line 3");
            }
            other => panic!("expected Journal error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_submit_and_unknown_cid_are_rejected() {
        let path = tmp("dup");
        let j = ServiceJournal::create(&path).unwrap();
        j.submit(3, &request(), 1).unwrap();
        j.submit(3, &request(), 1).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(
            err.to_string().contains("duplicate submit for campaign 3"),
            "{err}"
        );
        let j = ServiceJournal::create(&path).unwrap();
        j.lease(9, 0, 1).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(err.to_string().contains("unknown campaign 9"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_after_fin_or_drain_are_rejected() {
        let path = tmp("postfin");
        let j = ServiceJournal::create(&path).unwrap();
        j.submit(0, &request(), 1).unwrap();
        j.fin(0).unwrap();
        j.shard_done(0, 1).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(
            err.to_string().contains("after campaign 0 finished"),
            "{err}"
        );
        let j = ServiceJournal::create(&path).unwrap();
        j.drain().unwrap();
        j.submit(0, &request(), 1).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(err.to_string().contains("after a clean drain"), "{err}");
        // A fresh start after a drain is the one legal continuation.
        let j = ServiceJournal::create(&path).unwrap();
        j.drain().unwrap();
        j.start().unwrap();
        j.submit(0, &request(), 1).unwrap();
        let state = load_service_journal(&path).unwrap();
        assert_eq!(state.open.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_journal_and_wrong_kind_are_typed_errors() {
        let path = tmp("empty");
        std::fs::write(&path, "").unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(err.to_string().contains("journal is empty"), "{err}");
        // v1 is the version whose submit events still carried
        // `dispatch`. A torn header is what a kill inside `create`'s
        // header write leaves.
        for header in [
            "{\"v\":1,\"kind\":\"nfp-campaign-journal\"}\n",
            "{\"v\":1,\"kind\":\"nfp-serve-journal\"}\n",
            "{\"v\":2,\"kind\":\"nfp-se",
        ] {
            std::fs::write(&path, header).unwrap();
            let err = load_service_journal(&path).unwrap_err();
            assert!(err.to_string().contains("not a service journal"), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn audit_events_roundtrip_and_rebuild_bans() {
        let path = populated("audit");
        let j = ServiceJournal::resume(&path, std::fs::metadata(&path).unwrap().len()).unwrap();
        j.audit(0, 0, 41, "pass").unwrap();
        j.audit(0, 1, 97, "inconclusive").unwrap();
        j.audit(0, 1, 97, "convict").unwrap();
        j.ban(97, 1).unwrap();
        j.invalidate(0, 1).unwrap();
        j.ban(97, 2).unwrap();
        let state = load_service_journal(&path).unwrap();
        // Shard 1's completion was invalidated by the conviction; shard
        // 0 stays done. The ban carries the *latest* strike count.
        assert_eq!(state.open[0].done_shards, vec![0]);
        assert_eq!(state.bans, vec![(97, 2)]);
        std::fs::remove_file(&path).unwrap();
    }

    proptest! {
        #[test]
        fn audit_event_lines_roundtrip(
            cid in 0u64..4,
            shard in 0u64..64,
            wid in 0u64..u64::MAX,
            strikes in 1u64..1000,
            verdict in 0u64..3,
        ) {
            let path = tmp(&format!("audit_prop_{cid}_{shard}_{wid}_{strikes}_{verdict}"));
            let j = ServiceJournal::create(&path).unwrap();
            for c in 0..=cid {
                j.submit(c, &request(), 1).unwrap();
            }
            let shard = shard as u32;
            let strikes = strikes as u32;
            let verdict = ["pass", "convict", "inconclusive"][verdict as usize];
            j.shard_done(cid, shard).unwrap();
            j.audit(cid, shard, wid, verdict).unwrap();
            j.ban(wid, strikes).unwrap();
            j.invalidate(cid, shard).unwrap();
            let state = load_service_journal(&path).unwrap();
            let open = state.open.iter().find(|c| c.cid == cid).unwrap();
            prop_assert!(open.done_shards.is_empty(), "invalidate must undo shard_done");
            prop_assert_eq!(&state.bans, &vec![(wid, strikes)]);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn torn_audit_tail_is_tolerated_and_truncated() {
        let path = populated("audit_torn");
        let j = ServiceJournal::resume(&path, std::fs::metadata(&path).unwrap().len()).unwrap();
        j.ban(55, 1).unwrap();
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"ev\":\"audit\",\"cid\":0,\"shard\":2,\"wi").unwrap();
        drop(f);
        let state = load_service_journal(&path).unwrap();
        assert_eq!(state.intact_len, intact);
        assert_eq!(state.bans, vec![(55, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flipped_audit_event_is_typed_and_names_the_line() {
        let path = tmp("audit_flip");
        let j = ServiceJournal::create(&path).unwrap();
        j.submit(0, &request(), 1).unwrap();
        j.audit(0, 2, 19, "convict").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("\"wid\":19", "\"wid\":18", 1);
        assert_ne!(text, flipped);
        std::fs::write(&path, flipped).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        match err {
            NfpError::Journal { reason, .. } => assert_eq!(reason, "corrupt record at line 3"),
            other => panic!("expected Journal error, got {other:?}"),
        }
        // An unknown verdict string is rejected even with a valid CRC.
        let j = ServiceJournal::create(&path).unwrap();
        j.submit(0, &request(), 1).unwrap();
        j.audit(0, 2, 19, "maybe").unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(err.to_string().contains("unknown audit verdict"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn audit_events_after_fin_are_rejected() {
        let path = tmp("audit_postfin");
        let j = ServiceJournal::create(&path).unwrap();
        j.submit(0, &request(), 1).unwrap();
        j.fin(0).unwrap();
        j.audit(0, 0, 7, "pass").unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(
            err.to_string().contains("after campaign 0 finished"),
            "{err}"
        );
        let j = ServiceJournal::create(&path).unwrap();
        j.submit(0, &request(), 1).unwrap();
        j.fin(0).unwrap();
        j.invalidate(0, 0).unwrap();
        let err = load_service_journal(&path).unwrap_err();
        assert!(
            err.to_string().contains("after campaign 0 finished"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_path_and_quarantine_names_derive_from_the_journal() {
        let base = PathBuf::from("/tmp/serve.journal");
        assert_eq!(
            records_path(&base, 7),
            PathBuf::from("/tmp/serve.journal.c7")
        );
        assert_eq!(
            quarantined_path(&base),
            PathBuf::from("/tmp/serve.journal.quarantined")
        );
    }

    /// Lines the service journal rendered before its writer moved onto
    /// the shared line file, kept as literals: journals on disk are made
    /// of these.
    const GOLDEN: [&str; 13] = [
        "{\"v\":2,\"kind\":\"nfp-serve-journal\"}",
        "{\"ev\":\"start\",\"crc\":3102034005}",
        "{\"ev\":\"submit\",\"cid\":3,\"client\":\"unit \\\"client\\\"\",\"kernel\":\"fse\",\"mode\":\"float\",\"injections\":40,\"seed\":65261,\"checkpoints\":4,\"escalation\":2,\"wall_ms\":120000,\"shards\":4,\"allow_partial\":false,\"golden_instret\":777,\"crc\":3782956935}",
        "{\"ev\":\"lease\",\"cid\":3,\"shard\":1,\"attempt\":2,\"crc\":2415546616}",
        "{\"ev\":\"return\",\"cid\":3,\"shard\":1,\"ok\":true,\"crc\":3102662133}",
        "{\"ev\":\"return\",\"cid\":3,\"shard\":2,\"ok\":false,\"crc\":1391228864}",
        "{\"ev\":\"shard\",\"cid\":3,\"shard\":1,\"crc\":525206055}",
        "{\"ev\":\"audit\",\"cid\":3,\"shard\":1,\"wid\":97,\"verdict\":\"convict\",\"crc\":3024160413}",
        "{\"ev\":\"ban\",\"wid\":97,\"strikes\":2,\"crc\":3707492367}",
        "{\"ev\":\"invalidate\",\"cid\":3,\"shard\":1,\"crc\":663721135}",
        "{\"ev\":\"evict\",\"key\":\"fse|float|40\",\"bytes\":1234,\"crc\":2864592672}",
        "{\"ev\":\"fin\",\"cid\":3,\"crc\":4205271608}",
        "{\"ev\":\"drain\",\"crc\":1517092656}",
    ];

    #[test]
    fn service_events_render_byte_for_byte() {
        let path = tmp("golden");
        let j = ServiceJournal::create(&path).unwrap();
        j.start().unwrap();
        j.submit(3, &request(), 777).unwrap();
        j.lease(3, 1, 2).unwrap();
        j.lease_return(3, 1, true).unwrap();
        j.lease_return(3, 2, false).unwrap();
        j.shard_done(3, 1).unwrap();
        j.audit(3, 1, 97, "convict").unwrap();
        j.ban(97, 2).unwrap();
        j.invalidate(3, 1).unwrap();
        j.evict("fse|float|40", 1234).unwrap();
        j.fin(3).unwrap();
        j.drain().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), GOLDEN);
        // And the loader accepts every golden line.
        std::fs::write(&path, GOLDEN.map(|line| format!("{line}\n")).concat()).unwrap();
        let state = load_service_journal(&path).unwrap();
        assert_eq!((state.starts, state.next_cid, state.evictions), (1, 4, 1));
        assert!(state.drained && state.open.is_empty());
        assert_eq!(state.bans, vec![(97, 2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_cut_of_a_service_journal_restores_its_complete_events() {
        let path = tmp("every_cut");
        let j = ServiceJournal::create(&path).unwrap();
        j.start().unwrap();
        j.submit(0, &request(), 777).unwrap();
        j.lease(0, 0, 1).unwrap();
        j.lease_return(0, 0, false).unwrap();
        j.lease(0, 0, 2).unwrap();
        j.lease_return(0, 0, true).unwrap();
        j.shard_done(0, 0).unwrap();
        j.audit(0, 0, 41, "pass").unwrap();
        j.shard_done(0, 1).unwrap();
        j.audit(0, 1, 97, "convict").unwrap();
        j.ban(97, 1).unwrap();
        j.invalidate(0, 1).unwrap();
        j.evict("fse|float|40", 1234).unwrap();
        j.fin(0).unwrap();
        j.drain().unwrap();
        j.start().unwrap();
        j.submit(1, &request(), 777).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        crate::journal::tests::check_every_cut("service", &text, |p| {
            let s = load_service_journal(p)?;
            let restored = (s.starts, s.drained, s.next_cid, s.open, s.evictions, s.bans);
            Ok((s.intact_len, format!("{restored:?}")))
        });
    }
}
