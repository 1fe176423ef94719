//! Fault-tolerant sharded campaigns: split a fault plan into contiguous
//! injection ranges, run each range as an independent supervised
//! sub-campaign with its own journal, and merge the per-shard journals
//! into one report byte-identical to a sequential same-seed run.
//!
//! The safety argument rests on two properties the rest of the crate
//! already guarantees:
//!
//! * **Determinism** — a campaign is a pure function of (kernel, mode,
//!   config). Two executions of the same shard produce byte-identical
//!   records, so a lost shard can be re-executed, and a straggling one
//!   speculatively duplicated with first-valid-result-wins, without any
//!   risk of the winner mattering.
//! * **Cheap verification** — every journal record carries a CRC-32 of
//!   its canonical rendering, every completed journal ends with a
//!   summary record binding the covered range and a plan-order digest,
//!   and every header binds the full campaign identity plus the shard's
//!   slice of the plan. Distrusting a shard therefore costs one
//!   streaming pass over its journal, not a re-simulation.
//!
//! [`run_sharded`] orchestrates: dispatch every shard, quarantine and
//! re-dispatch the ones that fail (capped deterministic backoff, a
//! retry budget per shard), speculatively duplicate stragglers, and
//! finally [`merge_journals`] — which re-validates *everything* and
//! rejects binding mismatches, CRC failures, range gaps/overlaps, and
//! duplicate records with typed [`NfpError`]s. With
//! [`ShardConfig::allow_partial`] a shard that exhausts its budget
//! degrades the report to explicit missing ranges instead of failing
//! the campaign.

use crate::backoff::backoff_sleep;
use crate::campaign::{assemble, CampaignConfig, CampaignResult, CampaignRig, InjectionRecord};
use crate::evaluation::Mode;
use crate::journal::{journal_err, load_journal, quarantine, read_journal, JournalHeader};
use crate::supervisor::{run_supervised, SupervisorConfig, SupervisorOutcome};
use nfp_core::NfpError;
use nfp_sim::fault::plan;
use nfp_workloads::Kernel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One shard's identity: which contiguous slice of the plan it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index, `0..count`.
    pub index: u32,
    /// Total shard count of the campaign.
    pub count: u32,
}

impl ShardSpec {
    /// This shard's injection range under the deterministic balanced
    /// split of an `injections`-entry plan.
    pub fn range(self, injections: usize) -> (usize, usize) {
        shard_range(injections, self.index, self.count)
    }
}

/// The deterministic balanced split: shard `index` of `count` owns
/// `[injections·index/count, injections·(index+1)/count)`. Contiguous,
/// disjoint, exhaustive, and sizes differ by at most one — every party
/// (supervisor, worker, merge) recomputes the same split, which is what
/// lets the merge treat a journal's claimed range as a checkable fact
/// rather than a trusted input.
pub(crate) fn shard_range(injections: usize, index: u32, count: u32) -> (usize, usize) {
    let count = u128::from(count.max(1));
    let i = u128::from(index).min(count - 1);
    let n = injections as u128;
    ((n * i / count) as usize, (n * (i + 1) / count) as usize)
}

/// Empties every filled slot in `range`, returning how many were
/// dropped. The distrust path of the audit tier: records produced by a
/// convicted worker leave the in-memory plan (and, rewritten, its
/// records file) before the range is re-dispatched.
pub(crate) fn clear_range<T>(slots: &mut [Option<T>], range: (usize, usize)) -> usize {
    slots[range.0..range.1]
        .iter_mut()
        .filter_map(Option::take)
        .count()
}

/// Parameters for a sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Template for each shard's supervisor. [`SupervisorConfig::journal`]
    /// is the *base* path shard journal names derive from (required);
    /// [`SupervisorConfig::shard`] must be `None` (the orchestrator owns
    /// shard assignment); `resume` is likewise managed per attempt.
    pub supervisor: SupervisorConfig,
    /// Number of shards to split the plan into.
    pub shards: u32,
    /// Re-dispatch budget per shard: how many failed or interrupted
    /// attempts a shard may burn before it is lost. Lost shards fail
    /// the campaign ([`NfpError::ShardLost`]) unless
    /// [`ShardConfig::allow_partial`] is set.
    pub shard_retries: u32,
    /// Straggler deadline: a shard still running past this gets one
    /// speculative duplicate dispatched to a separate journal, and the
    /// first valid result wins. Safe by construction — determinism
    /// makes duplicates byte-equal. `None` disables speculation.
    pub straggler: Option<Duration>,
    /// Degrade to a partial report with explicit missing ranges instead
    /// of failing the campaign when a shard exhausts its retry budget.
    pub allow_partial: bool,
    /// Test hook: `(shard, after_writes, first_attempts)` — attempts
    /// numbered below `first_attempts` of this shard stop accepting
    /// results after `after_writes` journal writes, exactly as if the
    /// shard process had been SIGKILLed with a valid journal on disk.
    #[doc(hidden)]
    pub test_abort_shard: Option<(u32, usize, u32)>,
    /// Test hook: the first attempt of this shard sleeps this long
    /// before starting work, so a short [`ShardConfig::straggler`]
    /// deadline reliably triggers speculation.
    #[doc(hidden)]
    pub test_stall_shard: Option<(u32, Duration)>,
}

impl ShardConfig {
    /// A sharded campaign over `supervisor`'s campaign with default
    /// robustness knobs: two re-dispatches per shard, no speculation,
    /// no partial degradation.
    pub fn new(supervisor: SupervisorConfig, shards: u32) -> Self {
        ShardConfig {
            supervisor,
            shards,
            shard_retries: 2,
            straggler: None,
            allow_partial: false,
            test_abort_shard: None,
            test_stall_shard: None,
        }
    }
}

/// What a sharded campaign produced.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The merged campaign result — byte-identical to a sequential
    /// same-seed run when no ranges are missing.
    pub result: CampaignResult,
    /// Shard count the campaign ran with.
    pub shards: u32,
    /// Worker processes SIGKILLed across all shard attempts.
    pub kills: usize,
    /// Worker processes respawned across all shard attempts.
    pub respawns: usize,
    /// Shard attempts that failed or were interrupted and were
    /// re-dispatched (or written off).
    pub shard_retries: usize,
    /// Straggling shards speculatively duplicated.
    pub speculated: usize,
    /// Injection ranges absent from the merged result (only ever
    /// non-empty with [`ShardConfig::allow_partial`]).
    pub missing_ranges: Vec<(u64, u64)>,
    /// Simulator dispatch counters from the merge's golden run.
    pub dispatch: nfp_sim::DispatchStats,
}

/// What [`merge_journals`] produced.
#[derive(Debug)]
pub struct MergeOutcome {
    /// The merged campaign result.
    pub result: CampaignResult,
    /// Shard count the journal set declared.
    pub shards: u32,
    /// Uncovered injection ranges (only ever non-empty when merging
    /// with `allow_partial`).
    pub missing_ranges: Vec<(u64, u64)>,
    /// Simulator dispatch counters from the merge's golden run.
    pub dispatch: nfp_sim::DispatchStats,
}

/// The canonical journal path for shard `index` of `count` derived from
/// the base path: `c.jsonl` → `c.shard2of4.jsonl`.
pub fn shard_journal_path(base: &Path, index: u32, count: u32) -> PathBuf {
    base.with_extension(format!("shard{index}of{count}.jsonl"))
}

/// The journal path a speculative duplicate of shard `index` writes to
/// (first valid result wins; both paths must exist simultaneously).
fn spec_journal_path(base: &Path, index: u32, count: u32) -> PathBuf {
    base.with_extension(format!("shard{index}of{count}.spec.jsonl"))
}

/// Per-shard orchestration state.
struct ShardState {
    /// Journal path of the first valid completed attempt.
    done: Option<PathBuf>,
    /// Set when the retry budget is exhausted under `allow_partial`.
    lost: bool,
    /// Failed or interrupted attempts charged against the budget.
    retries: u32,
    /// Total attempts dispatched (backoff ordinal and hook gate).
    attempts: u32,
    /// Attempts currently in flight (canonical plus speculative).
    in_flight: usize,
    /// Whether a speculative duplicate has been dispatched.
    speculated: bool,
    /// When the most recent attempt was dispatched.
    started: Instant,
}

/// Runs a campaign as `cfg.shards` independent supervised sub-campaigns
/// and merges their journals. Shards whose canonical journals already
/// exist are resumed (a complete journal short-circuits immediately),
/// so re-running the orchestrator after a crash — or after chaos —
/// repairs the campaign instead of redoing it.
pub fn run_sharded(
    kernel: &Kernel,
    mode: Mode,
    cfg: &ShardConfig,
) -> Result<ShardOutcome, NfpError> {
    let Some(base) = cfg.supervisor.journal.clone() else {
        return Err(NfpError::Journal {
            path: "(none)".to_string(),
            reason: "a sharded campaign needs a journal base path".to_string(),
        });
    };
    if cfg.shards == 0 {
        return Err(NfpError::Workload {
            what: "shard orchestrator".to_string(),
            reason: "shard count must be nonzero".to_string(),
        });
    }
    if cfg.supervisor.shard.is_some() {
        return Err(NfpError::Workload {
            what: "shard orchestrator".to_string(),
            reason: "the supervisor template must not pin a shard; the orchestrator assigns them"
                .to_string(),
        });
    }
    let campaign = &cfg.supervisor.campaign;
    let injections = campaign.injections;
    let seed = campaign.seed;

    let (tx, rx) = mpsc::channel::<(u32, PathBuf, Result<SupervisorOutcome, NfpError>)>();
    let done_flags: Vec<Arc<AtomicBool>> = (0..cfg.shards)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();

    // Attempts run on detached threads so a genuinely wedged shard can
    // never hang the orchestrator: losers of a speculation race (and
    // attempts outlasting an error return) die quietly when their send
    // fails or their done flag short-circuits them.
    let dispatch = |shard: u32, journal: PathBuf, resume: bool, attempt: u32| {
        let kernel = kernel.clone();
        let tx = tx.clone();
        let done = Arc::clone(&done_flags[shard as usize]);
        let mut sup = cfg.supervisor.clone();
        sup.journal = Some(journal.clone());
        sup.resume = resume;
        sup.shard = Some(ShardSpec {
            index: shard,
            count: cfg.shards,
        });
        sup.test_abort_after = match cfg.test_abort_shard {
            Some((s, after, first)) if s == shard && attempt < first => Some(after),
            _ => None,
        };
        let stall = match cfg.test_stall_shard {
            Some((s, d)) if s == shard && attempt == 0 => Some(d),
            _ => None,
        };
        std::thread::spawn(move || {
            if let Some(d) = stall {
                std::thread::sleep(d);
            }
            if attempt > 0 {
                // Deterministically jittered, capped — shard index
                // doubles as the slot so crash-looping shards do not
                // re-dispatch in lockstep.
                backoff_sleep(seed, shard as usize, attempt, &AtomicBool::new(false));
            }
            if done.load(Ordering::Relaxed) {
                return;
            }
            let outcome = run_supervised(&kernel, mode, &sup);
            let _ = tx.send((shard, journal, outcome));
        });
    };

    let mut states: Vec<ShardState> = (0..cfg.shards)
        .map(|shard| {
            let path = shard_journal_path(&base, shard, cfg.shards);
            // An existing canonical journal is resumed: complete ones
            // short-circuit inside the supervisor, torn ones continue
            // from their intact prefix, corrupt ones fail the attempt
            // and flow through quarantine + fresh re-dispatch below.
            let resume = path.exists();
            dispatch(shard, path, resume, 0);
            ShardState {
                done: None,
                lost: false,
                retries: 0,
                attempts: 1,
                in_flight: 1,
                speculated: false,
                started: Instant::now(),
            }
        })
        .collect();

    let mut kills = 0usize;
    let mut respawns = 0usize;
    let mut total_retries = 0usize;
    let mut speculated = 0usize;

    while states.iter().any(|s| s.done.is_none() && !s.lost) {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok((shard, path, result)) => {
                let idx = shard as usize;
                states[idx].in_flight = states[idx].in_flight.saturating_sub(1);
                if states[idx].done.is_some() || states[idx].lost {
                    continue; // late loser of a speculation race
                }
                // A failed or interrupted attempt burns a retry, then
                // either loses the shard or re-dispatches it: an
                // interrupted one resumes its journal, a failed one
                // starts a fresh journal at the canonical path.
                let (resume, detail) = match result {
                    Ok(o) => {
                        kills += o.kills;
                        respawns += o.respawns;
                        if !o.aborted {
                            states[idx].done = Some(path);
                            done_flags[idx].store(true, Ordering::Relaxed);
                            continue;
                        }
                        // Interrupted mid-run with a valid journal on
                        // disk (the simulated-SIGKILL hook).
                        (true, "interrupted on every attempt".to_string())
                    }
                    Err(e) => {
                        // A lost/torn/corrupt attempt: move the journal
                        // aside (evidence, and a clean path for the
                        // fresh attempt).
                        let aside = quarantine(&path).map_or_else(
                            |q| q.to_string(),
                            |q| format!("journal quarantined to {}", q.display()),
                        );
                        eprintln!("shards: shard {shard} attempt failed ({e}); {aside}");
                        (false, e.to_string())
                    }
                };
                if states[idx].in_flight > 0 {
                    continue; // a duplicate attempt is still going
                }
                states[idx].retries += 1;
                total_retries += 1;
                if states[idx].retries > cfg.shard_retries {
                    let (start, end) = shard_range(injections, shard, cfg.shards);
                    let lost = NfpError::ShardLost {
                        shard,
                        start: start as u64,
                        end: end as u64,
                        detail,
                    };
                    if !cfg.allow_partial {
                        return Err(lost);
                    }
                    eprintln!("shards: {lost}; continuing under --allow-partial");
                    states[idx].lost = true;
                    continue;
                }
                let journal = if resume {
                    eprintln!(
                        "shards: shard {shard} interrupted; re-dispatching with resume \
                         (retry {} of {})",
                        states[idx].retries, cfg.shard_retries
                    );
                    path
                } else {
                    shard_journal_path(&base, shard, cfg.shards)
                };
                dispatch(shard, journal, resume, states[idx].attempts);
                states[idx].attempts += 1;
                states[idx].in_flight += 1;
                states[idx].started = Instant::now();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // unreachable: tx lives here
        }
        if let Some(limit) = cfg.straggler {
            for shard in 0..cfg.shards {
                let s = &mut states[shard as usize];
                if s.done.is_none()
                    && !s.lost
                    && !s.speculated
                    && s.in_flight > 0
                    && s.started.elapsed() >= limit
                {
                    s.speculated = true;
                    speculated += 1;
                    let spec = spec_journal_path(&base, shard, cfg.shards);
                    let _ = std::fs::remove_file(&spec);
                    eprintln!(
                        "shards: shard {shard} straggling past {}ms; speculative duplicate \
                         dispatched (first valid result wins)",
                        limit.as_millis()
                    );
                    let attempt = s.attempts;
                    dispatch(shard, spec, false, attempt);
                    s.attempts += 1;
                    s.in_flight += 1;
                }
            }
        }
    }

    let paths: Vec<PathBuf> = states.iter().filter_map(|s| s.done.clone()).collect();
    let merged = merge_journals(kernel, mode, campaign, &paths, cfg.allow_partial)?;
    Ok(ShardOutcome {
        result: merged.result,
        shards: cfg.shards,
        kills,
        respawns,
        shard_retries: total_retries,
        speculated,
        missing_ranges: merged.missing_ranges,
        dispatch: merged.dispatch,
    })
}

/// Reads a journal's first line and returns the campaign identity it
/// claims: kernel name, mode, and the reconstructed [`CampaignConfig`]
/// (under traced dispatch, which no journal records).
/// The claim is *not* trusted — [`merge_journals`] re-derives the
/// golden run and cross-checks every binding field — but it lets the
/// CLI merge a journal set without re-stating the campaign flags.
pub fn peek_campaign(path: &Path) -> Result<(String, Mode, CampaignConfig), NfpError> {
    let id = claimed_header(path)?.id;
    let campaign = id.config();
    Ok((id.kernel, id.mode, campaign))
}

/// The header a journal *claims*, read without validating it against
/// any campaign. Every error is a [`NfpError::ShardMerge`].
fn claimed_header(path: &Path) -> Result<JournalHeader, NfpError> {
    let parse = |line: &str| JournalHeader::parse(line).map_err(|reason| journal_err(path, reason));
    let header_only = None::<fn(usize, &str) -> Result<(), String>>;
    let (claimed, _) = read_journal(path, parse, header_only).map_err(as_merge_error)?;
    Ok(claimed)
}

/// A journal error, reported as the merge's.
fn as_merge_error(e: NfpError) -> NfpError {
    match e {
        NfpError::Journal { path, reason } => NfpError::ShardMerge { path, reason },
        other => other,
    }
}

/// Coalesces the `None` runs of a slot table into `(start, end)` ranges.
pub(crate) fn missing_ranges_of(slots: &[Option<(InjectionRecord, u32)>]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        if slot.is_some() {
            continue;
        }
        match out.last_mut() {
            Some((_, end)) if *end == i as u64 => *end += 1,
            _ => out.push((i as u64, i as u64 + 1)),
        }
    }
    out
}

fn render_ranges(ranges: &[(u64, u64)]) -> String {
    ranges
        .iter()
        .map(|(s, e)| format!("{s}..{e}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Merges per-shard journals into one campaign result after a full
/// integrity pass: every header is cross-checked against the campaign
/// and the deterministic split its claimed shard identity implies,
/// every record's CRC and fault-plan binding is re-verified, shard
/// summaries (count, range, plan-order digest) are recomputed, and the
/// union of ranges is checked for gaps, overlaps, and duplicates.
/// Any violation is a typed [`NfpError`] naming the offending journal —
/// never a panic, never silent acceptance.
pub fn merge_journals(
    kernel: &Kernel,
    mode: Mode,
    campaign: &CampaignConfig,
    paths: &[PathBuf],
    allow_partial: bool,
) -> Result<MergeOutcome, NfpError> {
    let (rig, space) = CampaignRig::prepare(kernel, mode, campaign)?;
    let faults = plan(&space, campaign.injections, campaign.seed);
    let mut slots: Vec<Option<(InjectionRecord, u32)>> = vec![None; faults.len()];
    let mut shard_count: Option<u32> = None;
    let mut seen: Vec<Option<PathBuf>> = Vec::new();

    for path in paths {
        let shown = path.display().to_string();
        let merge_err = |reason: String| NfpError::ShardMerge {
            path: shown.clone(),
            reason,
        };
        let claimed = claimed_header(path)?;
        if claimed.shard_count == 0 || claimed.shard_index >= claimed.shard_count {
            return Err(merge_err(format!(
                "header claims shard {} of {}",
                claimed.shard_index, claimed.shard_count
            )));
        }
        match shard_count {
            None => {
                shard_count = Some(claimed.shard_count);
                seen = vec![None; claimed.shard_count as usize];
            }
            Some(n) if n != claimed.shard_count => {
                return Err(merge_err(format!(
                    "shard count disagreement: this journal says {}, earlier journals said {n}",
                    claimed.shard_count
                )));
            }
            Some(_) => {}
        }
        if let Some(prev) = &seen[claimed.shard_index as usize] {
            return Err(merge_err(format!(
                "duplicate shard {}: its range was already merged from '{}'",
                claimed.shard_index,
                prev.display()
            )));
        }
        seen[claimed.shard_index as usize] = Some(path.clone());

        // The expected header is *recomputed* from the campaign and the
        // claimed shard identity — so a tampered range, seed, or any
        // other binding field fails the loader's header check with the
        // field named.
        let expected = JournalHeader::bind(
            kernel,
            mode,
            campaign,
            rig.golden_instret,
            Some(ShardSpec {
                index: claimed.shard_index,
                count: claimed.shard_count,
            }),
        );

        // Stream the records into the shared slot table. The loader
        // verifies per-record CRCs, fault-plan agreement, in-range
        // indices, duplicates, and the shard summary's count/digest.
        let loaded = load_journal(path, &expected, &faults, &mut slots).map_err(as_merge_error)?;
        if loaded.fin.is_none() && !allow_partial {
            return Err(merge_err(
                "journal lacks its shard summary record — the shard never completed \
                 (re-run it, or merge with --allow-partial)"
                    .to_string(),
            ));
        }
    }

    let missing = missing_ranges_of(&slots);
    if !missing.is_empty() && !allow_partial {
        return Err(NfpError::ShardMerge {
            path: "(journal set)".to_string(),
            reason: format!(
                "range gap: injections {} are covered by no journal",
                render_ranges(&missing)
            ),
        });
    }
    let records: Vec<InjectionRecord> = slots.into_iter().flatten().map(|(r, _)| r).collect();
    Ok(MergeOutcome {
        dispatch: rig.machine.dispatch_stats(),
        result: assemble(kernel, mode, &rig, records),
        shards: shard_count.unwrap_or(0),
        missing_ranges: missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::quarantined_path;

    #[test]
    fn split_is_contiguous_disjoint_and_exhaustive() {
        for injections in [0usize, 1, 7, 100, 101, 1000] {
            for count in [1u32, 2, 3, 4, 7, 16] {
                let mut next = 0usize;
                for index in 0..count {
                    let (start, end) = shard_range(injections, index, count);
                    assert_eq!(start, next, "{injections} over {count}, shard {index}");
                    assert!(end >= start);
                    next = end;
                }
                assert_eq!(next, injections, "{injections} over {count}");
            }
        }
    }

    #[test]
    fn split_is_balanced() {
        for count in [3u32, 4, 7] {
            let sizes: Vec<usize> = (0..count)
                .map(|i| {
                    let (s, e) = shard_range(100, i, count);
                    e - s
                })
                .collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn degenerate_specs_are_clamped() {
        // count 0 behaves as 1; an out-of-range index owns the tail.
        assert_eq!(shard_range(10, 0, 0), (0, 10));
        assert_eq!(shard_range(10, 9, 4), (7, 10));
    }

    #[test]
    fn journal_paths_are_derived_from_the_base() {
        let base = PathBuf::from("/tmp/c.jsonl");
        assert_eq!(
            shard_journal_path(&base, 2, 4),
            PathBuf::from("/tmp/c.shard2of4.jsonl")
        );
        assert_eq!(
            spec_journal_path(&base, 2, 4),
            PathBuf::from("/tmp/c.shard2of4.spec.jsonl")
        );
        assert_eq!(
            quarantined_path(&shard_journal_path(&base, 2, 4)),
            PathBuf::from("/tmp/c.shard2of4.jsonl.quarantined")
        );
    }

    #[test]
    fn missing_ranges_coalesce() {
        let rec = || {
            Some((
                InjectionRecord {
                    fault: nfp_sim::Fault {
                        at: 0,
                        target: nfp_sim::FaultTarget::Icc { bit: 0 },
                    },
                    category: None,
                    outcome: nfp_core::Outcome::Masked,
                },
                1,
            ))
        };
        let slots = vec![None, None, rec(), None, rec(), None, None];
        assert_eq!(missing_ranges_of(&slots), vec![(0, 2), (3, 4), (5, 7)]);
        assert_eq!(render_ranges(&[(0, 2), (5, 7)]), "0..2, 5..7");
        assert!(missing_ranges_of(&[rec(), rec()]).is_empty());
    }
}
