//! The shard book: the one owner of every per-shard decision a sharded
//! campaign makes — retries and their backoff deadline, loss versus a
//! partial report, straggler speculation, and the audit tier's sampling,
//! holding, agreement and convictions (DESIGN.md §12, §14, §16).
//!
//! Both runners drive it: the TCP coordinator (`serve`) and the
//! in-process sharded runner (`shards`). Their shells feed it
//! [`Event`]s, each stamped with the current instant as a [`Duration`]
//! since the shell's epoch, and carry out the [`Action`]s that come back,
//! in order. Every attempt of either runner, a remote lease or a local
//! supervised run, returns its range's checked records
//! ([`LeaseRecords`]), which the book holds for a second opinion,
//! compares, and accepts into the shell's report. The book reads no
//! clock, does no I/O and prints nothing, so a seeded test drives it
//! through thousands of schedules.

use crate::backoff::{backoff_delay, splitmix64};
use crate::journal::LeaseRecords;
use crate::shards::shard_range;
use nfp_core::NfpError;
use std::time::Duration;

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

/// The policy knobs of one campaign.
#[derive(Debug, Clone)]
pub(crate) struct Policy {
    /// Keys the backoff jitter and the audit sampler.
    pub seed: u64,
    /// Plan length, for the range a lost shard names.
    pub injections: usize,
    /// Re-dispatch budget per shard.
    pub retries: u32,
    /// Straggler deadline; `None` disables speculation.
    pub straggler: Option<Duration>,
    /// Lose a shard into a partial report instead of failing.
    pub allow_partial: bool,
    /// Fraction of shards audited; `0` disables the audit tier.
    pub audit_rate: f64,
    /// How long a held stream waits for a second opinion nobody has
    /// claimed before the trusted pool arbitrates.
    pub patience: Duration,
}

/// What a shell tells the book about attempt `attempt` of `shard`.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// The attempt started; its straggler clock runs from here.
    Leased { shard: u32, attempt: u32 },
    /// The attempt returned a validated stream. `wid` names its producer
    /// (0: unattributable); `banned` is the shell's blacklist on it.
    Returned {
        shard: u32,
        attempt: u32,
        wid: u64,
        banned: bool,
        stream: LeaseRecords,
    },
    /// The attempt failed; `detail` names the loss if it was the last.
    Failed {
        shard: u32,
        attempt: u32,
        detail: String,
    },
    /// Time passed. `stranded`: no peer was live past the grace period,
    /// so every open shard runs on the trusted pool.
    Tick { stranded: bool },
    /// The trusted pool re-executed `shard`.
    Arbitrated {
        shard: u32,
        truth: Result<LeaseRecords, NfpError>,
    },
}

/// Why the book dispatches an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Why {
    /// A first attempt, a retry, or the re-run of an invalidated range.
    Fresh,
    /// The second opinion on a held stream.
    Audit,
    /// A speculative duplicate of a straggler.
    Speculate,
}

/// What the book tells a shell to do.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Start attempt `attempt` of `shard`; worker `exclude` must not
    /// take it.
    Dispatch {
        shard: u32,
        attempt: u32,
        exclude: Option<u64>,
        why: Why,
    },
    /// `stream` is the shard's result, attributed to `producer` (`None`:
    /// the trusted pool, or no identity).
    Accept {
        shard: u32,
        producer: Option<u64>,
        stream: LeaseRecords,
    },
    /// Withdraw every attempt of `shard` that has not started.
    Cancel { shard: u32 },
    /// Re-execute `shard` on the trusted pool and answer with
    /// [`Event::Arbitrated`].
    Arbitrate { shard: u32 },
    /// Journal the audit verdict (`pass`, `convict` or `inconclusive`)
    /// on worker `wid`'s stream for `shard`.
    Verdict {
        shard: u32,
        wid: u64,
        verdict: &'static str,
    },
    /// Blacklist `wid`: convicted over `shard`, or back from parole
    /// with more of its records.
    Ban { shard: u32, wid: u64 },
    /// Distrust `shard`'s records (produced by convict `wid`): clear
    /// them before the range runs again.
    Invalidate { shard: u32, wid: u64 },
    /// A shard is lost; the report will miss its range.
    Lose(NfpError),
    /// The campaign failed.
    Fail(NfpError),
}

/// Monotonic tallies of one campaign, for its footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Failed or interrupted attempts charged against a budget.
    pub redispatched: usize,
    /// Straggling shards speculatively duplicated.
    pub speculated: usize,
    /// Shards whose first stream was held for a second opinion.
    pub audited: usize,
    /// Streams that agreed with a second opinion or the local truth.
    pub passed: usize,
    /// Streams that contradicted the local truth.
    pub convicted: usize,
    /// Accepted ranges distrusted after their producer's conviction.
    pub invalidated: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Open,
    Arbitrating,
    Done,
    Lost,
}

/// One shard's lifecycle.
#[derive(Default)]
struct Shard {
    phase: Phase,
    /// Failed attempts charged against the budget (fresh after an
    /// invalidation).
    retries: u32,
    attempts: u32,
    /// Attempts neither withdrawn nor answered, with the instant each
    /// started (`None` while it waits for a taker).
    live: Vec<(u32, Option<Duration>)>,
    speculated: bool,
    /// Backoff deadline of the next retry.
    retry_at: Option<Duration>,
    /// Worker whose records fill the range once it is done.
    producer: Option<u64>,
    sampled: bool,
    /// Streams held back for a second opinion, with their producers.
    held: Vec<(u64, LeaseRecords)>,
    /// When the first held stream arrived.
    since: Duration,
}

/// The per-shard scheduler of one campaign; see the module docs.
pub(crate) struct ShardBook {
    policy: Policy,
    shards: Vec<Shard>,
    /// Workers this book convicted: nothing they return is accepted,
    /// whatever their parole.
    convicted: Vec<u64>,
    /// Set once the shell reported no live peer.
    local_only: bool,
    failed: bool,
    tally: Tally,
    out: Vec<Action>,
}

impl ShardBook {
    /// A book over `done.len()` shards, `done[i]` marking shards already
    /// complete (restored from disk), and its first dispatches.
    pub(crate) fn open(policy: Policy, done: &[bool]) -> (Self, Vec<Action>) {
        let shards = done
            .iter()
            .zip(0..)
            .map(|(&done, i)| Shard {
                phase: if done { Phase::Done } else { Phase::Open },
                sampled: audit_sampled(policy.seed, i, policy.audit_rate),
                ..Shard::default()
            })
            .collect();
        let mut book = ShardBook {
            policy,
            shards,
            convicted: Vec::new(),
            local_only: false,
            failed: false,
            tally: Tally::default(),
            out: Vec::new(),
        };
        for shard in 0..book.count() {
            if !book.settled(shard) {
                book.dispatch(shard, Why::Fresh);
            }
        }
        let first = std::mem::take(&mut book.out);
        (book, first)
    }

    /// Whether every shard is done or lost, or the campaign failed.
    pub(crate) fn finished(&self) -> bool {
        self.failed || self.pending() == 0
    }

    /// Shards neither done nor lost.
    pub(crate) fn pending(&self) -> usize {
        (0..self.count()).filter(|&s| !self.settled(s)).count()
    }

    /// Whether `shard` is done or lost.
    pub(crate) fn settled(&self, shard: u32) -> bool {
        matches!(self.shards[shard as usize].phase, Phase::Done | Phase::Lost)
    }

    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// Takes in one event at instant `now`; returns the actions to run.
    pub(crate) fn on(&mut self, now: Duration, event: Event) -> Vec<Action> {
        match event {
            _ if self.failed => {}
            Event::Leased { shard, attempt } => {
                let live = &mut self.shards[shard as usize].live;
                if let Some((_, at)) = live.iter_mut().find(|(n, _)| *n == attempt) {
                    at.get_or_insert(now);
                }
            }
            Event::Returned {
                shard,
                attempt,
                wid,
                banned,
                stream,
            } => self.returned(now, shard, attempt, (wid, banned), stream),
            Event::Failed {
                shard,
                attempt,
                detail,
            } => self.failed(now, shard, attempt, detail),
            Event::Tick { stranded } => self.tick(now, stranded),
            Event::Arbitrated { shard, truth } => self.arbitrated(shard, truth),
        }
        std::mem::take(&mut self.out)
    }

    fn count(&self) -> u32 {
        self.shards.len() as u32
    }

    fn returned(
        &mut self,
        now: Duration,
        shard: u32,
        attempt: u32,
        by: (u64, bool),
        stream: LeaseRecords,
    ) {
        let (wid, banned) = by;
        let convict = wid != 0 && self.convicted.contains(&wid);
        let t = &mut self.shards[shard as usize];
        t.live.retain(|(n, _)| *n != attempt);
        if t.phase != Phase::Open {
            return; // a late duplicate: the first valid result won
        }
        if convict || (wid != 0 && banned) {
            // Nothing a blacklisted worker returns is accepted; the
            // range goes out again without charging the budget.
            if t.live.is_empty() {
                t.retry_at = Some(now);
            }
            if convict && !banned {
                // A convict back from parole stays distrusted for the
                // whole campaign, and its parole starts over.
                self.out.push(Action::Ban { shard, wid });
            }
            return;
        }
        let producer = (wid != 0).then_some(wid);
        if !t.sampled {
            return self.accept(shard, producer, stream);
        }
        match t.held.first() {
            None => {
                t.held.push((wid, stream));
                t.since = now;
                self.tally.audited += 1;
                self.dispatch(shard, Why::Audit);
            }
            // The producer answered again (a duplicate it took before
            // the hold): agreement with itself is no second opinion.
            Some(&(first, _)) if producer == Some(first) => {}
            Some(_) => {
                let (w1, first) = t.held.remove(0);
                if streams_match(&first, &stream) {
                    self.tally.passed += 1;
                    self.verdict(shard, w1, "pass");
                    self.accept(shard, (w1 != 0).then_some(w1), first);
                } else {
                    t.held = vec![(w1, first), (wid, stream)];
                    self.arbitrate(shard);
                }
            }
        }
    }

    fn failed(&mut self, now: Duration, shard: u32, attempt: u32, detail: String) {
        let t = &mut self.shards[shard as usize];
        let Some(k) = t.live.iter().position(|(n, _)| *n == attempt) else {
            return; // a withdrawn attempt
        };
        t.live.remove(k);
        if t.phase != Phase::Open || !t.live.is_empty() {
            return; // settled, or a duplicate is still going
        }
        t.retries += 1;
        self.tally.redispatched += 1;
        if t.retries <= self.policy.retries {
            t.retry_at = Some(now + backoff_delay(self.policy.seed, shard as usize, t.retries));
        } else if let Some(&(wid, _)) = t.held.first() {
            // The audit re-dispatch burned the budget without producing
            // a second opinion: the trusted pool decides.
            self.verdict(shard, wid, "inconclusive");
            self.arbitrate(shard);
        } else {
            let (start, end) = shard_range(self.policy.injections, shard, self.count());
            let (start, end) = (start as u64, end as u64);
            let lost = NfpError::ShardLost {
                shard,
                start,
                end,
                detail,
            };
            self.lose(shard, lost);
        }
    }

    /// Re-dispatches expired backoffs, arbitrates held streams whose
    /// patience ran out, speculates on stragglers and — stranded — sends
    /// every open shard to the trusted pool, in that order.
    fn tick(&mut self, now: Duration, stranded: bool) {
        self.local_only |= stranded;
        for shard in 0..self.count() {
            let t = &self.shards[shard as usize];
            if t.phase == Phase::Open && t.live.is_empty() && t.retry_at.is_some_and(|at| now >= at)
            {
                self.dispatch(shard, Why::Fresh);
            }
            // A held stream whose second opinion nobody is working on
            // falls to the trusted pool once patience runs out — else a
            // fleet whose only live peer is the producer waits forever.
            let t = &self.shards[shard as usize];
            let working = t.live.iter().any(|(_, at)| at.is_some());
            let stale = now.saturating_sub(t.since) > self.policy.patience;
            if t.phase == Phase::Open && !working && !t.held.is_empty() && stale {
                self.verdict(shard, t.held[0].0, "inconclusive");
                self.arbitrate(shard);
            }
            // Duplicate an attempt that has run too long: determinism
            // makes first-valid-wins safe.
            let t = &mut self.shards[shard as usize];
            let straggling = |limit| {
                t.live
                    .iter()
                    .any(|(_, at)| at.is_some_and(|at| now.saturating_sub(at) > limit))
            };
            if t.phase == Phase::Open
                && !t.speculated
                && self.policy.straggler.is_some_and(straggling)
            {
                t.speculated = true;
                self.tally.speculated += 1;
                self.dispatch(shard, Why::Speculate);
            }
            if stranded && self.shards[shard as usize].phase == Phase::Open {
                if let Some(&(wid, _)) = self.shards[shard as usize].held.first() {
                    self.verdict(shard, wid, "inconclusive");
                }
                self.arbitrate(shard);
            }
        }
    }

    fn arbitrated(&mut self, shard: u32, truth: Result<LeaseRecords, NfpError>) {
        let t = &mut self.shards[shard as usize];
        if t.phase != Phase::Arbitrating {
            return;
        }
        let held = std::mem::take(&mut t.held);
        let truth = match truth {
            Ok(truth) => truth,
            Err(e) => return self.lose(shard, e),
        };
        let mut again = Vec::new();
        for (wid, stream) in held {
            if streams_match(&stream, &truth) {
                self.tally.passed += 1;
                self.verdict(shard, wid, "pass");
            } else {
                self.tally.convicted += 1;
                self.verdict(shard, wid, "convict");
                if wid != 0 {
                    again.extend(self.convict(shard, wid));
                }
            }
        }
        self.accept(shard, None, truth);
        for other in again {
            if self.local_only {
                self.arbitrate(other);
            } else {
                self.cancel(other);
                self.dispatch(other, Why::Fresh);
            }
        }
    }

    /// Bans `wid`; returns the ranges that start over once the convicting
    /// shard is done: every other range it produced, reopened, and every
    /// open range whose held stream was its.
    fn convict(&mut self, shard: u32, wid: u64) -> Vec<u32> {
        self.convicted.push(wid);
        self.out.push(Action::Ban { shard, wid });
        let mut again = Vec::new();
        for other in 0..self.count() {
            let t = &mut self.shards[other as usize];
            if other != shard && t.phase == Phase::Done && t.producer == Some(wid) {
                t.phase = Phase::Open;
                t.producer = None;
                t.retries = 0;
                self.tally.invalidated += 1;
                self.out.push(Action::Invalidate { shard: other, wid });
                again.push(other);
            }
            // A convict's held stream is no opinion at all — and the
            // audit lease excluding it may wait for a worker that never
            // comes, so the range goes out again unexcluded.
            if t.phase == Phase::Open && t.held.iter().any(|(w, _)| *w == wid) {
                again.push(other);
            }
            t.held.retain(|(w, _)| *w != wid);
        }
        again
    }

    /// Every dispatch of a shard holding a stream excludes its producer:
    /// a second opinion must come from a disjoint worker.
    fn dispatch(&mut self, shard: u32, why: Why) {
        let t = &mut self.shards[shard as usize];
        t.attempts += 1;
        t.live.push((t.attempts, None));
        t.retry_at = None;
        let exclude = t.held.first().map(|(w, _)| *w).filter(|&w| w != 0);
        let attempt = t.attempts;
        self.out.push(Action::Dispatch {
            shard,
            attempt,
            exclude,
            why,
        });
    }

    fn accept(&mut self, shard: u32, producer: Option<u64>, stream: LeaseRecords) {
        let t = &mut self.shards[shard as usize];
        t.phase = Phase::Done;
        t.producer = producer;
        t.held.clear();
        t.retry_at = None;
        self.out.push(Action::Accept {
            shard,
            producer,
            stream,
        });
        self.cancel(shard);
    }

    fn arbitrate(&mut self, shard: u32) {
        self.shards[shard as usize].phase = Phase::Arbitrating;
        self.cancel(shard);
        self.out.push(Action::Arbitrate { shard });
    }

    fn cancel(&mut self, shard: u32) {
        self.shards[shard as usize].live.clear();
        self.out.push(Action::Cancel { shard });
    }

    fn verdict(&mut self, shard: u32, wid: u64, verdict: &'static str) {
        self.out.push(Action::Verdict {
            shard,
            wid,
            verdict,
        });
    }

    fn lose(&mut self, shard: u32, error: NfpError) {
        if self.policy.allow_partial {
            self.shards[shard as usize].phase = Phase::Lost;
            self.out.push(Action::Lose(error));
        } else {
            self.failed = true;
            self.out.push(Action::Fail(error));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::InjectionRecord;
    use nfp_core::Outcome;
    use nfp_sim::{Fault, FaultTarget};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn record(i: usize, outcome: Outcome) -> InjectionRecord {
        InjectionRecord {
            fault: Fault {
                at: 100 + i as u64,
                target: FaultTarget::IntReg {
                    index: (i % 8) as u8,
                    bit: (i % 32) as u8,
                },
            },
            category: None,
            outcome,
        }
    }

    /// The stream an honest worker returns for `shard`, or a liar's
    /// falsified one.
    fn stream(policy: &Policy, count: u32, shard: u32, lie: bool) -> LeaseRecords {
        let (start, end) = shard_range(policy.injections, shard, count);
        let outcome = if lie { Outcome::Sdc } else { Outcome::Masked };
        (start..end).map(|i| (i, record(i, outcome), 1)).collect()
    }

    fn policy(audit_rate: f64, straggler: Option<Duration>) -> Policy {
        Policy {
            seed: 7,
            injections: 12,
            retries: 2,
            straggler,
            allow_partial: false,
            audit_rate,
            patience: Duration::from_secs(2),
        }
    }

    fn dispatch(shard: u32, attempt: u32, exclude: Option<u64>, why: Why) -> Action {
        Action::Dispatch {
            shard,
            attempt,
            exclude,
            why,
        }
    }

    fn returned(shard: u32, attempt: u32, wid: u64, stream: LeaseRecords) -> Event {
        Event::Returned {
            shard,
            attempt,
            wid,
            banned: false,
            stream,
        }
    }

    fn failed(shard: u32, attempt: u32) -> Event {
        Event::Failed {
            shard,
            attempt,
            detail: "peer died".to_string(),
        }
    }

    const TICK: Event = Event::Tick { stranded: false };

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
    fn matching_streams_ignore_attempt_counts() {
        // An honest worker that needed a respawn mid-shard reports
        // attempts > 1; the audit comparison must not convict it for
        // that — only (index, record) content counts.
        let ok = |i: usize| record(i, Outcome::Masked);
        let a: LeaseRecords = vec![(0, ok(0), 1), (1, ok(1), 1)];
        let b: LeaseRecords = vec![(0, ok(0), 3), (1, ok(1), 2)];
        assert!(streams_match(&a, &b));
        // The trusted pool's truth for the wrong range is no match.
        let shifted: LeaseRecords = vec![(1, ok(0), 1), (2, ok(1), 1)];
        assert!(!streams_match(&b, &shifted));
        // A flipped outcome is exactly what it must catch.
        let c: LeaseRecords = vec![(0, ok(0), 1), (1, record(1, Outcome::Sdc), 1)];
        assert!(!streams_match(&a, &c));
        // As is a silently shortened stream.
        let d: LeaseRecords = vec![(0, ok(0), 1)];
        assert!(!streams_match(&a, &d));
    }

    #[test]
    fn a_retried_audit_lease_still_excludes_the_producer() {
        let p = policy(1.0, None);
        let (mut book, first) = ShardBook::open(p.clone(), &[false]);
        assert_eq!(first, vec![dispatch(0, 1, None, Why::Fresh)]);
        book.on(
            ms(0),
            Event::Leased {
                shard: 0,
                attempt: 1,
            },
        );
        let held = book.on(ms(5), returned(0, 1, 7, stream(&p, 1, 0, false)));
        assert_eq!(held, vec![dispatch(0, 2, Some(7), Why::Audit)]);
        // The audit lease fails: its retry, once the backoff deadline
        // passed, must still keep worker 7 away from its own audit.
        book.on(
            ms(10),
            Event::Leased {
                shard: 0,
                attempt: 2,
            },
        );
        assert!(book.on(ms(20), failed(0, 2)).is_empty());
        assert!(
            book.on(ms(21), TICK).is_empty(),
            "retried inside its backoff"
        );
        let retry = book.on(ms(1000), TICK);
        assert_eq!(retry, vec![dispatch(0, 3, Some(7), Why::Fresh)]);
        assert_eq!(book.tally().redispatched, 1);
    }

    #[test]
    fn a_speculative_duplicate_of_a_held_shard_excludes_the_producer() {
        let p = policy(1.0, Some(ms(100)));
        let (mut book, _) = ShardBook::open(p.clone(), &[false]);
        book.on(
            ms(0),
            Event::Leased {
                shard: 0,
                attempt: 1,
            },
        );
        book.on(ms(5), returned(0, 1, 7, stream(&p, 1, 0, false)));
        book.on(
            ms(10),
            Event::Leased {
                shard: 0,
                attempt: 2,
            },
        );
        assert!(book.on(ms(100), TICK).is_empty(), "speculated too early");
        let spec = book.on(ms(200), TICK);
        assert_eq!(spec, vec![dispatch(0, 3, Some(7), Why::Speculate)]);
        assert_eq!(book.tally().speculated, 1);
    }

    #[test]
    fn the_redispatch_tally_survives_a_conviction() {
        // A seed that samples shard 1 but not shard 0.
        let seed = (0..)
            .find(|&s| !audit_sampled(s, 0, 0.5) && audit_sampled(s, 1, 0.5))
            .unwrap();
        let p = Policy {
            seed,
            ..policy(0.5, None)
        };
        let truth = |shard| stream(&p, 2, shard, false);
        let lie = |shard| stream(&p, 2, shard, true);
        let (mut book, _) = ShardBook::open(p.clone(), &[false, false]);
        // Shard 0 burns a retry, then liar 9 completes it unaudited.
        book.on(
            ms(0),
            Event::Leased {
                shard: 0,
                attempt: 1,
            },
        );
        book.on(ms(1), failed(0, 1));
        assert_eq!(
            book.on(ms(1000), TICK),
            vec![dispatch(0, 2, None, Why::Fresh)]
        );
        book.on(
            ms(1000),
            Event::Leased {
                shard: 0,
                attempt: 2,
            },
        );
        assert_eq!(
            book.on(ms(1001), returned(0, 2, 9, lie(0))),
            vec![
                Action::Accept {
                    shard: 0,
                    producer: Some(9),
                    stream: lie(0)
                },
                Action::Cancel { shard: 0 },
            ]
        );
        // Shard 1 is sampled: the liar's stream is held, a disjoint
        // worker disagrees, and the trusted pool convicts the liar.
        book.on(ms(1002), returned(1, 1, 9, lie(1)));
        assert_eq!(
            book.on(ms(1003), returned(1, 2, 5, truth(1))),
            vec![Action::Cancel { shard: 1 }, Action::Arbitrate { shard: 1 }]
        );
        let verdict = |wid, verdict| Action::Verdict {
            shard: 1,
            wid,
            verdict,
        };
        assert_eq!(
            book.on(
                ms(1004),
                Event::Arbitrated {
                    shard: 1,
                    truth: Ok(truth(1))
                }
            ),
            vec![
                verdict(9, "convict"),
                Action::Ban { shard: 1, wid: 9 },
                Action::Invalidate { shard: 0, wid: 9 },
                verdict(5, "pass"),
                Action::Accept {
                    shard: 1,
                    producer: None,
                    stream: truth(1)
                },
                Action::Cancel { shard: 1 },
                Action::Cancel { shard: 0 },
                dispatch(0, 3, None, Why::Fresh),
            ]
        );
        let tally = book.tally();
        assert_eq!(tally.redispatched, 1, "the conviction erased a retry");
        assert_eq!(
            (
                tally.audited,
                tally.passed,
                tally.convicted,
                tally.invalidated
            ),
            (1, 1, 1, 1)
        );
        // The re-dispatched range starts with a fresh budget of two.
        book.on(ms(1005), failed(0, 3));
        assert_eq!(
            book.on(ms(2000), TICK),
            vec![dispatch(0, 4, None, Why::Fresh)]
        );
        book.on(ms(2001), failed(0, 4));
        assert_eq!(
            book.on(ms(3000), TICK),
            vec![dispatch(0, 5, None, Why::Fresh)]
        );
        let lost = book.on(ms(3001), failed(0, 5));
        assert!(matches!(
            &lost[..],
            [Action::Fail(NfpError::ShardLost { shard: 0, .. })]
        ));
        assert_eq!(book.tally().redispatched, 4);
        // Nothing the convict returns is accepted, even unsampled and
        // off parole: it is banned again instead.
        let (mut fresh, _) = ShardBook::open(p.clone(), &[false, false]);
        fresh.on(ms(0), returned(1, 1, 9, lie(1)));
        fresh.on(ms(1), returned(1, 2, 5, truth(1)));
        fresh.on(
            ms(2),
            Event::Arbitrated {
                shard: 1,
                truth: Ok(truth(1)),
            },
        );
        assert_eq!(
            fresh.on(ms(3), returned(0, 1, 9, lie(0))),
            vec![Action::Ban { shard: 0, wid: 9 }]
        );
        assert_eq!(
            fresh.on(ms(3), TICK),
            vec![dispatch(0, 2, None, Why::Fresh)]
        );
    }

    #[test]
    fn a_conviction_frees_the_range_whose_held_stream_it_voids() {
        // Worker 9's stream for shard 1 is held, and the audit lease
        // excludes it. Convicted over shard 0, its stream is void: were
        // the lease kept, a fleet of only worker 9 would never end. The
        // range goes out again, unexcluded.
        let p = policy(1.0, None);
        let (truth, lie) = (|s| stream(&p, 2, s, false), |s| stream(&p, 2, s, true));
        let (mut book, _) = ShardBook::open(p.clone(), &[false, false]);
        assert_eq!(
            book.on(ms(0), returned(1, 1, 9, lie(1))),
            vec![dispatch(1, 2, Some(9), Why::Audit)]
        );
        book.on(ms(1), returned(0, 1, 9, lie(0)));
        book.on(ms(2), returned(0, 2, 5, truth(0)));
        let after = book.on(
            ms(3),
            Event::Arbitrated {
                shard: 0,
                truth: Ok(truth(0)),
            },
        );
        assert_eq!(
            &after[after.len() - 2..],
            [
                Action::Cancel { shard: 1 },
                dispatch(1, 3, None, Why::Fresh)
            ]
        );
    }

    /// A simulated fleet around one book: `workers` peers with ids
    /// `1..=workers`, one of which may lie about every record, a
    /// synthetic clock, and mirrors of what the actions promised.
    struct Sim {
        policy: Policy,
        count: u32,
        workers: u64,
        liar: Option<u64>,
        book: ShardBook,
        now: Duration,
        /// Dispatched attempts nobody took: (shard, attempt, exclude).
        queue: Vec<(u32, u32, Option<u64>)>,
        /// Taken attempts: (wid, shard, attempt, still live in the book).
        running: Vec<(u64, u32, u32, bool)>,
        arbitrating: Vec<u32>,
        /// Every worker ever convicted.
        banned: BTreeSet<u64>,
        /// The hub's blacklist: parole ends at the instant, doubling
        /// per strike.
        parole: BTreeMap<u64, (u32, Duration)>,
        fed: Vec<(Duration, Event)>,
        actions: Vec<Action>,
        done: Vec<bool>,
        lost: Vec<bool>,
        producer: Vec<Option<u64>>,
        /// The producer of a shard's held stream, learnt from its audit
        /// dispatch.
        held: Vec<Option<u64>>,
        /// Failures charged against each shard's current budget.
        charged: Vec<u32>,
        failed: bool,
        tally: Tally,
    }

    impl Sim {
        fn new(policy: Policy, count: u32, workers: u64, liar: Option<u64>) -> Sim {
            let n = count as usize;
            let (book, first) = ShardBook::open(policy.clone(), &vec![false; n]);
            let mut sim = Sim {
                policy,
                count,
                workers,
                liar,
                book,
                now: Duration::ZERO,
                queue: Vec::new(),
                running: Vec::new(),
                arbitrating: Vec::new(),
                banned: BTreeSet::new(),
                parole: BTreeMap::new(),
                fed: Vec::new(),
                actions: Vec::new(),
                done: vec![false; n],
                lost: vec![false; n],
                producer: vec![None; n],
                held: vec![None; n],
                charged: vec![0; n],
                failed: false,
                tally: Tally::default(),
            };
            for action in &first {
                sim.apply(action, None).expect("first dispatches");
            }
            sim.actions = first;
            sim
        }

        /// Whether the hub turns `wid` away right now.
        fn on_parole(&self, wid: u64) -> bool {
            self.parole
                .get(&wid)
                .is_some_and(|&(_, until)| self.now < until)
        }

        fn truth(&self, shard: u32) -> LeaseRecords {
            stream(&self.policy, self.count, shard, false)
        }

        fn open(&self, shard: u32) -> bool {
            let s = shard as usize;
            !self.failed && !self.done[s] && !self.lost[s] && !self.arbitrating.contains(&shard)
        }

        /// Whether the book still waits on any attempt of `shard`.
        fn outstanding(&self, shard: u32) -> bool {
            self.queue.iter().any(|q| q.0 == shard)
                || self.running.iter().any(|r| r.1 == shard && r.3)
        }

        fn feed(&mut self, event: Event) -> Result<(), TestCaseError> {
            let returner = match &event {
                Event::Returned { wid, .. } => Some(*wid),
                _ => None,
            };
            let actions = self.book.on(self.now, event.clone());
            self.fed.push((self.now, event));
            for action in &actions {
                self.apply(action, returner)?;
            }
            let (was, now) = (self.tally, self.book.tally());
            prop_assert!(
                now.redispatched >= was.redispatched
                    && now.speculated >= was.speculated
                    && now.audited >= was.audited
                    && now.passed >= was.passed
                    && now.convicted >= was.convicted
                    && now.invalidated >= was.invalidated,
                "a tally decreased: {was:?} -> {now:?}"
            );
            self.tally = now;
            self.actions.extend(actions);
            Ok(())
        }

        fn apply(&mut self, action: &Action, returner: Option<u64>) -> Result<(), TestCaseError> {
            match action {
                Action::Dispatch {
                    shard,
                    attempt,
                    exclude,
                    why,
                } => {
                    let s = *shard as usize;
                    prop_assert!(
                        !self.done[s] && !self.lost[s],
                        "settled shard {shard} dispatched"
                    );
                    if *why == Why::Audit {
                        self.held[s] = returner;
                    }
                    if let Some(wid) = self.held[s] {
                        prop_assert_eq!(
                            *exclude,
                            Some(wid),
                            "shard {} holds worker {}'s stream",
                            shard,
                            wid
                        );
                    }
                    self.queue.push((*shard, *attempt, *exclude));
                }
                Action::Accept {
                    shard,
                    producer,
                    stream,
                } => {
                    let s = *shard as usize;
                    prop_assert!(!self.done[s], "shard {shard} accepted twice");
                    for wid in returner.iter().chain(producer) {
                        prop_assert!(!self.banned.contains(wid), "accepted banned worker {wid}");
                    }
                    if self.policy.audit_rate >= 1.0 {
                        prop_assert!(
                            streams_match(stream, &self.truth(*shard)),
                            "shard {shard}: a lie"
                        );
                    }
                    self.done[s] = true;
                    self.producer[s] = *producer;
                    self.held[s] = None;
                }
                Action::Cancel { shard } => {
                    self.queue.retain(|q| q.0 != *shard);
                    for r in self.running.iter_mut().filter(|r| r.1 == *shard) {
                        r.3 = false;
                    }
                }
                Action::Arbitrate { shard } => {
                    self.held[*shard as usize] = None;
                    self.arbitrating.push(*shard);
                }
                Action::Verdict { .. } => {}
                Action::Ban { wid, .. } => {
                    prop_assert_eq!(Some(*wid), self.liar, "honest worker {} convicted", wid);
                    self.banned.insert(*wid);
                    let strikes = self.parole.get(wid).map_or(1, |p| p.0 + 1);
                    let until = self.now + ms(500 << (strikes - 1).min(4));
                    self.parole.insert(*wid, (strikes, until));
                    for h in self.held.iter_mut().filter(|h| **h == Some(*wid)) {
                        *h = None;
                    }
                }
                Action::Invalidate { shard, wid } => {
                    let s = *shard as usize;
                    prop_assert!(self.done[s] && self.producer[s] == Some(*wid));
                    self.done[s] = false;
                    self.producer[s] = None;
                    self.charged[s] = 0;
                }
                Action::Lose(e) | Action::Fail(e) => {
                    let NfpError::ShardLost { shard, .. } = e else {
                        return Err(TestCaseError::fail(format!("not a shard loss: {e}")));
                    };
                    let s = *shard as usize;
                    prop_assert!(
                        self.charged[s] > self.policy.retries,
                        "shard {shard} lost after {} charged failures",
                        self.charged[s]
                    );
                    let partial = matches!(action, Action::Lose(_));
                    prop_assert_eq!(partial, self.policy.allow_partial);
                    self.lost[s] = partial;
                    self.failed = !partial;
                }
            }
            Ok(())
        }

        /// An idle worker off parole takes the first queued attempt it
        /// may; `pick` chooses among the workers that can take one
        /// (`usize::MAX`: an honest one if any can).
        fn lease(&mut self, pick: usize) -> Result<(), TestCaseError> {
            let takers: Vec<(u64, usize)> = (1..=self.workers)
                .filter(|w| !self.on_parole(*w) && !self.running.iter().any(|r| r.0 == *w))
                .filter_map(|w| Some((w, self.queue.iter().position(|q| q.2 != Some(w))?)))
                .collect();
            if takers.is_empty() {
                return Ok(());
            }
            let (wid, at) = match takers.iter().find(|t| Some(t.0) != self.liar) {
                Some(&honest) if pick == usize::MAX => honest,
                _ => takers[pick % takers.len()],
            };
            let (shard, attempt, _) = self.queue.remove(at);
            self.running.push((wid, shard, attempt, true));
            self.feed(Event::Leased { shard, attempt })
        }

        /// A running attempt returns its stream, or fails.
        fn finish(&mut self, pick: usize, ok: bool) -> Result<(), TestCaseError> {
            if self.running.is_empty() {
                return Ok(());
            }
            let (wid, shard, attempt, live) = self.running.remove(pick % self.running.len());
            if ok {
                let lie = self.liar == Some(wid);
                self.feed(Event::Returned {
                    shard,
                    attempt,
                    wid,
                    banned: self.on_parole(wid),
                    stream: stream(&self.policy, self.count, shard, lie),
                })
            } else {
                if live && self.open(shard) && !self.outstanding(shard) {
                    self.charged[shard as usize] += 1;
                }
                self.feed(failed(shard, attempt))
            }
        }

        /// The clock moves; with every worker on parole (or on a random
        /// whim of the transport) the fleet is stranded.
        fn tick(&mut self, by: Duration, whim: bool) -> Result<(), TestCaseError> {
            self.now += by;
            let stranded = whim || (1..=self.workers).all(|w| self.on_parole(w));
            self.feed(Event::Tick { stranded })
        }

        fn answer(&mut self, pick: usize) -> Result<(), TestCaseError> {
            if self.arbitrating.is_empty() {
                return Ok(());
            }
            let shard = self.arbitrating.remove(pick % self.arbitrating.len());
            let truth = Ok(self.truth(shard));
            self.feed(Event::Arbitrated { shard, truth })
        }

        fn finished(&self) -> bool {
            self.failed || self.book.finished()
        }

        /// Honest progress until the campaign ends: answer arbitrations,
        /// finish running attempts, hand out queued ones, else let time
        /// pass.
        fn drain(&mut self) -> Result<(), TestCaseError> {
            for _ in 0..10_000 {
                if self.finished() {
                    return Ok(());
                }
                let leases = self.queue.len();
                if !self.arbitrating.is_empty() {
                    self.answer(0)?;
                } else if !self.running.is_empty() {
                    self.finish(0, true)?;
                } else {
                    // The last taker: an honest worker when there is one.
                    self.lease(usize::MAX)?;
                    if self.queue.len() == leases {
                        self.tick(ms(250), false)?;
                    }
                }
            }
            Err(TestCaseError::fail("the schedule never terminated"))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn seeded_schedules_keep_every_invariant(
            count in 1u32..9,
            workers in 1u64..5,
            liar in 0u64..5,
            rate in 0usize..3,
            allow_partial in any::<bool>(),
            straggler in any::<bool>(),
            retries in 0u32..3,
            seed in any::<u64>(),
            moves in prop::collection::vec(any::<u64>(), 0..400),
        ) {
            let policy = Policy {
                seed,
                injections: count as usize * 3,
                retries,
                straggler: straggler.then_some(ms(300)),
                allow_partial,
                audit_rate: [0.0, 0.5, 1.0][rate],
                patience: Duration::from_secs(2),
            };
            let liar = (liar != 0 && liar <= workers).then_some(liar);
            let mut sim = Sim::new(policy.clone(), count, workers, liar);
            for m in moves {
                if sim.finished() {
                    break;
                }
                let pick = (m >> 8) as usize;
                match m % 8 {
                    0 | 1 => sim.lease(pick)?,
                    2 | 3 => sim.finish(pick, true)?,
                    4 => sim.finish(pick, false)?,
                    5 | 6 => sim.tick(ms((m >> 8) % 2500), (m >> 40) % 32 == 0)?,
                    _ => sim.answer(pick)?,
                }
            }
            sim.drain()?;

            // Every schedule ends with each shard done or lost, unless a
            // loss failed the campaign outright.
            prop_assert!(sim.failed || (0..count as usize).all(|s| sim.done[s] || sim.lost[s]));
            prop_assert!(!sim.failed || !allow_partial);
            for s in 0..count as usize {
                if let (true, Some(wid)) = (sim.done[s], sim.producer[s]) {
                    prop_assert!(!sim.banned.contains(&wid), "shard {s} kept convict {wid}'s range");
                }
            }
            // Replaying the events reproduces the actions exactly.
            let (mut again, mut replayed) = ShardBook::open(policy, &vec![false; count as usize]);
            for (now, event) in &sim.fed {
                replayed.extend(again.on(*now, event.clone()));
            }
            prop_assert!(replayed == sim.actions, "the replay diverged");
        }
    }
}
