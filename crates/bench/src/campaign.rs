//! SEU fault-injection campaigns over the evaluation kernels.
//!
//! A campaign measures a kernel's soft-error vulnerability on the
//! modelled LEON3-class core: it runs the kernel once fault-free (the
//! *golden* run), then replays it N times, each replay injecting a
//! single seeded bit-flip into architectural state — integer/FP
//! registers, condition codes, RAM, or the instruction stream — at a
//! chosen dynamic instruction index, and classifies the divergence
//! against the golden run ([`Outcome`]).
//!
//! Replays do not re-execute from reset: the runner takes a ladder of
//! [`nfp_sim::Checkpoint`]s along the golden path and rewinds to the
//! nearest one at or before each injection point. Nor do masked replays
//! run to the end: a replay that reaches a later rung in exactly the
//! golden run's state there ([`Machine::rejoins`]) would finish as the
//! golden run does, so it stops, classified [`Outcome::Masked`]. Nor
//! are faults replayed at all whose location the golden run never
//! reads at or after the injection point: until the flipped bit is
//! read, a replay runs the golden run's instructions on its values, so
//! it would halt as the golden run does ([`nfp_sim::reads`]). A stepped
//! pass records those last reads, once per process that replays. A
//! campaign costs roughly `2 × golden` traced instructions and one
//! stepped recording pass to prepare, plus `N × golden / 2·checkpoints`
//! to seek to the injection points (code faults never read again skip
//! that too), plus a tail for each fault whose location is read again,
//! instead of `N × golden`. The tail runs from the injection point to
//! the first rung the replay rejoins (within `golden / checkpoints`
//! when that is the next one), or, for a replay that rejoins none, to
//! its own halt, trap or watchdog expiry: half the golden run on
//! average for one that halts.
//!
//! Campaigns run with [`TrapPolicy::Recover`]: window overflow and
//! underflow spill and fill through the bare-metal handler model, and
//! misaligned accesses injected by faults are skipped, so only
//! genuinely unrecoverable corruption classifies as [`Outcome::Trap`].
//! A [`Watchdog`] bounds every replay so control-flow corruption that
//! spins forever classifies as [`Outcome::Hang`] instead of wedging
//! the harness. Everything is deterministic for a fixed seed: same
//! seed, same kernel, same counts — the basis for the campaign
//! regression test.

use crate::evaluation::Mode;
use nfp_core::{NfpError, Outcome, VulnerabilityReport};
use nfp_sim::fault::{inject, plan, undo, Undo};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{
    Checkpoint, Dispatch, DispatchStats, Fault, FaultSpace, FaultTarget, LastReads, Machine,
    RunResult, SimError, Watchdog,
};
use nfp_sparc::Category;
use nfp_workloads::{machine_for, Kernel, KERNEL_BUDGET};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of fault injections.
    pub injections: usize,
    /// Seed for the fault plan (target and injection-point sampling).
    pub seed: u64,
    /// Number of checkpoints taken along the golden run.
    pub checkpoints: usize,
    /// Optional per-replay wall-clock deadline. `None` (the default)
    /// keeps campaigns fully deterministic; the instruction-budget
    /// watchdog already bounds every replay.
    pub wall: Option<Duration>,
    /// Execution dispatch strategy for the golden run and every replay
    /// of a local run: the in-process runners and the supervisor's
    /// thread pool. Campaign results are bit-identical across both
    /// modes (a regression test asserts it), so dispatch is a local
    /// choice outside the campaign identity: journals, handshakes and
    /// submits never carry it, and process and remote workers always
    /// run [`Dispatch::Traced`]. [`Dispatch::Step`] is the oracle for
    /// isolating a suspected trace bug.
    pub dispatch: Dispatch,
    /// Watchdog escalation factor. A replay first runs under the soft
    /// instruction budget (`2·golden + 10000` minus the injection
    /// point); if that expires, the watchdog escalates once, granting
    /// `escalation − 1` further soft budgets before classifying the
    /// replay as [`Outcome::Hang`]. `1` disables escalation and
    /// restores the old single hard cutoff. Wall-clock expiry never
    /// escalates: a deadline is a deadline.
    pub escalation: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 1000,
            seed: 0x5eed_f417,
            checkpoints: 16,
            wall: None,
            dispatch: Dispatch::default(),
            escalation: 2,
        }
    }
}

/// One injection and its classified outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// What was flipped, and when.
    pub fault: Fault,
    /// Table I category of the instruction at the injection point (for
    /// code faults, of the corrupted instruction itself); `None` when
    /// the injection point sat outside the predecoded image.
    pub category: Option<Category>,
    /// Classification against the golden run.
    pub outcome: Outcome,
}

/// Everything a campaign learns about one kernel variant.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// `<kernel>_<float|fixed>`.
    pub name: String,
    /// Dynamic instruction count of the fault-free run.
    pub golden_instret: u64,
    /// Traps absorbed by the recovery model during the golden run.
    pub golden_recovered_traps: u64,
    /// Per-category vulnerability tallies.
    pub report: VulnerabilityReport,
    /// Every injection in plan order.
    pub records: Vec<InjectionRecord>,
}

impl CampaignResult {
    /// Outcome counts over the whole campaign.
    pub fn outcome_totals(&self) -> nfp_core::OutcomeCounts {
        self.report.totals()
    }
}

/// How a replay ended.
enum Replay {
    /// It reached a rung of the ladder in the golden run's state there,
    /// so it would have finished as the golden run did.
    Rejoined,
    /// It ran to its own end: a halt, a trap or watchdog expiry.
    Ran(Result<RunResult, SimError>),
}

/// Merges possibly-overlapping address ranges into a sorted disjoint
/// set (fault-space weights count each RAM word once).
fn merge_ranges(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        match merged.last_mut() {
            Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

fn fresh_machine(kernel: &Kernel, mode: Mode, cfg: &CampaignConfig) -> Result<Machine, NfpError> {
    let mut m = machine_for(kernel, mode.float_mode())?;
    m.set_trap_policy(TrapPolicy::Recover);
    m.set_dispatch(cfg.dispatch);
    Ok(m)
}

/// A campaign's golden reference: the fault-free run, the checkpoint
/// ladder along it, the fault plan, and when the run last reads each
/// location a fault can hit. [`Golden::prepare`] builds it
/// once per campaign per process; every replay slot shares it
/// read-only. A replay rig is only a loaded machine
/// ([`Golden::machine`]): a [`Checkpoint`] is valid on any machine
/// loaded with the same images, and [`Golden::seek`] restores a rung
/// before every replay.
pub(crate) struct Golden {
    pub(crate) kernel: Kernel,
    pub(crate) mode: Mode,
    pub(crate) campaign: CampaignConfig,
    /// The fault plan, sampled from the fault space the golden run
    /// spans (code extent and every RAM range the kernel loads or
    /// touches).
    pub(crate) faults: Vec<Fault>,
    checkpoints: Vec<Checkpoint>,
    /// The fault-free run a replay is classified against.
    run: RunResult,
    /// The last instruction index at which the golden run reads each
    /// location a fault can hit ([`Golden::reads`]).
    reads: OnceLock<Result<LastReads, NfpError>>,
    /// [`nfp_sim::Cpu::window_ops`] at the golden run's halt, for
    /// [`Machine::rejoins`].
    window_ops: u64,
    /// The ladder run's dispatch counters, which the footers print.
    pub(crate) dispatch: DispatchStats,
}

impl Golden {
    /// Runs the golden pass, plans the faults over what it touched, and
    /// builds the checkpoint ladder along a second pass.
    pub(crate) fn prepare(
        kernel: &Kernel,
        mode: Mode,
        cfg: &CampaignConfig,
    ) -> Result<Golden, NfpError> {
        let name = || format!("{}_{}", kernel.name, mode.suffix());
        // Golden pass: learn length, outputs, and the RAM footprint.
        let mut probe = fresh_machine(kernel, mode, cfg)?;
        let run = probe.run(KERNEL_BUDGET)?;
        if run.exit_code != 0 {
            return Err(NfpError::KernelFailed {
                kernel: name(),
                exit_code: run.exit_code,
            });
        }
        if run.words != kernel.expected_words {
            return Err(NfpError::OutputMismatch { kernel: name() });
        }
        let mut ram_ranges = probe.bus.pristine_ranges();
        ram_ranges.extend(probe.bus.dirty_ranges());
        let space = FaultSpace {
            max_instret: run.instret.saturating_sub(1),
            code_len: probe.code_len() as u32,
            ram_ranges: merge_ranges(ram_ranges),
            fp: probe.config().fpu_enabled,
        };

        // Checkpoint ladder along a fresh replay of the same path.
        let mut ladder = fresh_machine(kernel, mode, cfg)?;
        let steps = cfg.checkpoints.max(1) as u64;
        let checkpoints = (0..steps)
            .map(|i| {
                ladder.run_until(run.instret * i / steps)?;
                Ok(ladder.checkpoint())
            })
            .collect::<Result<_, NfpError>>()?;
        Ok(Golden {
            kernel: kernel.clone(),
            mode,
            campaign: cfg.clone(),
            faults: plan(&space, cfg.injections, cfg.seed),
            checkpoints,
            window_ops: probe.cpu.window_ops(),
            run,
            reads: OnceLock::new(),
            dispatch: ladder.dispatch_stats(),
        })
    }

    /// Dynamic instruction count of the golden run.
    pub(crate) fn instret(&self) -> u64 {
        self.run.instret
    }

    /// The last instruction index at which the golden run reads each
    /// location a fault can hit. A third pass records it, stepped
    /// ([`Machine::run_recording`]), the first time a replay asks: once
    /// per campaign in a process that replays, never in one that only
    /// plans (a coordinator).
    fn reads(&self) -> Result<&LastReads, NfpError> {
        self.reads
            .get_or_init(|| {
                let mut m = self.machine()?;
                let mut reads = LastReads::new(&m);
                m.run_recording(KERNEL_BUDGET, &mut reads)?;
                Ok(reads)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// A replay rig: the kernel loaded afresh, with recovery enabled
    /// and the campaign's dispatch.
    pub(crate) fn machine(&self) -> Result<Machine, NfpError> {
        fresh_machine(&self.kernel, self.mode, &self.campaign)
    }

    /// Rewinds `m` to the nearest rung at or before `at` and replays up
    /// to it.
    pub(crate) fn seek(&self, m: &mut Machine, at: u64) -> Result<(), NfpError> {
        let cp = self
            .checkpoints
            .iter()
            .rev()
            .find(|cp| cp.instret() <= at)
            .ok_or(NfpError::Empty {
                what: "checkpoint ladder",
            })?;
        m.restore(cp);
        m.run_until(at)?;
        Ok(())
    }

    /// The first tier of a replay from `m`'s instret, the injection
    /// point: its soft budget (what is left of twice the golden length
    /// plus slack; see [`CampaignConfig::escalation`]), the instret it
    /// ends at, and the wall deadline of the whole replay.
    fn first_tier(&self, m: &Machine) -> (u64, u64, Option<Instant>) {
        let ceiling = 2 * self.instret() + 10_000;
        let soft = ceiling.saturating_sub(m.instret()).max(1);
        let deadline = self.campaign.wall.map(|d| Instant::now() + d);
        (soft, m.instret().saturating_add(soft), deadline)
    }

    /// Runs the fault-injected `m` under the escalating watchdog: one
    /// soft instruction budget, then (if the soft budget — not a wall
    /// deadline — expired) up to `escalation − 1` more, then expiry
    /// stands and the replay is a hang. The wall deadline spans the
    /// *whole* escalating run, not one tier: escalation grants a hung
    /// replay more instructions, never more time.
    pub(crate) fn run_escalating(&self, m: &mut Machine) -> Result<RunResult, SimError> {
        let (soft, limit, deadline) = self.first_tier(m);
        self.escalate(m, soft, limit, deadline)
    }

    /// [`Golden::run_escalating`]'s tiers, the first ending at instret
    /// `limit`, each later one `soft` instructions on.
    fn escalate(
        &self,
        m: &mut Machine,
        soft: u64,
        mut limit: u64,
        deadline: Option<Instant>,
    ) -> Result<RunResult, SimError> {
        let mut tier = 1;
        loop {
            let run = m.run_watchdog(&Watchdog {
                max_instrs: limit - m.instret(),
                wall: remaining(deadline),
            });
            match run {
                Err(SimError::WatchdogExpired { .. })
                    // Wall expiry stops short of `limit`; escalating
                    // would hand a hung replay a fresh deadline, so
                    // only budget expiry escalates.
                    if tier < self.campaign.escalation.max(1) && m.instret() >= limit =>
                {
                    tier += 1;
                    limit = limit.saturating_add(soft);
                }
                other => return other,
            }
        }
    }

    /// Replays the fault-injected `m` from the injection point, under
    /// [`Golden::run_escalating`]'s budget and deadline. A replay that
    /// executes the golden image first runs to each later rung of the
    /// ladder in turn, and stops at the first whose state it matches
    /// ([`Machine::rejoins`]). The instructions it runs to the rungs
    /// count against the first tier.
    fn replay(&self, m: &mut Machine, golden_image: bool) -> Replay {
        let (soft, limit, deadline) = self.first_tier(m);
        if golden_image {
            let start = m.instret();
            // Every rung lies before the golden halt, so inside `limit`.
            for cp in self.checkpoints.iter().filter(|cp| cp.instret() > start) {
                let run = m.run_watchdog(&Watchdog {
                    max_instrs: cp.instret() - m.instret(),
                    wall: remaining(deadline),
                });
                match run {
                    Err(SimError::WatchdogExpired { instret }) if instret == cp.instret() => {}
                    ended => return Replay::Ran(ended),
                }
                if m.rejoins(cp, self.window_ops) {
                    return Replay::Rejoined;
                }
            }
        }
        Replay::Ran(self.escalate(m, soft, limit, deadline))
    }

    /// Classifies a replay that ran to its own end against the golden
    /// run.
    fn classify(&self, run: Result<RunResult, SimError>) -> Result<Outcome, NfpError> {
        Ok(match run {
            Ok(r) => {
                let golden = &self.run;
                let matches = r.exit_code == golden.exit_code
                    && r.words == golden.words
                    && r.text == golden.text;
                if matches {
                    Outcome::Masked
                } else {
                    Outcome::Sdc
                }
            }
            Err(SimError::Trap(_)) | Err(SimError::UnknownSoftTrap { .. }) => Outcome::Trap,
            Err(SimError::WatchdogExpired { .. }) => Outcome::Hang,
            Err(e) => return Err(e.into()),
        })
    }

    /// Performs one injection on `m` and classifies the divergence. A
    /// fault on a location the golden run never reads at or after the
    /// injection point is masked without being injected: until the
    /// flipped bit is read, the replay runs the golden run's
    /// instructions on its values, so it halts as the golden run does.
    pub(crate) fn run_one(
        &self,
        m: &mut Machine,
        fault: &Fault,
    ) -> Result<InjectionRecord, NfpError> {
        let unread = self.reads()?.never_read(fault);
        // Attribute the injection to the instruction about to execute;
        // code faults are attributed to the instruction they corrupt,
        // so an unread one needs no seek.
        let category = match fault.target {
            FaultTarget::Code { index, .. } => {
                if !unread {
                    self.seek(m, fault.at)?;
                }
                m.code_category(index as usize)
            }
            _ => {
                self.seek(m, fault.at)?;
                m.next_category()
            }
        };
        let outcome = if unread {
            Outcome::Masked
        } else {
            let armed = inject(m, fault)?;
            // Until its undo, a code fault's patched predecode differs
            // from the golden image, so its replay can never rejoin.
            let replay = self.replay(m, matches!(armed, Undo::None));
            undo(m, &armed)?;
            match replay {
                Replay::Rejoined => Outcome::Masked,
                Replay::Ran(run) => self.classify(run)?,
            }
        };
        Ok(InjectionRecord {
            fault: *fault,
            category,
            outcome,
        })
    }

    /// The campaign result over `records`, tallied per category.
    pub(crate) fn assemble(&self, records: Vec<InjectionRecord>) -> CampaignResult {
        let mut report = VulnerabilityReport::new();
        for r in &records {
            report.record(r.category, r.outcome);
        }
        CampaignResult {
            name: format!("{}_{}", self.kernel.name, self.mode.suffix()),
            golden_instret: self.instret(),
            golden_recovered_traps: self.run.recovered_traps,
            report,
            records,
        }
    }
}

/// What is left of a wall deadline, if one is armed.
fn remaining(deadline: Option<Instant>) -> Option<Duration> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()))
}

/// Runs a fault-injection campaign over one kernel variant.
pub fn run_campaign(
    kernel: &Kernel,
    mode: Mode,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, NfpError> {
    let golden = Golden::prepare(kernel, mode, cfg)?;
    let mut m = golden.machine()?;
    let records = golden.faults.iter().map(|f| golden.run_one(&mut m, f));
    Ok(golden.assemble(records.collect::<Result<_, _>>()?))
}

/// Renders a campaign as a vulnerability table with a header line.
pub fn report_campaign(result: &CampaignResult) -> String {
    use std::fmt::Write;
    let totals = result.outcome_totals();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SEU CAMPAIGN — {} ({} injections over {} golden instructions)",
        result.name,
        totals.total(),
        result.golden_instret
    );
    let _ = writeln!(
        out,
        "overall vulnerability {:.1}% (SDC {}, trap {}, hang {})",
        totals.vulnerability() * 100.0,
        totals.get(Outcome::Sdc),
        totals.get(Outcome::Trap),
        totals.get(Outcome::Hang),
    );
    out.push('\n');
    out.push_str(&result.report.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sim::FaultRng;
    use nfp_workloads::Preset;

    /// The replay an early exit must agree with: seek, inject, run to
    /// the end under the escalating watchdog, undo, classify.
    fn full_replay(golden: &Golden, m: &mut Machine, fault: &Fault) -> InjectionRecord {
        golden.seek(m, fault.at).expect("seek");
        let category = match fault.target {
            FaultTarget::Code { index, .. } => m.code_category(index as usize),
            _ => m.next_category(),
        };
        let armed = inject(m, fault).expect("inject");
        let run = golden.run_escalating(m);
        undo(m, &armed).expect("undo");
        InjectionRecord {
            fault: *fault,
            category,
            outcome: golden.classify(run).expect("classifies"),
        }
    }

    #[test]
    fn replays_that_rejoin_classify_like_full_replays() {
        let preset = Preset::quick();
        let kernels = [
            nfp_workloads::fse_kernels(&preset)
                .expect("kernels")
                .remove(0),
            nfp_workloads::hevc_kernels(&preset)
                .expect("kernels")
                .remove(0),
        ];
        let (mut rejoined, mut replayed) = (0, 0);
        // Faults classified without a replay, per target kind.
        let mut unread = [0; 7];
        for kernel in &kernels {
            for mode in Mode::BOTH {
                for dispatch in Dispatch::ALL {
                    let cfg = CampaignConfig {
                        injections: 8,
                        seed: 0x4e70,
                        dispatch,
                        ..CampaignConfig::default()
                    };
                    let golden = Golden::prepare(kernel, mode, &cfg).unwrap();
                    // A rig that ran neither the golden pass nor the
                    // ladder pass.
                    let mut m = golden.machine().unwrap();
                    // The plan, then one fault of every kind at the
                    // golden run's last instruction, the exit `ta`,
                    // which reads only `%o0` and its own code index.
                    let last = golden.instret() - 1;
                    let end = [
                        FaultTarget::IntReg { index: 0, bit: 0 },
                        FaultTarget::FpReg { index: 0, bit: 0 },
                        FaultTarget::Icc { bit: 0 },
                        FaultTarget::YReg { bit: 0 },
                        FaultTarget::Fcc { bit: 0 },
                        FaultTarget::Ram {
                            addr: m.code_base(),
                            bit: 0,
                        },
                        FaultTarget::Code { index: 0, bit: 0 },
                    ]
                    .map(|target| Fault { at: last, target });
                    for fault in golden.faults.iter().chain(&end) {
                        let got = golden.run_one(&mut m, fault).unwrap();
                        if golden.reads().unwrap().never_read(fault) {
                            unread[kind(fault.target)] += 1;
                        } else {
                            // A replay that stopped early was left on
                            // the rung where it rejoined.
                            if golden
                                .checkpoints
                                .iter()
                                .any(|cp| m.rejoins(cp, golden.window_ops))
                            {
                                rejoined += 1;
                            }
                            replayed += 1;
                        }
                        let want = full_replay(&golden, &mut m, fault);
                        assert_eq!(got, want, "{} {mode:?} {dispatch}", kernel.name);
                    }
                }
            }
        }
        assert!(
            0 < rejoined && rejoined < replayed,
            "{rejoined} of {replayed} replays stopped early: both paths must run"
        );
        assert!(
            unread.iter().all(|&n| n > 0),
            "faults classified without a replay, per target kind: {unread:?}"
        );
    }

    /// A target kind's index, in [`FaultTarget`]'s declaration order.
    fn kind(target: FaultTarget) -> usize {
        match target {
            FaultTarget::IntReg { .. } => 0,
            FaultTarget::FpReg { .. } => 1,
            FaultTarget::Icc { .. } => 2,
            FaultTarget::YReg { .. } => 3,
            FaultTarget::Fcc { .. } => 4,
            FaultTarget::Ram { .. } => 5,
            FaultTarget::Code { .. } => 6,
        }
    }

    #[test]
    fn undo_leaves_the_boot_predecode() {
        // Rejoining assumes a rig with no code fault armed executes the
        // boot image: after every undo, the predecode must be a fresh
        // machine's, entry for entry.
        let kernel = nfp_workloads::hevc_kernels(&Preset::quick())
            .expect("kernels")
            .remove(0);
        let cfg = CampaignConfig {
            injections: 32,
            seed: 0xc0de,
            checkpoints: 4,
            ..CampaignConfig::default()
        };
        let golden = Golden::prepare(&kernel, Mode::Float, &cfg).unwrap();
        // A rig that ran neither the golden pass nor the ladder pass.
        let mut m = golden.machine().unwrap();
        let boot = machine_for(&kernel, Mode::Float.float_mode()).unwrap();
        // Every other fault a code flip; the rest from the plan.
        let mut rng = FaultRng::new(0xc0de);
        let faults: Vec<Fault> = golden
            .faults
            .iter()
            .enumerate()
            .map(|(i, &fault)| match i % 2 {
                0 => Fault {
                    at: fault.at,
                    target: FaultTarget::Code {
                        index: rng.below(boot.code_len() as u64) as u32,
                        bit: rng.below(32) as u8,
                    },
                },
                _ => fault,
            })
            .collect();
        for fault in &faults {
            golden.run_one(&mut m, fault).unwrap();
            for index in 0..boot.code_len() {
                assert_eq!(
                    m.code_entry(index),
                    boot.code_entry(index),
                    "entry {index} after {fault}"
                );
            }
        }
    }

    #[test]
    fn merge_ranges_coalesces_overlaps() {
        let merged = merge_ranges(vec![(40, 50), (0, 10), (8, 20), (20, 30)]);
        assert_eq!(merged, vec![(0, 30), (40, 50)]);
        assert!(merge_ranges(Vec::new()).is_empty());
    }

    #[test]
    fn small_campaign_is_deterministic() {
        let kernels = nfp_workloads::fse_kernels(&Preset::quick()).expect("kernels");
        let cfg = CampaignConfig {
            injections: 40,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&kernels[0], Mode::Float, &cfg).unwrap();
        let b = run_campaign(&kernels[0], Mode::Float, &cfg).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.records.len(), 40);
        assert_eq!(a.golden_instret, b.golden_instret);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.fault.at, y.fault.at);
        }
    }

    #[test]
    fn campaign_outcomes_identical_across_dispatch_modes() {
        // The execution-mode contract extended to a full seeded
        // campaign: golden run, checkpoint ladder, every injected
        // replay, and the classified outcomes must not depend on how
        // execution is dispatched — per-instruction stepping or
        // superblock traces.
        let kernels = nfp_workloads::fse_kernels(&Preset::quick()).expect("kernels");
        let [step, fast] = Dispatch::ALL.map(|dispatch| {
            let cfg = CampaignConfig {
                injections: 30,
                seed: 0xb10c,
                checkpoints: 4,
                dispatch,
                ..CampaignConfig::default()
            };
            run_campaign(&kernels[0], Mode::Float, &cfg).unwrap()
        });
        assert_eq!(fast.golden_instret, step.golden_instret);
        assert_eq!(fast.report, step.report);
        for (x, y) in fast.records.iter().zip(&step.records) {
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.category, y.category);
        }
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        let kernels = nfp_workloads::fse_kernels(&Preset::quick()).expect("kernels");
        let cfg = CampaignConfig {
            injections: 24,
            seed: 7,
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&kernels[0], Mode::Float, &cfg).unwrap();
        let par = crate::run_campaign_parallel(&kernels[0], Mode::Float, &cfg).unwrap();
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.records.len(), par.records.len());
        // Whole records: fault, category and outcome.
        assert_eq!(seq.records, par.records);
    }
}
