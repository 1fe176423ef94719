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
//! nearest one at or before each injection point, so a campaign costs
//! roughly `N × (golden / 2·checkpoints + survival tail)` instructions
//! instead of `N × golden`.
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
use nfp_sim::fault::{inject, plan, undo};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{
    Checkpoint, Dispatch, Fault, FaultSpace, FaultTarget, Machine, RunResult, SimError, Watchdog,
};
use nfp_sparc::Category;
use nfp_workloads::{machine_for, Kernel, KERNEL_BUDGET};
use std::time::Duration;

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

/// The golden run's observable outputs, used for classification.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GoldenOutput {
    exit_code: u32,
    words: Vec<u32>,
    text: String,
}

/// A campaign-ready machine: positioned at reset, recovery enabled,
/// with its checkpoint ladder and the golden reference attached.
/// `pub(crate)` so the [`crate::supervisor`] worker pool can replay
/// individual plan entries and sabotage replays for its test hooks.
pub(crate) struct CampaignRig {
    pub(crate) machine: Machine,
    checkpoints: Vec<Checkpoint>,
    golden: GoldenOutput,
    pub(crate) golden_instret: u64,
    golden_recovered_traps: u64,
    pub(crate) budget: u64,
    escalation: u32,
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

impl CampaignRig {
    /// Runs the golden pass and builds the checkpoint ladder. Returns
    /// the rig plus the fault space learned from the golden run (code
    /// extent and every RAM range the kernel loads or touches).
    pub(crate) fn prepare(
        kernel: &Kernel,
        mode: Mode,
        cfg: &CampaignConfig,
    ) -> Result<(Self, FaultSpace), NfpError> {
        // Golden pass: learn length, outputs, and the RAM footprint.
        let mut probe = fresh_machine(kernel, mode, cfg)?;
        let run = probe.run(KERNEL_BUDGET)?;
        if run.exit_code != 0 {
            return Err(NfpError::KernelFailed {
                kernel: format!("{}_{}", kernel.name, mode.suffix()),
                exit_code: run.exit_code,
            });
        }
        if run.words != kernel.expected_words {
            return Err(NfpError::OutputMismatch {
                kernel: format!("{}_{}", kernel.name, mode.suffix()),
            });
        }
        let golden_instret = run.instret;
        let mut ram_ranges = probe.bus.pristine_ranges();
        ram_ranges.extend(probe.bus.dirty_ranges());
        let space = FaultSpace {
            max_instret: golden_instret.saturating_sub(1),
            code_len: probe.code_len() as u32,
            ram_ranges: merge_ranges(ram_ranges),
            fp: probe.config().fpu_enabled,
        };

        // Checkpoint ladder along a fresh replay of the same path.
        let mut machine = fresh_machine(kernel, mode, cfg)?;
        let steps = cfg.checkpoints.max(1) as u64;
        let mut checkpoints = Vec::with_capacity(cfg.checkpoints);
        for i in 0..steps {
            machine.run_until(golden_instret * i / steps)?;
            checkpoints.push(machine.checkpoint());
        }

        let rig = CampaignRig {
            machine,
            checkpoints,
            golden: GoldenOutput {
                exit_code: run.exit_code,
                words: run.words,
                text: run.text,
            },
            golden_instret,
            golden_recovered_traps: run.recovered_traps,
            // Soft replay ceiling: twice the golden length plus
            // slack. The watchdog may escalate past it once (see
            // [`CampaignConfig::escalation`]) before declaring a hang.
            budget: 2 * golden_instret + 10_000,
            escalation: cfg.escalation.max(1),
        };
        Ok((rig, space))
    }

    /// Rewinds to the nearest checkpoint at or before `at` and replays
    /// up to it.
    pub(crate) fn seek(&mut self, at: u64) -> Result<(), NfpError> {
        let cp = self
            .checkpoints
            .iter()
            .rev()
            .find(|cp| cp.instret() <= at)
            .ok_or(NfpError::Empty {
                what: "checkpoint ladder",
            })?;
        self.machine.restore(cp);
        self.machine.run_until(at)?;
        Ok(())
    }

    /// Runs the fault-injected machine under the escalating watchdog:
    /// one soft instruction budget, then (if the soft budget — not a
    /// wall deadline — expired) up to `escalation − 1` more, then
    /// expiry stands and the replay is a hang. The wall deadline spans
    /// the *whole* escalating run, not one tier: escalation grants a
    /// hung replay more instructions, never more time.
    pub(crate) fn run_escalating(
        &mut self,
        soft: u64,
        wall: Option<Duration>,
    ) -> Result<RunResult, SimError> {
        let deadline = wall.map(|d| std::time::Instant::now() + d);
        let mut tier = 0;
        loop {
            let before = self.machine.instret();
            let run = self.machine.run_watchdog(&Watchdog {
                max_instrs: soft,
                wall: deadline.map(|d| d.saturating_duration_since(std::time::Instant::now())),
            });
            tier += 1;
            match run {
                Err(SimError::WatchdogExpired { .. })
                    // Wall expiry retires fewer than `soft` instructions;
                    // escalating would hand a hung replay a fresh
                    // deadline, so only budget expiry escalates.
                    if tier < self.escalation
                        && self.machine.instret().wrapping_sub(before) >= soft => {}
                other => return other,
            }
        }
    }

    /// Performs one injection and classifies the divergence.
    pub(crate) fn run_one(
        &mut self,
        fault: &Fault,
        wall: Option<Duration>,
    ) -> Result<InjectionRecord, NfpError> {
        self.seek(fault.at)?;
        // Attribute the injection to the instruction about to execute;
        // code faults are attributed to the instruction they corrupt.
        let category = match fault.target {
            FaultTarget::Code { index, .. } => self.machine.code_category(index as usize),
            _ => self.machine.next_category(),
        };
        let armed = inject(&mut self.machine, fault)?;
        let soft = self.budget.saturating_sub(fault.at).max(1);
        let run = self.run_escalating(soft, wall);
        undo(&mut self.machine, &armed)?;
        let outcome = match run {
            Ok(r) => {
                let matches = r.exit_code == self.golden.exit_code
                    && r.words == self.golden.words
                    && r.text == self.golden.text;
                if matches {
                    Outcome::Masked
                } else {
                    Outcome::Sdc
                }
            }
            Err(SimError::Trap(_)) | Err(SimError::UnknownSoftTrap { .. }) => Outcome::Trap,
            Err(SimError::WatchdogExpired { .. }) => Outcome::Hang,
            Err(e) => return Err(e.into()),
        };
        Ok(InjectionRecord {
            fault: *fault,
            category,
            outcome,
        })
    }
}

/// Runs a fault-injection campaign over one kernel variant.
pub fn run_campaign(
    kernel: &Kernel,
    mode: Mode,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, NfpError> {
    let (mut rig, space) = CampaignRig::prepare(kernel, mode, cfg)?;
    let faults = plan(&space, cfg.injections, cfg.seed);
    let mut records = Vec::with_capacity(faults.len());
    for fault in &faults {
        records.push(rig.run_one(fault, cfg.wall)?);
    }
    Ok(assemble(kernel, mode, &rig, records))
}

/// Like [`run_campaign`] but sweeping injections across worker threads.
/// Each worker replays the golden run on its own machine and processes
/// a contiguous chunk of the (deterministic) fault plan; the merged
/// result is identical to the sequential campaign's.
pub fn run_campaign_parallel(
    kernel: &Kernel,
    mode: Mode,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, NfpError> {
    use std::sync::Mutex;
    type ChunkSlot = Mutex<Option<Result<Vec<InjectionRecord>, NfpError>>>;

    let (rig, space) = CampaignRig::prepare(kernel, mode, cfg)?;
    let faults = plan(&space, cfg.injections, cfg.seed);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(faults.len().max(1));
    let chunk_len = faults.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[Fault]> = faults.chunks(chunk_len).collect();
    let slots: Vec<ChunkSlot> = chunks.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for (slot, chunk) in slots.iter().zip(&chunks) {
            scope.spawn(move || {
                let result = (|| {
                    let (mut rig, _) = CampaignRig::prepare(kernel, mode, cfg)?;
                    chunk.iter().map(|f| rig.run_one(f, cfg.wall)).collect()
                })();
                *slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });

    let mut records = Vec::with_capacity(faults.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let chunk = slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ok_or_else(|| NfpError::WorkerLost {
                job: format!(
                    "campaign chunk {i} of {}_{} ({} injections)",
                    kernel.name,
                    mode.suffix(),
                    chunks.get(i).map_or(0, |c| c.len())
                ),
            })??;
        records.extend(chunk);
    }
    Ok(assemble(kernel, mode, &rig, records))
}

pub(crate) fn assemble(
    kernel: &Kernel,
    mode: Mode,
    rig: &CampaignRig,
    records: Vec<InjectionRecord>,
) -> CampaignResult {
    let mut report = VulnerabilityReport::new();
    for r in &records {
        report.record(r.category, r.outcome);
    }
    CampaignResult {
        name: format!("{}_{}", kernel.name, mode.suffix()),
        golden_instret: rig.golden_instret,
        golden_recovered_traps: rig.golden_recovered_traps,
        report,
        records,
    }
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
    use nfp_workloads::Preset;

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
        let par = run_campaign_parallel(&kernels[0], Mode::Float, &cfg).unwrap();
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.records.len(), par.records.len());
        for (x, y) in seq.records.iter().zip(&par.records) {
            assert_eq!(x.outcome, y.outcome);
        }
    }
}
