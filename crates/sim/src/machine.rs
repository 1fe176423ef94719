//! The simulated machine: image loading, predecode, and the run loop.
//!
//! Loading an image predecodes every word once (the analogue of OVP's
//! morphing: the expensive decode happens once and execution dispatches
//! on the predecoded form). Per-category counters are incremented
//! inline in the run loop, not through callbacks, mirroring the
//! implementation note in Section III of the paper.

use crate::blocks::BlockCache;
use crate::bus::{Bus, BusFault, RamSnapshot, RAM_BASE};
use crate::cpu::Cpu;
use crate::exec::{step, ExecError, NullObserver, Observer, StepOut, Trap};
use crate::reads::{unit_reads, window_fixed, Image, LastReads};
use crate::threaded::{
    build_table, build_trace, run_tops, DecodedOp, TraceCache, TraceHalt, TraceSlot,
};
use nfp_sparc::{decode, Category, CategoryCounts, Instr};
use std::time::{Duration, Instant};

/// Software trap number used by programs to halt (`ta 0`); the exit
/// code is read from `%o0`.
pub const TRAP_EXIT: u32 = 0;

/// How often (in instructions) the run loop consults the wall clock
/// when a watchdog deadline is armed.
const WALL_CHECK_INTERVAL: u64 = 1 << 16;

/// What the machine does when an architectural trap fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TrapPolicy {
    /// Any trap aborts the run with [`SimError::Trap`]. This is the
    /// right model for verified, fault-free workloads.
    #[default]
    Abort,
    /// Recoverable traps vector through a minimal bare-metal handler
    /// model and execution resumes: window overflow spills the oldest
    /// frame, window underflow refills it, and misaligned data accesses
    /// are skipped. Fault-injection campaigns run under this policy so
    /// that an upset perturbs the program instead of killing the
    /// simulation. Unrecoverable traps still abort.
    Recover,
}

/// How the run loop executes instructions, observed
/// ([`Machine::run_observed`]) or not. Both modes are bit-identical,
/// down to what an [`Observer`] sums (enforced by the differential
/// suites); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dispatch {
    /// Architectural reference: fetch, match, and account one
    /// instruction at a time.
    Step,
    /// Superblock traces over the predecoded dispatch table: basic
    /// blocks chained across statically-predicted branches and delay
    /// slots, so hot loop iterations retire without returning to the
    /// dispatcher. Straight-line runs outside a trace go through the
    /// table one predecoded op per instruction, matched on its kind
    /// tag; block-ending instructions outside a trace fall back to the
    /// step path (DESIGN.md §13). An attached observer runs traced
    /// only if it is a ledger ([`Observer::LEDGER`]); a record observer
    /// steps.
    #[default]
    Traced,
}

impl Dispatch {
    /// Both modes, in reference-first order (differential suites sweep
    /// this).
    pub const ALL: [Dispatch; 2] = [Dispatch::Step, Dispatch::Traced];

    /// Stable lowercase name (the `--dispatch` flag).
    pub fn as_str(self) -> &'static str {
        match self {
            Dispatch::Step => "step",
            Dispatch::Traced => "traced",
        }
    }

    /// Parses [`Dispatch::as_str`] output.
    pub fn parse(s: &str) -> Option<Dispatch> {
        Dispatch::ALL.into_iter().find(|d| d.as_str() == s)
    }
}

impl std::fmt::Display for Dispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// RAM size in bytes.
    pub ram_size: u32,
    /// Whether the FPU is present (Table IV's design choice).
    pub fpu_enabled: bool,
    /// Whether per-category counters are maintained. Disabling them
    /// gives the "plain ISS" point of the paper's Fig. 1.
    pub count_categories: bool,
    /// Trap handling policy (see [`TrapPolicy`]).
    pub trap_policy: TrapPolicy,
    /// Execution strategy of every run but one with a record observer,
    /// which steps (see [`Dispatch`]). Both modes are bit-identical, so
    /// this is a local speed choice that no result depends on; the step
    /// path remains the reference, and traced dispatch uses it at
    /// block-ending instructions outside a trace, in delay slots,
    /// outside the loaded image, and to re-present instructions after a
    /// mid-block trap.
    pub dispatch: Dispatch,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            ram_size: crate::bus::DEFAULT_RAM_SIZE,
            fpu_enabled: true,
            count_categories: true,
            trap_policy: TrapPolicy::Abort,
            dispatch: Dispatch::Traced,
        }
    }
}

/// Counts of traps absorbed by the bare-metal handler model under
/// [`TrapPolicy::Recover`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrapStats {
    /// Window-overflow traps resolved by spilling the oldest frame.
    pub overflow_spills: u64,
    /// Window-underflow traps refilled from the spill stack.
    pub underflow_fills: u64,
    /// Window-underflow traps with an empty spill stack (corrupted
    /// control flow); the window keeps stale contents.
    pub underflow_stale: u64,
    /// Misaligned data accesses skipped by the handler model.
    pub misaligned_skips: u64,
}

impl TrapStats {
    /// Total traps absorbed.
    pub fn total(&self) -> u64 {
        self.overflow_spills + self.underflow_fills + self.underflow_stale + self.misaligned_skips
    }
}

/// Run-length limits enforced by [`Machine::run_watchdog`]: a hard
/// instruction budget (deterministic) plus an optional wall-clock
/// deadline as a safety net against simulator-level slowdowns. Either
/// expiring yields [`SimError::WatchdogExpired`].
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    /// Maximum further instructions to execute.
    pub max_instrs: u64,
    /// Optional wall-clock deadline, checked every
    /// `WALL_CHECK_INTERVAL` instructions.
    pub wall: Option<Duration>,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The program executed `ta 0`; carries `%o0` as exit code.
    Halted(u32),
}

/// Simulation-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SimError {
    /// An architectural trap with no bare-metal handler.
    Trap(Trap),
    /// A software trap number the host does not implement.
    UnknownSoftTrap { pc: u32, trap: u32 },
    /// The instruction budget ran out before the program halted.
    BudgetExhausted { limit: u64 },
    /// A watchdog (instruction budget or wall-clock deadline) cut the
    /// run short; the program is considered hung.
    WatchdogExpired { instret: u64 },
    /// [`Machine::run_until`] halted before reaching its target
    /// instruction count.
    HaltedEarly { instret: u64 },
    /// An image load or patch touched memory outside RAM.
    BadAddress(BusFault),
    /// A code patch referenced an instruction index outside the image.
    BadCodeIndex { index: usize, len: usize },
    /// A block-ending instruction was dispatched through a linear
    /// execution path: the dispatch table (or block cache) disagrees
    /// with the instruction stream. This is a simulator-integrity
    /// violation, reported as a typed error instead of a panic.
    DispatchViolation { pc: u32 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Trap(t) => write!(f, "unhandled trap: {t}"),
            SimError::UnknownSoftTrap { pc, trap } => {
                write!(f, "unknown software trap {trap} at 0x{pc:08x}")
            }
            SimError::BudgetExhausted { limit } => {
                write!(f, "instruction budget of {limit} exhausted")
            }
            SimError::WatchdogExpired { instret } => {
                write!(f, "watchdog expired after {instret} instructions")
            }
            SimError::HaltedEarly { instret } => {
                write!(
                    f,
                    "program halted after {instret} instructions, before the replay target"
                )
            }
            SimError::BadAddress(fault) => write!(f, "bad address: {fault}"),
            SimError::BadCodeIndex { index, len } => {
                write!(
                    f,
                    "code index {index} out of range for image of {len} instructions"
                )
            }
            SimError::DispatchViolation { pc } => {
                write!(
                    f,
                    "block-ending instruction dispatched as linear at 0x{pc:08x}: \
                     corrupted dispatch table"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<Trap> for SimError {
    fn from(t: Trap) -> Self {
        SimError::Trap(t)
    }
}

impl From<BusFault> for SimError {
    fn from(f: BusFault) -> Self {
        SimError::BadAddress(f)
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exit code passed to `ta 0` in `%o0`.
    pub exit_code: u32,
    /// Dynamic instruction count.
    pub instret: u64,
    /// Per-category counts (all zero if counting was disabled).
    pub counts: CategoryCounts,
    /// Console text output.
    pub text: String,
    /// Structured result words emitted by the program.
    pub words: Vec<u32>,
    /// Traps absorbed by the recovery model during this machine's
    /// lifetime (zero under [`TrapPolicy::Abort`]).
    pub recovered_traps: u64,
}

/// A point-in-time capture of the full machine state, sufficient to
/// rewind with [`Machine::restore`]. Only valid on the machine that
/// created it, or on one loaded with the same images (the RAM snapshot
/// is relative to the boot images).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    cpu: Cpu,
    instret: u64,
    counts: CategoryCounts,
    trap_stats: TrapStats,
    ram: RamSnapshot,
    /// The console's output so far. Kept whole, not as lengths: a
    /// replay that diverged may have printed other bytes where the
    /// captured run printed these.
    text: String,
    words: Vec<u32>,
}

impl Checkpoint {
    /// Instruction count at capture time.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// [`Cpu::window_ops`] at capture time.
    pub fn window_ops(&self) -> u64 {
        self.cpu.window_ops()
    }
}

/// A loaded machine ready to run.
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: Cpu,
    /// Memory and devices.
    pub bus: Bus,
    config: MachineConfig,
    code_base: u32,
    code: Vec<(Instr, Category)>,
    /// Traced dispatch's structures over `code`; `None` when stale
    /// (image loaded or patched since the last build) — rebuilt lazily
    /// by the next traced run.
    fast: Option<FastPath>,
    counts: CategoryCounts,
    instret: u64,
    trap_stats: TrapStats,
    dispatch_stats: DispatchStats,
}

/// Everything traced dispatch derives from the predecoded image, so
/// all of it goes stale together.
struct FastPath {
    /// Block summaries: the traces' segmentation, and the straight-line
    /// fallback's run ends and counts.
    blocks: BlockCache,
    /// Dispatch table, one predecoded op per image instruction.
    table: Vec<DecodedOp>,
    /// Superblock traces keyed by block-leader index, built lazily per
    /// trace head.
    traces: TraceCache,
}

impl FastPath {
    fn build(code: &[(Instr, Category)], base: u32, fpu: bool) -> Self {
        FastPath {
            blocks: BlockCache::build(code),
            table: build_table(code, base, fpu),
            traces: TraceCache::new(code, base),
        }
    }
}

/// How many instructions each dispatch path retired (diagnostics for
/// the speed work: a traced run whose `traced` share is low says the
/// trace builder is bailing, not that traces are slow).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStats {
    /// Retired inside superblock traces.
    pub traced: u64,
    /// Retired in straight-line runs through the threaded dispatch
    /// table outside any trace (a block with no trace, or one whose
    /// trace does not fit the remaining budget).
    pub batched: u64,
    /// Retired on the per-instruction step path.
    pub stepped: u64,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            cpu: Cpu::new(),
            bus: Bus::with_ram(RAM_BASE, config.ram_size),
            config,
            code_base: RAM_BASE,
            code: Vec::new(),
            fast: None,
            counts: CategoryCounts::new(),
            instret: 0,
            trap_stats: TrapStats::default(),
            dispatch_stats: DispatchStats::default(),
        }
    }

    /// Per-dispatch-path retirement counters accumulated across runs.
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch_stats
    }

    /// The active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Switches the trap handling policy; takes effect from the next
    /// trap.
    pub fn set_trap_policy(&mut self, policy: TrapPolicy) {
        self.config.trap_policy = policy;
    }

    /// Switches the execution strategy (see [`Dispatch`]); takes
    /// effect from the next run.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        self.config.dispatch = dispatch;
    }

    /// Traps absorbed by the recovery model so far.
    pub fn trap_stats(&self) -> &TrapStats {
        &self.trap_stats
    }

    /// Loads `words` at `base`, predecodes them, sets the entry point
    /// to `base`, and initialises the stack pointer below the top of
    /// RAM. Fails with [`SimError::BadAddress`] if the image does not
    /// fit in RAM, is not word-aligned, or overlaps a segment loaded
    /// earlier (all reported as typed errors — a malformed image must
    /// never panic the simulator).
    pub fn load_image(&mut self, base: u32, words: &[u32]) -> Result<(), SimError> {
        // The fast fetch path and the block cache both derive the
        // predecode index as (pc - base) / 4; an unaligned base would
        // silently alias indices, so reject it up front.
        if !base.is_multiple_of(4) {
            return Err(SimError::BadAddress(BusFault::Misaligned {
                addr: base,
                size: 4,
            }));
        }
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        self.bus.write_bytes(base, &bytes)?;
        self.code_base = base;
        self.code = words
            .iter()
            .map(|&w| {
                let i = decode(w);
                let c = i.category();
                (i, c)
            })
            .collect();
        self.fast = None;
        self.cpu.pc = base;
        self.cpu.npc = base.wrapping_add(4);
        // Stack: top of RAM minus a red zone, 8-byte aligned.
        let sp = (RAM_BASE + self.config.ram_size - 4096) & !7;
        self.cpu.set(nfp_sparc::regs::SP, sp);
        Ok(())
    }

    /// Convenience constructor: default config, image at the RAM base.
    /// Panics if the image does not fit in the default 64 MiB RAM (test
    /// and example use; production callers go through [`Machine::new`]
    /// + [`Machine::load_image`]).
    pub fn boot(words: &[u32]) -> Self {
        let mut m = Machine::new(MachineConfig::default());
        m.load_image(RAM_BASE, words)
            .expect("boot image exceeds default RAM");
        m
    }

    /// Base address of the predecoded image.
    pub fn code_base(&self) -> u32 {
        self.code_base
    }

    /// Length of the predecoded image in instructions.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Category of the predecoded instruction at `index`, if in range.
    pub fn code_category(&self, index: usize) -> Option<Category> {
        self.code.get(index).map(|&(_, c)| c)
    }

    /// Category of the instruction the machine would execute next, or
    /// `None` if fetching it would trap.
    pub fn next_category(&mut self) -> Option<Category> {
        self.fetch(self.cpu.pc).ok().map(|(_, c)| c)
    }

    /// Replaces the instruction word at `index` in the loaded image:
    /// both the RAM copy and the predecoded form. Returns the previous
    /// word. This is the hook fault injection uses to corrupt the
    /// instruction stream; the RAM write is dirty-tracked, so a later
    /// [`Machine::restore`] rewinds it, but the predecode must be
    /// undone explicitly by patching the old word back.
    pub fn patch_code_word(&mut self, index: usize, word: u32) -> Result<u32, SimError> {
        if index >= self.code.len() {
            return Err(SimError::BadCodeIndex {
                index,
                len: self.code.len(),
            });
        }
        let addr = self.code_base + (index as u32) * 4;
        let old = self.bus.load32(addr)?;
        self.bus.store32(addr, word)?;
        let i = decode(word);
        self.code[index] = (i, i.category());
        // The patched word may create or remove a block boundary, so
        // every cached block summary, dispatch-table entry, and trace
        // crossing it is stale; drop them all and let the next traced
        // run rebuild them. This is the invalidation
        // that keeps fault-injection code flips bit-identical across
        // dispatch modes.
        self.fast = None;
        Ok(old)
    }

    /// The predecoded `(instruction, category)` entry at `index` — the
    /// exact pair `Machine::fetch` would serve — or `None` out of
    /// range. Fault injection captures this before a code patch so the
    /// undo can restore it verbatim via [`Machine::set_code_entry`].
    pub fn code_entry(&self, index: usize) -> Option<(Instr, Category)> {
        self.code.get(index).copied()
    }

    /// Restores a predecoded entry captured by [`Machine::code_entry`],
    /// without re-decoding the RAM word. [`Machine::patch_code_word`]
    /// derives the entry from the word it writes, which is right for a
    /// fresh patch but wrong for an *undo*: when the patched address
    /// holds a data word inside the image that the kernel has since
    /// overwritten, decode(runtime word) need not equal the boot-image
    /// entry that was there before the patch, and re-deriving it would
    /// drift the predecode — a rig replaying the same code fault twice
    /// would then attribute two different categories. Drops the same
    /// derived caches as a patch.
    pub fn set_code_entry(
        &mut self,
        index: usize,
        entry: (Instr, Category),
    ) -> Result<(), SimError> {
        if index >= self.code.len() {
            return Err(SimError::BadCodeIndex {
                index,
                len: self.code.len(),
            });
        }
        self.code[index] = entry;
        self.fast = None;
        Ok(())
    }

    /// Captures the full machine state for a later [`Machine::restore`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            cpu: self.cpu.clone(),
            instret: self.instret,
            counts: self.counts,
            trap_stats: self.trap_stats,
            ram: self.bus.snapshot_ram(),
            text: self.bus.console.text.clone(),
            words: self.bus.console.words.clone(),
        }
    }

    /// Rewinds the machine to `cp` (see [`Checkpoint`] for which
    /// machines it is valid on). Note this does not undo
    /// [`Machine::patch_code_word`] effects on the *predecoded* image —
    /// callers that patch code must restore the original entry
    /// themselves (the RAM copy is rewound).
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.cpu = cp.cpu.clone();
        self.instret = cp.instret;
        self.counts = cp.counts;
        self.trap_stats = cp.trap_stats;
        self.bus.restore_ram(&cp.ram);
        self.bus.console.text.clone_from(&cp.text);
        self.bus.console.words.clone_from(&cp.words);
    }

    /// Whether this machine has rejoined, at `cp`, the run `cp` was
    /// captured from: the same instruction count; the same pc, npc,
    /// current-window registers, window pointer and depth, condition
    /// codes, `%y` and FP registers; the same RAM contents (only pages
    /// dirty on either side are visited); and the same console output.
    /// The simulator is deterministic, so a machine executing the same
    /// predecoded image as that run goes on to do exactly what the run
    /// did after `cp`. Category counts and trap statistics are tallies
    /// the run never reads, and are left out.
    ///
    /// `end_window_ops` is [`Cpu::window_ops`] where the captured run
    /// ended. If it equals the checkpoint's, the run did no window
    /// operation after `cp`, and the registers of the other windows
    /// (all but the current window's ins, locals and outs), and the
    /// spill stack, are left out too: neither machine reads them before
    /// its next window operation, and while the two agree on everything
    /// else, this machine does its next one when the run does, which is
    /// never.
    pub fn rejoins(&self, cp: &Checkpoint, end_window_ops: u64) -> bool {
        self.instret == cp.instret
            && self
                .cpu
                .same_state(&cp.cpu, cp.window_ops() != end_window_ops)
            && self.bus.console.text == cp.text
            && self.bus.console.words == cp.words
            && self.bus.ram_matches(&cp.ram)
    }

    /// Dynamic instruction count so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Per-category counters ("the simulator reads out these registers
    /// and presents the results", paper §III).
    pub fn counts(&self) -> &CategoryCounts {
        &self.counts
    }

    /// Fetches the predecoded instruction at `pc`, falling back to
    /// decoding from memory for execution outside the loaded image.
    #[inline]
    fn fetch(&mut self, pc: u32) -> Result<(Instr, Category), Trap> {
        let idx = pc.wrapping_sub(self.code_base) as usize / 4;
        if pc.is_multiple_of(4) && pc >= self.code_base && idx < self.code.len() {
            Ok(self.code[idx])
        } else {
            self.fetch_slow(pc)
        }
    }

    #[cold]
    fn fetch_slow(&mut self, pc: u32) -> Result<(Instr, Category), Trap> {
        if !pc.is_multiple_of(4) {
            return Err(Trap::Misaligned {
                pc,
                addr: pc,
                size: 4,
            });
        }
        let word = self
            .bus
            .load32(pc)
            .map_err(|_| Trap::Unmapped { pc, addr: pc })?;
        let i = decode(word);
        Ok((i, i.category()))
    }

    /// Runs until the program halts, an error occurs, or `max_instrs`
    /// instructions have executed, without an observer (fast path,
    /// dispatched per [`MachineConfig::dispatch`]).
    pub fn run(&mut self, max_instrs: u64) -> Result<RunResult, SimError> {
        self.run_inner::<true, _>(max_instrs, None, false, &mut NullObserver)
    }

    /// Runs with an [`Observer`] attached (the detailed hardware model
    /// attaches here). A ledger ([`Observer::LEDGER`]) is dispatched per
    /// [`MachineConfig::dispatch`] like [`Machine::run`], and gets the
    /// same sums under either mode. Records come only from stepping: a
    /// record observer always steps, and receives one
    /// [`ExecInfo`](crate::ExecInfo) per retired instruction.
    pub fn run_observed<O: Observer>(
        &mut self,
        max_instrs: u64,
        obs: &mut O,
    ) -> Result<RunResult, SimError> {
        // Decided per observer type, so a record observer's run loop
        // carries no trace code.
        if O::LEDGER {
            self.run_inner::<true, O>(max_instrs, None, false, obs)
        } else {
            self.run_inner::<false, O>(max_instrs, None, false, obs)
        }
    }

    /// Runs under a [`Watchdog`]: budget or deadline expiry yields
    /// [`SimError::WatchdogExpired`] instead of `BudgetExhausted`, so a
    /// fault-injected run that never halts is reported as a hang rather
    /// than a harness misconfiguration.
    pub fn run_watchdog(&mut self, wd: &Watchdog) -> Result<RunResult, SimError> {
        let deadline = wd.wall.map(|d| Instant::now() + d);
        self.run_inner::<true, _>(wd.max_instrs, deadline, true, &mut NullObserver)
    }

    /// Replays execution until the dynamic instruction count reaches
    /// `target`. Used by fault campaigns to position the machine at an
    /// injection point; the program halting first is an error
    /// ([`SimError::HaltedEarly`]). Traced dispatch clamps its batches
    /// to the remaining budget, so the machine stops at *exactly*
    /// `target` retired instructions — a fault plan aimed at an
    /// instant inside a block still injects at the precise instruction.
    pub fn run_until(&mut self, target: u64) -> Result<(), SimError> {
        if target <= self.instret {
            return Ok(());
        }
        match self.run_inner::<true, _>(target - self.instret, None, false, &mut NullObserver) {
            Err(SimError::BudgetExhausted { .. }) => Ok(()),
            Ok(_) => Err(SimError::HaltedEarly {
                instret: self.instret,
            }),
            Err(e) => Err(e),
        }
    }

    /// Runs like [`Machine::run`], but under [`Dispatch::Step`], noting
    /// in `last` what each instruction index reads of the locations a
    /// fault can hit (see [`crate::reads`]): afterwards `last` holds, for
    /// each, the last index at which the run read it. An index is a
    /// retired instruction or a trap the recovery model absorbed. The
    /// run goes in batches, each one [`Machine::run`], so the run loop is
    /// the plain one: the next index, then, while control flows straight
    /// on inside the image, each following instruction whose reads the
    /// state before the batch fixes: no load, `save`, `restore` or
    /// `t<cond>`. An index a batch
    /// does not reach, the run having ended before it, is noted as read
    /// all the same.
    pub fn run_recording(
        &mut self,
        max_instrs: u64,
        last: &mut LastReads,
    ) -> Result<RunResult, SimError> {
        let dispatch = std::mem::replace(&mut self.config.dispatch, Dispatch::Step);
        let image = Image::of(self);
        let limit = self.instret.saturating_add(max_instrs);
        let end = loop {
            let left = limit.saturating_sub(self.instret);
            if left == 0 {
                break Err(SimError::BudgetExhausted { limit: max_instrs });
            }
            let (pc, at) = (self.cpu.pc, self.instret);
            let mut batch = 1;
            match image
                .index(pc)
                .filter(|_| self.cpu.npc == pc.wrapping_add(4))
            {
                Some(first) => {
                    for (i, &(instr, _)) in self.code[first as usize..].iter().enumerate() {
                        let n = i as u64;
                        if n > 0 && !window_fixed(&instr) {
                            break;
                        }
                        let pc = pc.wrapping_add(4 * i as u32);
                        unit_reads(image, pc, &self.cpu, &instr, &mut last.at(at + n));
                        batch = n + 1;
                        let moves = matches!(instr, Instr::Save { .. } | Instr::Restore { .. });
                        if batch == left || instr.ends_block() || moves {
                            break;
                        }
                    }
                }
                // A fetch that traps reads nothing.
                None => {
                    if let Ok((instr, _)) = self.fetch(pc) {
                        unit_reads(image, pc, &self.cpu, &instr, &mut last.at(at));
                    }
                }
            }
            match self.run(batch) {
                Err(SimError::BudgetExhausted { .. }) => {}
                end => break end,
            }
        };
        self.config.dispatch = dispatch;
        end
    }

    /// The run loop; `MAY_TRACE` says whether `obs` may run traced,
    /// when the machine's dispatch is [`Dispatch::Traced`]. Without it
    /// the loop only steps, and its trace code is not compiled in.
    fn run_inner<const MAY_TRACE: bool, O: Observer>(
        &mut self,
        max_instrs: u64,
        deadline: Option<Instant>,
        watchdog: bool,
        obs: &mut O,
    ) -> Result<RunResult, SimError> {
        let counting = self.config.count_categories;
        let fpu = self.config.fpu_enabled;
        let recover = self.config.trap_policy == TrapPolicy::Recover;
        let limit = self.instret.saturating_add(max_instrs);
        let traced = MAY_TRACE && self.config.dispatch == Dispatch::Traced;
        if traced && self.fast.is_none() && !self.code.is_empty() {
            self.fast = Some(FastPath::build(&self.code, self.code_base, fpu));
        }
        // Next instret at which an armed wall-clock deadline is
        // consulted (batches can jump past exact interval multiples).
        let mut wall_check_at = self.instret;
        loop {
            if self.instret >= limit {
                return Err(if watchdog {
                    SimError::WatchdogExpired {
                        instret: self.instret,
                    }
                } else {
                    SimError::BudgetExhausted { limit: max_instrs }
                });
            }
            if let Some(dl) = deadline {
                if self.instret >= wall_check_at {
                    if Instant::now() >= dl {
                        return Err(SimError::WatchdogExpired {
                            instret: self.instret,
                        });
                    }
                    wall_check_at = self.instret + WALL_CHECK_INTERVAL;
                }
            }
            // `MAY_TRACE` first: a false constant drops the branch, and
            // the trace loops' instances for `O` with it.
            if MAY_TRACE && traced {
                let pc = self.cpu.pc;
                let idx = pc.wrapping_sub(self.code_base) as usize / 4;
                // Batch only from a sequential state (npc = pc + 4)
                // inside the image; a pending delay-slot target or
                // out-of-image execution falls back to stepping.
                if pc.is_multiple_of(4)
                    && pc >= self.code_base
                    && idx < self.code.len()
                    && self.cpu.npc == pc.wrapping_add(4)
                {
                    // Try a superblock first. Traces are built lazily
                    // at block-leader indices; a trace is only entered
                    // when it fits whole in the remaining budget, so
                    // run_until() exactness is unaffected.
                    let fast = self.fast.as_mut().expect("built above");
                    if fast.traces.is_head(idx) {
                        if fast.traces.is_untried(idx) {
                            let slot = build_trace(
                                &self.code,
                                self.code_base,
                                &fast.blocks,
                                &fast.table,
                                fpu,
                                idx,
                            );
                            fast.traces.set(idx, slot);
                        }
                        if let TraceSlot::Present(trace) = fast.traces.slot(idx) {
                            if (trace.len() as u64) <= limit - self.instret {
                                let halt = trace.run(&mut self.cpu, &mut self.bus, obs);
                                let retired = halt.retired(trace.len());
                                // (pc/npc to set, error)
                                let (state, err) = match halt {
                                    TraceHalt::Completed => {
                                        let e = trace.end_pc();
                                        (Some((e, e.wrapping_add(4))), None)
                                    }
                                    // The guard wrote the side-exit
                                    // pc/npc itself.
                                    TraceHalt::Exited { .. } => (None, None),
                                    TraceHalt::Trapped { at, err } => {
                                        (Some(trace.meta(at)), Some(err))
                                    }
                                };
                                let delta = trace.counts_upto(retired);
                                self.instret += retired as u64;
                                self.dispatch_stats.traced += retired as u64;
                                if counting {
                                    self.counts = self.counts.merged(&delta);
                                }
                                if let Some((p, n)) = state {
                                    self.cpu.pc = p;
                                    self.cpu.npc = n;
                                }
                                if let Some(e) = err {
                                    self.settle(e, recover)?;
                                }
                                continue;
                            }
                        }
                    }
                    let run_end = fast.blocks.run_end(idx);
                    // Clamp to the budget so run_until() still stops at
                    // an exact instruction count mid-block.
                    let take = ((run_end - idx) as u64).min(limit - self.instret) as usize;
                    let end = idx + take;
                    if end > idx {
                        // Straight-line run through the dispatch table:
                        // one predecoded op per instruction, zero
                        // decode or re-match — each executed by the
                        // kind-tag match at the dispatch site.
                        let (done, pending) = run_tops(
                            &fast.table,
                            &fast.blocks,
                            idx,
                            end,
                            &mut self.cpu,
                            &mut self.bus,
                            obs,
                        );
                        let j = idx + done;
                        // Commit the completed prefix [idx, j) in one
                        // batch: linear execution leaves pc/npc
                        // untouched, so on a trap the machine state is
                        // exactly what stepping would have left — pc
                        // at the faulting instruction, nothing of it
                        // counted.
                        if j > idx {
                            self.instret += (j - idx) as u64;
                            self.dispatch_stats.batched += (j - idx) as u64;
                            if counting {
                                let delta = fast.blocks.range_counts(idx, j);
                                self.counts = self.counts.merged(&delta);
                            }
                            self.cpu.pc = self.code_base.wrapping_add((j as u32) * 4);
                            self.cpu.npc = self.cpu.pc.wrapping_add(4);
                        }
                        if let Some(e) = pending {
                            self.settle(e, recover)?;
                        }
                        continue;
                    }
                    // take == 0: the next instruction ends a block
                    // (CTI or t<cond>) — step it below with full
                    // per-instruction accounting.
                }
            }
            // Fetch traps (misaligned or unmapped pc) are always fatal:
            // there is no sensible instruction to resume past.
            let (instr, cat) = self.fetch(self.cpu.pc)?;
            let outcome = match step(&mut self.cpu, &mut self.bus, &instr, fpu, obs) {
                Ok(o) => o,
                Err(trap) => {
                    if recover && self.try_recover(&trap) {
                        continue;
                    }
                    return Err(trap.into());
                }
            };
            self.instret += 1;
            self.dispatch_stats.stepped += 1;
            if counting {
                self.counts.bump(cat);
            }
            match outcome {
                StepOut::Normal => {}
                StepOut::SoftTrap(TRAP_EXIT) => {
                    let exit_code = self.cpu.get(nfp_sparc::Reg::o(0));
                    return Ok(RunResult {
                        exit_code,
                        instret: self.instret,
                        counts: self.counts,
                        text: self.bus.console.text.clone(),
                        words: self.bus.console.words.clone(),
                        recovered_traps: self.trap_stats.total(),
                    });
                }
                StepOut::SoftTrap(trap) => {
                    return Err(SimError::UnknownSoftTrap {
                        pc: self.cpu.pc,
                        trap,
                    });
                }
            }
        }
    }

    /// Settles a linear-dispatch execution error: architectural traps
    /// go through the recovery model (exactly like the step path),
    /// while routing violations — a block-ending instruction executed
    /// through a linear path, i.e. a corrupted dispatch table — are
    /// surfaced as [`SimError::DispatchViolation`]. `Ok(())` means the
    /// trap was absorbed and the run loop should continue.
    fn settle(&mut self, e: ExecError, recover: bool) -> Result<(), SimError> {
        match e {
            ExecError::Trap(t) => {
                if recover && self.try_recover(&t) {
                    Ok(())
                } else {
                    Err(t.into())
                }
            }
            ExecError::NotLinear { pc } => Err(SimError::DispatchViolation { pc }),
        }
    }

    /// Test hook: corrupts the threaded dispatch-table entry at code
    /// index `index` so it reports a routing violation when executed,
    /// simulating a fault-flipped or inconsistent dispatch table.
    /// Returns `false` (and does nothing) if the index is out of range
    /// or names a block-ending instruction (whose entry is *expected*
    /// to be non-linear). The traces are reset so they rebuild from
    /// the corrupted table — a corrupted entry mid-superblock must
    /// surface identically. The corruption lasts until the next image
    /// load or code patch rebuilds the caches.
    #[doc(hidden)]
    pub fn test_corrupt_dispatch(&mut self, index: usize) -> bool {
        if index >= self.code.len() || self.code[index].0.ends_block() {
            return false;
        }
        let fpu = self.config.fpu_enabled;
        let fast = self
            .fast
            .get_or_insert_with(|| FastPath::build(&self.code, self.code_base, fpu));
        // A fresh entry is the routing-violation stub a block ender holds.
        fast.table[index] = DecodedOp::at(fast.table[index].pc);
        fast.traces = TraceCache::new(&self.code, self.code_base);
        true
    }

    /// The bare-metal trap handler model: absorbs recoverable traps,
    /// charging one instruction each so the watchdog still makes
    /// progress through trap storms. Returns `false` for traps the
    /// model cannot handle; `step` leaves `pc`/`npc` untouched on a
    /// trap, so on `true` the loop either retries the faulting
    /// instruction (window traps, now resolvable) or resumes past it
    /// (misaligned access).
    fn try_recover(&mut self, trap: &Trap) -> bool {
        let handled = match trap {
            Trap::WindowOverflow { .. } => {
                if !self.cpu.window_spill() {
                    return false; // spill stack exhausted
                }
                self.trap_stats.overflow_spills += 1;
                true
            }
            Trap::WindowUnderflow { .. } => {
                if self.cpu.window_fill() {
                    self.trap_stats.underflow_fills += 1;
                } else {
                    self.trap_stats.underflow_stale += 1;
                }
                true
            }
            Trap::Misaligned { .. } => {
                // Skip the faulting instruction, as a handler that
                // emulates-and-returns would.
                self.cpu.pc = self.cpu.npc;
                self.cpu.npc = self.cpu.npc.wrapping_add(4);
                self.trap_stats.misaligned_skips += 1;
                true
            }
            _ => false,
        };
        if handled {
            self.instret += 1;
        }
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::cond::ICond;
    use nfp_sparc::regs::G0;
    use nfp_sparc::{AluOp, Reg};

    fn run_asm(build: impl FnOnce(&mut Assembler)) -> RunResult {
        let mut a = Assembler::new(RAM_BASE);
        build(&mut a);
        let words = a.finish().expect("assembly failed");
        let mut m = Machine::boot(&words);
        m.run(1_000_000).expect("run failed")
    }

    #[test]
    fn exit_code_comes_from_o0() {
        let r = run_asm(|a| {
            a.mov(42, Reg::o(0));
            a.ta(0);
            a.nop();
        });
        assert_eq!(r.exit_code, 42);
        assert_eq!(r.instret, 2);
    }

    #[test]
    fn counted_loop_has_expected_category_counts() {
        // for (i = 10; i != 0; i--) {}  -- 10 iterations
        let r = run_asm(|a| {
            a.mov(10, Reg::l(0));
            a.label("loop");
            a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
            a.b(ICond::Ne, "loop");
            a.nop();
            a.mov(0, Reg::o(0));
            a.ta(0);
            a.nop();
        });
        // 1 mov + 10 subcc + 10 branches + 10 delay nops + 1 mov + 1 ta
        assert_eq!(r.counts[Category::IntArith], 12);
        assert_eq!(r.counts[Category::Jump], 10);
        assert_eq!(r.counts[Category::Nop], 10);
        assert_eq!(r.counts[Category::Other], 1);
        assert_eq!(r.instret, 33);
    }

    #[test]
    fn console_output() {
        let r = run_asm(|a| {
            a.set32(crate::bus::CONSOLE_TX, Reg::l(0));
            a.mov(b'O' as i32, Reg::l(1));
            a.st(nfp_sparc::MemSize::Word, Reg::l(1), Reg::l(0), 0);
            a.mov(b'K' as i32, Reg::l(1));
            a.st(nfp_sparc::MemSize::Word, Reg::l(1), Reg::l(0), 0);
            a.mov(7, Reg::l(1));
            a.st(nfp_sparc::MemSize::Word, Reg::l(1), Reg::l(0), 4);
            a.mov(0, Reg::o(0));
            a.ta(0);
            a.nop();
        });
        assert_eq!(r.text, "OK");
        assert_eq!(r.words, vec![7]);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut a = Assembler::new(RAM_BASE);
        a.label("spin").ba("spin").nop();
        let words = a.finish().unwrap();
        let mut m = Machine::boot(&words);
        assert!(matches!(
            m.run(100),
            Err(SimError::BudgetExhausted { limit: 100 })
        ));
    }

    #[test]
    fn unhandled_trap_is_an_error() {
        let mut m = Machine::boot(&[0]); // unimp 0
        assert!(matches!(
            m.run(10),
            Err(SimError::Trap(Trap::Illegal { .. }))
        ));
    }

    #[test]
    fn unknown_soft_trap_is_an_error() {
        let mut a = Assembler::new(RAM_BASE);
        a.ta(99).nop();
        let words = a.finish().unwrap();
        let mut m = Machine::boot(&words);
        assert!(matches!(
            m.run(10),
            Err(SimError::UnknownSoftTrap { trap: 99, .. })
        ));
    }

    #[test]
    fn call_and_retl() {
        let r = run_asm(|a| {
            a.mov(5, Reg::o(0));
            a.call("double_it");
            a.nop();
            a.ta(0);
            a.nop();
            a.label("double_it");
            a.alu(AluOp::Add, Reg::o(0), Operand::Reg(Reg::o(0)), Reg::o(0));
            a.retl();
            a.nop();
        });
        assert_eq!(r.exit_code, 10);
    }

    use nfp_sparc::Operand;

    #[test]
    fn counting_can_be_disabled() {
        let mut a = Assembler::new(RAM_BASE);
        a.mov(0, Reg::o(0)).ta(0).nop();
        let words = a.finish().unwrap();
        let mut m = Machine::new(MachineConfig {
            count_categories: false,
            ..MachineConfig::default()
        });
        m.load_image(RAM_BASE, &words).unwrap();
        let r = m.run(100).unwrap();
        assert_eq!(r.counts.total(), 0);
        assert_eq!(r.instret, 2);
    }

    #[test]
    fn stack_pointer_is_initialised() {
        let mut m = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        m.load_image(RAM_BASE, &[0x0100_0000]).unwrap();
        let sp = m.cpu.get(nfp_sparc::regs::SP);
        assert_eq!(sp % 8, 0);
        assert!(sp > RAM_BASE && sp < RAM_BASE + (1 << 20));
    }

    fn deep_window_program() -> Vec<u32> {
        // 7 in %l0 of window 0; NWINDOWS saves (two past the overflow
        // point), clobber the deep window's %l0, unwind, and return
        // window 0's %l0 — which survives only if the handler model
        // spills and refills it correctly.
        let mut a = Assembler::new(RAM_BASE);
        a.mov(7, Reg::l(0));
        for _ in 0..crate::cpu::NWINDOWS {
            a.push(Instr::Save {
                rd: G0,
                rs1: G0,
                op2: Operand::Imm(0),
            });
        }
        a.mov(99, Reg::l(0));
        for _ in 0..crate::cpu::NWINDOWS {
            a.push(Instr::Restore {
                rd: G0,
                rs1: G0,
                op2: Operand::Imm(0),
            });
        }
        a.alu(AluOp::Or, Reg::l(0), Operand::Imm(0), Reg::o(0));
        a.ta(0);
        a.nop();
        a.finish().unwrap()
    }

    #[test]
    fn recover_policy_spills_and_fills_windows() {
        let mut m = Machine::boot(&deep_window_program());
        assert!(matches!(
            m.run(1000),
            Err(SimError::Trap(Trap::WindowOverflow { .. }))
        ));

        let mut m = Machine::boot(&deep_window_program());
        m.set_trap_policy(TrapPolicy::Recover);
        let r = m.run(1000).expect("recovers across window traps");
        assert_eq!(r.exit_code, 7, "window 0 locals survive spill/fill");
        assert_eq!(m.trap_stats().overflow_spills, 2);
        assert_eq!(m.trap_stats().underflow_fills, 2);
        assert_eq!(r.recovered_traps, 4);
    }

    #[test]
    fn recover_policy_skips_misaligned_accesses() {
        let build = || {
            let mut a = Assembler::new(RAM_BASE);
            a.set32(RAM_BASE + 0x101, Reg::l(0));
            a.ld(nfp_sparc::MemSize::Word, false, Reg::l(0), 0, Reg::l(1));
            a.mov(4, Reg::o(0));
            a.ta(0);
            a.nop();
            a.finish().unwrap()
        };
        let mut m = Machine::boot(&build());
        assert!(matches!(
            m.run(100),
            Err(SimError::Trap(Trap::Misaligned { .. }))
        ));

        let mut m = Machine::boot(&build());
        m.set_trap_policy(TrapPolicy::Recover);
        let r = m.run(100).unwrap();
        assert_eq!(r.exit_code, 4);
        assert_eq!(m.trap_stats().misaligned_skips, 1);
    }

    #[test]
    fn unrecoverable_traps_still_abort_under_recover() {
        let mut m = Machine::boot(&[0]); // unimp 0
        m.set_trap_policy(TrapPolicy::Recover);
        assert!(matches!(
            m.run(10),
            Err(SimError::Trap(Trap::Illegal { .. }))
        ));
    }

    #[test]
    fn watchdog_terminates_branch_to_self() {
        // The canonical hang corruption: an SEU turns an instruction
        // into a branch-to-self. The watchdog must end the run with a
        // clean WatchdogExpired, not BudgetExhausted or a panic.
        let mut a = Assembler::new(RAM_BASE);
        a.label("spin").ba("spin").nop();
        let mut m = Machine::boot(&a.finish().unwrap());
        m.set_trap_policy(TrapPolicy::Recover);
        let wd = Watchdog {
            max_instrs: 10_000,
            wall: None,
        };
        assert!(matches!(
            m.run_watchdog(&wd),
            Err(SimError::WatchdogExpired { instret: 10_000 })
        ));
    }

    #[test]
    fn watchdog_wall_clock_deadline_fires() {
        let mut a = Assembler::new(RAM_BASE);
        a.label("spin").ba("spin").nop();
        let mut m = Machine::boot(&a.finish().unwrap());
        let wd = Watchdog {
            max_instrs: u64::MAX,
            wall: Some(Duration::ZERO),
        };
        assert!(matches!(
            m.run_watchdog(&wd),
            Err(SimError::WatchdogExpired { .. })
        ));
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        // A program with memory traffic and console output on both
        // sides of the checkpoint.
        let mut a = Assembler::new(RAM_BASE);
        a.set32(crate::bus::CONSOLE_EMIT, Reg::l(0));
        a.set32(RAM_BASE + 0x2000, Reg::l(1));
        a.mov(5, Reg::l(2));
        a.label("loop");
        a.st(nfp_sparc::MemSize::Word, Reg::l(2), Reg::l(1), 0);
        a.st(nfp_sparc::MemSize::Word, Reg::l(2), Reg::l(0), 0);
        a.alu(AluOp::SubCc, Reg::l(2), 1, Reg::l(2));
        a.b(ICond::Ne, "loop");
        a.alu(AluOp::Add, Reg::l(1), 4, Reg::l(1));
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();

        let mut m = Machine::boot(&words);
        m.run_until(12).unwrap();
        assert_eq!(m.instret(), 12);
        let cp = m.checkpoint();
        let first = m.run(10_000).unwrap();

        m.restore(&cp);
        assert_eq!(m.instret(), 12);
        let second = m.run(10_000).unwrap();
        assert_eq!(first.words, second.words);
        assert_eq!(first.text, second.text);
        assert_eq!(first.instret, second.instret);
        assert_eq!(first.counts, second.counts);
        // Memory side effects replay too.
        assert_eq!(m.bus.load32(RAM_BASE + 0x2000).unwrap(), 5);
    }

    #[test]
    fn run_until_past_halt_is_an_error() {
        let mut a = Assembler::new(RAM_BASE);
        a.mov(0, Reg::o(0)).ta(0).nop();
        let mut m = Machine::boot(&a.finish().unwrap());
        assert!(matches!(
            m.run_until(1_000),
            Err(SimError::HaltedEarly { instret: 2 })
        ));
    }

    #[test]
    fn misaligned_image_base_is_rejected() {
        let mut m = Machine::new(MachineConfig::default());
        assert!(matches!(
            m.load_image(RAM_BASE + 2, &[nfp_sparc::encode(Instr::NOP)]),
            Err(SimError::BadAddress(crate::bus::BusFault::Misaligned {
                size: 4,
                ..
            }))
        ));
    }

    #[test]
    fn image_overlapping_earlier_segment_is_rejected() {
        let mut m = Machine::new(MachineConfig::default());
        m.bus.write_bytes(RAM_BASE + 4, &[0xff; 8]).unwrap();
        assert!(matches!(
            m.load_image(RAM_BASE, &[0, 0, 0, 0]),
            Err(SimError::BadAddress(
                crate::bus::BusFault::ImageOverlap { .. }
            ))
        ));
    }

    #[test]
    fn patch_code_word_out_of_range_is_an_error() {
        let mut m = Machine::boot(&[nfp_sparc::encode(Instr::NOP)]);
        assert!(matches!(
            m.patch_code_word(5, 0),
            Err(SimError::BadCodeIndex { index: 5, len: 1 })
        ));
    }

    #[test]
    fn execution_outside_image_decodes_from_memory() {
        // Write a tiny program into RAM *by hand* beyond the image and
        // jump to it.
        let mut a = Assembler::new(RAM_BASE);
        a.set32(RAM_BASE + 0x1000, Reg::l(0));
        // store `mov 9, %o0` and `ta 0; nop` at 0x1000
        let prog = [
            nfp_sparc::encode(Instr::Alu {
                op: AluOp::Or,
                rd: Reg::o(0),
                rs1: G0,
                op2: Operand::Imm(9),
            }),
            nfp_sparc::encode(Instr::Ticc {
                cond: ICond::A,
                rs1: G0,
                op2: Operand::Imm(0),
            }),
            nfp_sparc::encode(Instr::NOP),
        ];
        for (k, w) in prog.iter().enumerate() {
            a.set32(*w, Reg::l(1));
            a.st(
                nfp_sparc::MemSize::Word,
                Reg::l(1),
                Reg::l(0),
                (k * 4) as i32,
            );
        }
        a.push(Instr::Jmpl {
            rd: G0,
            rs1: Reg::l(0),
            op2: Operand::Imm(0),
        });
        a.nop();
        let words = a.finish().unwrap();
        let mut m = Machine::boot(&words);
        let r = m.run(1000).unwrap();
        assert_eq!(r.exit_code, 9);
    }

    /// A ledger that folds what it is told into one digest: category
    /// counts, [`Residue`](crate::Residue) sums, and an ordered hash of
    /// the memory-access and FPU-operand events. A stepped record maps
    /// onto the same digest the way the testbed's hardware ledger maps
    /// it, so a traced run must match the step reference event by
    /// event.
    #[derive(Default)]
    struct Fingerprint {
        counts: CategoryCounts,
        sums: [u64; 4],
        events: std::collections::hash_map::DefaultHasher,
    }

    impl Observer for Fingerprint {
        const LEDGER: bool = true;

        fn observe(&mut self, info: &crate::ExecInfo) {
            let (mul, div) = match info.instr {
                Instr::Alu { op, .. } => (op.is_mul(), op.is_div()),
                _ => (false, false),
            };
            let residue = crate::Residue {
                ones: info.result_ones as u64,
                untaken: (info.branch_taken == Some(false)) as u64,
                int_mul: mul as u64,
                int_div: div as u64,
            };
            let mut one = CategoryCounts::new();
            one.bump(info.category);
            self.retire_batch(&one, &residue);
            if let Some(addr) = info.mem_addr {
                self.mem_access(addr, info.category == Category::MemStore);
            }
            if let Some(bits) = info.fpu_rs2_bits {
                self.fpu_operand(info.category, bits);
            }
        }

        fn mem_access(&mut self, addr: u32, store: bool) {
            std::hash::Hash::hash(&(addr, store), &mut self.events);
        }

        fn fpu_operand(&mut self, category: Category, bits: u64) {
            std::hash::Hash::hash(&(category, bits), &mut self.events);
        }

        fn retire_batch(&mut self, counts: &CategoryCounts, r: &crate::Residue) {
            self.counts = self.counts.merged(counts);
            for (sum, n) in self
                .sums
                .iter_mut()
                .zip([r.ones, r.untaken, r.int_mul, r.int_div])
            {
                *sum += n;
            }
        }
    }

    impl Fingerprint {
        fn value(&self) -> (CategoryCounts, [u64; 4], u64) {
            use std::hash::Hasher;
            (self.counts, self.sums, self.events.finish())
        }
    }

    /// Runs `words` under the same policy and budget three ways — the
    /// stepping reference with a [`Fingerprint`] attached, and traced
    /// dispatch without and with one — and asserts every observable of
    /// the traced runs agrees with the reference: the run/error result,
    /// retired-instruction count, category counters, full CPU state,
    /// RAM contents, and the ledger's digest.
    fn assert_modes_agree(words: &[u32], policy: TrapPolicy, budget: u64) {
        let observe = |dispatch: Dispatch, observed: bool| {
            let mut m = Machine::boot(words);
            m.set_trap_policy(policy);
            m.set_dispatch(dispatch);
            let mut fp = Fingerprint::default();
            let res = if observed {
                m.run_observed(budget, &mut fp)
            } else {
                m.run(budget)
            };
            (
                format!("{res:?}"),
                m.instret(),
                *m.counts(),
                format!("{:?}", m.cpu),
                format!("{:?}", m.bus.snapshot_ram()),
                observed.then(|| fp.value()),
            )
        };
        let stepped = observe(Dispatch::Step, true);
        for observed in [false, true] {
            let fast = observe(Dispatch::Traced, observed);
            assert_eq!(stepped.0, fast.0, "run result diverged");
            assert_eq!(stepped.1, fast.1, "instret diverged");
            assert_eq!(stepped.2, fast.2, "category counts diverged");
            assert_eq!(stepped.3, fast.3, "CPU state diverged");
            assert_eq!(stepped.4, fast.4, "RAM contents diverged");
            if observed {
                assert_eq!(stepped.5, fast.5, "ledger digests diverged");
            }
        }
    }

    fn memory_loop_program() -> Vec<u32> {
        let mut a = Assembler::new(RAM_BASE);
        a.set32(crate::bus::CONSOLE_EMIT, Reg::l(0));
        a.set32(RAM_BASE + 0x2000, Reg::l(1));
        a.mov(9, Reg::l(2));
        a.label("loop");
        a.st(nfp_sparc::MemSize::Word, Reg::l(2), Reg::l(1), 0);
        a.st(nfp_sparc::MemSize::Word, Reg::l(2), Reg::l(0), 0);
        a.alu(AluOp::SubCc, Reg::l(2), 1, Reg::l(2));
        a.b(ICond::Ne, "loop");
        a.alu(AluOp::Add, Reg::l(1), 4, Reg::l(1));
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        a.finish().unwrap()
    }

    #[test]
    fn batched_dispatch_matches_step_on_branchy_code() {
        assert_modes_agree(&memory_loop_program(), TrapPolicy::Abort, 1_000_000);
    }

    #[test]
    fn batched_dispatch_matches_step_across_budget_stops() {
        // Stop the run at every possible instruction count, including
        // points that land mid-block: batching must clamp to the
        // budget, not overshoot to the block boundary.
        let words = memory_loop_program();
        for budget in 0..60 {
            assert_modes_agree(&words, TrapPolicy::Abort, budget);
        }
    }

    #[test]
    fn batched_dispatch_matches_step_under_recover_traps() {
        // Window overflow/underflow recovery resumes mid-program; the
        // batched path must re-present the trapping instruction and
        // leave the partial block's counts exactly as stepping would.
        assert_modes_agree(&deep_window_program(), TrapPolicy::Recover, 1_000);
        assert_modes_agree(&deep_window_program(), TrapPolicy::Abort, 1_000);

        // Misaligned-skip recovery: the faulting load sits mid-block
        // and is skipped, so the commit/trap split inside a batch is
        // exercised directly.
        let mut a = Assembler::new(RAM_BASE);
        a.set32(RAM_BASE + 0x101, Reg::l(0));
        a.mov(3, Reg::l(2));
        a.ld(nfp_sparc::MemSize::Word, false, Reg::l(0), 0, Reg::l(1));
        a.alu(AluOp::Add, Reg::l(2), 1, Reg::l(2));
        a.mov(4, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();
        assert_modes_agree(&words, TrapPolicy::Recover, 1_000);
        assert_modes_agree(&words, TrapPolicy::Abort, 1_000);
    }

    /// A loop that retires, inside one superblock, every op kind whose
    /// record carries more than its pc: `sethi` and `ld` into `%g0`,
    /// `cmp`, sub-word stores of a wide register, doublewords, `rd` and
    /// `wr %y`, a multiply, FP loads, stores, divides and square roots,
    /// `fcmp` with a guarded `fb`, `fba,a`, `ba`, `bn`, an inlined
    /// `call`, a `save`/`restore` pair, and an inner loop closed by a
    /// backward `fb,a` whose prediction holds on every iteration but
    /// its last; then a misaligned load (skipped under recovery) and a
    /// window overflow.
    fn every_op_kind_program() -> Vec<u32> {
        use nfp_sparc::{FCond, FReg, FpOp, MemSize};
        let mut a = Assembler::new(RAM_BASE);
        let f = FReg::new;
        a.set32(RAM_BASE + 0x2000, Reg::l(1));
        a.set32(0x8765_4321, Reg::l(3));
        a.mov(5, Reg::l(2));
        a.label("loop");
        a.push(Instr::Sethi {
            rd: G0,
            imm22: 0x2_a5a5,
        });
        a.alu(AluOp::SubCc, Reg::l(3), Operand::Reg(Reg::l(2)), G0);
        a.st(MemSize::Byte, Reg::l(3), Reg::l(1), 0);
        a.st(MemSize::Half, Reg::l(3), Reg::l(1), 2);
        a.st(MemSize::Double, Reg::l(2), Reg::l(1), 8);
        a.ld(MemSize::Double, false, Reg::l(1), 8, Reg::l(4));
        a.ld(MemSize::Word, false, Reg::l(1), 8, G0);
        a.ld(MemSize::Byte, true, Reg::l(1), 0, Reg::l(6));
        a.alu(AluOp::UMul, Reg::l(3), Operand::Reg(Reg::l(3)), Reg::l(7));
        a.push(Instr::RdY { rd: Reg::o(1) });
        a.push(Instr::WrY {
            rs1: Reg::l(2),
            op2: Operand::Imm(3),
        });
        a.push(Instr::LoadF {
            double: false,
            rd: f(1),
            rs1: Reg::l(1),
            op2: Operand::Imm(0),
        });
        a.lddf(Reg::l(1), 8, f(2));
        a.fpop(FpOp::FiToD, f(0), f(1), f(4));
        a.fpop(FpOp::FDivD, f(4), f(2), f(6));
        a.fpop(FpOp::FSqrtD, f(0), f(6), f(8));
        a.fpop(FpOp::FDivS, f(1), f(1), f(10));
        a.fpop(FpOp::FSqrtS, f(0), f(10), f(11));
        a.fpop(FpOp::FAddD, f(6), f(8), f(12));
        a.stdf(f(12), Reg::l(1), 16);
        a.push(Instr::StoreF {
            double: false,
            rd: f(11),
            rs1: Reg::l(1),
            op2: Operand::Imm(24),
        });
        a.push(Instr::FCmp {
            double: true,
            exception: false,
            rs1: f(6),
            rs2: f(8),
        });
        a.fb(FCond::G, "fwd");
        a.nop();
        a.label("fwd");
        a.fb_a(FCond::A, "fwd2");
        a.alu(AluOp::Add, Reg::l(3), 9, Reg::l(3)); // annulled
        a.label("fwd2");
        a.b(ICond::N, "never");
        a.nop();
        a.ba("over");
        a.alu(AluOp::Add, Reg::l(3), 7, Reg::l(3));
        a.label("never");
        a.nop();
        a.label("over");
        a.call("leaf");
        a.nop();
        // Inner loop: f16 counts down from the outer counter by 1.0
        // while it stays above 0.0.
        a.st(MemSize::Word, Reg::l(2), Reg::l(1), 28);
        a.push(Instr::LoadF {
            double: false,
            rd: f(14),
            rs1: Reg::l(1),
            op2: Operand::Imm(28),
        });
        a.fpop(FpOp::FiToD, f(0), f(14), f(16));
        a.fpop(FpOp::FDivD, f(16), f(16), f(20));
        a.fpop(FpOp::FSubD, f(16), f(16), f(22));
        a.label("inner");
        a.fpop(FpOp::FSubD, f(16), f(20), f(16));
        a.push(Instr::FCmp {
            double: true,
            exception: false,
            rs1: f(16),
            rs2: f(22),
        });
        a.fb_a(FCond::G, "inner");
        a.alu(AluOp::Add, Reg::l(6), 1, Reg::l(6)); // annulled on exit
        a.alu(AluOp::SubCc, Reg::l(2), 1, Reg::l(2));
        a.b(ICond::Ne, "loop");
        a.alu(AluOp::Add, Reg::l(1), 32, Reg::l(1));
        a.set32(RAM_BASE + 0x101, Reg::l(0));
        a.ld(MemSize::Word, false, Reg::l(0), 0, Reg::l(5));
        for _ in 0..crate::cpu::NWINDOWS {
            a.push(Instr::Save {
                rd: G0,
                rs1: G0,
                op2: Operand::Imm(0),
            });
        }
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        a.label("leaf");
        a.push(Instr::Save {
            rd: G0,
            rs1: G0,
            op2: Operand::Imm(0),
        });
        a.push(Instr::Restore {
            rd: G0,
            rs1: G0,
            op2: Operand::Imm(0),
        });
        a.retl();
        a.nop();
        a.finish().unwrap()
    }

    #[test]
    fn ledger_sums_match_step_on_every_op_kind() {
        let words = every_op_kind_program();
        for policy in [TrapPolicy::Abort, TrapPolicy::Recover] {
            assert_modes_agree(&words, policy, 100_000);
            for budget in 0..120 {
                assert_modes_agree(&words, policy, budget);
            }
        }
        // The loop body really does retire inside superblocks under the
        // ledger, while a record observer steps every instruction.
        let mut m = Machine::boot(&words);
        m.set_trap_policy(TrapPolicy::Recover);
        m.run_observed(100_000, &mut Fingerprint::default())
            .unwrap();
        assert!(m.dispatch_stats().traced > 100, "{:?}", m.dispatch_stats());
        let mut m = Machine::boot(&words);
        m.set_trap_policy(TrapPolicy::Recover);
        let mut hist = crate::PcHistogram::new(RAM_BASE, words.len());
        let r = m.run_observed(100_000, &mut hist).unwrap();
        let stats = m.dispatch_stats();
        assert_eq!((stats.traced, stats.batched), (0, 0), "{stats:?}");
        assert_eq!(hist.total(), stats.stepped);
        assert_eq!(r.instret - r.recovered_traps, stats.stepped);
    }

    #[test]
    fn batched_checkpoint_restore_replays_identically() {
        let words = memory_loop_program();
        let mut m = Machine::boot(&words);
        m.run_until(17).unwrap(); // mid-block under batching
        assert_eq!(m.instret(), 17);
        let cp = m.checkpoint();
        let first = m.run(10_000).unwrap();
        m.restore(&cp);
        let second = m.run(10_000).unwrap();
        assert_eq!(first.counts, second.counts);
        assert_eq!(first.instret, second.instret);
        assert_eq!(first.words, second.words);
    }

    #[test]
    fn patched_code_is_seen_after_batched_run() {
        // Patch an instruction to a different category after a run has
        // built the block cache: the next run must account the patched
        // instruction, not a stale block summary.
        let words = memory_loop_program();
        let mut m = Machine::boot(&words);
        let baseline = m.run(10_000).unwrap();

        let mut m = Machine::boot(&words);
        m.run_until(3).unwrap(); // cache is built and warm
        let nop = nfp_sparc::encode(Instr::NOP);
        // Word 5 is the first `st` in the loop body.
        let old = m.patch_code_word(5, nop).unwrap();
        let patched = m.run(10_000).unwrap();
        assert_eq!(
            patched.counts[Category::Nop],
            baseline.counts[Category::Nop] + 9,
            "patched NOP must be counted as NOP on every iteration"
        );
        assert_eq!(
            patched.counts[Category::MemStore],
            baseline.counts[Category::MemStore] - 9
        );

        // And the patch must match step mode exactly.
        let mut s = Machine::boot(&words);
        s.set_dispatch(Dispatch::Step);
        s.run_until(3).unwrap();
        s.patch_code_word(5, nop).unwrap();
        let stepped = s.run(10_000).unwrap();
        assert_eq!(patched.counts, stepped.counts);
        assert_eq!(patched.instret, stepped.instret);
        let _ = old;
    }

    #[test]
    fn patched_code_is_seen_by_every_dispatch_mode() {
        // Same invalidation property as above, but exercising the
        // threaded dispatch table and the superblock trace cache: the
        // patch lands mid-loop-body, i.e. mid-superblock once the
        // traced run has chained the loop into one trace.
        let words = memory_loop_program();
        let nop = nfp_sparc::encode(Instr::NOP);
        let observe = |dispatch: Dispatch| {
            let mut m = Machine::boot(&words);
            m.set_dispatch(dispatch);
            m.run_until(25).unwrap(); // caches warm, mid-iteration
            m.patch_code_word(5, nop).unwrap();
            let res = m.run(10_000).unwrap();
            (res.instret, res.counts, res.words)
        };
        assert_eq!(
            observe(Dispatch::Traced),
            observe(Dispatch::Step),
            "patched run diverged"
        );
    }

    #[test]
    fn dispatch_round_trips_and_defaults_to_traced() {
        assert_eq!(MachineConfig::default().dispatch, Dispatch::Traced);
        for d in Dispatch::ALL {
            assert_eq!(Dispatch::parse(d.as_str()), Some(d));
        }
        assert_eq!(Dispatch::parse("warp"), None);
    }

    #[test]
    fn corrupted_dispatch_entry_is_a_typed_error() {
        let words = memory_loop_program();
        // Word 5 is the console `st` in the loop body — a linear
        // instruction whose corrupted entry claims otherwise. A large
        // budget enters the 14-op trace at head 0 and meets the entry
        // inside it; a budget of 6 is too short for that trace, so the
        // straight-line fallback (`run_tops`) retires words 0..5 and
        // meets the entry there.
        for (budget, path, retired) in [(10_000, "trace", (5, 0)), (6, "run_tops", (0, 5))] {
            let mut m = Machine::boot(&words);
            assert!(m.test_corrupt_dispatch(5));
            match m.run(budget) {
                Err(SimError::DispatchViolation { pc }) => {
                    assert_eq!(pc, RAM_BASE + 5 * 4, "{path}");
                }
                other => panic!("{path}: expected DispatchViolation, got {other:?}"),
            }
            let stats = m.dispatch_stats();
            assert_eq!((stats.traced, stats.batched), retired, "{path}");
        }
    }

    #[test]
    fn corrupt_dispatch_hook_rejects_enders_and_oob() {
        let words = memory_loop_program();
        let mut m = Machine::boot(&words);
        assert!(!m.test_corrupt_dispatch(words.len()), "out of range");
        // Word 7 is the `bne` loop branch: already non-linear.
        assert!(!m.test_corrupt_dispatch(7), "block ender");
    }
}
