//! Detailed hardware model of the LEON3-class core, kept as an exact
//! integer ledger.
//!
//! Cycle and energy cost of each instruction depends on *context*, the
//! way it does on the real board:
//!
//! * loads/stores pay an extra SDRAM penalty when they leave the open
//!   row of the previous access;
//! * taken branches are costlier than untaken ones;
//! * integer multiply/divide take longer than simple ALU operations
//!   (the paper folds them all into "Integer Arithmetic");
//! * FPU divide/sqrt latency depends on the operand mantissa;
//! * every instruction's energy has a data-dependent toggling term and
//!   a static-leakage share proportional to its duration;
//! * on E8's board with a data cache ([`crate::cache`]), a load that
//!   hits skips the SDRAM access and one that misses fills a line.
//!
//! Each of those costs is a fixed price times a count. An instruction's
//! [`CostClass`] (its Table I category, with integer multiply and
//! divide split out and jumps split by outcome) fixes its base
//! [`Price`]; the context adds row misses, the FPU's operand-dependent
//! extra cycles, toggled bits, leakage and cache hits and misses on
//! top. The whole price table is const. So the board never adds up a
//! cost per instruction: [`HwObserver`] keeps a [`Ledger`] of integer
//! counts, and [`Ledger::totals`] prices them once per run
//! (EnergyAnalyzer's static costs times execution counts, with the
//! context effects as a residue on top, like the inter-instruction
//! overhead of Zotos et al.; PAPERS.md). Integer sums do not depend on
//! how they are grouped, so the totals are the same whether the
//! simulator hands the ledger one record per instruction (stepping) or
//! one batch per superblock trace plus its memory accesses and FPU
//! operands (traced dispatch; see [`nfp_sim::Observer`]).
//!
//! All prices are chosen so that differential calibration (paper
//! Table II) recovers per-category costs close to the paper's Table I
//! at the LEON3's 50 MHz clock.

use crate::cache::{Cache, CacheConfig, FILL_CYCLES, FILL_J, HIT_CYCLES, HIT_SAVED_J};
use nfp_sim::{ExecInfo, Observer, Residue};
use nfp_sparc::{Category, CategoryCounts, Instr};

/// Core clock in Hz (LEON3 default on the DE2-115: 50 MHz).
pub const CLOCK_HZ: f64 = 50.0e6;
/// Static (leakage + idle board) power in watts, charged per cycle.
pub const STATIC_POWER_W: f64 = 0.100;
/// Energy per toggled result bit in joules (datapath activity).
pub const TOGGLE_J_PER_BIT: f64 = 0.08e-9;
/// Extra cycles when a memory access misses the open SDRAM row.
pub const ROW_MISS_CYCLES: u64 = 3;
/// SDRAM row size in bytes (address bits above this select a row).
pub const ROW_BYTES: u32 = 1024;

/// Dynamic energy of an SDRAM row activate/precharge, in joules.
pub const ROW_MISS_J: f64 = 9.0e-9;

/// Number of [`CostClass`]es.
pub const COST_CLASSES: usize = 12;

/// What fixes an instruction's base price: its Table I category, with
/// integer multiply and divide split out of "Integer Arithmetic" and
/// jumps split by whether they were taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Integer arithmetic other than multiply and divide, and `sethi`.
    IntSimple,
    /// Integer multiply ([`nfp_sparc::AluOp::is_mul`]).
    IntMul,
    /// Integer divide ([`nfp_sparc::AluOp::is_div`]).
    IntDiv,
    /// A jump that was taken.
    JumpTaken,
    /// A conditional branch that was not taken.
    JumpUntaken,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// The canonical `nop`.
    Nop,
    /// Table I's "Other".
    Other,
    /// FPU arithmetic.
    FpuArith,
    /// FPU divide, before its operand-dependent extra cycles.
    FpuDiv,
    /// FPU square root, before its operand-dependent extra cycles.
    FpuSqrt,
}

/// Base cycles and dynamic energy of one instruction of a class,
/// before context effects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// Clock cycles.
    pub cycles: u64,
    /// Dynamic energy in joules.
    pub dynamic_j: f64,
}

impl CostClass {
    /// Every class, in the order of [`Ledger::class_counts`].
    pub const ALL: [CostClass; COST_CLASSES] = [
        CostClass::IntSimple,
        CostClass::IntMul,
        CostClass::IntDiv,
        CostClass::JumpTaken,
        CostClass::JumpUntaken,
        CostClass::Load,
        CostClass::Store,
        CostClass::Nop,
        CostClass::Other,
        CostClass::FpuArith,
        CostClass::FpuDiv,
        CostClass::FpuSqrt,
    ];

    /// The class of a retired instruction's record. A jump record
    /// without an outcome counts as taken.
    pub fn of(info: &ExecInfo) -> CostClass {
        match info.category {
            Category::IntArith => match info.instr {
                Instr::Alu { op, .. } if op.is_mul() => CostClass::IntMul,
                Instr::Alu { op, .. } if op.is_div() => CostClass::IntDiv,
                _ => CostClass::IntSimple,
            },
            Category::Jump if info.branch_taken == Some(false) => CostClass::JumpUntaken,
            Category::Jump => CostClass::JumpTaken,
            Category::MemLoad => CostClass::Load,
            Category::MemStore => CostClass::Store,
            Category::Nop => CostClass::Nop,
            Category::Other => CostClass::Other,
            Category::FpuArith => CostClass::FpuArith,
            Category::FpuDiv => CostClass::FpuDiv,
            Category::FpuSqrt => CostClass::FpuSqrt,
        }
    }

    /// The class's base price. Dynamic energies are tuned so that
    /// dynamic + static·time + toggling averages near the paper's
    /// Table I specific energies; cycle counts correspond to its
    /// specific times at 50 MHz.
    pub const fn price(self) -> Price {
        let (cycles, dynamic_j) = match self {
            CostClass::IntSimple => (2, 9.5e-9),
            CostClass::IntMul => (4, 17.0e-9),
            CostClass::IntDiv => (20, 60.0e-9),
            CostClass::JumpTaken => (12, 50.0e-9),
            CostClass::JumpUntaken => (10, 42.0e-9),
            CostClass::Load => (34, 156.0e-9),
            CostClass::Store => (19, 126.0e-9),
            CostClass::Nop => (2, 8.0e-9),
            CostClass::Other => (2, 8.5e-9),
            CostClass::FpuArith => (2, 9.0e-9),
            // SRT-style divider, 18..=23 cycles with the extra ones.
            CostClass::FpuDiv => (18, 360.0e-9),
            // 29..=33 cycles with the extra ones.
            CostClass::FpuSqrt => (29, 20.0e-9),
        };
        Price { cycles, dynamic_j }
    }
}

/// Operand-dependent extra cycles of an FPU divide (`FpuDiv`: quotient
/// digit selection retries on the divisor mantissa) or square root
/// (`FpuSqrt`); zero for any other category.
pub fn fpu_extra_cycles(category: Category, bits: u64) -> u64 {
    let ones = (bits & 0xf_ffff_ffff_ffff).count_ones() as u64;
    match category {
        Category::FpuDiv => ones / 9,
        Category::FpuSqrt => ones / 13,
        _ => 0,
    }
}

/// Dynamic energy of one FPU divide extra cycle, in joules.
pub const FDIV_EXTRA_J: f64 = 9.0e-9;
/// Dynamic energy of one FPU square-root extra cycle, in joules.
pub const FSQRT_EXTRA_J: f64 = 2.0e-9;

/// Ground-truth totals for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HwTotals {
    /// Total clock cycles consumed.
    pub cycles: u64,
    /// True total energy in joules (dynamic + toggling + static).
    pub energy_j: f64,
    /// Instructions observed.
    pub instret: u64,
    /// Memory accesses that missed the open row (model introspection).
    pub row_misses: u64,
    /// Integer multiplies retired, which Table I counts under
    /// "Integer Arithmetic".
    pub int_mul: u64,
    /// Integer divides retired, likewise.
    pub int_div: u64,
}

/// The exact integer record of one run on the board: every count the
/// price of the run depends on. Counts only grow, and each is a sum
/// over retired instructions, so a ledger fed records one at a time
/// equals one fed batches of the same instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Instructions per Table I category.
    counts: CategoryCounts,
    /// Of the jumps, those not taken.
    untaken: u64,
    /// Of the integer arithmetic, the multiplies and the divides.
    int_mul: u64,
    int_div: u64,
    /// Σ set bits of the instructions' result values.
    ones: u64,
    /// Memory accesses that left the open SDRAM row.
    row_misses: u64,
    /// Σ operand-dependent extra cycles of FPU divides and square
    /// roots.
    fdiv_extra: u64,
    fsqrt_extra: u64,
    /// Loads that hit and that missed the data cache; zero on a board
    /// without one.
    load_hits: u64,
    load_misses: u64,
}

impl Ledger {
    /// Adds one retired instruction's record, except its memory access
    /// and FPU operand, which the observer prices through its state.
    fn record(&mut self, info: &ExecInfo) {
        self.counts.bump(info.category);
        self.ones += info.result_ones as u64;
        match CostClass::of(info) {
            CostClass::IntMul => self.int_mul += 1,
            CostClass::IntDiv => self.int_div += 1,
            CostClass::JumpUntaken => self.untaken += 1,
            _ => {}
        }
    }

    /// Adds a batch of retired instructions.
    fn batch(&mut self, counts: &CategoryCounts, residue: &Residue) {
        self.counts = self.counts.merged(counts);
        self.ones += residue.ones;
        self.untaken += residue.untaken;
        self.int_mul += residue.int_mul;
        self.int_div += residue.int_div;
    }

    /// Adds an FPU divide's or square root's extra cycles.
    #[inline(always)]
    fn fpu_operand(&mut self, category: Category, bits: u64) {
        let extra = fpu_extra_cycles(category, bits);
        match category {
            Category::FpuDiv => self.fdiv_extra += extra,
            Category::FpuSqrt => self.fsqrt_extra += extra,
            _ => {}
        }
    }

    /// Instructions per cost class, in [`CostClass::ALL`] order.
    pub fn class_counts(&self) -> [u64; COST_CLASSES] {
        let c = &self.counts;
        [
            c[Category::IntArith] - self.int_mul - self.int_div,
            self.int_mul,
            self.int_div,
            c[Category::Jump] - self.untaken,
            self.untaken,
            c[Category::MemLoad],
            c[Category::MemStore],
            c[Category::Nop],
            c[Category::Other],
            c[Category::FpuArith],
            c[Category::FpuDiv],
            c[Category::FpuSqrt],
        ]
    }

    /// Loads that hit the data cache; zero on a board without one.
    pub fn load_hits(&self) -> u64 {
        self.load_hits
    }

    /// Loads that missed the data cache; zero on a board without one.
    pub fn load_misses(&self) -> u64 {
        self.load_misses
    }

    /// Clock cycles without the cache: base cycles per class, the
    /// FPU's extra cycles and the row-miss penalties.
    fn sdram_cycles(&self) -> u64 {
        let base: u64 = CostClass::ALL
            .iter()
            .zip(self.class_counts())
            .map(|(class, n)| n * class.price().cycles)
            .sum();
        base + self.fdiv_extra + self.fsqrt_extra + self.row_misses * ROW_MISS_CYCLES
    }

    /// Clock cycles: those without the cache, less the SDRAM access
    /// each load hit replaced by [`HIT_CYCLES`], plus a line fill per
    /// load miss, and never below zero.
    pub fn cycles(&self) -> u64 {
        let hits = self.load_hits as i64;
        let misses = self.load_misses as i64;
        let sdram = CostClass::Load.price().cycles as i64;
        let adjustment = misses * FILL_CYCLES as i64 - hits * (sdram - HIT_CYCLES as i64);
        (self.sdram_cycles() as i64 + adjustment).max(0) as u64
    }

    /// Energy in joules: dynamic energy per class and per extra cycle
    /// and row miss, toggled bits, leakage over the cycles without the
    /// cache, then the energy each load hit saved and each load miss's
    /// line fill cost, and never below zero.
    pub fn energy_j(&self) -> f64 {
        let dynamic: f64 = CostClass::ALL
            .iter()
            .zip(self.class_counts())
            .map(|(class, n)| n as f64 * class.price().dynamic_j)
            .sum();
        let context = self.fdiv_extra as f64 * FDIV_EXTRA_J
            + self.fsqrt_extra as f64 * FSQRT_EXTRA_J
            + self.row_misses as f64 * ROW_MISS_J
            + self.ones as f64 * TOGGLE_J_PER_BIT;
        let leakage = STATIC_POWER_W * (self.sdram_cycles() as f64 / CLOCK_HZ);
        let cache = self.load_misses as f64 * FILL_J - self.load_hits as f64 * HIT_SAVED_J;
        (dynamic + context + leakage + cache).max(0.0)
    }

    /// The run's totals.
    pub fn totals(&self) -> HwTotals {
        HwTotals {
            cycles: self.cycles(),
            energy_j: self.energy_j(),
            instret: self.counts.total(),
            row_misses: self.row_misses,
            int_mul: self.int_mul,
            int_div: self.int_div,
        }
    }
}

/// The observer that drives the hardware model. This plays the role of
/// the cycle-level simulation the paper's Fig. 1 places at the
/// slow/accurate end of the spectrum. Attached through
/// `Machine::run_observed`, it is a ledger ([`Observer::LEDGER`]):
/// inside the simulator's superblock traces it takes one batch per
/// trace plus a call per memory access and FPU divide or square root,
/// and on the step path one record per instruction. With a data cache
/// (E8), every access also runs through the cache, in retirement
/// order, and the ledger counts load hits and misses.
pub struct HwObserver {
    ledger: Ledger,
    open_row: Option<u32>,
    cache: Option<Cache>,
}

impl HwObserver {
    /// Creates an observer with all counters zeroed and, with `cache`,
    /// an empty data cache of that geometry.
    pub fn new(cache: Option<CacheConfig>) -> Self {
        HwObserver {
            ledger: Ledger::default(),
            open_row: None,
            cache: cache.map(Cache::new),
        }
    }

    /// The counts so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The totals so far, priced from the ledger.
    pub fn totals(&self) -> HwTotals {
        self.ledger.totals()
    }

    /// True elapsed time in seconds at the modelled clock.
    pub fn time_s(&self) -> f64 {
        self.ledger.cycles() as f64 / CLOCK_HZ
    }
}

impl Observer for HwObserver {
    const LEDGER: bool = true;

    fn observe(&mut self, info: &ExecInfo) {
        self.ledger.record(info);
        if let Some(addr) = info.mem_addr {
            self.mem_access(addr, info.category == Category::MemStore);
        }
        if let Some(bits) = info.fpu_rs2_bits {
            self.ledger.fpu_operand(info.category, bits);
        }
    }

    #[inline(always)]
    fn mem_access(&mut self, addr: u32, store: bool) {
        let row = addr / ROW_BYTES;
        if self.open_row != Some(row) {
            self.ledger.row_misses += 1;
            self.open_row = Some(row);
        }
        if let Some(cache) = &mut self.cache {
            let hit = cache.access(addr, !store);
            if !store {
                if hit {
                    self.ledger.load_hits += 1;
                } else {
                    self.ledger.load_misses += 1;
                }
            }
        }
    }

    #[inline(always)]
    fn fpu_operand(&mut self, category: Category, bits: u64) {
        self.ledger.fpu_operand(category, bits);
    }

    #[inline(always)]
    fn retire_batch(&mut self, counts: &CategoryCounts, residue: &Residue) {
        self.ledger.batch(counts, residue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::regs::G0;
    use nfp_sparc::{AluOp, Operand, Reg};

    fn info(instr: Instr) -> ExecInfo {
        ExecInfo {
            pc: 0x4000_0000,
            instr,
            category: instr.category(),
            mem_addr: None,
            branch_taken: None,
            fpu_rs2_bits: None,
            result_ones: 0,
        }
    }

    /// Base cycles plus the FPU's extra cycles of one record, as the
    /// ledger prices it apart from row misses.
    fn cycles_of(info: &ExecInfo) -> u64 {
        let extra = info
            .fpu_rs2_bits
            .map_or(0, |bits| fpu_extra_cycles(info.category, bits));
        CostClass::of(info).price().cycles + extra
    }

    fn add_instr() -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(1),
        }
    }

    #[test]
    fn integer_add_is_two_cycles() {
        let mut obs = HwObserver::new(None);
        obs.observe(&info(add_instr()));
        assert_eq!(obs.totals().cycles, 2);
        assert_eq!(obs.totals().instret, 1);
        // 2 cycles at 50 MHz = 40 ns
        assert!((obs.time_s() - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn multiply_and_divide_cost_more_than_add() {
        let mul = cycles_of(&info(Instr::Alu {
            op: AluOp::UMul,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        }));
        let div = cycles_of(&info(Instr::Alu {
            op: AluOp::SDiv,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        }));
        let add = cycles_of(&info(add_instr()));
        assert!(mul > add);
        assert!(div > mul);
    }

    #[test]
    fn row_locality_affects_load_cost() {
        let mut obs = HwObserver::new(None);
        let mut load = info(Instr::Load {
            size: nfp_sparc::MemSize::Word,
            signed: false,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(0),
        });
        // First access opens the row (counts as a miss).
        load.mem_addr = Some(0x4000_1000);
        obs.observe(&load);
        let first = obs.totals().cycles;
        // Same row: cheaper.
        load.mem_addr = Some(0x4000_1040);
        obs.observe(&load);
        let second = obs.totals().cycles - first;
        // Different row: miss penalty again.
        load.mem_addr = Some(0x4010_0000);
        obs.observe(&load);
        let third = obs.totals().cycles - first - second;
        assert!(first > second);
        assert_eq!(first, third);
        assert_eq!(obs.totals().row_misses, 2);
    }

    #[test]
    fn branch_taken_costs_more() {
        let mut taken = info(Instr::Branch {
            cond: nfp_sparc::ICond::A,
            annul: false,
            disp22: 4,
        });
        taken.branch_taken = Some(true);
        let mut untaken = taken;
        untaken.branch_taken = Some(false);
        assert!(cycles_of(&taken) > cycles_of(&untaken));
    }

    #[test]
    fn fpu_divide_latency_depends_on_operand() {
        let fdiv = Instr::FpOp {
            op: nfp_sparc::FpOp::FDivD,
            rd: nfp_sparc::FReg::new(0),
            rs1: nfp_sparc::FReg::new(2),
            rs2: nfp_sparc::FReg::new(4),
        };
        let mut a = info(fdiv);
        a.fpu_rs2_bits = Some(2.0f64.to_bits()); // mantissa zero
        let mut b = a;
        b.fpu_rs2_bits = Some((1.0f64 / 3.0).to_bits()); // dense mantissa
        assert!(cycles_of(&b) > cycles_of(&a));
        // Range check: 18..=23 cycles.
        for bits in [0u64, u64::MAX, 0x5555_5555_5555_5555] {
            let mut i = a;
            i.fpu_rs2_bits = Some(bits);
            let c = cycles_of(&i);
            assert!((18..=23).contains(&c), "{c}");
        }
    }

    #[test]
    fn energy_includes_static_share_and_toggling() {
        let mut obs = HwObserver::new(None);
        let mut i = info(add_instr());
        i.result_ones = 32;
        obs.observe(&i);
        let with_toggle = obs.totals().energy_j;
        let mut obs2 = HwObserver::new(None);
        let mut i2 = info(add_instr());
        i2.result_ones = 0;
        obs2.observe(&i2);
        let without_toggle = obs2.totals().energy_j;
        let diff = with_toggle - without_toggle;
        assert!((diff - 32.0 * TOGGLE_J_PER_BIT).abs() < 1e-18);
        // Static share: 2 cycles at 50 MHz * 0.1 W = 4 nJ.
        assert!(without_toggle > 4.0e-9);
    }

    #[test]
    fn average_costs_near_paper_table1() {
        // Sanity link to the paper: specific time of a load should be
        // near 700 ns and of an integer add near 40-45 ns.
        let add_t = cycles_of(&info(add_instr())) as f64 / CLOCK_HZ;
        assert!((38e-9..50e-9).contains(&add_t));
        let load = cycles_of(&info(Instr::Load {
            size: nfp_sparc::MemSize::Word,
            signed: false,
            rd: Reg::o(0),
            rs1: G0,
            op2: Operand::Imm(0),
        }));
        let load_t = load as f64 / CLOCK_HZ;
        assert!((650e-9..750e-9).contains(&load_t));
    }

    #[test]
    fn a_batch_prices_like_its_records() {
        // An untaken branch, a multiply, a divide, an add and a load,
        // as records and as one batch plus the load's access.
        let records = [
            {
                let mut b = info(Instr::Branch {
                    cond: nfp_sparc::ICond::E,
                    annul: false,
                    disp22: 4,
                });
                b.branch_taken = Some(false);
                b
            },
            info(Instr::Alu {
                op: AluOp::SMulCc,
                rd: Reg::o(0),
                rs1: Reg::o(1),
                op2: Operand::Imm(3),
            }),
            info(Instr::Alu {
                op: AluOp::UDiv,
                rd: Reg::o(0),
                rs1: Reg::o(1),
                op2: Operand::Imm(3),
            }),
            {
                let mut a = info(add_instr());
                a.result_ones = 7;
                a
            },
            {
                let mut l = info(Instr::Load {
                    size: nfp_sparc::MemSize::Word,
                    signed: false,
                    rd: Reg::o(0),
                    rs1: G0,
                    op2: Operand::Imm(0),
                });
                l.mem_addr = Some(0x4000_2000);
                l.result_ones = 5;
                l
            },
        ];
        let mut stepped = HwObserver::new(None);
        let mut counts = CategoryCounts::new();
        for r in &records {
            stepped.observe(r);
            counts.bump(r.category);
        }
        let mut batched = HwObserver::new(None);
        batched.mem_access(0x4000_2000, false);
        batched.retire_batch(
            &counts,
            &Residue {
                ones: 12,
                untaken: 1,
                int_mul: 1,
                int_div: 1,
            },
        );
        assert_eq!(stepped.ledger(), batched.ledger());
        assert_eq!(stepped.totals(), batched.totals());
        assert_eq!(
            stepped.ledger().class_counts(),
            [1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0]
        );
    }
}
