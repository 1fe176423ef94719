//! Detailed hardware model of the cacheless LEON3-class core.
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
//!   a static-leakage share proportional to its duration.
//!
//! All parameters are chosen so that differential calibration (paper
//! Table II) recovers per-category costs close to the paper's Table I
//! at the LEON3's 50 MHz clock.

use nfp_sim::{ExecInfo, Observer};
use nfp_sparc::{AluOp, Category, Instr};

/// Static configuration of the modelled hardware.
#[derive(Debug, Clone)]
pub struct HwModel {
    /// Core clock in Hz (LEON3 default on the DE2-115: 50 MHz).
    pub clock_hz: f64,
    /// Static (leakage + idle board) power in watts, charged per cycle.
    pub static_power_w: f64,
    /// Energy per toggled result bit in joules (datapath activity).
    pub toggle_j_per_bit: f64,
    /// Extra cycles when a memory access misses the open SDRAM row.
    pub row_miss_cycles: u64,
    /// SDRAM row size in bytes (address bits above this select a row).
    pub row_bytes: u32,
}

impl Default for HwModel {
    fn default() -> Self {
        HwModel {
            clock_hz: 50.0e6,
            static_power_w: 0.100,
            toggle_j_per_bit: 0.08e-9,
            row_miss_cycles: 3,
            row_bytes: 1024,
        }
    }
}

/// Per-instruction dynamic energies in joules, by cost class.
#[derive(Debug, Clone, Copy)]
struct Cost {
    cycles: u64,
    dynamic_j: f64,
}

impl HwModel {
    /// Static (leakage) energy of an instruction taking `cycles`.
    fn static_energy_j(&self, cycles: u64) -> f64 {
        let time_s = cycles as f64 / self.clock_hz;
        self.static_power_w * time_s
    }

    /// Base cost of an instruction before context effects.
    fn base_cost(&self, info: &ExecInfo) -> Cost {
        // Dynamic energies are tuned so that dynamic + static·time +
        // toggling averages near the paper's Table I specific
        // energies; cycle counts correspond to its specific times at
        // 50 MHz.
        match info.category {
            Category::IntArith => match info.instr {
                Instr::Alu { op, .. } => match op {
                    AluOp::UMul | AluOp::UMulCc | AluOp::SMul | AluOp::SMulCc => Cost {
                        cycles: 4,
                        dynamic_j: 17.0e-9,
                    },
                    AluOp::UDiv | AluOp::UDivCc | AluOp::SDiv | AluOp::SDivCc => Cost {
                        cycles: 20,
                        dynamic_j: 60.0e-9,
                    },
                    _ => Cost {
                        cycles: 2,
                        dynamic_j: 9.5e-9,
                    },
                },
                // sethi
                _ => Cost {
                    cycles: 2,
                    dynamic_j: 9.5e-9,
                },
            },
            Category::Jump => {
                let taken = info.branch_taken.unwrap_or(true);
                if taken {
                    Cost {
                        cycles: 12,
                        dynamic_j: 50.0e-9,
                    }
                } else {
                    Cost {
                        cycles: 10,
                        dynamic_j: 42.0e-9,
                    }
                }
            }
            Category::MemLoad => Cost {
                cycles: 34,
                dynamic_j: 156.0e-9,
            },
            Category::MemStore => Cost {
                cycles: 19,
                dynamic_j: 126.0e-9,
            },
            Category::Nop => Cost {
                cycles: 2,
                dynamic_j: 8.0e-9,
            },
            Category::Other => Cost {
                cycles: 2,
                dynamic_j: 8.5e-9,
            },
            Category::FpuArith => Cost {
                cycles: 2,
                dynamic_j: 9.0e-9,
            },
            Category::FpuDiv => {
                // SRT-style divider: latency depends on the divisor
                // mantissa (quotient digit selection retries).
                let extra = info
                    .fpu_rs2_bits
                    .map(|bits| ((bits & 0xf_ffff_ffff_ffff).count_ones() as u64) / 9)
                    .unwrap_or(2);
                Cost {
                    cycles: 18 + extra, // 18..=23
                    dynamic_j: 360.0e-9 + extra as f64 * 9.0e-9,
                }
            }
            Category::FpuSqrt => {
                let extra = info
                    .fpu_rs2_bits
                    .map(|bits| ((bits & 0xf_ffff_ffff_ffff).count_ones() as u64) / 13)
                    .unwrap_or(2);
                Cost {
                    cycles: 29 + extra, // 29..=33
                    dynamic_j: 20.0e-9 + extra as f64 * 2.0e-9,
                }
            }
        }
    }
}

/// Accumulated ground-truth totals for one run.
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
}

/// Cycle counts below this have their static-energy term precomputed
/// (the default model charges at most 37: a load plus a row miss).
const STATIC_TABLE_CYCLES: usize = 64;

/// The per-instruction observer that drives the hardware model. This
/// plays the role of the cycle-level simulation the paper's Fig. 1
/// places at the slow/accurate end of the spectrum. Attached through
/// `Machine::run_observed`, it runs inside the simulator's superblock
/// traces under the default dispatch, seeing exactly the records the
/// step path would produce.
pub struct HwObserver {
    model: HwModel,
    totals: HwTotals,
    open_row: Option<u32>,
    /// `static_j[c]` = the static-energy term of a `c`-cycle
    /// instruction, computed with the same expression as the fallback
    /// in [`HwObserver::observe`], so totals do not change by a bit.
    static_j: [f64; STATIC_TABLE_CYCLES],
}

impl HwObserver {
    /// Creates an observer with all counters zeroed.
    pub fn new(model: HwModel) -> Self {
        let static_j = std::array::from_fn(|c| model.static_energy_j(c as u64));
        HwObserver {
            model,
            totals: HwTotals::default(),
            open_row: None,
            static_j,
        }
    }

    /// The totals accumulated so far.
    pub fn totals(&self) -> &HwTotals {
        &self.totals
    }

    /// The model parameters in use.
    pub fn model(&self) -> &HwModel {
        &self.model
    }

    /// True elapsed time in seconds at the modelled clock.
    pub fn time_s(&self) -> f64 {
        self.totals.cycles as f64 / self.model.clock_hz
    }
}

impl Observer for HwObserver {
    #[inline]
    fn observe(&mut self, info: &ExecInfo) {
        let mut cost = self.model.base_cost(info);
        if let Some(addr) = info.mem_addr {
            let row = addr / self.model.row_bytes;
            if self.open_row != Some(row) {
                cost.cycles += self.model.row_miss_cycles;
                cost.dynamic_j += 9.0e-9; // row activate/precharge
                self.totals.row_misses += 1;
                self.open_row = Some(row);
            }
        }
        // A table lookup instead of a division per instruction; the
        // model's fields are public, so a cost past the table falls
        // back to the same formula.
        let slot = usize::try_from(cost.cycles).ok();
        let static_j = match slot.and_then(|c| self.static_j.get(c)) {
            Some(&j) => j,
            None => self.model.static_energy_j(cost.cycles),
        };
        self.totals.cycles += cost.cycles;
        self.totals.energy_j +=
            cost.dynamic_j + info.result_ones as f64 * self.model.toggle_j_per_bit + static_j;
        self.totals.instret += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::regs::G0;
    use nfp_sparc::{Operand, Reg};

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
        let mut obs = HwObserver::new(HwModel::default());
        obs.observe(&info(add_instr()));
        assert_eq!(obs.totals().cycles, 2);
        assert_eq!(obs.totals().instret, 1);
        // 2 cycles at 50 MHz = 40 ns
        assert!((obs.time_s() - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn multiply_and_divide_cost_more_than_add() {
        let model = HwModel::default();
        let mul = model.base_cost(&info(Instr::Alu {
            op: AluOp::UMul,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        }));
        let div = model.base_cost(&info(Instr::Alu {
            op: AluOp::SDiv,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(3),
        }));
        let add = model.base_cost(&info(add_instr()));
        assert!(mul.cycles > add.cycles);
        assert!(div.cycles > mul.cycles);
    }

    #[test]
    fn row_locality_affects_load_cost() {
        let model = HwModel::default();
        let mut obs = HwObserver::new(model);
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
        let model = HwModel::default();
        let mut taken = info(Instr::Branch {
            cond: nfp_sparc::ICond::A,
            annul: false,
            disp22: 4,
        });
        taken.branch_taken = Some(true);
        let mut untaken = taken;
        untaken.branch_taken = Some(false);
        assert!(model.base_cost(&taken).cycles > model.base_cost(&untaken).cycles);
    }

    #[test]
    fn fpu_divide_latency_depends_on_operand() {
        let model = HwModel::default();
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
        assert!(model.base_cost(&b).cycles > model.base_cost(&a).cycles);
        // Range check: 18..=23 cycles.
        for bits in [0u64, u64::MAX, 0x5555_5555_5555_5555] {
            let mut i = a;
            i.fpu_rs2_bits = Some(bits);
            let c = model.base_cost(&i).cycles;
            assert!((18..=23).contains(&c), "{c}");
        }
    }

    #[test]
    fn energy_includes_static_share_and_toggling() {
        let model = HwModel::default();
        let mut obs = HwObserver::new(model.clone());
        let mut i = info(add_instr());
        i.result_ones = 32;
        obs.observe(&i);
        let with_toggle = obs.totals().energy_j;
        let mut obs2 = HwObserver::new(model.clone());
        let mut i2 = info(add_instr());
        i2.result_ones = 0;
        obs2.observe(&i2);
        let without_toggle = obs2.totals().energy_j;
        let diff = with_toggle - without_toggle;
        assert!((diff - 32.0 * model.toggle_j_per_bit).abs() < 1e-18);
        // Static share: 2 cycles at 50 MHz * 0.1 W = 4 nJ.
        assert!(without_toggle > 4.0e-9);
    }

    #[test]
    fn average_costs_near_paper_table1() {
        // Sanity link to the paper: specific time of a load should be
        // near 700 ns and of an integer add near 40-45 ns.
        let model = HwModel::default();
        let add_t = model.base_cost(&info(add_instr())).cycles as f64 / model.clock_hz;
        assert!((38e-9..50e-9).contains(&add_t));
        let load = model.base_cost(&info(Instr::Load {
            size: nfp_sparc::MemSize::Word,
            signed: false,
            rd: Reg::o(0),
            rs1: G0,
            op2: Operand::Imm(0),
        }));
        let load_t = load.cycles as f64 / model.clock_hz;
        assert!((650e-9..750e-9).contains(&load_t));
    }
}
