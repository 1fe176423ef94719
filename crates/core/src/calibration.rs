//! Differential calibration of specific energies and times
//! (paper Section V, Table II).
//!
//! For every model class a *reference* kernel (an empty counted loop)
//! and a *test* kernel (the same loop stuffed with `UNROLL` copies of
//! one instruction of the class) are assembled, run on the virtual
//! testbed, and measured through the instrument models. Eq. 2 then
//! gives the class's specific cost:
//!
//! ```text
//! e_c = (E_test − E_ref) / n_test,   t_c = (T_test − T_ref) / n_test
//! ```
//!
//! with `n_test = iterations × UNROLL`. Like the paper's setup, the
//! measured values inherit instrument imperfections (clock ticks,
//! meter noise), so calibrated values differ slightly from the
//! hardware model's internal parameters.

use crate::model::{Classifier, CostModel};
use crate::NfpError;
use nfp_sim::{Machine, MachineConfig, SimError};
use nfp_sparc::asm::Assembler;
use nfp_sparc::cond::ICond;
use nfp_sparc::{AluOp, FReg, FpOp, Instr, MemSize, Operand, Reg};
use nfp_testbed::Testbed;

/// Copies of the class instruction per loop iteration (Table II's
/// "large amount of the instructions to be tested").
pub const UNROLL: u32 = 64;

/// Target duration of the test−reference difference, in seconds;
/// drives the per-class iteration count so that clock quantisation is
/// negligible even for two-cycle instructions.
const TARGET_DIFF_S: f64 = 0.6;

/// What one kernel pair measured.
#[derive(Debug, Clone)]
pub struct ClassCalibration {
    /// Class name (model row).
    pub class: &'static str,
    /// Derived specific time in seconds (Eq. 2).
    pub time_s: f64,
    /// Derived specific energy in joules (Eq. 2).
    pub energy_j: f64,
    /// Number of test-instruction executions.
    pub n_test: u64,
    /// Measured (reference, test) times.
    pub measured_time_s: (f64, f64),
    /// Measured (reference, test) energies.
    pub measured_energy_j: (f64, f64),
}

/// Full calibration output.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The calibrated cost model, rows in classifier order.
    pub model: CostModel,
    /// Per-class details (Table I with provenance).
    pub details: Vec<ClassCalibration>,
}

/// How a class's kernel is built.
struct KernelSpec {
    /// Rough per-instruction time, to size the loop count.
    t_hint_s: f64,
    /// Whether the kernel needs the FPU.
    uses_fpu: bool,
    /// Emits per-class setup code (before the loop).
    setup: fn(&mut Assembler),
    /// Emits one instance of the class instruction.
    emit: fn(&mut Assembler, u32),
}

fn no_setup(_a: &mut Assembler) {}

fn mem_setup(a: &mut Assembler) {
    // %l1 <- address of the scratch double word; %l2 <- a data value.
    a.sethi_hi("scratch", Reg::l(1));
    a.or_lo("scratch", Reg::l(1));
    a.set32(0xa5a5_1234, Reg::l(2));
}

fn fpu_setup(a: &mut Assembler) {
    a.sethi_hi("dbl_a", Reg::l(1));
    a.or_lo("dbl_a", Reg::l(1));
    a.lddf(Reg::l(1), 0, FReg::new(0));
    a.sethi_hi("dbl_b", Reg::l(1));
    a.or_lo("dbl_b", Reg::l(1));
    a.lddf(Reg::l(1), 0, FReg::new(2));
}

fn div_setup(a: &mut Assembler) {
    a.set32(1_000_000, Reg::l(2));
    a.mov(7, Reg::l(3));
    a.push(Instr::WrY {
        rs1: nfp_sparc::regs::G0,
        op2: Operand::Imm(0),
    });
    a.nop();
    a.nop();
    a.nop();
}

fn spec_for(class: &'static str) -> KernelSpec {
    match class {
        "Integer Arithmetic" => KernelSpec {
            t_hint_s: 40e-9,
            uses_fpu: false,
            setup: no_setup,
            emit: |a, _| {
                a.alu(AluOp::Add, Reg::l(2), 1, Reg::l(2));
            },
        },
        "Jump" => KernelSpec {
            t_hint_s: 240e-9,
            uses_fpu: false,
            setup: no_setup,
            // `ba,a .+4`: a taken one-instruction jump whose (annulled)
            // delay slot is the jump target itself, so ONLY the jump
            // executes — no NOP padding dilutes the measurement.
            emit: |a, _| {
                a.push(Instr::Branch {
                    cond: ICond::A,
                    annul: true,
                    disp22: 1,
                });
            },
        },
        "Memory Load" => KernelSpec {
            t_hint_s: 700e-9,
            uses_fpu: false,
            setup: mem_setup,
            emit: |a, _| {
                a.ld(MemSize::Word, false, Reg::l(1), 0, Reg::l(4));
            },
        },
        "Memory Store" => KernelSpec {
            t_hint_s: 380e-9,
            uses_fpu: false,
            setup: mem_setup,
            emit: |a, _| {
                a.st(MemSize::Word, Reg::l(2), Reg::l(1), 0);
            },
        },
        "NOP" => KernelSpec {
            t_hint_s: 40e-9,
            uses_fpu: false,
            setup: no_setup,
            emit: |a, _| {
                a.nop();
            },
        },
        "Other" => KernelSpec {
            t_hint_s: 40e-9,
            uses_fpu: false,
            setup: no_setup,
            emit: |a, _| {
                a.push(Instr::RdY { rd: Reg::l(4) });
            },
        },
        "FPU Arithmetic" => KernelSpec {
            t_hint_s: 40e-9,
            uses_fpu: true,
            setup: fpu_setup,
            emit: |a, _| {
                a.fpop(FpOp::FAddD, FReg::new(0), FReg::new(2), FReg::new(4));
            },
        },
        "FPU Divide" => KernelSpec {
            t_hint_s: 420e-9,
            uses_fpu: true,
            setup: fpu_setup,
            emit: |a, _| {
                a.fpop(FpOp::FDivD, FReg::new(0), FReg::new(2), FReg::new(4));
            },
        },
        "FPU Square root" => KernelSpec {
            t_hint_s: 620e-9,
            uses_fpu: true,
            setup: fpu_setup,
            emit: |a, _| {
                a.fpop(FpOp::FSqrtD, FReg::new(0), FReg::new(2), FReg::new(4));
            },
        },
        "Integer Multiply" => KernelSpec {
            t_hint_s: 100e-9,
            uses_fpu: false,
            setup: div_setup,
            emit: |a, _| {
                a.alu(AluOp::SMul, Reg::l(2), Operand::Reg(Reg::l(3)), Reg::l(4));
            },
        },
        "Integer Divide" => KernelSpec {
            t_hint_s: 700e-9,
            uses_fpu: false,
            setup: div_setup,
            emit: |a, _| {
                a.alu(AluOp::UDiv, Reg::l(2), Operand::Reg(Reg::l(3)), Reg::l(4));
            },
        },
        "Any instruction" => KernelSpec {
            // A representative integer blend for the single-class
            // ablation model.
            t_hint_s: 150e-9,
            uses_fpu: false,
            setup: mem_setup,
            emit: |a, k| match k % 8 {
                0 | 1 | 4 | 7 => {
                    a.alu(AluOp::Add, Reg::l(2), 1, Reg::l(2));
                }
                2 => {
                    a.ld(MemSize::Word, false, Reg::l(1), 0, Reg::l(4));
                }
                3 => {
                    a.st(MemSize::Word, Reg::l(2), Reg::l(1), 0);
                }
                5 => {
                    a.push(Instr::Branch {
                        cond: ICond::A,
                        annul: true,
                        disp22: 1,
                    });
                }
                _ => {
                    a.nop();
                }
            },
        },
        other => panic!("no calibration kernel for class `{other}`"),
    }
}

/// Assembles a Table II kernel: `with_body = false` gives the
/// reference kernel, `true` the test kernel.
fn build_kernel(spec: &KernelSpec, iters: u32, with_body: bool) -> Vec<u32> {
    let mut a = Assembler::new(nfp_sim::RAM_BASE);
    (spec.setup)(&mut a);
    a.set32(iters, Reg::l(0));
    a.label("loop");
    if with_body {
        for k in 0..UNROLL {
            (spec.emit)(&mut a, k);
        }
    }
    a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
    a.b(ICond::Ne, "loop");
    a.nop();
    a.mov(0, Reg::o(0));
    a.ta(0);
    a.nop();
    // 8-aligned data for the FPU operands and memory scratch.
    if a.here() % 2 == 1 {
        a.word(0);
    }
    a.label("dbl_a");
    let bits_a = 1.0f64.to_bits();
    a.word((bits_a >> 32) as u32).word(bits_a as u32);
    a.label("dbl_b");
    // 1/3: a dense mantissa, representative of real operands for the
    // operand-dependent FPU divide/sqrt latency.
    let bits_b = (1.0f64 / 3.0).to_bits();
    a.word((bits_b >> 32) as u32).word(bits_b as u32);
    a.label("scratch");
    a.word(0).word(0);
    a.finish().expect("calibration kernel assembles")
}

/// Runs one kernel on the testbed and returns its measurement.
fn measure_kernel(
    testbed: &Testbed,
    words: &[u32],
    fpu: bool,
    seed: u64,
) -> Result<nfp_testbed::Measurement, SimError> {
    let mut machine = Machine::new(MachineConfig {
        ram_size: 1 << 20,
        fpu_enabled: fpu,
        count_categories: false,
        ..MachineConfig::default()
    });
    machine.load_image(nfp_sim::RAM_BASE, words)?;
    let measured = testbed.run(&mut machine, seed, 10_000_000_000)?;
    Ok(measured.measurement)
}

/// Derives one class's specific costs (Eq. 2) from the reference/test
/// measurement pair, rejecting degenerate inputs instead of producing
/// NaN/∞ costs: a zero test-instruction count divides by zero, a
/// non-finite measurement poisons everything downstream, and an
/// identical reference/test pair is a rank-deficient system with no
/// differential signal to solve for.
fn derive(
    class: &'static str,
    n_test: u64,
    m_ref: &nfp_testbed::Measurement,
    m_test: &nfp_testbed::Measurement,
) -> Result<ClassCalibration, NfpError> {
    let degenerate = |reason: String| NfpError::Calibration {
        class: class.to_string(),
        reason,
    };
    if n_test == 0 {
        return Err(degenerate(
            "zero test-instruction count (zero-count category)".to_string(),
        ));
    }
    for (label, v) in [
        ("reference time", m_ref.time_s),
        ("reference energy", m_ref.energy_j),
        ("test time", m_test.time_s),
        ("test energy", m_test.energy_j),
    ] {
        if !v.is_finite() {
            return Err(degenerate(format!("non-finite {label} measurement ({v})")));
        }
    }
    if m_test.time_s == m_ref.time_s && m_test.energy_j == m_ref.energy_j {
        return Err(degenerate(
            "reference and test measurements are identical \
             (rank-deficient system, no differential signal)"
                .to_string(),
        ));
    }
    Ok(ClassCalibration {
        class,
        time_s: (m_test.time_s - m_ref.time_s) / n_test as f64,
        energy_j: (m_test.energy_j - m_ref.energy_j) / n_test as f64,
        n_test,
        measured_time_s: (m_ref.time_s, m_test.time_s),
        measured_energy_j: (m_ref.energy_j, m_test.energy_j),
    })
}

/// Calibrates one class; exposed for the sensitivity ablation (E7),
/// which varies the iteration count.
pub fn calibrate_class(
    testbed: &Testbed,
    class: &'static str,
    iters: u32,
    seed: u64,
) -> Result<ClassCalibration, NfpError> {
    let n_test = iters as u64 * UNROLL as u64;
    if n_test == 0 {
        // Catch the zero-count case before paying for two testbed runs
        // (and before `build_kernel` emits a loop that counts down from
        // zero).
        return derive(
            class,
            0,
            &nfp_testbed::Measurement {
                time_s: 0.0,
                energy_j: 0.0,
            },
            &nfp_testbed::Measurement {
                time_s: 0.0,
                energy_j: 0.0,
            },
        );
    }
    let spec = spec_for(class);
    let ref_words = build_kernel(&spec, iters, false);
    let test_words = build_kernel(&spec, iters, true);
    let m_ref = measure_kernel(testbed, &ref_words, spec.uses_fpu, seed)?;
    let m_test = measure_kernel(testbed, &test_words, spec.uses_fpu, seed.wrapping_add(1))?;
    derive(class, n_test, &m_ref, &m_test)
}

/// Default iteration count for a class (sized so the differential
/// signal dominates instrument quantisation).
pub fn default_iters(class: &'static str) -> u32 {
    let spec = spec_for(class);
    let per_iter = spec.t_hint_s * UNROLL as f64;
    ((TARGET_DIFF_S / per_iter).ceil() as u32).clamp(1_000, 1_000_000)
}

/// Calibrates every class of `classifier` on the testbed
/// (regenerates the paper's Table I when used with [`crate::Paper`]).
pub fn calibrate<C: Classifier>(
    testbed: &Testbed,
    classifier: &C,
    seed: u64,
) -> Result<Calibration, NfpError> {
    if classifier.class_count() == 0 {
        return Err(NfpError::Empty {
            what: "classifier class set",
        });
    }
    let none = Calibration {
        model: CostModel {
            time_s: Vec::new(),
            energy_j: Vec::new(),
        },
        details: Vec::new(),
    };
    none.extended(testbed, classifier, seed)
}

impl Calibration {
    /// This calibration extended to every class of `classifier`, whose
    /// leading classes must be this calibration's rows: only the
    /// classes beyond them are measured, class `index` with seed
    /// `seed + 97·index`. When this calibration is
    /// `calibrate(testbed, base, seed)`, the result equals
    /// `calibrate(testbed, classifier, seed)`.
    pub fn extended<C: Classifier>(
        &self,
        testbed: &Testbed,
        classifier: &C,
        seed: u64,
    ) -> Result<Calibration, NfpError> {
        let mut cal = self.clone();
        for (index, detail) in self.details.iter().enumerate() {
            assert_eq!(
                detail.class,
                classifier.class_name(index),
                "row {index} of the calibration being extended"
            );
        }
        for index in self.details.len()..classifier.class_count() {
            let class = classifier.class_name(index);
            let class_seed = seed.wrapping_add(index as u64 * 97);
            let detail = calibrate_class(testbed, class, default_iters(class), class_seed)?;
            cal.model.time_s.push(detail.time_s);
            cal.model.energy_j.push(detail.energy_j);
            cal.details.push(detail);
        }
        Ok(cal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Paper;

    #[test]
    fn calibrated_values_land_near_paper_table1() {
        let testbed = Testbed::new();
        let cal = calibrate(&testbed, &Paper, 42).expect("calibration runs");
        let paper = crate::model::paper_table1();
        for (i, detail) in cal.details.iter().enumerate() {
            let t = cal.model.time_s[i];
            let e = cal.model.energy_j[i];
            assert!(t > 0.0 && e > 0.0, "{}: non-positive cost", detail.class);
            // Within 35 % of the paper's published Table I — same
            // hardware class, not the same board.
            let rel_t = (t - paper.time_s[i]).abs() / paper.time_s[i];
            let rel_e = (e - paper.energy_j[i]).abs() / paper.energy_j[i];
            assert!(
                rel_t < 0.35,
                "{}: specific time {:.1} ns vs paper {:.1} ns",
                detail.class,
                t * 1e9,
                paper.time_s[i] * 1e9
            );
            assert!(
                rel_e < 0.35,
                "{}: specific energy {:.1} nJ vs paper {:.1} nJ",
                detail.class,
                e * 1e9,
                paper.energy_j[i] * 1e9
            );
        }
    }

    #[test]
    fn fine_model_from_paper_rows_equals_a_fine_calibration() {
        let testbed = Testbed::new();
        let paper = calibrate(&testbed, &Paper, 0xcafe).unwrap();
        let reused = paper.extended(&testbed, &crate::Fine, 0xcafe).unwrap();
        let full = calibrate(&testbed, &crate::Fine, 0xcafe).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused.model.time_s), bits(&full.model.time_s));
        assert_eq!(bits(&reused.model.energy_j), bits(&full.model.energy_j));
        let rows = |cal: &Calibration| {
            cal.details
                .iter()
                .map(|d| (d.class, d.n_test))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&reused), rows(&full));
    }

    #[test]
    fn calibration_is_reproducible() {
        let testbed = Testbed::new();
        let a = calibrate_class(&testbed, "Integer Arithmetic", 50_000, 7).unwrap();
        let b = calibrate_class(&testbed, "Integer Arithmetic", 50_000, 7).unwrap();
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn zero_iteration_calibration_is_a_typed_error_not_nan() {
        let testbed = Testbed::new();
        match calibrate_class(&testbed, "NOP", 0, 1) {
            Err(NfpError::Calibration { class, reason }) => {
                assert_eq!(class, "NOP");
                assert!(reason.contains("zero-count"), "{reason}");
            }
            other => panic!("expected Calibration error, got {other:?}"),
        }
    }

    #[test]
    fn rank_deficient_measurement_pair_is_rejected() {
        let same = nfp_testbed::Measurement {
            time_s: 1.25,
            energy_j: 0.5,
        };
        match derive("Jump", 1000, &same, &same) {
            Err(NfpError::Calibration { reason, .. }) => {
                assert!(reason.contains("rank-deficient"), "{reason}");
            }
            other => panic!("expected Calibration error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_measurements_are_rejected() {
        let r = nfp_testbed::Measurement {
            time_s: 1.0,
            energy_j: 0.5,
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = nfp_testbed::Measurement {
                time_s: bad,
                energy_j: 0.7,
            };
            match derive("NOP", 64, &r, &t) {
                Err(NfpError::Calibration { reason, .. }) => {
                    assert!(reason.contains("non-finite"), "{reason}");
                }
                other => panic!("expected Calibration error, got {other:?}"),
            }
        }
    }

    #[test]
    fn well_formed_derivation_matches_eq2() {
        let m_ref = nfp_testbed::Measurement {
            time_s: 1.0,
            energy_j: 0.5,
        };
        let m_test = nfp_testbed::Measurement {
            time_s: 3.0,
            energy_j: 1.5,
        };
        let cal = derive("NOP", 1000, &m_ref, &m_test).unwrap();
        assert!((cal.time_s - 2.0e-3).abs() < 1e-15);
        assert!((cal.energy_j - 1.0e-3).abs() < 1e-15);
        assert!(cal.time_s.is_finite() && cal.energy_j.is_finite());
    }

    #[test]
    fn load_costs_more_than_add() {
        let testbed = Testbed::new();
        let add = calibrate_class(&testbed, "Integer Arithmetic", 100_000, 1).unwrap();
        let load = calibrate_class(&testbed, "Memory Load", 20_000, 2).unwrap();
        assert!(load.time_s > 10.0 * add.time_s);
        assert!(load.energy_j > 5.0 * add.energy_j);
    }
}
