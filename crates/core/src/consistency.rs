//! Calibration consistency checks.
//!
//! The paper notes that because the reference/test kernels have an
//! "unrealistic programming flow", the derived specific values "are
//! checked for consistency and manually adapted, if necessary"
//! (Section V). This module automates that manual inspection:
//! structural sanity checks on the calibrated table, plus a
//! cross-validation against a *mixed* kernel whose instruction blend
//! resembles real code rather than a homogeneous loop.

use crate::calibration::Calibration;
use crate::model::{Classifier, Paper};
use nfp_sim::{Machine, MachineConfig, SimError};
use nfp_sparc::asm::Assembler;
use nfp_sparc::cond::ICond;
use nfp_sparc::{AluOp, FReg, FpOp, MemSize, Operand, Reg};
use nfp_testbed::Testbed;
use std::fmt;

/// Severity of a consistency finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The table is unusable (negative cost, NaN).
    Error,
    /// Suspicious but possibly legitimate (ordering violations,
    /// implausible power, large validation residual).
    Warning,
}

/// One finding from the consistency check.
#[derive(Debug, Clone)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Error => "ERROR",
            Severity::Warning => "warning",
        };
        write!(f, "[{tag}] {}", self.message)
    }
}

/// Structural checks on a calibrated nine-class table: positivity,
/// expected cost ordering, and implied-power plausibility.
pub fn check_structure(cal: &Calibration) -> Vec<Finding> {
    let mut findings = Vec::new();
    let t = &cal.model.time_s;
    let e = &cal.model.energy_j;
    for (i, d) in cal.details.iter().enumerate() {
        if !t[i].is_finite() || t[i] <= 0.0 {
            findings.push(Finding {
                severity: Severity::Error,
                message: format!("{}: non-positive specific time {:.3e} s", d.class, t[i]),
            });
        }
        if !e[i].is_finite() || e[i] <= 0.0 {
            findings.push(Finding {
                severity: Severity::Error,
                message: format!("{}: non-positive specific energy {:.3e} J", d.class, e[i]),
            });
        }
        if t[i] > 0.0 && e[i] > 0.0 {
            // Implied average power must be physically plausible for a
            // small FPGA board (tens of mW to a few W).
            let power = e[i] / t[i];
            if !(0.01..=10.0).contains(&power) {
                findings.push(Finding {
                    severity: Severity::Warning,
                    message: format!(
                        "{}: implied power {:.2} W outside the plausible 0.01-10 W band",
                        d.class, power
                    ),
                });
            }
        }
    }
    // Ordering expectations on a cacheless SDRAM system.
    let idx = |name: &str| cal.details.iter().position(|d| d.class == name);
    if let (Some(load), Some(store), Some(int)) = (
        idx("Memory Load"),
        idx("Memory Store"),
        idx("Integer Arithmetic"),
    ) {
        if !(t[load] > t[store] && t[store] > t[int]) {
            findings.push(Finding {
                severity: Severity::Warning,
                message: format!(
                    "expected t(load) > t(store) > t(int); got {:.0} / {:.0} / {:.0} ns",
                    t[load] * 1e9,
                    t[store] * 1e9,
                    t[int] * 1e9
                ),
            });
        }
    }
    findings
}

/// A mixed validation kernel: a loop blending arithmetic, memory,
/// control, and (optionally) FPU work the way real code does — the
/// opposite of the homogeneous calibration loops.
fn mixed_kernel(iters: u32, with_fpu: bool) -> Vec<u32> {
    let mut a = Assembler::new(nfp_sim::RAM_BASE);
    a.sethi_hi("buffer", Reg::l(1));
    a.or_lo("buffer", Reg::l(1));
    if with_fpu {
        a.lddf(Reg::l(1), 0, FReg::new(0));
        a.lddf(Reg::l(1), 8, FReg::new(2));
    }
    a.set32(iters, Reg::l(0));
    a.mov(0, Reg::l(2));
    a.label("loop");
    // A blend of work with data-dependent addressing.
    a.alu(AluOp::Add, Reg::l(2), 17, Reg::l(2));
    a.alu(AluOp::And, Reg::l(2), 0xfc, Reg::l(3)); // word-aligned offset
    a.ld(
        MemSize::Word,
        false,
        Reg::l(1),
        Operand::Reg(Reg::l(3)),
        Reg::l(4),
    );
    a.alu(AluOp::Xor, Reg::l(4), Operand::Reg(Reg::l(2)), Reg::l(4));
    a.st(MemSize::Word, Reg::l(4), Reg::l(1), Operand::Reg(Reg::l(3)));
    a.alu(AluOp::SMul, Reg::l(2), 3, Reg::l(5));
    if with_fpu {
        a.fpop(FpOp::FMulD, FReg::new(0), FReg::new(2), FReg::new(4));
        a.fpop(FpOp::FAddD, FReg::new(4), FReg::new(2), FReg::new(6));
    }
    a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
    a.b(ICond::Ne, "loop");
    a.nop();
    a.mov(0, Reg::o(0));
    a.ta(0);
    a.nop();
    if a.here() % 2 == 1 {
        a.word(0);
    }
    a.label("buffer");
    for k in 0..66u32 {
        a.word(k.wrapping_mul(0x9e37_79b9));
    }
    // Plant two sane doubles at the start of the buffer for the FPU mix.

    {
        let mut w = a.finish().expect("mixed kernel assembles");
        let b0 = 1.25f64.to_bits();
        let b1 = 0.75f64.to_bits();
        let base = w.len() - 66;
        w[base] = (b0 >> 32) as u32;
        w[base + 1] = b0 as u32;
        w[base + 2] = (b1 >> 32) as u32;
        w[base + 3] = b1 as u32;
        w
    }
}

/// Result of the cross-validation run.
#[derive(Debug, Clone, Copy)]
pub struct Validation {
    /// Signed relative time residual of the model on the mixed kernel.
    pub time_residual: f64,
    /// Signed relative energy residual.
    pub energy_residual: f64,
}

/// Cross-validates a calibration on the mixed kernel and reports the
/// residuals; residuals beyond `tolerance` become warnings.
pub fn validate(
    testbed: &Testbed,
    cal: &Calibration,
    tolerance: f64,
) -> Result<(Validation, Vec<Finding>), SimError> {
    let words = mixed_kernel(400_000, true);
    // One simulation: the testbed measures the kernel while the
    // machine counts its Table I categories for Eq. 1.
    let mut machine = Machine::new(MachineConfig {
        ram_size: 1 << 20,
        ..MachineConfig::default()
    });
    machine.load_image(nfp_sim::RAM_BASE, &words)?;
    let measured = testbed.run(&mut machine, 0xbeef, 1_000_000_000)?;
    let hw = &measured.totals;
    let counts = Paper.folded(measured.run.counts.as_array(), hw.int_mul, hw.int_div);
    let estimate = cal.model.estimate(&counts);
    let validation = Validation {
        time_residual: (estimate.time_s - measured.measurement.time_s)
            / measured.measurement.time_s,
        energy_residual: (estimate.energy_j - measured.measurement.energy_j)
            / measured.measurement.energy_j,
    };
    let mut findings = Vec::new();
    for (name, residual) in [
        ("time", validation.time_residual),
        ("energy", validation.energy_residual),
    ] {
        if residual.abs() > tolerance {
            findings.push(Finding {
                severity: Severity::Warning,
                message: format!(
                    "mixed-kernel {name} residual {:+.2}% exceeds {:.0}% tolerance — \
                     consider adapting the calibrated values (paper §V)",
                    residual * 100.0,
                    tolerance * 100.0
                ),
            });
        }
    }
    Ok((validation, findings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrate;
    use crate::model::CostModel;

    #[test]
    fn healthy_calibration_passes_all_checks() {
        let testbed = Testbed::new();
        let cal = calibrate(&testbed, &Paper, 7).unwrap();
        let findings = check_structure(&cal);
        assert!(
            findings.is_empty(),
            "unexpected findings: {:?}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        let (validation, warnings) = validate(&testbed, &cal, 0.10).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(validation.time_residual.abs() < 0.10);
        assert!(validation.energy_residual.abs() < 0.10);
    }

    #[test]
    fn corrupted_table_is_flagged() {
        let testbed = Testbed::new();
        let mut cal = calibrate(&testbed, &Paper, 8).unwrap();
        // Sabotage: negative time, implausible power, broken ordering.
        cal.model = CostModel {
            time_s: {
                let mut t = cal.model.time_s.clone();
                t[0] = -1.0e-9;
                t[2] = 1.0e-9; // load faster than int: ordering violated
                t
            },
            energy_j: {
                let mut e = cal.model.energy_j.clone();
                e[1] = 5.0e-3; // 5 mJ per jump: implied power way off
                e
            },
        };
        let findings = check_structure(&cal);
        assert!(findings.iter().any(|f| f.severity == Severity::Error));
        assert!(findings.iter().any(|f| f.severity == Severity::Warning));
        assert!(findings.len() >= 3, "{findings:?}");
    }

    #[test]
    fn validation_flags_a_wrong_model() {
        let testbed = Testbed::new();
        let mut cal = calibrate(&testbed, &Paper, 9).unwrap();
        for t in &mut cal.model.time_s {
            *t *= 2.0; // everything twice as slow as reality
        }
        let (validation, warnings) = validate(&testbed, &cal, 0.10).unwrap();
        assert!(validation.time_residual > 0.5);
        assert!(!warnings.is_empty());
    }

    #[test]
    fn findings_render_with_severity() {
        let f = Finding {
            severity: Severity::Error,
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "[ERROR] boom");
    }
}
