//! The measurement chain: power meter and `clock()` model.
//!
//! The paper (Section V) measures time with the C `clock()` function
//! and energy with a power meter. Both instruments are imperfect in
//! characteristic ways that this module reproduces:
//!
//! * the power meter samples at a finite rate; integrating noisy
//!   samples leaves a residual relative error that shrinks with the
//!   square root of the number of samples (long kernels measure more
//!   accurately than short ones);
//! * `clock()` advances in discrete ticks, so a duration is the
//!   difference of two quantised tick counts with a random phase.
//!
//! All randomness is drawn from an explicitly seeded generator so that
//! measurements are reproducible run to run.

use crate::cache::CacheConfig;
use crate::hw::{HwObserver, HwTotals, CLOCK_HZ};
use nfp_sim::{Machine, RunResult, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Power meter and timer characteristics.
#[derive(Debug, Clone)]
pub struct MeterConfig {
    /// Power-meter sampling rate in Hz.
    pub sample_hz: f64,
    /// Relative standard deviation of a single power sample.
    pub sample_sigma: f64,
    /// `clock()` tick length in seconds.
    pub clock_tick_s: f64,
}

impl Default for MeterConfig {
    fn default() -> Self {
        MeterConfig {
            sample_hz: 1_000.0,
            sample_sigma: 0.02,
            clock_tick_s: 1.0e-3,
        }
    }
}

/// One measured quantity pair as the instruments report it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Time reported by the `clock()` model, in seconds.
    pub time_s: f64,
    /// Energy reported by the power-meter model, in joules.
    pub energy_j: f64,
}

/// Result of running a kernel on the testbed.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// Functional result (exit code, console, counters).
    pub run: RunResult,
    /// Ground-truth totals from the hardware model.
    pub totals: HwTotals,
    /// What the instruments reported.
    pub measurement: Measurement,
}

/// The virtual DE2-115 board: the hardware model's const price table
/// plus instruments, with an optional data cache (the paper's
/// future-work extension, E8).
#[derive(Debug, Clone, Default)]
pub struct Testbed {
    /// Instrument model.
    pub meter: MeterConfig,
    /// When set, the core is synthesised with a D-cache and memory
    /// cost becomes history-dependent.
    pub cache: Option<CacheConfig>,
}

/// A standard normal variate via Box–Muller (avoids an extra
/// distribution dependency).
fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

impl Testbed {
    /// A testbed with default hardware and instrument parameters
    /// (cacheless, like the paper's evaluated configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// A testbed whose core includes a data cache.
    pub fn with_cache(cache: CacheConfig) -> Self {
        Testbed {
            cache: Some(cache),
            ..Self::default()
        }
    }

    /// Runs the machine to completion under the hardware model and
    /// applies the measurement chain. `seed` individualises instrument
    /// noise per kernel (the paper measures each kernel in a separate
    /// session).
    pub fn run(
        &self,
        machine: &mut Machine,
        seed: u64,
        max_instrs: u64,
    ) -> Result<MeasuredRun, SimError> {
        let mut observer = HwObserver::new(self.cache.clone());
        let run = machine.run_observed(max_instrs, &mut observer)?;
        let totals = observer.totals();
        let measurement = self.measure(&totals, seed);
        Ok(MeasuredRun {
            run,
            totals,
            measurement,
        })
    }

    /// Applies the instrument model to ground-truth totals.
    pub fn measure(&self, totals: &HwTotals, seed: u64) -> Measurement {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let true_time = totals.cycles as f64 / CLOCK_HZ;

        // clock(): duration = difference of two quantised tick counts
        // with a uniformly random phase.
        let tick = self.meter.clock_tick_s;
        let phase: f64 = rng.gen_range(0.0..tick);
        let start_ticks = (phase / tick).floor();
        let end_ticks = ((phase + true_time) / tick).floor();
        let time_s = (end_ticks - start_ticks) * tick;

        // Power meter: integrating n noisy samples leaves a relative
        // error of sigma/sqrt(n).
        let n_samples = (true_time * self.meter.sample_hz).max(1.0);
        let rel_sigma = self.meter.sample_sigma / n_samples.sqrt();
        let energy_j = totals.energy_j * (1.0 + rel_sigma * standard_normal(&mut rng));

        Measurement { time_s, energy_j }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sim::RAM_BASE;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::cond::ICond;
    use nfp_sparc::{AluOp, Reg};

    fn spin_program(iters: u32) -> Vec<u32> {
        let mut a = Assembler::new(RAM_BASE);
        a.set32(iters, Reg::l(0));
        a.label("loop");
        a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
        a.b(ICond::Ne, "loop");
        a.nop();
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        a.finish().unwrap()
    }

    #[test]
    fn run_accumulates_cycles_and_energy() {
        let tb = Testbed::new();
        let mut m = Machine::boot(&spin_program(1000));
        let r = tb.run(&mut m, 1, 10_000_000).unwrap();
        assert!(r.totals.cycles > 1000 * 10);
        assert!(r.totals.energy_j > 0.0);
        assert_eq!(r.run.exit_code, 0);
        // The measured time is within a tick of the true time.
        let true_t = r.totals.cycles as f64 / CLOCK_HZ;
        assert!((r.measurement.time_s - true_t).abs() <= tb.meter.clock_tick_s);
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let tb = Testbed::new();
        let totals = HwTotals {
            cycles: 50_000_000,
            energy_j: 0.5,
            instret: 10_000_000,
            row_misses: 0,
            ..HwTotals::default()
        };
        let a = tb.measure(&totals, 7);
        let b = tb.measure(&totals, 7);
        assert_eq!(a, b);
        let c = tb.measure(&totals, 8);
        assert_ne!(a.energy_j, c.energy_j);
    }

    #[test]
    fn long_runs_measure_energy_more_accurately() {
        let tb = Testbed::new();
        let short = HwTotals {
            cycles: 500_000, // 10 ms
            energy_j: 0.005,
            instret: 100_000,
            row_misses: 0,
            ..HwTotals::default()
        };
        let long = HwTotals {
            cycles: 500_000_000, // 10 s
            energy_j: 5.0,
            instret: 100_000_000,
            row_misses: 0,
            ..HwTotals::default()
        };
        let rel_err = |totals: &HwTotals| {
            let mut worst: f64 = 0.0;
            for seed in 0..50 {
                let m = tb.measure(totals, seed);
                worst = worst.max(((m.energy_j - totals.energy_j) / totals.energy_j).abs());
            }
            worst
        };
        assert!(rel_err(&long) < rel_err(&short));
    }

    #[test]
    fn clock_quantisation_bounds() {
        let tb = Testbed::new();
        let totals = HwTotals {
            cycles: 5_123_456,
            energy_j: 0.05,
            instret: 1_000_000,
            row_misses: 0,
            ..HwTotals::default()
        };
        let true_t = totals.cycles as f64 / CLOCK_HZ;
        for seed in 0..100 {
            let m = tb.measure(&totals, seed);
            assert!((m.time_s - true_t).abs() <= tb.meter.clock_tick_s + 1e-12);
            // time is always a whole number of ticks
            let ticks = m.time_s / tb.meter.clock_tick_s;
            assert!((ticks - ticks.round()).abs() < 1e-9);
        }
    }
}
