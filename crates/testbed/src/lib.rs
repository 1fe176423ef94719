#![warn(missing_docs)]
//! `nfp-testbed`: the virtual measurement testbed.
//!
//! The paper measures ground truth on a Terasic DE2-115 board: a
//! cacheless LEON3 soft-core (with or without FPU) synthesised on a
//! Cyclone IV FPGA, a power meter for energy, and `clock()` for time
//! (Section V). This crate substitutes that hardware with
//!
//! * [`hw`] — a detailed cycle and energy model with the *context
//!   effects* real hardware exhibits and the paper's mechanistic model
//!   deliberately ignores (SDRAM row locality, taken/untaken branch
//!   asymmetry, operand-dependent FPU divide and square-root latency,
//!   data-dependent datapath toggling, static leakage), attached to the
//!   functional simulator as an [`nfp_sim::Observer`]. It keeps an
//!   exact integer [`Ledger`] of what each run retired (counts per
//!   cost class, row misses, toggled bits, FPU extra cycles) and
//!   prices it once per run, so traced and stepped runs give the same
//!   totals bit for bit;
//! * [`cache`] — the optional data cache of extension E8, a second
//!   ledger observer;
//! * [`measure`] — the measurement chain: a power meter with finite
//!   sampling rate, gain error and noise, and a `clock()` with tick
//!   granularity;
//! * [`area`] — the FPGA resource model (logical elements per
//!   component) behind Table IV's area column.
//!
//! The estimator in `nfp-core` never sees any of this; it only
//! observes calibration measurements, exactly like the paper's
//! workflow. The gap between this model's behaviour and the
//! constant-cost assumption is what produces realistic estimation
//! errors (~3 % mean) rather than a trivially exact match.

pub mod area;
pub mod cache;
pub mod hw;
pub mod measure;

pub use area::{AreaModel, Component};
pub use cache::{Cache, CacheConfig, CachedHwObserver};
pub use hw::{CostClass, HwModel, HwObserver, HwTotals, Ledger, Price, COST_CLASSES};
pub use measure::{MeasuredRun, Measurement, MeterConfig, Testbed};
