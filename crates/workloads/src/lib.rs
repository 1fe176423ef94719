#![warn(missing_docs)]
//! `nfp-workloads`: the evaluation workloads of the paper —
//! a mini-HEVC video decoder (integer-dominated, heterogeneous) and
//! Frequency Selective Extrapolation (double-precision FFT-dominated) —
//! each available as a native Rust reference and as a generated mini-C
//! program that runs on the simulated LEON3, plus the synthetic test
//! content and the kernel registry used by the reproduction harness.

pub mod fse;
pub mod hevc;
pub mod kernels;
pub mod pixels;
pub mod synth;

pub use kernels::{
    all_kernels, fse_kernels, hevc_kernels, kernel, machine_for, program, Kernel, Preset, Workload,
    INPUT_BASE, KERNEL_BUDGET, OUTPUT_BASE, QPS,
};
pub use pixels::{fnv1a, psnr, Image};
