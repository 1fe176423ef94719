//! The kernel registry: the evaluation's test set.
//!
//! The paper measures 36 HEVC bitstreams (4 encoder configurations ×
//! 3 quantisation parameters × 3 input sequences) and 24 FSE kernels
//! (24 images, each with its own loss mask), each compiled with and
//! without FPU instructions — 120 kernels in total for Table III.
//!
//! A [`Kernel`] bundles the workload input blob, the expected emitted
//! words (computed by the native reference implementations), and a
//! deterministic per-kernel measurement seed.

use crate::fse;
use crate::hevc::{self, Config};
use crate::pixels::{fnv1a, Image};
use crate::synth::{loss_mask, test_image, test_sequence, Scene};
use nfp_cc::{compile, CompileOptions, FloatMode, Program};
use nfp_core::NfpError;
use nfp_sim::{Machine, MachineConfig};
use std::sync::OnceLock;

/// Which program a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The mini-HEVC decoder.
    Hevc,
    /// Frequency Selective Extrapolation.
    Fse,
}

/// One evaluation kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Identifier, e.g. `hevc_movobj_lowdelay_qp32` or `fse_img07`.
    pub name: String,
    /// Which program decodes this kernel's input.
    pub workload: Workload,
    /// Input blob, written at `0x4100_0000` before the run.
    pub input: Vec<u8>,
    /// Expected emitted words (checksums/statistics), from the native
    /// reference implementation.
    pub expected_words: Vec<u32>,
    /// Per-kernel measurement seed (instrument noise).
    pub seed: u64,
}

/// Workload sizing. [`Preset::paper`] matches the evaluation scale;
/// [`Preset::quick`] keeps unit tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Video width in pixels.
    pub video_w: usize,
    /// Video height in pixels.
    pub video_h: usize,
    /// Frames per video kernel.
    pub frames: usize,
    /// FSE image side length.
    pub fse_size: usize,
    /// Lost 8×8 blocks per FSE kernel.
    pub fse_blocks: usize,
    /// FSE iterations per block.
    pub fse_iters: u32,
}

impl Preset {
    /// Evaluation-scale workloads.
    pub fn paper() -> Self {
        Preset {
            video_w: 64,
            video_h: 48,
            frames: 6,
            fse_size: 48,
            fse_blocks: 4,
            fse_iters: fse::ITERATIONS as u32,
        }
    }

    /// Small workloads for fast tests.
    pub fn quick() -> Self {
        Preset {
            video_w: 32,
            video_h: 24,
            frames: 3,
            fse_size: 32,
            fse_blocks: 2,
            fse_iters: 8,
        }
    }
}

/// The three QPs of the evaluation (paper Section VI-A).
pub const QPS: [u32; 3] = [10, 32, 45];

/// Builds the 36 HEVC kernels (4 configs × 3 QPs × 3 sequences).
pub fn hevc_kernels(preset: &Preset) -> Result<Vec<Kernel>, NfpError> {
    let mut kernels = Vec::with_capacity(36);
    let mut seed = 1000u64;
    for scene in Scene::ALL {
        let frames = test_sequence(scene, preset.video_w, preset.video_h, preset.frames);
        for config in Config::ALL {
            for qp in QPS {
                kernels.push(hevc_kernel(&frames, scene, config, qp, seed)?);
                seed += 1;
            }
        }
    }
    Ok(kernels)
}

fn hevc_name(scene: Scene, config: Config, qp: u32) -> String {
    format!("hevc_{}_{}_qp{}", scene.name(), config.name(), qp)
}

/// One HEVC kernel: `frames` (the scene's sequence) encoded under
/// `config` at `qp`, with the registry's measurement seed.
fn hevc_kernel(
    frames: &[Image],
    scene: Scene,
    config: Config,
    qp: u32,
    seed: u64,
) -> Result<Kernel, NfpError> {
    let name = hevc_name(scene, config, qp);
    let encoded = hevc::encode(frames, config, qp)?;
    let decoded = hevc::decode(&encoded.bytes).map_err(|e| NfpError::Workload {
        what: name.clone(),
        reason: format!("own bitstream does not decode: {e}"),
    })?;
    let mut all_bytes = Vec::new();
    for f in &decoded.frames {
        all_bytes.extend_from_slice(&f.data);
    }
    let activity_bits = decoded.activity.to_bits();
    Ok(Kernel {
        name,
        workload: Workload::Hevc,
        input: hevc::minic::input_blob(&encoded.bytes),
        expected_words: vec![
            fnv1a(&all_bytes),
            (activity_bits >> 32) as u32,
            activity_bits as u32,
        ],
        seed,
    })
}

/// Builds the 24 FSE kernels (24 images with individual masks).
pub fn fse_kernels(preset: &Preset) -> Result<Vec<Kernel>, NfpError> {
    Ok((0..FSE_KERNELS).map(|i| fse_kernel(preset, i)).collect())
}

/// FSE kernels in the registry.
const FSE_KERNELS: u64 = 24;

/// FSE kernel `i`: image `i` with its own loss mask.
fn fse_kernel(preset: &Preset, i: u64) -> Kernel {
    let img = test_image(preset.fse_size, preset.fse_size, i);
    let mask = loss_mask(preset.fse_size, preset.fse_size, preset.fse_blocks, i);
    // The lost samples carry arbitrary content in a real error
    // pattern; zero them like the simulated program's input.
    let mut lost = img.clone();
    for (p, &m) in lost.data.iter_mut().zip(&mask) {
        if m {
            *p = 0;
        }
    }
    let mut concealed = lost.clone();
    fse::conceal(&mut concealed, &mask, preset.fse_iters as usize);
    Kernel {
        name: format!("fse_img{i:02}"),
        workload: Workload::Fse,
        input: fse::minic::input_blob(&lost, &mask, preset.fse_iters),
        expected_words: vec![fnv1a(&concealed.data)],
        seed: 2000 + i,
    }
}

/// All 60 kernels of the evaluation (each is later run in float and
/// fixed variants, giving the paper's M = 120).
pub fn all_kernels(preset: &Preset) -> Result<Vec<Kernel>, NfpError> {
    let mut v = hevc_kernels(preset)?;
    v.extend(fse_kernels(preset)?);
    Ok(v)
}

/// The kernel named `name`, exactly as [`all_kernels`] builds it, built
/// alone: only its own input is synthesised. An error if no kernel of
/// the evaluation has that name.
pub fn kernel(preset: &Preset, name: &str) -> Result<Kernel, NfpError> {
    if let Some(i) = (0..FSE_KERNELS).find(|i| name == format!("fse_img{i:02}")) {
        return Ok(fse_kernel(preset, i));
    }
    let mut seed = 1000u64;
    for scene in Scene::ALL {
        for config in Config::ALL {
            for qp in QPS {
                if name == hevc_name(scene, config, qp) {
                    let frames =
                        test_sequence(scene, preset.video_w, preset.video_h, preset.frames);
                    return hevc_kernel(&frames, scene, config, qp, seed);
                }
                seed += 1;
            }
        }
    }
    Err(NfpError::Workload {
        what: name.to_string(),
        reason: "no kernel of the evaluation has this name".to_string(),
    })
}

/// The compiled workload program for a (workload, float-mode) pair.
/// Programs are shared by all kernels of a workload and cached (a
/// compile failure is cached too, and returned on every lookup).
pub fn program(workload: Workload, mode: FloatMode) -> Result<&'static Program, NfpError> {
    static CACHE: OnceLock<[OnceLock<Result<Program, NfpError>>; 4]> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let idx = match (workload, mode) {
        (Workload::Hevc, FloatMode::Hard) => 0,
        (Workload::Hevc, FloatMode::Soft) => 1,
        (Workload::Fse, FloatMode::Hard) => 2,
        (Workload::Fse, FloatMode::Soft) => 3,
    };
    cache[idx]
        .get_or_init(|| {
            let source = match workload {
                Workload::Hevc => hevc::minic::decoder_source(),
                Workload::Fse => fse::minic::fse_source(),
            };
            compile(&source, &CompileOptions::new(mode)).map_err(|e| NfpError::Workload {
                what: format!("{workload:?}/{mode:?} program"),
                reason: e.to_string(),
            })
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// Address where kernels read their input.
pub const INPUT_BASE: u32 = 0x4100_0000;

/// Address where kernels write their output.
pub const OUTPUT_BASE: u32 = 0x4200_0000;

/// A machine loaded with a kernel's program and input, ready to run.
pub fn machine_for(kernel: &Kernel, mode: FloatMode) -> Result<Machine, NfpError> {
    let program = program(kernel.workload, mode)?;
    let mut machine = Machine::new(MachineConfig {
        fpu_enabled: mode == FloatMode::Hard,
        ..MachineConfig::default()
    });
    machine.load_image(program.base, &program.words)?;
    machine
        .bus
        .write_bytes(INPUT_BASE, &kernel.input)
        .map_err(nfp_sim::SimError::from)?;
    Ok(machine)
}

/// Instruction budget generous enough for the largest soft-float
/// kernel.
pub const KERNEL_BUDGET: u64 = 20_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_paper_counts() {
        let preset = Preset::quick();
        assert_eq!(hevc_kernels(&preset).expect("hevc kernels").len(), 36);
        assert_eq!(fse_kernels(&preset).expect("fse kernels").len(), 24);
        assert_eq!(all_kernels(&preset).expect("all kernels").len(), 60);
    }

    #[test]
    fn kernel_names_are_unique() {
        let preset = Preset::quick();
        let kernels = all_kernels(&preset).expect("all kernels");
        let mut names: Vec<_> = kernels.iter().map(|k| &k.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), kernels.len());
    }

    #[test]
    fn a_kernel_built_alone_is_its_registry_entry() {
        let preset = Preset::quick();
        for k in all_kernels(&preset).expect("all kernels") {
            let alone = kernel(&preset, &k.name).expect("a registry name");
            assert_eq!(format!("{alone:?}"), format!("{k:?}"), "{}", k.name);
        }
        for name in ["fse_img24", "fse_img1", "hevc_nosuch", ""] {
            assert!(kernel(&preset, name).is_err(), "{name:?}");
        }
    }

    #[test]
    fn kernels_have_expected_words() {
        let preset = Preset::quick();
        for k in all_kernels(&preset).expect("all kernels") {
            assert!(!k.expected_words.is_empty(), "{}", k.name);
            assert!(!k.input.is_empty(), "{}", k.name);
        }
    }
}
