//! Synthetic test-content generation.
//!
//! The paper evaluates on 24 Kodak photographs (FSE) and 3 raw video
//! sequences (HEVC). Those data sets are not redistributable here, so
//! this module generates deterministic procedural stand-ins with
//! comparable signal structure: smooth gradients (low-frequency
//! energy), sinusoidal textures (mid frequencies), value noise (high
//! frequencies), and hard edges — plus the loss masks FSE conceals and
//! the moving scenes the video encoder compresses.

use crate::pixels::{clip255, Image};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smooth pseudo-random value noise: bilinear interpolation of a
/// coarse random lattice.
fn value_noise(width: usize, height: usize, cell: usize, amp: f64, rng: &mut StdRng) -> Vec<f64> {
    let gw = width / cell + 2;
    let gh = height / cell + 2;
    let lattice: Vec<f64> = (0..gw * gh).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut out = vec![0.0; width * height];
    for y in 0..height {
        for x in 0..width {
            let fx = x as f64 / cell as f64;
            let fy = y as f64 / cell as f64;
            let x0 = fx.floor() as usize;
            let y0 = fy.floor() as usize;
            let tx = fx - x0 as f64;
            let ty = fy - y0 as f64;
            // smoothstep for C1 continuity
            let sx = tx * tx * (3.0 - 2.0 * tx);
            let sy = ty * ty * (3.0 - 2.0 * ty);
            let l = |gx: usize, gy: usize| lattice[gy * gw + gx];
            let a = l(x0, y0) * (1.0 - sx) + l(x0 + 1, y0) * sx;
            let b = l(x0, y0 + 1) * (1.0 - sx) + l(x0 + 1, y0 + 1) * sx;
            out[y * width + x] = amp * (a * (1.0 - sy) + b * sy);
        }
    }
    out
}

/// Generates one "Kodak-like" photograph: a smooth illumination
/// gradient, two sinusoidal textures, multi-octave value noise, and a
/// couple of hard object edges. `seed` selects the picture.
pub fn test_image(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let base: f64 = rng.gen_range(90.0..150.0);
    let gx: f64 = rng.gen_range(-0.8..0.8);
    let gy: f64 = rng.gen_range(-0.8..0.8);
    let f1: f64 = rng.gen_range(0.05..0.25);
    let f2: f64 = rng.gen_range(0.02..0.12);
    let a1: f64 = rng.gen_range(8.0..28.0);
    let a2: f64 = rng.gen_range(5.0..20.0);
    let phase1: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let noise_coarse = value_noise(width, height, 12, rng.gen_range(10.0..25.0), &mut rng);
    let noise_fine = value_noise(width, height, 3, rng.gen_range(2.0..7.0), &mut rng);
    // Hard edges: a diagonal boundary and a rectangular "object".
    let edge_slope: f64 = rng.gen_range(-1.2..1.2);
    let edge_off: f64 = rng.gen_range(0.2..0.8) * height as f64;
    let edge_jump: f64 = rng.gen_range(-45.0..45.0);
    let rx0 = rng.gen_range(0..width / 2);
    let ry0 = rng.gen_range(0..height / 2);
    let rw = rng.gen_range(width / 6..width / 2);
    let rh = rng.gen_range(height / 6..height / 2);
    let rect_jump: f64 = rng.gen_range(-35.0..35.0);

    let mut img = Image::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let xf = x as f64;
            let yf = y as f64;
            let mut v = base + gx * xf + gy * yf;
            v += a1 * (f1 * xf + phase1).sin() * (f1 * 0.7 * yf).cos();
            v += a2 * (f2 * (xf + 2.0 * yf)).sin();
            v += noise_coarse[y * width + x] + noise_fine[y * width + x];
            if yf > edge_slope * xf + edge_off {
                v += edge_jump;
            }
            if x >= rx0 && x < rx0 + rw && y >= ry0 && y < ry0 + rh {
                v += rect_jump;
            }
            img.set(x, y, clip255(v.round() as i32));
        }
    }
    img
}

/// A loss mask: `true` marks samples whose content is unknown and must
/// be extrapolated. Each seed yields a different pattern of lost 8x8
/// blocks plus, for odd seeds, a lost scanline stripe — mimicking slice
/// loss in transmission-error concealment.
pub fn loss_mask(width: usize, height: usize, lost_blocks: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x517c_c1b7).wrapping_add(3));
    let mut mask = vec![false; width * height];
    let bw = width / 8;
    let bh = height / 8;
    let mut placed = 0;
    let mut guard = 0;
    while placed < lost_blocks && guard < 1000 {
        guard += 1;
        let bx = rng.gen_range(0..bw);
        let by = rng.gen_range(0..bh);
        // keep blocks off the outer border so every block has support
        if bx == 0 || by == 0 || bx == bw - 1 || by == bh - 1 {
            continue;
        }
        let already = mask[(by * 8) * width + bx * 8];
        if already {
            continue;
        }
        for y in 0..8 {
            for x in 0..8 {
                mask[(by * 8 + y) * width + bx * 8 + x] = true;
            }
        }
        placed += 1;
    }
    mask
}

/// A synthetic video scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    /// Smooth gradient panning horizontally (very compressible).
    GradientPan,
    /// A textured background with a moving rectangular object.
    MovingObject,
    /// High-entropy noise with a slow global drift (hard to code).
    NoisyDrift,
}

impl Scene {
    /// The three scenes of the evaluation (stand-ins for the paper's
    /// three raw input sequences).
    pub const ALL: [Scene; 3] = [Scene::GradientPan, Scene::MovingObject, Scene::NoisyDrift];

    /// Short name used in kernel identifiers.
    pub fn name(self) -> &'static str {
        match self {
            Scene::GradientPan => "gradpan",
            Scene::MovingObject => "movobj",
            Scene::NoisyDrift => "noisy",
        }
    }
}

/// Generates `frames` frames of a scene.
pub fn test_sequence(scene: Scene, width: usize, height: usize, frames: usize) -> Vec<Image> {
    let mut out = Vec::with_capacity(frames);
    match scene {
        Scene::GradientPan => {
            for t in 0..frames {
                let mut img = Image::new(width, height);
                for y in 0..height {
                    for x in 0..width {
                        let v = 40.0
                            + 1.4 * ((x + 3 * t) % width) as f64
                            + 0.8 * y as f64
                            + 12.0 * ((x as f64 * 0.11) + t as f64 * 0.2).sin();
                        img.set(x, y, clip255(v as i32));
                    }
                }
                out.push(img);
            }
        }
        Scene::MovingObject => {
            let mut rng = StdRng::seed_from_u64(77);
            let bg = value_noise(width, height, 6, 30.0, &mut rng);
            for t in 0..frames {
                let mut img = Image::new(width, height);
                // On frames barely larger than the object, pin it to
                // the corner instead of dividing by zero.
                let ox = (4 + 5 * t) % width.saturating_sub(16).max(1);
                let oy = (3 + 3 * t) % height.saturating_sub(16).max(1);
                for y in 0..height {
                    for x in 0..width {
                        let mut v = 120.0 + bg[y * width + x];
                        if x >= ox && x < ox + 16 && y >= oy && y < oy + 16 {
                            v = 220.0 - 4.0 * ((x - ox) as f64 - 8.0).abs();
                        }
                        img.set(x, y, clip255(v as i32));
                    }
                }
                out.push(img);
            }
        }
        Scene::NoisyDrift => {
            let mut rng = StdRng::seed_from_u64(991);
            let tex = value_noise(width * 2, height, 2, 55.0, &mut rng);
            for t in 0..frames {
                let mut img = Image::new(width, height);
                for y in 0..height {
                    for x in 0..width {
                        let sx = (x + 2 * t) % (width * 2);
                        let v = 128.0 + tex[y * width * 2 + sx];
                        img.set(x, y, clip255(v as i32));
                    }
                }
                out.push(img);
            }
        }
    }
    out
}

/// Shape of a [`random_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramShape {
    /// ALU and memory instructions only, ending in a clean `ta 0`
    /// exit: every instruction is block-batchable, so this shape
    /// stresses the straight-line accounting path.
    StraightLine,
    /// Conditional, annulled, and unconditional branches (forward and
    /// backward) mixed into the body. Programs may loop forever or run
    /// off the end of the image — callers compare behaviour under an
    /// instruction budget, not to completion.
    Branchy,
    /// Branchy, but the image *ends* with a CTI whose delay slot is
    /// the very last word: the edge case where batched execution must
    /// hand over to the step path exactly at the image boundary.
    CtiTail,
    /// Branchy, plus the instructions whose observer records carry
    /// more than an address and a result: FP double arithmetic
    /// (including `fdivd` and `fsqrtd`, and their single forms) on
    /// operands loaded from the scratch window, `fcmpd` and FP
    /// branches (annulled or not), `cmp` and `sethi` into `%g0`,
    /// `rd`/`wr %y`, `save` and `restore` (paired, and alone so windows
    /// over- and underflow), `call`s of a leaf that returns with
    /// `retl`, word stores of registers to the console's text and
    /// word streams, and word stores and loads of the eight data words
    /// that end the image, after its code: the predecode
    /// covers them, so a code fault can land on a word the program has
    /// overwritten. The scratch window's base lives in `%g4`, the
    /// console's in `%g5` and the data words' in `%g6`, which no other
    /// instruction writes, so they survive window changes. Run with the
    /// FPU enabled.
    Mixed,
}

/// Data words at the end of a [`ProgramShape::Mixed`] image.
const DATA_WORDS: usize = 8;

/// Generates a deterministic pseudo-random SPARC V8 program of roughly
/// `body` instructions for differential testing of simulator execution
/// modes (stepped vs traced dispatch must agree bit-exactly
/// on any program, so the generator favours coverage over sense:
/// integer ALU traffic with and without condition codes, aligned
/// loads/stores of every size — including doubleword pairs — to a
/// scratch window, and, per [`ProgramShape`], branches to arbitrary
/// body labels). Returns the assembled words; load at
/// [`nfp_sim::RAM_BASE`].
pub fn random_program(
    body: usize,
    seed: u64,
    shape: ProgramShape,
) -> Result<Vec<u32>, nfp_core::NfpError> {
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::cond::{FCond, ICond};
    use nfp_sparc::{AluOp, FReg, FpOp, Instr, MemSize, Operand, Reg};

    let base = 0x4000_0000u32; // nfp_sim::RAM_BASE, kept literal to
                               // avoid a dependency cycle in docs
    let scratch = base + 0x1_0000;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x6c62_272e).wrapping_add(3));
    let mut a = Assembler::new(base);

    // Registers the program may clobber: locals, %g1-%g3, %o0-%o3.
    let pool: Vec<Reg> = (0..8)
        .map(Reg::l)
        .chain((1..4).map(Reg::g))
        .chain((0..4).map(Reg::o))
        .collect();
    let reg = |rng: &mut StdRng| pool[rng.gen_range(0usize..pool.len())];

    let mixed = shape == ProgramShape::Mixed;
    let base_reg = if mixed { Reg::g(4) } else { Reg::l(7) };
    // Prologue: scratch window base and a few seeded values.
    a.set32(scratch, base_reg);
    let (console_reg, data_reg) = (Reg::g(5), Reg::g(6));
    if mixed {
        a.set32(nfp_sim::bus::CONSOLE_BASE, console_reg);
        a.sethi_hi("data", data_reg);
        a.or_lo("data", data_reg);
    }
    for i in 0..4 {
        a.mov(rng.gen_range(-512i32..512), Reg::l(i));
    }

    const ALU_OPS: [AluOp; 10] = [
        AluOp::Add,
        AluOp::AddCc,
        AluOp::Sub,
        AluOp::SubCc,
        AluOp::Or,
        AluOp::Xor,
        AluOp::And,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::SMul,
    ];
    const CONDS: [ICond; 6] = [
        ICond::E,
        ICond::Ne,
        ICond::L,
        ICond::Le,
        ICond::Cs,
        ICond::A,
    ];

    const FCONDS: [FCond; 6] = [FCond::E, FCond::Ne, FCond::L, FCond::G, FCond::U, FCond::A];
    // Even FP registers name double pairs; any register is a single.
    let even_f = |rng: &mut StdRng| FReg::new(rng.gen_range(0u8..8) * 2);
    let any_f = |rng: &mut StdRng| FReg::new(rng.gen_range(0u8..16));

    let branchy = shape != ProgramShape::StraightLine;
    // Only `Mixed` draws its extra rolls, so the other shapes keep
    // their exact output.
    let rolls = if mixed { 18 } else { 10 };
    let mut k = 0usize;
    while k < body {
        a.label(&format!("b{k}"));
        let roll = rng.gen_range(0u32..rolls);
        match roll {
            // Branch plus its delay slot (two body slots).
            0 | 1 if branchy && k + 1 < body => {
                let cond = CONDS[rng.gen_range(0usize..CONDS.len())];
                let target = format!("b{}", rng.gen_range(0usize..body));
                if mixed && rng.gen_range(0u32..3) == 0 {
                    let fcond = FCONDS[rng.gen_range(0usize..FCONDS.len())];
                    if rng.gen_range(0u32..4) == 0 {
                        a.fb_a(fcond, &target);
                    } else {
                        a.fb(fcond, &target);
                    }
                } else if rng.gen_range(0u32..4) == 0 {
                    a.b_a(cond, &target);
                } else {
                    a.b(cond, &target);
                }
                // Delay slot: simple ALU so annulment has a visible
                // architectural effect to diverge on. Other branches
                // may target the slot directly (label emitted here, as
                // every index in `0..body` must resolve).
                a.label(&format!("b{}", k + 1));
                let (rd, rs1) = (reg(&mut rng), reg(&mut rng));
                a.alu(AluOp::Add, rs1, rng.gen_range(-32i32..32), rd);
                k += 2;
                continue;
            }
            2 | 3 => {
                // Aligned load from the scratch window.
                let (size, align) = match rng.gen_range(0u32..4) {
                    0 => (MemSize::Byte, 1u32),
                    1 => (MemSize::Half, 2),
                    2 => (MemSize::Word, 4),
                    _ => (MemSize::Double, 8),
                };
                let off = rng.gen_range(0u32..(256 / align)) * align;
                let rd = if size == MemSize::Double {
                    // Even destination so the pair is architecturally
                    // legal; the odd-rd trap is covered by unit tests.
                    Reg::l((rng.gen_range(0u32..3) * 2) as u8)
                } else {
                    reg(&mut rng)
                };
                let signed = size != MemSize::Double && rng.gen_range(0u32..2) == 0;
                a.ld(size, signed, base_reg, off as i32, rd);
            }
            4 | 5 => {
                // Aligned store to the scratch window.
                let (size, align) = match rng.gen_range(0u32..4) {
                    0 => (MemSize::Byte, 1u32),
                    1 => (MemSize::Half, 2),
                    2 => (MemSize::Word, 4),
                    _ => (MemSize::Double, 8),
                };
                let off = rng.gen_range(0u32..(256 / align)) * align;
                let rd = if size == MemSize::Double {
                    Reg::l((rng.gen_range(0u32..3) * 2) as u8)
                } else {
                    reg(&mut rng)
                };
                a.st(size, rd, base_reg, off as i32);
            }
            // FP loads from the scratch window.
            10 => {
                if rng.gen_range(0u32..2) == 0 {
                    let off = rng.gen_range(0i32..32) * 8;
                    a.lddf(base_reg, off, even_f(&mut rng));
                } else {
                    a.push(Instr::LoadF {
                        double: false,
                        rd: any_f(&mut rng),
                        rs1: base_reg,
                        op2: Operand::Imm(rng.gen_range(0i32..64) * 4),
                    });
                }
            }
            // FP arithmetic, compares included.
            11 => {
                const FP: [FpOp; 8] = [
                    FpOp::FAddD,
                    FpOp::FSubD,
                    FpOp::FMulD,
                    FpOp::FDivD,
                    FpOp::FSqrtD,
                    FpOp::FDivS,
                    FpOp::FSqrtS,
                    FpOp::FiToD,
                ];
                match rng.gen_range(0usize..FP.len() + 1) {
                    i if i < FP.len() => {
                        let op = FP[i];
                        let (rs1, rs2, rd) = match op {
                            FpOp::FDivS | FpOp::FSqrtS => {
                                (any_f(&mut rng), any_f(&mut rng), any_f(&mut rng))
                            }
                            FpOp::FiToD => (FReg::new(0), any_f(&mut rng), even_f(&mut rng)),
                            _ => (even_f(&mut rng), even_f(&mut rng), even_f(&mut rng)),
                        };
                        a.fpop(op, rs1, rs2, rd);
                    }
                    _ => {
                        a.push(Instr::FCmp {
                            double: true,
                            exception: false,
                            rs1: even_f(&mut rng),
                            rs2: even_f(&mut rng),
                        });
                    }
                }
            }
            // FP stores, and results discarded into `%g0`.
            12 => match rng.gen_range(0u32..4) {
                0 => {
                    let off = rng.gen_range(0i32..32) * 8;
                    a.stdf(even_f(&mut rng), base_reg, off);
                }
                1 => {
                    a.push(Instr::StoreF {
                        double: false,
                        rd: any_f(&mut rng),
                        rs1: base_reg,
                        op2: Operand::Imm(rng.gen_range(0i32..64) * 4),
                    });
                }
                2 => {
                    let op = [AluOp::SubCc, AluOp::AndCc][rng.gen_range(0usize..2)];
                    let rs1 = reg(&mut rng);
                    if rng.gen_range(0u32..2) == 0 {
                        a.alu(op, rs1, Operand::Reg(reg(&mut rng)), Reg::g(0));
                    } else {
                        a.alu(op, rs1, rng.gen_range(-64i32..64), Reg::g(0));
                    }
                }
                _ => {
                    a.push(Instr::Sethi {
                        rd: Reg::g(0),
                        imm22: rng.gen_range(0u32..1 << 22),
                    });
                }
            },
            // The Y register.
            13 => {
                if rng.gen_range(0u32..2) == 0 {
                    a.push(Instr::WrY {
                        rs1: reg(&mut rng),
                        op2: Operand::Imm(rng.gen_range(-64i32..64)),
                    });
                } else {
                    a.push(Instr::RdY { rd: reg(&mut rng) });
                }
            }
            // Register windows and calls.
            14 => match rng.gen_range(0u32..6) {
                0 => {
                    a.push(Instr::Save {
                        rd: Reg::o(6),
                        rs1: Reg::o(6),
                        op2: Operand::Imm(-96),
                    });
                }
                1 => {
                    a.push(Instr::Restore {
                        rd: Reg::g(0),
                        rs1: Reg::g(0),
                        op2: Operand::Imm(0),
                    });
                }
                4 | 5 if k + 1 < body => {
                    // The call and its delay slot take two body slots;
                    // the leaf follows the exit.
                    a.call("leaf");
                    a.label(&format!("b{}", k + 1));
                    let (rd, rs1) = (reg(&mut rng), reg(&mut rng));
                    a.alu(AluOp::Add, rs1, rng.gen_range(-32i32..32), rd);
                    k += 2;
                    continue;
                }
                _ => {
                    // A balanced pair: the new window reads the
                    // caller's outs as ins, and `restore` writes its
                    // sum back into the caller's window.
                    a.push(Instr::Save {
                        rd: Reg::o(6),
                        rs1: Reg::o(6),
                        op2: Operand::Imm(-96),
                    });
                    a.alu(AluOp::Add, Reg::i(rng.gen_range(0u8..4)), 3, Reg::l(1));
                    a.push(Instr::Restore {
                        rd: Reg::o(rng.gen_range(0u8..4)),
                        rs1: Reg::l(1),
                        op2: Operand::Imm(1),
                    });
                }
            },
            // Console output: a register to the text or the word
            // stream.
            15 => {
                let stream = 4 * rng.gen_range(0i32..2);
                a.st(MemSize::Word, reg(&mut rng), console_reg, stream);
            }
            // A data word inside the image, overwritten or read back.
            16 | 17 => {
                let off = 4 * rng.gen_range(0..DATA_WORDS as i32);
                if roll == 16 {
                    a.st(MemSize::Word, reg(&mut rng), data_reg, off);
                } else {
                    a.ld(MemSize::Word, false, data_reg, off, reg(&mut rng));
                }
            }
            _ => {
                let op = ALU_OPS[rng.gen_range(0usize..ALU_OPS.len())];
                let (rd, rs1) = (reg(&mut rng), reg(&mut rng));
                if rng.gen_range(0u32..3) == 0 {
                    a.alu(op, rs1, Operand::Reg(reg(&mut rng)), rd);
                } else {
                    a.alu(op, rs1, rng.gen_range(-64i32..64), rd);
                }
            }
        }
        k += 1;
    }

    match shape {
        ProgramShape::CtiTail => {
            // The image's final word is the delay slot of this branch.
            let cond = CONDS[rng.gen_range(0usize..CONDS.len())];
            let target = format!("b{}", rng.gen_range(0usize..body.max(1)));
            a.label(&format!("b{k}"));
            a.b(cond, &target);
            a.alu(AluOp::Add, Reg::l(0), 1, Reg::l(0));
        }
        _ => {
            a.label(&format!("b{k}"));
            a.mov(0, Reg::o(0));
            a.ta(0);
            a.nop();
        }
    }
    if mixed {
        a.label("leaf");
        a.push(Instr::RdY { rd: Reg::o(2) });
        a.alu(AluOp::Xor, Reg::o(1), Operand::Reg(Reg::o(2)), Reg::o(3));
        a.retl();
        a.alu(AluOp::Add, Reg::o(0), 1, Reg::o(0));
        a.label("data");
        for _ in 0..DATA_WORDS {
            a.word(rng.next_u64() as u32);
        }
    }
    a.finish().map_err(|e| nfp_core::NfpError::Workload {
        what: format!("synthetic program (seed {seed:#x})"),
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_deterministic_per_seed() {
        let a = test_image(48, 48, 5);
        let b = test_image(48, 48, 5);
        let c = test_image(48, 48, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn images_have_nontrivial_content() {
        let img = test_image(64, 48, 1);
        let min = *img.data.iter().min().unwrap();
        let max = *img.data.iter().max().unwrap();
        assert!(max - min > 40, "image should have dynamic range");
    }

    #[test]
    fn masks_lose_whole_interior_blocks() {
        let mask = loss_mask(64, 64, 5, 9);
        let lost: usize = mask.iter().filter(|&&m| m).count();
        assert_eq!(lost, 5 * 64);
        // border must be intact
        for x in 0..64 {
            assert!(!mask[x]);
            assert!(!mask[63 * 64 + x]);
        }
        // block-aligned: each lost sample's 8x8 block is fully lost
        for y in 0..64 {
            for x in 0..64 {
                if mask[y * 64 + x] {
                    let bx = x / 8 * 8;
                    let by = y / 8 * 8;
                    assert!(mask[by * 64 + bx]);
                }
            }
        }
    }

    #[test]
    fn random_programs_are_deterministic_and_assemble() {
        for shape in [
            ProgramShape::StraightLine,
            ProgramShape::Branchy,
            ProgramShape::CtiTail,
            ProgramShape::Mixed,
        ] {
            let a = random_program(40, 11, shape).expect("program");
            let b = random_program(40, 11, shape).expect("program");
            assert_eq!(a, b, "{shape:?} must be deterministic");
            assert!(!a.is_empty());
            assert_ne!(
                a,
                random_program(40, 12, shape).expect("program"),
                "{shape:?} seed varies"
            );
        }
    }

    #[test]
    fn cti_tail_ends_with_branch_and_delay_slot() {
        let words = random_program(20, 3, ProgramShape::CtiTail).expect("program");
        let penult = nfp_sparc::decode(words[words.len() - 2]);
        assert!(penult.is_cti(), "penultimate word must be the CTI");
        let last = nfp_sparc::decode(words[words.len() - 1]);
        assert!(!last.ends_block(), "last word is the delay slot");
    }

    #[test]
    fn sequences_move() {
        for scene in Scene::ALL {
            let frames = test_sequence(scene, 64, 48, 3);
            assert_eq!(frames.len(), 3);
            assert_ne!(frames[0], frames[1], "{scene:?} should have motion");
            // determinism
            let again = test_sequence(scene, 64, 48, 3);
            assert_eq!(frames, again);
        }
    }
}
