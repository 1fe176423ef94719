//! Seeded single-event-upset (SEU) fault injection.
//!
//! A fault is one transient bit flip in architectural state — integer
//! or FP register file, condition codes, the Y register, a RAM word, or
//! a word of the predecoded instruction stream — scheduled at a chosen
//! dynamic instruction index. Campaigns draw faults from a
//! [`FaultSpace`] with a deterministic generator, so the same seed
//! always produces the same plan, independent of host platform or
//! thread scheduling.
//!
//! Injection composes with [`Machine::checkpoint`] /
//! [`Machine::restore`]: register and RAM flips are rewound by the
//! checkpoint mechanism alone, while instruction-stream flips also
//! patch the predecoded image and return an [`Undo`] that must be
//! applied before the machine is reused. Code flips route through
//! [`Machine::patch_code_word`], and undos through it and
//! [`Machine::set_code_entry`]; both invalidate the block cache,
//! dispatch table and traces, so campaigns run safely under traced
//! dispatch: the next run re-segments the (possibly corrupted) image.

use crate::machine::{Machine, SimError};
use nfp_sparc::cond::FccValue;
use nfp_sparc::{Category, Instr};
use std::fmt;

/// Deterministic 64-bit generator (splitmix64) used for fault-plan
/// generation. Deliberately independent of any external RNG crate so a
/// campaign seed means the same thing everywhere.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultRng(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Where a transient bit flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Integer register file, addressed by flat index (see
    /// [`Cpu::flat_get`](crate::cpu::Cpu::flat_get)).
    IntReg {
        /// Flat register index in `0..INT_REG_SPACE`.
        index: u8,
        /// Bit position in `0..32`.
        bit: u8,
    },
    /// FP register file (`%f0`–`%f31`).
    FpReg {
        /// FP register number.
        index: u8,
        /// Bit position in `0..32`.
        bit: u8,
    },
    /// Integer condition codes: bit 0 = carry, 1 = overflow, 2 = zero,
    /// 3 = negative (PSR `icc` order).
    Icc {
        /// Bit position in `0..4`.
        bit: u8,
    },
    /// The multiply/divide Y register.
    YReg {
        /// Bit position in `0..32`.
        bit: u8,
    },
    /// The 2-bit FP condition code in the FSR.
    Fcc {
        /// Bit position in `0..2`.
        bit: u8,
    },
    /// A word of RAM.
    Ram {
        /// Word-aligned RAM address.
        addr: u32,
        /// Bit position in `0..32`.
        bit: u8,
    },
    /// A word of the predecoded instruction stream (flips both the RAM
    /// copy and the predecoded form).
    Code {
        /// Instruction index into the loaded image.
        index: u32,
        /// Bit position in `0..32`.
        bit: u8,
    },
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::IntReg { index, bit } => write!(f, "ireg[{index}] bit {bit}"),
            FaultTarget::FpReg { index, bit } => write!(f, "%f{index} bit {bit}"),
            FaultTarget::Icc { bit } => write!(f, "icc bit {bit}"),
            FaultTarget::YReg { bit } => write!(f, "%y bit {bit}"),
            FaultTarget::Fcc { bit } => write!(f, "fcc bit {bit}"),
            FaultTarget::Ram { addr, bit } => write!(f, "ram[0x{addr:08x}] bit {bit}"),
            FaultTarget::Code { index, bit } => write!(f, "code[{index}] bit {bit}"),
        }
    }
}

/// A scheduled fault: flip `target` once `at` instructions have
/// retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Dynamic instruction index of the injection point.
    pub at: u64,
    /// The bit to flip.
    pub target: FaultTarget,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ instret {}", self.target, self.at)
    }
}

/// The sampleable fault universe for one workload: how long the golden
/// run is, how large the image is, which RAM regions hold live data,
/// and whether FP state exists.
#[derive(Debug, Clone)]
pub struct FaultSpace {
    /// Injection instants are drawn from `0..max_instret` (normally the
    /// golden run's dynamic instruction count).
    pub max_instret: u64,
    /// Instructions in the loaded image.
    pub code_len: u32,
    /// `(addr, len)` byte ranges RAM upsets are aimed at — typically
    /// the pages the golden run actually touched plus the boot images,
    /// so flips land in live data instead of the untouched bulk of a
    /// 64 MiB RAM. Sampled addresses are word-aligned.
    pub ram_ranges: Vec<(u32, u32)>,
    /// Whether FP registers and `fcc` are part of the space.
    pub fp: bool,
}

impl FaultSpace {
    /// Draws one fault. Target classes are weighted roughly by how much
    /// state they expose (register file and RAM dominate), with every
    /// class getting some coverage.
    pub fn sample(&self, rng: &mut FaultRng) -> Fault {
        let at = if self.max_instret > 0 {
            rng.below(self.max_instret)
        } else {
            0
        };
        // (class id, weight) for the classes available in this space.
        let mut classes: Vec<(u8, u64)> = vec![(0, 4), (2, 1), (3, 1)];
        if self.fp {
            classes.push((1, 2));
            classes.push((4, 1));
        }
        if !self.ram_ranges.is_empty() {
            classes.push((5, 4));
        }
        if self.code_len > 0 {
            classes.push((6, 3));
        }
        let total: u64 = classes.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.below(total);
        let mut class = classes[0].0;
        for &(c, w) in &classes {
            if pick < w {
                class = c;
                break;
            }
            pick -= w;
        }
        let target = match class {
            0 => FaultTarget::IntReg {
                index: rng.below(crate::cpu::INT_REG_SPACE as u64) as u8,
                bit: rng.below(32) as u8,
            },
            1 => FaultTarget::FpReg {
                index: rng.below(32) as u8,
                bit: rng.below(32) as u8,
            },
            2 => FaultTarget::Icc {
                bit: rng.below(4) as u8,
            },
            3 => FaultTarget::YReg {
                bit: rng.below(32) as u8,
            },
            4 => FaultTarget::Fcc {
                bit: rng.below(2) as u8,
            },
            5 => {
                // Weight ranges by their word counts.
                let words: Vec<u64> = self
                    .ram_ranges
                    .iter()
                    .map(|&(_, l)| (l / 4) as u64)
                    .collect();
                let total_words: u64 = words.iter().sum::<u64>().max(1);
                let mut w = rng.below(total_words);
                let mut addr = self.ram_ranges[0].0;
                for (&(base, _), &n) in self.ram_ranges.iter().zip(&words) {
                    if w < n {
                        addr = base + (w as u32) * 4;
                        break;
                    }
                    w -= n;
                }
                FaultTarget::Ram {
                    addr: addr & !3,
                    bit: rng.below(32) as u8,
                }
            }
            _ => FaultTarget::Code {
                index: rng.below(self.code_len as u64) as u32,
                bit: rng.below(32) as u8,
            },
        };
        Fault { at, target }
    }
}

/// Generates a campaign plan of `n` faults, sorted by injection
/// instant (ties keep draw order). Sorting lets a campaign sweep the
/// golden run forward, restoring from the nearest earlier checkpoint.
pub fn plan(space: &FaultSpace, n: usize, seed: u64) -> Vec<Fault> {
    let mut rng = FaultRng::new(seed);
    let mut faults: Vec<Fault> = (0..n).map(|_| space.sample(&mut rng)).collect();
    faults.sort_by_key(|f| f.at);
    faults
}

/// What [`inject`] changed beyond checkpoint-tracked state. Must be
/// passed to [`undo`] before the machine replays another fault.
#[derive(Debug, Clone, Copy)]
pub enum Undo {
    /// Checkpoint restore fully rewinds this fault.
    None,
    /// The predecoded image was patched; the original word must be
    /// patched back (the RAM copy is checkpoint-tracked, the predecode
    /// is not).
    Code {
        /// Patched instruction index.
        index: usize,
        /// The pre-fault instruction word.
        old_word: u32,
        /// The pre-fault *predecode* entry, restored verbatim. It is
        /// captured rather than re-derived from `old_word` because the
        /// two can disagree: `old_word` is the runtime RAM value, which
        /// the kernel may have overwritten (data words live inside the
        /// image too), while the predecode holds the boot decode. An
        /// undo that re-decoded RAM would leave the entry permanently
        /// drifted, so replaying the same fault twice on one rig would
        /// attribute two different categories — breaking the invariant
        /// that a replay is a pure function of the fault, which the
        /// serve-layer audit tier relies on to convict lying workers.
        old_entry: (Instr, Category),
    },
}

/// Flips the targeted bit in `m`'s state. Register, condition-code and
/// RAM flips are reverted by restoring a checkpoint taken earlier;
/// instruction-stream flips additionally require [`undo`].
pub fn inject(m: &mut Machine, fault: &Fault) -> Result<Undo, SimError> {
    match fault.target {
        FaultTarget::IntReg { index, bit } => {
            let v = m.cpu.flat_get(index as usize);
            m.cpu.flat_set(index as usize, v ^ (1 << bit));
            Ok(Undo::None)
        }
        FaultTarget::FpReg { index, bit } => {
            m.cpu.f[index as usize] ^= 1 << bit;
            Ok(Undo::None)
        }
        FaultTarget::Icc { bit } => {
            match bit {
                0 => m.cpu.icc.c = !m.cpu.icc.c,
                1 => m.cpu.icc.v = !m.cpu.icc.v,
                2 => m.cpu.icc.z = !m.cpu.icc.z,
                _ => m.cpu.icc.n = !m.cpu.icc.n,
            }
            Ok(Undo::None)
        }
        FaultTarget::YReg { bit } => {
            m.cpu.y ^= 1 << bit;
            Ok(Undo::None)
        }
        FaultTarget::Fcc { bit } => {
            m.cpu.fcc = fcc_from_bits(fcc_to_bits(m.cpu.fcc) ^ (1 << bit));
            Ok(Undo::None)
        }
        FaultTarget::Ram { addr, bit } => {
            let w = m.bus.load32(addr)?;
            m.bus.store32(addr, w ^ (1 << bit))?;
            Ok(Undo::None)
        }
        FaultTarget::Code { index, bit } => {
            let old_entry = m.code_entry(index as usize).ok_or(SimError::BadCodeIndex {
                index: index as usize,
                len: m.code_len(),
            })?;
            let addr = m.code_base().wrapping_add(index * 4);
            let old = m.bus.load32(addr)?;
            m.patch_code_word(index as usize, old ^ (1 << bit))?;
            Ok(Undo::Code {
                index: index as usize,
                old_word: old,
                old_entry,
            })
        }
    }
}

/// Reverts the non-checkpoint-tracked part of an injection.
pub fn undo(m: &mut Machine, u: &Undo) -> Result<(), SimError> {
    if let Undo::Code {
        index,
        old_word,
        old_entry,
    } = u
    {
        m.patch_code_word(*index, *old_word)?;
        m.set_code_entry(*index, *old_entry)?;
    }
    Ok(())
}

/// FSR `fcc` field encoding (SPARC V8: 0 = equal, 1 = less,
/// 2 = greater, 3 = unordered).
fn fcc_to_bits(fcc: FccValue) -> u8 {
    match fcc {
        FccValue::Equal => 0,
        FccValue::Less => 1,
        FccValue::Greater => 2,
        FccValue::Unordered => 3,
    }
}

fn fcc_from_bits(bits: u8) -> FccValue {
    match bits & 3 {
        0 => FccValue::Equal,
        1 => FccValue::Less,
        2 => FccValue::Greater,
        _ => FccValue::Unordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::RAM_BASE;
    use crate::cpu::INT_REG_SPACE;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::Reg;

    fn space() -> FaultSpace {
        FaultSpace {
            max_instret: 1000,
            code_len: 64,
            ram_ranges: vec![(RAM_BASE, 4096), (RAM_BASE + 65536, 8192)],
            fp: true,
        }
    }

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let a = plan(&space(), 500, 0xfeed);
        let b = plan(&space(), 500, 0xfeed);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // A different seed produces a different plan.
        assert_ne!(a, plan(&space(), 500, 0xfeee));
    }

    #[test]
    fn samples_stay_in_bounds() {
        let sp = space();
        let mut rng = FaultRng::new(7);
        for _ in 0..2000 {
            let f = sp.sample(&mut rng);
            assert!(f.at < sp.max_instret);
            match f.target {
                FaultTarget::IntReg { index, bit } => {
                    assert!((index as usize) < INT_REG_SPACE && bit < 32)
                }
                FaultTarget::FpReg { index, bit } => assert!(index < 32 && bit < 32),
                FaultTarget::Icc { bit } => assert!(bit < 4),
                FaultTarget::YReg { bit } => assert!(bit < 32),
                FaultTarget::Fcc { bit } => assert!(bit < 2),
                FaultTarget::Ram { addr, bit } => {
                    assert!(addr.is_multiple_of(4) && bit < 32);
                    assert!(
                        sp.ram_ranges
                            .iter()
                            .any(|&(b, l)| addr >= b && addr < b + l),
                        "0x{addr:08x} outside ranges"
                    );
                }
                FaultTarget::Code { index, bit } => assert!(index < sp.code_len && bit < 32),
            }
        }
    }

    #[test]
    fn register_and_ram_faults_rewind_via_checkpoint() {
        let mut a = Assembler::new(RAM_BASE);
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();
        let mut m = Machine::boot(&words);
        m.cpu.set(Reg::g(1), 0x55);
        m.bus.store32(RAM_BASE + 0x100, 0x1234).unwrap();
        let cp = m.checkpoint();

        inject(
            &mut m,
            &Fault {
                at: 0,
                target: FaultTarget::IntReg { index: 0, bit: 3 },
            },
        )
        .unwrap();
        inject(
            &mut m,
            &Fault {
                at: 0,
                target: FaultTarget::Ram {
                    addr: RAM_BASE + 0x100,
                    bit: 0,
                },
            },
        )
        .unwrap();
        assert_eq!(m.cpu.get(Reg::g(1)), 0x55 ^ 8);
        assert_eq!(m.bus.load32(RAM_BASE + 0x100).unwrap(), 0x1235);

        m.restore(&cp);
        assert_eq!(m.cpu.get(Reg::g(1)), 0x55);
        assert_eq!(m.bus.load32(RAM_BASE + 0x100).unwrap(), 0x1234);
    }

    #[test]
    fn code_fault_patches_predecode_and_undoes() {
        let mut a = Assembler::new(RAM_BASE);
        a.mov(1, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();
        let mut m = Machine::boot(&words);
        let cp = m.checkpoint();
        let golden = m.run(100).unwrap();
        assert_eq!(golden.exit_code, 1);

        m.restore(&cp);
        let fault = Fault {
            at: 0,
            // Flip the immediate of `mov 1, %o0`: bit 1 turns 1 into 3.
            target: FaultTarget::Code { index: 0, bit: 1 },
        };
        let u = inject(&mut m, &fault).unwrap();
        let corrupted = m.run(100).unwrap();
        assert_eq!(corrupted.exit_code, 3, "flip must reach execution");

        m.restore(&cp);
        undo(&mut m, &u).unwrap();
        let again = m.run(100).unwrap();
        assert_eq!(again.exit_code, 1, "undo must restore the program");
    }

    #[test]
    fn undoing_a_code_fault_restores_the_predecode_entry_verbatim() {
        // The boot image carries a word the program overwrites at
        // runtime — the image region holds data too, and a code fault
        // can land on it. The undo must put back the *boot* predecode
        // entry, not decode(runtime word): re-deriving it would drift
        // the entry, and a rig replaying the same fault twice would
        // attribute two different categories (the serve audit tier
        // convicts workers over exactly that comparison).
        let mut a = Assembler::new(RAM_BASE);
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();
        let mut m = Machine::boot(&words);
        // Index of the `nop` we treat as an overwritable image word.
        let index = (words.len() - 1) as u32;
        let boot_entry = m.code_entry(index as usize).unwrap();
        // The "kernel" overwrites it with a word that decodes to a
        // different category (a load).
        let mut asm = Assembler::new(RAM_BASE);
        asm.ld(nfp_sparc::MemSize::Word, false, Reg::g(1), 0, Reg::g(2));
        let load_word = asm.finish().unwrap()[0];
        let addr = m.code_base() + index * 4;
        m.bus.store32(addr, load_word).unwrap();

        let fault = Fault {
            at: 0,
            target: FaultTarget::Code { index, bit: 5 },
        };
        let u = inject(&mut m, &fault).unwrap();
        undo(&mut m, &u).unwrap();
        assert_eq!(
            m.bus.load32(addr).unwrap(),
            load_word,
            "undo must restore the runtime RAM word"
        );
        assert_eq!(
            m.code_entry(index as usize).unwrap(),
            boot_entry,
            "undo must restore the pre-inject predecode entry"
        );
        // Replaying the identical fault now captures the same undo
        // state — the replay is a pure function of the fault.
        let u2 = inject(&mut m, &fault).unwrap();
        undo(&mut m, &u2).unwrap();
        assert_eq!(m.code_entry(index as usize).unwrap(), boot_entry);
    }

    #[test]
    fn code_flip_and_undo_invalidate_block_summaries() {
        // Both the flip and its undo go through `patch_code_word`,
        // which must drop the block cache: a stale per-block category
        // summary would silently miscount every instruction of the
        // patched block under one-commit-per-block accounting.
        let mut a = Assembler::new(RAM_BASE);
        a.mov(6, Reg::l(0));
        a.label("loop");
        a.alu(nfp_sparc::AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
        a.b(nfp_sparc::cond::ICond::Ne, "loop");
        a.nop();
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();

        let mut m = Machine::boot(&words);
        let cp = m.checkpoint();
        let golden = m.run(10_000).unwrap();

        // Flip `subcc %l0, 1` into `subcc %l0, 3` (bit 1 of simm13):
        // the loop now skips odd counts and exits after two trips.
        m.restore(&cp);
        let fault = Fault {
            at: 0,
            target: FaultTarget::Code { index: 1, bit: 1 },
        };
        let u = inject(&mut m, &fault).unwrap();
        let corrupted = m.run(10_000).unwrap();
        assert_ne!(
            corrupted.instret, golden.instret,
            "flip must change the dynamic instruction stream"
        );

        // After undo, a block-mode rerun must reproduce the golden
        // counters exactly — stale summaries would not.
        m.restore(&cp);
        undo(&mut m, &u).unwrap();
        let again = m.run(10_000).unwrap();
        assert_eq!(again.counts, golden.counts);
        assert_eq!(again.instret, golden.instret);
    }

    #[test]
    fn fcc_flip_roundtrips() {
        for v in [
            FccValue::Equal,
            FccValue::Less,
            FccValue::Greater,
            FccValue::Unordered,
        ] {
            for bit in 0..2 {
                let flipped = fcc_from_bits(fcc_to_bits(v) ^ (1 << bit));
                assert_ne!(flipped, v);
                assert_eq!(fcc_from_bits(fcc_to_bits(flipped) ^ (1 << bit)), v);
            }
        }
    }
}
