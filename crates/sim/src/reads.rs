//! What each instruction reads of the state a fault can hit, and when a
//! run last read each such location.
//!
//! A fault flips one bit of a [`Loc`]. Until some instruction reads the
//! flipped location, a replay runs the instructions the fault-free run
//! ran, on the values it ran them on, so a fault on a location that run
//! never reads again ends as the run does. [`reads`] is the read set of
//! one instruction, a pure function of the instruction and the CPU
//! state it executes in. [`Machine::run_recording`] steps a run, adds
//! each fetch, and keeps in a [`LastReads`] the last instruction index
//! at which the run read each location.

use crate::bus::{PAGE_SHIFT, PAGE_SIZE};
use crate::cpu::{Cpu, INT_REG_SPACE, NWINDOWS};
use crate::exec::operand_value;
use crate::fault::{Fault, FaultTarget};
use crate::machine::{Machine, TRAP_EXIT};
use nfp_sparc::{AluOp, FCond, FReg, FpOp, ICond, Instr, MemSize, Operand, Reg};

/// A location a fault can hit: a [`FaultTarget`] without its bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// An integer register, by flat index (see [`Cpu::flat_get`]).
    Int(u8),
    /// An FP register.
    Fp(u8),
    /// The integer condition codes.
    Icc,
    /// The Y register.
    Y,
    /// The FP condition code.
    Fcc,
    /// A RAM word, by its address.
    Ram(u32),
    /// A predecoded instruction, by its index into the loaded image.
    Code(u32),
}

impl Loc {
    /// The location `target` flips a bit of.
    pub fn of(target: FaultTarget) -> Loc {
        match target {
            FaultTarget::IntReg { index, .. } => Loc::Int(index),
            FaultTarget::FpReg { index, .. } => Loc::Fp(index),
            FaultTarget::Icc { .. } => Loc::Icc,
            FaultTarget::YReg { .. } => Loc::Y,
            FaultTarget::Fcc { .. } => Loc::Fcc,
            FaultTarget::Ram { addr, .. } => Loc::Ram(addr),
            FaultTarget::Code { index, .. } => Loc::Code(index),
        }
    }
}

/// Where [`reads`] reports the locations an instruction reads. A
/// closure taking a [`Loc`] is one.
pub trait ReadSink {
    /// Takes one location read.
    fn read(&mut self, loc: Loc);
}

impl<F: FnMut(Loc)> ReadSink for F {
    #[inline(always)]
    fn read(&mut self, loc: Loc) {
        self(loc)
    }
}

/// Reports to `sink` each location `instr` reads when it executes on
/// `cpu`: its register operands, address registers included; the
/// register, or both registers of the pair, a store stores; the
/// condition codes or `%y` it depends on; and each RAM word a load
/// touches, as [`Loc::Ram`] (the caller knows which of them hold the
/// image). Two reads belong to the handlers that act at the
/// instruction's index: a `save` at the deepest nesting also reads the
/// oldest window's banks, which the overflow handler spills, and a
/// taken `ta 0` reads `%o0`, the exit code. An instruction that traps
/// reports what it would read if it did not; a location may be
/// reported more than once.
#[inline(always)]
pub fn reads(cpu: &Cpu, instr: &Instr, sink: &mut impl ReadSink) {
    match *instr {
        Instr::Sethi { .. }
        | Instr::Call { .. }
        | Instr::Flush { .. }
        | Instr::Unimp { .. }
        | Instr::Illegal { .. } => {}
        Instr::Branch { cond, .. } => {
            if !matches!(cond, ICond::A | ICond::N) {
                sink.read(Loc::Icc);
            }
        }
        Instr::FBranch { cond, .. } => {
            if !matches!(cond, FCond::A | FCond::N) {
                sink.read(Loc::Fcc);
            }
        }
        Instr::Alu { op, rs1, op2, .. } => {
            source(cpu, rs1, op2, sink);
            if matches!(
                op,
                AluOp::AddX | AluOp::AddXCc | AluOp::SubX | AluOp::SubXCc
            ) {
                sink.read(Loc::Icc);
            }
            if op.is_div() {
                sink.read(Loc::Y);
            }
        }
        Instr::RdY { .. } => sink.read(Loc::Y),
        Instr::Jmpl { rs1, op2, .. }
        | Instr::WrY { rs1, op2 }
        | Instr::Restore { rs1, op2, .. } => source(cpu, rs1, op2, sink),
        Instr::Save { rs1, op2, .. } => {
            source(cpu, rs1, op2, sink);
            if cpu.window_depth() >= NWINDOWS - 2 {
                let first = 7 + cpu.oldest_window() * 16;
                for index in first..first + 16 {
                    sink.read(Loc::Int(index as u8));
                }
            }
        }
        Instr::Ticc { cond, rs1, op2 } => {
            if !matches!(cond, ICond::A | ICond::N) {
                sink.read(Loc::Icc);
            }
            let icc = cpu.icc;
            if cond.eval(icc.n, icc.z, icc.v, icc.c) {
                source(cpu, rs1, op2, sink);
                if cpu.get(rs1).wrapping_add(operand_value(cpu, op2)) & 0x7f == TRAP_EXIT {
                    int(cpu, Reg::o(0), sink);
                }
            }
        }
        Instr::Load { size, rs1, op2, .. } => {
            source(cpu, rs1, op2, sink);
            words(address(cpu, rs1, op2), size.bytes(), sink);
        }
        Instr::Store { size, rd, rs1, op2 } => {
            source(cpu, rs1, op2, sink);
            int(cpu, rd, sink);
            if size == MemSize::Double {
                int(cpu, Reg::new(rd.num() | 1), sink);
            }
        }
        Instr::LoadF {
            double, rs1, op2, ..
        } => {
            source(cpu, rs1, op2, sink);
            words(address(cpu, rs1, op2), if double { 8 } else { 4 }, sink);
        }
        Instr::StoreF {
            double,
            rd,
            rs1,
            op2,
        } => {
            source(cpu, rs1, op2, sink);
            fp(rd, double, sink);
        }
        Instr::FpOp { op, rs1, rs2, .. } => {
            use FpOp::*;
            match op {
                FMovS | FNegS | FAbsS | FSqrtS | FiToS | FiToD | FsToI | FsToD => {
                    fp(rs2, false, sink)
                }
                FSqrtD | FdToI | FdToS => fp(rs2, true, sink),
                FAddS | FSubS | FMulS | FDivS | FsMulD => {
                    fp(rs1, false, sink);
                    fp(rs2, false, sink);
                }
                FAddD | FSubD | FMulD | FDivD => {
                    fp(rs1, true, sink);
                    fp(rs2, true, sink);
                }
            }
        }
        Instr::FCmp {
            double, rs1, rs2, ..
        } => {
            fp(rs1, double, sink);
            fp(rs2, double, sink);
        }
    }
}

/// A loaded image: its base address and length in instructions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Image {
    base: u32,
    len: u32,
}

impl Image {
    pub(crate) fn of(m: &Machine) -> Image {
        Image {
            base: m.code_base(),
            len: m.code_len() as u32,
        }
    }

    /// The code index of the word at `addr`, if the image holds it.
    #[inline]
    pub(crate) fn index(self, addr: u32) -> Option<u32> {
        let i = addr.wrapping_sub(self.base) / 4;
        (addr.is_multiple_of(4) && addr >= self.base && i < self.len).then_some(i)
    }
}

/// Reports to `sink` each location an instruction index reads that
/// runs `instr`, fetched at `pc` from `image`, on `cpu`: the fetch (the
/// predecoded entry inside the image, the RAM word outside it), then
/// [`reads`], with each RAM word a load touches inside the image read
/// as its code index too.
#[inline(always)]
pub(crate) fn unit_reads(
    image: Image,
    pc: u32,
    cpu: &Cpu,
    instr: &Instr,
    sink: &mut impl ReadSink,
) {
    sink.read(image.index(pc).map_or(Loc::Ram(pc), Loc::Code));
    reads(cpu, instr, &mut CodeCopies { image, sink });
}

/// Whether what `instr` reads is fixed by its encoding and the current
/// window: it is no load (whose words an address register picks), no
/// `save` or `restore` (which move the window, and a `save` spills by
/// the nesting depth), and no `t<cond>` (whose reads hang on the
/// condition codes). Straight-line instructions of this kind read what
/// [`reads`] says given the state before any of them runs.
#[inline(always)]
pub(crate) fn window_fixed(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::Load { .. }
            | Instr::LoadF { .. }
            | Instr::Save { .. }
            | Instr::Restore { .. }
            | Instr::Ticc { .. }
    )
}

/// A sink that also reports each RAM word of the image as its code
/// index.
struct CodeCopies<'a, S> {
    image: Image,
    sink: &'a mut S,
}

impl<S: ReadSink> ReadSink for CodeCopies<'_, S> {
    #[inline(always)]
    fn read(&mut self, loc: Loc) {
        self.sink.read(loc);
        if let Loc::Ram(word) = loc {
            if let Some(i) = self.image.index(word) {
                self.sink.read(Loc::Code(i));
            }
        }
    }
}

/// [`LastReads::at`]'s sink: it notes each location it takes as read
/// by the instruction at index `at`.
pub(crate) struct Stamp<'a> {
    last: &'a mut LastReads,
    at: u64,
}

impl ReadSink for Stamp<'_> {
    #[inline(always)]
    fn read(&mut self, loc: Loc) {
        self.last.note(loc, self.at);
    }
}

/// An integer register in the current window (`%g0` is no location).
#[inline(always)]
fn int(cpu: &Cpu, r: Reg, sink: &mut impl ReadSink) {
    if let Some(index) = cpu.flat_index(r) {
        sink.read(Loc::Int(index as u8));
    }
}

/// The `rs1` and `op2` source operands.
#[inline(always)]
fn source(cpu: &Cpu, rs1: Reg, op2: Operand, sink: &mut impl ReadSink) {
    int(cpu, rs1, sink);
    if let Operand::Reg(r) = op2 {
        int(cpu, r, sink);
    }
}

/// An FP register, or the pair it starts (an odd one traps unread).
#[inline(always)]
fn fp(r: FReg, double: bool, sink: &mut impl ReadSink) {
    sink.read(Loc::Fp(r.num()));
    if double {
        sink.read(Loc::Fp(r.num() | 1));
    }
}

/// The effective address of a memory access.
#[inline(always)]
fn address(cpu: &Cpu, rs1: Reg, op2: Operand) -> u32 {
    cpu.get(rs1).wrapping_add(operand_value(cpu, op2))
}

/// Each word the `len` bytes at `addr` touch.
#[inline(always)]
fn words(addr: u32, len: u32, sink: &mut impl ReadSink) {
    let last = addr.wrapping_add(len - 1) & !3;
    let mut word = addr & !3;
    loop {
        sink.read(Loc::Ram(word));
        if word == last {
            break;
        }
        word = word.wrapping_add(4);
    }
}

/// Words of one RAM page.
const PAGE_WORDS: usize = PAGE_SIZE / 4;

/// When a run last read each location a fault can hit, as recorded by
/// [`Machine::run_recording`]. Each location holds one plus the index of
/// the last instruction that read it, or 0 if none did. RAM words are
/// kept only for the 4 KiB pages the run reads, so the record is sized
/// to the run's data, not to the RAM.
#[derive(Debug, Clone)]
pub struct LastReads {
    int: [u64; INT_REG_SPACE],
    fp: [u64; 32],
    icc: u64,
    y: u64,
    fcc: u64,
    /// One slot per predecoded instruction.
    code: Vec<u64>,
    ram_base: u32,
    ram_size: u32,
    /// `(page, one slot per word)` for each RAM page read, by page.
    pages: Vec<(u32, Box<[u64]>)>,
    /// Index into `pages` of the page read last.
    hot: usize,
}

impl LastReads {
    /// An empty record for a run of `m`.
    pub fn new(m: &Machine) -> Self {
        LastReads {
            int: [0; INT_REG_SPACE],
            fp: [0; 32],
            icc: 0,
            y: 0,
            fcc: 0,
            code: vec![0; m.code_len()],
            ram_base: m.bus.ram_base(),
            ram_size: m.bus.ram_size(),
            pages: Vec::new(),
            hot: 0,
        }
    }

    /// A sink noting the reads of the instruction at index `at`.
    pub(crate) fn at(&mut self, at: u64) -> Stamp<'_> {
        Stamp { last: self, at }
    }

    /// Notes that the instruction at index `at` reads `loc`. Indices
    /// only grow, so the last note of a location stands.
    #[inline(always)]
    fn note(&mut self, loc: Loc, at: u64) {
        let stamp = at + 1;
        match loc {
            Loc::Int(index) => self.int[index as usize] = stamp,
            Loc::Fp(index) => self.fp[index as usize] = stamp,
            Loc::Icc => self.icc = stamp,
            Loc::Y => self.y = stamp,
            Loc::Fcc => self.fcc = stamp,
            Loc::Code(index) => self.code[index as usize] = stamp,
            Loc::Ram(addr) => {
                let off = addr.wrapping_sub(self.ram_base);
                if off >= self.ram_size {
                    return;
                }
                let page = off >> PAGE_SHIFT;
                if self.pages.get(self.hot).map(|p| p.0) != Some(page) {
                    self.hot = match self.pages.binary_search_by_key(&page, |p| p.0) {
                        Ok(i) => i,
                        Err(i) => {
                            let words = vec![0; PAGE_WORDS].into_boxed_slice();
                            self.pages.insert(i, (page, words));
                            i
                        }
                    };
                }
                self.pages[self.hot].1[(off as usize / 4) % PAGE_WORDS] = stamp;
            }
        }
    }

    /// `loc`'s slot, or `None` if the machine has no such location.
    fn stamp(&self, loc: Loc) -> Option<u64> {
        match loc {
            Loc::Int(index) => self.int.get(index as usize).copied(),
            Loc::Fp(index) => self.fp.get(index as usize).copied(),
            Loc::Icc => Some(self.icc),
            Loc::Y => Some(self.y),
            Loc::Fcc => Some(self.fcc),
            Loc::Code(index) => self.code.get(index as usize).copied(),
            Loc::Ram(addr) => {
                let off = addr.wrapping_sub(self.ram_base);
                if off >= self.ram_size || !addr.is_multiple_of(4) {
                    return None;
                }
                let page = off >> PAGE_SHIFT;
                Some(match self.pages.binary_search_by_key(&page, |p| p.0) {
                    Ok(i) => self.pages[i].1[(off as usize / 4) % PAGE_WORDS],
                    Err(_) => 0,
                })
            }
        }
    }

    /// Whether no instruction at or after the injection point reads the
    /// location `fault` flips: then a replay of it ends as the recorded
    /// run does. False for a target the machine does not have, whose
    /// injection fails.
    pub fn never_read(&self, fault: &Fault) -> bool {
        self.stamp(Loc::of(fault.target))
            .is_some_and(|stamp| stamp <= fault.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::RAM_BASE;
    use crate::fault::{inject, undo};
    use crate::machine::{Dispatch, MachineConfig, TrapPolicy};
    use nfp_sparc::cond::FccValue;
    use std::collections::HashSet;

    /// Where the forms' address registers point.
    const DATA: u32 = RAM_BASE + 0x800;

    /// A machine of one RAM page under trap recovery, stepping, with
    /// `word` at the image's index 0 and a `nop` after it, and every
    /// location seeded: `%l0` and `%l1` hold an address in the data page
    /// and an 8-byte offset, and every RAM word past the image a
    /// pattern.
    fn rig(word: u32) -> Machine {
        let mut m = Machine::new(MachineConfig {
            ram_size: PAGE_SIZE as u32,
            trap_policy: TrapPolicy::Recover,
            dispatch: Dispatch::Step,
            ..MachineConfig::default()
        });
        m.load_image(RAM_BASE, &[word, 0x0100_0000]).unwrap();
        let mut x = 0x9e37_79b9u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for index in 0..INT_REG_SPACE {
            m.cpu.flat_set(index, next());
        }
        for f in m.cpu.f.iter_mut() {
            *f = next();
        }
        // Doubles worth computing on: 1.5, -2.25, and a NaN.
        for (pair, v) in [(0, 1.5f64), (2, -2.25), (4, f64::NAN)] {
            m.cpu.fset_d(FReg::new(pair), v);
        }
        m.cpu.icc.z = true;
        m.cpu.icc.c = true;
        m.cpu.y = next();
        m.cpu.fcc = FccValue::Less;
        m.cpu.set(Reg::l(0), DATA);
        m.cpu.set(Reg::l(1), 8);
        for word in (RAM_BASE + 8..RAM_BASE + PAGE_SIZE as u32).step_by(4) {
            m.bus.store32(word, next()).unwrap();
        }
        m
    }

    /// One instruction form: a name, the decoder's word for it, and
    /// what to do to the seeded rig first.
    struct Form {
        name: String,
        word: u32,
        prepare: fn(&mut Machine),
    }

    /// `instr`'s form as the decoder produces it (a unary FP op, say,
    /// drops its `rs1`).
    fn form(name: impl Into<String>, instr: Instr) -> Form {
        let word = nfp_sparc::encode(instr);
        Form {
            name: name.into(),
            word,
            prepare: |_| {},
        }
    }

    /// Every instruction form the decoder produces, in both operand
    /// forms where it has two, and every trap a form can take here.
    fn forms() -> Vec<Form> {
        let ops = [Operand::Reg(Reg::l(1)), Operand::Imm(8)];
        let mut forms = Vec::new();
        for op in AluOp::ALL {
            for op2 in [Operand::Reg(Reg::i(3)), Operand::Imm(-77)] {
                let (rd, rs1) = (Reg::o(2), Reg::l(5));
                forms.push(form(
                    format!("{op:?} {op2:?}"),
                    Instr::Alu { op, rd, rs1, op2 },
                ));
            }
        }
        for op in FpOp::ALL {
            // Even registers, and odd ones (which a double form traps on).
            for (rs1, rs2, rd) in [(0, 2, 6), (1, 3, 7)] {
                let [rs1, rs2, rd] = [rs1, rs2, rd].map(FReg::new);
                forms.push(form(
                    format!("{op:?} {rs1:?}"),
                    Instr::FpOp { op, rd, rs1, rs2 },
                ));
            }
        }
        for double in [false, true] {
            for (rs1, rs2) in [(0, 4), (1, 3)] {
                let [rs1, rs2] = [rs1, rs2].map(FReg::new);
                let exception = double;
                let instr = Instr::FCmp {
                    double,
                    exception,
                    rs1,
                    rs2,
                };
                forms.push(form(format!("fcmp {double} {rs1:?}"), instr));
            }
        }
        let sizes = [MemSize::Byte, MemSize::Half, MemSize::Word, MemSize::Double];
        for size in sizes {
            for op2 in ops {
                // An even pair, and an odd one (which traps).
                for rd in [Reg::o(4), Reg::o(5)] {
                    // Only the sub-word loads have a signed form.
                    for signed in [false, true] {
                        if signed && !matches!(size, MemSize::Byte | MemSize::Half) {
                            continue;
                        }
                        let (rs1, name) = (Reg::l(0), format!("ld {size:?} {op2:?} {rd:?}"));
                        let load = Instr::Load {
                            size,
                            signed,
                            rd,
                            rs1,
                            op2,
                        };
                        forms.push(form(format!("{name} {signed}"), load));
                    }
                    let store = Instr::Store {
                        size,
                        rd,
                        rs1: Reg::l(0),
                        op2,
                    };
                    forms.push(form(format!("st {size:?} {op2:?} {rd:?}"), store));
                }
            }
        }
        // A misaligned access the recovery model skips.
        let skipped = Instr::Load {
            size: MemSize::Word,
            signed: false,
            rd: Reg::o(3),
            rs1: Reg::l(0),
            op2: Operand::Imm(2),
        };
        forms.push(form("ld misaligned", skipped));
        for double in [false, true] {
            for op2 in ops {
                for rd in [FReg::new(8), FReg::new(9)] {
                    let rs1 = Reg::l(0);
                    let load = Instr::LoadF {
                        double,
                        rd,
                        rs1,
                        op2,
                    };
                    forms.push(form(format!("ldf {double} {op2:?} {rd:?}"), load));
                    let store = Instr::StoreF {
                        double,
                        rd,
                        rs1,
                        op2,
                    };
                    forms.push(form(format!("stf {double} {op2:?} {rd:?}"), store));
                }
            }
        }
        for op2 in [Operand::Reg(Reg::i(2)), Operand::Imm(-96)] {
            let (rd, rs1) = (Reg::o(6), Reg::o(6));
            forms.push(form(format!("save {op2:?}"), Instr::Save { rd, rs1, op2 }));
            forms.push(Form {
                prepare: |m| {
                    // The deepest nesting: this `save` overflows.
                    while m.cpu.window_depth() < NWINDOWS - 2 {
                        assert!(m.cpu.window_save());
                    }
                },
                ..form(
                    format!("save overflowing {op2:?}"),
                    Instr::Save { rd, rs1, op2 },
                )
            });
            let (rd, rs1) = (Reg::o(3), Reg::i(4));
            forms.push(Form {
                prepare: |m| assert!(m.cpu.window_save()),
                ..form(format!("restore {op2:?}"), Instr::Restore { rd, rs1, op2 })
            });
            // At depth 0: this `restore` underflows.
            forms.push(form(
                format!("restore underflowing {op2:?}"),
                Instr::Restore { rd, rs1, op2 },
            ));
            let rs1 = Reg::g(3);
            forms.push(form(format!("wr %y {op2:?}"), Instr::WrY { rs1, op2 }));
            forms.push(form(format!("flush {op2:?}"), Instr::Flush { rs1, op2 }));
            // An aligned target, and a misaligned one (skipped).
            let (rd, rs1) = (Reg::o(7), Reg::l(0));
            let op2 = match op2 {
                Operand::Reg(_) => Operand::Reg(Reg::l(1)),
                Operand::Imm(_) => Operand::Imm(2),
            };
            forms.push(form(format!("jmpl {op2:?}"), Instr::Jmpl { rd, rs1, op2 }));
        }
        forms.push(form("rd %y", Instr::RdY { rd: Reg::l(6) }));
        let sethi = Instr::Sethi {
            rd: Reg::g(2),
            imm22: 0x2_a5a5,
        };
        forms.push(form("sethi", sethi));
        forms.push(form("nop", Instr::NOP));
        forms.push(form("call", Instr::Call { disp30: 40 }));
        forms.push(form("unimp", Instr::Unimp { const22: 7 }));
        // `mulscc` (op3 0x24) is no instruction of this core: it decodes
        // as illegal, like any word the decoder does not recognise.
        let mulscc = 0x8000_0000 | 5 << 25 | 0x24 << 19 | 6 << 14 | 7;
        assert!(matches!(nfp_sparc::decode(mulscc), Instr::Illegal { .. }));
        forms.push(Form {
            name: "mulscc".into(),
            word: mulscc,
            prepare: |_| {},
        });
        for bits in 0..16u8 {
            for annul in [false, true] {
                let cond = ICond::from_bits(bits);
                let disp22 = 5;
                forms.push(form(
                    format!("b{cond:?} {annul}"),
                    Instr::Branch {
                        cond,
                        annul,
                        disp22,
                    },
                ));
                let cond = FCond::from_bits(bits);
                forms.push(form(
                    format!("fb{cond:?} {annul}"),
                    Instr::FBranch {
                        cond,
                        annul,
                        disp22,
                    },
                ));
            }
            // Taken or not per the seeded icc; trap numbers 0 (the
            // exit) and 5 (no handler) from either operand form.
            let cond = ICond::from_bits(bits);
            for op2 in [Operand::Imm(0), Operand::Imm(5), Operand::Reg(Reg::l(1))] {
                let instr = Instr::Ticc {
                    cond,
                    rs1: Reg::g(0),
                    op2,
                };
                forms.push(form(format!("t{cond:?} {op2:?}"), instr));
            }
        }
        forms
    }

    /// Each location of a rig, with the bits flipped on it.
    fn flips(m: &Machine) -> Vec<FaultTarget> {
        let mut targets = Vec::new();
        for index in 0..INT_REG_SPACE as u8 {
            for bit in [0, 13, 31] {
                targets.push(FaultTarget::IntReg { index, bit });
            }
        }
        for index in 0..32 {
            for bit in [0, 20, 31] {
                targets.push(FaultTarget::FpReg { index, bit });
            }
        }
        for bit in 0..4 {
            targets.push(FaultTarget::Icc { bit });
        }
        for bit in [0, 31] {
            targets.push(FaultTarget::YReg { bit });
        }
        for bit in 0..2 {
            targets.push(FaultTarget::Fcc { bit });
        }
        let ram = m.bus.ram_base()..m.bus.ram_base() + m.bus.ram_size();
        for (i, addr) in ram.step_by(4).enumerate() {
            let bit = (i % 32) as u8;
            targets.push(FaultTarget::Ram { addr, bit });
        }
        for index in 0..m.code_len() as u32 {
            targets.push(FaultTarget::Code { index, bit: 0 });
        }
        targets
    }

    /// Gives `m` the value `golden` holds at `target`'s location.
    fn reconcile(m: &mut Machine, golden: &Machine, target: FaultTarget) {
        match target {
            FaultTarget::IntReg { index, .. } => m
                .cpu
                .flat_set(index as usize, golden.cpu.flat_get(index as usize)),
            FaultTarget::FpReg { index, .. } => {
                m.cpu.f[index as usize] = golden.cpu.f[index as usize]
            }
            FaultTarget::Icc { .. } => m.cpu.icc = golden.cpu.icc,
            FaultTarget::YReg { .. } => m.cpu.y = golden.cpu.y,
            FaultTarget::Fcc { .. } => m.cpu.fcc = golden.cpu.fcc,
            FaultTarget::Ram { addr, .. } => copy_word(m, golden, addr),
            FaultTarget::Code { index, .. } => copy_word(m, golden, golden.code_base() + index * 4),
        }
    }

    fn copy_word(m: &mut Machine, golden: &Machine, addr: u32) {
        let bytes = golden.bus.read_bytes(addr, 4).unwrap();
        let word = u32::from_be_bytes(bytes.try_into().unwrap());
        m.bus.store32(addr, word).unwrap();
    }

    #[test]
    fn read_sets_cover_what_each_instruction_reads() {
        let (mut checked, mut flipped) = (0, 0);
        for form in forms() {
            let mut golden = rig(form.word);
            (form.prepare)(&mut golden);
            let start = golden.checkpoint();
            let mut read = HashSet::new();
            let (instr, _) = golden.code_entry(0).unwrap();
            let pc = golden.cpu.pc;
            unit_reads(Image::of(&golden), pc, &golden.cpu, &instr, &mut |loc| {
                read.insert(loc);
            });
            let want = format!("{:?}", golden.run(1));
            let end = golden.checkpoint();
            let mut m = rig(form.word);
            for target in flips(&golden) {
                if read.contains(&Loc::of(target)) {
                    continue;
                }
                m.restore(&start);
                let fault = Fault { at: 0, target };
                let armed = inject(&mut m, &fault).unwrap();
                let got = format!("{:?}", m.run(1));
                undo(&mut m, &armed).unwrap();
                reconcile(&mut m, &golden, target);
                let at = format!("{}: {target} outside the read set {read:?}", form.name);
                assert_eq!(got, want, "{at}: the step's result moved");
                // `u64::MAX` compares every bank and the spill stack.
                assert!(m.rejoins(&end, u64::MAX), "{at}: other state moved");
                flipped += 1;
            }
            checked += 1;
        }
        assert!(
            checked > 250 && flipped > checked * 1000,
            "{checked} forms, {flipped} flips"
        );
    }

    #[test]
    fn spills_and_the_exit_read_what_their_handlers_read() {
        // The overflowing `save` reads the oldest window's banks.
        let save = Instr::Save {
            rd: Reg::o(6),
            rs1: Reg::o(6),
            op2: Operand::Imm(-96),
        };
        let mut m = rig(nfp_sparc::encode(save));
        while m.cpu.window_depth() < NWINDOWS - 2 {
            assert!(m.cpu.window_save());
        }
        let mut read = Vec::new();
        reads(&m.cpu, &save, &mut |loc| read.push(loc));
        let oldest = 7 + m.cpu.oldest_window() * 16;
        for index in oldest..oldest + 16 {
            assert!(
                read.contains(&Loc::Int(index as u8)),
                "bank register {index}"
            );
        }
        // `ta 0` reads `%o0`; `ta 5` does not.
        for (number, exits) in [(0, true), (5, false)] {
            let ta = Instr::Ticc {
                cond: ICond::A,
                rs1: Reg::g(0),
                op2: Operand::Imm(number),
            };
            let mut read = Vec::new();
            reads(&m.cpu, &ta, &mut |loc| read.push(loc));
            let o0 = Loc::Int(m.cpu.flat_index(Reg::o(0)).unwrap() as u8);
            assert_eq!(read.contains(&o0), exits, "ta {number}");
        }
    }

    #[test]
    fn a_recorded_run_halts_as_a_plain_one_and_keeps_its_last_reads() {
        use nfp_sparc::asm::Assembler;
        // %l0 is read at index 1 and never again; %l1 at index 3.
        let mut a = Assembler::new(RAM_BASE);
        a.mov(5, Reg::l(0));
        a.alu(AluOp::Add, Reg::l(0), 1, Reg::l(1));
        a.mov(0, Reg::l(0));
        a.alu(AluOp::Sub, Reg::l(1), 6, Reg::o(0));
        a.ta(0);
        a.nop();
        let words = a.finish().unwrap();
        let mut plain = Machine::boot(&words);
        let want = plain.run(100).unwrap();
        let mut m = Machine::boot(&words);
        let mut reads = LastReads::new(&m);
        let got = m.run_recording(100, &mut reads).unwrap();
        assert_eq!((got.exit_code, got.instret), (want.exit_code, want.instret));
        let flip = |index: usize, at| Fault {
            at,
            target: FaultTarget::IntReg {
                index: index as u8,
                bit: 0,
            },
        };
        let l0 = m.cpu.flat_index(Reg::l(0)).unwrap();
        let l1 = m.cpu.flat_index(Reg::l(1)).unwrap();
        assert!(!reads.never_read(&flip(l0, 1)));
        assert!(reads.never_read(&flip(l0, 2)));
        assert!(!reads.never_read(&flip(l1, 3)));
        assert!(reads.never_read(&flip(l1, 4)));
        // The fetches read the code: index 4, the `ta`, last at 4.
        let code = |index, at| Fault {
            at,
            target: FaultTarget::Code { index, bit: 0 },
        };
        assert!(!reads.never_read(&code(4, 4)));
        assert!(reads.never_read(&code(5, 0)), "the nop never runs");
        // A target the machine does not have is never skipped.
        assert!(!reads.never_read(&code(99, 0)));
    }
}
