//! Threaded-code dispatch and superblock traces — the zero-decode hot
//! path behind [`Dispatch::Traced`](crate::Dispatch::Traced).
//!
//! The step path re-matches the instruction enum on every retirement.
//! This module predecodes each image instruction once into a 16-byte
//! [`DecodedOp`] whose kind tag and `aux` selector carry every shape
//! decision (immediate vs register, load width, signedness, ALU or FP
//! opcode, FPU presence, register-pair evenness), so the hot loop is one
//! match on the tag per instruction with zero decode and no indirect
//! call ([`exec_top`]). Straight-line runs outside a
//! trace ([`run_tops`]) take one commit per block, with counts from the
//! block cache's prefix sums (DESIGN.md §8).
//!
//! On top of the flat dispatch table, [`TraceCache`] forms
//! **superblocks**: instruction traces that chain basic blocks across
//! statically-predicted branches (backward-taken/forward-not-taken)
//! and their delay slots, so a whole inner-loop iteration retires
//! without returning to the machine dispatcher. Predictions are
//! enforced at run time by guard ops that evaluate the condition from
//! a precomputed truth-table mask and side-exit with the exact
//! architectural `pc`/`npc` the stepping path would have produced.
//!
//! Bit-identity with the stepping path is preserved the same way the
//! block cache preserves it: every structure here is a pure function
//! of the predecoded image, so
//! [`Machine::patch_code_word`](crate::Machine::patch_code_word) (and
//! with it every fault-injection code flip and undo) drops it, and the
//! next run rebuilds from the patched stream.
//!
//! Observers run inside this interpreter: the run loops are generic
//! over the [`Observer`], and each retired op hands a record observer
//! the [`ExecInfo`] `exec::step` would build — the image entry at the
//! op's pc plus the operand-dependent fields the op's arm records. A
//! ledger observer ([`Observer::LEDGER`]) instead gets the fields'
//! sums, kept in loop locals and committed once per trace or run with
//! the retired ops' prefix-sum category counts, and a hook per memory
//! access and per FPU divide or square root (DESIGN.md §13). Under
//! [`NullObserver`](crate::NullObserver) all of that bookkeeping is
//! dead code, so unobserved runs keep the bare loop.

use std::collections::HashSet;

use crate::blocks::{leaders, BlockCache};
use crate::bus::Bus;
use crate::cpu::Cpu;
use crate::exec::{compare, exec_alu, fault_to_trap, ExecError, ExecInfo, Observer, Residue, Trap};
use nfp_sparc::cond::FccValue;
use nfp_sparc::{
    AluOp, Category, CategoryCounts, FCond, FReg, FpOp, ICond, Instr, MemSize, Operand, Reg,
};

/// Upper bound on superblock length, in trace ops. Bounds both build
/// time and the budget slack a trace needs before the run loop may
/// enter it (`run_until` exactness: a trace is only entered when the
/// whole trace fits in the remaining instruction budget).
pub(crate) const MAX_TRACE_OPS: usize = 256;

/// Control-flow verdict of one predecoded op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Sequential: fall through to the next op in the table/trace.
    Next,
    /// Side exit: the op has written the architectural `pc`/`npc` to
    /// follow; the trace stops here (the op itself retired).
    Exit,
}

/// Dispatch-kind tag: the shape of a predecoded op, which [`exec_top`]
/// matches to execute it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum OpKind {
    /// Retires with no architectural effect (`nop`, `flush`, `sethi`
    /// into `%g0`); `imm` is the value a `sethi` computes (else 0).
    Nop,
    /// In-trace `ba`/`ba,a`/`fba`/`fba,a`: the successor is inlined, so
    /// retiring the branch has no architectural effect.
    Retire,
    /// `sethi` with a live destination; `imm` is precomputed.
    Sethi,
    /// Integer ALU, immediate form; `aux` is the `AluOp` discriminant.
    AluImm,
    /// Integer ALU, register form; `aux` is the `AluOp` discriminant.
    AluReg,
    /// Integer load, immediate form; `aux` = size code | signed << 2.
    LoadImm,
    /// Integer load, register form; `aux` as for `LoadImm`.
    LoadReg,
    /// Integer store, immediate form; `aux` = size code.
    StoreImm,
    /// Integer store, register form; `aux` = size code.
    StoreReg,
    /// Predicted-taken icc guard (non-annulling).
    GuardTaken,
    /// Predicted-taken icc guard (annulling).
    GuardTakenAnnul,
    /// Predicted-not-taken icc guard.
    GuardUntaken,
    /// Predicted-taken fcc guard (non-annulling).
    GuardFTaken,
    /// Predicted-taken fcc guard (annulling).
    GuardFTakenAnnul,
    /// Predicted-not-taken fcc guard.
    GuardFUntaken,
    /// In-trace `call`: links `%o7`, continuation is inlined.
    CallLink,
    /// `rd %y`.
    RdY,
    /// `wr %y`, immediate form.
    WrYImm,
    /// `wr %y`, register form.
    WrYReg,
    /// `save`, immediate form.
    SaveImm,
    /// `save`, register form.
    SaveReg,
    /// `restore`, immediate form.
    RestoreImm,
    /// `restore`, register form.
    RestoreReg,
    /// FP load, immediate form; `aux` = 1 for a double.
    LoadFImm,
    /// FP load, register form; `aux` = 1 for a double.
    LoadFReg,
    /// FP store, immediate form; `aux` = 1 for a double.
    StoreFImm,
    /// FP store, register form; `aux` = 1 for a double.
    StoreFReg,
    /// FP arithmetic; `aux` is the `FpOp` discriminant.
    Fp,
    /// `fcmps`.
    FCmpS,
    /// `fcmpd`.
    FCmpD,
    /// Always-trapping entry; `aux` selects the error (see
    /// [`stub_err`]). The default, so an entry whose kind is never set
    /// is the routing-violation stub and cannot retire.
    #[default]
    Stub,
}

/// Predecoded op: one dispatch-table or trace entry. One fixed shape
/// for every instruction keeps the table flat (`Vec<DecodedOp>`), with
/// fields reused per form: `imm` is the immediate operand, the
/// precomputed `sethi` value, the branch target of an untaken-guard, or
/// the raw word of an illegal instruction; `mask` is the guard
/// truth-table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DecodedOp {
    /// The instruction's own address (trap payloads, guard exits).
    pub pc: u32,
    /// Immediate / precomputed value / guard target / illegal word.
    pub imm: u32,
    /// Condition truth-table for guard ops (see [`icc_mask`]).
    pub mask: u16,
    /// Destination register number.
    pub rd: u8,
    /// First source register number.
    pub rs1: u8,
    /// Second source register number (register-form `op2`).
    pub rs2: u8,
    /// Inline-dispatch tag (see [`OpKind`]).
    pub kind: OpKind,
    /// Kind-specific selector (ALU opcode, load/store size code).
    pub aux: u8,
}

/// `DecodedOp` is the dispatch-table and trace entry, sized to pack two
/// entries per 32-byte half cache line; `kind`/`aux` live in what used
/// to be padding. Growing it is a measurable dispatch regression, so the
/// layout is pinned here.
const _: () = assert!(std::mem::size_of::<DecodedOp>() == 16);

impl DecodedOp {
    /// The routing-violation stub at `pc` (the default kind, stub code
    /// 0); predecode then sets the kind and operands of a real op.
    pub(crate) fn at(pc: u32) -> Self {
        DecodedOp {
            pc,
            ..Default::default()
        }
    }
}

/// Register numbers in `DecodedOp` come from `Reg::num()` so they are
/// always `< 32`; the mask keeps that invariant visible to the
/// constructor so no bounds branch survives in the hot path.
#[inline(always)]
fn reg(n: u8) -> Reg {
    Reg::new(n & 31)
}

#[inline(always)]
fn freg(n: u8) -> FReg {
    FReg::new(n & 31)
}

#[inline(always)]
fn op2_val<const IMM: bool>(cpu: &Cpu, op: &DecodedOp) -> u32 {
    if IMM {
        op.imm
    } else {
        cpu.get(reg(op.rs2))
    }
}

// ---------------------------------------------------------------------------
// Linear op helpers (mirrors of `exec_linear`'s arms)
// ---------------------------------------------------------------------------

#[inline(always)]
fn exec_sethi(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    cpu.set(reg(op.rd), op.imm);
    Flow::Next
}

fn exec_rdy(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    let y = cpu.y;
    cpu.set(reg(op.rd), y);
    Flow::Next
}

fn exec_wry_c<const IMM: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    cpu.y = cpu.get(reg(op.rs1)) ^ op2_val::<IMM>(cpu, op);
    Flow::Next
}

fn exec_save_c<const IMM: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    // Source operands are read in the OLD window, the result is
    // written in the NEW window.
    let a = cpu.get(reg(op.rs1));
    let b = op2_val::<IMM>(cpu, op);
    if !cpu.window_save() {
        return Err(Trap::WindowOverflow { pc: op.pc }.into());
    }
    cpu.set(reg(op.rd), a.wrapping_add(b));
    Ok(Flow::Next)
}

fn exec_restore_c<const IMM: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    let a = cpu.get(reg(op.rs1));
    let b = op2_val::<IMM>(cpu, op);
    if !cpu.window_restore() {
        return Err(Trap::WindowUnderflow { pc: op.pc }.into());
    }
    cpu.set(reg(op.rd), a.wrapping_add(b));
    Ok(Flow::Next)
}

/// `SIZE`: 0 = byte, 1 = half, 2 = word, 3 = doubleword (odd-`rd`
/// doublewords are predecoded to a trap stub).
/// Returns the effective address and the loaded value, extended as it
/// lands in the register (what an observer counts).
#[inline(always)]
fn load_c<const SIZE: u8, const SIGNED: bool, const IMM: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
) -> Result<(u32, u64), ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    let v = match SIZE {
        0 => {
            let v = bus.load8(addr).map_err(map)? as u32;
            let v = if SIGNED {
                v as u8 as i8 as i32 as u32
            } else {
                v
            };
            cpu.set(reg(op.rd), v);
            v as u64
        }
        1 => {
            let v = bus.load16(addr).map_err(map)? as u32;
            let v = if SIGNED {
                v as u16 as i16 as i32 as u32
            } else {
                v
            };
            cpu.set(reg(op.rd), v);
            v as u64
        }
        2 => {
            let v = bus.load32(addr).map_err(map)?;
            cpu.set(reg(op.rd), v);
            v as u64
        }
        _ => {
            let v = bus.load64(addr).map_err(map)?;
            cpu.set(reg(op.rd), (v >> 32) as u32);
            cpu.set(reg(op.rd + 1), v as u32);
            v
        }
    };
    Ok((addr, v))
}

/// Returns the effective address and the value an observer counts:
/// the whole source register for sub-doubleword stores (as
/// `exec::step` counts it), the register pair for `std`.
#[inline(always)]
fn store_c<const SIZE: u8, const IMM: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
) -> Result<(u32, u64), ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    let v = cpu.get(reg(op.rd));
    let counted = match SIZE {
        0 => {
            bus.store8(addr, v as u8).map_err(map)?;
            v as u64
        }
        1 => {
            bus.store16(addr, v as u16).map_err(map)?;
            v as u64
        }
        2 => {
            bus.store32(addr, v).map_err(map)?;
            v as u64
        }
        _ => {
            let lo = cpu.get(reg(op.rd + 1));
            let dv = ((v as u64) << 32) | lo as u64;
            bus.store64(addr, dv).map_err(map)?;
            dv
        }
    };
    Ok((addr, counted))
}

/// Returns the effective address and the loaded bits.
#[inline(always)]
fn loadf_c<const DOUBLE: bool, const IMM: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
) -> Result<(u32, u64), ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    if DOUBLE {
        let v = bus.load64(addr).map_err(map)?;
        cpu.fset(freg(op.rd), (v >> 32) as u32);
        cpu.fset(freg(op.rd + 1), v as u32);
        Ok((addr, v))
    } else {
        let v = bus.load32(addr).map_err(map)?;
        cpu.fset(freg(op.rd), v);
        Ok((addr, v as u64))
    }
}

/// Returns the effective address and the stored bits.
#[inline(always)]
fn storef_c<const DOUBLE: bool, const IMM: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
) -> Result<(u32, u64), ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    if DOUBLE {
        let hi = cpu.fget(freg(op.rd)) as u64;
        let lo = cpu.fget(freg(op.rd + 1)) as u64;
        let v = (hi << 32) | lo;
        bus.store64(addr, v).map_err(map)?;
        Ok((addr, v))
    } else {
        let v = cpu.fget(freg(op.rd));
        bus.store32(addr, v).map_err(map)?;
        Ok((addr, v as u64))
    }
}

/// Executes an [`OpKind::Fp`] op: `aux` is the `FpOp` discriminant, and
/// operand evenness is validated at predecode.
///
/// Kept out of the run loops: inlined into them, this match slowed
/// `HwObserver` runs of quick-preset kernels by ~14%, while the call
/// per FP op costs unobserved traced runs nothing measurable.
#[inline(never)]
fn exec_fp(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    use FpOp::*;
    let (rd, rs1, rs2) = (freg(op.rd), freg(op.rs1), freg(op.rs2));
    match FpOp::ALL[op.aux as usize] {
        FMovS => cpu.fset(rd, cpu.fget(rs2)),
        FNegS => cpu.fset(rd, cpu.fget(rs2) ^ 0x8000_0000),
        FAbsS => cpu.fset(rd, cpu.fget(rs2) & 0x7fff_ffff),
        FSqrtS => cpu.fset_s(rd, cpu.fget_s(rs2).sqrt()),
        FSqrtD => cpu.fset_d(rd, cpu.fget_d(rs2).sqrt()),
        FAddS => cpu.fset_s(rd, cpu.fget_s(rs1) + cpu.fget_s(rs2)),
        FAddD => cpu.fset_d(rd, cpu.fget_d(rs1) + cpu.fget_d(rs2)),
        FSubS => cpu.fset_s(rd, cpu.fget_s(rs1) - cpu.fget_s(rs2)),
        FSubD => cpu.fset_d(rd, cpu.fget_d(rs1) - cpu.fget_d(rs2)),
        FMulS => cpu.fset_s(rd, cpu.fget_s(rs1) * cpu.fget_s(rs2)),
        FMulD => cpu.fset_d(rd, cpu.fget_d(rs1) * cpu.fget_d(rs2)),
        FDivS => cpu.fset_s(rd, cpu.fget_s(rs1) / cpu.fget_s(rs2)),
        FDivD => cpu.fset_d(rd, cpu.fget_d(rs1) / cpu.fget_d(rs2)),
        FsMulD => cpu.fset_d(rd, cpu.fget_s(rs1) as f64 * cpu.fget_s(rs2) as f64),
        FiToS => cpu.fset_s(rd, cpu.fget(rs2) as i32 as f32),
        FiToD => cpu.fset_d(rd, cpu.fget(rs2) as i32 as f64),
        FsToI => cpu.fset(rd, cpu.fget_s(rs2) as i32 as u32),
        FdToI => cpu.fset(rd, cpu.fget_d(rs2) as i32 as u32),
        FsToD => cpu.fset_d(rd, cpu.fget_s(rs2) as f64),
        FdToS => cpu.fset_s(rd, cpu.fget_d(rs2) as f32),
    }
    Flow::Next
}

// ---------------------------------------------------------------------------
// Guard ops (trace side exits)
// ---------------------------------------------------------------------------

/// Index of the current integer condition codes into a guard
/// truth-table mask: `n<<3 | z<<2 | v<<1 | c`.
#[inline(always)]
fn icc_index(cpu: &Cpu) -> u16 {
    ((cpu.icc.n as u16) << 3)
        | ((cpu.icc.z as u16) << 2)
        | ((cpu.icc.v as u16) << 1)
        | (cpu.icc.c as u16)
}

/// Truth table of `cond` over all 16 icc states, bit `i` set iff the
/// branch is taken in state `i` (see [`icc_index`]). Evaluating a
/// guard is then one shift-and-mask instead of the cond match.
pub(crate) fn icc_mask(cond: ICond) -> u16 {
    let mut m = 0u16;
    for i in 0..16u16 {
        if cond.eval(i & 8 != 0, i & 4 != 0, i & 2 != 0, i & 1 != 0) {
            m |= 1 << i;
        }
    }
    m
}

#[inline(always)]
fn fcc_index(cpu: &Cpu) -> u16 {
    match cpu.fcc {
        FccValue::Equal => 0,
        FccValue::Less => 1,
        FccValue::Greater => 2,
        FccValue::Unordered => 3,
    }
}

/// Truth table of `cond` over the 4 fcc relations (see [`fcc_index`]).
pub(crate) fn fcc_mask(cond: FCond) -> u16 {
    let mut m = 0u16;
    for (i, fcc) in [
        FccValue::Equal,
        FccValue::Less,
        FccValue::Greater,
        FccValue::Unordered,
    ]
    .into_iter()
    .enumerate()
    {
        if cond.eval(fcc) {
            m |= 1 << i;
        }
    }
    m
}

/// Guard for a branch the trace predicts **taken**: falls through into
/// the (already inlined) delay slot and target block while the
/// prediction holds, and side-exits with the exact not-taken
/// architectural state otherwise. `op.pc` is the branch's address; the
/// trace is only ever entered from a sequential state, so
/// `npc = pc + 4` at the guard.
#[inline(always)]
fn guard_taken<const ANNUL: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    if (op.mask >> icc_index(cpu)) & 1 != 0 {
        return Flow::Next;
    }
    not_taken_exit::<ANNUL>(cpu, op)
}

/// Guard for a branch the trace predicts **not taken**: falls through
/// past the (annulled or inlined) delay slot while untaken, and
/// side-exits into the delay-slot-then-target state when taken.
/// `op.imm` holds the branch target.
#[inline(always)]
fn guard_untaken(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    if (op.mask >> icc_index(cpu)) & 1 == 0 {
        return Flow::Next;
    }
    taken_exit(cpu, op)
}

#[inline(always)]
fn guard_ftaken<const ANNUL: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    if (op.mask >> fcc_index(cpu)) & 1 != 0 {
        return Flow::Next;
    }
    not_taken_exit::<ANNUL>(cpu, op)
}

#[inline(always)]
fn guard_funtaken(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    if (op.mask >> fcc_index(cpu)) & 1 == 0 {
        return Flow::Next;
    }
    taken_exit(cpu, op)
}

/// Not-taken side exit from a sequential state `(pc, pc+4)`: an
/// annulling branch skips its delay slot (`pc+8, pc+12`), a
/// non-annulling one executes it (`pc+4, pc+8`). Matches
/// `apply_branch` in `exec.rs`.
#[cold]
fn not_taken_exit<const ANNUL: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    if ANNUL {
        cpu.pc = op.pc.wrapping_add(8);
        cpu.npc = op.pc.wrapping_add(12);
    } else {
        cpu.pc = op.pc.wrapping_add(4);
        cpu.npc = op.pc.wrapping_add(8);
    }
    Flow::Exit
}

/// Taken side exit: a taken conditional branch always executes its
/// delay slot (`pc+4`), then the target (`op.imm`).
#[cold]
fn taken_exit(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    cpu.pc = op.pc.wrapping_add(4);
    cpu.npc = op.imm;
    Flow::Exit
}

/// `call` inside a trace: writes the return address (its own pc) to
/// `%o7`; the target block is inlined after the delay slot.
#[inline(always)]
fn exec_call_link(cpu: &mut Cpu, op: &DecodedOp) -> Flow {
    cpu.set(nfp_sparc::regs::O7, op.pc);
    Flow::Next
}

// ---------------------------------------------------------------------------
// Inline dispatch
// ---------------------------------------------------------------------------

/// Error for an always-trapping entry (`OpKind::Stub`), by `aux` code.
/// Code 0 is a routing violation: a block-ending instruction (CTI or
/// `t<cond>`) reached through the table or a trace, which the machine
/// surfaces as `SimError::DispatchViolation` (never a panic). Codes 1-3
/// are the FPU-disabled, odd FP pair and odd integer pair traps, and 4
/// an illegal instruction whose word is in `imm`.
#[cold]
fn stub_err(op: &DecodedOp) -> ExecError {
    match op.aux {
        0 => ExecError::NotLinear { pc: op.pc },
        1 => Trap::FpDisabled { pc: op.pc }.into(),
        2 => Trap::OddFpPair { pc: op.pc }.into(),
        3 => Trap::OddIntPair { pc: op.pc }.into(),
        _ => Trap::Illegal {
            pc: op.pc,
            word: op.imm,
        }
        .into(),
    }
}

/// An [`Observer`] plus the predecoded image that the ops' pcs index:
/// everything traced dispatch needs to hand a record observer the
/// [`ExecInfo`] `exec::step` builds for the same retirement.
pub(crate) struct Observed<'a, O> {
    pub obs: &'a mut O,
    pub code: &'a [(Instr, Category)],
    pub base: u32,
}

/// The operand-dependent fields of an op's [`ExecInfo`].
#[derive(Default)]
struct Effect {
    mem_addr: Option<u32>,
    branch_taken: Option<bool>,
    fpu_rs2_bits: Option<u64>,
    result_ones: u32,
}

impl<O: Observer> Observed<'_, O> {
    /// Reports the op at `pc` as retired to a record observer.
    /// `instr` and `category` come from the image entry, so a guard or
    /// an in-trace `ba`/`call` reports its branch. Everything here is
    /// pure and panic-free, so for
    /// [`NullObserver`](crate::NullObserver) it is dead code.
    #[inline(always)]
    fn retire(&mut self, pc: u32, fx: Effect) {
        let idx = pc.wrapping_sub(self.base) as usize / 4;
        if let Some(&(instr, category)) = self.code.get(idx) {
            self.obs.observe(&ExecInfo {
                pc,
                instr,
                category,
                mem_addr: fx.mem_addr,
                branch_taken: fx.branch_taken,
                fpu_rs2_bits: fx.fpu_rs2_bits,
                result_ones: fx.result_ones,
            });
        }
    }

    /// Hands a ledger observer one trace's or straight-line run's
    /// batch: the category counts of its retired ops, which `counts`
    /// reads from prefix sums, and the residue its loop kept.
    #[inline(always)]
    fn commit(&mut self, counts: impl FnOnce() -> CategoryCounts, res: &Residue) {
        if O::LEDGER {
            self.obs.retire_batch(&counts(), res);
        }
    }
}

/// One op's retirement as its arm in [`exec_top`] reports it: into the
/// [`Effect`] of the record a record observer gets or, for a ledger
/// ([`Observer::LEDGER`]), into the loop's [`Residue`] and the ledger's
/// per-event hooks. The choice is a constant of the observer type, so
/// each type's loop carries only its own bookkeeping.
struct Retiring<'r, 'a, O> {
    obs: &'r mut Observed<'a, O>,
    res: &'r mut Residue,
    fx: Effect,
}

impl<O: Observer> Retiring<'_, '_, O> {
    /// A result value with `ones` set bits.
    #[inline(always)]
    fn ones(&mut self, ones: u32) {
        if O::LEDGER {
            self.res.ones += ones as u64;
        } else {
            self.fx.result_ones = ones;
        }
    }

    /// An integer ALU op (`aux` is its `AluOp` discriminant) computed
    /// `r`.
    #[inline(always)]
    fn alu(&mut self, aux: u8, r: u32) {
        self.ones(r.count_ones());
        if O::LEDGER {
            let op = AluOp::ALL[aux as usize];
            self.res.int_mul += op.is_mul() as u64;
            self.res.int_div += op.is_div() as u64;
        }
    }

    /// A load or store: its effective address and the value moved.
    #[inline(always)]
    fn mem(&mut self, (addr, v): (u32, u64), store: bool) {
        if O::LEDGER {
            self.obs.obs.mem_access(addr, store);
            self.res.ones += v.count_ones() as u64;
        } else {
            self.fx.mem_addr = Some(addr);
            self.fx.result_ones = v.count_ones();
        }
    }

    /// A jump's outcome.
    #[inline(always)]
    fn branch(&mut self, taken: bool) {
        if O::LEDGER {
            self.res.untaken += !taken as u64;
        } else {
            self.fx.branch_taken = Some(taken);
        }
    }

    /// An FP arithmetic op about to execute: `fsqrt` and `fdiv` report
    /// their operand (an FP op cannot fail once it runs).
    #[inline(always)]
    fn fp(&mut self, cpu: &Cpu, op: &DecodedOp) {
        let Some((category, bits)) = fp_rs2_bits(cpu, op) else {
            return;
        };
        if O::LEDGER {
            self.obs.obs.fpu_operand(category, bits);
        } else {
            self.fx.fpu_rs2_bits = Some(bits);
        }
    }

    /// The op at `pc` retired.
    #[inline(always)]
    fn retire(self, pc: u32) {
        if !O::LEDGER {
            self.obs.retire(pc, self.fx);
        }
    }
}

/// The category and the divisor or radicand bits `exec::step` reports
/// for `fsqrt` and `fdiv`, read before the op writes `rd`.
/// Single-precision bits are widened; the register pair of a double is
/// even (checked at predecode), and `freg` masks keep every read in
/// bounds.
#[inline(always)]
fn fp_rs2_bits(cpu: &Cpu, op: &DecodedOp) -> Option<(Category, u64)> {
    let single = || cpu.fget(freg(op.rs2)) as u64;
    let double = || ((cpu.fget(freg(op.rs2)) as u64) << 32) | cpu.fget(freg(op.rs2 + 1)) as u64;
    match FpOp::ALL.get(op.aux as usize)? {
        FpOp::FSqrtS => Some((Category::FpuSqrt, single())),
        FpOp::FDivS => Some((Category::FpuDiv, single())),
        FpOp::FSqrtD => Some((Category::FpuSqrt, double())),
        FpOp::FDivD => Some((Category::FpuDiv, double())),
        _ => None,
    }
}

/// Executes one predecoded op and reports it to the observer once it
/// retires. This match is the only place a predecoded op executes: each
/// arm is the op's semantics, inlined at the dispatch site except for
/// the FP arithmetic ([`exec_fp`]).
///
/// A fn-pointer loop pays a call/ret plus an opaque optimization
/// barrier on every instruction; measured on the FSE kernel that is
/// slower than the block path's inlined match. Matching the one-byte
/// `OpKind` tag keeps the flat predecoded table and gives every shape
/// its own branch target (DESIGN.md §13).
///
/// What each arm reports ([`Retiring`]) is what `exec_linear` puts in
/// the op's [`ExecInfo`]: computed results and loaded or stored values
/// for `result_ones` (even into `%g0`), effective addresses, guard
/// outcomes, and `fsqrt`/`fdiv` operands. An op that errors reports
/// nothing.
#[inline(always)]
fn exec_top<O: Observer>(
    op: &DecodedOp,
    cpu: &mut Cpu,
    bus: &mut Bus,
    obs: &mut Observed<'_, O>,
    res: &mut Residue,
) -> Result<Flow, ExecError> {
    let mut rt = Retiring {
        obs,
        res,
        fx: Effect::default(),
    };
    let flow = match op.kind {
        OpKind::Nop => {
            rt.ones(op.imm.count_ones());
            Flow::Next
        }
        OpKind::Retire => {
            rt.branch(true);
            Flow::Next
        }
        OpKind::Sethi => {
            rt.ones(op.imm.count_ones());
            exec_sethi(cpu, op)
        }
        OpKind::AluImm => {
            let a = cpu.get(reg(op.rs1));
            let r = exec_alu(cpu, AluOp::ALL[op.aux as usize], a, op.imm, op.pc)?;
            cpu.set(reg(op.rd), r);
            rt.alu(op.aux, r);
            Flow::Next
        }
        OpKind::AluReg => {
            let a = cpu.get(reg(op.rs1));
            let b = cpu.get(reg(op.rs2));
            let r = exec_alu(cpu, AluOp::ALL[op.aux as usize], a, b, op.pc)?;
            cpu.set(reg(op.rd), r);
            rt.alu(op.aux, r);
            Flow::Next
        }
        OpKind::LoadImm => {
            let done = match op.aux {
                0 => load_c::<0, false, true>(cpu, bus, op),
                1 => load_c::<1, false, true>(cpu, bus, op),
                2 => load_c::<2, false, true>(cpu, bus, op),
                3 => load_c::<3, false, true>(cpu, bus, op),
                4 => load_c::<0, true, true>(cpu, bus, op),
                _ => load_c::<1, true, true>(cpu, bus, op),
            }?;
            rt.mem(done, false);
            Flow::Next
        }
        OpKind::LoadReg => {
            let done = match op.aux {
                0 => load_c::<0, false, false>(cpu, bus, op),
                1 => load_c::<1, false, false>(cpu, bus, op),
                2 => load_c::<2, false, false>(cpu, bus, op),
                3 => load_c::<3, false, false>(cpu, bus, op),
                4 => load_c::<0, true, false>(cpu, bus, op),
                _ => load_c::<1, true, false>(cpu, bus, op),
            }?;
            rt.mem(done, false);
            Flow::Next
        }
        OpKind::StoreImm => {
            let done = match op.aux {
                0 => store_c::<0, true>(cpu, bus, op),
                1 => store_c::<1, true>(cpu, bus, op),
                2 => store_c::<2, true>(cpu, bus, op),
                _ => store_c::<3, true>(cpu, bus, op),
            }?;
            rt.mem(done, true);
            Flow::Next
        }
        OpKind::StoreReg => {
            let done = match op.aux {
                0 => store_c::<0, false>(cpu, bus, op),
                1 => store_c::<1, false>(cpu, bus, op),
                2 => store_c::<2, false>(cpu, bus, op),
                _ => store_c::<3, false>(cpu, bus, op),
            }?;
            rt.mem(done, true);
            Flow::Next
        }
        // A predicted-taken guard falls through when the branch is
        // taken; a predicted-untaken one when it is not.
        OpKind::GuardTaken => {
            let f = guard_taken::<false>(cpu, op);
            rt.branch(f == Flow::Next);
            f
        }
        OpKind::GuardTakenAnnul => {
            let f = guard_taken::<true>(cpu, op);
            rt.branch(f == Flow::Next);
            f
        }
        OpKind::GuardUntaken => {
            let f = guard_untaken(cpu, op);
            rt.branch(f == Flow::Exit);
            f
        }
        OpKind::GuardFTaken => {
            let f = guard_ftaken::<false>(cpu, op);
            rt.branch(f == Flow::Next);
            f
        }
        OpKind::GuardFTakenAnnul => {
            let f = guard_ftaken::<true>(cpu, op);
            rt.branch(f == Flow::Next);
            f
        }
        OpKind::GuardFUntaken => {
            let f = guard_funtaken(cpu, op);
            rt.branch(f == Flow::Exit);
            f
        }
        OpKind::CallLink => {
            rt.branch(true);
            exec_call_link(cpu, op)
        }
        OpKind::RdY => {
            rt.ones(cpu.y.count_ones());
            exec_rdy(cpu, op)
        }
        OpKind::WrYImm => exec_wry_c::<true>(cpu, op),
        OpKind::WrYReg => exec_wry_c::<false>(cpu, op),
        OpKind::SaveImm => exec_save_c::<true>(cpu, op)?,
        OpKind::SaveReg => exec_save_c::<false>(cpu, op)?,
        OpKind::RestoreImm => exec_restore_c::<true>(cpu, op)?,
        OpKind::RestoreReg => exec_restore_c::<false>(cpu, op)?,
        OpKind::LoadFImm => {
            let done = if op.aux != 0 {
                loadf_c::<true, true>(cpu, bus, op)
            } else {
                loadf_c::<false, true>(cpu, bus, op)
            }?;
            rt.mem(done, false);
            Flow::Next
        }
        OpKind::LoadFReg => {
            let done = if op.aux != 0 {
                loadf_c::<true, false>(cpu, bus, op)
            } else {
                loadf_c::<false, false>(cpu, bus, op)
            }?;
            rt.mem(done, false);
            Flow::Next
        }
        OpKind::StoreFImm => {
            let done = if op.aux != 0 {
                storef_c::<true, true>(cpu, bus, op)
            } else {
                storef_c::<false, true>(cpu, bus, op)
            }?;
            rt.mem(done, true);
            Flow::Next
        }
        OpKind::StoreFReg => {
            let done = if op.aux != 0 {
                storef_c::<true, false>(cpu, bus, op)
            } else {
                storef_c::<false, false>(cpu, bus, op)
            }?;
            rt.mem(done, true);
            Flow::Next
        }
        OpKind::Fp => {
            rt.fp(cpu, op);
            exec_fp(cpu, op)
        }
        OpKind::FCmpS => {
            cpu.fcc = compare(
                cpu.fget_s(freg(op.rs1)) as f64,
                cpu.fget_s(freg(op.rs2)) as f64,
            );
            Flow::Next
        }
        OpKind::FCmpD => {
            cpu.fcc = compare(cpu.fget_d(freg(op.rs1)), cpu.fget_d(freg(op.rs2)));
            Flow::Next
        }
        OpKind::Stub => return Err(stub_err(op)),
    };
    rt.retire(op.pc);
    Ok(flow)
}

/// Runs the straight-line slice `[start, end)` of the dispatch table
/// until every op retires or one errors out, reporting each retired op
/// to `obs`; a ledger gets the batch's counts from `blocks`' prefix
/// sums. Returns the retired-op count and the stopping error, if any.
/// Outlined from the machine run loop for the same register-allocation
/// reason as [`Trace::run`], once per observer type.
#[inline(never)]
pub(crate) fn run_tops<O: Observer>(
    table: &[DecodedOp],
    blocks: &BlockCache,
    start: usize,
    end: usize,
    cpu: &mut Cpu,
    bus: &mut Bus,
    obs: &mut Observed<'_, O>,
) -> (usize, Option<ExecError>) {
    let mut res = Residue::default();
    for (k, op) in table[start..end].iter().enumerate() {
        if let Err(e) = exec_top(op, cpu, bus, obs, &mut res) {
            obs.commit(|| blocks.range_counts(start, start + k), &res);
            return (k, Some(e));
        }
    }
    obs.commit(|| blocks.range_counts(start, end), &res);
    (end - start, None)
}

// ---------------------------------------------------------------------------
// Predecode: instruction -> dispatch-table entry
// ---------------------------------------------------------------------------

/// True when `op`'s double-precision operands all name even registers
/// (the evenness `exec_fpop` enforces at run time, hoisted to
/// predecode; violators become odd-FP-pair trap stubs).
fn fp_even_ok(op: FpOp, rd: FReg, rs1: FReg, rs2: FReg) -> bool {
    use FpOp::*;
    match op {
        FSqrtD => rs2.is_even() && rd.is_even(),
        FAddD | FSubD | FMulD | FDivD => rs1.is_even() && rs2.is_even() && rd.is_even(),
        FsMulD | FiToD | FsToD => rd.is_even(),
        FdToI | FdToS => rs2.is_even(),
        _ => true,
    }
}

/// Splits `op2` into the decoded record; returns the `IMM` selector.
fn split_op2(op2: Operand, d: &mut DecodedOp) -> bool {
    match op2 {
        Operand::Reg(r) => {
            d.rs2 = r.num();
            false
        }
        Operand::Imm(v) => {
            d.imm = v as u32;
            true
        }
    }
}

/// `SIZE` code used by the const-generic memory helpers and `aux` tags:
/// 0 = byte, 1 = half, 2 = word, 3 = doubleword.
fn size_code(size: MemSize) -> u8 {
    match size {
        MemSize::Byte => 0,
        MemSize::Half => 1,
        MemSize::Word => 2,
        MemSize::Double => 3,
    }
}

/// Predecodes one instruction into its dispatch-table entry. Shape
/// decisions that `exec_linear` makes per retirement — operand form,
/// width, signedness, FPU presence, register-pair evenness — are made
/// once here and burned into the entry's `kind` and `aux` tags.
fn op_for(instr: Instr, pc: u32, fpu: bool) -> DecodedOp {
    let mut d = DecodedOp::at(pc);
    d.kind = match instr {
        Instr::Sethi { rd, imm22 } => {
            // `exec::step` counts the computed value even when it
            // is discarded, so `imm` holds it for the observer.
            d.imm = imm22 << 10;
            if rd.is_zero() {
                OpKind::Nop
            } else {
                d.rd = rd.num();
                OpKind::Sethi
            }
        }
        Instr::Alu { op, rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            d.aux = op as u8;
            if split_op2(op2, &mut d) {
                OpKind::AluImm
            } else {
                OpKind::AluReg
            }
        }
        Instr::RdY { rd } => {
            d.rd = rd.num();
            OpKind::RdY
        }
        Instr::WrY { rs1, op2 } => {
            d.rs1 = rs1.num();
            if split_op2(op2, &mut d) {
                OpKind::WrYImm
            } else {
                OpKind::WrYReg
            }
        }
        Instr::Save { rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            if split_op2(op2, &mut d) {
                OpKind::SaveImm
            } else {
                OpKind::SaveReg
            }
        }
        Instr::Restore { rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            if split_op2(op2, &mut d) {
                OpKind::RestoreImm
            } else {
                OpKind::RestoreReg
            }
        }
        Instr::Flush { .. } => OpKind::Nop,
        Instr::Load {
            size,
            signed,
            rd,
            rs1,
            op2,
        } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if size == MemSize::Double && rd.num() % 2 != 0 {
                d.aux = 3;
                OpKind::Stub
            } else {
                // Signedness only exists below word width: word and
                // doubleword loads take the unsigned helper.
                let sgn = signed && matches!(size, MemSize::Byte | MemSize::Half);
                d.aux = size_code(size) | (sgn as u8) << 2;
                if imm {
                    OpKind::LoadImm
                } else {
                    OpKind::LoadReg
                }
            }
        }
        Instr::Store { size, rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if size == MemSize::Double && rd.num() % 2 != 0 {
                d.aux = 3;
                OpKind::Stub
            } else {
                d.aux = size_code(size);
                if imm {
                    OpKind::StoreImm
                } else {
                    OpKind::StoreReg
                }
            }
        }
        Instr::LoadF {
            double,
            rd,
            rs1,
            op2,
        } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if double && !rd.is_even() {
                d.aux = 2;
                OpKind::Stub
            } else {
                d.aux = double as u8;
                if imm {
                    OpKind::LoadFImm
                } else {
                    OpKind::LoadFReg
                }
            }
        }
        Instr::StoreF {
            double,
            rd,
            rs1,
            op2,
        } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if double && !rd.is_even() {
                d.aux = 2;
                OpKind::Stub
            } else {
                d.aux = double as u8;
                if imm {
                    OpKind::StoreFImm
                } else {
                    OpKind::StoreFReg
                }
            }
        }
        Instr::FpOp { op, rd, rs1, rs2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            d.rs2 = rs2.num();
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if !fp_even_ok(op, rd, rs1, rs2) {
                d.aux = 2;
                OpKind::Stub
            } else {
                d.aux = op as u8;
                OpKind::Fp
            }
        }
        Instr::FCmp {
            double, rs1, rs2, ..
        } => {
            d.rs1 = rs1.num();
            d.rs2 = rs2.num();
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if double && (!rs1.is_even() || !rs2.is_even()) {
                d.aux = 2;
                OpKind::Stub
            } else if double {
                OpKind::FCmpD
            } else {
                OpKind::FCmpS
            }
        }
        Instr::Unimp { const22 } => {
            d.imm = const22;
            d.aux = 4;
            OpKind::Stub
        }
        Instr::Illegal { word } => {
            d.imm = word;
            d.aux = 4;
            OpKind::Stub
        }
        // Block enders never execute through the linear table: their
        // entry stays the routing-violation stub.
        Instr::Branch { .. }
        | Instr::FBranch { .. }
        | Instr::Call { .. }
        | Instr::Jmpl { .. }
        | Instr::Ticc { .. } => OpKind::Stub,
    };
    d
}

/// Predecodes the whole image into the flat dispatch table: one
/// [`DecodedOp`] per image instruction, same indexing as the image
/// (`(pc - base) / 4`). `fpu` is the machine's FPU configuration, which
/// is fixed for the machine's lifetime.
pub(crate) fn build_table(code: &[(Instr, Category)], base: u32, fpu: bool) -> Vec<DecodedOp> {
    code.iter()
        .enumerate()
        .map(|(i, &(instr, _))| op_for(instr, base.wrapping_add((i as u32) * 4), fpu))
        .collect()
}

// ---------------------------------------------------------------------------
// Superblock traces
// ---------------------------------------------------------------------------

/// How a trace run ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceHalt {
    /// Every op retired; the machine commits the whole trace and
    /// continues sequentially at [`Trace::end_pc`].
    Completed,
    /// A guard side-exited after `retired` ops (the guard's branch
    /// itself retired); the guard already wrote the architectural
    /// `pc`/`npc`.
    Exited { retired: usize },
    /// Op `at` faulted without retiring; the machine restores
    /// [`Trace::meta`]`(at)` and settles the error.
    Trapped { at: usize, err: ExecError },
}

impl TraceHalt {
    /// Ops of a `len`-op trace that retired before this halt.
    pub fn retired(&self, len: usize) -> usize {
        match *self {
            TraceHalt::Completed => len,
            TraceHalt::Exited { retired } => retired,
            TraceHalt::Trapped { at, .. } => at,
        }
    }
}

/// A superblock: a straight-line op sequence spanning one or more
/// basic blocks chained across predicted branches. Bookkeeping
/// parallels the block cache — per-op architectural state for trap
/// restoration and category prefix sums for one-commit accounting.
#[derive(Debug)]
pub(crate) struct Trace {
    ops: Vec<DecodedOp>,
    /// `meta[k]` = the `(pc, npc)` the stepping path would hold when
    /// about to execute op `k`; restored when op `k` traps.
    meta: Vec<(u32, u32)>,
    /// `prefix[k]` = category counts of `ops[0..k]`.
    prefix: Vec<CategoryCounts>,
    /// Sequential continuation pc after the trace completes.
    end_pc: u32,
}

impl Trace {
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn end_pc(&self) -> u32 {
        self.end_pc
    }

    pub fn meta(&self, k: usize) -> (u32, u32) {
        self.meta[k]
    }

    /// Category counts of the first `k` ops.
    pub fn counts_upto(&self, k: usize) -> CategoryCounts {
        self.prefix[k]
    }

    /// Executes the trace, reporting each retired op to `obs`; a
    /// ledger gets the retired ops' counts from the trace's prefix
    /// sums. The caller commits instret/counts/pc/npc from the
    /// returned halt; this loop touches only cpu/bus state and the
    /// observer.
    ///
    /// Deliberately not inlined, once per observer type: the loop body
    /// carries the whole inline-dispatch match, and folding that into
    /// the machine's (large) run loop measurably degrades its register
    /// allocation.
    #[inline(never)]
    pub fn run<O: Observer>(
        &self,
        cpu: &mut Cpu,
        bus: &mut Bus,
        obs: &mut Observed<'_, O>,
    ) -> TraceHalt {
        let mut res = Residue::default();
        for (k, op) in self.ops.iter().enumerate() {
            match exec_top(op, cpu, bus, obs, &mut res) {
                Ok(Flow::Next) => {}
                Ok(Flow::Exit) => {
                    return self.halt(obs, &res, TraceHalt::Exited { retired: k + 1 });
                }
                Err(err) => return self.halt(obs, &res, TraceHalt::Trapped { at: k, err }),
            }
        }
        self.halt(obs, &res, TraceHalt::Completed)
    }

    /// Commits a ledger's batch for the ops retired before `halt`.
    #[inline(always)]
    fn halt<O: Observer>(
        &self,
        obs: &mut Observed<'_, O>,
        res: &Residue,
        halt: TraceHalt,
    ) -> TraceHalt {
        obs.commit(|| self.prefix[halt.retired(self.len())], res);
        halt
    }
}

/// Build outcome for a trace head.
#[derive(Debug)]
pub(crate) enum TraceSlot {
    /// Not yet attempted.
    Untried,
    /// Attempted, but no chaining opportunity was found (single block);
    /// the straight-line [`run_tops`] path is already optimal there.
    Absent,
    /// A formed superblock.
    Present(Box<Trace>),
}

/// Per-image trace table: lazily built superblocks keyed by block
/// leader index. Only leaders ([`leaders`]) become trace heads — which
/// is what makes the `t<cond>` fall-through leader fix load-bearing:
/// a missed leader is a never-traced block.
#[derive(Debug)]
pub(crate) struct TraceCache {
    slots: Vec<TraceSlot>,
    head: Vec<bool>,
}

impl TraceCache {
    pub fn new(code: &[(Instr, Category)], base: u32) -> Self {
        let mut head = vec![false; code.len()];
        for i in leaders(code, base) {
            head[i] = true;
        }
        let slots = (0..code.len()).map(|_| TraceSlot::Untried).collect();
        TraceCache { slots, head }
    }

    #[inline]
    pub fn is_head(&self, i: usize) -> bool {
        self.head[i]
    }

    #[inline]
    pub fn slot(&self, i: usize) -> &TraceSlot {
        &self.slots[i]
    }

    #[inline]
    pub fn is_untried(&self, i: usize) -> bool {
        matches!(self.slots[i], TraceSlot::Untried)
    }

    pub fn set(&mut self, i: usize, slot: TraceSlot) {
        self.slots[i] = slot;
    }
}

/// Forms a superblock starting at block leader `start`.
///
/// The trace inlines straight-line runs from the block cache and
/// chains across control transfers while the transfer is statically
/// predictable:
///
/// - `ba`/`fba` (annulled or not) and `call` chain unconditionally;
/// - conditional branches follow BTFN (backward target predicted
///   taken, forward predicted not taken), enforced by a guard op that
///   side-exits with exact architectural state when the prediction
///   fails;
/// - `jmpl` (dynamic target) and `t<cond>` (software trap) end the
///   trace.
///
/// A taken chain requires the delay slot to be a linear in-image
/// instruction and the target to be in-image; an annulled delay slot
/// is simply not emitted (it never retires, exactly like stepping).
/// Formation stops at loop closure (re-visiting a block already in the
/// trace — this is what turns one FSE inner-loop iteration into one
/// trace) or at [`MAX_TRACE_OPS`].
pub(crate) fn build_trace(
    code: &[(Instr, Category)],
    base: u32,
    blocks: &BlockCache,
    table: &[DecodedOp],
    fpu: bool,
    start: usize,
) -> TraceSlot {
    let n = code.len();
    let pc_of = |i: usize| base.wrapping_add((i as u32) * 4);
    let mut ops: Vec<DecodedOp> = Vec::new();
    let mut meta: Vec<(u32, u32)> = Vec::new();
    let mut cats: Vec<Category> = Vec::new();
    let mut chained = 0usize;
    let mut visited: HashSet<usize> = HashSet::new();
    visited.insert(start);
    let mut cur = start;
    let end_pc;
    'build: loop {
        let run_end = blocks.run_end(cur);
        for i in cur..run_end {
            if ops.len() >= MAX_TRACE_OPS {
                end_pc = pc_of(i);
                break 'build;
            }
            ops.push(table[i]);
            meta.push((pc_of(i), pc_of(i).wrapping_add(4)));
            cats.push(code[i].1);
        }
        if run_end >= n {
            // Ran off the image end; continuation is sequential.
            end_pc = pc_of(run_end);
            break;
        }
        let e = run_end;
        let epc = pc_of(e);
        if ops.len() + 2 > MAX_TRACE_OPS {
            end_pc = epc;
            break;
        }
        // A taken chain inlines the delay slot, which must exist and
        // be linear (a CTI in a delay slot is left to the step path).
        let delay_ok = e + 1 < n && !code[e + 1].0.ends_block();
        // A transfer's target, with its code index when in-image.
        let dest = |disp: i32| {
            let target = epc.wrapping_add((disp as u32).wrapping_mul(4));
            let t = target.wrapping_sub(base) as usize / 4;
            let t_ok = target.is_multiple_of(4) && target >= base && t < n;
            (target, t_ok.then_some(t))
        };
        let link = match code[e].0 {
            Instr::Branch {
                cond,
                annul,
                disp22,
            } => {
                let b = CondBranch {
                    mask: icc_mask(cond),
                    always: cond == ICond::A,
                    never: cond == ICond::N,
                    annul,
                    guards: (
                        OpKind::GuardTaken,
                        OpKind::GuardTakenAnnul,
                        OpKind::GuardUntaken,
                    ),
                };
                chain_branch(b, e, epc, dest(disp22), delay_ok)
            }
            Instr::FBranch {
                cond,
                annul,
                disp22,
            } if fpu => {
                let b = CondBranch {
                    mask: fcc_mask(cond),
                    always: cond == FCond::A,
                    never: cond == FCond::N,
                    annul,
                    guards: (
                        OpKind::GuardFTaken,
                        OpKind::GuardFTakenAnnul,
                        OpKind::GuardFUntaken,
                    ),
                };
                chain_branch(b, e, epc, dest(disp22), delay_ok)
            }
            Instr::Call { disp30 } => {
                let (target, t) = dest(disp30);
                t.filter(|_| delay_ok).map(|next| Link {
                    op: DecodedOp {
                        kind: OpKind::CallLink,
                        ..DecodedOp::at(epc)
                    },
                    delay_npc: Some(target),
                    next,
                })
            }
            // Dynamic targets (`jmpl`), software traps (`t<cond>`),
            // and FPU branches on a no-FPU machine (which trap): the
            // trace ends at the block boundary.
            _ => None,
        };
        let Some(link) = link else {
            end_pc = epc;
            break;
        };
        ops.push(link.op);
        meta.push((epc, epc.wrapping_add(4)));
        cats.push(code[e].1);
        if let Some(npc) = link.delay_npc {
            ops.push(table[e + 1]);
            meta.push((pc_of(e + 1), npc));
            cats.push(code[e + 1].1);
        }
        chained += 1;
        let next = link.next;
        if next >= n || visited.contains(&next) {
            // Off-image continuation or loop closure: the trace ends
            // in a sequential state at the next block's entry.
            end_pc = pc_of(next);
            break;
        }
        visited.insert(next);
        cur = next;
    }
    if chained == 0 {
        return TraceSlot::Absent;
    }
    let mut prefix = Vec::with_capacity(ops.len() + 1);
    let mut acc = CategoryCounts::new();
    prefix.push(acc);
    for &c in &cats {
        acc.bump(c);
        prefix.push(acc);
    }
    TraceSlot::Present(Box::new(Trace {
        ops,
        meta,
        prefix,
        end_pc,
    }))
}

/// A conditional branch of either family, `b<cond>` (icc) or
/// `fb<cond>` (fcc), as the trace builder chains it.
struct CondBranch {
    /// Truth table of the condition ([`icc_mask`] or [`fcc_mask`]).
    mask: u16,
    /// `ba`/`fba`: taken whatever the condition codes hold.
    always: bool,
    /// `bn`/`fbn`: never taken.
    never: bool,
    annul: bool,
    /// The family's guard kinds: predicted taken, predicted taken and
    /// annulling, predicted untaken.
    guards: (OpKind, OpKind, OpKind),
}

/// How a trace continues across a control transfer it chains: the op
/// that retires the transfer, the `npc` its delay slot retires with
/// (`None` when the slot is annulled and never retires), and the code
/// index the trace continues at.
struct Link {
    op: DecodedOp,
    delay_npc: Option<u32>,
    next: usize,
}

/// Chains the conditional branch at code index `e` (address `epc`) to
/// `target` (with its code index when in-image), or returns `None` when
/// the trace must end at the branch. `delay_ok` says whether its delay
/// slot can be inlined.
fn chain_branch(
    b: CondBranch,
    e: usize,
    epc: u32,
    (target, t): (u32, Option<usize>),
    delay_ok: bool,
) -> Option<Link> {
    let (taken, taken_annul, untaken) = b.guards;
    let guard = |kind| DecodedOp {
        kind,
        mask: b.mask,
        ..DecodedOp::at(epc)
    };
    if b.always {
        let next = t.filter(|_| b.annul || delay_ok)?;
        Some(Link {
            op: DecodedOp {
                kind: OpKind::Retire,
                ..DecodedOp::at(epc)
            },
            // `ba` executes its delay slot; `ba,a` annuls it (never
            // retires, so never emitted).
            delay_npc: (!b.annul).then_some(target),
            next,
        })
    } else if !b.never && target <= epc {
        // Backward conditional: predict taken (BTFN).
        let next = t.filter(|_| delay_ok)?;
        Some(Link {
            op: guard(if b.annul { taken_annul } else { taken }),
            delay_npc: Some(target),
            next,
        })
    } else {
        // Forward (or never-taken) conditional: predict not taken. The
        // guard's taken-exit only writes pc/npc, so an out-of-image
        // target is fine.
        if !b.annul && !delay_ok {
            return None;
        }
        Some(Link {
            op: DecodedOp {
                imm: target,
                ..guard(untaken)
            },
            // An untaken non-annulling branch still executes its delay
            // slot.
            delay_npc: (!b.annul).then_some(epc.wrapping_add(8)),
            next: e + 2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::{decode, AluOp};

    fn predecode(words: &[u32]) -> Vec<(Instr, Category)> {
        words
            .iter()
            .map(|&w| {
                let i = decode(w);
                (i, i.category())
            })
            .collect()
    }

    #[test]
    fn icc_masks_match_cond_eval() {
        for bits in 0..16u8 {
            let cond = ICond::from_bits(bits);
            let mask = icc_mask(cond);
            for i in 0..16u16 {
                let want = cond.eval(i & 8 != 0, i & 4 != 0, i & 2 != 0, i & 1 != 0);
                assert_eq!((mask >> i) & 1 != 0, want, "{cond:?} state {i}");
            }
        }
        assert_eq!(icc_mask(ICond::A), 0xffff);
        assert_eq!(icc_mask(ICond::N), 0);
    }

    #[test]
    fn fcc_masks_match_cond_eval() {
        let fccs = [
            FccValue::Equal,
            FccValue::Less,
            FccValue::Greater,
            FccValue::Unordered,
        ];
        for bits in 0..16u8 {
            let cond = FCond::from_bits(bits);
            let mask = fcc_mask(cond);
            for (i, &fcc) in fccs.iter().enumerate() {
                assert_eq!((mask >> i) & 1 != 0, cond.eval(fcc), "{cond:?} {fcc:?}");
            }
        }
    }

    #[test]
    fn backward_loop_forms_a_single_trace_per_iteration() {
        // mov 10, %l0; loop: subcc; bne loop; nop (delay); mov; ta 0
        let mut a = Assembler::new(0x4000_0000);
        a.mov(10, nfp_sparc::Reg::l(0));
        a.label("loop");
        a.alu(AluOp::SubCc, nfp_sparc::Reg::l(0), 1, nfp_sparc::Reg::l(0));
        a.b(ICond::Ne, "loop");
        a.nop();
        a.mov(0, nfp_sparc::Reg::o(0));
        a.ta(0);
        let code = predecode(&a.finish().unwrap());
        let blocks = BlockCache::build(&code);
        let table = build_table(&code, 0x4000_0000, true);
        // Head at the loop body (index 1, the backward target).
        let slot = build_trace(&code, 0x4000_0000, &blocks, &table, true, 1);
        let TraceSlot::Present(trace) = slot else {
            panic!("backward loop must form a trace, got {slot:?}");
        };
        // subcc, guard(bne), delay nop — one full loop iteration.
        assert_eq!(trace.len(), 3);
        // Loop closure: continuation is the loop head itself.
        assert_eq!(trace.end_pc(), 0x4000_0004);
        // Guard meta points at the branch with sequential npc.
        assert_eq!(trace.meta(1), (0x4000_0008, 0x4000_000c));
        // Delay-slot meta carries the taken-branch npc (the target).
        assert_eq!(trace.meta(2), (0x4000_000c, 0x4000_0004));
    }

    #[test]
    fn straight_line_block_yields_no_trace() {
        let mut a = Assembler::new(0x4000_0000);
        a.mov(1, nfp_sparc::Reg::o(0));
        a.ta(0);
        let code = predecode(&a.finish().unwrap());
        let blocks = BlockCache::build(&code);
        let table = build_table(&code, 0x4000_0000, true);
        let slot = build_trace(&code, 0x4000_0000, &blocks, &table, true, 0);
        assert!(matches!(slot, TraceSlot::Absent), "got {slot:?}");
    }

    #[test]
    fn trace_formation_terminates_on_self_loop_and_caps() {
        // ba,a . — an annulled self-loop: one retire op, closed at once.
        let mut a = Assembler::new(0x4000_0000);
        a.label("spin");
        a.b_a(ICond::A, "spin");
        let code = predecode(&a.finish().unwrap());
        let blocks = BlockCache::build(&code);
        let table = build_table(&code, 0x4000_0000, true);
        let slot = build_trace(&code, 0x4000_0000, &blocks, &table, true, 0);
        let TraceSlot::Present(trace) = slot else {
            panic!("self-loop must form a trace");
        };
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.end_pc(), 0x4000_0000);
        assert!(trace.len() <= MAX_TRACE_OPS);
    }
}
