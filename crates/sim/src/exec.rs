//! Architectural execution semantics — the "morph functions" of the
//! paper's Fig. 2/3, grouped exactly as the instruction enum groups
//! them (one match arm per instruction group).
//!
//! [`step`] executes one predecoded instruction, updating CPU and bus
//! state and advancing the `pc`/`npc` pair (SPARC's delay-slot
//! architecture). An [`Observer`] receives an [`ExecInfo`] record per
//! retired instruction, while the plain ISS runs with the zero-cost
//! [`NullObserver`]. `step` builds every record there is; traced
//! dispatch runs only a ledger observer, such as the detailed hardware
//! model in `nfp-testbed`, and hands it, inside its superblock
//! interpreter (`threaded.rs`), batch sums and per-event hooks that add
//! up to the same counts (see [`Observer`]).

use crate::bus::{Bus, BusFault};
use crate::cpu::Cpu;
use nfp_sparc::cond::{FccValue, ICond};
use nfp_sparc::{AluOp, Category, CategoryCounts, FpOp, Instr, MemSize, Operand};

/// Execution-time fault. On real hardware these vector into trap
/// handlers; the bare-metal simulator surfaces them as errors, except
/// for software traps (`ta`) which the machine layer interprets.
#[allow(missing_docs)] // fields: faulting pc plus fault specifics
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Illegal or unimplemented instruction word.
    Illegal { pc: u32, word: u32 },
    /// Misaligned memory access.
    Misaligned { pc: u32, addr: u32, size: u32 },
    /// Access to an unmapped address.
    Unmapped { pc: u32, addr: u32 },
    /// Integer division by zero.
    DivZero { pc: u32 },
    /// More nested `save`s than register windows.
    WindowOverflow { pc: u32 },
    /// `restore` without a matching `save`.
    WindowUnderflow { pc: u32 },
    /// FPU instruction executed while the FPU is disabled (the
    /// "processor without FPU" configuration of Table IV).
    FpDisabled { pc: u32 },
    /// Double-precision operand names an odd FP register.
    OddFpPair { pc: u32 },
    /// Integer doubleword load/store (`ldd`/`std`) names an odd `rd`;
    /// the register pair must start on an even register (SPARC V8
    /// §B.11). Mirrors [`Trap::OddFpPair`] for the integer file.
    OddIntPair { pc: u32 },
}

impl Trap {
    /// The pc of the faulting instruction.
    pub fn pc(&self) -> u32 {
        match *self {
            Trap::Illegal { pc, .. }
            | Trap::Misaligned { pc, .. }
            | Trap::Unmapped { pc, .. }
            | Trap::DivZero { pc }
            | Trap::WindowOverflow { pc }
            | Trap::WindowUnderflow { pc }
            | Trap::FpDisabled { pc }
            | Trap::OddFpPair { pc }
            | Trap::OddIntPair { pc } => pc,
        }
    }

    /// Whether the bare-metal handler model can absorb this trap when
    /// the machine runs under
    /// [`TrapPolicy::Recover`](crate::machine::TrapPolicy::Recover):
    /// window overflow/underflow (spill/fill) and misaligned data
    /// accesses (skipped). Everything else aborts the run.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            Trap::WindowOverflow { .. } | Trap::WindowUnderflow { .. } | Trap::Misaligned { .. }
        )
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Trap::Illegal { pc, word } => {
                write!(f, "illegal instruction 0x{word:08x} at 0x{pc:08x}")
            }
            Trap::Misaligned { pc, addr, size } => {
                write!(
                    f,
                    "misaligned {size}-byte access to 0x{addr:08x} at 0x{pc:08x}"
                )
            }
            Trap::Unmapped { pc, addr } => {
                write!(f, "unmapped access to 0x{addr:08x} at 0x{pc:08x}")
            }
            Trap::DivZero { pc } => write!(f, "division by zero at 0x{pc:08x}"),
            Trap::WindowOverflow { pc } => write!(f, "register window overflow at 0x{pc:08x}"),
            Trap::WindowUnderflow { pc } => write!(f, "register window underflow at 0x{pc:08x}"),
            Trap::FpDisabled { pc } => write!(f, "FPU instruction with FPU disabled at 0x{pc:08x}"),
            Trap::OddFpPair { pc } => write!(f, "odd FP register pair at 0x{pc:08x}"),
            Trap::OddIntPair { pc } => write!(f, "odd integer register pair at 0x{pc:08x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Per-instruction execution record handed to an [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecInfo {
    /// Address of the executed instruction.
    pub pc: u32,
    /// The executed instruction (for models needing sub-category
    /// detail, e.g. multiply vs add latency).
    pub instr: Instr,
    /// Table I category.
    pub category: Category,
    /// Effective address of a memory access, if any.
    pub mem_addr: Option<u32>,
    /// Whether a control transfer was taken (branches only).
    pub branch_taken: Option<bool>,
    /// Raw bits of the second source operand of an FPU divide or
    /// square root (its magnitude drives iteration count on real FPUs);
    /// single-precision bits are widened to `u64`.
    pub fpu_rs2_bits: Option<u64>,
    /// Population count of the primary result value — a proxy for
    /// datapath toggling, used by the energy model: the computed ALU
    /// result (also when `rd` is `%g0`), the loaded or stored value
    /// (64 bits for doublewords), or the value of `sethi` and `rd %y`;
    /// 0 for FP arithmetic, `fcmp`, `save`, `restore`, `wr %y`,
    /// `flush` and control transfers.
    pub result_ones: u32,
}

impl ExecInfo {
    pub(crate) fn new(pc: u32, instr: Instr, category: Category) -> Self {
        ExecInfo {
            pc,
            instr,
            category,
            mem_addr: None,
            branch_taken: None,
            fpu_rs2_bits: None,
            result_ones: 0,
        }
    }
}

/// Receives every retired instruction, either as one [`ExecInfo`]
/// record each or, for a *ledger* observer, as sums.
///
/// The contract, which both dispatch modes keep: only retired
/// instructions are observed, in retirement order. An instruction
/// that traps is not observed (a window trap absorbed under
/// [`TrapPolicy::Recover`](crate::TrapPolicy::Recover) is observed
/// when its retry retires), nor is an annulled delay slot, nor a
/// misaligned access the recovery model skips (which still counts in
/// `instret`).
///
/// Records come only from stepping: a record observer always steps,
/// under either [`Dispatch`](crate::Dispatch). Only a ledger observer
/// ([`Observer::LEDGER`]), which needs only what a record's category
/// does not fix, runs traced. Instructions retired on the step path
/// still reach it as records through [`Observer::observe`].
/// Instructions retired inside a superblock trace or a straight-line
/// run reach it as two kinds of call:
///
/// * one [`Observer::retire_batch`] per trace or run, with the
///   category counts of the ops that retired (from the prefix sums
///   the machine keeps for its own counters) and their [`Residue`];
/// * per event, [`Observer::mem_access`] for every retired load or
///   store and [`Observer::fpu_operand`] for every retired FPU divide
///   or square root, in retirement order.
///
/// Each field of those calls is a sum or a field of the records
/// stepping builds for the same instructions, so a ledger that prices
/// both the same way gets the same integers under either dispatch.
pub trait Observer {
    /// Whether this observer is a ledger: it runs inside traces and
    /// takes their sums and hooks there, where any other observer
    /// steps. Fixed per type, so the traced interpreter carries the
    /// ledger's bookkeeping only where a ledger runs.
    const LEDGER: bool = false;

    /// Called after each stepped instruction's architectural effects
    /// complete: for every retired instruction unless the observer is a
    /// ledger running traced.
    fn observe(&mut self, info: &ExecInfo);

    /// Ledger hook: a load (`store == false`) or store at `addr`
    /// retired, in retirement order; the record's `mem_addr`.
    #[inline(always)]
    fn mem_access(&mut self, _addr: u32, _store: bool) {}

    /// Ledger hook: an FPU divide or square root (`category`) retired,
    /// with the operand bits its record's `fpu_rs2_bits` would hold.
    #[inline(always)]
    fn fpu_operand(&mut self, _category: Category, _bits: u64) {}

    /// Ledger hook: a batch of ops retired inside one trace or
    /// straight-line run, with their category counts and residue.
    #[inline(always)]
    fn retire_batch(&mut self, _counts: &CategoryCounts, _residue: &Residue) {}
}

/// What a ledger observer learns about a batch of retired ops beyond
/// their category counts: sums over their records that the traced
/// interpreter keeps in loop locals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residue {
    /// Σ `result_ones`.
    pub ones: u64,
    /// Jumps whose record says `branch_taken == Some(false)`.
    pub untaken: u64,
    /// Integer multiplies ([`AluOp::is_mul`]).
    pub int_mul: u64,
    /// Integer divides ([`AluOp::is_div`]).
    pub int_div: u64,
}

/// Observer that does nothing; the compiler removes all record
/// bookkeeping after inlining, giving the plain-ISS fast path.
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn observe(&mut self, _info: &ExecInfo) {}
}

/// Non-trap outcome of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOut {
    /// Normal completion.
    Normal,
    /// A software trap (`t<cond>` taken) with the given trap number.
    SoftTrap(u32),
}

/// Failure of a predecoded threaded-dispatch entry (run straight-line
/// or inside a trace): either a genuine architectural [`Trap`], or a
/// routing violation — a block-ending instruction reached a path that
/// only handles straight-line instructions, which means the
/// block-structure tables (block cache or dispatch table) are
/// inconsistent with the instruction stream. The machine layer
/// surfaces the latter as a typed `SimError` instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecError {
    /// An architectural trap raised by the instruction.
    Trap(Trap),
    /// A block-ending instruction (CTI or `t<cond>`) was routed to a
    /// linear execution path; `pc` is the offending instruction's
    /// address.
    NotLinear { pc: u32 },
}

impl From<Trap> for ExecError {
    fn from(t: Trap) -> Self {
        ExecError::Trap(t)
    }
}

#[inline]
pub(crate) fn fault_to_trap(pc: u32, fault: BusFault) -> Trap {
    match fault {
        BusFault::Unmapped { addr } => Trap::Unmapped { pc, addr },
        BusFault::Misaligned { addr, size } => Trap::Misaligned { pc, addr, size },
        // CPU-initiated accesses never raise it (it is an image-load
        // fault), but map it defensively rather than panicking.
        BusFault::ImageOverlap { addr, .. } => Trap::Unmapped { pc, addr },
    }
}

#[inline]
pub(crate) fn operand_value(cpu: &Cpu, op2: Operand) -> u32 {
    match op2 {
        Operand::Reg(r) => cpu.get(r),
        Operand::Imm(v) => v as u32,
    }
}

/// Executes one instruction, advancing `pc`/`npc`.
///
/// `fpu_enabled` models the presence of the hardware FPU: when false,
/// every FPU instruction raises [`Trap::FpDisabled`] (software-float
/// binaries never contain them).
#[inline]
pub fn step<O: Observer>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    instr: &Instr,
    fpu_enabled: bool,
    obs: &mut O,
) -> Result<StepOut, Trap> {
    let pc = cpu.pc;
    let npc = cpu.npc;
    // Default sequential flow; control transfers override next_npc
    // (executing the delay slot at npc first) or both on annulment.
    let mut next_pc = npc;
    let mut next_npc = npc.wrapping_add(4);
    let mut info = ExecInfo::new(pc, *instr, instr.category());
    let mut out = StepOut::Normal;

    match *instr {
        Instr::Branch {
            cond,
            annul,
            disp22,
        } => {
            let taken = cond.eval(cpu.icc.n, cpu.icc.z, cpu.icc.v, cpu.icc.c);
            let target = pc.wrapping_add((disp22 as u32).wrapping_mul(4));
            apply_branch(
                taken,
                annul,
                cond == ICond::A,
                target,
                npc,
                &mut next_pc,
                &mut next_npc,
            );
            info.branch_taken = Some(taken);
        }
        Instr::FBranch {
            cond,
            annul,
            disp22,
        } => {
            if !fpu_enabled {
                return Err(Trap::FpDisabled { pc });
            }
            let taken = cond.eval(cpu.fcc);
            let target = pc.wrapping_add((disp22 as u32).wrapping_mul(4));
            apply_branch(
                taken,
                annul,
                cond == nfp_sparc::FCond::A,
                target,
                npc,
                &mut next_pc,
                &mut next_npc,
            );
            info.branch_taken = Some(taken);
        }
        Instr::Call { disp30 } => {
            cpu.set(nfp_sparc::regs::O7, pc);
            next_npc = pc.wrapping_add((disp30 as u32).wrapping_mul(4));
            info.branch_taken = Some(true);
        }
        Instr::Jmpl { rd, rs1, op2 } => {
            let target = cpu.get(rs1).wrapping_add(operand_value(cpu, op2));
            if !target.is_multiple_of(4) {
                return Err(Trap::Misaligned {
                    pc,
                    addr: target,
                    size: 4,
                });
            }
            cpu.set(rd, pc);
            next_npc = target;
            info.branch_taken = Some(true);
        }
        Instr::Ticc { cond, rs1, op2 } => {
            if cond.eval(cpu.icc.n, cpu.icc.z, cpu.icc.v, cpu.icc.c) {
                let n = cpu.get(rs1).wrapping_add(operand_value(cpu, op2)) & 0x7f;
                out = StepOut::SoftTrap(n);
            }
        }
        _ => exec_linear(cpu, bus, instr, fpu_enabled, pc, &mut info)?,
    }

    cpu.pc = next_pc;
    cpu.npc = next_npc;
    obs.observe(&info);
    Ok(out)
}

/// Executes one *linear* instruction — anything that is neither a CTI
/// nor `t<cond>` (see [`Instr::ends_block`]), so control flow past it
/// is always sequential — and fills `info` for the observer. `pc` is
/// the instruction's own address, used only for trap payloads;
/// `cpu.pc`/`cpu.npc` are neither read nor written here, [`step`]
/// commits them.
///
/// On a trap, no architectural state has been committed beyond what the
/// faulting instruction legitimately wrote before faulting (nothing:
/// every arm validates before writing), so the caller can re-present
/// the same instruction after recovery.
#[inline]
fn exec_linear(
    cpu: &mut Cpu,
    bus: &mut Bus,
    instr: &Instr,
    fpu_enabled: bool,
    pc: u32,
    info: &mut ExecInfo,
) -> Result<(), Trap> {
    match *instr {
        Instr::Sethi { rd, imm22 } => {
            let v = imm22 << 10;
            cpu.set(rd, v);
            info.result_ones = v.count_ones();
        }
        Instr::Alu { op, rd, rs1, op2 } => {
            let a = cpu.get(rs1);
            let b = operand_value(cpu, op2);
            let r = exec_alu(cpu, op, a, b, pc)?;
            cpu.set(rd, r);
            info.result_ones = r.count_ones();
        }
        Instr::RdY { rd } => {
            let y = cpu.y;
            cpu.set(rd, y);
            info.result_ones = y.count_ones();
        }
        Instr::WrY { rs1, op2 } => {
            cpu.y = cpu.get(rs1) ^ operand_value(cpu, op2);
        }
        Instr::Save { rd, rs1, op2 } => {
            // Source operands are read in the OLD window, the result is
            // written in the NEW window.
            let a = cpu.get(rs1);
            let b = operand_value(cpu, op2);
            if !cpu.window_save() {
                return Err(Trap::WindowOverflow { pc });
            }
            cpu.set(rd, a.wrapping_add(b));
        }
        Instr::Restore { rd, rs1, op2 } => {
            let a = cpu.get(rs1);
            let b = operand_value(cpu, op2);
            if !cpu.window_restore() {
                return Err(Trap::WindowUnderflow { pc });
            }
            cpu.set(rd, a.wrapping_add(b));
        }
        Instr::Flush { .. } => {
            // No instruction cache on this core; architectural no-op.
        }
        Instr::Load {
            size,
            signed,
            rd,
            rs1,
            op2,
        } => {
            let addr = cpu.get(rs1).wrapping_add(operand_value(cpu, op2));
            info.mem_addr = Some(addr);
            let map = |e| fault_to_trap(pc, e);
            // Every arm writes its own destination so the doubleword
            // pair needs no early exit past the shared commit.
            match size {
                MemSize::Byte => {
                    let v = bus.load8(addr).map_err(map)? as u32;
                    let v = if signed {
                        v as u8 as i8 as i32 as u32
                    } else {
                        v
                    };
                    cpu.set(rd, v);
                    info.result_ones = v.count_ones();
                }
                MemSize::Half => {
                    let v = bus.load16(addr).map_err(map)? as u32;
                    let v = if signed {
                        v as u16 as i16 as i32 as u32
                    } else {
                        v
                    };
                    cpu.set(rd, v);
                    info.result_ones = v.count_ones();
                }
                MemSize::Word => {
                    let v = bus.load32(addr).map_err(map)?;
                    cpu.set(rd, v);
                    info.result_ones = v.count_ones();
                }
                MemSize::Double => {
                    if rd.num() % 2 != 0 {
                        return Err(Trap::OddIntPair { pc });
                    }
                    let v = bus.load64(addr).map_err(map)?;
                    cpu.set(rd, (v >> 32) as u32);
                    cpu.set(nfp_sparc::Reg::new(rd.num() + 1), v as u32);
                    info.result_ones = v.count_ones();
                }
            }
        }
        Instr::Store { size, rd, rs1, op2 } => {
            let addr = cpu.get(rs1).wrapping_add(operand_value(cpu, op2));
            info.mem_addr = Some(addr);
            let map = |e| fault_to_trap(pc, e);
            let v = cpu.get(rd);
            match size {
                MemSize::Byte => {
                    bus.store8(addr, v as u8).map_err(map)?;
                    info.result_ones = v.count_ones();
                }
                MemSize::Half => {
                    bus.store16(addr, v as u16).map_err(map)?;
                    info.result_ones = v.count_ones();
                }
                MemSize::Word => {
                    bus.store32(addr, v).map_err(map)?;
                    info.result_ones = v.count_ones();
                }
                MemSize::Double => {
                    if rd.num() % 2 != 0 {
                        return Err(Trap::OddIntPair { pc });
                    }
                    let lo = cpu.get(nfp_sparc::Reg::new(rd.num() + 1));
                    let dv = ((v as u64) << 32) | lo as u64;
                    bus.store64(addr, dv).map_err(map)?;
                    info.result_ones = dv.count_ones();
                }
            }
        }
        Instr::LoadF {
            double,
            rd,
            rs1,
            op2,
        } => {
            if !fpu_enabled {
                return Err(Trap::FpDisabled { pc });
            }
            let addr = cpu.get(rs1).wrapping_add(operand_value(cpu, op2));
            info.mem_addr = Some(addr);
            let map = |e| fault_to_trap(pc, e);
            if double {
                if !rd.is_even() {
                    return Err(Trap::OddFpPair { pc });
                }
                let v = bus.load64(addr).map_err(map)?;
                cpu.fset(rd, (v >> 32) as u32);
                cpu.fset(nfp_sparc::FReg::new(rd.num() + 1), v as u32);
                info.result_ones = v.count_ones();
            } else {
                let v = bus.load32(addr).map_err(map)?;
                cpu.fset(rd, v);
                info.result_ones = v.count_ones();
            }
        }
        Instr::StoreF {
            double,
            rd,
            rs1,
            op2,
        } => {
            if !fpu_enabled {
                return Err(Trap::FpDisabled { pc });
            }
            let addr = cpu.get(rs1).wrapping_add(operand_value(cpu, op2));
            info.mem_addr = Some(addr);
            let map = |e| fault_to_trap(pc, e);
            if double {
                if !rd.is_even() {
                    return Err(Trap::OddFpPair { pc });
                }
                let hi = cpu.fget(rd) as u64;
                let lo = cpu.fget(nfp_sparc::FReg::new(rd.num() + 1)) as u64;
                let v = (hi << 32) | lo;
                bus.store64(addr, v).map_err(map)?;
                info.result_ones = v.count_ones();
            } else {
                let v = cpu.fget(rd);
                bus.store32(addr, v).map_err(map)?;
                info.result_ones = v.count_ones();
            }
        }
        Instr::FpOp { op, rd, rs1, rs2 } => {
            if !fpu_enabled {
                return Err(Trap::FpDisabled { pc });
            }
            exec_fpop(cpu, op, rd, rs1, rs2, pc, info)?;
        }
        Instr::FCmp {
            double, rs1, rs2, ..
        } => {
            if !fpu_enabled {
                return Err(Trap::FpDisabled { pc });
            }
            let rel = if double {
                if !rs1.is_even() || !rs2.is_even() {
                    return Err(Trap::OddFpPair { pc });
                }
                compare(cpu.fget_d(rs1), cpu.fget_d(rs2))
            } else {
                compare(cpu.fget_s(rs1) as f64, cpu.fget_s(rs2) as f64)
            };
            cpu.fcc = rel;
        }
        Instr::Unimp { const22 } => {
            return Err(Trap::Illegal { pc, word: const22 });
        }
        Instr::Illegal { word } => {
            return Err(Trap::Illegal { pc, word });
        }
        // `step` executes CTIs and `t<cond>` itself and never passes
        // them here; should one arrive, it traps as illegal rather than
        // panicking (mirrors the `BusFault::ImageOverlap` mapping
        // above).
        Instr::Branch { .. }
        | Instr::FBranch { .. }
        | Instr::Call { .. }
        | Instr::Jmpl { .. }
        | Instr::Ticc { .. } => {
            return Err(Trap::Illegal {
                pc,
                word: nfp_sparc::encode(*instr),
            });
        }
    }
    Ok(())
}

/// Branch/annul resolution per SPARC V8 §B.21: a taken conditional
/// branch executes its delay slot; an untaken branch with `a = 1`
/// annuls it; `ba,a` annuls it even though taken.
#[inline]
fn apply_branch(
    taken: bool,
    annul: bool,
    always: bool,
    target: u32,
    npc: u32,
    next_pc: &mut u32,
    next_npc: &mut u32,
) {
    if taken {
        if annul && always {
            *next_pc = target;
            *next_npc = target.wrapping_add(4);
        } else {
            *next_npc = target;
        }
    } else if annul {
        *next_pc = npc.wrapping_add(4);
        *next_npc = npc.wrapping_add(8);
    }
}

#[inline]
pub(crate) fn exec_alu(cpu: &mut Cpu, op: AluOp, a: u32, b: u32, pc: u32) -> Result<u32, Trap> {
    use AluOp::*;
    let carry_in = cpu.icc.c as u32;
    let (result, set_cc, v, c) = match op {
        Add | AddCc => {
            let (r, c1) = a.overflowing_add(b);
            let v = ((a ^ r) & (b ^ r)) >> 31 != 0;
            (r, op == AddCc, v, c1)
        }
        AddX | AddXCc => {
            let r64 = a as u64 + b as u64 + carry_in as u64;
            let r = r64 as u32;
            let v = ((a ^ r) & (b ^ r)) >> 31 != 0;
            (r, op == AddXCc, v, r64 >> 32 != 0)
        }
        Sub | SubCc => {
            let r = a.wrapping_sub(b);
            let v = ((a ^ b) & (a ^ r)) >> 31 != 0;
            (r, op == SubCc, v, (a as u64) < (b as u64))
        }
        SubX | SubXCc => {
            let r = a.wrapping_sub(b).wrapping_sub(carry_in);
            let v = ((a ^ b) & (a ^ r)) >> 31 != 0;
            (r, op == SubXCc, v, (a as u64) < b as u64 + carry_in as u64)
        }
        And | AndCc => (a & b, op == AndCc, false, false),
        AndN | AndNCc => (a & !b, op == AndNCc, false, false),
        Or | OrCc => (a | b, op == OrCc, false, false),
        OrN | OrNCc => (a | !b, op == OrNCc, false, false),
        Xor | XorCc => (a ^ b, op == XorCc, false, false),
        XNor | XNorCc => (a ^ !b, op == XNorCc, false, false),
        Sll => (a.wrapping_shl(b & 31), false, false, false),
        Srl => (a.wrapping_shr(b & 31), false, false, false),
        Sra => (
            ((a as i32).wrapping_shr(b & 31)) as u32,
            false,
            false,
            false,
        ),
        UMul | UMulCc => {
            let r64 = a as u64 * b as u64;
            cpu.y = (r64 >> 32) as u32;
            (r64 as u32, op == UMulCc, false, false)
        }
        SMul | SMulCc => {
            let r64 = (a as i32 as i64) * (b as i32 as i64);
            cpu.y = ((r64 as u64) >> 32) as u32;
            (r64 as u32, op == SMulCc, false, false)
        }
        UDiv | UDivCc => {
            if b == 0 {
                return Err(Trap::DivZero { pc });
            }
            let dividend = ((cpu.y as u64) << 32) | a as u64;
            let q = dividend / b as u64;
            let (r, v) = if q > u32::MAX as u64 {
                (u32::MAX, true)
            } else {
                (q as u32, false)
            };
            (r, op == UDivCc, v, false)
        }
        SDiv | SDivCc => {
            if b == 0 {
                return Err(Trap::DivZero { pc });
            }
            let dividend = (((cpu.y as u64) << 32) | a as u64) as i64;
            let divisor = b as i32 as i64;
            // i64::MIN / -1 cannot occur: |dividend| <= 2^63 - 1 only
            // fails for exactly i64::MIN, which still traps on real
            // hardware as overflow; clamp like the hardware does.
            let q = dividend.wrapping_div(divisor);
            let (r, v) = if q > i32::MAX as i64 {
                (i32::MAX as u32, true)
            } else if q < i32::MIN as i64 {
                (i32::MIN as u32, true)
            } else {
                (q as u32, false)
            };
            (r, op == SDivCc, v, false)
        }
    };
    if set_cc {
        cpu.icc.n = result >> 31 != 0;
        cpu.icc.z = result == 0;
        cpu.icc.v = v;
        cpu.icc.c = c;
    }
    Ok(result)
}

#[inline]
pub(crate) fn compare(a: f64, b: f64) -> FccValue {
    if a.is_nan() || b.is_nan() {
        FccValue::Unordered
    } else if a == b {
        FccValue::Equal
    } else if a < b {
        FccValue::Less
    } else {
        FccValue::Greater
    }
}

/// Converts a double to i32 with round-toward-zero and saturation
/// (Rust `as` semantics, which match what the differential tests and
/// the soft-float library implement).
#[inline]
fn f64_to_i32(v: f64) -> i32 {
    v as i32
}

#[inline]
fn exec_fpop(
    cpu: &mut Cpu,
    op: FpOp,
    rd: nfp_sparc::FReg,
    rs1: nfp_sparc::FReg,
    rs2: nfp_sparc::FReg,
    pc: u32,
    info: &mut ExecInfo,
) -> Result<(), Trap> {
    use FpOp::*;
    let need_even = |r: nfp_sparc::FReg| -> Result<(), Trap> {
        if r.is_even() {
            Ok(())
        } else {
            Err(Trap::OddFpPair { pc })
        }
    };
    match op {
        FMovS => cpu.fset(rd, cpu.fget(rs2)),
        FNegS => cpu.fset(rd, cpu.fget(rs2) ^ 0x8000_0000),
        FAbsS => cpu.fset(rd, cpu.fget(rs2) & 0x7fff_ffff),
        FSqrtS => {
            let v = cpu.fget_s(rs2);
            info.fpu_rs2_bits = Some(v.to_bits() as u64);
            cpu.fset_s(rd, v.sqrt());
        }
        FSqrtD => {
            need_even(rs2)?;
            need_even(rd)?;
            let v = cpu.fget_d(rs2);
            info.fpu_rs2_bits = Some(v.to_bits());
            cpu.fset_d(rd, v.sqrt());
        }
        FAddS => cpu.fset_s(rd, cpu.fget_s(rs1) + cpu.fget_s(rs2)),
        FSubS => cpu.fset_s(rd, cpu.fget_s(rs1) - cpu.fget_s(rs2)),
        FMulS => cpu.fset_s(rd, cpu.fget_s(rs1) * cpu.fget_s(rs2)),
        FDivS => {
            let b = cpu.fget_s(rs2);
            info.fpu_rs2_bits = Some(b.to_bits() as u64);
            cpu.fset_s(rd, cpu.fget_s(rs1) / b);
        }
        FAddD => {
            need_even(rs1)?;
            need_even(rs2)?;
            need_even(rd)?;
            cpu.fset_d(rd, cpu.fget_d(rs1) + cpu.fget_d(rs2));
        }
        FSubD => {
            need_even(rs1)?;
            need_even(rs2)?;
            need_even(rd)?;
            cpu.fset_d(rd, cpu.fget_d(rs1) - cpu.fget_d(rs2));
        }
        FMulD => {
            need_even(rs1)?;
            need_even(rs2)?;
            need_even(rd)?;
            cpu.fset_d(rd, cpu.fget_d(rs1) * cpu.fget_d(rs2));
        }
        FDivD => {
            need_even(rs1)?;
            need_even(rs2)?;
            need_even(rd)?;
            let b = cpu.fget_d(rs2);
            info.fpu_rs2_bits = Some(b.to_bits());
            cpu.fset_d(rd, cpu.fget_d(rs1) / b);
        }
        FsMulD => {
            need_even(rd)?;
            cpu.fset_d(rd, cpu.fget_s(rs1) as f64 * cpu.fget_s(rs2) as f64);
        }
        FiToS => cpu.fset_s(rd, cpu.fget(rs2) as i32 as f32),
        FiToD => {
            need_even(rd)?;
            cpu.fset_d(rd, cpu.fget(rs2) as i32 as f64);
        }
        FsToI => {
            let v = cpu.fget_s(rs2);
            cpu.fset(rd, (v as i32) as u32);
        }
        FdToI => {
            need_even(rs2)?;
            cpu.fset(rd, f64_to_i32(cpu.fget_d(rs2)) as u32);
        }
        FsToD => {
            need_even(rd)?;
            cpu.fset_d(rd, cpu.fget_s(rs2) as f64);
        }
        FdToS => {
            need_even(rs2)?;
            cpu.fset_s(rd, cpu.fget_d(rs2) as f32);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::RAM_BASE;
    use nfp_sparc::Reg;

    fn setup() -> (Cpu, Bus) {
        let mut cpu = Cpu::new();
        cpu.pc = RAM_BASE;
        cpu.npc = RAM_BASE + 4;
        (cpu, Bus::with_ram(RAM_BASE, 1 << 16))
    }

    fn run1(cpu: &mut Cpu, bus: &mut Bus, i: Instr) -> Result<StepOut, Trap> {
        step(cpu, bus, &i, true, &mut NullObserver)
    }

    #[test]
    fn addcc_flags() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), 0x7fff_ffff);
        cpu.set(Reg::o(1), 1);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::AddCc,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Reg(Reg::o(1)),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)), 0x8000_0000);
        assert!(cpu.icc.n && cpu.icc.v && !cpu.icc.z && !cpu.icc.c);
    }

    #[test]
    fn subcc_borrow() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), 3);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::SubCc,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(5),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)) as i32, -2);
        assert!(cpu.icc.c, "borrow sets C");
        assert!(cpu.icc.n && !cpu.icc.v);
    }

    #[test]
    fn addx_chain_models_64bit_add() {
        // 0xFFFFFFFF + 1 with carry into the high word.
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), 0xffff_ffff);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::AddCc,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(1),
            },
        )
        .unwrap();
        assert!(cpu.icc.c);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::AddX,
                rd: Reg::o(3),
                rs1: Reg::g(0),
                op2: Operand::Imm(0),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(3)), 1);
    }

    #[test]
    fn umul_writes_y() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), 0x8000_0000);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::UMul,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(4),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)), 0);
        assert_eq!(cpu.y, 2);
    }

    #[test]
    fn smul_sign() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), (-3i32) as u32);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::SMul,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(7),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)) as i32, -21);
        assert_eq!(cpu.y, 0xffff_ffff);
    }

    #[test]
    fn udiv_uses_y_and_traps_on_zero() {
        let (mut cpu, mut bus) = setup();
        cpu.y = 1; // dividend = 2^32 + 6
        cpu.set(Reg::o(0), 6);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::UDiv,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(2),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)), 0x8000_0003);
        let r = run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::UDiv,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        );
        assert!(matches!(r, Err(Trap::DivZero { .. })));
    }

    #[test]
    fn sdiv_negative() {
        let (mut cpu, mut bus) = setup();
        cpu.y = 0xffff_ffff; // sign extension of negative dividend
        cpu.set(Reg::o(0), (-20i32) as u32);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::SDiv,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(3),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)) as i32, -6);
    }

    #[test]
    fn shifts_mask_count() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), 0x8000_0000);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::Sra,
                rd: Reg::o(1),
                rs1: Reg::o(0),
                op2: Operand::Imm(31),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(1)), 0xffff_ffff);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Alu {
                op: AluOp::Srl,
                rd: Reg::o(1),
                rs1: Reg::o(0),
                op2: Operand::Imm(31),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(1)), 1);
    }

    #[test]
    fn taken_branch_keeps_delay_slot() {
        let (mut cpu, mut bus) = setup();
        cpu.icc.z = true;
        run1(
            &mut cpu,
            &mut bus,
            Instr::Branch {
                cond: ICond::E,
                annul: false,
                disp22: 10,
            },
        )
        .unwrap();
        // Delay slot at old npc executes next; then the target.
        assert_eq!(cpu.pc, RAM_BASE + 4);
        assert_eq!(cpu.npc, RAM_BASE + 40);
    }

    #[test]
    fn untaken_annulled_branch_skips_delay_slot() {
        let (mut cpu, mut bus) = setup();
        cpu.icc.z = false;
        run1(
            &mut cpu,
            &mut bus,
            Instr::Branch {
                cond: ICond::E,
                annul: true,
                disp22: 10,
            },
        )
        .unwrap();
        assert_eq!(cpu.pc, RAM_BASE + 8);
        assert_eq!(cpu.npc, RAM_BASE + 12);
    }

    #[test]
    fn ba_annulled_jumps_immediately() {
        let (mut cpu, mut bus) = setup();
        run1(
            &mut cpu,
            &mut bus,
            Instr::Branch {
                cond: ICond::A,
                annul: true,
                disp22: 4,
            },
        )
        .unwrap();
        assert_eq!(cpu.pc, RAM_BASE + 16);
        assert_eq!(cpu.npc, RAM_BASE + 20);
    }

    #[test]
    fn call_links_o7() {
        let (mut cpu, mut bus) = setup();
        run1(&mut cpu, &mut bus, Instr::Call { disp30: 100 }).unwrap();
        assert_eq!(cpu.get(nfp_sparc::regs::O7), RAM_BASE);
        assert_eq!(cpu.pc, RAM_BASE + 4);
        assert_eq!(cpu.npc, RAM_BASE + 400);
    }

    #[test]
    fn load_store_roundtrip_with_sign_extension() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), RAM_BASE + 0x100);
        cpu.set(Reg::o(1), 0xffff_ff80);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Store {
                size: MemSize::Byte,
                rd: Reg::o(1),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        )
        .unwrap();
        run1(
            &mut cpu,
            &mut bus,
            Instr::Load {
                size: MemSize::Byte,
                signed: true,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)) as i32, -128);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Load {
                size: MemSize::Byte,
                signed: false,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)), 0x80);
    }

    #[test]
    fn ldd_std_pair() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), RAM_BASE + 0x200);
        cpu.set(Reg::o(2), 0xdead_beef);
        cpu.set(Reg::o(3), 0x0123_4567);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Store {
                size: MemSize::Double,
                rd: Reg::o(2),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        )
        .unwrap();
        run1(
            &mut cpu,
            &mut bus,
            Instr::Load {
                size: MemSize::Double,
                signed: false,
                rd: Reg::l(0),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::l(0)), 0xdead_beef);
        assert_eq!(cpu.get(Reg::l(1)), 0x0123_4567);
    }

    #[test]
    fn fpu_double_arithmetic() {
        let (mut cpu, mut bus) = setup();
        cpu.fset_d(nfp_sparc::FReg::new(0), 2.5);
        cpu.fset_d(nfp_sparc::FReg::new(2), 4.0);
        run1(
            &mut cpu,
            &mut bus,
            Instr::FpOp {
                op: FpOp::FMulD,
                rd: nfp_sparc::FReg::new(4),
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(2),
            },
        )
        .unwrap();
        assert_eq!(cpu.fget_d(nfp_sparc::FReg::new(4)), 10.0);
    }

    #[test]
    fn fpu_disabled_traps() {
        let (mut cpu, mut bus) = setup();
        let r = step(
            &mut cpu,
            &mut bus,
            &Instr::FpOp {
                op: FpOp::FAddD,
                rd: nfp_sparc::FReg::new(0),
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(2),
            },
            false,
            &mut NullObserver,
        );
        assert!(matches!(r, Err(Trap::FpDisabled { .. })));
    }

    #[test]
    fn fcmp_sets_fcc_and_fbranch_uses_it() {
        let (mut cpu, mut bus) = setup();
        cpu.fset_d(nfp_sparc::FReg::new(0), 1.0);
        cpu.fset_d(nfp_sparc::FReg::new(2), 2.0);
        run1(
            &mut cpu,
            &mut bus,
            Instr::FCmp {
                double: true,
                exception: false,
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(2),
            },
        )
        .unwrap();
        assert_eq!(cpu.fcc, FccValue::Less);
        run1(
            &mut cpu,
            &mut bus,
            Instr::FBranch {
                cond: nfp_sparc::FCond::L,
                annul: false,
                disp22: 8,
            },
        )
        .unwrap();
        // FBranch executed at pc = RAM_BASE+4; target = pc + 8 words.
        assert_eq!(cpu.npc, RAM_BASE + 4 + 32);
    }

    #[test]
    fn fcmp_nan_is_unordered() {
        let (mut cpu, mut bus) = setup();
        cpu.fset_d(nfp_sparc::FReg::new(0), f64::NAN);
        cpu.fset_d(nfp_sparc::FReg::new(2), 2.0);
        run1(
            &mut cpu,
            &mut bus,
            Instr::FCmp {
                double: true,
                exception: false,
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(2),
            },
        )
        .unwrap();
        assert_eq!(cpu.fcc, FccValue::Unordered);
    }

    #[test]
    fn odd_double_register_traps() {
        let (mut cpu, mut bus) = setup();
        let r = run1(
            &mut cpu,
            &mut bus,
            Instr::FpOp {
                op: FpOp::FAddD,
                rd: nfp_sparc::FReg::new(1),
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(2),
            },
        );
        assert!(matches!(r, Err(Trap::OddFpPair { .. })));
    }

    #[test]
    fn conversions() {
        let (mut cpu, mut bus) = setup();
        cpu.fset(nfp_sparc::FReg::new(1), (-7i32) as u32);
        run1(
            &mut cpu,
            &mut bus,
            Instr::FpOp {
                op: FpOp::FiToD,
                rd: nfp_sparc::FReg::new(2),
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(1),
            },
        )
        .unwrap();
        assert_eq!(cpu.fget_d(nfp_sparc::FReg::new(2)), -7.0);
        cpu.fset_d(nfp_sparc::FReg::new(4), -2.9);
        run1(
            &mut cpu,
            &mut bus,
            Instr::FpOp {
                op: FpOp::FdToI,
                rd: nfp_sparc::FReg::new(1),
                rs1: nfp_sparc::FReg::new(0),
                rs2: nfp_sparc::FReg::new(4),
            },
        )
        .unwrap();
        assert_eq!(cpu.fget(nfp_sparc::FReg::new(1)) as i32, -2);
    }

    #[test]
    fn software_trap_surfaces() {
        let (mut cpu, mut bus) = setup();
        let out = run1(
            &mut cpu,
            &mut bus,
            Instr::Ticc {
                cond: ICond::A,
                rs1: Reg::g(0),
                op2: Operand::Imm(5),
            },
        )
        .unwrap();
        assert_eq!(out, StepOut::SoftTrap(5));
        // Untaken trap is a no-op.
        cpu.icc.z = false;
        let out = run1(
            &mut cpu,
            &mut bus,
            Instr::Ticc {
                cond: ICond::E,
                rs1: Reg::g(0),
                op2: Operand::Imm(5),
            },
        )
        .unwrap();
        assert_eq!(out, StepOut::Normal);
    }

    #[test]
    fn save_restore_move_operands_across_windows() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), 1000);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Save {
                rd: Reg::o(1),
                rs1: Reg::o(0),
                op2: Operand::Imm(-96),
            },
        )
        .unwrap();
        // Source read in old window (o0 = 1000), result written in new
        // window's o1.
        assert_eq!(cpu.get(Reg::o(1)), 904);
        assert_eq!(cpu.get(Reg::i(0)), 1000);
        run1(
            &mut cpu,
            &mut bus,
            Instr::Restore {
                rd: Reg::o(2),
                rs1: Reg::i(0),
                op2: Operand::Imm(1),
            },
        )
        .unwrap();
        assert_eq!(cpu.get(Reg::o(2)), 1001);
        assert_eq!(cpu.get(Reg::o(0)), 1000);
    }

    #[test]
    fn misaligned_jmpl_traps() {
        let (mut cpu, mut bus) = setup();
        cpu.set(Reg::o(0), RAM_BASE + 2);
        let r = run1(
            &mut cpu,
            &mut bus,
            Instr::Jmpl {
                rd: Reg::g(0),
                rs1: Reg::o(0),
                op2: Operand::Imm(0),
            },
        );
        assert!(matches!(r, Err(Trap::Misaligned { .. })));
    }
}
