//! Every [`Trap`] variant, raised by a hand-assembled program and
//! checked for both payload and `Display` rendering. These pin down
//! the trap contract the fault-injection campaign's outcome
//! classification builds on.

use nfp_sim::machine::TrapPolicy;
use nfp_sim::{Dispatch, DispatchStats, Machine, MachineConfig, SimError, Trap, RAM_BASE};
use nfp_sparc::asm::Assembler;
use nfp_sparc::regs::G0;
use nfp_sparc::{AluOp, FReg, FpOp, ICond, Instr, MemSize, Operand, Reg};

/// Runs `words` under every dispatch mode, on a machine with or
/// without the FPU, and asserts that the modes stop with the same
/// error at the same `instret` and `pc`. Returns that error and the
/// traced run's dispatch stats.
fn error_in_every_mode(words: &[u32], fpu_enabled: bool) -> (SimError, DispatchStats) {
    let mut outcomes = Vec::new();
    let mut traced = DispatchStats::default();
    for dispatch in Dispatch::ALL {
        let mut m = Machine::new(MachineConfig {
            fpu_enabled,
            dispatch,
            ..MachineConfig::default()
        });
        m.load_image(RAM_BASE, words).expect("image loads");
        match m.run(10_000) {
            Err(e) => outcomes.push((e, m.instret(), m.cpu.pc)),
            Ok(r) => panic!("{dispatch}: expected an error, got {r:?}"),
        }
        if dispatch == Dispatch::Traced {
            traced = m.dispatch_stats();
        }
    }
    assert!(
        outcomes.windows(2).all(|w| w[0] == w[1]),
        "modes disagree on (error, instret, pc): {outcomes:?}"
    );
    (outcomes.swap_remove(0).0, traced)
}

/// Runs `words` under every dispatch mode and returns the trap it must
/// die with; the modes must agree on the trap and on `instret`.
fn trap_of(words: &[u32]) -> Trap {
    match error_in_every_mode(words, true).0 {
        SimError::Trap(t) => t,
        other => panic!("expected a trap, got {other:?}"),
    }
}

fn asm(build: impl FnOnce(&mut Assembler)) -> Vec<u32> {
    let mut a = Assembler::new(RAM_BASE);
    build(&mut a);
    a.finish().expect("assembly failed")
}

#[test]
fn illegal_instruction() {
    // An unimp word at the entry point.
    let t = trap_of(&[0]);
    assert_eq!(
        t,
        Trap::Illegal {
            pc: RAM_BASE,
            word: 0
        }
    );
    assert_eq!(
        t.to_string(),
        format!("illegal instruction 0x00000000 at 0x{RAM_BASE:08x}")
    );
    assert!(!t.is_recoverable());
}

#[test]
fn misaligned_access() {
    let words = asm(|a| {
        a.set32(RAM_BASE + 0x103, Reg::l(0));
        a.ld(MemSize::Word, false, Reg::l(0), 0, Reg::l(1));
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&words);
    // set32 is two instructions, so the load sits at +8.
    let pc = RAM_BASE + 8;
    let addr = RAM_BASE + 0x103;
    assert_eq!(t, Trap::Misaligned { pc, addr, size: 4 });
    assert_eq!(
        t.to_string(),
        format!("misaligned 4-byte access to 0x{addr:08x} at 0x{pc:08x}")
    );
    assert!(t.is_recoverable());
}

#[test]
fn misaligned_double_reports_size_8() {
    // Doubleword accesses require 8-byte alignment on SPARC V8 —
    // word-aligned is not enough, and the trap payload must carry the
    // doubleword size, not the size of a constituent word.
    let addr = RAM_BASE + 0x104; // 4-aligned, not 8-aligned
    let cases: [Vec<u32>; 3] = [
        asm(|a| {
            a.set32(addr, Reg::l(0));
            a.ld(MemSize::Double, false, Reg::l(0), 0, Reg::l(2));
            a.ta(0);
            a.nop();
        }),
        asm(|a| {
            a.set32(addr, Reg::l(0));
            a.st(MemSize::Double, Reg::o(2), Reg::l(0), 0);
            a.ta(0);
            a.nop();
        }),
        asm(|a| {
            a.set32(addr, Reg::l(0));
            a.lddf(Reg::l(0), 0, FReg::new(0));
            a.ta(0);
            a.nop();
        }),
    ];
    for words in &cases {
        let t = trap_of(words);
        let pc = RAM_BASE + 8; // set32 is two instructions
        assert_eq!(t, Trap::Misaligned { pc, addr, size: 8 });
    }

    // stdf likewise, spot-checking the Display size.
    let stdf = asm(|a| {
        a.set32(addr, Reg::l(0));
        a.stdf(FReg::new(2), Reg::l(0), 0);
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&stdf);
    assert_eq!(
        t.to_string(),
        format!(
            "misaligned 8-byte access to 0x{addr:08x} at 0x{:08x}",
            RAM_BASE + 8
        )
    );
}

#[test]
fn unmapped_access() {
    let words = asm(|a| {
        a.set32(0x1000_0000, Reg::l(0));
        a.ld(MemSize::Word, false, Reg::l(0), 0, Reg::l(1));
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&words);
    // set32 of a value with zero low bits is a single sethi.
    let pc = RAM_BASE + 4;
    assert_eq!(
        t,
        Trap::Unmapped {
            pc,
            addr: 0x1000_0000
        }
    );
    assert_eq!(
        t.to_string(),
        format!("unmapped access to 0x10000000 at 0x{pc:08x}")
    );
    assert!(!t.is_recoverable());
}

#[test]
fn division_by_zero() {
    let words = asm(|a| {
        a.mov(1, Reg::l(0));
        a.alu(AluOp::UDiv, Reg::l(0), Operand::Reg(G0), Reg::l(1));
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&words);
    let pc = RAM_BASE + 4;
    assert_eq!(t, Trap::DivZero { pc });
    assert_eq!(t.to_string(), format!("division by zero at 0x{pc:08x}"));
    assert!(!t.is_recoverable());
}

#[test]
fn window_overflow() {
    let words = asm(|a| {
        for _ in 0..nfp_sim::NWINDOWS - 1 {
            a.push(Instr::Save {
                rd: G0,
                rs1: G0,
                op2: Operand::Imm(0),
            });
        }
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&words);
    // The (NWINDOWS - 2 + 1)-th save overflows.
    let pc = RAM_BASE + 4 * (nfp_sim::NWINDOWS as u32 - 2);
    assert_eq!(t, Trap::WindowOverflow { pc });
    assert_eq!(
        t.to_string(),
        format!("register window overflow at 0x{pc:08x}")
    );
    assert!(t.is_recoverable());
}

#[test]
fn window_underflow() {
    let words = asm(|a| {
        a.push(Instr::Restore {
            rd: G0,
            rs1: G0,
            op2: Operand::Imm(0),
        });
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&words);
    assert_eq!(t, Trap::WindowUnderflow { pc: RAM_BASE });
    assert_eq!(
        t.to_string(),
        format!("register window underflow at 0x{RAM_BASE:08x}")
    );
    assert!(t.is_recoverable());
}

#[test]
fn fpu_disabled() {
    let words = asm(|a| {
        a.fpop(FpOp::FAddS, FReg::new(0), FReg::new(1), FReg::new(2));
        a.ta(0);
        a.nop();
    });
    let t = match error_in_every_mode(&words, false).0 {
        SimError::Trap(t) => t,
        other => panic!("expected a trap, got {other:?}"),
    };
    assert_eq!(t, Trap::FpDisabled { pc: RAM_BASE });
    assert_eq!(
        t.to_string(),
        format!("FPU instruction with FPU disabled at 0x{RAM_BASE:08x}")
    );
    assert!(!t.is_recoverable());
}

#[test]
fn odd_fp_pair() {
    let words = asm(|a| {
        // Double-precision add naming an odd destination register.
        a.fpop(FpOp::FAddD, FReg::new(0), FReg::new(2), FReg::new(1));
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&words);
    assert_eq!(t, Trap::OddFpPair { pc: RAM_BASE });
    assert_eq!(
        t.to_string(),
        format!("odd FP register pair at 0x{RAM_BASE:08x}")
    );
    assert!(!t.is_recoverable());
}

#[test]
fn odd_int_pair() {
    // `ldd` names register pairs: an odd `rd` is illegal per SPARC V8
    // (B.11). It used to be misreported as `Illegal { word: 0 }`,
    // losing the actual instruction word and the pair semantics.
    let ldd = asm(|a| {
        a.ld(MemSize::Double, false, Reg::l(0), 0, Reg::l(1));
        a.ta(0);
        a.nop();
    });
    let t = trap_of(&ldd);
    assert_eq!(t, Trap::OddIntPair { pc: RAM_BASE });
    assert_eq!(
        t.to_string(),
        format!("odd integer register pair at 0x{RAM_BASE:08x}")
    );
    assert!(!t.is_recoverable());

    // Same for `std`.
    let std_ = asm(|a| {
        a.st(MemSize::Double, Reg::o(3), Reg::l(0), 0);
        a.ta(0);
        a.nop();
    });
    assert_eq!(trap_of(&std_), Trap::OddIntPair { pc: RAM_BASE });
}

#[test]
fn always_trapping_ops_fail_alike_inside_a_trace() {
    // Each shape predecodes to a trap stub. Placed in a loop body, it
    // sits inside the superblock traced dispatch forms at the entry
    // point, so the trace interpreter, not the straight-line fallback,
    // meets it after the `mov` and `subcc` before it retire.
    let (f0, f1, f2) = (FReg::new(0), FReg::new(1), FReg::new(2));
    let fp_load = Instr::LoadF {
        double: false,
        rd: f0,
        rs1: Reg::l(1),
        op2: Operand::Imm(0),
    };
    let fp_store = Instr::StoreF {
        double: false,
        rd: f0,
        rs1: Reg::l(1),
        op2: Operand::Imm(0),
    };
    let fcmp = Instr::FCmp {
        double: false,
        exception: false,
        rs1: f0,
        rs2: f1,
    };
    let odd_pair = Instr::FpOp {
        op: FpOp::FAddD,
        rd: f1,
        rs1: f0,
        rs2: f2,
    };
    let ldd = Instr::Load {
        size: MemSize::Double,
        signed: false,
        rd: Reg::l(3),
        rs1: Reg::l(1),
        op2: Operand::Imm(0),
    };
    let std_ = Instr::Store {
        size: MemSize::Double,
        rd: Reg::l(3),
        rs1: Reg::l(1),
        op2: Operand::Imm(0),
    };
    let pc = RAM_BASE + 8;
    let fp_disabled = SimError::Trap(Trap::FpDisabled { pc });
    let cases = [
        (
            Instr::Unimp { const22: 0x1234 },
            true,
            SimError::Trap(Trap::Illegal { pc, word: 0x1234 }),
        ),
        (
            Instr::FpOp {
                op: FpOp::FAddS,
                rd: f2,
                rs1: f0,
                rs2: f1,
            },
            false,
            fp_disabled.clone(),
        ),
        (fp_load, false, fp_disabled.clone()),
        (fp_store, false, fp_disabled.clone()),
        (fcmp, false, fp_disabled),
        (odd_pair, true, SimError::Trap(Trap::OddFpPair { pc })),
        (ldd, true, SimError::Trap(Trap::OddIntPair { pc })),
        (std_, true, SimError::Trap(Trap::OddIntPair { pc })),
    ];
    for (op, fpu, want) in cases {
        let words = asm(|a| {
            a.mov(3, Reg::l(0));
            a.label("loop");
            a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
            a.push(op);
            a.b(ICond::Ne, "loop");
            a.nop();
            a.ta(0);
            a.nop();
        });
        let (err, stats) = error_in_every_mode(&words, fpu);
        assert_eq!(err, want, "{op:?}");
        assert!(
            stats.traced > 0,
            "{op:?} was not met inside a trace: {stats:?}"
        );
    }
}

#[test]
fn trap_pc_accessor_matches_payload() {
    let traps = [
        Trap::Illegal { pc: 1, word: 2 },
        Trap::Misaligned {
            pc: 3,
            addr: 4,
            size: 2,
        },
        Trap::Unmapped { pc: 5, addr: 6 },
        Trap::DivZero { pc: 7 },
        Trap::WindowOverflow { pc: 8 },
        Trap::WindowUnderflow { pc: 9 },
        Trap::FpDisabled { pc: 10 },
        Trap::OddFpPair { pc: 11 },
        Trap::OddIntPair { pc: 12 },
    ];
    assert_eq!(
        traps.iter().map(Trap::pc).collect::<Vec<_>>(),
        vec![1, 3, 5, 7, 8, 9, 10, 11, 12]
    );
}

#[test]
fn recoverable_traps_are_absorbed_only_under_recover_policy() {
    // A cross-check of the classification: every recoverable trap
    // program completes under Recover, dies under Abort.
    let misaligned = asm(|a| {
        a.set32(RAM_BASE + 0x103, Reg::l(0));
        a.ld(MemSize::Word, false, Reg::l(0), 0, Reg::l(1));
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
    });
    let mut m = Machine::boot(&misaligned);
    m.set_trap_policy(TrapPolicy::Recover);
    assert_eq!(m.run(100).expect("absorbed").exit_code, 0);
    assert_eq!(m.trap_stats().misaligned_skips, 1);
}
