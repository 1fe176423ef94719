//! Soundness of rejoining the golden run: a fault-injected replay that
//! matches a golden checkpoint ([`Machine::rejoins`]) must go on exactly
//! as the golden run did from there. On random programs of every shape,
//! a golden ladder is taken and random non-code faults are replayed
//! against it, in campaign order on one machine. Whenever a replay
//! rejoins a rung, it and a golden machine restored to that rung run
//! for the same budget, and their stop, instret, console output, RAM and
//! CPU state must be equal. The CPU comparison covers the register-window
//! banks `cur` does not mirror whenever the golden run does a window
//! operation after the rung, which `Mixed` programs do.
//!
//! CI runs this file a second time with `PROPTEST_CASES` elevated.

use nfp_sim::fault::{inject, plan, FaultSpace};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{Cpu, Machine, RunResult, SimError, INT_REG_SPACE, RAM_BASE};
use nfp_sparc::Reg;
use nfp_workloads::synth::{random_program, ProgramShape};
use proptest::prelude::*;

const SHAPES: [ProgramShape; 4] = [
    ProgramShape::StraightLine,
    ProgramShape::Branchy,
    ProgramShape::CtiTail,
    ProgramShape::Mixed,
];

/// Instructions the golden run may take.
const BUDGET: u64 = 5_000;

/// Rungs of the golden ladder.
const RUNGS: u64 = 8;

/// Faults replayed per program.
const FAULTS: usize = 32;

fn boot(words: &[u32]) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(TrapPolicy::Recover);
    m
}

/// How a run ended.
fn stop(run: Result<RunResult, SimError>) -> String {
    match run {
        Ok(r) => format!("halted with {}", r.exit_code),
        Err(e) => format!("{e:?}"),
    }
}

/// The CPU state a comparison sees: pc, npc, the current window, the
/// condition codes, `%y`, the FP file and the window depth; with
/// `banks`, also every register of every window and the spill depth.
fn visible(cpu: &Cpu, banks: bool) -> String {
    let regs: Vec<u32> = (0..32).map(|n| cpu.get(Reg::new(n))).collect();
    let mut seen = format!(
        "pc {:#x} npc {:#x} regs {regs:x?} icc {:?} y {:#x} f {:x?} fcc {:?} depth {}",
        cpu.pc,
        cpu.npc,
        cpu.icc,
        cpu.y,
        cpu.f,
        cpu.fcc,
        cpu.window_depth()
    );
    if banks {
        let flat: Vec<u32> = (0..INT_REG_SPACE).map(|i| cpu.flat_get(i)).collect();
        seen += &format!(" flat {flat:x?} spilled {}", cpu.spilled_frames());
    }
    seen
}

/// Runs the replay and the golden twin for `budget` instructions and
/// asserts they end alike, reading every piece of state through the
/// machines' public surface, not through [`Machine::rejoins`].
fn assert_same_end(
    replay: &mut Machine,
    golden: &mut Machine,
    budget: u64,
    banks: bool,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(stop(replay.run(budget)), stop(golden.run(budget)), "stop");
    prop_assert_eq!(replay.instret(), golden.instret(), "instret");
    prop_assert_eq!(&replay.bus.console.text, &golden.bus.console.text);
    prop_assert_eq!(&replay.bus.console.words, &golden.bus.console.words);
    prop_assert_eq!(visible(&replay.cpu, banks), visible(&golden.cpu, banks));
    // A page dirty on neither side holds the boot image on both.
    let mut ranges = replay.bus.dirty_ranges();
    ranges.extend(golden.bus.dirty_ranges());
    for (addr, len) in ranges {
        prop_assert_eq!(
            replay.bus.read_bytes(addr, len as usize),
            golden.bus.read_bytes(addr, len as usize),
            "RAM at {:#x}",
            addr
        );
    }
    Ok(())
}

/// Rejoins seen: with the banks compared, and with them left out.
#[derive(Debug, Default)]
struct Rejoins {
    banks_compared: u32,
    banks_left_out: u32,
}

/// Takes a golden ladder over one random program, replays `FAULTS`
/// random non-code faults against it, and checks every replay that
/// rejoins a rung.
fn check(
    shape: ProgramShape,
    body: usize,
    seed: u64,
    fault_seed: u64,
) -> Result<Rejoins, TestCaseError> {
    let words = random_program(body, seed, shape).expect("program");
    // The golden run: it halts, traps or uses up the budget.
    let mut golden = boot(&words);
    let _ = golden.run(BUDGET);
    let end = golden.instret();
    let end_ops = golden.cpu.window_ops();

    let mut m = boot(&words);
    let mut ladder = Vec::new();
    for i in 0..RUNGS {
        m.run_until(end * i / RUNGS).expect("the golden path");
        ladder.push(m.checkpoint());
    }
    let space = FaultSpace {
        max_instret: end,
        // No code faults: their patched predecode is not the image
        // the golden run executes, so they never rejoin.
        code_len: 0,
        // The image and the scratch window the program loads and
        // stores.
        ram_ranges: vec![
            (RAM_BASE, words.len() as u32 * 4),
            (RAM_BASE + 0x1_0000, 256),
        ],
        fp: true,
    };
    let mut seen = Rejoins::default();
    for fault in plan(&space, FAULTS, fault_seed) {
        let from = ladder
            .iter()
            .rev()
            .find(|cp| cp.instret() <= fault.at)
            .expect("the first rung is at 0");
        m.restore(from);
        m.run_until(fault.at).expect("the golden path");
        inject(&mut m, &fault).expect("in-bounds injection");
        for rung in ladder.iter().filter(|cp| cp.instret() > fault.at) {
            // A replay that ends before the rung never reaches it.
            if !matches!(
                m.run(rung.instret() - m.instret()),
                Err(SimError::BudgetExhausted { .. })
            ) {
                break;
            }
            if m.rejoins(rung, end_ops) {
                let banks = rung.window_ops() != end_ops;
                if banks {
                    seen.banks_compared += 1;
                } else {
                    seen.banks_left_out += 1;
                }
                let mut twin = boot(&words);
                twin.restore(rung);
                assert_same_end(&mut m, &mut twin, end - rung.instret(), banks)?;
                break;
            }
        }
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random programs of every shape, random non-code faults: every
    /// replay that rejoins the golden ladder finishes as the golden run
    /// does.
    #[test]
    fn rejoined_replays_finish_like_the_golden_run(
        shape in 0usize..SHAPES.len(),
        body in 8usize..100,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        check(SHAPES[shape], body, seed, fault_seed)?;
    }
}

/// The property above is only as strong as its rejoins: over a fixed
/// sweep, replays must rejoin both with the register-window banks
/// compared (a `Mixed` golden run that still saves or restores) and
/// with them left out.
#[test]
fn rejoins_exercise_the_window_bank_rule_both_ways() {
    let mut seen = Rejoins::default();
    for (i, &shape) in SHAPES.iter().cycle().take(64).enumerate() {
        let i = i as u64;
        let case = check(shape, 40 + (i as usize % 40), i, 1000 + i).expect("sound");
        seen.banks_compared += case.banks_compared;
        seen.banks_left_out += case.banks_left_out;
    }
    assert!(
        seen.banks_compared > 0 && seen.banks_left_out > 0,
        "{seen:?}"
    );
}
