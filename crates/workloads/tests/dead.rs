//! Soundness of classifying faults without replaying them: a fault on a
//! location the golden run never reads at or after the injection point
//! ([`LastReads::never_read`]) must end as the golden run does. On
//! random programs of every shape, the golden run is recorded
//! ([`Machine::run_recording`]), and every fault of a random plan over
//! every [`FaultTarget`] kind that the record calls never-read is
//! replayed in full under both dispatch modes: run to the injection
//! point, inject, run under the watchdog. It must end with the golden
//! run's stop, instret, exit code, words and text; and once the flipped
//! location is given the golden run's value, the rest of its state must
//! be the golden run's too: registers, every window bank and the spill
//! stack, RAM and the console.
//!
//! CI runs this file a second time with `PROPTEST_CASES` elevated.

use nfp_sim::fault::{inject, undo};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{
    Dispatch, Fault, FaultRng, FaultTarget, LastReads, Machine, RunResult, SimError, Watchdog,
    INT_REG_SPACE, RAM_BASE,
};
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

/// Faults drawn per program.
const FAULTS: usize = 48;

/// Data words at the end of a `Mixed` image.
const DATA_WORDS: u32 = 8;

/// The scratch window random programs load and store.
const SCRATCH: u32 = RAM_BASE + 0x1_0000;

fn boot(words: &[u32], dispatch: Dispatch) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(TrapPolicy::Recover);
    m.set_dispatch(dispatch);
    m
}

/// How a run ended. Using up the instructions reads the same whether a
/// plain budget or the watchdog ran out.
fn stop(run: &Result<RunResult, SimError>) -> String {
    match run {
        Ok(r) => format!(
            "halted with {} after {}, words {:?}, text {:?}",
            r.exit_code, r.instret, r.words, r.text
        ),
        Err(SimError::BudgetExhausted { .. } | SimError::WatchdogExpired { .. }) => {
            "out of instructions".to_string()
        }
        Err(e) => format!("{e:?}"),
    }
}

/// A random plan over every [`FaultTarget`] kind, by injection point
/// (all before `end`), one in four at the last instruction. Integer
/// registers are drawn as often from the current window at the
/// injection point as from the whole file; RAM words from the image,
/// the words past it and the scratch window; code words from the whole
/// image and, in a `Mixed` one, from its data words.
fn random_plan(words: &[u32], end: u64, seed: u64) -> Vec<Fault> {
    let mut rng = FaultRng::new(seed);
    let mut draws: Vec<(u64, u64)> = (0..FAULTS)
        .map(|_| {
            let at = match rng.below(4) {
                0 => end - 1,
                _ => rng.below(end),
            };
            (at, rng.next_u64())
        })
        .collect();
    draws.sort_unstable();
    let len = words.len() as u32;
    let mut walker = boot(words, Dispatch::Traced);
    draws
        .into_iter()
        .map(|(at, pick)| {
            walker.run_until(at).expect("the golden path");
            let mut rng = FaultRng::new(pick);
            let bit = |rng: &mut FaultRng, n: u64| rng.below(n) as u8;
            let target = match rng.below(7) {
                0 => {
                    let index = match rng.below(2) {
                        0 => walker
                            .cpu
                            .flat_index(Reg::new(1 + rng.below(31) as u8))
                            .expect("not %g0"),
                        _ => rng.below(INT_REG_SPACE as u64) as usize,
                    };
                    FaultTarget::IntReg {
                        index: index as u8,
                        bit: bit(&mut rng, 32),
                    }
                }
                1 => FaultTarget::FpReg {
                    index: rng.below(32) as u8,
                    bit: bit(&mut rng, 32),
                },
                2 => FaultTarget::Icc {
                    bit: bit(&mut rng, 4),
                },
                3 => FaultTarget::YReg {
                    bit: bit(&mut rng, 32),
                },
                4 => FaultTarget::Fcc {
                    bit: bit(&mut rng, 2),
                },
                5 => FaultTarget::Ram {
                    addr: match rng.below(3) {
                        0 => RAM_BASE + 4 * rng.below(len as u64) as u32,
                        1 => RAM_BASE + 4 * (len + rng.below(4) as u32),
                        _ => SCRATCH + 4 * rng.below(64) as u32,
                    },
                    bit: bit(&mut rng, 32),
                },
                _ => FaultTarget::Code {
                    index: match rng.below(2) {
                        0 if len > DATA_WORDS => len - 1 - rng.below(DATA_WORDS as u64) as u32,
                        _ => rng.below(len as u64) as u32,
                    },
                    bit: bit(&mut rng, 32),
                },
            };
            Fault { at, target }
        })
        .collect()
}

/// Gives `m` the value `golden` holds at `target`'s location.
fn reconcile(m: &mut Machine, golden: &Machine, target: FaultTarget) {
    let word = |addr: u32| {
        let bytes = golden.bus.read_bytes(addr, 4).expect("in RAM");
        u32::from_be_bytes(bytes.try_into().expect("a word"))
    };
    let mut copy_word = |addr: u32| m.bus.store32(addr, word(addr)).expect("in RAM");
    match target {
        FaultTarget::IntReg { index, .. } => {
            let value = golden.cpu.flat_get(index as usize);
            m.cpu.flat_set(index as usize, value);
        }
        FaultTarget::FpReg { index, .. } => m.cpu.f[index as usize] = golden.cpu.f[index as usize],
        FaultTarget::Icc { .. } => m.cpu.icc = golden.cpu.icc,
        FaultTarget::YReg { .. } => m.cpu.y = golden.cpu.y,
        FaultTarget::Fcc { .. } => m.cpu.fcc = golden.cpu.fcc,
        FaultTarget::Ram { addr, .. } => copy_word(addr),
        FaultTarget::Code { index, .. } => copy_word(golden.code_base() + 4 * index),
    }
}

/// A target kind's index, in [`FaultTarget`]'s declaration order.
fn kind(target: FaultTarget) -> usize {
    match target {
        FaultTarget::IntReg { .. } => 0,
        FaultTarget::FpReg { .. } => 1,
        FaultTarget::Icc { .. } => 2,
        FaultTarget::YReg { .. } => 3,
        FaultTarget::Fcc { .. } => 4,
        FaultTarget::Ram { .. } => 5,
        FaultTarget::Code { .. } => 6,
    }
}

/// Records the golden run of one random program, replays every fault of
/// a random plan that the record calls never-read, and checks each
/// ends as the golden run did. Returns how many it replayed, per target
/// kind.
fn check(
    shape: ProgramShape,
    body: usize,
    seed: u64,
    fault_seed: u64,
) -> Result<[u32; 7], TestCaseError> {
    let words = random_program(body, seed, shape).expect("program");
    let mut golden = boot(&words, Dispatch::Step);
    let mut reads = LastReads::new(&golden);
    let golden_run = golden.run_recording(BUDGET, &mut reads);
    let end = golden.instret();
    let finish = golden.checkpoint();
    // Recording changes nothing about the run.
    let plain = boot(&words, Dispatch::Traced).run(BUDGET);
    prop_assert_eq!(stop(&plain), stop(&golden_run), "recorded run");

    let mut replayed = [0; 7];
    if end == 0 {
        return Ok(replayed);
    }
    for fault in random_plan(&words, end, fault_seed) {
        if !reads.never_read(&fault) {
            continue;
        }
        replayed[kind(fault.target)] += 1;
        for dispatch in Dispatch::ALL {
            let mut m = boot(&words, dispatch);
            m.run_until(fault.at).expect("the golden path");
            let armed = inject(&mut m, &fault).expect("an in-bounds fault");
            let run = m.run_watchdog(&Watchdog {
                max_instrs: BUDGET - fault.at,
                wall: None,
            });
            prop_assert_eq!(
                stop(&run),
                stop(&golden_run),
                "{} under {}",
                fault,
                dispatch
            );
            undo(&mut m, &armed).expect("undo");
            reconcile(&mut m, &golden, fault.target);
            // `u64::MAX` compares every bank and the spill stack.
            prop_assert!(
                m.rejoins(&finish, u64::MAX),
                "state after {} under {}",
                fault,
                dispatch
            );
        }
    }
    Ok(replayed)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random programs of every shape, random faults of every kind:
    /// every fault on a location the golden run never reads again ends
    /// as the golden run does.
    #[test]
    fn never_read_faults_end_like_the_golden_run(
        shape in 0usize..SHAPES.len(),
        body in 8usize..100,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        check(SHAPES[shape], body, seed, fault_seed)?;
    }
}

/// The property above is only as strong as its never-read faults: over
/// a fixed sweep, every target kind must yield some.
#[test]
fn every_target_kind_yields_never_read_faults() {
    let mut replayed = [0; 7];
    for (i, &shape) in SHAPES.iter().cycle().take(64).enumerate() {
        let i = i as u64;
        let case = check(shape, 40 + (i as usize % 40), i, 1000 + i).expect("sound");
        for (total, n) in replayed.iter_mut().zip(case) {
            *total += n;
        }
    }
    assert!(replayed.iter().all(|&n| n > 0), "{replayed:?}");
}
