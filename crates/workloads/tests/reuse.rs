//! A reused rig must equal a fresh one. A campaign replays its whole
//! plan on one machine per replay slot: restore a rung of the golden
//! ladder, run to the injection point, inject, run under the watchdog,
//! undo. Whatever the machine derives and keeps across replays — the
//! predecode, the traced dispatch's caches — must not let one replay
//! change the next.
//!
//! On random `Mixed` programs, whose data words inside the image are
//! overwritten at run time (so a code fault can land on a word whose
//! runtime value decodes to something other than the boot image's
//! entry), one machine replays a random plan over every fault kind in
//! campaign order, and for each fault a fresh machine restored to the
//! same rung does the same, under both dispatch modes. Their stop,
//! instret, counts, CPU state, RAM and ledger digest must be equal, and
//! after every undo both predecodes must be the boot image's.
//!
//! CI runs this file a second time with `PROPTEST_CASES` elevated.

mod fingerprint;

use fingerprint::Fingerprint;
use nfp_sim::fault::{inject, undo};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{
    Checkpoint, Dispatch, Fault, FaultRng, FaultTarget, Machine, SimError, Watchdog, INT_REG_SPACE,
    RAM_BASE,
};
use nfp_workloads::synth::{random_program, ProgramShape};
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Data words at the end of a `Mixed` image.
const DATA_WORDS: usize = 8;

/// Instructions the golden run may take.
const BUDGET: u64 = 5_000;

/// Rungs of the golden ladder.
const RUNGS: u64 = 8;

/// Faults replayed per program.
const FAULTS: usize = 24;

/// Instructions a replay may take after its injection point; the first
/// `OBSERVED` of them run with the ledger attached.
const REPLAY: u64 = 4_000;
const OBSERVED: u64 = 1_000;

fn boot(words: &[u32], dispatch: Dispatch) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(TrapPolicy::Recover);
    m.set_dispatch(dispatch);
    m
}

/// A random plan over every [`FaultTarget`] kind, in campaign order
/// (by injection point, all before `end`). Half the code faults land on
/// the image's data words, and RAM faults on the image, the data words
/// among them, or the scratch window.
fn random_plan(code_len: u32, end: u64, seed: u64) -> Vec<Fault> {
    let mut rng = FaultRng::new(seed);
    let bit = |rng: &mut FaultRng, n: u64| rng.below(n) as u8;
    let mut faults: Vec<Fault> = (0..FAULTS)
        .map(|_| {
            let at = rng.below(end.max(1));
            let target = match rng.below(7) {
                0 => FaultTarget::IntReg {
                    index: rng.below(INT_REG_SPACE as u64) as u8,
                    bit: bit(&mut rng, 32),
                },
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
                5 => {
                    let word = match rng.below(2) {
                        0 => rng.below(code_len as u64) as u32,
                        _ => 0x1_0000 / 4 + rng.below(64) as u32,
                    };
                    FaultTarget::Ram {
                        addr: RAM_BASE + 4 * word,
                        bit: bit(&mut rng, 32),
                    }
                }
                _ => {
                    let data = code_len - DATA_WORDS as u32;
                    let index = match rng.below(2) {
                        0 => data + rng.below(DATA_WORDS as u64) as u32,
                        _ => rng.below(code_len as u64) as u32,
                    };
                    FaultTarget::Code {
                        index,
                        bit: bit(&mut rng, 32),
                    }
                }
            };
            Fault { at, target }
        })
        .collect();
    faults.sort_by_key(|f| f.at);
    faults
}

/// What one replay shows: its stop, instret, category counts, CPU
/// state, a digest of RAM, and the ledger's digest.
type Observation = (String, u64, String, String, u64, String);

/// Replays `fault` on `m` from `rung` the way a campaign does, with the
/// ledger attached to the start of the run and the watchdog bounding
/// the rest, and returns what it shows.
fn replay(m: &mut Machine, rung: &Checkpoint, fault: &Fault) -> Observation {
    m.restore(rung);
    m.run_until(fault.at).expect("the golden path");
    let armed = inject(m, fault).expect("an in-bounds fault");
    let mut ledger = Fingerprint::default();
    let stop = match m.run_observed(OBSERVED, &mut ledger) {
        Err(SimError::BudgetExhausted { .. }) => m.run_watchdog(&Watchdog {
            max_instrs: REPLAY - OBSERVED,
            wall: None,
        }),
        ended => ended,
    };
    undo(m, &armed).expect("undo");
    let mut ram = DefaultHasher::new();
    for (addr, len) in m.bus.dirty_ranges() {
        (addr, m.bus.read_bytes(addr, len as usize).ok()).hash(&mut ram);
    }
    (
        format!("{stop:?}"),
        m.instret(),
        format!("{:?}", m.counts()),
        format!("{:?}", m.cpu),
        ram.finish(),
        ledger.digest(),
    )
}

/// Replays a random plan over one random `Mixed` program on one reused
/// machine and on a fresh machine per fault, and compares them.
fn check(body: usize, seed: u64, fault_seed: u64, dispatch: Dispatch) -> Result<(), TestCaseError> {
    let words = random_program(body, seed, ProgramShape::Mixed).expect("program");
    let pristine = boot(&words, dispatch);
    // The golden run: it halts, traps or uses up the budget.
    let mut golden = boot(&words, dispatch);
    let _ = golden.run(BUDGET);
    let end = golden.instret();
    let mut ladder_run = boot(&words, dispatch);
    let ladder: Vec<Checkpoint> = (0..RUNGS)
        .map(|i| {
            ladder_run
                .run_until(end * i / RUNGS)
                .expect("the golden path");
            ladder_run.checkpoint()
        })
        .collect();

    let mut reused = boot(&words, dispatch);
    for fault in random_plan(words.len() as u32, end, fault_seed) {
        let rung = ladder
            .iter()
            .rev()
            .find(|cp| cp.instret() <= fault.at)
            .expect("the first rung is at 0");
        let mut fresh = boot(&words, dispatch);
        let (got, want) = (
            replay(&mut reused, rung, &fault),
            replay(&mut fresh, rung, &fault),
        );
        prop_assert_eq!(&got, &want, "{} under {}", fault, dispatch);
        for index in 0..pristine.code_len() {
            let boot_entry = pristine.code_entry(index);
            prop_assert_eq!(
                reused.code_entry(index),
                boot_entry,
                "entry {} after {}",
                index,
                fault
            );
            prop_assert_eq!(
                fresh.code_entry(index),
                boot_entry,
                "entry {} after {}",
                index,
                fault
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn reused_rig_replays_like_a_fresh_one(
        body in 8usize..100,
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
    ) {
        for dispatch in Dispatch::ALL {
            check(body, seed, fault_seed, dispatch)?;
        }
    }
}

/// The precondition the suite hunts for must occur: a `Mixed` program
/// overwrites data words inside its image, so that a code fault there
/// meets a runtime word other than the boot image's.
#[test]
fn mixed_programs_overwrite_their_data_words() {
    let overwritten = (0..64u64)
        .filter(|&seed| {
            let words = random_program(60, seed, ProgramShape::Mixed).expect("program");
            let mut m = boot(&words, Dispatch::Step);
            let _ = m.run(BUDGET);
            let data = RAM_BASE + 4 * (words.len() - DATA_WORDS) as u32;
            let now = m.bus.read_bytes(data, 4 * DATA_WORDS).expect("in RAM");
            let boot_bytes: Vec<u8> = words[words.len() - DATA_WORDS..]
                .iter()
                .flat_map(|w| w.to_be_bytes())
                .collect();
            now != &boot_bytes[..]
        })
        .count();
    assert!(
        overwritten >= 32,
        "{overwritten} of 64 programs overwrote a data word"
    );
}
