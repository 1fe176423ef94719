//! Differential validation of batched NFP accounting: on real
//! workload kernels and on randomly generated SPARC programs, traced
//! dispatch — superblock traces over the threaded dispatch table, with
//! its straight-line fallback — must be bit-identical to
//! per-instruction stepping: category counters, dynamic instruction
//! count, exit status, CPU registers, and RAM contents. With a ledger
//! observer attached, traces must also hand it what the step path's
//! records add up to, event by event.
//!
//! CI runs this file a second time with `PROPTEST_CASES` elevated.

mod fingerprint;

use fingerprint::Fingerprint;
use nfp_cc::FloatMode;
use nfp_sim::fault::{inject, plan, undo, FaultSpace};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{Dispatch, Machine, RAM_BASE};
use nfp_workloads::synth::{random_program, ProgramShape};
use nfp_workloads::{fse_kernels, hevc_kernels, machine_for, Preset, KERNEL_BUDGET};
use proptest::prelude::*;

/// What one run of a machine shows: the result, instret, category
/// counts, CPU state, RAM, and — for an observed run — the digest of
/// what the ledger was told.
type Observation = (String, u64, String, String, String, Option<String>);

/// Runs `m` under `budget` and folds everything observable about the
/// final machine state into a comparable tuple, with a [`Fingerprint`]
/// attached when `observed`. Errors (traps, budget exhaustion) are
/// part of the observation: all modes must fail the same way at the
/// same instant.
fn observe(mut m: Machine, dispatch: Dispatch, observed: bool, budget: u64) -> Observation {
    m.set_dispatch(dispatch);
    let mut fp = Fingerprint::default();
    let res = if observed {
        m.run_observed(budget, &mut fp)
    } else {
        m.run(budget)
    };
    (
        format!("{res:?}"),
        m.instret(),
        format!("{:?}", m.counts()),
        format!("{:?}", m.cpu),
        format!("{:?}", m.bus.snapshot_ram()),
        observed.then(|| fp.digest()),
    )
}

/// The three runs every comparison makes: the observed stepping
/// reference, then traced dispatch without and with the ledger.
const RUNS: [(Dispatch, bool); 3] = [
    (Dispatch::Step, true),
    (Dispatch::Traced, false),
    (Dispatch::Traced, true),
];

/// Asserts a traced observation matches the stepping reference; the
/// digests are compared when the traced run was observed.
fn assert_matches_reference(reference: &Observation, traced: &Observation, what: &str) {
    assert_eq!(reference.0, traced.0, "{what}: run result diverged");
    assert_eq!(reference.1, traced.1, "{what}: instret diverged");
    assert_eq!(reference.2, traced.2, "{what}: category counts diverged");
    assert_eq!(reference.3, traced.3, "{what}: CPU state diverged");
    assert_eq!(reference.4, traced.4, "{what}: RAM diverged");
    if traced.5.is_some() {
        assert_eq!(reference.5, traced.5, "{what}: ledger digests diverged");
    }
}

fn assert_kernel_modes_agree(kernel: &nfp_workloads::Kernel, mode: FloatMode) {
    let [reference, traced, observed] = RUNS.map(|(dispatch, observed)| {
        observe(
            machine_for(kernel, mode).expect("machine"),
            dispatch,
            observed,
            KERNEL_BUDGET,
        )
    });
    let what = format!("{} [{mode:?}]", kernel.name);
    assert_matches_reference(&reference, &traced, &what);
    assert_matches_reference(&reference, &observed, &format!("{what} observed"));
}

#[test]
fn fse_kernel_is_bit_identical_across_modes() {
    let kernels = fse_kernels(&Preset::quick()).expect("kernels");
    for mode in [FloatMode::Hard, FloatMode::Soft] {
        assert_kernel_modes_agree(&kernels[0], mode);
    }
}

#[test]
fn hevc_kernel_is_bit_identical_across_modes() {
    let kernels = hevc_kernels(&Preset::quick()).expect("kernels");
    for mode in [FloatMode::Hard, FloatMode::Soft] {
        assert_kernel_modes_agree(&kernels[0], mode);
    }
}

fn boot_synthetic(words: &[u32], policy: TrapPolicy) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(policy);
    m
}

/// Asserts traced dispatch, with and without an observer, matches
/// observed stepping on `words`.
fn assert_synthetic_agrees(
    words: &[u32],
    policy: TrapPolicy,
    budget: u64,
) -> Result<(), TestCaseError> {
    let [reference, mut traced, observed] = RUNS.map(|(dispatch, observed)| {
        observe(boot_synthetic(words, policy), dispatch, observed, budget)
    });
    // The unobserved run has no digest to compare.
    traced.5 = reference.5.clone();
    prop_assert_eq!(&reference, &traced, "traced diverged from step");
    prop_assert_eq!(
        &reference,
        &observed,
        "observed traced run diverged from step"
    );
    Ok(())
}

const POLICIES: [TrapPolicy; 2] = [TrapPolicy::Abort, TrapPolicy::Recover];

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random straight-line programs: every instruction is batchable,
    /// so this pins the straight-line fallback's accounting (including
    /// the doubleword memory traffic the generator emits).
    #[test]
    fn straight_line_programs_agree(body in 4usize..120, seed in 0u64..10_000) {
        let words = random_program(body, seed, ProgramShape::StraightLine).expect("program");
        for policy in POLICIES {
            assert_synthetic_agrees(&words, policy, 5_000)?;
        }
    }

    /// Random branchy programs under both trap policies: annulled
    /// delay slots, loops that exhaust the budget mid-block (or
    /// mid-superblock), and falls off the image edge must all replay
    /// identically.
    #[test]
    fn branchy_programs_agree(body in 4usize..120, seed in 0u64..10_000, recover in 0u32..2) {
        let policy = if recover == 1 { TrapPolicy::Recover } else { TrapPolicy::Abort };
        let words = random_program(body, seed, ProgramShape::Branchy).expect("program");
        assert_synthetic_agrees(&words, policy, 5_000)?;
    }

    /// Programs whose final image word is the delay slot of a CTI: the
    /// batcher must hand over to the step path exactly at the image
    /// boundary rather than running past it.
    #[test]
    fn cti_tail_programs_agree(body in 2usize..60, seed in 0u64..10_000) {
        let words = random_program(body, seed, ProgramShape::CtiTail).expect("program");
        for policy in POLICIES {
            assert_synthetic_agrees(&words, policy, 5_000)?;
        }
    }

    /// Random programs mixing FP arithmetic, `%g0` destinations, the Y
    /// register, register windows and calls into the branchy shape:
    /// every sum and event a ledger reads must come out of a trace
    /// exactly as stepping's records add up, under both trap policies.
    #[test]
    fn mixed_programs_agree(body in 4usize..120, seed in 0u64..10_000) {
        let words = random_program(body, seed, ProgramShape::Mixed).expect("program");
        for policy in POLICIES {
            assert_synthetic_agrees(&words, policy, 5_000)?;
        }
    }

    /// SEU flips landing mid-superblock: split the run at an arbitrary
    /// instret (which in traced mode lands inside a formed trace of a
    /// branchy loop), inject a planned fault at the split point, and
    /// finish the run. Campaign replays must be bit-identical no
    /// matter which dispatch mode executes either half.
    #[test]
    fn faults_mid_superblock_agree(
        body in 8usize..80,
        seed in 0u64..10_000,
        split in 1u64..2_000,
        fault_seed in 0u64..10_000,
    ) {
        let words = random_program(body, seed, ProgramShape::Branchy).expect("program");
        let space = FaultSpace {
            max_instret: split,
            code_len: words.len() as u32,
            ram_ranges: vec![(RAM_BASE, 4096)],
            fp: true,
        };
        let faults = plan(&space, 1, fault_seed);
        // The second half runs with or without the ledger.
        let observe_faulted = |(dispatch, observed): (Dispatch, bool)| {
            let mut m = boot_synthetic(&words, TrapPolicy::Recover);
            m.set_dispatch(dispatch);
            // First half: stop exactly at the flip instant, even if it
            // lands inside a superblock.
            let pre = format!("{:?}", m.run_until(split));
            let mut armed = Vec::new();
            if pre == "Ok(())" {
                for f in &faults {
                    armed.push(inject(&mut m, f).expect("in-bounds injection"));
                }
            }
            let mut fp = Fingerprint::default();
            let res = if observed {
                m.run_observed(5_000, &mut fp)
            } else {
                m.run(5_000)
            };
            for a in &armed {
                undo(&mut m, a).expect("undo patches back");
            }
            (
                pre,
                format!("{res:?}"),
                m.instret(),
                format!("{:?}", m.counts()),
                format!("{:?}", m.cpu),
                format!("{:?}", m.bus.snapshot_ram()),
                observed.then(|| fp.digest()),
            )
        };
        let [reference, mut traced, observed] = RUNS.map(observe_faulted);
        traced.6 = reference.6.clone();
        prop_assert_eq!(&reference, &traced, "traced diverged from step");
        prop_assert_eq!(&reference, &observed, "observed traced run diverged from step");
    }
}

/// The generator shapes must actually reach RAM_BASE-relative code
/// (guards the literal the generator uses against drift).
#[test]
fn generator_base_matches_simulator_ram_base() {
    let words = random_program(4, 0, ProgramShape::StraightLine).expect("program");
    let m = Machine::boot(&words);
    assert_eq!(m.code_base(), RAM_BASE);
}
