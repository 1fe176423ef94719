//! Differential validation of batched NFP accounting: on real
//! workload kernels and on randomly generated SPARC programs, traced
//! dispatch — superblock traces over the threaded dispatch table, with
//! its straight-line fallback — must be bit-identical to
//! per-instruction stepping: category counters, dynamic instruction
//! count, exit status, CPU registers, and RAM contents.

use nfp_cc::FloatMode;
use nfp_sim::fault::{inject, plan, undo, FaultSpace};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{Dispatch, Machine, RAM_BASE};
use nfp_workloads::synth::{random_program, ProgramShape};
use nfp_workloads::{fse_kernels, hevc_kernels, machine_for, Preset, KERNEL_BUDGET};
use proptest::prelude::*;

/// Runs `m` under `budget` and folds everything observable about the
/// final machine state into a comparable tuple. Errors (traps, budget
/// exhaustion) are part of the observation: all modes must fail the
/// same way at the same instant.
fn observe(
    mut m: Machine,
    dispatch: Dispatch,
    budget: u64,
) -> (String, u64, String, String, String) {
    m.set_dispatch(dispatch);
    let res = m.run(budget);
    (
        format!("{res:?}"),
        m.instret(),
        format!("{:?}", m.counts()),
        format!("{:?}", m.cpu),
        format!("{:?}", m.bus.snapshot_ram()),
    )
}

fn assert_kernel_modes_agree(kernel: &nfp_workloads::Kernel, mode: FloatMode) {
    let [stepped, traced] = Dispatch::ALL.map(|dispatch| {
        observe(
            machine_for(kernel, mode).expect("machine"),
            dispatch,
            KERNEL_BUDGET,
        )
    });
    let name = &kernel.name;
    assert_eq!(
        stepped.0, traced.0,
        "{name} [{mode:?}]: run result diverged"
    );
    assert_eq!(stepped.1, traced.1, "{name} [{mode:?}]: instret diverged");
    assert_eq!(
        stepped.2, traced.2,
        "{name} [{mode:?}]: category counts diverged"
    );
    assert_eq!(stepped.3, traced.3, "{name} [{mode:?}]: CPU state diverged");
    assert_eq!(stepped.4, traced.4, "{name} [{mode:?}]: RAM diverged");
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
    assert_kernel_modes_agree(&kernels[0], FloatMode::Hard);
}

fn boot_synthetic(words: &[u32], policy: TrapPolicy) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(policy);
    m
}

/// Asserts traced dispatch matches stepping on `words`.
fn assert_synthetic_agrees(
    words: &[u32],
    policy: TrapPolicy,
    budget: u64,
) -> Result<(), TestCaseError> {
    let stepped = observe(boot_synthetic(words, policy), Dispatch::Step, budget);
    let traced = observe(boot_synthetic(words, policy), Dispatch::Traced, budget);
    prop_assert_eq!(stepped, traced, "traced diverged from step");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random straight-line programs: every instruction is batchable,
    /// so this pins the straight-line fallback's accounting (including
    /// the doubleword memory traffic the generator emits).
    #[test]
    fn straight_line_programs_agree(body in 4usize..120, seed in 0u64..10_000) {
        let words = random_program(body, seed, ProgramShape::StraightLine).expect("program");
        assert_synthetic_agrees(&words, TrapPolicy::Abort, 5_000)?;
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
        assert_synthetic_agrees(&words, TrapPolicy::Abort, 5_000)?;
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
        let observe_faulted = |dispatch: Dispatch| {
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
            let res = m.run(5_000);
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
            )
        };
        prop_assert_eq!(observe_faulted(Dispatch::Step), observe_faulted(Dispatch::Traced));
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
