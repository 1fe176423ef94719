//! Adversarial no-panic fuzz harness for the simulator.
//!
//! Long fault campaigns feed the machine corrupted instruction
//! streams, truncated images, and RAM geometries no hand-written
//! workload would produce. The robustness contract is that *nothing*
//! a guest image can contain panics `nfp-sim`: every malformed input
//! surfaces as a typed [`SimError`] / [`BusFault`] (or a clean run
//! result). Each property here simply drives the public API with
//! hostile inputs — a panic anywhere in the simulator fails the test.
//!
//! CI runs this file a second time with `PROPTEST_CASES` elevated.

use nfp_sim::fault::{inject, plan, undo, FaultSpace};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{Dispatch, Machine, MachineConfig, SimError, Watchdog, RAM_BASE};
use proptest::prelude::*;
use std::time::Duration;

/// Uniform choice over every dispatch mode.
fn any_dispatch() -> impl Strategy<Value = Dispatch> {
    (0usize..Dispatch::ALL.len()).prop_map(|i| Dispatch::ALL[i])
}

/// A machine with a small RAM (fast per-case allocation) in the given
/// execution/trap/FPU configuration.
fn small_machine(dispatch: Dispatch, recover: bool, fpu: bool) -> Machine {
    Machine::new(MachineConfig {
        ram_size: 1 << 20,
        fpu_enabled: fpu,
        dispatch,
        trap_policy: if recover {
            TrapPolicy::Recover
        } else {
            TrapPolicy::Abort
        },
        ..MachineConfig::default()
    })
}

/// Runs the loaded machine to completion under a bounded watchdog,
/// asserting only that no panic escapes: any `Result` is acceptable.
fn drive(m: &mut Machine) {
    let wd = Watchdog {
        max_instrs: 20_000,
        wall: Some(Duration::from_secs(5)),
    };
    let _ = m.run_watchdog(&wd);
}

proptest! {
    // Arbitrary instruction words through the full run loop: every
    // combination of dispatch mode, abort/recover policy, and FPU
    // presence. This is the harness that originally surfaced the
    // ragged-RAM-edge slicing panics fixed in `bus.rs`.
    #[test]
    fn arbitrary_instruction_words_never_panic(
        words in prop::collection::vec(any::<u32>(), 1..96),
        dispatch in any_dispatch(),
        recover in any::<bool>(),
        fpu in any::<bool>(),
    ) {
        let mut m = small_machine(dispatch, recover, fpu);
        m.load_image(RAM_BASE, &words).expect("aligned in-RAM image loads");
        drive(&mut m);
    }

    // The same arbitrary stream must behave identically under both
    // dispatch modes even when it is garbage: superblock traces and
    // the threaded straight-line fallback are optimisations, not
    // semantic switches, and corrupted code is exactly what fault
    // campaigns execute through them.
    #[test]
    fn arbitrary_words_agree_across_modes(
        words in prop::collection::vec(any::<u32>(), 1..64),
        recover in any::<bool>(),
    ) {
        let observe = |dispatch: Dispatch| {
            let mut m = small_machine(dispatch, recover, true);
            m.load_image(RAM_BASE, &words).expect("image loads");
            let wd = Watchdog { max_instrs: 5_000, wall: None };
            let res = m.run_watchdog(&wd);
            (format!("{res:?}"), m.instret(), *m.counts())
        };
        prop_assert_eq!(observe(Dispatch::Step), observe(Dispatch::Traced));
    }

    // A corrupted threaded dispatch-table entry (a linear instruction
    // whose entry claims it is a block ender) must surface as the
    // typed `SimError::DispatchViolation` — never a panic and never a
    // silently wrong run — whether it is hit mid-superblock through a
    // trace or through the straight-line fallback. A budget of
    // `index + 1` is shorter than any trace at head 0 that covers the
    // entry (the trace also holds the entry block's ender), so for an
    // entry in the entry block it is the fallback, not a trace, that
    // meets it.
    #[test]
    fn corrupted_dispatch_entries_never_panic(
        words in prop::collection::vec(any::<u32>(), 4..64),
        index in 0usize..64,
        short in any::<bool>(),
        recover in any::<bool>(),
    ) {
        let mut m = small_machine(Dispatch::Traced, recover, true);
        m.load_image(RAM_BASE, &words).expect("image loads");
        let corrupted = m.test_corrupt_dispatch(index % words.len());
        let budget = if short { (index % words.len()) as u64 + 1 } else { 5_000 };
        let wd = Watchdog { max_instrs: budget, wall: Some(Duration::from_secs(5)) };
        match m.run_watchdog(&wd) {
            Err(SimError::DispatchViolation { pc }) => {
                // Only a corrupted entry may report a routing
                // violation, and it carries the entry's own pc.
                prop_assert!(corrupted, "violation without corruption");
                prop_assert_eq!(pc, RAM_BASE + ((index % words.len()) as u32) * 4);
            }
            other => { let _ = format!("{other:?}"); }
        }
    }

    // Truncated and out-of-bounds images: random RAM geometry (sizes
    // deliberately not multiples of the access width), image bases at
    // and past the RAM edge. `load_image` must either succeed or
    // return a typed error — and a machine whose image straddles the
    // edge must still run without panicking.
    #[test]
    fn malformed_images_never_panic(
        ram_size in 4096u32..(1 << 16),
        base_off in 0u32..(1 << 17),
        words in prop::collection::vec(any::<u32>(), 0..64),
        dispatch in any_dispatch(),
    ) {
        let mut m = Machine::new(MachineConfig {
            ram_size,
            dispatch,
            ..MachineConfig::default()
        });
        // Unaligned bases must be rejected, never aliased.
        if let Err(e) = m.load_image(RAM_BASE + base_off, &words) {
            let _ = e.to_string();
            return Ok(());
        }
        drive(&mut m);
    }

    // Overlapping segment loads: the second image either lands
    // disjoint (and loads) or overlaps (and is rejected) — both paths
    // must leave a runnable, panic-free machine.
    #[test]
    fn overlapping_segments_never_panic(
        words in prop::collection::vec(any::<u32>(), 1..32),
        second_off in 0u32..256,
        second in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let mut m = small_machine(Dispatch::Traced, true, true);
        m.load_image(RAM_BASE, &words).expect("image loads");
        let mut bytes = Vec::new();
        for w in &second {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        match m.bus.write_bytes(RAM_BASE + second_off * 4, &bytes) {
            Ok(()) => {}
            Err(e) => { let _ = e.to_string(); }
        }
        drive(&mut m);
    }

    // Seeded fault plans over arbitrary code: inject, run, undo,
    // restore — the full campaign replay cycle on garbage programs.
    #[test]
    fn fault_replay_cycle_never_panics(
        words in prop::collection::vec(any::<u32>(), 4..48),
        seed in any::<u64>(),
        dispatch in any_dispatch(),
    ) {
        let mut m = small_machine(dispatch, true, true);
        m.load_image(RAM_BASE, &words).expect("image loads");
        let cp = m.checkpoint();
        let space = FaultSpace {
            max_instret: 64,
            code_len: words.len() as u32,
            ram_ranges: vec![(RAM_BASE, 4096)],
            fp: true,
        };
        for fault in plan(&space, 8, seed) {
            let armed = inject(&mut m, &fault).expect("in-bounds injection");
            drive(&mut m);
            undo(&mut m, &armed).expect("undo patches back");
            m.restore(&cp);
        }
    }

    // run_until must stop exactly at its target or report HaltedEarly,
    // never panic, even when the target lands mid-block (or
    // mid-superblock) of corrupted code.
    #[test]
    fn run_until_on_garbage_never_panics(
        words in prop::collection::vec(any::<u32>(), 1..48),
        target in 0u64..256,
        dispatch in any_dispatch(),
    ) {
        let mut m = small_machine(dispatch, true, true);
        m.load_image(RAM_BASE, &words).expect("image loads");
        match m.run_until(target) {
            Ok(()) => prop_assert_eq!(m.instret(), target),
            Err(SimError::HaltedEarly { instret }) => prop_assert!(instret <= target),
            Err(e) => { let _ = e.to_string(); }
        }
    }
}
