//! Ground truth under traced dispatch: the testbed pass attaches the
//! hardware-model observer, a ledger that takes batches inside
//! superblock traces under the default dispatch and records on the
//! step path. Its totals must not move by a bit — not against the
//! stepping reference, and not against the pinned values.

use nfp_repro::cc::FloatMode;
use nfp_repro::sim::{Dispatch, Machine};
use nfp_repro::testbed::{CacheConfig, MeasuredRun, Testbed};
use nfp_repro::workloads::{fse_kernels, hevc_kernels, machine_for, Kernel, Preset, KERNEL_BUDGET};

/// The quick preset's first HEVC and first FSE kernel.
fn kernels() -> [Kernel; 2] {
    let preset = Preset::quick();
    let hevc = hevc_kernels(&preset).expect("kernels").remove(0);
    let fse = fse_kernels(&preset).expect("kernels").remove(0);
    [hevc, fse]
}

fn measure(
    testbed: &Testbed,
    kernel: &Kernel,
    mode: FloatMode,
    dispatch: Dispatch,
) -> (MeasuredRun, Machine) {
    let mut machine = machine_for(kernel, mode).expect("machine");
    machine.set_dispatch(dispatch);
    let run = testbed
        .run(&mut machine, kernel.seed, KERNEL_BUDGET)
        .expect("testbed run");
    (run, machine)
}

/// `(cycles, energy_j bits, instret, row_misses)` of the cacheless
/// testbed. The integers are those the step-only, per-instruction
/// observer computed; the energies are the ledger's, priced once per
/// run from its counts, which differ from that observer's
/// per-instruction f64 sums by 4e-12 to 2.5e-10 relative.
const PINNED: [(&str, FloatMode, u64, u64, u64, u64); 4] = [
    (
        "hevc_gradpan_intra_qp10",
        FloatMode::Hard,
        37515992,
        0x3fd045838e8e226b,
        2692553,
        300909,
    ),
    (
        "hevc_gradpan_intra_qp10",
        FloatMode::Soft,
        62864892,
        0x3fdb82d2a74b98ba,
        4664591,
        303735,
    ),
    (
        "fse_img00",
        FloatMode::Hard,
        61726365,
        0x3fdaae9452cf5a16,
        3613195,
        672198,
    ),
    (
        "fse_img00",
        FloatMode::Soft,
        898834237,
        0x40191e05d40c7f94,
        67671989,
        1341973,
    ),
];

#[test]
fn traced_testbed_reproduces_the_pinned_ground_truth() {
    let testbed = Testbed::new();
    let kernels = kernels();
    for (name, mode, cycles, energy_bits, instret, row_misses) in PINNED {
        let kernel = kernels.iter().find(|k| k.name == name).expect("kernel");
        let (run, machine) = measure(&testbed, kernel, mode, Dispatch::Traced);
        let t = run.totals;
        let got = (t.cycles, t.energy_j.to_bits(), t.instret, t.row_misses);
        assert_eq!(
            got,
            (cycles, energy_bits, instret, row_misses),
            "{name} [{mode:?}]"
        );
        assert_eq!(run.run.instret, instret, "{name} [{mode:?}]");
        let stats = machine.dispatch_stats();
        assert!(
            stats.traced > 0,
            "{name} [{mode:?}] never ran traced: {stats:?}"
        );
    }
}

#[test]
fn testbed_runs_agree_across_dispatch_modes() {
    for testbed in [Testbed::new(), Testbed::with_cache(CacheConfig::default())] {
        for kernel in &kernels() {
            for mode in [FloatMode::Hard, FloatMode::Soft] {
                let [(stepped, _), (traced, _)] =
                    Dispatch::ALL.map(|d| measure(&testbed, kernel, mode, d));
                let what = format!("{} [{mode:?}] cache {:?}", kernel.name, testbed.cache);
                assert_eq!(stepped.totals, traced.totals, "{what}: totals");
                assert_eq!(
                    stepped.totals.energy_j.to_bits(),
                    traced.totals.energy_j.to_bits(),
                    "{what}: energy bits"
                );
                assert_eq!(
                    stepped.measurement, traced.measurement,
                    "{what}: measurement"
                );
                assert_eq!(stepped.run.instret, traced.run.instret, "{what}: instret");
                assert_eq!(stepped.run.counts, traced.run.counts, "{what}: counts");
                assert_eq!(stepped.run.words, traced.run.words, "{what}: output");
            }
        }
    }
}
