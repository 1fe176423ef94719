//! The board's ledger against per-instruction pricing. The hardware
//! observers keep integer counts that the simulator fills per batch
//! inside traces and per record on the step path; [`Reference`] prices
//! every record on its own from the same price table, the way the board
//! was priced before it kept a ledger. On random programs of every
//! shape, under both dispatch modes and on both boards, the two must
//! agree: every integer exactly, energy within 1e-9 relative (the
//! reference sums it in f64 one instruction at a time). The same
//! programs check the other ledger, the class counter: folding traced
//! batches must give the counts of classifying every stepped record.
//!
//! CI runs this file a second time with `PROPTEST_CASES` elevated.

use nfp_repro::cc::FloatMode;
use nfp_repro::core::{ClassCounter, Classifier, Coarse, Fine, Paper};
use nfp_repro::sim::{Dispatch, ExecInfo, Machine, Observer, TrapPolicy};
use nfp_repro::sparc::Category;
use nfp_repro::testbed::cache::{FILL_CYCLES, FILL_J, HIT_CYCLES, HIT_SAVED_J};
use nfp_repro::testbed::hw::{
    fpu_extra_cycles, CLOCK_HZ, FDIV_EXTRA_J, FSQRT_EXTRA_J, ROW_BYTES, ROW_MISS_CYCLES,
    ROW_MISS_J, STATIC_POWER_W, TOGGLE_J_PER_BIT,
};
use nfp_repro::testbed::{Cache, CacheConfig, CostClass, HwObserver, COST_CLASSES};
use nfp_repro::workloads::synth::{random_program, ProgramShape};
use nfp_repro::workloads::{hevc_kernels, machine_for, Preset, KERNEL_BUDGET};
use proptest::prelude::*;

/// Per-instruction pricing: each record's cycles and energy from its
/// [`CostClass`] price plus its own context effects, accumulated one
/// retirement at a time; with a cache, each load's hit credit or miss
/// penalty likewise.
struct Reference {
    cache: Option<Cache>,
    open_row: Option<u32>,
    cycles: u64,
    energy_j: f64,
    /// Cache adjustment of cycles and energy.
    adjust_cycles: i64,
    adjust_j: f64,
    /// Loads that hit and that missed the cache.
    load_hits: u64,
    load_misses: u64,
    row_misses: u64,
    classes: [u64; COST_CLASSES],
}

impl Reference {
    fn new(cache: Option<CacheConfig>) -> Self {
        Reference {
            cache: cache.map(Cache::new),
            open_row: None,
            cycles: 0,
            energy_j: 0.0,
            adjust_cycles: 0,
            adjust_j: 0.0,
            load_hits: 0,
            load_misses: 0,
            row_misses: 0,
            classes: [0; COST_CLASSES],
        }
    }
}

impl Observer for Reference {
    fn observe(&mut self, info: &ExecInfo) {
        let class = CostClass::of(info);
        let price = class.price();
        let extra = info
            .fpu_rs2_bits
            .map_or(0, |bits| fpu_extra_cycles(info.category, bits));
        let extra_j = match info.category {
            Category::FpuDiv => FDIV_EXTRA_J,
            Category::FpuSqrt => FSQRT_EXTRA_J,
            _ => 0.0,
        };
        let mut cycles = price.cycles + extra;
        let mut dynamic_j = price.dynamic_j + extra as f64 * extra_j;
        if let Some(addr) = info.mem_addr {
            let row = addr / ROW_BYTES;
            if self.open_row != Some(row) {
                cycles += ROW_MISS_CYCLES;
                dynamic_j += ROW_MISS_J;
                self.row_misses += 1;
                self.open_row = Some(row);
            }
            if let Some(cache) = &mut self.cache {
                let load = info.category == Category::MemLoad;
                let hit = cache.access(addr, load);
                if load && hit {
                    let saved = CostClass::Load.price().cycles - HIT_CYCLES;
                    self.adjust_cycles -= saved as i64;
                    self.adjust_j -= HIT_SAVED_J;
                    self.load_hits += 1;
                } else if load {
                    self.adjust_cycles += FILL_CYCLES as i64;
                    self.adjust_j += FILL_J;
                    self.load_misses += 1;
                }
            }
        }
        let static_j = STATIC_POWER_W * (cycles as f64 / CLOCK_HZ);
        self.cycles += cycles;
        self.energy_j += dynamic_j + info.result_ones as f64 * TOGGLE_J_PER_BIT + static_j;
        self.classes[CostClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("a class")] += 1;
    }
}

/// What a board's pricing of one run shows: cycles, instret, row
/// misses, instructions per cost class, cache (load hits, load misses),
/// and energy.
#[derive(Debug)]
struct Priced {
    cycles: u64,
    instret: u64,
    row_misses: u64,
    classes: [u64; COST_CLASSES],
    cache: Option<(u64, u64)>,
    energy_j: f64,
}

/// Runs `machine` under `budget` with the board's ledger observer; a
/// trap or an exhausted budget ends the run like a halt.
fn ledger(mut machine: Machine, cache: Option<CacheConfig>, budget: u64) -> Priced {
    let cached = cache.is_some();
    let mut obs = HwObserver::new(cache);
    let _ = machine.run_observed(budget, &mut obs);
    let t = obs.totals();
    Priced {
        cycles: t.cycles,
        instret: t.instret,
        row_misses: t.row_misses,
        classes: obs.ledger().class_counts(),
        cache: cached.then(|| (obs.ledger().load_hits(), obs.ledger().load_misses())),
        energy_j: t.energy_j,
    }
}

/// The same run priced per instruction.
fn reference(mut machine: Machine, cache: Option<CacheConfig>, budget: u64) -> Priced {
    let mut obs = Reference::new(cache);
    let _ = machine.run_observed(budget, &mut obs);
    Priced {
        cycles: (obs.cycles as i64 + obs.adjust_cycles).max(0) as u64,
        instret: obs.classes.iter().sum(),
        row_misses: obs.row_misses,
        classes: obs.classes,
        cache: obs.cache.as_ref().map(|_| (obs.load_hits, obs.load_misses)),
        energy_j: (obs.energy_j + obs.adjust_j).max(0.0),
    }
}

/// Asserts the ledger's pricing of a run equals per-instruction
/// pricing: every integer exactly, energy within 1e-9 relative.
fn assert_agrees(got: &Priced, want: &Priced, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.cycles, want.cycles, "{}: cycles", what);
    prop_assert_eq!(got.instret, want.instret, "{}: instret", what);
    prop_assert_eq!(got.row_misses, want.row_misses, "{}: row misses", what);
    prop_assert_eq!(got.classes, want.classes, "{}: class counts", what);
    prop_assert_eq!(got.cache, want.cache, "{}: cache hits/misses", what);
    let tolerance = 1e-9 * want.energy_j.abs();
    prop_assert!(
        (got.energy_j - want.energy_j).abs() <= tolerance,
        "{}: energy {} vs {}",
        what,
        got.energy_j,
        want.energy_j
    );
    Ok(())
}

const SHAPES: [ProgramShape; 4] = [
    ProgramShape::StraightLine,
    ProgramShape::Branchy,
    ProgramShape::CtiTail,
    ProgramShape::Mixed,
];

/// The paper's cacheless board and E8's board with a data cache.
fn boards() -> [Option<CacheConfig>; 2] {
    [None, Some(CacheConfig::default())]
}

fn boot(words: &[u32], policy: TrapPolicy, dispatch: Dispatch) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(policy);
    m.set_dispatch(dispatch);
    m
}

/// A class counter's counts of a run under the proptest's budget; a
/// trap or an exhausted budget ends the run like a halt.
fn class_counts<C: Classifier>(classifier: C, mut machine: Machine) -> Vec<u64> {
    let mut counter = ClassCounter::new(classifier);
    let _ = machine.run_observed(5_000, &mut counter);
    counter.counts().to_vec()
}

/// Asserts a traced class counter counts what a stepped one does.
fn assert_classes_agree<C: Classifier + Copy>(
    classifier: C,
    words: &[u32],
    policy: TrapPolicy,
    what: &str,
) -> Result<(), TestCaseError> {
    let got = class_counts(classifier, boot(words, policy, Dispatch::Traced));
    let want = class_counts(classifier, boot(words, policy, Dispatch::Step));
    prop_assert_eq!(got, want, "{}: class counts", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random programs of every shape, including `Mixed` (FP divides
    /// and square roots, `%y`, register windows, calls), under both
    /// trap policies: the ledger of a stepped and of a traced run
    /// equals per-instruction pricing on both boards, and a traced
    /// class counter counts what a stepped one does.
    #[test]
    fn ledger_equals_per_instruction_pricing(
        shape in 0usize..SHAPES.len(),
        body in 4usize..120,
        seed in 0u64..10_000,
        recover in 0u32..2,
    ) {
        let shape = SHAPES[shape];
        let words = random_program(body, seed, shape).expect("program");
        let policy = if recover == 1 { TrapPolicy::Recover } else { TrapPolicy::Abort };
        for cache in boards() {
            let want = reference(boot(&words, policy, Dispatch::Step), cache.clone(), 5_000);
            for dispatch in Dispatch::ALL {
                let got = ledger(boot(&words, policy, dispatch), cache.clone(), 5_000);
                let what = format!("{shape:?} {policy:?} {dispatch:?} cache {}", cache.is_some());
                assert_agrees(&got, &want, &what)?;
            }
        }
        let what = format!("{shape:?} {policy:?}");
        assert_classes_agree(Paper, &words, policy, &what)?;
        assert_classes_agree(Coarse, &words, policy, &what)?;
        assert_classes_agree(Fine, &words, policy, &what)?;
    }
}

/// A real kernel on both boards: millions of batches, row misses and
/// cache accesses priced the same as per instruction.
#[test]
fn ledger_equals_per_instruction_pricing_on_a_kernel() {
    let kernel = hevc_kernels(&Preset::quick()).expect("kernels").remove(0);
    for cache in boards() {
        let machine = || machine_for(&kernel, FloatMode::Hard).expect("machine");
        let want = reference(machine(), cache.clone(), KERNEL_BUDGET);
        let got = ledger(machine(), cache.clone(), KERNEL_BUDGET);
        let what = format!("{} cache {}", kernel.name, cache.is_some());
        assert_agrees(&got, &want, &what).expect("agrees");
    }
}
