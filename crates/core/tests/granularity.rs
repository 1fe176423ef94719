//! End-to-end tests of the alternative classifier granularities used
//! by the E6 ablation: each must calibrate successfully and behave
//! sensibly on a known workload.

use nfp_core::{calibrate, count_classes, ClassCounter, Classifier, Coarse, Fine, Paper};
use nfp_sim::{Dispatch, Machine, MachineConfig, Observer, PcHistogram, RAM_BASE};
use nfp_sparc::asm::Assembler;
use nfp_sparc::cond::ICond;
use nfp_sparc::{AluOp, Instr, Operand, Reg};
use nfp_testbed::{HwObserver, Testbed};

/// A multiply-heavy loop: the class where Paper and Fine disagree.
fn mul_loop(iters: u32) -> Vec<u32> {
    let mut a = Assembler::new(RAM_BASE);
    a.set32(iters, Reg::l(0));
    a.mov(3, Reg::l(2));
    a.label("loop");
    for _ in 0..8 {
        a.alu(AluOp::SMul, Reg::l(2), Operand::Reg(Reg::l(2)), Reg::l(3));
    }
    a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
    a.b(ICond::Ne, "loop");
    a.nop();
    a.mov(0, Reg::o(0));
    a.ta(0);
    a.nop();
    a.finish().unwrap()
}

/// The reference counts: a `ClassCounter` classifying every stepped
/// instruction.
fn counts_for<C: Classifier + Copy>(classifier: C, words: &[u32]) -> Vec<u64> {
    let mut machine = Machine::boot(words);
    machine.set_dispatch(Dispatch::Step);
    let mut counter = ClassCounter::new(classifier);
    machine.run_observed(100_000_000, &mut counter).unwrap();
    counter.counts().to_vec()
}

#[test]
fn fine_model_beats_paper_on_multiply_heavy_code() {
    let testbed = Testbed::new();
    let paper_cal = calibrate(&testbed, &Paper, 3).unwrap();
    let fine_cal = calibrate(&testbed, &Fine, 3).unwrap();

    let words = mul_loop(200_000);
    let paper_est = paper_cal.model.estimate(&counts_for(Paper, &words));
    let fine_est = fine_cal.model.estimate(&counts_for(Fine, &words));

    let mut machine = Machine::boot(&words);
    let measured = testbed.run(&mut machine, 77, 1_000_000_000).unwrap();
    let truth = measured.measurement.time_s;

    let paper_err = ((paper_est.time_s - truth) / truth).abs();
    let fine_err = ((fine_est.time_s - truth) / truth).abs();
    // A multiply costs 4 cycles but Paper calibrates IntArith on 2-cycle
    // adds, so Paper must underestimate this kernel badly while Fine
    // (with its own multiply kernel) nails it.
    assert!(
        paper_err > 0.15,
        "paper model should miss on pure multiplies: {:.1}%",
        paper_err * 100.0
    );
    assert!(
        fine_err < 0.05,
        "fine model should be accurate: {:.1}%",
        fine_err * 100.0
    );
}

#[test]
fn coarse_model_is_exact_only_on_its_own_blend() {
    // The single-class model fits the average instruction of its
    // calibration blend; on a NOP-only loop it overestimates hugely.
    let testbed = Testbed::new();
    let coarse_cal = calibrate(&testbed, &Coarse, 4).unwrap();
    let mut a = Assembler::new(RAM_BASE);
    a.set32(200_000, Reg::l(0));
    a.label("loop");
    for _ in 0..8 {
        a.nop();
    }
    a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
    a.b(ICond::Ne, "loop");
    a.nop();
    a.mov(0, Reg::o(0));
    a.ta(0);
    a.nop();
    let words = a.finish().unwrap();

    let est = coarse_cal.model.estimate(&counts_for(Coarse, &words));
    let mut machine = Machine::boot(&words);
    let truth = testbed
        .run(&mut machine, 5, 1_000_000_000)
        .unwrap()
        .measurement
        .time_s;
    let err = (est.time_s - truth) / truth;
    assert!(
        err > 0.5,
        "coarse model should grossly overestimate a NOP loop: {:+.1}%",
        err * 100.0
    );
}

#[test]
fn classifier_counts_partition_the_instruction_stream() {
    let words = mul_loop(1_000);
    let total_paper: u64 = counts_for(Paper, &words).iter().sum();
    let total_fine: u64 = counts_for(Fine, &words).iter().sum();
    let total_coarse: u64 = counts_for(Coarse, &words).iter().sum();
    assert_eq!(total_paper, total_fine);
    assert_eq!(total_paper, total_coarse);
    // Fine moves the multiplies out of IntArith without losing any.
    let paper = counts_for(Paper, &words);
    let fine = counts_for(Fine, &words);
    let int_idx = nfp_sparc::Category::IntArith.index();
    assert_eq!(
        paper[int_idx],
        fine[int_idx] + fine[nfp_core::model::FINE_INT_MUL]
    );
    assert!(fine[nfp_core::model::FINE_INT_MUL] >= 8_000);
}

#[test]
fn class_counter_matches_builtin_category_counters() {
    let words = mul_loop(500);
    // Built-in counters from the machine.
    let mut machine = Machine::boot(&words);
    let run = machine.run(10_000_000).unwrap();
    // Observer-based Paper counter.
    let observed = counts_for(Paper, &words);
    for (cat, &n) in nfp_sparc::Category::ALL.iter().zip(&observed) {
        assert_eq!(run.counts[*cat], n, "{cat}");
    }
    let _ = Instr::NOP; // keep the import meaningful under cfg changes
}

/// `count_classes` on `machine`, checked against a stepped
/// `ClassCounter` run of the same words; asserts the counting run
/// retired inside traces, as the counter, a ledger, does under the
/// default dispatch.
fn assert_counted_traced<C: Classifier + Copy>(mut machine: Machine, classifier: C, words: &[u32]) {
    let (run, counts) = count_classes(&mut machine, &classifier, 10_000_000).unwrap();
    assert_eq!(counts, counts_for(classifier, words));
    assert_eq!(counts.iter().sum::<u64>(), run.instret);
    assert!(
        machine.dispatch_stats().traced > 0,
        "{:?}",
        machine.dispatch_stats()
    );
}

#[test]
fn count_classes_runs_traced_for_every_classifier() {
    let words = mul_loop(500);
    assert_counted_traced(Machine::boot(&words), Paper, &words);
    assert_counted_traced(Machine::boot(&words), Coarse, &words);
    assert_counted_traced(Machine::boot(&words), Fine, &words);
    // The counter folds the traces' own counts, so it needs none of
    // the machine's built-in counters.
    let mut uncounted = Machine::new(MachineConfig {
        count_categories: false,
        ..MachineConfig::default()
    });
    uncounted.load_image(RAM_BASE, &words).unwrap();
    assert_counted_traced(uncounted, Paper, &words);
}

#[test]
fn count_classes_counts_only_its_own_run() {
    let words = mul_loop(500);
    let mut machine = Machine::boot(&words);
    machine.run_until(1_000).unwrap();
    let (run, counts) = count_classes(&mut machine, &Paper, 10_000_000).unwrap();
    assert_eq!(counts.iter().sum::<u64>(), run.instret - 1_000);
}

/// Instructions a `run_observed` of `obs` on `words` retired inside
/// traces, under the default (traced) dispatch.
fn traced_with<O: Observer>(words: &[u32], obs: &mut O) -> u64 {
    let mut machine = Machine::boot(words);
    machine.run_observed(10_000_000, obs).unwrap();
    machine.dispatch_stats().traced
}

#[test]
fn only_ledgers_run_traced() {
    let words = mul_loop(500);
    let mut histogram = PcHistogram::new(RAM_BASE, words.len());
    assert_eq!(
        traced_with(&words, &mut histogram),
        0,
        "a record observer steps"
    );
    assert!(traced_with(&words, &mut ClassCounter::new(Fine)) > 0);
    assert!(traced_with(&words, &mut HwObserver::new(None)) > 0);
}
