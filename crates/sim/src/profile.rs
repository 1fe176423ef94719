//! Execution profiling observers: a per-PC hotspot histogram that can
//! be folded over a symbol table into a per-function profile, and a
//! bounded execution tracer for debugging.
//!
//! Attach them with
//! [`Machine::run_observed`](crate::Machine::run_observed). They read
//! every [`ExecInfo`] record, and records come only from stepping, so
//! a profiled run steps whatever
//! [`MachineConfig::dispatch`](crate::MachineConfig::dispatch) says
//! (see [`Observer`]): these are debugging tools, and run at the step
//! path's speed.

use crate::exec::{ExecInfo, Observer};
use nfp_sparc::disasm;
use std::collections::HashMap;

/// Per-PC execution counts (flat array over the text segment).
pub struct PcHistogram {
    base: u32,
    counts: Vec<u64>,
    /// Executions outside `[base, base + 4*counts.len())`.
    pub other: u64,
}

impl PcHistogram {
    /// Histogram covering `words` instruction slots starting at `base`.
    pub fn new(base: u32, words: usize) -> Self {
        PcHistogram {
            base,
            counts: vec![0; words],
            other: 0,
        }
    }

    /// Execution count of the instruction at `pc`.
    pub fn count_at(&self, pc: u32) -> u64 {
        let idx = pc.wrapping_sub(self.base) as usize / 4;
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Total executions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.other
    }

    /// Folds the histogram over a symbol table into per-function
    /// counts. `symbols` maps name → address; each PC is attributed to
    /// the nearest symbol at or below it.
    pub fn by_function(&self, symbols: &HashMap<String, u32>) -> Vec<(String, u64)> {
        let mut sorted: Vec<(&str, u32)> = symbols.iter().map(|(n, &a)| (n.as_str(), a)).collect();
        sorted.sort_by_key(|&(_, a)| a);
        let mut totals: HashMap<&str, u64> = HashMap::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let pc = self.base + (i as u32) * 4;
            let owner = sorted
                .iter()
                .rev()
                .find(|&&(_, a)| a <= pc)
                .map(|&(n, _)| n)
                .unwrap_or("<unknown>");
            *totals.entry(owner).or_default() += c;
        }
        let mut out: Vec<(String, u64)> = totals
            .into_iter()
            .map(|(n, c)| (n.to_string(), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The hottest `n` individual instructions as `(pc, count)`.
    pub fn hottest(&self, n: usize) -> Vec<(u32, u64)> {
        let mut pcs: Vec<(u32, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.base + (i as u32) * 4, c))
            .collect();
        pcs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pcs.truncate(n);
        pcs
    }
}

impl Observer for PcHistogram {
    #[inline]
    fn observe(&mut self, info: &ExecInfo) {
        let idx = info.pc.wrapping_sub(self.base) as usize / 4;
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.other += 1,
        }
    }
}

/// Bounded execution tracer: records the first `limit` executed
/// instructions as disassembly lines (the simulator analogue of the
/// paper's debug output path through the disassembler, Fig. 2).
pub struct Tracer {
    /// Collected trace lines.
    pub lines: Vec<String>,
    limit: usize,
    /// Instructions seen (including those beyond the limit).
    pub seen: u64,
}

impl Tracer {
    /// Tracer keeping at most `limit` lines.
    pub fn new(limit: usize) -> Self {
        Tracer {
            lines: Vec::with_capacity(limit.min(4096)),
            limit,
            seen: 0,
        }
    }
}

impl Observer for Tracer {
    fn observe(&mut self, info: &ExecInfo) {
        self.seen += 1;
        if self.lines.len() < self.limit {
            self.lines.push(format!(
                "{:08x}  {}",
                info.pc,
                disasm::disassemble(&info.instr, info.pc)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::RAM_BASE;
    use crate::machine::Machine;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::cond::ICond;
    use nfp_sparc::{AluOp, Reg};

    fn loop_program(iters: u32) -> Vec<u32> {
        let mut a = Assembler::new(RAM_BASE);
        a.set32(iters, Reg::l(0));
        a.label("loop");
        a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0));
        a.b(ICond::Ne, "loop");
        a.nop();
        a.mov(0, Reg::o(0));
        a.ta(0);
        a.nop();
        a.finish().unwrap()
    }

    #[test]
    fn histogram_counts_loop_body() {
        let words = loop_program(100);
        let mut m = Machine::boot(&words);
        let mut hist = PcHistogram::new(RAM_BASE, words.len());
        m.run_observed(100_000, &mut hist).unwrap();
        // set32 emits sethi+or (2 words); the subcc at word offset 2
        // executes 100 times.
        assert_eq!(hist.count_at(RAM_BASE + 8), 100);
        assert_eq!(hist.other, 0);
        let hottest = hist.hottest(3);
        assert_eq!(hottest[0].1, 100);
    }

    /// A ledger that counts what retires.
    #[derive(Default)]
    struct Retired(u64);

    impl Observer for Retired {
        const LEDGER: bool = true;

        fn observe(&mut self, _info: &ExecInfo) {
            self.0 += 1;
        }

        fn retire_batch(&mut self, counts: &nfp_sparc::CategoryCounts, _: &crate::Residue) {
            self.0 += counts.total();
        }
    }

    #[test]
    fn observers_see_every_instruction_despite_batched_dispatch() {
        // Dispatch defaults to traced, but a histogram reads records,
        // so its run steps: one that ran traced would see nothing of
        // the loop. A ledger on the same program runs the loop traced
        // and still counts every retirement.
        let words = loop_program(25);
        let mut m = Machine::boot(&words);
        assert_eq!(
            m.config().dispatch,
            crate::Dispatch::Traced,
            "default config batches"
        );
        let mut hist = PcHistogram::new(RAM_BASE, words.len());
        let r = m.run_observed(100_000, &mut hist).unwrap();
        assert_eq!(hist.total(), r.instret, "one observation per retirement");
        assert_eq!(hist.count_at(RAM_BASE + 8), 25);
        assert_eq!(
            m.dispatch_stats().stepped,
            r.instret,
            "the histogram stepped"
        );
        let mut m = Machine::boot(&words);
        let mut ledger = Retired::default();
        let r = m.run_observed(100_000, &mut ledger).unwrap();
        assert_eq!(ledger.0, r.instret);
        assert!(m.dispatch_stats().traced > 0, "the ledger ran traced");
    }

    #[test]
    fn by_function_attributes_to_nearest_symbol() {
        let words = loop_program(10);
        let mut m = Machine::boot(&words);
        let mut hist = PcHistogram::new(RAM_BASE, words.len());
        m.run_observed(100_000, &mut hist).unwrap();
        let mut symbols = HashMap::new();
        symbols.insert("entry".to_string(), RAM_BASE);
        symbols.insert("epilogue".to_string(), RAM_BASE + 16);
        let prof = hist.by_function(&symbols);
        let total: u64 = prof.iter().map(|p| p.1).sum();
        assert_eq!(total, hist.total());
        assert_eq!(prof[0].0, "entry"); // the loop dominates
    }

    #[test]
    fn tracer_is_bounded_but_counts_everything() {
        let words = loop_program(50);
        let mut m = Machine::boot(&words);
        let mut tracer = Tracer::new(5);
        m.run_observed(100_000, &mut tracer).unwrap();
        assert_eq!(tracer.lines.len(), 5);
        assert!(tracer.seen > 100);
        assert!(tracer.lines[0].starts_with("40000000"));
        assert!(tracer.lines[2].contains("subcc"));
    }
}
