//! The ledger the differential suites attach: one digest of what a run
//! told it.

use nfp_sim::{ExecInfo, Observer, Residue};
use nfp_sparc::{Category, CategoryCounts, Instr};
use std::hash::{Hash, Hasher};

/// A ledger that folds what it is told into one digest: category
/// counts, [`Residue`] sums, and an ordered hash of the memory-access
/// and FPU-operand events. A stepped record maps onto the same digest
/// the way `HwObserver::observe` maps it, so a traced run must match
/// the step reference event by event.
#[derive(Default)]
pub struct Fingerprint {
    counts: CategoryCounts,
    sums: [u64; 4],
    events: std::collections::hash_map::DefaultHasher,
}

impl Observer for Fingerprint {
    const LEDGER: bool = true;

    fn observe(&mut self, info: &ExecInfo) {
        let (mul, div) = match info.instr {
            Instr::Alu { op, .. } => (op.is_mul(), op.is_div()),
            _ => (false, false),
        };
        let residue = Residue {
            ones: info.result_ones as u64,
            untaken: (info.branch_taken == Some(false)) as u64,
            int_mul: mul as u64,
            int_div: div as u64,
        };
        let mut one = CategoryCounts::new();
        one.bump(info.category);
        self.retire_batch(&one, &residue);
        if let Some(addr) = info.mem_addr {
            self.mem_access(addr, info.category == Category::MemStore);
        }
        if let Some(bits) = info.fpu_rs2_bits {
            self.fpu_operand(info.category, bits);
        }
    }

    fn mem_access(&mut self, addr: u32, store: bool) {
        (addr, store).hash(&mut self.events);
    }

    fn fpu_operand(&mut self, category: Category, bits: u64) {
        (category, bits).hash(&mut self.events);
    }

    fn retire_batch(&mut self, counts: &CategoryCounts, r: &Residue) {
        self.counts = self.counts.merged(counts);
        for (sum, n) in self
            .sums
            .iter_mut()
            .zip([r.ones, r.untaken, r.int_mul, r.int_div])
        {
            *sum += n;
        }
    }
}

impl Fingerprint {
    /// The digest, rendered for comparison.
    pub fn digest(&self) -> String {
        format!("{:?} {:?} {}", self.counts, self.sums, self.events.finish())
    }
}
