//! Basic-block segmentation of the predecoded instruction stream, and
//! the per-block category summaries behind one-commit-per-block NFP
//! accounting: superblock traces are built on this segmentation, and
//! the traced run loop's straight-line fallback commits its runs from
//! these prefix sums.
//!
//! The paper's counters are per-instruction, but their *values* only
//! depend on which instructions retired — so over a straight-line run
//! the simulator can add one precomputed vector instead of bumping a
//! counter per instruction (the same observation OVP's morpher and
//! EnergyAnalyzer's block-level accounting exploit). Segmentation
//! follows the classic leader rules adapted to SPARC: a block ends at
//! a control-transfer instruction (whose delay slot still belongs to
//! it) or at `t<cond>`, and a new block starts at every CTI target and
//! fall-through. Execution does not need the leader set explicitly:
//! the run loop enters a block at whatever index `pc` names and runs
//! to the next block-ending instruction, which this cache answers in
//! O(1) for *any* entry index via [`BlockCache::run_end`], with range
//! counter sums answered from a prefix-sum table.
//!
//! The cache is a pure function of the predecoded image, so
//! [`Machine::patch_code_word`](crate::Machine::patch_code_word) (and
//! with it every fault-injection code flip and undo) invalidates it;
//! the next traced run rebuilds it.

use nfp_sparc::{Category, CategoryCounts, Instr};

/// Per-image straight-line run ends and category prefix sums.
#[derive(Debug, Clone)]
pub struct BlockCache {
    /// `ender[i]` = index of the first block-ending instruction at or
    /// after `i` (`code.len()` if none remains): the exclusive end of
    /// the straight-line run starting at `i`.
    ender: Vec<u32>,
    /// `prefix[i]` = category counts of `code[0..i]`, so the counts of
    /// a straight-line range `[i, j)` are `prefix[j] - prefix[i]`.
    prefix: Vec<CategoryCounts>,
}

impl BlockCache {
    /// Builds the cache for a predecoded image.
    pub fn build(code: &[(Instr, Category)]) -> Self {
        let n = code.len();
        let mut ender = vec![0u32; n];
        let mut next = n as u32;
        for i in (0..n).rev() {
            if code[i].0.ends_block() {
                next = i as u32;
            }
            ender[i] = next;
        }
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = CategoryCounts::new();
        prefix.push(acc);
        for &(_, cat) in code {
            acc.bump(cat);
            prefix.push(acc);
        }
        BlockCache { ender, prefix }
    }

    /// Number of instructions the cache covers.
    pub fn len(&self) -> usize {
        self.ender.len()
    }

    /// True for an empty image.
    pub fn is_empty(&self) -> bool {
        self.ender.is_empty()
    }

    /// Exclusive end of the straight-line (linear-only) run starting at
    /// instruction index `i`: every instruction in `[i, run_end(i))` is
    /// executable by `exec_linear`, and `run_end(i)` itself is either a
    /// block-ending instruction or the end of the image.
    #[inline]
    pub fn run_end(&self, i: usize) -> usize {
        self.ender[i] as usize
    }

    /// Batched category counts of the straight-line range `[i, j)`
    /// (requires `i <= j <= len()`). Prefix sums are monotone, so the
    /// saturating `diff` is exact here.
    #[inline]
    pub fn range_counts(&self, i: usize, j: usize) -> CategoryCounts {
        self.prefix[j].diff(&self.prefix[i])
    }
}

/// Block-leader indices of a predecoded image at `base`, per the
/// classic rules adapted to SPARC delay slots: the entry point, every
/// statically known CTI target inside the image, and every block-ender
/// fall-through — two slots past a CTI (skipping its delay slot), but
/// only *one* past `t<cond>`, which has no delay slot (an untaken soft
/// trap continues at the very next word). The straight-line fallback
/// handles arbitrary entry points via [`BlockCache::run_end`], but
/// superblock trace formation seeds its trace heads from this set, so
/// a missed leader means a never-traced block.
pub fn leaders(code: &[(Instr, Category)], base: u32) -> Vec<usize> {
    let mut lead = vec![false; code.len()];
    if !code.is_empty() {
        lead[0] = true;
    }
    for (i, &(instr, _)) in code.iter().enumerate() {
        let Some(fall) = instr.fall_through_words() else {
            continue;
        };
        let pc = base.wrapping_add((i as u32) * 4);
        if let Some(target) = instr.static_target(pc) {
            let t = target.wrapping_sub(base) as usize / 4;
            if target.is_multiple_of(4) && target >= base && t < code.len() {
                lead[t] = true;
            }
        }
        if i + fall < code.len() {
            lead[i + fall] = true;
        }
    }
    lead.iter()
        .enumerate()
        .filter_map(|(i, &l)| l.then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::cond::ICond;
    use nfp_sparc::{AluOp, Reg};

    fn predecode(words: &[u32]) -> Vec<(Instr, Category)> {
        words
            .iter()
            .map(|&w| {
                let i = nfp_sparc::decode(w);
                (i, i.category())
            })
            .collect()
    }

    fn loop_program() -> Vec<u32> {
        let mut a = Assembler::new(0x4000_0000);
        a.mov(10, Reg::l(0)); // 0
        a.label("loop");
        a.alu(AluOp::SubCc, Reg::l(0), 1, Reg::l(0)); // 1
        a.b(ICond::Ne, "loop"); // 2  (CTI)
        a.nop(); // 3  (delay slot)
        a.mov(0, Reg::o(0)); // 4
        a.ta(0); // 5  (soft trap)
        a.nop(); // 6
        a.finish().unwrap()
    }

    #[test]
    fn run_end_stops_at_ctis_and_soft_traps() {
        let code = predecode(&loop_program());
        let cache = BlockCache::build(&code);
        assert_eq!(cache.len(), 7);
        // Straight-line run from the top ends at the branch (index 2).
        assert_eq!(cache.run_end(0), 2);
        assert_eq!(cache.run_end(1), 2);
        // At the branch itself the run is empty.
        assert_eq!(cache.run_end(2), 2);
        // The delay slot starts a fresh run that ends at `ta`.
        assert_eq!(cache.run_end(3), 5);
        assert_eq!(cache.run_end(5), 5);
        // Trailing code runs to the end of the image.
        assert_eq!(cache.run_end(6), 7);
    }

    #[test]
    fn range_counts_match_per_instruction_bumps() {
        let code = predecode(&loop_program());
        let cache = BlockCache::build(&code);
        for i in 0..=code.len() {
            for j in i..=code.len() {
                let mut want = CategoryCounts::new();
                for &(_, cat) in &code[i..j] {
                    want.bump(cat);
                }
                assert_eq!(cache.range_counts(i, j), want, "range [{i}, {j})");
            }
        }
    }

    #[test]
    fn leaders_cover_targets_and_fall_throughs() {
        let code = predecode(&loop_program());
        let lead = leaders(&code, 0x4000_0000);
        // Entry, the backward-branch target (index 1), the branch
        // fall-through (index 4), and the soft-trap fall-through
        // (index 6): `ta` has no delay slot, so the instruction
        // immediately after it heads the next block.
        assert_eq!(lead, vec![0, 1, 4, 6]);
    }

    #[test]
    fn ticc_fall_through_is_next_word_not_a_delay_slot() {
        // Regression: `t<cond>` was treated like a delay-slot CTI, so
        // the word at i+1 was never a leader and i+2 wrongly was.
        let mut a = Assembler::new(0x4000_0000);
        a.mov(1, Reg::o(0)); // 0
        a.push(Instr::Ticc {
            cond: ICond::E,
            rs1: nfp_sparc::regs::G0,
            op2: nfp_sparc::Operand::Imm(5),
        }); // 1  (conditional soft trap, untaken falls to 2)
        a.mov(2, Reg::o(1)); // 2  <- true fall-through
        a.mov(3, Reg::o(2)); // 3  <- NOT a leader (mid-block)
        a.ta(0); // 4
        a.nop(); // 5  <- soft-trap fall-through
        let code = predecode(&a.finish().unwrap());
        let lead = leaders(&code, 0x4000_0000);
        assert!(lead.contains(&2), "word after t<cond> must lead a block");
        assert!(
            !lead.contains(&3),
            "t<cond> has no delay slot; i+2 is mid-block"
        );
        assert!(lead.contains(&5));
    }

    #[test]
    fn empty_image() {
        let cache = BlockCache::build(&[]);
        assert!(cache.is_empty());
        assert_eq!(cache.range_counts(0, 0), CategoryCounts::new());
        assert!(leaders(&[], 0).is_empty());
    }
}
