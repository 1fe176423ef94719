//! Optional cache model — the paper's stated future work ("Further
//! work aims at incorporating a model for the cache").
//!
//! The evaluated LEON3 configuration is cacheless (Section V), and the
//! paper argues its two workloads have such high locality that "cache
//! misses play a minor role". This module makes that argument
//! testable: a direct-mapped data cache (write-through, no-allocate on
//! write, like the LEON3's optional D-cache) that the board's one
//! observer, [`crate::HwObserver`], runs every retired access through,
//! in retirement order. With the cache enabled, memory cost becomes
//! strongly context-dependent — and the constant-cost mechanistic model
//! degrades, quantifying exactly why the paper excluded caches from its
//! first model (extension experiment E8).
//!
//! The cache's prices are consts beside the rest of the board's price
//! table: its state decides only whether a load hits, and the
//! observer's [`crate::Ledger`] counts load hits and misses, which
//! [`crate::Ledger::totals`] prices once per run.

/// Direct-mapped cache geometry.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of cache lines (power of two).
    pub lines: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 4 KiB direct-mapped, 16-byte lines: a typical small LEON3
        // D-cache configuration.
        CacheConfig {
            lines: 256,
            line_bytes: 16,
        }
    }
}

/// Load latency on a hit, in cycles (replaces the SDRAM access).
pub const HIT_CYCLES: u64 = 2;
/// Additional line-fill penalty of a load miss, in cycles.
pub const FILL_CYCLES: u64 = 12;
/// Dynamic energy a load hit saves against the SDRAM access, in
/// joules.
pub const HIT_SAVED_J: f64 = 140.0e-9;
/// Dynamic energy of a load miss's line fill, in joules.
pub const FILL_J: f64 = 30.0e-9;

/// Direct-mapped cache state: its tags. Hits and misses are counted
/// by whoever asks, as the board's ledger counts load hits and misses.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Tag per line; `u64::MAX` marks an invalid line.
    tags: Vec<u64>,
}

impl Cache {
    /// An empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.lines.is_power_of_two(), "line count must be 2^n");
        assert!(config.line_bytes.is_power_of_two(), "line size must be 2^n");
        let lines = config.lines;
        Cache {
            config,
            tags: vec![u64::MAX; lines],
        }
    }

    /// Simulates an access; returns true on hit. Loads allocate,
    /// stores are write-through no-allocate (they never change the
    /// tags, matching the modelled LEON3 D-cache policy).
    pub fn access(&mut self, addr: u32, is_load: bool) -> bool {
        let line_addr = (addr / self.config.line_bytes) as u64;
        let index = (line_addr as usize) & (self.config.lines - 1);
        let hit = self.tags[index] == line_addr;
        if !hit && is_load {
            self.tags[index] = line_addr;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HwObserver;
    use nfp_sim::{ExecInfo, Observer};
    use nfp_sparc::{Instr, MemSize, Operand, Reg};

    fn load_info(addr: u32) -> ExecInfo {
        let instr = Instr::Load {
            size: MemSize::Word,
            signed: false,
            rd: Reg::o(0),
            rs1: Reg::o(1),
            op2: Operand::Imm(0),
        };
        ExecInfo {
            pc: 0x4000_0000,
            instr,
            category: instr.category(),
            mem_addr: Some(addr),
            branch_taken: None,
            fpu_rs2_bits: None,
            result_ones: 0,
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut cache = Cache::new(CacheConfig::default());
        assert!(!cache.access(0x4000_1000, true));
        assert!(cache.access(0x4000_1000, true));
        assert!(cache.access(0x4000_1004, true)); // same 16-byte line
        assert!(!cache.access(0x4000_1010, true)); // next line
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut cache = Cache::new(CacheConfig {
            lines: 4,
            line_bytes: 16,
        });
        // Two addresses 4 lines apart map to the same index.
        assert!(!cache.access(0x0, true));
        assert!(!cache.access(4 * 16, true)); // evicts line 0
        assert!(!cache.access(0x0, true)); // miss again
    }

    #[test]
    fn stores_do_not_allocate() {
        let mut cache = Cache::new(CacheConfig::default());
        assert!(!cache.access(0x100, false)); // write miss
        assert!(!cache.access(0x100, true)); // still a load miss
        assert!(cache.access(0x100, true)); // now allocated
    }

    #[test]
    fn cached_observer_speeds_up_hot_loops() {
        // Cacheless baseline: 100 loads of the same word.
        let mut plain = HwObserver::new(None);
        for _ in 0..100 {
            plain.observe(&load_info(0x4000_2000));
        }
        let mut cached = HwObserver::new(Some(CacheConfig::default()));
        for _ in 0..100 {
            cached.observe(&load_info(0x4000_2000));
        }
        assert!(
            cached.totals().cycles < plain.totals().cycles / 3,
            "hot loop should be much faster with a cache: {} vs {}",
            cached.totals().cycles,
            plain.totals().cycles
        );
        assert!(cached.totals().energy_j < plain.totals().energy_j);
        assert_eq!(cached.ledger().load_hits(), 99);
        assert_eq!(cached.ledger().load_misses(), 1);
    }

    #[test]
    fn cached_observer_slows_down_streaming_misses() {
        let mut plain = HwObserver::new(None);
        let mut cached = HwObserver::new(Some(CacheConfig::default()));
        // Strided accesses that never revisit a line.
        for i in 0..100u32 {
            plain.observe(&load_info(0x4000_0000 + i * 64));
            cached.observe(&load_info(0x4000_0000 + i * 64));
        }
        assert!(cached.totals().cycles > plain.totals().cycles);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_geometry_rejected() {
        Cache::new(CacheConfig {
            lines: 100,
            ..CacheConfig::default()
        });
    }
}
