//! Optional cache model — the paper's stated future work ("Further
//! work aims at incorporating a model for the cache").
//!
//! The evaluated LEON3 configuration is cacheless (Section V), and the
//! paper argues its two workloads have such high locality that "cache
//! misses play a minor role". This module makes that argument
//! testable: a direct-mapped data cache (write-through, no-allocate on
//! write, like the LEON3's optional D-cache) can be composed with the
//! [`crate::HwModel`] observer. With the cache enabled, memory cost
//! becomes strongly context-dependent — and the constant-cost
//! mechanistic model degrades, quantifying exactly why the paper
//! excluded caches from its first model (extension experiment E8).
//!
//! The cache is the one part of the board whose state every access
//! changes, so [`CachedHwObserver`] runs each retired access through
//! it, in retirement order, from the simulator's memory hook. Its price
//! stays a ledger: the cacheless [`crate::Ledger`] plus the counts of
//! load hits and load misses, evaluated once per run.

use nfp_sim::{ExecInfo, Observer, Residue};
use nfp_sparc::{Category, CategoryCounts};

/// Direct-mapped cache geometry and timing.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Number of cache lines (power of two).
    pub lines: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Load latency on a hit, in cycles (replaces the SDRAM access).
    pub hit_cycles: u64,
    /// Additional line-fill penalty on a miss, in cycles.
    pub miss_fill_cycles: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 4 KiB direct-mapped, 16-byte lines: a typical small LEON3
        // D-cache configuration.
        CacheConfig {
            lines: 256,
            line_bytes: 16,
            hit_cycles: 2,
            miss_fill_cycles: 12,
        }
    }
}

/// Direct-mapped cache state with hit/miss accounting.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Tag per line; `u64::MAX` marks an invalid line.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
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
            hits: 0,
            misses: 0,
        }
    }

    /// Simulates an access; returns true on hit. Loads allocate,
    /// stores are write-through no-allocate (they never change the
    /// tags, matching the modelled LEON3 D-cache policy).
    pub fn access(&mut self, addr: u32, is_load: bool) -> bool {
        let line_addr = (addr / self.config.line_bytes) as u64;
        let index = (line_addr as usize) & (self.config.lines - 1);
        let hit = self.tags[index] == line_addr;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if is_load {
                self.tags[index] = line_addr;
            }
        }
        hit
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in [0, 1]; zero before any access.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

/// Dynamic energy a load hit saves against the SDRAM access, in
/// joules.
pub const HIT_SAVED_J: f64 = 140.0e-9;
/// Dynamic energy of a load miss's line fill, in joules.
pub const FILL_J: f64 = 30.0e-9;

/// An observer wrapping [`crate::HwObserver`]'s ledger with a data
/// cache: loads that hit cost [`CacheConfig::hit_cycles`] instead of
/// the SDRAM access; misses cost the SDRAM access plus the fill
/// penalty. Non-memory instructions are charged exactly like the
/// cacheless model. Like the cacheless observer it is a ledger: the
/// cache sees every access through [`Observer::mem_access`] (or a
/// stepped record's address), and the run's price adds the load hits
/// and misses it counted to the cacheless ledger's.
pub struct CachedHwObserver {
    inner: crate::HwObserver,
    cache: Cache,
    load_hits: u64,
    load_misses: u64,
}

impl CachedHwObserver {
    /// Wraps the cacheless hardware model with a data cache.
    pub fn new(hw: crate::HwModel, cache: CacheConfig) -> Self {
        CachedHwObserver {
            inner: crate::HwObserver::new(hw),
            cache: Cache::new(cache),
            load_hits: 0,
            load_misses: 0,
        }
    }

    /// The cacheless ledger underneath.
    pub fn ledger(&self) -> &crate::Ledger {
        self.inner.ledger()
    }

    /// Ground-truth totals with the cache adjustment applied: each load
    /// hit credits the SDRAM access it avoided, each load miss adds the
    /// line fill. Leakage stays that of the cacheless cycles.
    pub fn totals(&self) -> crate::HwTotals {
        let base = self.inner.totals();
        let config = &self.cache.config;
        let hits = self.load_hits as i64;
        let misses = self.load_misses as i64;
        // A hit replaces the SDRAM access, a load's base cycles.
        let sdram = crate::CostClass::Load.price().cycles as i64;
        let adjustment_cycles =
            misses * config.miss_fill_cycles as i64 - hits * (sdram - config.hit_cycles as i64);
        let adjustment_energy_j = misses as f64 * FILL_J - hits as f64 * HIT_SAVED_J;
        crate::HwTotals {
            cycles: (base.cycles as i64 + adjustment_cycles).max(0) as u64,
            energy_j: (base.energy_j + adjustment_energy_j).max(0.0),
            ..base
        }
    }

    /// Cache statistics.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Runs one retired access through the cache; loads count as hits
    /// or misses for the run's price.
    #[inline(always)]
    fn access(&mut self, addr: u32, store: bool) {
        let hit = self.cache.access(addr, !store);
        if !store {
            if hit {
                self.load_hits += 1;
            } else {
                self.load_misses += 1;
            }
        }
    }
}

impl Observer for CachedHwObserver {
    const LEDGER: bool = true;

    fn observe(&mut self, info: &ExecInfo) {
        self.inner.observe(info);
        if let Some(addr) = info.mem_addr {
            self.access(addr, info.category == Category::MemStore);
        }
    }

    #[inline(always)]
    fn mem_access(&mut self, addr: u32, store: bool) {
        self.inner.mem_access(addr, store);
        self.access(addr, store);
    }

    #[inline(always)]
    fn fpu_operand(&mut self, category: Category, bits: u64) {
        self.inner.fpu_operand(category, bits);
    }

    #[inline(always)]
    fn retire_batch(&mut self, counts: &CategoryCounts, residue: &Residue) {
        self.inner.retire_batch(counts, residue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(cache.stats(), (2, 2));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let mut cache = Cache::new(CacheConfig {
            lines: 4,
            line_bytes: 16,
            ..CacheConfig::default()
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
        let hw = crate::HwModel::default();
        // Cacheless baseline: 100 loads of the same word.
        let mut plain = crate::HwObserver::new(hw.clone());
        for _ in 0..100 {
            plain.observe(&load_info(0x4000_2000));
        }
        let mut cached = CachedHwObserver::new(hw, CacheConfig::default());
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
        assert_eq!(cached.cache().stats().0, 99);
    }

    #[test]
    fn cached_observer_slows_down_streaming_misses() {
        let hw = crate::HwModel::default();
        let mut plain = crate::HwObserver::new(hw.clone());
        let mut cached = CachedHwObserver::new(hw, CacheConfig::default());
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
