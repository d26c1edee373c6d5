//! A single set-associative, LRU cache level with in-flight (MSHR) tracking.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Geometry and timing of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: usize,
    /// Associativity (power of two, `<= size_bytes / line_bytes`).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access (hit) latency in cycles.
    pub latency: Cycle,
    /// Maximum outstanding misses (MSHR entries).
    pub mshrs: usize,
}

impl CacheConfig {
    /// The paper's I-cache: 64 KB, 4-way, 64-byte lines, 1-cycle pipelined.
    pub const fn hpca2008_icache() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 1,
            mshrs: 8,
        }
    }

    /// The paper's D-cache: 64 KB, 4-way, 64-byte lines, 3-cycle latency.
    pub const fn hpca2008_dcache() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 3,
            mshrs: 64,
        }
    }

    /// The paper's L2: 1 MB, 8-way, 64-byte lines, 20-cycle latency.
    pub const fn hpca2008_l2() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 20,
            mshrs: 128,
        }
    }

    fn validate(&self) {
        assert!(
            self.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways >= 1, "cache must have at least one way");
        let lines = self.size_bytes / self.line_bytes;
        assert!(lines >= self.ways, "cache too small for its associativity");
        assert!(self.mshrs >= 1, "cache needs at least one MSHR");
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / self.line_bytes / self.ways
    }
}

/// Aggregate counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (demand + prefetch).
    pub accesses: u64,
    /// Lookups that found a line whose fill had completed.
    pub hits: u64,
    /// Lookups that found nothing and allocated a new miss.
    pub misses: u64,
    /// Lookups that merged with an in-flight fill (no new MSHR used).
    pub merged: u64,
    /// Lookups rejected because all MSHRs were busy.
    pub rejected: u64,
    /// Valid lines replaced by fills.
    pub evictions: u64,
    /// Subset of `accesses` issued as prefetches.
    pub prefetches: u64,
}

impl CacheStats {
    /// Miss ratio over completed (non-rejected) lookups.
    pub fn miss_ratio(&self) -> f64 {
        let done = self.hits + self.misses + self.merged;
        if done == 0 {
            0.0
        } else {
            (self.misses + self.merged) as f64 / done as f64
        }
    }
}

/// Outcome of probing one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Line present and filled: data available `latency` after the probe.
    Hit,
    /// Line is being filled: data available at the carried cycle; the
    /// boolean records whether the fill originated from an L2 miss
    /// (i.e. main memory), which policy triggers care about.
    InFlight(Cycle, bool),
    /// Line absent: caller must fill from the next level.
    Miss,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    valid_from: Cycle,
    from_l2_miss: bool,
    lru: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    valid_from: 0,
    from_l2_miss: false,
    lru: 0,
};

/// One set-associative cache level.
///
/// The cache does not chain to lower levels itself — [`crate::Hierarchy`]
/// owns the level-to-level protocol. This keeps each level independently
/// testable.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    lru_clock: u64,
    /// In-flight fill completion times, a min-heap ordered by completion
    /// cycle: expiry pops only due entries, so the no-expiry fast path —
    /// the overwhelmingly common case on a per-access MSHR check — is one
    /// peek instead of a linear scan over every outstanding miss.
    outstanding: BinaryHeap<Reverse<Cycle>>,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (non-power-of-two sizes,
    /// associativity larger than the line count, zero MSHRs).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![INVALID_LINE; num_sets * cfg.ways],
            set_mask: (num_sets - 1) as u64,
            line_shift: cfg.line_bytes.trailing_zeros(),
            lru_clock: 0,
            outstanding: BinaryHeap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to counters (the hierarchy attributes prefetches and
    /// rejections here).
    pub(crate) fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        (((addr >> self.line_shift) & self.set_mask) as usize) * self.cfg.ways
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Drops completed fills from the MSHR occupancy heap. Amortized O(1)
    /// when nothing is due (one heap peek).
    #[inline]
    fn expire_outstanding(&mut self, now: Cycle) {
        while let Some(&Reverse(ready)) = self.outstanding.peek() {
            if ready > now {
                break;
            }
            self.outstanding.pop();
        }
    }

    /// Number of misses still in flight at `now`.
    pub fn outstanding_misses(&mut self, now: Cycle) -> usize {
        self.expire_outstanding(now);
        self.outstanding.len()
    }

    /// Whether a new miss can be accepted at `now`.
    pub fn mshr_available(&mut self, now: Cycle) -> bool {
        self.outstanding_misses(now) < self.cfg.mshrs
    }

    /// Whether a new miss can be accepted while leaving `reserve` MSHRs
    /// free for demand traffic. Speculative (prefetch/runahead) misses use
    /// this so they cannot starve demand misses.
    pub fn mshr_available_with_reserve(&mut self, now: Cycle, reserve: usize) -> bool {
        self.outstanding_misses(now) + reserve < self.cfg.mshrs
    }

    /// Looks up `addr` at cycle `now`, updating LRU on hit. Does not fill.
    pub fn probe(&mut self, addr: u64, now: Cycle) -> Probe {
        self.stats.accesses += 1;
        let base = self.set_index(addr);
        let tag = self.tag(addr);
        self.lru_clock += 1;
        for way in 0..self.cfg.ways {
            let line = &mut self.sets[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.lru_clock;
                return if line.valid_from <= now {
                    self.stats.hits += 1;
                    Probe::Hit
                } else {
                    self.stats.merged += 1;
                    Probe::InFlight(line.valid_from, line.from_l2_miss)
                };
            }
        }
        self.stats.misses += 1;
        Probe::Miss
    }

    /// Installs the line containing `addr`, marking it filled at
    /// `valid_from`, and books an MSHR entry until then. The caller must
    /// have checked [`mshr_available`](Self::mshr_available).
    pub fn fill(&mut self, addr: u64, valid_from: Cycle, from_l2_miss: bool, now: Cycle) {
        debug_assert!(
            self.outstanding.len() < self.cfg.mshrs,
            "fill without MSHR space"
        );
        if valid_from > now {
            self.outstanding.push(Reverse(valid_from));
        }
        let base = self.set_index(addr);
        let tag = self.tag(addr);
        self.lru_clock += 1;
        // Reuse an invalid way if any, else evict true-LRU.
        let mut victim = base;
        let mut best_lru = u64::MAX;
        for way in 0..self.cfg.ways {
            let line = &self.sets[base + way];
            if !line.valid {
                victim = base + way;
                break;
            }
            if line.lru < best_lru {
                best_lru = line.lru;
                victim = base + way;
            }
        }
        if self.sets[victim].valid {
            self.stats.evictions += 1;
        }
        self.sets[victim] = Line {
            tag,
            valid: true,
            valid_from,
            from_l2_miss,
            lru: self.lru_clock,
        };
    }

    /// Whether the line containing `addr` is present (filled or in flight),
    /// without perturbing LRU or stats. For tests and assertions.
    pub fn contains(&self, addr: u64) -> bool {
        let base = self.set_index(addr);
        let tag = self.tag(addr);
        (0..self.cfg.ways).any(|w| {
            let l = &self.sets[base + w];
            l.valid && l.tag == tag
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 3,
            mshrs: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.probe(0x100, 0), Probe::Miss);
        c.fill(0x100, 10, true, 0);
        assert_eq!(c.probe(0x100, 5), Probe::InFlight(10, true));
        assert_eq!(c.probe(0x100, 10), Probe::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().merged, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_words_hit() {
        let mut c = tiny();
        c.fill(0x100, 0, false, 0);
        assert_eq!(c.probe(0x108, 1), Probe::Hit);
        assert_eq!(c.probe(0x138, 1), Probe::Hit);
        assert_eq!(c.probe(0x140, 1), Probe::Miss); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with addr bits [7:6] == 0: 0x000, 0x100, 0x200...
        c.fill(0x000, 0, false, 0);
        c.fill(0x100, 0, false, 0);
        assert_eq!(c.probe(0x000, 1), Probe::Hit); // touch 0x000 -> 0x100 is LRU
        c.fill(0x200, 1, false, 1);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn mshr_occupancy_expires() {
        let mut c = tiny();
        c.fill(0x000, 100, true, 0);
        c.fill(0x040, 100, true, 0);
        assert!(!c.mshr_available(50));
        assert_eq!(c.outstanding_misses(50), 2);
        assert!(c.mshr_available(100));
        assert_eq!(c.outstanding_misses(100), 0);
    }

    #[test]
    fn immediate_fill_books_no_mshr() {
        let mut c = tiny();
        c.fill(0x000, 0, false, 0);
        assert_eq!(c.outstanding_misses(0), 0);
    }

    #[test]
    fn num_sets_geometry() {
        assert_eq!(CacheConfig::hpca2008_icache().num_sets(), 256);
        assert_eq!(CacheConfig::hpca2008_l2().num_sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 500,
            ways: 2,
            line_bytes: 64,
            latency: 1,
            mshrs: 1,
        });
    }

    #[test]
    fn miss_ratio_math() {
        let mut c = tiny();
        c.probe(0x000, 0); // miss
        c.fill(0x000, 0, false, 0);
        c.probe(0x000, 0); // hit
        let s = c.stats();
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
    }
}
