//! The two-level hierarchy protocol: L1 (I or D) → shared L2 → memory,
//! with per-cycle L2-port and memory-bus arbitration (see
//! [`crate::event`]).

use crate::cache::{Cache, CacheConfig, CacheStats, Probe};
use crate::event::{MemEventQueue, MemEventStats};
use crate::Cycle;

/// The kind of access being performed, for stats attribution and to decide
/// whether a rejection matters (prefetches may simply be dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch through the I-cache.
    InstFetch,
    /// Demand data load.
    Load,
    /// Store address access (write-allocate).
    Store,
    /// Speculative prefetch (runahead). Fills caches; nothing waits on it.
    Prefetch,
}

/// The outcome of a hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available to the requester.
    pub ready_at: Cycle,
    /// Whether the L1 lookup hit (fill completed).
    pub l1_hit: bool,
    /// Whether the request was satisfied by the L2 (hit or in-flight fill
    /// sourced from an L2 hit).
    pub l2_hit: bool,
    /// Whether the request ultimately waits on main memory. This is the
    /// "long-latency load" trigger used by STALL/FLUSH/RaT.
    pub l2_miss: bool,
    /// Whether the request merged with an earlier in-flight miss.
    pub merged: bool,
    /// Whether the request was rejected for lack of MSHRs; the caller must
    /// retry (demand) or drop (prefetch). No state was changed.
    pub rejected: bool,
}

impl AccessResult {
    fn rejected() -> Self {
        AccessResult {
            ready_at: 0,
            l1_hit: false,
            l2_hit: false,
            l2_miss: false,
            merged: false,
            rejected: true,
        }
    }
}

/// Configuration of the full hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main memory latency in cycles (Table 1: 400). Includes one
    /// uncontended bus crossing (see `bus_cycles_per_line`).
    pub memory_latency: Cycle,
    /// MSHRs kept free for demand traffic when a speculative
    /// (prefetch/runahead) miss asks for one, so speculation never starves
    /// demand misses.
    pub prefetch_mshr_reserve: usize,
    /// L2 lookup ports (at least 1): at most this many *new* L2 lookups
    /// start per cycle; excess lookups are delayed to the next free port
    /// cycle.
    pub l2_ports: usize,
    /// Cycles (at least 1) one 64-byte line occupies the L2↔memory bus.
    /// Transfers serialize in request order, so concurrent misses drain
    /// at bus bandwidth. A lone miss is unaffected: `memory_latency`
    /// already covers one transfer.
    pub bus_cycles_per_line: Cycle,
}

impl HierarchyConfig {
    /// The Table 1 memory subsystem. Table 1 gives the cache geometries
    /// and the 400-cycle memory latency but does not publish bus
    /// bandwidth or L2 port counts, so those are calibrated rather than
    /// copied: 2 L2 ports (era-typical for a banked L2), and a memory
    /// path that transfers one line per cycle. One line per cycle keeps
    /// the machine *latency-bound* for 1–2 thread workloads — the
    /// regime the paper's headline RaT speedups assume — while still
    /// serializing the same-cycle miss bursts of 4-thread MEM mixes,
    /// which is where shared-bus contention is actually observable
    /// ([`MemEventStats::contention_cycles`] reports the delay it adds).
    /// Narrower buses (4–8 cycles/line) make the streaming MEM mixes
    /// bandwidth-bound and cap runahead's prefetching gains well below
    /// the published figures.
    pub const fn hpca2008_baseline() -> Self {
        HierarchyConfig {
            icache: CacheConfig::hpca2008_icache(),
            dcache: CacheConfig::hpca2008_dcache(),
            l2: CacheConfig::hpca2008_l2(),
            memory_latency: 400,
            prefetch_mshr_reserve: 8,
            l2_ports: 2,
            bus_cycles_per_line: 1,
        }
    }
}

/// The simulated memory hierarchy shared by all SMT threads.
///
/// Thread isolation/contention: callers tag addresses with the thread id in
/// high bits, so distinct threads' working sets conflict in these shared
/// caches exactly as distinct address spaces would.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    memory_latency: Cycle,
    prefetch_reserve: usize,
    mem_accesses: u64,
    events: MemEventQueue,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache configuration is inconsistent (see
    /// [`Cache::new`]), or if `l2_ports` or `bus_cycles_per_line` is 0
    /// (see [`MemEventQueue::new`]).
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            l2: Cache::new(cfg.l2),
            memory_latency: cfg.memory_latency,
            prefetch_reserve: cfg.prefetch_mshr_reserve,
            mem_accesses: 0,
            events: MemEventQueue::new(cfg.l2_ports, cfg.bus_cycles_per_line),
        }
    }

    /// I-cache stats.
    pub fn icache_stats(&self) -> &CacheStats {
        self.icache.stats()
    }

    /// D-cache stats.
    pub fn dcache_stats(&self) -> &CacheStats {
        self.dcache.stats()
    }

    /// L2 stats.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Total requests that went to main memory.
    pub fn memory_accesses(&self) -> u64 {
        self.mem_accesses
    }

    /// L2-port and memory-bus contention counters (cumulative).
    pub fn event_stats(&self) -> &MemEventStats {
        self.events.stats()
    }

    /// Memory-bus transfers scheduled but not complete at `now`.
    pub fn in_flight_transfers(&mut self, now: Cycle) -> usize {
        self.events.in_flight_transfers(now)
    }

    /// The completion cycle of the earliest in-flight memory-bus
    /// transfer, if any (see [`MemEventQueue::next_ready_cycle`]). Used
    /// by the cycle-skipping simulator core as one bound on how far the
    /// clock may jump.
    pub fn next_ready_cycle(&self) -> Option<Cycle> {
        self.events.next_ready_cycle()
    }

    /// Instruction fetch at `addr` (already thread-tagged).
    pub fn fetch_access(&mut self, addr: u64, now: Cycle) -> AccessResult {
        self.level_access(addr, AccessKind::InstFetch, now)
    }

    /// Data access at `addr` (already thread-tagged).
    pub fn data_access(&mut self, addr: u64, kind: AccessKind, now: Cycle) -> AccessResult {
        debug_assert!(kind != AccessKind::InstFetch, "use fetch_access for ifetch");
        self.level_access(addr, kind, now)
    }

    /// Probes the D-cache only, without filling on a miss. Returns the
    /// data-ready cycle on a hit (or in-flight fill), `None` on a miss.
    /// This models the NoPrefetch runahead ablation of the paper (§6.1):
    /// runahead loads may not access the L2 or memory.
    pub fn l1_data_probe(&mut self, addr: u64, now: Cycle) -> Option<Cycle> {
        let latency = self.dcache.config().latency;
        match self.dcache.probe(addr, now) {
            Probe::Hit => Some(now + latency),
            Probe::InFlight(ready, _) => Some(ready.max(now) + latency),
            Probe::Miss => None,
        }
    }

    fn level_access(&mut self, addr: u64, kind: AccessKind, now: Cycle) -> AccessResult {
        let is_fetch = kind == AccessKind::InstFetch;
        let l1 = if is_fetch {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        let l1_latency = l1.config().latency;

        match l1.probe(addr, now) {
            Probe::Hit => {
                if kind == AccessKind::Prefetch {
                    l1.stats_mut().prefetches += 1;
                }
                return AccessResult {
                    ready_at: now + l1_latency,
                    l1_hit: true,
                    l2_hit: false,
                    l2_miss: false,
                    merged: false,
                    rejected: false,
                };
            }
            Probe::InFlight(ready, from_l2_miss) => {
                // Merge with the in-flight fill. The request still counts as
                // a long-latency (L2) miss if a substantial memory wait
                // remains; a fill that is about to land behaves like an L2
                // hit for policy purposes.
                let l2_latency = self.l2.config().latency;
                let long = from_l2_miss && ready.saturating_sub(now) > l2_latency + l1_latency;
                return AccessResult {
                    ready_at: ready.max(now) + l1_latency,
                    l1_hit: false,
                    l2_hit: !long,
                    l2_miss: long,
                    merged: true,
                    rejected: false,
                };
            }
            Probe::Miss => {}
        }

        // L1 miss: need an L1 MSHR to track the fill. Speculative misses
        // must leave headroom for demand misses.
        let reserve = if kind == AccessKind::Prefetch {
            self.prefetch_reserve
        } else {
            0
        };
        if !l1.mshr_available_with_reserve(now, reserve) {
            l1.stats_mut().rejected += 1;
            return AccessResult::rejected();
        }

        // The miss goes to the L2: retire completed bus transfers, then
        // arbitrate for an L2 lookup port. Everything downstream (the L2
        // probe, the memory request, the fill) shifts with `start`.
        self.events.drain(now);
        let start = self.events.acquire_port(now);
        let l2_latency = self.l2.config().latency;
        let (fill_ready, from_l2_miss, l2_hit, merged) = match self.l2.probe(addr, start) {
            Probe::Hit => (start + l1_latency + l2_latency, false, true, false),
            Probe::InFlight(ready, from_mem) => {
                let long = from_mem && ready.saturating_sub(start) > l2_latency;
                (ready.max(start) + l1_latency, long, !long, true)
            }
            Probe::Miss => {
                if !self.l2.mshr_available_with_reserve(start, reserve) {
                    self.l2.stats_mut().rejected += 1;
                    // The L1 probe consumed stats but installed nothing;
                    // reject the whole access.
                    return AccessResult::rejected();
                }
                self.mem_accesses += 1;
                // The line must cross the memory bus; concurrent misses
                // serialize there instead of overlapping for free.
                let uncontended = start + l1_latency + l2_latency + self.memory_latency;
                let ready = self.events.reserve_bus(uncontended);
                self.l2.fill(addr, ready, true, start);
                (ready, true, false, false)
            }
        };

        let l1 = if is_fetch {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        l1.fill(addr, fill_ready, from_l2_miss, now);
        if kind == AccessKind::Prefetch {
            l1.stats_mut().prefetches += 1;
        }

        AccessResult {
            ready_at: fill_ready,
            l1_hit: false,
            l2_hit,
            l2_miss: from_l2_miss,
            merged,
            rejected: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            icache: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                latency: 1,
                mshrs: 2,
            },
            dcache: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                latency: 3,
                mshrs: 2,
            },
            l2: CacheConfig {
                size_bytes: 8192,
                ways: 4,
                line_bytes: 64,
                latency: 20,
                mshrs: 4,
            },
            memory_latency: 400,
            prefetch_mshr_reserve: 1,
            l2_ports: 1,
            bus_cycles_per_line: 8,
        })
    }

    #[test]
    fn cold_load_goes_to_memory() {
        let mut h = small();
        let r = h.data_access(0x1000, AccessKind::Load, 0);
        assert!(r.l2_miss && !r.l1_hit && !r.l2_hit && !r.rejected);
        assert_eq!(r.ready_at, 3 + 20 + 400);
        assert_eq!(h.memory_accesses(), 1);
    }

    #[test]
    fn second_load_merges() {
        let mut h = small();
        let first = h.data_access(0x1000, AccessKind::Load, 0);
        let second = h.data_access(0x1008, AccessKind::Load, 5);
        assert!(second.merged);
        assert!(
            second.l2_miss,
            "large remaining wait still counts as L2 miss"
        );
        assert!(second.ready_at >= first.ready_at);
        assert_eq!(h.memory_accesses(), 1);
    }

    #[test]
    fn hit_after_fill_completes() {
        let mut h = small();
        let first = h.data_access(0x1000, AccessKind::Load, 0);
        let hit = h.data_access(0x1000, AccessKind::Load, first.ready_at + 1);
        assert!(hit.l1_hit);
        assert_eq!(hit.ready_at, first.ready_at + 1 + 3);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = small();
        let f = h.data_access(0x1000, AccessKind::Load, 0);
        let t = f.ready_at + 1;
        // Two more lines mapping to the same L1 set (1KB/2w/64B = 8 sets,
        // set stride 512B) evict 0x1000 from L1 but not from L2.
        let a = h.data_access(0x1000 + 512, AccessKind::Load, t);
        let b = h.data_access(0x1000 + 1024, AccessKind::Load, t);
        let t2 = a.ready_at.max(b.ready_at) + 1;
        let r = h.data_access(0x1000, AccessKind::Load, t2);
        assert!(!r.l1_hit && r.l2_hit && !r.l2_miss);
        assert_eq!(r.ready_at, t2 + 3 + 20);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut h = small();
        assert!(!h.data_access(0x0000, AccessKind::Load, 0).rejected);
        assert!(!h.data_access(0x2000, AccessKind::Load, 0).rejected);
        let r = h.data_access(0x4000, AccessKind::Load, 0);
        assert!(r.rejected, "third concurrent L1D miss must be rejected");
        // After the fills land, new misses are accepted again.
        let r2 = h.data_access(0x4000, AccessKind::Load, 1000);
        assert!(!r2.rejected);
    }

    #[test]
    fn prefetch_fills_for_later_demand() {
        let mut h = small();
        let p = h.data_access(0x6000, AccessKind::Prefetch, 0);
        assert!(p.l2_miss);
        let d = h.data_access(0x6000, AccessKind::Load, p.ready_at);
        assert!(d.l1_hit, "demand access after prefetch fill must hit");
        assert_eq!(h.dcache_stats().prefetches, 1);
    }

    #[test]
    fn ifetch_uses_icache() {
        let mut h = small();
        let r = h.fetch_access(0x100, 0);
        assert!(r.l2_miss);
        assert_eq!(h.icache_stats().misses, 1);
        assert_eq!(h.dcache_stats().accesses, 0);
        let again = h.fetch_access(0x100, r.ready_at);
        assert!(again.l1_hit);
        assert_eq!(again.ready_at, r.ready_at + 1);
    }

    #[test]
    fn near_complete_merge_counts_as_l2_hit() {
        let mut h = small();
        let f = h.data_access(0x1000, AccessKind::Load, 0);
        // 10 cycles before the fill lands, the remaining wait is small.
        let r = h.data_access(0x1000, AccessKind::Load, f.ready_at - 10);
        assert!(r.merged && !r.l2_miss);
    }

    #[test]
    fn same_cycle_misses_to_distinct_lines_serialize() {
        // 1 L2 port + 8-cycle bus: the second miss is delayed at the port
        // (one cycle) and then queues a full line transfer behind the
        // first on the bus.
        let mut h = small();
        let a = h.data_access(0x1000, AccessKind::Load, 0);
        let b = h.data_access(0x2000, AccessKind::Load, 0);
        assert_eq!(a.ready_at, 3 + 20 + 400, "first miss is uncontended");
        assert_eq!(
            b.ready_at,
            a.ready_at + 8,
            "second line waits out the first's bus transfer"
        );
        let ev = h.event_stats();
        assert_eq!(ev.port_conflicts, 1);
        assert_eq!(ev.bus_transfers, 2);
        assert!(ev.bus_wait_cycles > 0);
        assert_eq!(h.in_flight_transfers(a.ready_at), 1);
        assert_eq!(h.in_flight_transfers(b.ready_at), 0);
    }

    #[test]
    fn same_line_misses_merge_into_one_mshr_and_transfer() {
        let mut h = small();
        let first = h.data_access(0x1000, AccessKind::Load, 0);
        let second = h.data_access(0x1008, AccessKind::Load, 0);
        assert!(second.merged && !second.rejected);
        assert_eq!(second.ready_at, first.ready_at + 3, "fill + L1 latency");
        assert_eq!(h.memory_accesses(), 1, "one MSHR, one memory request");
        assert_eq!(h.event_stats().bus_transfers, 1, "one line transfer");
        assert_eq!(h.dcache.outstanding_misses(0), 1);
    }

    #[test]
    fn baseline_contention_only_delays() {
        // Work conservation: contention may hold a miss past its
        // uncontended latency (L1 + L2 + memory), never speed it up.
        let cfg = HierarchyConfig::hpca2008_baseline();
        let uncontended = cfg.dcache.latency + cfg.l2.latency + cfg.memory_latency;
        let mut h = Hierarchy::new(cfg);
        for i in 0..32u64 {
            let addr = 0x1000 + i * 0x940; // distinct lines and sets
            let r = h.data_access(addr, AccessKind::Load, i / 4);
            assert!(!r.rejected && r.l2_miss);
            assert!(r.ready_at >= i / 4 + uncontended, "access {i}");
        }
        assert!(h.event_stats().contention_cycles() > 0);
    }

    #[test]
    fn thread_tagged_addresses_do_not_collide() {
        let mut h = small();
        let t0 = 0x1000u64;
        let t1 = (1u64 << 44) | 0x1000;
        let f = h.data_access(t0, AccessKind::Load, 0);
        let g = h.data_access(t1, AccessKind::Load, f.ready_at);
        assert!(g.l2_miss, "same vaddr in another thread is a distinct line");
    }
}
