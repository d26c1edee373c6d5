//! # rat-mem — event-driven simulated memory hierarchy
//!
//! Timing model of the memory subsystem from Table 1 of the paper:
//!
//! | level | default | latency |
//! |-------|---------|---------|
//! | I-cache | 64 KB, 4-way, 64 B lines | 1 cycle (pipelined) |
//! | D-cache | 64 KB, 4-way, 64 B lines | 3 cycles |
//! | L2 (unified, shared) | 1 MB, 8-way, 64 B lines | 20 cycles, 2 ports |
//! | memory bus | 1 line / cycle, FIFO | — |
//! | main memory | — | 400 cycles |
//!
//! Table 1 publishes the cache geometries, latencies and the 400-cycle
//! memory round trip; it does not publish L2 port counts or bus
//! bandwidth, so [`HierarchyConfig::hpca2008_baseline`] calibrates
//! those (see its docs for the reasoning).
//!
//! # The timing model
//!
//! The hierarchy is *event-driven and MSHR-limited*. Three mechanisms
//! combine per access:
//!
//! 1. **In-flight fills (miss merging).** A miss installs its line
//!    immediately with a `valid_from` fill timestamp; any later access to
//!    an in-flight line merges with it (returning the same completion
//!    cycle) instead of allocating a new miss — one MSHR, one memory
//!    request, one bus transfer per line, however many instructions
//!    touch it.
//! 2. **MSHR limits.** Outstanding misses are bounded per cache level;
//!    when the MSHRs are full the access is *rejected* and the pipeline
//!    must retry, which is exactly how runahead's memory-level
//!    parallelism gets bounded in hardware. Speculative (runahead)
//!    misses reserve headroom for demand traffic
//!    ([`HierarchyConfig::prefetch_mshr_reserve`]).
//! 3. **Shared-resource events.** A [`event::MemEventQueue`] arbitrates
//!    the two structures concurrent misses from different SMT threads
//!    actually compete for: the L2 lookup ports
//!    ([`HierarchyConfig::l2_ports`], one new lookup per port per cycle)
//!    and the L2↔memory bus ([`HierarchyConfig::bus_cycles_per_line`],
//!    one line transfer at a time, FIFO). A lone miss still completes at
//!    the fixed Table 1 latency; a burst of misses serializes
//!    realistically instead of overlapping for free. Pending transfers
//!    are a FIFO in completion order and all arbitration state is plain
//!    data, so the model stays deterministic (see the [`event`] module
//!    docs for the full invariant list).
//!
//! Contention is observable via [`Hierarchy::event_stats`]
//! (port-conflict and bus-occupancy counters;
//! [`MemEventStats::contention_cycles`] is the delay contention added),
//! which `rat_smt` surfaces per simulation.
//!
//! # Example
//!
//! ```
//! use rat_mem::{Hierarchy, HierarchyConfig, AccessKind};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::hpca2008_baseline());
//! let first = h.data_access(0x4000, AccessKind::Load, 0);
//! assert!(first.l2_miss); // cold miss goes to memory
//! let again = h.data_access(0x4000, AccessKind::Load, first.ready_at);
//! assert!(again.l1_hit); // the fill has landed
//! ```

mod cache;
pub mod event;
mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats, Probe};
pub use event::{MemEventQueue, MemEventStats};
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig};

/// A simulation cycle count.
pub type Cycle = u64;
