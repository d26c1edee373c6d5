//! Side-by-side look at the event-driven memory subsystem: the same
//! MEM4/ILP4 mixes with the baseline (finite) L2 ports + memory bus and
//! with `unlimited_bandwidth()` (the old latency-only model).
//!
//! Expected shape: the ILP4 mix is contention-insensitive (<1% change),
//! the MEM4 mix under RaT loses visible throughput to bus serialization,
//! and the unlimited run reports zero contention cycles.
//!
//! ```sh
//! cargo run --release --example contention_probe
//! ```

use rat_core::mem::HierarchyConfig;
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::workload::{mixes_for_group, WorkloadGroup};
use rat_core::{RunConfig, Runner};

fn main() {
    let run = RunConfig {
        insts_per_thread: 4_000,
        warmup_insts: 2_000,
        max_cycles: 200_000_000,
        seed: 42,
        no_drain: false,
    };
    let mut ucfg = SmtConfig::hpca2008_baseline();
    ucfg.hierarchy = HierarchyConfig::hpca2008_baseline().unlimited_bandwidth();
    for (name, cfg) in [
        ("contended", SmtConfig::hpca2008_baseline()),
        ("unlimited", ucfg),
    ] {
        let r = Runner::new(cfg, run);
        for (g, pol) in [
            (WorkloadGroup::Mem4, PolicyKind::Icount),
            (WorkloadGroup::Mem4, PolicyKind::Rat),
            (WorkloadGroup::Ilp4, PolicyKind::Icount),
        ] {
            let m = &mixes_for_group(g)[0];
            let res = r.run_mix(m, pol);
            let stall: u64 = res.thread_stats.iter().map(|t| t.mem_stall_cycles).sum();
            println!(
                "{name:10} {g:?} {pol:?}: cycles {:>8} throughput {:.4} mem_stall {:>8} \
                 bus_wait {:>6} port_wait {:>5} transfers {:>7}",
                res.cycles,
                res.throughput(),
                stall,
                res.mem_events.bus_wait_cycles,
                res.mem_events.port_wait_cycles,
                res.mem_events.bus_transfers
            );
        }
    }
}
