//! Contention acceptance tests for the event-driven memory subsystem:
//! with the baseline (finite) L2 ports and bus bandwidth, memory-bound
//! 4-thread mixes observably contend, ILP mixes do not, and the parallel
//! sweep driver stays bit-deterministic.

use rat_core::mem::HierarchyConfig;
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::workload::{mixes_for_group, WorkloadGroup};
use rat_core::{parallel, MixResult, RunConfig, Runner};

fn quick_run() -> RunConfig {
    RunConfig {
        insts_per_thread: 4_000,
        warmup_insts: 2_000,
        max_cycles: 200_000_000,
        seed: 42,
        no_skip: false,
        no_drain: false,
    }
}

fn unlimited_config() -> SmtConfig {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.hierarchy = HierarchyConfig::hpca2008_baseline().unlimited_bandwidth();
    cfg
}

fn total_mem_stall(r: &MixResult) -> u64 {
    r.thread_stats.iter().map(|t| t.mem_stall_cycles).sum()
}

/// The ISSUE acceptance criterion: with `hpca2008_baseline()` ports and
/// bandwidth, MEM4 mixes lose strictly more cycles to the memory system
/// than with unlimited bandwidth (contention is observable), while ILP4
/// mixes change by less than 1%.
///
/// The MEM4 comparison runs under RaT: blocked ICOUNT threads barely
/// overlap their misses, but runahead threads flood the memory system
/// with concurrent prefetches — exactly the "threads competing for the
/// memory system" regime the event queue exists to sharpen.
#[test]
fn mem4_contends_ilp4_does_not() {
    let contended = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let unlimited = Runner::new(unlimited_config(), quick_run());

    let mem4 = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let rc = contended.run_mix(mem4, PolicyKind::Rat);
    let ru = unlimited.run_mix(mem4, PolicyKind::Rat);
    assert!(rc.complete && ru.complete);
    assert!(
        total_mem_stall(&rc) > total_mem_stall(&ru),
        "MEM4 stall cycles must be strictly higher under contention: \
         {} (finite bus) vs {} (unlimited)",
        total_mem_stall(&rc),
        total_mem_stall(&ru)
    );
    assert!(
        rc.throughput() < ru.throughput(),
        "finite bandwidth must cost MEM4 throughput: {:.4} vs {:.4}",
        rc.throughput(),
        ru.throughput()
    );
    assert!(
        rc.mem_events.bus_wait_cycles > 0,
        "the MEM4 mix must actually queue on the bus"
    );
    assert_eq!(
        ru.mem_events.contention_cycles(),
        0,
        "unlimited bandwidth must add no contention delay"
    );

    let ilp4 = &mixes_for_group(WorkloadGroup::Ilp4)[0];
    let ic = contended.run_mix(ilp4, PolicyKind::Icount);
    let iu = unlimited.run_mix(ilp4, PolicyKind::Icount);
    let rel = (ic.throughput() - iu.throughput()).abs() / iu.throughput();
    assert!(
        rel < 0.01,
        "ILP4 throughput must be contention-insensitive: {:.4} vs {:.4} ({:+.2}%)",
        ic.throughput(),
        iu.throughput(),
        100.0 * rel
    );
}

/// Runahead prefetches are speculative bus traffic: under RaT the MEM4
/// mix schedules strictly more bus transfers than the demand-only
/// ICOUNT run — the overhead side of the paper's §6.1 accounting.
#[test]
fn runahead_adds_bus_traffic() {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let mem4 = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let icount = runner.run_mix(mem4, PolicyKind::Icount);
    let rat = runner.run_mix(mem4, PolicyKind::Rat);
    assert!(
        rat.mem_events.bus_transfers > icount.mem_events.bus_transfers,
        "RaT bus transfers {} must exceed ICOUNT's {}",
        rat.mem_events.bus_transfers,
        icount.mem_events.bus_transfers
    );
}

/// The event queue must not break the parallel driver's determinism:
/// a sweep over MEM4 mixes is bit-identical at 1 and 4 worker threads.
#[test]
fn contended_sweep_is_thread_count_invariant() {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let mixes = &mixes_for_group(WorkloadGroup::Mem4)[..2];
    let serial = parallel::par_map(1, mixes, |_, mix| runner.run_mix(mix, PolicyKind::Rat));
    let threaded = parallel::par_map(4, mixes, |_, mix| runner.run_mix(mix, PolicyKind::Rat));
    for (s, t) in serial.iter().zip(&threaded) {
        assert_eq!(s.throughput().to_bits(), t.throughput().to_bits());
        assert_eq!(s.mem_events, t.mem_events);
        assert_eq!(total_mem_stall(s), total_mem_stall(t));
    }
}
