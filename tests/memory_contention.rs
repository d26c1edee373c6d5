//! Contention acceptance tests for the event-driven memory subsystem:
//! with the baseline (finite) L2 ports and bus bandwidth, memory-bound
//! 4-thread mixes observably contend, ILP mixes do not, and the parallel
//! sweep driver stays bit-deterministic.

use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::workload::{mixes_for_group, WorkloadGroup};
use rat_core::{parallel, MixResult, RunConfig, Runner};

fn quick_run() -> RunConfig {
    RunConfig {
        insts_per_thread: 4_000,
        warmup_insts: 2_000,
        max_cycles: 200_000_000,
        seed: 42,
        no_drain: false,
    }
}

fn total_mem_stall(r: &MixResult) -> u64 {
    r.thread_stats.iter().map(|t| t.mem_stall_cycles).sum()
}

/// With the Table 1 ports and bandwidth, a MEM4 mix under RaT queues on
/// both the L2 ports and the memory bus, while an ILP4 mix under ICOUNT
/// loses under 1% of its memory stall cycles to contention
/// (`MemEventStats::contention_cycles`, the delay the event model
/// added) in its measurement window.
///
/// The MEM4 case runs under RaT: blocked ICOUNT threads barely overlap
/// their misses, but runahead threads flood the memory system with
/// concurrent prefetches — exactly the "threads competing for the memory
/// system" regime the event queue exists to sharpen.
#[test]
fn mem4_contends_ilp4_does_not() {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());

    let mem4 = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let rat = runner.run_mix(mem4, PolicyKind::Rat);
    assert!(rat.complete);
    assert!(
        rat.mem_events.bus_wait_cycles > 0,
        "the MEM4 mix must queue on the bus"
    );
    assert!(
        rat.mem_events.port_wait_cycles > 0,
        "the MEM4 mix must queue at the L2 ports"
    );

    // `MemEventStats` counts from cycle 0 and the thread stats from the
    // stats reset, so the ILP4 cell is driven as `run_mix` drives it,
    // with the contention counters read at the reset: both sides of the
    // ratio then cover the measurement window alone.
    let run = runner.run_config();
    let mut sim = runner.simulator(&mixes_for_group(WorkloadGroup::Ilp4)[0], PolicyKind::Icount);
    sim.run_until_quota(run.warmup_insts, run.max_cycles);
    let at_reset = sim.stats().mem_events.contention_cycles();
    sim.reset_stats();
    sim.set_quota_drain(!run.no_drain);
    assert!(sim.run_until_quota(run.insts_per_thread, run.max_cycles));
    let contention = sim.stats().mem_events.contention_cycles() - at_reset;
    let stall: u64 = sim.stats().threads.iter().map(|t| t.mem_stall_cycles).sum();
    assert!(
        contention * 100 < stall,
        "ILP4 must be contention-insensitive: {contention} contention cycles \
         of {stall} memory stall cycles"
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
