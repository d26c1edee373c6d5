//! Cycle-skip equivalence suite: the event-driven fast-forward in
//! `SmtSimulator` must be a pure wall-clock optimization. For every
//! workload class and every policy, a skip-enabled run and a `--no-skip`
//! run must produce **bit-identical** `MixResult`s — same IPC bits, same
//! cycle counts, same contention counters, same per-thread statistics.
//!
//! If any of these fail, the quiescence predicate in
//! `SmtSimulator::next_interesting_cycle` claimed a cycle was dead when
//! some stage could still act (or `bulk_advance` mischarged the span).

use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{mixes_for_group, Mix, ThreadImage, WorkloadGroup};
use rat_core::{MixResult, RunConfig, Runner};

const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::RoundRobin,
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

fn quick(no_skip: bool) -> RunConfig {
    RunConfig {
        insts_per_thread: 1_500,
        warmup_insts: 700,
        max_cycles: 100_000_000,
        seed: 42,
        no_skip,
        no_drain: false,
    }
}

/// Every observable field of a `MixResult`, bit-exactly. Floats go
/// through `to_bits`; the counter structs are all integers, so their
/// `Debug` form is exact.
fn fingerprint(r: &MixResult) -> String {
    let ipc_bits: Vec<u64> = r.ipcs.iter().map(|i| i.to_bits()).collect();
    format!(
        "ipcs={ipc_bits:?} executed={} cycles={} complete={} mem_events={:?} threads={:?}",
        r.executed_insts, r.cycles, r.complete, r.mem_events, r.thread_stats
    )
}

fn run_pair(mix: &Mix, policy: PolicyKind) -> (MixResult, MixResult) {
    let skipping = Runner::new(SmtConfig::hpca2008_baseline(), quick(false)).run_mix(mix, policy);
    let stepped = Runner::new(SmtConfig::hpca2008_baseline(), quick(true)).run_mix(mix, policy);
    (skipping, stepped)
}

#[test]
fn ilp4_bit_identical_under_all_policies() {
    let mix = &mixes_for_group(WorkloadGroup::Ilp4)[0];
    for policy in ALL_POLICIES {
        let (skip, step) = run_pair(mix, policy);
        assert_eq!(
            fingerprint(&skip),
            fingerprint(&step),
            "{mix} under {policy}: skip-enabled and --no-skip runs diverged"
        );
    }
}

#[test]
fn mem4_bit_identical_under_all_policies() {
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    for policy in ALL_POLICIES {
        let (skip, step) = run_pair(mix, policy);
        assert_eq!(
            fingerprint(&skip),
            fingerprint(&step),
            "{mix} under {policy}: skip-enabled and --no-skip runs diverged"
        );
    }
}

#[test]
fn mix4_bit_identical_under_all_policies() {
    let mix = &mixes_for_group(WorkloadGroup::Mix4)[0];
    for policy in ALL_POLICIES {
        let (skip, step) = run_pair(mix, policy);
        assert_eq!(
            fingerprint(&skip),
            fingerprint(&step),
            "{mix} under {policy}: skip-enabled and --no-skip runs diverged"
        );
    }
}

#[test]
fn second_mem4_mix_spot_check() {
    // A different benchmark combination, in case mix 0 is structurally
    // special.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[3];
    for policy in [PolicyKind::Icount, PolicyKind::Rat] {
        let (skip, step) = run_pair(mix, policy);
        assert_eq!(
            fingerprint(&skip),
            fingerprint(&step),
            "{mix} under {policy}"
        );
    }
}

#[test]
fn truncated_runs_are_bit_identical_too() {
    // The deadline path is the subtlest part of the skip logic: a jump
    // must never cross the caller's max_cycles bound, because the
    // stepped run ends exactly there and `MixResult.cycles` reflects it.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let mk = |no_skip| RunConfig {
        insts_per_thread: 10_000_000, // unreachable: forces truncation
        warmup_insts: 200,
        max_cycles: 20_000,
        seed: 42,
        no_skip,
        no_drain: false,
    };
    let skip =
        Runner::new(SmtConfig::hpca2008_baseline(), mk(false)).run_mix(mix, PolicyKind::Icount);
    let step =
        Runner::new(SmtConfig::hpca2008_baseline(), mk(true)).run_mix(mix, PolicyKind::Icount);
    assert!(!skip.complete, "run must actually truncate");
    assert_eq!(fingerprint(&skip), fingerprint(&step));
}

/// Builds a bare simulator over one MEM4 mix (to read `SimStats`
/// diagnostics that `MixResult` does not carry).
fn build_sim(policy: PolicyKind, skip: bool) -> SmtSimulator {
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = policy;
    let cpus = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, 42 + i as u64).build_cpu())
        .collect();
    let mut sim = SmtSimulator::new(cfg, cpus);
    sim.set_cycle_skip(skip);
    sim
}

#[test]
fn mem4_actually_skips_a_large_fraction_of_cycles() {
    // The equivalence tests would pass vacuously if the predicate never
    // fired; make sure MEM4 — the motivating workload, where every
    // thread regularly wedges on a 400-cycle miss — skips substantially.
    let mut sim = build_sim(PolicyKind::Icount, true);
    sim.run_until_quota(3_000, 100_000_000);
    let skipped = sim.stats().skipped_cycles;
    let total = sim.cycles();
    assert!(
        skipped * 4 > total,
        "expected >25% of MEM4/ICOUNT cycles to be skipped, got {skipped}/{total}"
    );
    assert!(sim.stats().skip_spans > 0);
}

#[test]
fn disabled_skip_never_skips() {
    let mut sim = build_sim(PolicyKind::Icount, false);
    sim.run_until_quota(1_000, 100_000_000);
    assert_eq!(sim.stats().skipped_cycles, 0);
    assert_eq!(sim.stats().skip_spans, 0);
}
