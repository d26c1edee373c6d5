//! Cycle-skip equivalence suite: the event-driven fast-forward in
//! `SmtSimulator` must be a pure wall-clock optimization. For every
//! workload class and every policy, `Runner::run_mix` (which always
//! skips) and the same cell stepped cycle by cycle
//! (`SmtSimulator::set_cycle_skip(false)`) must produce **bit-identical**
//! `MixResult`s — same IPC bits, same cycle counts, same contention
//! counters, same per-thread statistics, at the end of the run and at
//! each thread's quota.
//!
//! If any of these fail, the quiescence predicate in
//! `SmtSimulator::next_interesting_cycle` claimed a cycle was dead when
//! some stage could still act (or `bulk_advance` mischarged the span).

use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, Mix, WorkloadGroup};
use rat_core::{MixResult, RunConfig, Runner};

mod driven_run;
use driven_run::run_driven;

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

fn quick() -> Runner {
    Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: 1_500,
            warmup_insts: 700,
            max_cycles: 100_000_000,
            seed: 42,
            no_drain: false,
        },
    )
}

/// Asserts that `runner`'s skipping `run_mix` and the stepped run of the
/// same cell encode identically (every field of a `MixResult`; floats as
/// their bits), and returns the skipping run's result.
fn assert_skip_matches_stepping(runner: &Runner, mix: &Mix, policy: PolicyKind) -> MixResult {
    let skipping = runner.run_mix(mix, policy);
    let stepped = run_driven(runner, mix, policy, false, &mut |_| u64::MAX);
    assert_eq!(
        encode_result(&skipping),
        encode_result(&stepped),
        "{mix} under {policy}: the skipping and the stepped runs diverged"
    );
    skipping
}

#[test]
fn ilp4_bit_identical_under_all_policies() {
    let mix = &mixes_for_group(WorkloadGroup::Ilp4)[0];
    for policy in ALL_POLICIES {
        assert_skip_matches_stepping(&quick(), mix, policy);
    }
}

#[test]
fn mem4_bit_identical_under_all_policies() {
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    for policy in ALL_POLICIES {
        assert_skip_matches_stepping(&quick(), mix, policy);
    }
}

#[test]
fn mix4_bit_identical_under_all_policies() {
    let mix = &mixes_for_group(WorkloadGroup::Mix4)[0];
    for policy in ALL_POLICIES {
        assert_skip_matches_stepping(&quick(), mix, policy);
    }
}

#[test]
fn second_mem4_mix_spot_check() {
    // A different benchmark combination, in case mix 0 is structurally
    // special.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[3];
    for policy in [PolicyKind::Icount, PolicyKind::Rat] {
        assert_skip_matches_stepping(&quick(), mix, policy);
    }
}

#[test]
fn truncated_runs_are_bit_identical_too() {
    // The deadline path is the subtlest part of the skip logic: a jump
    // must never cross the caller's max_cycles bound, because the
    // stepped run ends exactly there and `MixResult.cycles` reflects it.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let runner = Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: 10_000_000, // unreachable: forces truncation
            warmup_insts: 200,
            max_cycles: 20_000,
            seed: 42,
            no_drain: false,
        },
    );
    let r = assert_skip_matches_stepping(&runner, mix, PolicyKind::Icount);
    assert!(!r.complete, "run must actually truncate");
}

/// Builds a bare simulator over one MEM4 mix (to read `SimStats`
/// diagnostics that `MixResult` does not carry).
fn build_sim(policy: PolicyKind, skip: bool) -> SmtSimulator {
    let mut sim = quick().simulator(&mixes_for_group(WorkloadGroup::Mem4)[0], policy);
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
