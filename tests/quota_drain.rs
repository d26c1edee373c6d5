//! Post-quota drain equivalence suite: drain mode (see
//! `SmtSimulator::set_quota_drain`) demotes finished threads to a cheap
//! commit-only engine to kill the FAME overshoot — a fast thread
//! retiring many times its quota at full fidelity purely to keep
//! contending while the slowest thread finishes.
//!
//! Drain is *tail-only*: demotion fires only once a single thread is
//! still inside its measurement window (see the contract note in
//! `crates/smt/src/pipeline/drain.rs`). The fidelity contract this
//! suite enforces:
//!
//! 1. **Bit-identity for every non-last window.** No demotion can fire
//!    while two or more threads are measuring, so every thread whose
//!    quota window closes before the last thread's has seen a machine
//!    bit-identical to `--no-drain`: its frozen quota snapshot —
//!    `quota_cycle`, `committed_at_quota`, and every other
//!    `ThreadStats` counter — must match exactly. This is checked
//!    across all 6 policies × the fig1 workload groups. Runs in which
//!    *no* thread drains (single thread, truncation, same-cycle final
//!    quotas) must match on every observable.
//! 2. **Bounded drift on the last window.** Only the last thread's
//!    window overlaps drained companions, and only its post-overlap
//!    tail (after the second-to-last quota) sees approximated
//!    contention. The documented bound, at realistic window sizes
//!    (50k instructions per thread): last-thread IPC within 2% and
//!    Eq. 2 fairness within 2% of `--no-drain`. Short windows (≤25k)
//!    are excluded from the bound: there the tail is a handful of
//!    runahead episodes and single-episode divergence dominates (the
//!    same chaos a +8-instruction warmup perturbation produces).

use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{mixes_for_group, Mix, WorkloadGroup};
use rat_core::{MixResult, RunConfig, Runner};

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

fn quick(no_drain: bool, warmup_insts: u64) -> RunConfig {
    RunConfig {
        insts_per_thread: 1_500,
        warmup_insts,
        max_cycles: 100_000_000,
        seed: 42,
        no_drain,
    }
}

/// Every observable field of a `MixResult`, bit-exactly (same shape as
/// the cycle-skip/replay suites).
fn fingerprint(r: &MixResult) -> String {
    let ipc_bits: Vec<u64> = r.ipcs.iter().map(|i| i.to_bits()).collect();
    format!(
        "ipcs={ipc_bits:?} executed={} cycles={} complete={} mem_events={:?} threads={:?}",
        r.executed_insts, r.cycles, r.complete, r.mem_events, r.thread_stats
    )
}

fn run_pair(mix: &Mix, policy: PolicyKind, warmup: u64) -> (MixResult, MixResult) {
    let drained =
        Runner::new(SmtConfig::hpca2008_baseline(), quick(false, warmup)).run_mix(mix, policy);
    let full =
        Runner::new(SmtConfig::hpca2008_baseline(), quick(true, warmup)).run_mix(mix, policy);
    (drained, full)
}

/// Asserts the quota snapshot of every *non-last* thread — every thread
/// whose window closed strictly before the `--no-drain` run's last
/// quota cycle — is bit-identical between a drain and a `--no-drain`
/// run. Under tail-only drain no demotion can fire while two or more
/// threads are measuring, so these threads (including the
/// second-to-last finisher, whose snapshot freezes before the demotion
/// its own quota triggers) never see an approximated machine.
fn assert_non_last_identical(mix: &Mix, policy: PolicyKind, d: &MixResult, f: &MixResult) {
    let last = f
        .thread_stats_at_quota
        .iter()
        .filter_map(|s| s.and_then(|s| s.quota_cycle))
        .max()
        .expect("complete run has quota cycles");
    let mut checked = 0;
    for (tid, (ds, fs)) in d
        .thread_stats_at_quota
        .iter()
        .zip(&f.thread_stats_at_quota)
        .enumerate()
    {
        let fs = fs.expect("complete --no-drain run snapshots every thread");
        if fs.quota_cycle == Some(last) {
            continue;
        }
        let ds = ds.expect("complete drain run snapshots every thread");
        assert_eq!(
            (ds.quota_cycle, ds.committed_at_quota),
            (fs.quota_cycle, fs.committed_at_quota),
            "{mix} under {policy}: non-last thread {tid} quota point diverged"
        );
        assert_eq!(
            format!("{ds:?}"),
            format!("{fs:?}"),
            "{mix} under {policy}: non-last thread {tid} pre-quota stats diverged"
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "{mix} under {policy}: no non-last thread found"
    );
}

#[test]
fn non_last_windows_bit_identical_under_all_policies_ilp4() {
    let mix = &mixes_for_group(WorkloadGroup::Ilp4)[0];
    for policy in ALL_POLICIES {
        let (d, f) = run_pair(mix, policy, 0);
        assert_non_last_identical(mix, policy, &d, &f);
    }
}

#[test]
fn non_last_windows_bit_identical_under_all_policies_mem4() {
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    for policy in ALL_POLICIES {
        let (d, f) = run_pair(mix, policy, 0);
        assert_non_last_identical(mix, policy, &d, &f);
    }
}

#[test]
fn non_last_windows_bit_identical_under_all_policies_mix4() {
    let mix = &mixes_for_group(WorkloadGroup::Mix4)[0];
    for policy in ALL_POLICIES {
        let (d, f) = run_pair(mix, policy, 0);
        assert_non_last_identical(mix, policy, &d, &f);
    }
}

#[test]
fn flush_squash_heavy_case_non_last_windows_identical() {
    // FLUSH on the memory-bound group squashes constantly, so demotion
    // lands on threads with squash-scarred windows and pending stale
    // completions.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[1];
    let (d, f) = run_pair(mix, PolicyKind::Flush, 0);
    assert!(
        f.thread_stats.iter().any(|t| t.flushes > 0),
        "case must actually flush"
    );
    assert_non_last_identical(mix, PolicyKind::Flush, &d, &f);
}

#[test]
fn truncated_run_before_any_quota_is_bit_identical() {
    // If the deadline lands before any thread reaches its quota, no
    // demotion ever happens and the whole run — every observable — must
    // be bit-identical to `--no-drain`. Warmup must be zero: the warmup
    // phase has its own (small) quota, and threads drain behind it too.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let mk = |no_drain| RunConfig {
        insts_per_thread: 10_000_000, // unreachable: forces truncation
        warmup_insts: 0,
        max_cycles: 20_000,
        seed: 42,
        no_drain,
    };
    let d = Runner::new(SmtConfig::hpca2008_baseline(), mk(false)).run_mix(mix, PolicyKind::Icount);
    let f = Runner::new(SmtConfig::hpca2008_baseline(), mk(true)).run_mix(mix, PolicyKind::Icount);
    assert!(!d.complete, "run must actually truncate");
    assert!(
        d.thread_stats_at_quota.iter().all(|s| s.is_none()),
        "no thread may reach its quota in this configuration"
    );
    assert_eq!(fingerprint(&d), fingerprint(&f));
}

#[test]
fn truncated_run_keeps_every_finished_window_identical() {
    // Deadline lands with some threads finished and some still
    // measuring. Every *finished* thread's frozen snapshot must match
    // the full-fidelity ablation bit-exactly: a snapshot freezes before
    // the demotion its own quota may trigger, and under tail-only drain
    // no earlier demotion can have perturbed it.
    let mix = &mixes_for_group(WorkloadGroup::Mem4)[0];
    let mk = |no_drain| RunConfig {
        insts_per_thread: 1_500,
        warmup_insts: 0,
        max_cycles: 60_000,
        seed: 42,
        no_drain,
    };
    let d = Runner::new(SmtConfig::hpca2008_baseline(), mk(false)).run_mix(mix, PolicyKind::Stall);
    let f = Runner::new(SmtConfig::hpca2008_baseline(), mk(true)).run_mix(mix, PolicyKind::Stall);
    let finished: Vec<usize> = f
        .thread_stats_at_quota
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|_| i))
        .collect();
    if f.complete || finished.is_empty() {
        panic!("configuration must truncate with a partial set of finished threads");
    }
    for &tid in &finished {
        let fs = f.thread_stats_at_quota[tid].unwrap();
        let ds = d.thread_stats_at_quota[tid].expect("drain run reaches the same quotas");
        assert_eq!(format!("{ds:?}"), format!("{fs:?}"), "thread {tid}");
    }
}

/// The documented drift bound on the post-overlap stats, at realistic
/// window sizes (50k instructions per thread, warmup on): the last
/// thread's IPC within 2% and Eq. 2 fairness within 2% of `--no-drain`.
/// Every other thread is asserted *bit-identical* (contract point 1),
/// so the bound only has to cover the one window that overlaps drained
/// companions. The two cells are measured extremes of the drift
/// landscape: RaT on the mixed group (drain-heaviest policy, widest
/// quota spread) and RaT on the ILP group (episode-divergence worst
/// case — 54% drift at 10k windows, converged by 50k).
#[test]
fn drift_bound_last_window_ipc_and_fairness() {
    const IPC_BOUND: f64 = 0.02;
    const FAIRNESS_BOUND: f64 = 0.02;
    let mut worst_ipc: (f64, String) = (0.0, String::new());
    let mut worst_fair: (f64, String) = (0.0, String::new());
    for (group, policy) in [
        (WorkloadGroup::Mix4, PolicyKind::Rat),
        (WorkloadGroup::Ilp4, PolicyKind::Rat),
    ] {
        let mix = &mixes_for_group(group)[0];
        let mk = |no_drain| RunConfig {
            insts_per_thread: 50_000,
            warmup_insts: 2_000,
            max_cycles: 400_000_000,
            seed: 42,
            no_drain,
        };
        let drained_runner = Runner::new(SmtConfig::hpca2008_baseline(), mk(false));
        let full_runner = Runner::new(SmtConfig::hpca2008_baseline(), mk(true));
        let d = drained_runner.run_mix(mix, policy);
        let f = full_runner.run_mix(mix, policy);
        assert!(d.complete && f.complete);
        let cell = format!("{mix} under {policy}");
        assert_non_last_identical(mix, policy, &d, &f);
        for (tid, (di, fi)) in d.ipcs.iter().zip(&f.ipcs).enumerate() {
            let drift = (di - fi).abs() / fi;
            if drift > worst_ipc.0 {
                worst_ipc = (drift, format!("{cell} thread {tid}"));
            }
            assert!(
                drift <= IPC_BOUND,
                "{cell}: thread {tid} IPC drift {:.3}% exceeds {:.0}% \
                 (drain {di:.4} vs full {fi:.4})",
                drift * 100.0,
                IPC_BOUND * 100.0
            );
        }
        let (df, ff) = (drained_runner.fairness(&d), full_runner.fairness(&f));
        let drift = (df - ff).abs() / ff;
        if drift > worst_fair.0 {
            worst_fair = (drift, cell.clone());
        }
        assert!(
            drift <= FAIRNESS_BOUND,
            "{cell}: fairness drift {:.3}% exceeds {:.0}% (drain {df:.4} vs full {ff:.4})",
            drift * 100.0,
            FAIRNESS_BOUND * 100.0
        );
    }
    println!(
        "worst last-window IPC drift: {:.4}% ({}); worst fairness drift: {:.4}% ({})",
        worst_ipc.0 * 100.0,
        worst_ipc.1,
        worst_fair.0 * 100.0,
        worst_fair.1
    );
}

/// Builds a bare simulator over one mix (to read `SimStats` diagnostics
/// that `MixResult` does not carry).
fn build_sim(group: WorkloadGroup, policy: PolicyKind, drain: bool) -> SmtSimulator {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick(false, 700));
    let mut sim = runner.simulator(&mixes_for_group(group)[0], policy);
    sim.set_quota_drain(drain);
    sim
}

#[test]
fn mem4_actually_drains_the_tail() {
    // The equivalence tests would pass vacuously if demotion never
    // fired. On the memory-bound mix the quota spread is wide, so once
    // the second-to-last thread finishes the other three demote and the
    // rest of the last window's overshoot — the dominant share, since
    // the slowest thread's window is what every faster thread rides
    // out — comes from the drain engine.
    let mut sim = build_sim(WorkloadGroup::Mem4, PolicyKind::Rat, true);
    assert!(sim.run_until_quota(3_000, 100_000_000));
    let stats = sim.stats();
    assert_eq!(
        stats.drained_threads,
        stats.threads.len() as u64 - 1,
        "tail-only drain demotes every thread but the last"
    );
    assert!(
        stats.drain_commits > 0,
        "drained threads must keep committing"
    );
    sim.check_invariants();
}

/// Drain is one-way: once a thread is demoted, neither switching drain
/// off nor opening a new measurement window may bring it back.
#[test]
#[should_panic(expected = "post-quota drain is one-way")]
fn drain_cannot_be_disabled_after_a_demotion() {
    let mut sim = build_sim(WorkloadGroup::Mem4, PolicyKind::Rat, true);
    assert!(sim.run_until_quota(3_000, 100_000_000));
    assert!(sim.stats().drained_threads > 0, "a thread was demoted");
    sim.set_quota_drain(false);
}

#[test]
#[should_panic(expected = "post-quota drain is one-way")]
fn stats_cannot_be_reset_after_a_demotion() {
    let mut sim = build_sim(WorkloadGroup::Mem4, PolicyKind::Rat, true);
    assert!(sim.run_until_quota(3_000, 100_000_000));
    assert!(sim.stats().drained_threads > 0, "a thread was demoted");
    sim.reset_stats();
}

#[test]
fn disabled_drain_never_drains() {
    let mut sim = build_sim(WorkloadGroup::Mem4, PolicyKind::Rat, false);
    assert!(sim.run_until_quota(1_000, 100_000_000));
    assert_eq!(sim.stats().drain_commits, 0);
    assert_eq!(sim.stats().drained_threads, 0);
}

#[test]
fn drain_is_off_by_default_on_a_bare_simulator() {
    // `Runner::run_mix` turns drain on after warm-up; the simulator
    // `Runner::simulator` hands out, before any of that, must stay a
    // faithful FAME machine unless explicitly opted in.
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick(false, 700));
    let mut sim = runner.simulator(&mixes_for_group(WorkloadGroup::Mix4)[0], PolicyKind::Icount);
    assert!(sim.run_until_quota(800, 100_000_000));
    assert_eq!(sim.stats().drained_threads, 0);
}
