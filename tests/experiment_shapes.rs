//! End-to-end experiment-shape tests: small-scale versions of the paper's
//! headline comparisons, run through the `rat_core::Runner` API exactly as
//! the figure harnesses do. These assert the *qualitative* results the
//! reproduction must preserve (who wins, directions of effects).

use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::workload::{mixes_for_group, WorkloadGroup};
use rat_core::{RunConfig, Runner};

fn quick_run() -> RunConfig {
    RunConfig {
        insts_per_thread: 10_000,
        warmup_insts: 16_000,
        max_cycles: 200_000_000,
        seed: 42,
        no_drain: false,
    }
}

fn group_throughput(group: WorkloadGroup, policy: PolicyKind, n_mixes: usize) -> f64 {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let mut mixes = mixes_for_group(group);
    mixes.truncate(n_mixes);
    runner.run_group(&mixes, policy).throughput
}

fn group_fairness(group: WorkloadGroup, policy: PolicyKind, n_mixes: usize) -> f64 {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let mut mixes = mixes_for_group(group);
    mixes.truncate(n_mixes);
    runner.run_group(&mixes, policy).fairness
}

#[test]
fn fig1_shape_rat_beats_static_policies_on_mem2() {
    let icount = group_throughput(WorkloadGroup::Mem2, PolicyKind::Icount, 2);
    let stall = group_throughput(WorkloadGroup::Mem2, PolicyKind::Stall, 2);
    let flush = group_throughput(WorkloadGroup::Mem2, PolicyKind::Flush, 2);
    let rat = group_throughput(WorkloadGroup::Mem2, PolicyKind::Rat, 2);
    assert!(
        rat > 1.5 * stall.max(flush).max(icount),
        "MEM2: RaT {rat:.3} must dominate ICOUNT {icount:.3} / STALL {stall:.3} / FLUSH {flush:.3}"
    );
}

#[test]
fn fig1_shape_rat_close_or_better_on_ilp2() {
    let icount = group_throughput(WorkloadGroup::Ilp2, PolicyKind::Icount, 2);
    let rat = group_throughput(WorkloadGroup::Ilp2, PolicyKind::Rat, 2);
    assert!(
        rat > 0.9 * icount,
        "ILP2: RaT {rat:.3} must not lose to ICOUNT {icount:.3}"
    );
}

#[test]
fn fig1_shape_rat_has_best_fairness_on_mix2() {
    let rat = group_fairness(WorkloadGroup::Mix2, PolicyKind::Rat, 2);
    for policy in [PolicyKind::Icount, PolicyKind::Stall, PolicyKind::Flush] {
        let f = group_fairness(WorkloadGroup::Mix2, policy, 2);
        assert!(
            rat > f,
            "MIX2 fairness: RaT {rat:.3} must beat {policy} {f:.3}"
        );
    }
}

#[test]
fn fig2_shape_rat_beats_dynamic_policies_on_mem2() {
    let dcra = group_throughput(WorkloadGroup::Mem2, PolicyKind::Dcra, 2);
    let hill = group_throughput(WorkloadGroup::Mem2, PolicyKind::Hill, 2);
    let rat = group_throughput(WorkloadGroup::Mem2, PolicyKind::Rat, 2);
    assert!(
        rat > dcra && rat > hill,
        "MEM2: RaT {rat:.3} vs DCRA {dcra:.3} / HILL {hill:.3}"
    );
}

#[test]
fn fig3_shape_rat_ed2_below_icount() {
    // RaT executes extra instructions but more than compensates in delay:
    // normalized ED² < 1 on memory-sensitive groups.
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let mut mixes = mixes_for_group(WorkloadGroup::Mem2);
    mixes.truncate(2);
    let base = runner.run_group(&mixes, PolicyKind::Icount).ed2;
    let rat = runner.run_group(&mixes, PolicyKind::Rat).ed2;
    assert!(
        rat / base < 1.0,
        "MEM2 normalized ED² {:.3} must be below 1",
        rat / base
    );
}

#[test]
fn fig6_shape_rat_tolerates_small_register_files() {
    // RaT at 192 registers must beat FLUSH at 320 on a MEM2 subset
    // (paper: RaT at 128 beats FLUSH at 320).
    let run = |policy: PolicyKind, regs: usize| {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.regs = regs;
        let runner = Runner::new(cfg, quick_run());
        let mut mixes = mixes_for_group(WorkloadGroup::Mem2);
        mixes.truncate(2);
        runner.run_group(&mixes, policy).throughput
    };
    let rat_small = run(PolicyKind::Rat, 192);
    let flush_big = run(PolicyKind::Flush, 320);
    assert!(
        rat_small > flush_big,
        "RaT@192 ({rat_small:.3}) must beat FLUSH@320 ({flush_big:.3}) on MEM2"
    );
    // And RaT degrades gently with register file size.
    let rat_big = run(PolicyKind::Rat, 320);
    assert!(
        rat_small > rat_big * 0.55,
        "RaT@192 {rat_small:.3} vs RaT@320 {rat_big:.3}: degradation too steep"
    );
}

#[test]
fn fairness_references_are_consistent() {
    use rat_core::workload::Benchmark;
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick_run());
    let st_eon = runner.single_thread_ipc(Benchmark::Eon);
    let st_mcf = runner.single_thread_ipc(Benchmark::Mcf);
    assert!(st_eon > 1.5, "eon ST {st_eon:.3}");
    assert!(st_mcf < 0.3, "mcf ST {st_mcf:.3}");
    // A mix result's fairness is in (0, ~1.2].
    let mix = &mixes_for_group(WorkloadGroup::Mix2)[1]; // art+gzip
    let r = runner.run_mix(mix, PolicyKind::Rat);
    let f = runner.fairness(&r);
    assert!(f > 0.0 && f < 1.5, "fairness {f:.3}");
}
