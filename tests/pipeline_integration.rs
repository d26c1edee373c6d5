//! Cross-crate integration tests: workload generation → functional
//! execution → full pipeline simulation, exercised through the public API.

use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{Benchmark, ThreadImage, ALL_BENCHMARKS};

fn cpus(benches: &[Benchmark]) -> Vec<rat_core::isa::Cpu> {
    benches
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, 1000 + i as u64).build_cpu())
        .collect()
}

#[test]
fn every_benchmark_simulates_single_threaded() {
    // Every Table 2 benchmark must run through the full pipeline without
    // deadlock and commit a nontrivial number of instructions.
    for &b in ALL_BENCHMARKS {
        let cfg = SmtConfig::hpca2008_baseline();
        let mut sim = SmtSimulator::new(cfg, cpus(&[b]));
        let done = sim.run_until_quota(3_000, 20_000_000);
        assert!(done, "{b} did not reach quota");
        assert!(sim.thread_stats(0).committed >= 3_000, "{b}");
    }
}

#[test]
fn every_policy_simulates_a_mixed_pair() {
    for policy in [
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ] {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let mut sim = SmtSimulator::new(cfg, cpus(&[Benchmark::Art, Benchmark::Gzip]));
        let done = sim.run_until_quota(2_000, 30_000_000);
        assert!(done, "{policy} stalled");
        for t in 0..2 {
            assert!(
                sim.thread_stats(t).committed >= 2_000,
                "{policy} thread {t}"
            );
        }
    }
}

#[test]
fn four_thread_mix_runs_under_rat() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    let mix = [
        Benchmark::Art,
        Benchmark::Mcf,
        Benchmark::Swim,
        Benchmark::Twolf,
    ];
    let mut sim = SmtSimulator::new(cfg, cpus(&mix));
    let done = sim.run_until_quota(2_000, 60_000_000);
    assert!(done, "MEM4 under RaT must complete");
    let total: u64 = (0..4).map(|t| sim.thread_stats(t).committed).sum();
    assert!(total >= 8_000);
}

#[test]
fn committed_instructions_match_oracle_program_order() {
    // The committed instruction count must be consistent across runs of
    // the same seed (oracle determinism through squashes and runahead).
    let run = |policy| {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let mut sim = SmtSimulator::new(cfg, cpus(&[Benchmark::Equake, Benchmark::Vortex]));
        sim.run_until_quota(2_500, 40_000_000);
        (
            sim.cycles(),
            sim.thread_stats(0).committed,
            sim.thread_stats(1).committed,
            sim.stats().executed_insts(),
        )
    };
    for policy in [PolicyKind::Flush, PolicyKind::Rat] {
        assert_eq!(run(policy), run(policy), "{policy} not deterministic");
    }
}

#[test]
fn stats_reset_gives_clean_measurement_window() {
    let cfg = SmtConfig::hpca2008_baseline();
    let mut sim = SmtSimulator::new(cfg, cpus(&[Benchmark::Gzip]));
    sim.run_until_quota(2_000, 10_000_000);
    sim.reset_stats();
    assert_eq!(sim.thread_stats(0).committed_since_reset(), 0);
    assert_eq!(sim.stats().cycles_since_reset(), 0);
    assert_eq!(sim.thread_stats(0).fetched, 0);
    sim.run_until_quota(1_000, 10_000_000);
    assert!(sim.thread_stats(0).committed_since_reset() >= 1_000);
    assert!(sim.stats().thread_ipc(0) > 0.0);
}

#[test]
fn cache_stats_observe_mem_thread_traffic() {
    let cfg = SmtConfig::hpca2008_baseline();
    let mut sim = SmtSimulator::new(cfg, cpus(&[Benchmark::Swim]));
    sim.run_until_quota(5_000, 20_000_000);
    let l2 = sim.hierarchy().l2_stats();
    assert!(l2.accesses > 100, "swim must pressure the L2");
    assert!(sim.hierarchy().memory_accesses() > 50);
    let d = sim.hierarchy().dcache_stats();
    assert!(
        d.miss_ratio() > 0.05,
        "swim D$ miss ratio {:.3}",
        d.miss_ratio()
    );
}

#[test]
fn branch_predictor_learns_workload_branches() {
    let cfg = SmtConfig::hpca2008_baseline();
    let mut sim = SmtSimulator::new(cfg, cpus(&[Benchmark::Gzip]));
    sim.run_until_quota(10_000, 10_000_000);
    sim.reset_stats();
    sim.run_until_quota(10_000, 10_000_000);
    let acc = sim.thread_stats(0).bpred.accuracy();
    assert!(acc > 0.9, "perceptron accuracy {acc:.3} too low on gzip");
}

#[test]
fn ilp_threads_are_fast_and_mem_threads_are_slow() {
    let ipc_of = |b: Benchmark| {
        let cfg = SmtConfig::hpca2008_baseline();
        let mut sim = SmtSimulator::new(cfg, cpus(&[b]));
        sim.run_until_quota(15_000, 40_000_000);
        sim.reset_stats();
        sim.run_until_quota(10_000, 40_000_000);
        sim.stats().thread_ipc(0)
    };
    let eon = ipc_of(Benchmark::Eon);
    let mcf = ipc_of(Benchmark::Mcf);
    let art = ipc_of(Benchmark::Art);
    assert!(eon > 2.0, "eon IPC {eon:.2} (want ILP-class)");
    assert!(mcf < 0.2, "mcf IPC {mcf:.2} (want MEM-class)");
    assert!(art < 1.8, "art IPC {art:.2} (want MEM-class)");
    assert!(
        eon > 2.0 * art.max(mcf),
        "class separation: eon {eon:.2} vs art {art:.2} mcf {mcf:.2}"
    );
}
