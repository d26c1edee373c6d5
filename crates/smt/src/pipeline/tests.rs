//! Integration-style tests of the assembled pipeline: whole-simulator
//! behavior per policy, runahead semantics, determinism and resource
//! leak checks.

use super::*;
use crate::policy::PolicyKind;
use rat_workload::{Benchmark, ThreadImage};

fn images(benches: &[Benchmark]) -> Vec<rat_isa::Cpu> {
    benches
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, 100 + i as u64).build_cpu())
        .collect()
}

#[test]
fn single_ilp_thread_commits() {
    let cfg = SmtConfig::hpca2008_baseline();
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Gzip]));
    // Warm past the cold first pass, then measure steady state. One
    // pass of gzip's stream region is ~17k instructions (256 lines ×
    // 8 loads/line at a ~22% memory mix), so warm well beyond it.
    let done = sim.run_until_quota(40_000, 4_000_000);
    assert!(done, "gzip should commit 40k instructions quickly");
    sim.reset_stats();
    sim.run_until_quota(5_000, 2_000_000);
    let ipc = sim.stats().thread_ipc(0);
    assert!(ipc > 1.5, "ILP thread steady-state IPC {ipc} too low");
}

#[test]
fn single_mem_thread_is_slow() {
    let cfg = SmtConfig::hpca2008_baseline();
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Mcf]));
    let done = sim.run_until_quota(3_000, 3_000_000);
    assert!(done, "mcf should still finish");
    let ipc = sim.stats().thread_ipc(0);
    let gzip_ipc = {
        let mut s = SmtSimulator::new(SmtConfig::hpca2008_baseline(), images(&[Benchmark::Gzip]));
        s.run_until_quota(3_000, 3_000_000);
        s.stats().thread_ipc(0)
    };
    assert!(
        ipc < gzip_ipc,
        "mcf IPC {ipc} should be below gzip IPC {gzip_ipc}"
    );
}

#[test]
fn two_threads_share_the_core() {
    let cfg = SmtConfig::hpca2008_baseline();
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Gzip, Benchmark::Bzip2]));
    let done = sim.run_until_quota(4_000, 2_000_000);
    assert!(done);
    assert!(sim.thread_stats(0).committed >= 4_000);
    assert!(sim.thread_stats(1).committed >= 4_000);
}

#[test]
fn runahead_enters_and_exits() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Art]));
    sim.run_until_quota(4_000, 3_000_000);
    let ts = sim.thread_stats(0);
    assert!(ts.runahead_episodes > 0, "art must trigger runahead");
    assert!(ts.runahead_cycles > 0);
    assert!(ts.pseudo_retired > 0);
    // After every episode the thread must be able to make progress.
    assert!(ts.committed >= 4_000);
}

#[test]
fn runahead_prefetches_help_memory_bound_thread() {
    // Single-threaded, runahead is roughly equivalent to the large
    // instruction window (Mutlu et al.); the paper's gains appear when
    // the window is *shared*. Compare on a 2-thread memory pair.
    let quota = 5_000;
    let run = |policy| {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Art, Benchmark::Swim]));
        sim.run_until_quota(10_000, 60_000_000);
        sim.reset_stats();
        sim.run_until_quota(quota, 60_000_000);
        (sim.stats().thread_ipc(0) + sim.stats().thread_ipc(1)) / 2.0
    };
    let base = run(PolicyKind::Icount);
    let rat = run(PolicyKind::Rat);
    assert!(
        rat > base * 1.15,
        "runahead should speed up art+swim: ICOUNT {base:.3} vs RaT {rat:.3}"
    );
}

#[test]
fn flush_policy_squashes() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Flush;
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Art, Benchmark::Gzip]));
    sim.run_until_quota(3_000, 4_000_000);
    assert!(sim.thread_stats(0).flushes > 0, "art must trigger flushes");
    assert!(sim.thread_stats(0).squashed > 0);
}

#[test]
fn stall_policy_gates_fetch() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Stall;
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Art, Benchmark::Gzip]));
    let done = sim.run_until_quota(3_000, 4_000_000);
    assert!(done);
}

#[test]
fn dcra_and_hill_run() {
    for policy in [PolicyKind::Dcra, PolicyKind::Hill] {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Mcf, Benchmark::Gzip]));
        let done = sim.run_until_quota(2_000, 6_000_000);
        assert!(done, "{policy} must complete");
    }
}

#[test]
fn determinism_same_seed_same_cycles() {
    let run = || {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = PolicyKind::Rat;
        let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Art, Benchmark::Gzip]));
        sim.run_until_quota(2_000, 3_000_000);
        (sim.cycles(), sim.thread_stats(0).committed)
    };
    assert_eq!(run(), run());
}

#[test]
fn register_leak_free_after_runahead() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Swim]));
    sim.run_until_quota(4_000, 3_000_000);
    // Eventually drain: run until the window empties in normal mode
    // (episode registers are legitimately held until the episode's
    // exit sweep).
    for _ in 0..100_000 {
        sim.cycle();
        if sim.threads[0].instrs.rob_is_empty() && sim.threads[0].mode == ExecMode::Normal {
            break;
        }
    }
    // All registers beyond the 32+32 architectural ones should be free
    // once nothing is in flight... allow in-flight fetch buffer.
    let allocated = sim.res.int_rf.allocated(0);
    assert!(
        allocated >= 32 && allocated <= 32 + sim.threads[0].instrs.rob_len(),
        "int registers leaked: {allocated} allocated with {} in flight",
        sim.threads[0].instrs.rob_len()
    );
}

#[test]
fn small_register_file_still_works() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.regs = 96;
    cfg.policy = PolicyKind::Rat;
    let mut sim = SmtSimulator::new(cfg, images(&[Benchmark::Art, Benchmark::Gzip]));
    let done = sim.run_until_quota(2_000, 6_000_000);
    assert!(done, "RaT with 96 registers must still make progress");
}

#[test]
#[should_panic(expected = "register file too small")]
fn too_many_threads_for_registers_panics() {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.regs = 64;
    let _ = SmtSimulator::new(
        cfg,
        images(&[Benchmark::Gzip, Benchmark::Bzip2, Benchmark::Eon]),
    );
}

#[test]
fn store_words_count_their_in_flight_stores() {
    let mut sim = SmtSimulator::new(SmtConfig::hpca2008_baseline(), images(&[Benchmark::Gzip]));
    let t = &mut sim.threads[0];
    // Two stores to one word, at different byte offsets: the word stays
    // forwardable until its last store leaves.
    assert!(!t.store_addrs.contains_key(&0x1000));
    t.add_store_addr(0x1000);
    t.add_store_addr(0x1004);
    t.remove_store_addr(0x1000);
    assert!(t.store_addrs.contains_key(&0x1000), "one store left");
    t.remove_store_addr(0x1000);
    assert!(!t.store_addrs.contains_key(&0x1000), "no store left");
    assert!(t.store_addrs.is_empty());
}

#[test]
fn store_word_counts_are_per_word() {
    let mut sim = SmtSimulator::new(SmtConfig::hpca2008_baseline(), images(&[Benchmark::Gzip]));
    let t = &mut sim.threads[0];
    // Two stores to one word and one to the next: removing the first
    // word's stores leaves the next word's count alone.
    t.add_store_addr(0x1000);
    t.add_store_addr(0x1000);
    t.add_store_addr(0x1008);
    t.remove_store_addr(0x1000);
    assert!(t.store_addrs.contains_key(&0x1000));
    assert!(t.store_addrs.contains_key(&0x1008));
    t.remove_store_addr(0x1000);
    assert!(!t.store_addrs.contains_key(&0x1000));
    assert!(t.store_addrs.contains_key(&0x1008));
    t.remove_store_addr(0x1008);
    assert!(t.store_addrs.is_empty());
}

#[test]
fn removing_an_absent_store_word_is_a_noop() {
    let mut sim = SmtSimulator::new(SmtConfig::hpca2008_baseline(), images(&[Benchmark::Gzip]));
    let t = &mut sim.threads[0];
    t.remove_store_addr(0xdead_beef);
    t.add_store_addr(0x40);
    t.remove_store_addr(0x48);
    assert!(t.store_addrs.contains_key(&0x40));
    assert_eq!(t.store_addrs.len(), 1);
}
