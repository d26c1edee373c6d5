//! Tests of the Runahead Threads mechanism itself: episode lifecycle,
//! INV propagation effects, checkpoint/rollback correctness, variants.

use rat_core::isa::{AluOp, Cpu, FpOp, FpReg, Instruction, IntReg, Operand, Program};
use rat_core::smt::{PolicyKind, RunaheadVariant, SmtConfig, SmtSimulator};
use rat_core::workload::{Benchmark, ThreadImage};

fn sim_with(benches: &[Benchmark], f: impl FnOnce(&mut SmtConfig)) -> SmtSimulator {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    f(&mut cfg);
    let cpus = benches
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, 7 + i as u64).build_cpu())
        .collect();
    SmtSimulator::new(cfg, cpus)
}

#[test]
fn mem_thread_enters_runahead_ilp_thread_does_not() {
    let mut sim = sim_with(&[Benchmark::Swim, Benchmark::Eon], |_| {});
    // Warm up past eon's cold first pass, then measure.
    sim.run_until_quota(15_000, 60_000_000);
    sim.reset_stats();
    sim.run_until_quota(15_000, 60_000_000);
    let swim_ep = sim.thread_stats(0).runahead_episodes;
    let eon_ep = sim.thread_stats(1).runahead_episodes;
    assert!(swim_ep > 10, "swim must runahead (got {swim_ep})");
    // eon is cache-resident after warmup: episodes should be rare compared
    // to the memory-bound co-runner.
    assert!(
        eon_ep * 3 < swim_ep,
        "eon should rarely runahead (eon {eon_ep} vs swim {swim_ep})"
    );
}

#[test]
fn runahead_execution_is_architecturally_invisible() {
    // The same dynamic instruction stream commits whether or not runahead
    // speculation happens: compare committed counts at equal cycles.
    let run = |policy: PolicyKind| {
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let cpus = vec![ThreadImage::generate(Benchmark::Art, 3).build_cpu()];
        let mut sim = SmtSimulator::new(cfg, cpus);
        sim.run_until_quota(5_000, 30_000_000);
        sim.thread_stats(0).committed
    };
    // Both run exactly 5000+ committed instructions; the *content* of the
    // committed stream is identical because the oracle replays the same
    // program. (Counts may differ by the commit-width overshoot only.)
    let icount = run(PolicyKind::Icount);
    let rat = run(PolicyKind::Rat);
    assert!((icount as i64 - rat as i64).abs() <= 8, "{icount} vs {rat}");
}

#[test]
fn pseudo_retired_work_is_not_committed() {
    let mut sim = sim_with(&[Benchmark::Art], |_| {});
    sim.run_until_quota(8_000, 30_000_000);
    let ts = sim.thread_stats(0);
    assert!(ts.pseudo_retired > 0, "runahead must pseudo-retire");
    // Total architectural commits stay exactly at/above quota regardless
    // of how much speculative work was done.
    assert!(ts.committed >= 8_000);
    assert!(
        ts.folded + ts.pseudo_retired > 100,
        "speculative work happened"
    );
}

#[test]
fn runahead_inv_loads_track_l2_misses() {
    let mut sim = sim_with(&[Benchmark::Swim], |_| {});
    sim.run_until_quota(10_000, 30_000_000);
    let ts = sim.thread_stats(0);
    assert!(
        ts.runahead_inv_loads > 0,
        "L2-missing runahead loads must be invalidated"
    );
    assert!(
        ts.runahead_prefetches > 0,
        "valid runahead loads must prefetch"
    );
}

#[test]
fn chase_thread_folds_dependent_loads() {
    // mcf's pointer chase: after the first INV chase load, the following
    // chase loads read INV addresses and must fold rather than prefetch.
    let mut sim = sim_with(&[Benchmark::Mcf], |_| {});
    sim.run_until_quota(3_000, 60_000_000);
    let ts = sim.thread_stats(0);
    assert!(ts.runahead_episodes > 0);
    assert!(
        ts.folded > ts.runahead_prefetches,
        "pointer chase should fold more than it prefetches (folded {} vs pf {})",
        ts.folded,
        ts.runahead_prefetches
    );
}

#[test]
fn noprefetch_variant_suppresses_prefetching() {
    let run = |variant| {
        let mut sim = sim_with(&[Benchmark::Swim], |cfg| {
            cfg.runahead = variant;
        });
        sim.run_until_quota(6_000, 60_000_000);
        let ts = *sim.thread_stats(0);
        (sim.stats().thread_ipc(0), ts)
    };
    let (full_ipc, full_ts) = run(RunaheadVariant::Full);
    let (nopf_ipc, nopf_ts) = run(RunaheadVariant::NoPrefetch);
    assert!(nopf_ts.runahead_episodes > 0, "episodes still happen");
    assert!(
        nopf_ts.runahead_prefetches < full_ts.runahead_prefetches / 4,
        "NoPrefetch must not prefetch ({} vs {})",
        nopf_ts.runahead_prefetches,
        full_ts.runahead_prefetches
    );
    assert!(
        full_ipc > nopf_ipc,
        "prefetching must be beneficial on swim: {full_ipc:.3} vs {nopf_ipc:.3}"
    );
}

#[test]
fn nofetch_variant_stops_fetching_in_runahead() {
    let mut sim = sim_with(&[Benchmark::Swim], |cfg| {
        cfg.runahead = RunaheadVariant::NoFetch;
    });
    sim.run_until_quota(5_000, 60_000_000);
    let ts = sim.thread_stats(0);
    assert!(ts.runahead_episodes > 0);
    // With no fetching during runahead, speculative work is bounded by
    // what was already in flight at entry: far fewer pseudo-retires than
    // the full variant produces.
    let mut full = sim_with(&[Benchmark::Swim], |_| {});
    full.run_until_quota(5_000, 60_000_000);
    // Fetch-gated runahead only drains the window that was in flight at
    // entry: strictly less speculative work, and far less of it folded
    // (folding happens at dispatch, which requires fetching).
    let full_ts = full.thread_stats(0);
    assert!(
        full_ts.pseudo_retired > ts.pseudo_retired,
        "full {} vs nofetch {}",
        full_ts.pseudo_retired,
        ts.pseudo_retired
    );
    assert!(
        full_ts.folded > 2 * ts.folded.max(1),
        "full folded {} vs nofetch folded {}",
        full_ts.folded,
        ts.folded
    );
}

#[test]
fn fp_computation_holds_no_fp_registers_in_runahead() {
    // A loop of one load to a new cache line and eight FP additions that
    // read none of the loaded values. In normal mode the additions hold
    // FP registers while a missing load blocks the window. Runahead folds
    // FP computation at rename (§3.3), so beyond the 32 checkpointed
    // architectural FP registers a runahead cycle holds only the current
    // mapping of each register the loop writes and what was in flight at
    // entry. (swim cannot show this: nearly all of its FP computation
    // reads a missing load and folds as INV either way.)
    let mut code = vec![
        Instruction::load(IntReg::new(1), IntReg::new(2), 0),
        Instruction::int_op(AluOp::Add, IntReg::new(2), IntReg::new(2), Operand::Imm(64)),
    ];
    code.extend(
        (3..11).map(|d| Instruction::fp_op(FpOp::Add, FpReg::new(d), FpReg::new(1), FpReg::new(2))),
    );
    code.push(Instruction::jump(0));
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    let mut sim = SmtSimulator::new(cfg, vec![Cpu::new(Program::new(code))]);
    sim.run_until_quota(5_000, 1_000_000);
    let ts = sim.thread_stats(0);
    let fp_regs_past_checkpoint = |mode: usize| {
        assert!(ts.mode_cycles[mode] > 0, "no cycles in mode {mode}");
        ts.fp_reg_cycles[mode] as f64 / ts.mode_cycles[mode] as f64 - 32.0
    };
    let (normal, runahead) = (fp_regs_past_checkpoint(0), fp_regs_past_checkpoint(1));
    assert!(
        runahead < normal / 4.0,
        "FP registers past the checkpoint per cycle: {runahead:.1} in runahead mode, \
         {normal:.1} in normal mode"
    );
}

#[test]
fn runahead_mode_uses_fewer_registers_than_normal_mode() {
    // The Figure 5 effect on a 4-thread memory-bound mix.
    let mix = [
        Benchmark::Art,
        Benchmark::Mcf,
        Benchmark::Swim,
        Benchmark::Twolf,
    ];
    let mut sim = sim_with(&mix, |_| {});
    sim.run_until_quota(6_000, 120_000_000);
    let (mut normal, mut ra, mut n) = (0.0, 0.0, 0);
    for t in 0..4 {
        let ts = sim.thread_stats(t);
        if let (Some(a), Some(b)) = (ts.regs_per_cycle(0), ts.regs_per_cycle(1)) {
            normal += a;
            ra += b;
            n += 1;
        }
    }
    assert!(n >= 2, "need threads that ran in both modes");
    assert!(
        ra < normal,
        "runahead register occupancy {ra:.0} must be below normal {normal:.0}"
    );
}

#[test]
fn small_register_file_is_tolerable_under_rat() {
    // Figure 6 claim: RaT degrades gracefully as registers shrink.
    let ipc_at = |regs: usize| {
        let mut sim = sim_with(&[Benchmark::Art, Benchmark::Gzip], |cfg| {
            cfg.regs = regs;
        });
        sim.run_until_quota(6_000, 60_000_000);
        (sim.stats().thread_ipc(0) + sim.stats().thread_ipc(1)) / 2.0
    };
    let big = ipc_at(320);
    let small = ipc_at(128);
    assert!(
        small > big * 0.6,
        "RaT with 128 regs should hold most of its 320-reg throughput: {small:.3} vs {big:.3}"
    );
}
