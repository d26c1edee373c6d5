//! Randomized property tests over the core data structures and the
//! simulator's architectural invariants.
//!
//! The container has no network access, so instead of an external
//! property-testing dependency these tests drive the same properties with
//! a small deterministic splitmix64 generator: every case is reproducible
//! from its printed seed, and the case counts match what the proptest
//! versions ran.

use rat_core::isa::{AluOp, BranchCond, Cpu, Instruction, IntReg, Operand, Program, SparseMemory};
use rat_core::mem::{AccessKind, Cache, CacheConfig, Hierarchy, HierarchyConfig, Probe};
use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{Benchmark, ThreadImage, WorkloadRng, ALL_BENCHMARKS};

/// Uniform length in `[lo, hi)` from the shared workload PRNG.
fn rand_len(rng: &mut WorkloadRng, lo: usize, hi: usize) -> usize {
    lo + rng.below((hi - lo) as u64) as usize
}

// ---- sparse memory ----

/// Reads always return the last value written to an address.
#[test]
fn memory_read_your_writes() {
    for case in 0..64u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0001 + case);
        let n = rand_len(&mut rng, 1, 64);
        let mut m = SparseMemory::new();
        let mut model = std::collections::HashMap::new();
        for _ in 0..n {
            let addr = rng.below(1 << 20) & !7;
            let val = rng.next_u64();
            m.write_u64(addr, val);
            model.insert(addr, val);
        }
        for (addr, val) in model {
            assert_eq!(m.read_u64(addr), val, "case {case} addr {addr:#x}");
        }
    }
}

// ---- caches ----

/// After a fill completes, probing the same line at a later time hits.
#[test]
fn cache_fill_then_hit() {
    for case in 0..48u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0004 + case);
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            latency: 3,
            mshrs: 64,
        });
        let mut t = 0u64;
        for _ in 0..rand_len(&mut rng, 1, 32) {
            let addr = rng.below(1 << 18);
            t += 10;
            if c.probe(addr, t) == Probe::Miss {
                c.fill(addr, t + 5, false, t);
            }
            assert_ne!(
                c.probe(addr, t + 5),
                Probe::Miss,
                "case {case} addr {addr:#x}"
            );
        }
    }
}

/// The hierarchy never returns data earlier than the L1 latency, and a
/// repeat access never gets slower (monotone warming).
#[test]
fn hierarchy_latency_bounds() {
    for case in 0..48u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0005 + case);
        let mut h = Hierarchy::new(HierarchyConfig::hpca2008_baseline());
        let l1 = 3;
        let mut t = 0u64;
        for _ in 0..rand_len(&mut rng, 1, 24) {
            let addr = rng.below(1 << 20);
            t += 1;
            let first = h.data_access(addr, AccessKind::Load, t);
            if first.rejected {
                continue;
            }
            assert!(first.ready_at >= t + l1, "case {case}");
            let later = first.ready_at + 1;
            let second = h.data_access(addr, AccessKind::Load, later);
            assert!(!second.rejected, "case {case}");
            assert!(second.ready_at - later <= first.ready_at - t, "case {case}");
            t = later;
        }
    }
}

// ---- functional emulator vs. simple model ----

/// Straight-line integer programs compute the same values as a direct
/// interpreter over an array model.
#[test]
fn emulator_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0006 + case);
        let ops: Vec<(u8, u8, u8, i64)> = (0..rand_len(&mut rng, 1, 40))
            .map(|_| {
                (
                    rng.below(8) as u8,
                    1 + rng.below(7) as u8,
                    1 + rng.below(7) as u8,
                    rng.below(64) as i64,
                )
            })
            .collect();
        let mut code: Vec<Instruction> = ops
            .iter()
            .map(|&(op, d, s, imm)| {
                let alu = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Xor,
                    AluOp::Shl,
                    AluOp::Shr,
                    AluOp::SltU,
                ][op as usize];
                Instruction::int_op(alu, IntReg::new(d), IntReg::new(s), Operand::Imm(imm))
            })
            .collect();
        code.push(Instruction::jump(0));
        let mut cpu = Cpu::new(Program::new(code));
        let mut model = [0u64; 32];
        for &(op, d, s, imm) in &ops {
            let a = model[s as usize];
            let b = imm as u64;
            let v = match op {
                0 => a.wrapping_add(b),
                1 => a.wrapping_sub(b),
                2 => a & b,
                3 => a | b,
                4 => a ^ b,
                5 => a.wrapping_shl((b & 63) as u32),
                6 => a.wrapping_shr((b & 63) as u32),
                _ => (a < b) as u64,
            };
            model[d as usize] = v;
            cpu.step();
        }
        for r in 1..32u8 {
            assert_eq!(
                cpu.state().int_reg(IntReg::new(r)),
                model[r as usize],
                "case {case} r{r}"
            );
        }
    }
}

/// Branches take exactly when their condition holds.
#[test]
fn branch_outcomes_match_condition() {
    for case in 0..64u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0007 + case);
        // Mix full-range and small operands so equal/ordered pairs occur.
        let (a, b) = if case % 2 == 0 {
            (rng.next_u64(), rng.next_u64())
        } else {
            (rng.below(4), rng.below(4))
        };
        let code = vec![
            Instruction::int_op(AluOp::Add, IntReg::new(1), IntReg::ZERO, Operand::Imm(0)),
            Instruction::branch(BranchCond::LtU, IntReg::new(2), IntReg::new(3), 0),
            Instruction::jump(0),
        ];
        let mut cpu = Cpu::new(Program::new(code));
        cpu.state_mut().set_int_reg(IntReg::new(2), a);
        cpu.state_mut().set_int_reg(IntReg::new(3), b);
        cpu.step();
        let rec = cpu.step();
        assert_eq!(rec.taken, a < b, "case {case}: {a} < {b}");
    }
}

// ---- whole-simulator invariants ----

/// For any benchmark pair and any policy, the pipeline makes forward
/// progress and commits at least the quota for both threads; all the
/// internal debug assertions (register ownership, ROB contiguity, oracle
/// sequence consistency) hold along the way.
#[test]
fn any_pair_any_policy_progresses() {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ];
    for case in 0..6u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0008 + case);
        let a = rng.below(ALL_BENCHMARKS.len() as u64) as usize;
        let b = rng.below(ALL_BENCHMARKS.len() as u64) as usize;
        let p = rng.below(policies.len() as u64) as usize;
        let seed = rng.below(1000);
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policies[p];
        let cpus = vec![
            ThreadImage::generate(ALL_BENCHMARKS[a], seed).build_cpu(),
            ThreadImage::generate(ALL_BENCHMARKS[b], seed + 1).build_cpu(),
        ];
        let mut sim = SmtSimulator::new(cfg, cpus);
        let done = sim.run_until_quota(800, 40_000_000);
        assert!(
            done,
            "{:?}+{:?} under {:?} stalled (case {case})",
            ALL_BENCHMARKS[a], ALL_BENCHMARKS[b], policies[p]
        );
        assert!(sim.thread_stats(0).committed >= 800);
        assert!(sim.thread_stats(1).committed >= 800);
    }
}

/// The instruction-lifecycle invariants hold at arbitrary mid-run points
/// of random policy×mix runs: `SmtSimulator::check_invariants` asserts
/// each thread's instruction-table window/slot consistency (stale slots
/// invalidated after squashes, scheduler words coherent), oracle ↔ fetch
/// window agreement, issue-queue occupancy against live `WaitIssue`
/// slots, and the shared-ROB budget against the per-thread ring windows.
///
/// Sampling happens at random strides so checks land mid-episode,
/// mid-squash-recovery and mid-quiescent-span, not just at quota
/// boundaries; the policy draw includes the squash-heavy FLUSH and RaT
/// schemes where stale-slot bugs would hide.
#[test]
fn instr_table_invariants_hold_under_random_runs() {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ];
    for case in 0..8u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_000A + case);
        let policy = policies[rng.below(policies.len() as u64) as usize];
        let seed = rng.below(1000);
        // Half the cases run a 4-thread Table 2 mix (shared-resource
        // pressure), half a random pair.
        let benches: Vec<Benchmark> = if case % 2 == 0 {
            let groups = [
                rat_core::workload::WorkloadGroup::Ilp4,
                rat_core::workload::WorkloadGroup::Mix4,
                rat_core::workload::WorkloadGroup::Mem4,
            ];
            let g = groups[rng.below(groups.len() as u64) as usize];
            let mixes = rat_core::workload::mixes_for_group(g);
            mixes[rng.below(mixes.len() as u64) as usize]
                .benchmarks
                .clone()
        } else {
            vec![
                ALL_BENCHMARKS[rng.below(ALL_BENCHMARKS.len() as u64) as usize],
                ALL_BENCHMARKS[rng.below(ALL_BENCHMARKS.len() as u64) as usize],
            ]
        };
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let cpus = benches
            .iter()
            .enumerate()
            .map(|(i, &b)| ThreadImage::generate(b, seed + i as u64).build_cpu())
            .collect();
        let mut sim = SmtSimulator::new(cfg, cpus);
        sim.check_invariants(); // reset state is already consistent
        let mut checks = 0;
        while sim.cycles() < 120_000 {
            let stride = 300 + rng.below(1700);
            for _ in 0..stride {
                sim.cycle();
            }
            sim.check_invariants();
            checks += 1;
        }
        assert!(checks >= 50, "case {case} under-sampled ({checks} checks)");
        assert!(
            sim.stats().threads.iter().any(|t| t.committed > 0),
            "case {case} ({policy:?} over {benches:?}) made no progress"
        );
    }
}

/// Drain-mode invariants hold at arbitrary mid-run points of random
/// policy×mix runs with post-quota drain enabled. Demotion only happens
/// inside `run_until_quota`, so the run is sliced into random-length
/// `max_cycles` windows and `SmtSimulator::check_invariants` fires at
/// each slice boundary — landing mid-drain, mid-burst-backlog, and
/// around demotion edges. The invariants asserted for a drained thread:
/// both table windows empty, zero issue-queue occupancy, exactly its 32
/// INT + 32 FP architectural registers, and its frozen notional ROB
/// share conserved in the shared-ROB budget.
#[test]
fn drain_invariants_hold_under_random_runs() {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ];
    let mut total_drained = 0;
    for case in 0..6u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_000B + case);
        let policy = policies[rng.below(policies.len() as u64) as usize];
        let seed = rng.below(1000);
        // 4-thread Table 2 mixes only: drain needs threads that reach
        // their quotas at different times.
        let groups = [
            rat_core::workload::WorkloadGroup::Ilp4,
            rat_core::workload::WorkloadGroup::Mix4,
            rat_core::workload::WorkloadGroup::Mem4,
        ];
        let g = groups[rng.below(groups.len() as u64) as usize];
        let mixes = rat_core::workload::mixes_for_group(g);
        let benches = mixes[rng.below(mixes.len() as u64) as usize]
            .benchmarks
            .clone();
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = policy;
        let cpus = benches
            .iter()
            .enumerate()
            .map(|(i, &b)| ThreadImage::generate(b, seed + i as u64).build_cpu())
            .collect();
        let mut sim = SmtSimulator::new(cfg, cpus);
        sim.set_quota_drain(true);
        let quota = 2_000;
        let mut done = false;
        for _ in 0..2_000 {
            done = sim.run_until_quota(quota, 200 + rng.below(1800));
            sim.check_invariants();
            if done {
                break;
            }
        }
        assert!(
            done,
            "{policy:?} over {benches:?} never met the quota (case {case})"
        );
        for tid in 0..benches.len() {
            let ts = sim.thread_stats(tid);
            assert!(
                ts.quota_cycle.is_some(),
                "case {case}: thread {tid} completed without a quota cycle"
            );
            assert!(
                ts.committed_at_quota - ts.committed_at_reset >= quota,
                "case {case}: thread {tid} quota snapshot below the quota"
            );
        }
        total_drained += sim.stats().drained_threads;
    }
    assert!(
        total_drained > 0,
        "no case ever demoted a thread: the drain invariants were never exercised"
    );
}

/// `quota_cycle` is monotone non-decreasing in the quota size, and the
/// commit count frozen at the quota covers the quota, for every thread
/// across random policy×mix×seed draws. Run with drain *off*: quota
/// detection is then purely observational (the machine's behavior does
/// not depend on the quota parameter at all), which makes monotonicity
/// exact — the same deterministic execution is being watched for a
/// later milestone.
#[test]
fn quota_cycle_monotone_in_quota() {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ];
    for case in 0..5u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_000C + case);
        let policy = policies[rng.below(policies.len() as u64) as usize];
        let seed = rng.below(1000);
        let benches = [
            ALL_BENCHMARKS[rng.below(ALL_BENCHMARKS.len() as u64) as usize],
            ALL_BENCHMARKS[rng.below(ALL_BENCHMARKS.len() as u64) as usize],
        ];
        let mut prev: Option<Vec<u64>> = None;
        for quota in [300u64, 700, 1_500] {
            let mut cfg = SmtConfig::hpca2008_baseline();
            cfg.policy = policy;
            let cpus = benches
                .iter()
                .enumerate()
                .map(|(i, &b)| ThreadImage::generate(b, seed + i as u64).build_cpu())
                .collect();
            let mut sim = SmtSimulator::new(cfg, cpus);
            sim.set_quota_drain(false);
            assert!(
                sim.run_until_quota(quota, 40_000_000),
                "case {case}: {policy:?} over {benches:?} stalled at quota {quota}"
            );
            let cycles: Vec<u64> = (0..benches.len())
                .map(|tid| {
                    let ts = sim.thread_stats(tid);
                    assert!(
                        ts.committed_at_quota - ts.committed_at_reset >= quota,
                        "case {case} quota {quota}: thread {tid} short commit window"
                    );
                    ts.quota_cycle.expect("completed run has quota cycles")
                })
                .collect();
            if let Some(prev) = &prev {
                for (tid, (small, large)) in prev.iter().zip(&cycles).enumerate() {
                    assert!(
                        large >= small,
                        "case {case}: thread {tid} met a larger quota earlier \
                         ({large} < {small})"
                    );
                }
            }
            prev = Some(cycles);
        }
    }
}

/// Functional execution of a workload is identical whether or not it runs
/// under a timing simulator that squashes and replays.
#[test]
fn oracle_replay_is_transparent() {
    for case in 0..6u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5EED_0009 + case);
        let bench: Benchmark = ALL_BENCHMARKS[rng.below(ALL_BENCHMARKS.len() as u64) as usize];
        let seed = rng.below(100);
        // Reference: functional-only execution.
        let img = ThreadImage::generate(bench, seed);
        let mut reference = img.build_cpu();
        let mut ref_trace = Vec::new();
        for _ in 0..600 {
            let r = reference.step();
            ref_trace.push((r.pc, r.result));
        }
        // Timing run under RaT (squash/replay happens for MEM benches).
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.policy = PolicyKind::Rat;
        let mut sim = SmtSimulator::new(cfg, vec![img.build_cpu()]);
        sim.run_until_quota(600, 40_000_000);
        assert!(
            sim.thread_stats(0).committed >= 600,
            "case {case} {bench:?}"
        );
        // Committed state equals functional state: verified indirectly via
        // determinism (same committed count at same seed) and the commit
        // sequence assertion inside the simulator; here we just re-check
        // the functional trace is reproducible.
        let mut again = img.build_cpu();
        for (pc, result) in ref_trace {
            let r = again.step();
            assert_eq!(r.pc, pc, "case {case} {bench:?}");
            assert_eq!(r.result, result, "case {case} {bench:?}");
        }
    }
}
