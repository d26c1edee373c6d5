//! The per-cell wall-clock watchdog (`--cell-timeout`, ISSUE 9
//! satellite 1):
//!
//! * a budget that is not hit is **free**: the sliced, watchdogged run
//!   is bit-identical to the plain one;
//! * a zero budget times out deterministically — every computed cell
//!   fails as a [`CellErrorKind::Timeout`] while journal replays (warm
//!   cells) are exempt;
//! * timed-out cells never reach the journal, so a later run recomputes
//!   exactly those cells;
//! * a cell driven in slices of any length, including one that ends on
//!   the cycle a thread reaches its quota, is bit-identical to one
//!   unsliced run.

use std::sync::Arc;
use std::time::Duration;

use rat_bench::{run_cells, SweepCell, SweepSession};
use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, Mix, ThreadImage, WorkloadGroup, WorkloadRng};
use rat_core::{CellErrorKind, MixResult, ResultStore, RunConfig, Runner};

fn tiny_runner() -> Runner {
    Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: 1_200,
            warmup_insts: 400,
            max_cycles: 50_000_000,
            seed: 42,
            no_skip: false,
            no_drain: false,
        },
    )
}

fn cell_grid(runner: &Runner) -> Vec<SweepCell<'_>> {
    let mixes: Vec<Mix> = mixes_for_group(WorkloadGroup::Mix2)
        .into_iter()
        .take(4)
        .collect();
    mixes
        .iter()
        .map(|m| SweepCell {
            runner,
            mix: m.clone(),
            policy: PolicyKind::Rat,
        })
        .collect()
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rat_celltimeout_{tag}_{}", std::process::id()));
    p
}

struct Cleanup(Vec<std::path::PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A generous budget changes nothing: the watchdogged run is
/// bit-identical to the unwatchdogged one (slicing `run_until_quota`
/// is invisible to the simulation).
#[test]
fn generous_budget_is_bit_identical() {
    let runner = tiny_runner();
    let mixes = mixes_for_group(WorkloadGroup::Mem2);
    for mix in mixes.iter().take(3) {
        for policy in [PolicyKind::Icount, PolicyKind::Rat] {
            let plain = runner.run_mix(mix, policy);
            let budgeted = runner
                .run_mix_budgeted(mix, policy, Some(Duration::from_secs(3600)))
                .expect("an hour is plenty for a tiny cell");
            assert_eq!(
                encode_result(&plain),
                encode_result(&budgeted),
                "{mix} under {policy}: watchdog must not perturb the simulation"
            );
        }
    }
}

/// `budget == None` takes the plain (unsliced) path and is trivially
/// identical; a zero budget fails before simulating a single cycle.
#[test]
fn none_budget_and_zero_budget_extremes() {
    let runner = tiny_runner();
    let mix = &mixes_for_group(WorkloadGroup::Ilp2)[0];
    let plain = runner.run_mix(mix, PolicyKind::Icount);
    let unbudgeted = runner
        .run_mix_budgeted(mix, PolicyKind::Icount, None)
        .unwrap();
    assert_eq!(encode_result(&plain), encode_result(&unbudgeted));

    let err = runner
        .run_mix_budgeted(mix, PolicyKind::Icount, Some(Duration::ZERO))
        .expect_err("zero budget must time out");
    assert!(err >= Duration::ZERO);
}

/// A zero `cell_timeout` in a sweep times out every *computed* cell —
/// deterministically — and each failure carries the Timeout kind and
/// the cell's full identity.
#[test]
fn zero_timeout_fails_all_computed_cells() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let session = SweepSession {
        cell_timeout: Some(Duration::ZERO),
        ..SweepSession::none()
    };
    let report = run_cells(&cells, 0, &session);
    assert_eq!(report.failures.len(), cells.len(), "every cell times out");
    assert_eq!(report.computed, 0);
    for f in &report.failures {
        assert_eq!(f.kind, CellErrorKind::Timeout);
        assert!(
            f.identity.contains("MIX2"),
            "timeout failure names the cell: {}",
            f.identity
        );
        assert!(f.error.contains("wall clock"), "{}", f.error);
    }
}

/// Warm cells are exempt from the watchdog: replay is a journal lookup,
/// not a simulation. A journal filled by an unbudgeted run serves every
/// cell even under a zero timeout, bit-identically.
#[test]
fn journal_replay_is_exempt_from_timeout() {
    let path = tmp_path("replay");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);

    let warm = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        ..SweepSession::none()
    };
    let first = run_cells(&cells, 0, &warm);
    assert!(first.failures.is_empty());
    drop(warm);

    let cold = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        cell_timeout: Some(Duration::ZERO),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &cold);
    assert!(second.failures.is_empty(), "warm cells never time out");
    assert_eq!(second.replayed, cells.len());
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            encode_result(a.as_ref().unwrap()),
            encode_result(b.as_ref().unwrap())
        );
    }
}

/// Timed-out cells are not journaled: a rerun without the watchdog
/// recomputes exactly the timed-out cells and completes the journal.
#[test]
fn timed_out_cells_recompute_on_rerun() {
    let path = tmp_path("recompute");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);

    let strangled = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        cell_timeout: Some(Duration::ZERO),
        ..SweepSession::none()
    };
    let first = run_cells(&cells, 0, &strangled);
    assert_eq!(first.failures.len(), cells.len());
    drop(strangled);

    let healthy = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        cell_timeout: Some(Duration::from_secs(3600)),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &healthy);
    assert!(second.failures.is_empty());
    assert_eq!(second.replayed, 0, "nothing was journaled by timeouts");
    assert_eq!(second.computed, cells.len());
}

/// Simulates `mix` under `policy` as [`Runner::run_mix`] does (warm-up,
/// stats reset, measurement with post-quota drain), but gives each
/// `run_until_quota` call the cycle count `slice` returns for the
/// current cycle, within each phase's `max_cycles` budget.
fn run_sliced(
    runner: &Runner,
    mix: &Mix,
    policy: PolicyKind,
    slice: &mut dyn FnMut(u64) -> u64,
) -> MixResult {
    let run = *runner.run_config();
    let mut cfg = *runner.smt_config();
    cfg.policy = policy;
    let cpus = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, run.seed + i as u64).build_cpu())
        .collect();
    let mut sim = SmtSimulator::new(cfg, cpus);
    sim.set_cycle_skip(!run.no_skip);
    let mut phase = |sim: &mut SmtSimulator, quota: u64| {
        let mut left = run.max_cycles;
        loop {
            let step = slice(sim.cycles()).clamp(1, left);
            let reached = sim.run_until_quota(quota, step);
            left -= step;
            if reached || left == 0 {
                return reached;
            }
        }
    };
    phase(&mut sim, run.warmup_insts);
    sim.reset_stats();
    sim.set_quota_drain(!run.no_drain);
    let complete = phase(&mut sim, run.insts_per_thread);
    let st = sim.stats();
    MixResult {
        mix: mix.clone(),
        policy,
        ipcs: (0..mix.benchmarks.len())
            .map(|t| st.thread_ipc(t))
            .collect(),
        executed_insts: st.executed_insts(),
        cycles: st.cycles_since_reset(),
        complete,
        thread_stats: st.threads.clone(),
        thread_stats_at_quota: st.threads_at_quota.clone(),
        mem_events: st.mem_events,
    }
}

/// The cycles at which the threads of an unsliced run reached their
/// quotas, earliest first.
fn quota_cycles(result: &MixResult) -> Vec<u64> {
    let mut cycles: Vec<u64> = result
        .thread_stats_at_quota
        .iter()
        .flatten()
        .filter_map(|t| t.quota_cycle)
        .collect();
    cycles.sort_unstable();
    cycles
}

/// A slice that returns on the very cycle the second-to-last thread
/// reaches its quota must still demote the finished thread to drain, as
/// the unsliced run does on that cycle. (MEM2 mix 0 under RaT at these
/// quotas: the boundary is cycle 42,478, and a run that skipped the
/// demotion drained nothing and took 1,420 more cycles.)
#[test]
fn slice_ending_on_a_quota_cycle_is_bit_identical() {
    let runner = Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: 6_000,
            warmup_insts: 2_000,
            seed: 42,
            ..RunConfig::default()
        },
    );
    let mix = &mixes_for_group(WorkloadGroup::Mem2)[0];
    for policy in [PolicyKind::Icount, PolicyKind::Rat] {
        let plain = runner.run_mix(mix, policy);
        let boundary = quota_cycles(&plain)[0];
        let sliced = run_sliced(&runner, mix, policy, &mut |now| {
            if now < boundary {
                boundary - now
            } else {
                u64::MAX
            }
        });
        assert_eq!(
            encode_result(&plain),
            encode_result(&sliced),
            "{mix} under {policy}: a slice ending at cycle {boundary} changed the result"
        );
    }
}

/// Slicing is invisible, as a seeded property: every cell, driven in
/// random slices of 1 to 5,000 cycles (short ones as often as long
/// ones, and now and then one that ends on a cycle where a thread
/// reached its quota in the unsliced run), encodes exactly as one
/// unsliced [`Runner::run_mix`].
#[test]
fn any_slicing_is_bit_identical() {
    let runner = tiny_runner();
    let mixes = [
        mixes_for_group(WorkloadGroup::Mix2)[1].clone(),
        mixes_for_group(WorkloadGroup::Mem4)[0].clone(),
    ];
    let policies = [
        PolicyKind::Icount,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ];
    for (m, mix) in mixes.iter().enumerate() {
        for (p, &policy) in policies.iter().enumerate() {
            let plain = runner.run_mix(mix, policy);
            let targets = quota_cycles(&plain);
            for case in 0..2u64 {
                let seed = 0x511C_E000 + 16 * (5 * m as u64 + p as u64) + case;
                let mut rng = WorkloadRng::seed_from_u64(seed);
                let sliced = run_sliced(&runner, mix, policy, &mut |now| match targets
                    .iter()
                    .find(|&&c| c > now)
                {
                    Some(&c) if rng.below(8) == 0 => c - now,
                    _ => {
                        let longest = 5_000 >> rng.below(13);
                        1 + rng.below(longest)
                    }
                });
                assert_eq!(
                    encode_result(&plain),
                    encode_result(&sliced),
                    "{mix} under {policy}: slicing seed {seed:#x} changed the result"
                );
            }
        }
    }
}
