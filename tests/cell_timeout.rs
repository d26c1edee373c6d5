//! The per-cell wall-clock watchdog (`--cell-timeout`, ISSUE 9
//! satellite 1):
//!
//! * a budget that is not hit is **free**: the sliced, watchdogged run
//!   is bit-identical to the plain one;
//! * a zero budget times out deterministically — every computed cell
//!   fails as a [`CellErrorKind::Timeout`] while journal replays (warm
//!   cells) are exempt;
//! * timed-out cells never reach the journal, so a later run recomputes
//!   exactly those cells.

use std::sync::Arc;
use std::time::Duration;

use rat_bench::{run_cells, SweepCell, SweepSession};
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, Mix, WorkloadGroup};
use rat_core::{CellErrorKind, ResultStore, RunConfig, Runner};

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
