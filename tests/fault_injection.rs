//! Deterministic fault-injection suite for the crash-safe sweep stack
//! (ISSUE 8 acceptance criteria):
//!
//! * a sweep with injected worker panics completes every healthy cell
//!   and reports each failed cell's full identity;
//! * a resumed sweep replays journaled cells and recomputes only the
//!   missing/failed ones, bit-identical to an uninterrupted run;
//! * corrupt/truncated journal records are quarantined and recomputed,
//!   never trusted and never fatal;
//! * a full journal disk (simulated ENOSPC) degrades to recomputation,
//!   not to a crash.
//!
//! Every fault is driven by [`rat_core::FaultPlan`] — the recovery paths
//! are exercised on purpose, not trusted.

use std::sync::Arc;

use rat_bench::{run_cells, SweepCell, SweepSession};
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, Mix, WorkloadGroup};
use rat_core::{CellKey, FaultPlan, ResultStore, RunConfig, Runner};

fn tiny_runner() -> Runner {
    Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: 1_200,
            warmup_insts: 400,
            max_cycles: 50_000_000,
            seed: 42,
            no_drain: false,
        },
    )
}

/// 10 cells: 5 MEM2 mixes × {ICOUNT, RaT}.
fn cell_grid(runner: &Runner) -> Vec<SweepCell<'_>> {
    let mixes: Vec<Mix> = mixes_for_group(WorkloadGroup::Mem2)
        .into_iter()
        .take(5)
        .collect();
    [PolicyKind::Icount, PolicyKind::Rat]
        .iter()
        .flat_map(|&policy| {
            mixes.iter().map(move |m| SweepCell {
                runner,
                mix: m.clone(),
                policy,
            })
        })
        .collect()
}

fn keys(cells: &[SweepCell<'_>]) -> Vec<CellKey> {
    cells
        .iter()
        .map(|c| {
            CellKey::new(
                c.runner.config_fingerprint(),
                &c.mix,
                c.policy,
                c.runner.run_config().seed,
            )
        })
        .collect()
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rat_faultinject_{tag}_{}", std::process::id()));
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

/// Panics in ≤20% of the cells must cost exactly those cells: every
/// healthy cell completes and each failure carries its identity.
#[test]
fn injected_panics_fail_only_their_cells() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let session = SweepSession {
        fault_plan: Some(FaultPlan::parse("panic@3,panic@7").unwrap()),
        ..SweepSession::none()
    };
    let report = run_cells(&cells, 0, &session);

    assert_eq!(report.failures.len(), 2, "exactly the injected cells fail");
    let failed: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
    assert_eq!(failed, vec![3, 7]);
    for f in &report.failures {
        assert!(
            f.identity.contains("MEM2"),
            "failure identity names the workload: {}",
            f.identity
        );
        assert!(f.error.contains("injected fault"));
    }
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.is_none(), i == 3 || i == 7, "cell {i}");
    }
    assert_eq!(report.computed, cells.len() - 2);
}

/// Kill the sweep logically (panics leave holes), then resume against
/// the same journal: only the holes are recomputed, and every cell is
/// bit-identical to an uninterrupted clean run.
#[test]
fn resume_recomputes_only_missing_and_is_bit_identical() {
    let path = tmp_path("resume");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);

    let clean = run_cells(&cells, 0, &SweepSession::none());

    let faulted = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        fault_plan: Some(FaultPlan::parse("panic@1,panic@8").unwrap()),
        ..SweepSession::none()
    };
    let first = run_cells(&cells, 0, &faulted);
    assert_eq!(first.failures.len(), 2);
    assert_eq!(first.computed, cells.len() - 2);

    let resumed = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &resumed);
    assert!(second.failures.is_empty());
    assert_eq!(
        second.replayed,
        cells.len() - 2,
        "journaled cells replay instead of re-simulating"
    );
    assert_eq!(second.computed, 2, "only the failed cells are recomputed");

    for (i, (a, b)) in clean.results.iter().zip(&second.results).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            encode_result(a),
            encode_result(b),
            "cell {i} must be bit-identical after resume"
        );
    }
}

/// A corrupt journal record is quarantined at load and its cell
/// recomputed — stale or torn bytes are never served as results.
#[test]
fn corrupt_records_are_quarantined_and_recomputed() {
    let path = tmp_path("corrupt");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let cell_keys = keys(&cells);

    let session = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        ..SweepSession::none()
    };
    let clean = run_cells(&cells, 0, &session);
    drop(session);

    // Flip one byte inside the first record's payload.
    let mut bytes = std::fs::read(&path).unwrap();
    let rec_start = bytes
        .windows(4)
        .position(|w| w == b"rec ")
        .expect("journal has records");
    bytes[rec_start + 30] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let store = ResultStore::open(&path);
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1, "the flipped record is quarantined");
    assert_eq!(stats.loaded, cells.len() - 1);
    let quarantine = path.with_extension("quarantine");
    assert!(
        quarantine.exists(),
        "quarantined bytes are preserved for inspection"
    );

    let resumed = SweepSession {
        store: Some(Arc::new(store)),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &resumed);
    assert!(second.failures.is_empty());
    assert_eq!(second.replayed, cells.len() - 1);
    assert_eq!(second.computed, 1, "only the quarantined cell recomputes");
    for (i, (a, b)) in clean.results.iter().zip(&second.results).enumerate() {
        assert_eq!(
            encode_result(a.as_ref().unwrap()),
            encode_result(b.as_ref().unwrap()),
            "cell {i} must be bit-identical after quarantine recovery"
        );
    }
    drop(resumed);

    // The recompute re-journals the cell: a third open sees a complete,
    // healthy journal again.
    let reopened = ResultStore::open(&path);
    assert_eq!(reopened.stats().quarantined, 0);
    for key in &cell_keys {
        assert!(reopened.get(key).is_some(), "journal is complete again");
    }
}

/// Torn (partially flushed) and bit-flipped appends — injected through
/// the store's own fault plan — must be detected on reload, not served.
#[test]
fn torn_and_flipped_appends_never_replay() {
    let path = tmp_path("torn");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);

    let store = ResultStore::open(&path);
    store.set_fault_plan(FaultPlan::parse("torn@0,flip@3").unwrap());
    let session = SweepSession {
        store: Some(Arc::new(store)),
        ..SweepSession::none()
    };
    let first = run_cells(&cells, 0, &session);
    assert!(
        first.failures.is_empty(),
        "record faults are not worker faults"
    );
    drop(session);

    let reopened = ResultStore::open(&path);
    let stats = reopened.stats();
    assert_eq!(
        stats.loaded + stats.quarantined,
        cells.len(),
        "every append landed, healthy or quarantined"
    );
    assert_eq!(stats.quarantined, 2, "the torn and the flipped record");

    let resumed = SweepSession {
        store: Some(Arc::new(reopened)),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &resumed);
    assert!(second.failures.is_empty());
    assert_eq!(second.computed, 2);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            encode_result(a.as_ref().unwrap()),
            encode_result(b.as_ref().unwrap())
        );
    }
}

/// A journal that *stays* full (simulated ENOSPC on every retry
/// attempt) degrades gracefully: the append is retried, given up on,
/// counted — and the sweep still completes, with the unjournaled cell
/// recomputed later. The plan faults four consecutive append attempts
/// because `put` makes 1 + 3 retries before counting a failure.
#[test]
fn enospc_on_append_is_non_fatal() {
    let path = tmp_path("enospc");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);

    let store = ResultStore::open(&path);
    store.set_fault_plan(FaultPlan::parse("enospc@2,enospc@3,enospc@4,enospc@5").unwrap());
    let session = SweepSession {
        store: Some(Arc::new(store)),
        ..SweepSession::none()
    };
    let first = run_cells(&cells, 0, &session);
    assert!(
        first.failures.is_empty(),
        "a failed append never fails the cell"
    );
    assert!(first.results.iter().all(Option::is_some));
    let stats = session.store.as_ref().unwrap().stats();
    assert_eq!(
        stats.append_failures, 1,
        "the swallowed append is counted, not hidden"
    );
    assert_eq!(stats.retries, 3, "every retry attempt was made and counted");
    drop(session);

    let resumed = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &resumed);
    assert_eq!(second.replayed, cells.len() - 1);
    assert_eq!(second.computed, 1, "only the unjournaled cell recomputes");
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            encode_result(a.as_ref().unwrap()),
            encode_result(b.as_ref().unwrap())
        );
    }
}

/// A *transient* ENOSPC — one failed attempt with space back by the
/// retry — must cost nothing: the retry lands the record, the journal
/// stays complete, and only the retry counter betrays the incident.
#[test]
fn transient_enospc_is_healed_by_retry() {
    let path = tmp_path("transient");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let runner = tiny_runner();
    let cells = cell_grid(&runner);

    let store = ResultStore::open(&path);
    store.set_fault_plan(FaultPlan::parse("enospc@2").unwrap());
    let session = SweepSession {
        store: Some(Arc::new(store)),
        ..SweepSession::none()
    };
    let first = run_cells(&cells, 0, &session);
    assert!(first.failures.is_empty());
    let stats = session.store.as_ref().unwrap().stats();
    assert_eq!(stats.append_failures, 0, "the retry healed the append");
    assert_eq!(stats.retries, 1, "but the incident is still visible");
    drop(session);

    let resumed = SweepSession {
        store: Some(Arc::new(ResultStore::open(&path))),
        ..SweepSession::none()
    };
    let second = run_cells(&cells, 0, &resumed);
    assert_eq!(second.replayed, cells.len(), "nothing was lost");
    assert_eq!(second.computed, 0);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            encode_result(a.as_ref().unwrap()),
            encode_result(b.as_ref().unwrap())
        );
    }
}
