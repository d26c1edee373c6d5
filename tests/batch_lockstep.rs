//! Bit-identity suite for the lockstep batch engine (ISSUE 10
//! acceptance criteria): a sweep run at `--batch N` must be
//! indistinguishable from the plain one-cell-at-a-time path —
//!
//! * every cell's result is bit-identical at any batch width;
//! * the journal holds the same records at any width (append *order*
//!   is completion order and may differ; the record set and the
//!   compacted rewrite are byte-identical);
//! * an injected worker panic fails the same cell with the same report;
//! * a half-journaled run (killed by panics) resumes at a *different*
//!   batch width, recomputes only the holes, and still matches a clean
//!   run bit-exactly.

use std::sync::Arc;

use rat_bench::{run_cells, SweepCell, SweepSession};
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, WorkloadGroup};
use rat_core::{CellErrorKind, FaultPlan, ResultStore, RunConfig, Runner};

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

/// A fig1-style matrix: {ILP2, MEM2, MIX2} first mixes × {ICOUNT, RaT}.
/// Repeated `(benchmark, seed)` pairs across cells exercise the batch
/// engine's image cache; the 2-thread groups keep the suite fast.
fn cell_grid(runner: &Runner) -> Vec<SweepCell<'_>> {
    let groups = [
        WorkloadGroup::Ilp2,
        WorkloadGroup::Mem2,
        WorkloadGroup::Mix2,
    ];
    let mut cells = Vec::new();
    for g in groups {
        for mix in mixes_for_group(g).into_iter().take(2) {
            for policy in [PolicyKind::Icount, PolicyKind::Rat] {
                cells.push(SweepCell {
                    runner,
                    mix: mix.clone(),
                    policy,
                });
            }
        }
    }
    cells
}

fn session_at(batch: usize) -> SweepSession {
    SweepSession {
        batch,
        ..SweepSession::none()
    }
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rat_batch_lockstep_{tag}_{}", std::process::id()));
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

/// The journal's `rec ` lines as a sorted set — append order is
/// completion order (scheduling-dependent across widths), the record
/// *set* is not.
fn sorted_records(path: &std::path::Path) -> Vec<String> {
    let body = std::fs::read_to_string(path).unwrap();
    let mut recs: Vec<String> = body
        .lines()
        .filter(|l| l.starts_with("rec "))
        .map(str::to_string)
        .collect();
    recs.sort();
    recs
}

/// Every cell's encoded result must match the plain path bit for bit
/// at every batch width, on one worker and on several.
#[test]
fn every_width_is_bit_identical_to_plain() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let plain = run_cells(&cells, 1, &session_at(1));
    assert!(plain.failures.is_empty());

    for width in [2, 3, 8, 64] {
        for threads in [1, 2] {
            let batched = run_cells(&cells, threads, &session_at(width));
            assert!(batched.failures.is_empty());
            assert_eq!(batched.computed, cells.len());
            for (i, (a, b)) in plain.results.iter().zip(&batched.results).enumerate() {
                assert_eq!(
                    encode_result(a.as_ref().unwrap()),
                    encode_result(b.as_ref().unwrap()),
                    "cell {i} at batch {width}, {threads} threads"
                );
            }
        }
    }
}

/// The journal written at batch 8 holds exactly the records a batch-1
/// journal holds, and the compacted rewrite is byte-identical.
#[test]
fn journal_contents_identical_across_widths() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let mut paths = Vec::new();
    let mut cleanup_list = Vec::new();
    for width in [1usize, 8] {
        let path = tmp_path(&format!("journal_w{width}"));
        cleanup_list.push(path.clone());
        cleanup_list.push(path.with_extension("quarantine"));
        let store = Arc::new(ResultStore::open(&path));
        let session = SweepSession {
            batch: width,
            store: Some(store.clone()),
            ..SweepSession::none()
        };
        let report = run_cells(&cells, 2, &session);
        assert!(report.failures.is_empty());
        store.rewrite_journal();
        paths.push(path);
    }
    let _cleanup = Cleanup(cleanup_list);

    assert_eq!(
        sorted_records(&paths[0]),
        sorted_records(&paths[1]),
        "same record set at batch 1 and batch 8"
    );
    assert_eq!(
        std::fs::read(&paths[0]).unwrap(),
        std::fs::read(&paths[1]).unwrap(),
        "compacted journals are byte-identical"
    );
}

/// An injected worker panic at batch 8 fails exactly the cell it fails
/// at batch 1, with the same kind and message, while every healthy
/// cell still completes bit-identically.
#[test]
fn injected_panic_parity_across_widths() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&width| {
            let session = SweepSession {
                batch: width,
                fault_plan: Some(FaultPlan::parse("panic@3,panic@7").unwrap()),
                ..SweepSession::none()
            };
            run_cells(&cells, 2, &session)
        })
        .collect();

    let plain = &reports[0];
    assert_eq!(plain.failures.len(), 2);
    for report in &reports[1..] {
        assert_eq!(report.failures.len(), plain.failures.len());
        for (a, b) in plain.failures.iter().zip(&report.failures) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.kind, CellErrorKind::Panic);
            assert_eq!(b.kind, CellErrorKind::Panic);
            assert_eq!(a.identity, b.identity);
            assert_eq!(a.error, b.error, "same injected panic message");
        }
        for (i, (a, b)) in plain.results.iter().zip(&report.results).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(encode_result(a), encode_result(b)),
                (None, None) => assert!(i == 3 || i == 7),
                _ => panic!("cell {i}: healthy/failed mismatch across widths"),
            }
        }
    }
}

/// A run half-journaled at batch 1 (holes from injected panics) resumed
/// at batch 8 — and the reverse — replays the journaled cells,
/// recomputes only the holes, and matches a clean run bit for bit.
#[test]
fn resume_across_widths_is_bit_identical() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    let clean = run_cells(&cells, 1, &session_at(1));

    for (first_width, resume_width) in [(1usize, 8usize), (8, 1)] {
        let path = tmp_path(&format!("resume_{first_width}_{resume_width}"));
        let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);

        let faulted = SweepSession {
            batch: first_width,
            store: Some(Arc::new(ResultStore::open(&path))),
            fault_plan: Some(FaultPlan::parse("panic@1,panic@6,panic@10").unwrap()),
            ..SweepSession::none()
        };
        let first = run_cells(&cells, 2, &faulted);
        assert_eq!(first.failures.len(), 3);
        assert_eq!(first.computed, cells.len() - 3);

        let resumed = SweepSession {
            batch: resume_width,
            store: Some(Arc::new(ResultStore::open(&path))),
            ..SweepSession::none()
        };
        let second = run_cells(&cells, 2, &resumed);
        assert!(second.failures.is_empty());
        assert_eq!(second.replayed, cells.len() - 3);
        assert_eq!(second.computed, 3, "only the holes are recomputed");
        for (i, (a, b)) in clean.results.iter().zip(&second.results).enumerate() {
            assert_eq!(
                encode_result(a.as_ref().unwrap()),
                encode_result(b.as_ref().unwrap()),
                "cell {i} after {first_width}->{resume_width} resume"
            );
        }
    }
}

/// A zero-second watchdog times out every computed cell on the batch
/// path exactly as on the plain path: same kind, same message shape,
/// and journaled replays are still served.
#[test]
fn watchdog_parity_across_widths() {
    let runner = tiny_runner();
    let cells = cell_grid(&runner);
    for width in [1usize, 8] {
        let session = SweepSession {
            batch: width,
            cell_timeout: Some(std::time::Duration::ZERO),
            ..SweepSession::none()
        };
        let report = run_cells(&cells, 2, &session);
        assert_eq!(report.failures.len(), cells.len(), "batch {width}");
        for f in &report.failures {
            assert_eq!(f.kind, CellErrorKind::Timeout);
            assert!(
                f.error.starts_with("abandoned after"),
                "batch {width}: {}",
                f.error
            );
        }
    }
}
