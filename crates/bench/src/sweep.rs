//! Parallel, crash-safe sweep plumbing shared by the figure binaries.
//!
//! A figure is a matrix of independent simulations (workload groups ×
//! policies × mixes). The binaries flatten that matrix into one
//! deterministic cell list and hand it to [`run_cells`], which
//!
//! * replays cells already present in the `--resume` result journal
//!   ([`rat_core::ResultStore`]) bit-identically,
//! * fans the remaining cells out over all cores with
//!   [`rat_core::parallel::par_map_isolated`] — a panicking cell (real
//!   bug or `--fault-plan` injection) is caught on its worker and
//!   carried as a [`CellFailure`] while every healthy cell completes,
//! * journals each completed cell the moment it finishes, so a killed
//!   sweep resumes where it died.
//!
//! [`policy_matrix`] builds the standard group × policy matrix on top
//! and reassembles per-group summaries in deterministic order — the
//! printed tables are bit-identical at any thread count and across
//! kill/resume cycles (`--threads 1` reproduces the serial run exactly).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rat_core::{
    parallel, CellErrorKind, CellKey, FaultPlan, GroupSummary, MixResult, ResultStore, Runner,
};
use rat_smt::PolicyKind;
use rat_workload::{mixes_for_group, Mix, WorkloadGroup, ALL_GROUPS};

use crate::cli::HarnessArgs;

/// The Table 2 mixes of `group`, truncated to `cap` when `cap > 0`.
pub fn select_mixes(group: WorkloadGroup, cap: usize) -> Vec<Mix> {
    let mut mixes = mixes_for_group(group);
    if cap > 0 {
        mixes.truncate(cap);
    }
    mixes
}

/// Marks a row label with `*` when the row's data covers mixes
/// truncated at `max_cycles` (their IPCs come from an incomplete
/// window; the `Runner` also reports each on stderr). The mark rides on
/// the *label* — always a string column — so numeric CSV columns stay
/// parseable as floats.
pub fn mark_row_label(label: impl Into<String>, truncated: bool) -> String {
    let label = label.into();
    if truncated {
        format!("{label}*")
    } else {
        label
    }
}

/// Prints the `*` footnote when `truncated` — as a `#` comment under
/// `--csv` so redirected output stays machine-readable.
pub fn emit_truncation_note(truncated: bool, csv: bool) {
    if truncated {
        let note = "* = row includes mixes that hit max_cycles before reaching the quota \
                    (truncated measurement window)";
        if csv {
            println!("# {note}");
        } else {
            println!("\n{note}");
        }
    }
}

/// The crash-safety context of one sweep invocation: the optional
/// result journal (`--resume`), the optional fault-injection plan
/// (`--fault-plan`), and the optional wall-clock bounds (the
/// `--cell-timeout` watchdog and a whole-request deadline).
#[derive(Default)]
pub struct SweepSession {
    /// Completed-cell journal; `None` runs everything and persists
    /// nothing. Shared (`Arc`) so a long-lived owner — the sweep
    /// server — can hand the same journal to many concurrent sweeps.
    pub store: Option<Arc<ResultStore>>,
    /// Injected faults; `None` runs clean.
    pub fault_plan: Option<FaultPlan>,
    /// Per-cell wall-clock watchdog: a cell still simulating after this
    /// long is abandoned as a [`CellErrorKind::Timeout`] failure while
    /// the rest of the sweep proceeds. `None` lets cells run forever.
    pub cell_timeout: Option<Duration>,
    /// Whole-request deadline (the sweep server's `deadline_ms`): cells
    /// not *started* before this instant fail as timeouts instead of
    /// running, and a running cell's budget is clipped to the time
    /// remaining. Journal replays are exempt — warm cells are free.
    pub deadline: Option<Instant>,
}

impl SweepSession {
    /// No journal, no faults, no clocks — the plain sweep.
    pub fn none() -> SweepSession {
        SweepSession::default()
    }

    /// Builds the session the harness arguments describe: opens (or
    /// creates) the `--resume` journal — reporting replayed/quarantined
    /// record counts — installs the `--fault-plan` into both the worker
    /// pool (panics) and the store (record corruption), and arms the
    /// `--cell-timeout` watchdog.
    pub fn from_args(args: &HarnessArgs) -> SweepSession {
        let fault_plan = args
            .fault_plan
            .as_deref()
            .map(|spec| FaultPlan::parse(spec).expect("validated at argument parse time"));
        let store = args.resume.as_deref().map(|path| {
            let store = ResultStore::open(path);
            let s = store.stats();
            if s.loaded > 0 || s.quarantined > 0 {
                eprintln!(
                    "resume: {} — {} completed cell(s) to replay, {} corrupt record(s) \
                     quarantined for recompute",
                    path, s.loaded, s.quarantined
                );
            }
            if let Some(plan) = &fault_plan {
                store.set_fault_plan(plan.clone());
            }
            Arc::new(store)
        });
        SweepSession {
            store,
            fault_plan,
            cell_timeout: args.cell_timeout.map(Duration::from_secs_f64),
            deadline: None,
        }
    }
}

/// One sweep cell: a mix simulated under a policy on a runner's
/// hardware/methodology configuration.
pub struct SweepCell<'a> {
    /// The runner whose configuration (and ST-reference cache) this
    /// cell uses.
    pub runner: &'a Runner,
    /// The simulated mix.
    pub mix: Mix,
    /// The policy under test.
    pub policy: PolicyKind,
}

impl SweepCell<'_> {
    fn key(&self) -> CellKey {
        CellKey::new(
            self.runner.config_fingerprint(),
            &self.mix,
            self.policy,
            self.runner.run_config().seed,
        )
    }
}

/// A cell that produced no result — its worker panicked or its wall
/// clock ran out. Full identity for the end-of-sweep report, so a
/// failed cell can be pinpointed (and re-run) exactly.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Index in the sweep's deterministic cell list.
    pub index: usize,
    /// `group(mix) under policy [seed, cfg]` — see
    /// [`rat_core::CellKey::identity`].
    pub identity: String,
    /// Panic or wall-clock timeout.
    pub kind: CellErrorKind,
    /// The panic message or budget description.
    pub error: String,
}

/// What [`run_cells`] produced.
pub struct SweepReport {
    /// Per-cell results in input order; `None` where the cell failed.
    pub results: Vec<Option<MixResult>>,
    /// Failed cells (empty on a healthy sweep).
    pub failures: Vec<CellFailure>,
    /// Cells replayed from the result journal.
    pub replayed: usize,
    /// Cells actually simulated this run.
    pub computed: usize,
}

/// Runs every cell, crash-safely (see the module docs). All healthy
/// cells complete even when some panic; completed cells persist to the
/// session's journal as they finish.
pub fn run_cells(cells: &[SweepCell<'_>], threads: usize, session: &SweepSession) -> SweepReport {
    run_cells_streaming(cells, threads, session, &|_, _| {})
}

/// [`run_cells`] with a per-cell delivery callback: `on_cell(i, outcome)`
/// fires the moment cell `i`'s outcome is known — replayed from the
/// journal, computed, or timed out — from whichever worker thread
/// produced it, after the result has been journaled. The sweep server
/// streams `RESULT` lines from here. A *panicking* cell's failure is
/// only known once the worker pool unwinds, so it is reported in the
/// returned [`SweepReport`] but not through the callback.
pub fn run_cells_streaming(
    cells: &[SweepCell<'_>],
    threads: usize,
    session: &SweepSession,
    on_cell: &(dyn Fn(usize, &Result<MixResult, parallel::CellError>) + Sync),
) -> SweepReport {
    let keys: Vec<CellKey> = cells.iter().map(SweepCell::key).collect();
    let mut results: Vec<Option<MixResult>> = vec![None; cells.len()];
    let mut replayed = 0usize;

    let mut missing: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match session.store.as_ref().and_then(|s| s.get(key)) {
            Some(hit) => {
                let outcome = Ok(hit);
                on_cell(i, &outcome);
                results[i] = outcome.ok();
                replayed += 1;
            }
            None => missing.push(i),
        }
    }

    // Journal immediately — durability is per cell, not per sweep, so a
    // kill after this point never re-simulates the cell — then deliver.
    let settle = |ci: usize, outcome: Result<MixResult, parallel::CellError>| {
        if let (Ok(r), Some(store)) = (&outcome, &session.store) {
            store.put(&keys[ci], r);
        }
        on_cell(ci, &outcome);
        outcome
    };

    let computed_results = parallel::par_map_isolated(threads, &missing, |_, &ci| {
        if let Some(plan) = &session.fault_plan {
            if plan.should_panic(ci) {
                panic!("injected fault: worker panic at cell {ci}");
            }
        }
        // The cell's wall-clock budget: the watchdog, clipped to
        // whatever is left of the request deadline. A cell that cannot
        // even start before the deadline times out without simulating.
        let mut budget = session.cell_timeout;
        if let Some(deadline) = session.deadline {
            let now = Instant::now();
            if now >= deadline {
                return settle(
                    ci,
                    Err(parallel::CellError::timeout(
                        ci,
                        "request deadline expired before the cell started",
                    )),
                );
            }
            let left = deadline - now;
            budget = Some(budget.map_or(left, |b| b.min(left)));
        }
        let outcome = cells[ci]
            .runner
            .run_mix_budgeted(&cells[ci].mix, cells[ci].policy, budget)
            .map_err(|elapsed| {
                parallel::CellError::timeout(
                    ci,
                    format!(
                        "abandoned after {:.3}s of wall clock",
                        elapsed.as_secs_f64()
                    ),
                )
            });
        settle(ci, outcome)
    });

    let mut failures = Vec::new();
    let mut computed = 0usize;
    for (&ci, outcome) in missing.iter().zip(computed_results) {
        // Two failure layers: the panic isolation wrapper (outer) and
        // the watchdog/deadline result (inner) — flatten to one.
        match outcome {
            Ok(Ok(r)) => {
                results[ci] = Some(r);
                computed += 1;
            }
            Ok(Err(e)) | Err(e) => failures.push(CellFailure {
                index: ci,
                identity: keys[ci].identity(),
                kind: e.kind,
                error: e.message,
            }),
        }
    }
    SweepReport {
        results,
        failures,
        replayed,
        computed,
    }
}

/// Prints the end-of-sweep failure report (after all healthy cells have
/// finished) and returns the process exit code: `1` if any cell failed,
/// `0` otherwise. The caller emits its tables first so partial results
/// are never thrown away.
pub fn report_failures(failures: &[CellFailure]) -> i32 {
    if failures.is_empty() {
        return 0;
    }
    eprintln!(
        "sweep: {} cell(s) FAILED (all healthy cells completed):",
        failures.len()
    );
    for f in failures {
        eprintln!(
            "  cell {}: {} {} — {}",
            f.index,
            f.identity,
            f.kind.verb(),
            f.error
        );
    }
    eprintln!("sweep: re-run with --resume to recompute only the failed cells");
    1
}

/// Runs every Table 2 group under every policy in parallel and returns
/// `(group, per-policy summary)` rows in `ALL_GROUPS` × `policies`
/// order, plus the failed cells (empty on a healthy run). ST references
/// for Eq. 2 fairness are prewarmed (in parallel) first so sweep
/// workers hit the cache.
///
/// A `(group, policy)` bucket that lost cells to failures is summarized
/// over its surviving mixes (an all-failed bucket reports a zeroed
/// [`GroupSummary`]); the caller decides what to do with the failure
/// list — the figure binaries print their tables, then exit non-zero
/// via [`report_failures`].
pub fn policy_matrix(
    runner: &Runner,
    policies: &[PolicyKind],
    mixes_cap: usize,
    threads: usize,
    session: &SweepSession,
) -> (Vec<(WorkloadGroup, Vec<GroupSummary>)>, Vec<CellFailure>) {
    let started = Instant::now();
    let groups: Vec<(WorkloadGroup, Vec<Mix>)> = ALL_GROUPS
        .iter()
        .map(|&g| (g, select_mixes(g, mixes_cap)))
        .collect();

    runner.prewarm_st_references(
        groups
            .iter()
            .flat_map(|(_, ms)| ms.iter().flat_map(|m| m.benchmarks.iter().copied())),
        threads,
    );

    // One task per (group, policy, mix) cell for even load balance.
    // This group → policy → mix order is the sweep's deterministic cell
    // list: fault-plan indices and journal replay both refer to it.
    let mut indices: Vec<(usize, usize)> = Vec::new();
    let mut cells: Vec<SweepCell<'_>> = Vec::new();
    for (gi, (_, mixes)) in groups.iter().enumerate() {
        for (pi, &policy) in policies.iter().enumerate() {
            for m in mixes {
                indices.push((gi, pi));
                cells.push(SweepCell {
                    runner,
                    mix: m.clone(),
                    policy,
                });
            }
        }
    }
    let report = run_cells(&cells, threads, session);

    // Reassemble: cells and results share indices, so grouping is
    // deterministic regardless of which worker ran what.
    let mut buckets: Vec<Vec<Vec<MixResult>>> =
        vec![vec![Vec::new(); policies.len()]; groups.len()];
    for (&(gi, pi), result) in indices.iter().zip(report.results) {
        if let Some(r) = result {
            buckets[gi][pi].push(r);
        }
    }
    let matrix = groups
        .iter()
        .zip(buckets)
        .map(|(&(g, _), per_policy)| {
            let summaries = per_policy
                .iter()
                .map(|results| {
                    if results.is_empty() {
                        GroupSummary::default()
                    } else {
                        runner.summarize(results)
                    }
                })
                .collect();
            (g, summaries)
        })
        .collect();
    let mut line = format!(
        "sweep: {} simulations on {} threads in {:.1}s",
        report.computed,
        parallel::resolve_threads(threads),
        started.elapsed().as_secs_f64()
    );
    if report.replayed > 0 {
        line.push_str(&format!(", {} replayed from journal", report.replayed));
    }
    if !report.failures.is_empty() {
        line.push_str(&format!(", {} FAILED", report.failures.len()));
    }
    if let Some(store) = &session.store {
        let s = store.stats();
        if s.quarantined > 0 || s.append_failures > 0 || s.retries > 0 {
            line.push_str(&format!(
                ", store: {} quarantined, {} append failure(s), {} append retry(ies)",
                s.quarantined, s.append_failures, s.retries
            ));
        }
    }
    if runner.st_cache_rejections() > 0 {
        line.push_str(&format!(
            ", st-cache: {} stale record(s) rejected",
            runner.st_cache_rejections()
        ));
    }
    eprintln!("{line}");
    (matrix, report.failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_core::RunConfig;
    use rat_smt::SmtConfig;

    fn tiny_runner() -> Runner {
        Runner::new(
            SmtConfig::hpca2008_baseline(),
            RunConfig {
                insts_per_thread: 1_500,
                warmup_insts: 500,
                max_cycles: 50_000_000,
                seed: 11,
                no_skip: false,
                no_drain: false,
            },
        )
    }

    #[test]
    fn select_mixes_caps() {
        assert_eq!(select_mixes(WorkloadGroup::Ilp2, 0).len(), 10);
        assert_eq!(select_mixes(WorkloadGroup::Ilp2, 3).len(), 3);
    }

    #[test]
    fn matrix_shape_and_determinism() {
        let runner = tiny_runner();
        let policies = [PolicyKind::Icount];
        let (serial, f1) = policy_matrix(&runner, &policies, 1, 1, &SweepSession::none());
        let (parallel, f2) = policy_matrix(&runner, &policies, 1, 2, &SweepSession::none());
        assert!(f1.is_empty() && f2.is_empty());
        assert_eq!(serial.len(), ALL_GROUPS.len());
        for ((g1, s1), (g2, s2)) in serial.iter().zip(&parallel) {
            assert_eq!(g1, g2);
            assert_eq!(s1.len(), 1);
            assert_eq!(
                s1[0].throughput.to_bits(),
                s2[0].throughput.to_bits(),
                "{g1}: serial and parallel sweeps must agree exactly"
            );
            assert_eq!(s1[0].fairness.to_bits(), s2[0].fairness.to_bits());
        }
    }

    #[test]
    fn streamed_cells_are_journaled_before_delivery() {
        use std::sync::Mutex;
        let runner = tiny_runner();
        let cells: Vec<SweepCell<'_>> = select_mixes(WorkloadGroup::Ilp2, 4)
            .into_iter()
            .map(|mix| SweepCell {
                runner: &runner,
                mix,
                policy: PolicyKind::Icount,
            })
            .collect();
        let path = std::env::temp_dir().join(format!("rat_sweep_stream_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = Arc::new(ResultStore::open(&path));
        let journaled = SweepSession {
            store: Some(Arc::clone(&store)),
            ..SweepSession::none()
        };
        assert_eq!(run_cells(&cells[..1], 1, &journaled).computed, 1);

        // Cell 0 replays, 1 and 3 compute, 2 panics. Every delivered
        // cell must already be in the journal when its callback fires:
        // the server streams `RESULT` lines from the callback.
        let session = SweepSession {
            fault_plan: Some(FaultPlan::parse("panic@2").unwrap()),
            ..journaled
        };
        let seen = Mutex::new(Vec::new());
        let report = run_cells_streaming(&cells, 2, &session, &|i, outcome| {
            let stored = store.get(&cells[i].key()).is_some();
            seen.lock().unwrap().push((i, outcome.is_ok(), stored));
        });
        let _ = std::fs::remove_file(&path);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(0, true, true), (1, true, true), (3, true, true)]
        );
        assert_eq!((report.replayed, report.computed), (1, 2));
        let failed: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![2]);
    }

    #[test]
    fn injected_panic_fails_only_its_cell() {
        let runner = tiny_runner();
        let mixes = select_mixes(WorkloadGroup::Ilp2, 3);
        let cells: Vec<SweepCell<'_>> = mixes
            .iter()
            .map(|m| SweepCell {
                runner: &runner,
                mix: m.clone(),
                policy: PolicyKind::Icount,
            })
            .collect();
        let session = SweepSession {
            fault_plan: Some(FaultPlan::parse("panic@1").unwrap()),
            ..SweepSession::none()
        };
        let report = run_cells(&cells, 2, &session);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 1);
        assert_eq!(report.failures[0].kind, CellErrorKind::Panic);
        assert!(report.failures[0].identity.contains("ILP2"));
        assert!(report.results[0].is_some() && report.results[2].is_some());
        assert!(report.results[1].is_none());
        assert_eq!(report_failures(&report.failures), 1);
        assert_eq!(report_failures(&[]), 0);
    }
}
