//! Figure 6 — throughput (and, riding along, Eq. 2 fairness) vs.
//! physical register file size for FLUSH and RaT, on 2-thread (a) and
//! 4-thread (b) workload groups.
//!
//! Deviation from the paper: our renamer pins 32 INT + 32 FP registers per
//! thread for architectural state and needs headroom to dispatch at all,
//! so the sweep starts at 96 registers for 2 threads and 160 for 4 threads
//! (the paper's x-axis nominally starts at 64, while itself noting that 4
//! threads already need 128 registers for precise state).
//!
//! One `Runner` is built *per register-file size* and shared by every
//! (group, policy) cell of that size — including across the 2-thread and
//! 4-thread sweeps. Each sweep appends the single-thread reference runs
//! behind Eq. 2 fairness to its cell list as ordinary journaled cells,
//! one per (benchmark, size) its runner does not hold yet, so a
//! reference the 2-thread sweep ran is not run again by the 4-thread
//! sweep. Cells run in parallel over all cores.

use rat_bench::{
    emit_truncation_note, mark_row_label, report_failures, run_cells_with_st_references,
    select_mixes, CellFailure, HarnessArgs, SweepCell, SweepSession, TableWriter,
};
use rat_core::{GroupSummary, MixResult, RunConfig, Runner};
use rat_smt::{PolicyKind, SmtConfig};
use rat_workload::{Mix, WorkloadGroup};

const SIZES_2T: [usize; 5] = [96, 128, 192, 256, 320];
const SIZES_4T: [usize; 4] = [160, 192, 256, 320];

/// The runner for one register-file size: Table 1 hardware with both
/// register files resized.
fn runner_for_size(size: usize, run: RunConfig) -> Runner {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.int_regs = size;
    cfg.fp_regs = size;
    Runner::new(cfg, run)
}

/// Runner lookup by size from the shared per-size pool.
fn runner_of(runners: &[(usize, Runner)], size: usize) -> &Runner {
    &runners
        .iter()
        .find(|(s, _)| *s == size)
        .expect("runner pool covers every swept size")
        .1
}

fn sweep(
    groups: &[WorkloadGroup],
    sizes: &[usize],
    runners: &[(usize, Runner)],
    args: &HarnessArgs,
    session: &SweepSession,
) -> (TableWriter, TableWriter, bool, Vec<CellFailure>) {
    let mut header: Vec<String> = vec!["policy/group".into()];
    header.extend(sizes.iter().map(|s| format!("{s}r")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut thr = TableWriter::new(&header_refs);
    let mut fair = TableWriter::new(&header_refs);

    let policies = [PolicyKind::Flush, PolicyKind::Rat];

    // One row per (group, policy, register size); each row fans out into
    // one cell per mix, so panic isolation and journaling are per mix.
    // Each cell borrows the shared per-size runner, which records the
    // references of that size.
    let mixes_of: Vec<Vec<Mix>> = groups
        .iter()
        .map(|&g| select_mixes(g, args.mixes))
        .collect();
    let tasks: Vec<(usize, PolicyKind, usize)> = (0..groups.len())
        .flat_map(|gi| {
            policies
                .iter()
                .flat_map(move |&p| sizes.iter().map(move |&size| (gi, p, size)))
        })
        .collect();
    let mut cell_rows: Vec<usize> = Vec::new();
    let mut cells: Vec<SweepCell<'_>> = Vec::new();
    for (row, &(gi, policy, size)) in tasks.iter().enumerate() {
        for m in &mixes_of[gi] {
            cell_rows.push(row);
            cells.push(SweepCell {
                runner: runner_of(runners, size),
                mix: m.clone(),
                policy,
            });
        }
    }
    let report = run_cells_with_st_references(cells, args.threads, session);
    let mut buckets: Vec<Vec<MixResult>> = vec![Vec::new(); tasks.len()];
    for (&row, result) in cell_rows.iter().zip(report.results) {
        if let Some(r) = result {
            buckets[row].push(r);
        }
    }
    // A row that lost mixes to failures is summarized over the
    // survivors; an all-failed row reports zeros (the process still
    // exits non-zero via the failure list).
    let summaries: Vec<GroupSummary> = tasks
        .iter()
        .zip(&buckets)
        .map(|(&(_, _, size), results)| {
            if results.is_empty() {
                GroupSummary::default()
            } else {
                runner_of(runners, size).summarize(results)
            }
        })
        .collect();

    // tasks iterate sizes innermost, so each row is a consecutive chunk.
    for (chunk_idx, chunk) in summaries.chunks(sizes.len()).enumerate() {
        let (gi, policy, _) = tasks[chunk_idx * sizes.len()];
        let truncated = chunk.iter().any(|s| s.incomplete > 0);
        let label = mark_row_label(
            format!("{} {}", policy.name(), groups[gi].name()),
            truncated,
        );
        let mut trow = vec![label.clone()];
        let mut frow = vec![label];
        trow.extend(chunk.iter().map(|s| format!("{:.3}", s.throughput)));
        frow.extend(chunk.iter().map(|s| format!("{:.3}", s.fairness)));
        thr.row(trow);
        fair.row(frow);
    }
    let truncated = summaries.iter().any(|s| s.incomplete > 0);
    (thr, fair, truncated, report.failures)
}

fn main() {
    let args = HarnessArgs::from_env();
    let run = args.run_config();

    // One shared runner per distinct size across both sweeps.
    let mut all_sizes: Vec<usize> = SIZES_2T.iter().chain(SIZES_4T.iter()).copied().collect();
    all_sizes.sort_unstable();
    all_sizes.dedup();
    let runners: Vec<(usize, Runner)> = all_sizes
        .iter()
        .map(|&s| (s, runner_for_size(s, run)))
        .collect();

    let groups_2t = [
        WorkloadGroup::Ilp2,
        WorkloadGroup::Mix2,
        WorkloadGroup::Mem2,
    ];
    let groups_4t = [
        WorkloadGroup::Ilp4,
        WorkloadGroup::Mix4,
        WorkloadGroup::Mem4,
    ];

    let session = SweepSession::from_args(&args);
    let (t2, f2, trunc2, fail2) = sweep(&groups_2t, &SIZES_2T, &runners, &args, &session);
    t2.emit(
        "Figure 6(a). Throughput vs register file size, 2-thread workloads",
        args.csv,
    );
    println!();
    f2.emit(
        "Figure 6(a'). Fairness vs register file size, 2-thread workloads",
        args.csv,
    );
    println!();
    let (t4, f4, trunc4, fail4) = sweep(&groups_4t, &SIZES_4T, &runners, &args, &session);
    t4.emit(
        "Figure 6(b). Throughput vs register file size, 4-thread workloads",
        args.csv,
    );
    println!();
    f4.emit(
        "Figure 6(b'). Fairness vs register file size, 4-thread workloads",
        args.csv,
    );
    emit_truncation_note(trunc2 || trunc4, args.csv);
    let failures: Vec<CellFailure> = fail2.into_iter().chain(fail4).collect();
    let code = report_failures(&failures);
    if code != 0 {
        std::process::exit(code);
    }
}
