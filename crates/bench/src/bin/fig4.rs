//! Figure 4 — sources of improvement of RaT (paper §6.1):
//!
//! * **Prefetching**: speedup of full RaT over RaT-without-prefetching
//!   (runahead loads may not touch the L2; suppressed loads do not
//!   re-trigger runahead after recovery).
//! * **Resource availability**: speedup of RaT-without-fetching (enter
//!   runahead, stop fetching, drain and release resources) over ICOUNT —
//!   the early-release benefit in isolation.
//! * **Overhead**: change of the *other* threads' IPC when a thread runs
//!   ahead without prefetching, vs. the ICOUNT baseline — the worst case
//!   where all runahead work is useless.
//!
//! Every (mix × variant) simulation is independent, so the whole
//! ablation matrix runs in parallel over all cores.

use rat_bench::{
    emit_truncation_note, mark_row_label, report_failures, run_cells, select_mixes, HarnessArgs,
    SweepCell, SweepSession, TableWriter,
};
use rat_core::{MixResult, Runner};
use rat_smt::{PolicyKind, RunaheadVariant, SmtConfig};
use rat_workload::{Mix, ThreadClass, ALL_GROUPS};

fn variant_config(variant: RunaheadVariant) -> SmtConfig {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    cfg.runahead.variant = variant;
    cfg
}

/// Average IPC of the ILP-class threads of a mix result (the "remaining
/// threads" of the overhead experiment).
fn ilp_side_ipc(mix: &Mix, ipcs: &[f64]) -> Option<f64> {
    let vals: Vec<f64> = mix
        .benchmarks
        .iter()
        .zip(ipcs)
        .filter(|(b, _)| b.class() == ThreadClass::Ilp)
        .map(|(_, &ipc)| ipc)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// The four simulated configurations per mix, in task-index order.
const FULL: usize = 0;
const NOPF: usize = 1;
const NOFETCH: usize = 2;
const BASE: usize = 3;

fn main() {
    let args = HarnessArgs::from_env();
    let run = args.run_config();

    let runners = [
        Runner::new(variant_config(RunaheadVariant::Full), run),
        Runner::new(variant_config(RunaheadVariant::NoPrefetch), run),
        Runner::new(variant_config(RunaheadVariant::NoFetch), run),
        Runner::new(SmtConfig::hpca2008_baseline(), run),
    ];
    let policy_of = |which: usize| {
        if which == BASE {
            PolicyKind::Icount
        } else {
            PolicyKind::Rat
        }
    };

    let session = SweepSession::from_args(&args);
    let groups: Vec<(usize, Vec<Mix>)> = ALL_GROUPS
        .iter()
        .enumerate()
        .map(|(gi, &g)| (gi, select_mixes(g, args.mixes)))
        .collect();
    let n_variants = runners.len();
    let tasks: Vec<(usize, usize, usize)> = groups
        .iter()
        .flat_map(|(gi, mixes)| {
            (0..mixes.len()).flat_map(move |mi| (0..n_variants).map(move |which| (*gi, mi, which)))
        })
        .collect();
    // The journal distinguishes the variants by the runners' differing
    // config fingerprints, so all four share one `--resume` file.
    let cells: Vec<SweepCell<'_>> = tasks
        .iter()
        .map(|&(gi, mi, which)| SweepCell {
            runner: &runners[which],
            mix: groups[gi].1[mi].clone(),
            policy: policy_of(which),
        })
        .collect();
    let report = run_cells(&cells, args.threads, &session);

    // Regroup: per group, per mix, the four variant results. A mix that
    // lost any variant to a failure is dropped from its group's
    // averages below (its surviving cells are still journaled).
    let mut per_group: Vec<Vec<[Option<MixResult>; 4]>> = groups
        .iter()
        .map(|(_, mixes)| (0..mixes.len()).map(|_| [None, None, None, None]).collect())
        .collect();
    for (&(gi, mi, which), result) in tasks.iter().zip(report.results) {
        per_group[gi][mi][which] = result;
    }

    let mut t = TableWriter::new(&[
        "group",
        "prefetching(%)",
        "resource-avail(%)",
        "overhead(%)",
    ]);
    let mut any_truncated = false;
    for (gi, &g) in ALL_GROUPS.iter().enumerate() {
        let (mut pf_gain, mut ra_gain) = (0.0, 0.0);
        let (mut ovh_sum, mut ovh_n) = (0.0, 0usize);
        let mut truncated = false;
        let mut surviving = 0usize;
        for (mi, mix) in groups[gi].1.iter().enumerate() {
            let cell = &per_group[gi][mi];
            // All four variants of a mix must have completed for its
            // ratios to be meaningful; a mix hit by a cell failure is
            // dropped from the averages.
            let (Some(r_full), Some(r_nopf), Some(r_nofetch), Some(r_base)) = (
                cell[FULL].as_ref(),
                cell[NOPF].as_ref(),
                cell[NOFETCH].as_ref(),
                cell[BASE].as_ref(),
            ) else {
                continue;
            };
            surviving += 1;
            truncated |= cell.iter().flatten().any(|r| !r.complete);
            pf_gain += r_full.throughput() / r_nopf.throughput() - 1.0;
            ra_gain += r_nofetch.throughput() / r_base.throughput() - 1.0;
            if let (Some(a), Some(b)) = (
                ilp_side_ipc(mix, &r_nopf.ipcs),
                ilp_side_ipc(mix, &r_base.ipcs),
            ) {
                ovh_sum += a / b - 1.0;
                ovh_n += 1;
            }
        }
        let ovh = if ovh_n > 0 {
            format!("{:+.1}", 100.0 * ovh_sum / ovh_n as f64)
        } else {
            "n/a".to_string()
        };
        let pct = |sum: f64| {
            if surviving > 0 {
                format!("{:+.1}", 100.0 * sum / surviving as f64)
            } else {
                "n/a".to_string()
            }
        };
        any_truncated |= truncated;
        t.row(vec![
            mark_row_label(g.name(), truncated),
            pct(pf_gain),
            pct(ra_gain),
            ovh,
        ]);
    }
    t.emit("Figure 4. Sources of improvement of RaT", args.csv);
    emit_truncation_note(any_truncated, args.csv);
    if !args.csv {
        println!("\n(prefetching: RaT vs RaT-no-prefetch; resource availability: RaT-no-fetch vs");
        println!(" ICOUNT; overhead: ILP co-runners under RaT-no-prefetch vs ICOUNT — negative");
        println!(" means the useless-runahead worst case costs the other threads that much.)");
    }
    let code = report_failures(&report.failures);
    if code != 0 {
        std::process::exit(code);
    }
}
