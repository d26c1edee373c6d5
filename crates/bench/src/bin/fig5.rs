//! Figure 5 — average allocated physical registers (INT+FP) per cycle, in
//! normal mode vs. runahead mode, per workload group (RaT policy).
//!
//! Every mix simulation is independent, so all groups' mixes run in
//! parallel over all cores.

use rat_bench::{
    emit_truncation_note, mark_row_label, report_failures, run_cells, select_mixes, HarnessArgs,
    SweepCell, SweepSession, TableWriter,
};
use rat_core::Runner;
use rat_smt::{PolicyKind, SmtConfig};
use rat_workload::{Mix, ALL_GROUPS};

fn main() {
    let args = HarnessArgs::from_env();
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), args.run_config());
    let session = SweepSession::from_args(&args);

    let tasks: Vec<(usize, Mix)> = ALL_GROUPS
        .iter()
        .enumerate()
        .flat_map(|(gi, &g)| {
            select_mixes(g, args.mixes)
                .into_iter()
                .map(move |m| (gi, m))
        })
        .collect();
    let cells: Vec<SweepCell<'_>> = tasks
        .iter()
        .map(|(_, mix)| SweepCell {
            runner: &runner,
            mix: mix.clone(),
            policy: PolicyKind::Rat,
        })
        .collect();
    let report = run_cells(&cells, args.threads, &session);
    let results = &report.results;

    let mut t = TableWriter::new(&["group", "normal mode", "runahead mode", "ratio"]);
    let mut any_truncated = false;
    for (gi, &g) in ALL_GROUPS.iter().enumerate() {
        // Per-cycle per-thread register occupancy, averaged over threads
        // that actually spent cycles in each mode.
        let (mut normal, mut nn) = (0.0, 0u64);
        let (mut ra, mut rn) = (0.0, 0u64);
        let mut truncated = false;
        for ((tgi, _), r) in tasks.iter().zip(results) {
            if *tgi != gi {
                continue;
            }
            // A failed cell contributes nothing to its group's averages.
            let Some(r) = r else { continue };
            truncated |= !r.complete;
            for ts in &r.thread_stats {
                if let Some(v) = ts.regs_per_cycle(0) {
                    normal += v;
                    nn += 1;
                }
                if let Some(v) = ts.regs_per_cycle(1) {
                    ra += v;
                    rn += 1;
                }
            }
        }
        let normal = normal / nn.max(1) as f64;
        let ra = if rn > 0 { ra / rn as f64 } else { f64::NAN };
        any_truncated |= truncated;
        t.row(vec![
            mark_row_label(g.name(), truncated),
            format!("{normal:.1}"),
            if rn > 0 {
                format!("{ra:.1}")
            } else {
                "n/a".into()
            },
            if rn > 0 {
                format!("{:.2}", ra / normal)
            } else {
                "n/a".into()
            },
        ]);
    }
    t.emit(
        "Figure 5. Avg physical registers (INT+FP) used per cycle per thread, \
         normal vs runahead mode (RaT policy)",
        args.csv,
    );
    emit_truncation_note(any_truncated, args.csv);
    let code = report_failures(&report.failures);
    if code != 0 {
        std::process::exit(code);
    }
}
