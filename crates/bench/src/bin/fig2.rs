//! Figure 2 — throughput and fairness of the dynamic resource control
//! policies: ICOUNT (baseline), DCRA, Hill Climbing and RaT.
//!
//! The group × policy × mix matrix runs in parallel over all cores
//! (`--threads 1` for a serial run; the tables are identical).

use rat_bench::{
    emit_truncation_note, mark_row_label, policy_matrix, report_failures, HarnessArgs,
    SweepSession, TableWriter,
};
use rat_core::Runner;
use rat_smt::{PolicyKind, SmtConfig};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Icount,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

fn main() {
    let args = HarnessArgs::from_env();
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), args.run_config());
    let policies = args.filter_policies(&POLICIES);
    let session = SweepSession::from_args(&args);

    let (matrix, failures) = policy_matrix(&runner, &policies, args.mixes, args.threads, &session);

    let mut headers = vec!["group".to_string()];
    headers.extend(policies.iter().map(|p| p.name().to_string()));
    let mut thr = TableWriter::from_headers(headers.clone());
    let mut fair = TableWriter::from_headers(headers);
    for (g, summaries) in &matrix {
        let truncated = summaries.iter().any(|s| s.incomplete > 0);
        let label = mark_row_label(g.name(), truncated);
        let mut trow = vec![label.clone()];
        let mut frow = vec![label];
        for s in summaries {
            trow.push(format!("{:.3}", s.throughput));
            frow.push(format!("{:.3}", s.fairness));
        }
        thr.row(trow);
        fair.row(frow);
    }
    thr.emit(
        "Figure 2(a). Throughput (avg IPC) per resource control policy",
        args.csv,
    );
    println!();
    fair.emit(
        "Figure 2(b). Fairness per resource control policy",
        args.csv,
    );
    emit_truncation_note(
        matrix
            .iter()
            .any(|(_, ss)| ss.iter().any(|s| s.incomplete > 0)),
        args.csv,
    );
    let code = report_failures(&failures);
    if code != 0 {
        std::process::exit(code);
    }
}
