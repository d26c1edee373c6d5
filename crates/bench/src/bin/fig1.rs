//! Figure 1 — throughput and fairness of the I-fetch policies:
//! ICOUNT (baseline), STALL, FLUSH and RaT over the Table 2 groups.
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
    PolicyKind::Stall,
    PolicyKind::Flush,
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
        "Figure 1(a). Throughput (avg IPC, Eq. 1) per I-fetch policy",
        args.csv,
    );
    println!();
    fair.emit(
        "Figure 1(b). Fairness (hmean of speedups, Eq. 2) per I-fetch policy",
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
