//! Figure 3 — Energy-Delay² (executed instructions × CPI²) of every
//! evaluated technique, normalized to the ICOUNT baseline per group.
//!
//! ICOUNT rides along as the first policy column of the parallel sweep
//! and provides the per-group normalization denominator.

use rat_bench::{
    emit_truncation_note, mark_row_label, policy_matrix, report_failures, HarnessArgs,
    SweepSession, TableWriter,
};
use rat_core::Runner;
use rat_smt::{PolicyKind, SmtConfig};

/// ICOUNT first (the baseline), then the techniques under evaluation.
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

fn main() {
    let args = HarnessArgs::from_env();
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), args.run_config());
    // ED² is normalized to ICOUNT, so the baseline always occupies
    // column 0 even when --policies narrows the technique set.
    let mut policies = args.filter_policies(&POLICIES);
    policies.retain(|&p| p != PolicyKind::Icount);
    policies.insert(0, PolicyKind::Icount);
    let session = SweepSession::from_args(&args);

    let (matrix, failures) = policy_matrix(&runner, &policies, args.mixes, args.threads, &session);

    let mut headers = vec!["group".to_string()];
    headers.extend(policies[1..].iter().map(|p| p.name().to_string()));
    let mut t = TableWriter::from_headers(headers);
    for (g, summaries) in &matrix {
        let base = &summaries[0];
        // A truncated mix on either side of a ratio taints the row.
        let truncated = summaries.iter().any(|s| s.incomplete > 0);
        let mut row = vec![mark_row_label(g.name(), truncated)];
        for s in &summaries[1..] {
            row.push(format!("{:.3}", s.ed2 / base.ed2));
        }
        t.row(row);
    }
    t.emit(
        "Figure 3. ED² normalized to ICOUNT (lower is better)",
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
