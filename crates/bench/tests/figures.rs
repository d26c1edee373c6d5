//! The figure driver end to end: `figs` against the six figure binaries,
//! and the cell order a fault plan indexes.
//!
//! Release builds run the six figures at `--quick`; debug builds run a
//! smaller sweep with the same structure, so the suite stays quick.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rat_core::ResultStore;
use rat_smt::PolicyKind;
use rat_workload::{mixes_for_group, Mix, WorkloadGroup};

const FIGS: [&str; 6] = [
    env!("CARGO_BIN_EXE_fig1"),
    env!("CARGO_BIN_EXE_fig2"),
    env!("CARGO_BIN_EXE_fig3"),
    env!("CARGO_BIN_EXE_fig4"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig6"),
];

/// The sweep scale every run here shares.
fn scale() -> &'static [&'static str] {
    if cfg!(debug_assertions) {
        &["--mixes", "1", "--insts", "1500", "--warmup", "500"]
    } else {
        &["--quick"]
    }
}

fn run(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin)
        .args(scale())
        .args(args)
        .output()
        .expect("spawn a figure binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rat_figs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The journal's record lines, sorted.
fn records(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> = std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with("rec "))
        .map(str::to_string)
        .collect();
    lines.sort_unstable();
    lines
}

#[test]
fn figs_is_the_six_figures_from_one_sweep_of_distinct_cells() {
    // The six binaries on one shared journal: their stdout, concatenated,
    // and the records they leave.
    let shared = tmp_journal("shared");
    let mut six = Vec::new();
    for bin in FIGS {
        six.extend(run(bin, &["--csv", "--resume", shared.to_str().unwrap()]).stdout);
    }

    let journal = tmp_journal("union");
    let resume = ["--csv", "--resume", journal.to_str().unwrap()];
    let cold = run(env!("CARGO_BIN_EXE_figs"), &resume);
    assert!(
        cold.stdout == six,
        "figs must print the six figures' stdout byte for byte:\n{}",
        String::from_utf8_lossy(&cold.stdout)
    );

    // Each distinct cell is simulated and journaled once: the records
    // are exactly the shared journal's, with no key twice.
    let store = ResultStore::open(&journal);
    assert_eq!(store.stats().duplicates, 0);
    assert_eq!(store.stats().quarantined, 0);
    assert_eq!(records(&journal), records(&shared));
    let distinct = if cfg!(debug_assertions) { 143 } else { 256 };
    assert_eq!(store.stats().loaded, distinct);
    drop(store);
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert_eq!(
        stderr.matches("sweep: ").count(),
        1,
        "one sweep line: {stderr}"
    );
    assert!(stderr.contains(&format!("sweep: {distinct} simulations")));

    let warm = run(env!("CARGO_BIN_EXE_figs"), &resume);
    assert_eq!(warm.stdout, six);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("sweep: 0 simulations"), "{stderr}");

    for path in [shared, journal] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_lone_fig3_simulates_no_reference() {
    // fig3 prints only ED² ratios, which need no single-thread reference:
    // its sweep is its matrix cells (group × six policies × mixes), and
    // its journal holds no `ST` record.
    let journal = tmp_journal("fig3");
    let out = run(FIGS[2], &["--csv", "--resume", journal.to_str().unwrap()]);
    let cells = if cfg!(debug_assertions) { 36 } else { 72 };
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("sweep: {cells} simulations")),
        "{stderr}"
    );
    let records = records(&journal);
    assert_eq!(records.len(), cells);
    assert!(
        records.iter().all(|r| r.split(' ').nth(2) != Some("ST")),
        "a reference was journaled: {records:?}"
    );
    let _ = std::fs::remove_file(journal);
}

/// The failure report's line for cell `index`, `mix` under `policy`.
fn failed_cell(index: usize, mix: &Mix, policy: PolicyKind) -> String {
    format!("cell {index}: {mix} under {} [", policy.name())
}

#[test]
fn a_fault_plan_indexes_a_figure_in_its_binary_s_cell_order() {
    // fig1 under two policies: group, then policy, then mix (one mix per
    // group, so 12 cells), then the references, benchmark by benchmark
    // in cell order. Cell 3 is MIX2 under RaT; cell 12 is the first ILP2
    // benchmark's reference.
    let first = |g| mixes_for_group(g).remove(0);
    let plan = [
        "--policies",
        "icount,rat",
        "--fault-plan",
        "panic@3,panic@12",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_fig1"))
        .args(["--mixes", "1", "--insts", "1500", "--warmup", "500"])
        .args(plan)
        .output()
        .expect("spawn fig1");
    assert!(!out.status.success(), "a failed cell exits non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ilp2 = first(WorkloadGroup::Ilp2);
    for line in [
        failed_cell(3, &first(WorkloadGroup::Mix2), PolicyKind::Rat),
        failed_cell(
            12,
            &Mix::single_thread(ilp2.benchmarks[0]),
            PolicyKind::Icount,
        ),
        "sweep: 2 cell(s) FAILED".to_string(),
    ] {
        assert!(stderr.contains(&line), "missing {line:?} in {stderr}");
    }

    // fig5 reads no fairness, so it has no references: group, then mix.
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--mixes", "1", "--insts", "1500", "--warmup", "500"])
        .args(["--fault-plan", "panic@2"])
        .output()
        .expect("spawn fig5");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = failed_cell(2, &first(WorkloadGroup::Mem2), PolicyKind::Rat);
    assert!(stderr.contains(&line), "missing {line:?} in {stderr}");
    assert!(stderr.contains("sweep: 1 cell(s) FAILED"), "{stderr}");
}
