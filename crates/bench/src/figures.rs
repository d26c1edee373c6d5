//! The figure driver: Figures 1–6 of the paper's evaluation (§6) from
//! one sweep over the deduplicated union of their cells.
//!
//! Each [`Figure`] declares the cells it reads — a mix under a policy on
//! one hardware configuration — in a fixed order, and renders its tables
//! from the results keyed by [`rat_core::CellKey`]. [`main`] hands the
//! requested figures' cells to one sweep (`sweep::run_union`), which
//! runs each key once, at its first occurrence, with the single-thread
//! references behind Eq. 2 fairness at the tail: one executor, one
//! `--resume` journal, one `sweep:` line. Then it renders the figures
//! in order and prints one failure report.
//!
//! The figures overlap: fig3's six policies contain fig1's and fig2's
//! four, fig4's full-RaT and ICOUNT cells and all of fig5 are baseline
//! cells, and fig6's 320-register column is the baseline. At `--quick`
//! the six binaries simulate 442 cells between them, 256 of them
//! distinct; `figs` simulates each of the 256 once.
//!
//! `fig1`–`fig6` each render one figure, and `figs` renders all six: its
//! stdout is the six binaries' stdout, concatenated.

use rat_core::{config_fingerprint, GroupSummary, RunConfig, Runner};
use rat_smt::{PolicyKind, RunaheadVariant, SmtConfig};
use rat_workload::{Mix, ThreadClass, WorkloadGroup, ALL_GROUPS};

use crate::cli::HarnessArgs;
use crate::sweep::{
    matrix_order, report_failures, run_union, select_mixes, CellResults, SweepCell, SweepSession,
};
use crate::table::TableWriter;

/// A figure of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Throughput and fairness of the I-fetch policies: ICOUNT
    /// (baseline), STALL, FLUSH and RaT over the Table 2 groups.
    Fig1,
    /// Throughput and fairness of the dynamic resource control policies:
    /// ICOUNT (baseline), DCRA, Hill Climbing and RaT.
    Fig2,
    /// Energy-Delay² (executed instructions × CPI²) of every evaluated
    /// technique, normalized to the ICOUNT baseline per group. ICOUNT
    /// always runs, as the normalization denominator.
    Fig3,
    /// Sources of improvement of RaT (§6.1), from three ablations per mix:
    ///
    /// * **Prefetching**: speedup of full RaT over RaT-without-prefetching
    ///   (runahead loads may not touch the L2; suppressed loads do not
    ///   re-trigger runahead after recovery).
    /// * **Resource availability**: speedup of RaT-without-fetching (enter
    ///   runahead, stop fetching, drain and release resources) over
    ///   ICOUNT — the early-release benefit in isolation.
    /// * **Overhead**: change of the *other* threads' IPC when a thread
    ///   runs ahead without prefetching, vs. the ICOUNT baseline — the
    ///   worst case where all runahead work is useless.
    Fig4,
    /// Average allocated physical registers (INT+FP) per cycle, in normal
    /// mode vs. runahead mode, per workload group (RaT policy).
    Fig5,
    /// Throughput (and, riding along, Eq. 2 fairness) vs. physical
    /// register file size for FLUSH and RaT, on 2-thread (a) and
    /// 4-thread (b) workload groups.
    ///
    /// Deviation from the paper: our renamer pins 32 INT + 32 FP
    /// registers per thread for architectural state and needs headroom
    /// to dispatch at all, so the sweep starts at 96 registers for 2
    /// threads and 160 for 4 threads (the paper's x-axis nominally starts
    /// at 64, while itself noting that 4 threads already need 128
    /// registers for precise state).
    Fig6,
}

/// Every figure, in paper order: what `figs` renders.
pub const FIGURES: [Figure; 6] = [
    Figure::Fig1,
    Figure::Fig2,
    Figure::Fig3,
    Figure::Fig4,
    Figure::Fig5,
    Figure::Fig6,
];

const FIG1_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Rat,
];

const FIG2_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Icount,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

const FIG1_TITLES: [&str; 2] = [
    "Figure 1(a). Throughput (avg IPC, Eq. 1) per I-fetch policy",
    "Figure 1(b). Fairness (hmean of speedups, Eq. 2) per I-fetch policy",
];

const FIG2_TITLES: [&str; 2] = [
    "Figure 2(a). Throughput (avg IPC) per resource control policy",
    "Figure 2(b). Fairness per resource control policy",
];

/// ICOUNT first (the baseline), then the techniques under evaluation.
const FIG3_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

/// fig4's four runs per mix, in cell order: full RaT, RaT without
/// prefetching, RaT without fetching, and the ICOUNT baseline.
const FIG4_RUNS: [(RunaheadVariant, PolicyKind); 4] = [
    (RunaheadVariant::Full, PolicyKind::Rat),
    (RunaheadVariant::NoPrefetch, PolicyKind::Rat),
    (RunaheadVariant::NoFetch, PolicyKind::Rat),
    (RunaheadVariant::Full, PolicyKind::Icount),
];

const FIG6_POLICIES: [PolicyKind; 2] = [PolicyKind::Flush, PolicyKind::Rat];

/// One fig6 sweep: its groups, its register-file sizes (INT and FP
/// each), and the titles of its throughput and fairness tables.
struct RegisterSweep {
    groups: [WorkloadGroup; 3],
    sizes: &'static [usize],
    titles: [&'static str; 2],
}

const FIG6_SWEEPS: [RegisterSweep; 2] = [
    RegisterSweep {
        groups: [
            WorkloadGroup::Ilp2,
            WorkloadGroup::Mix2,
            WorkloadGroup::Mem2,
        ],
        sizes: &[96, 128, 192, 256, 320],
        titles: [
            "Figure 6(a). Throughput vs register file size, 2-thread workloads",
            "Figure 6(a'). Fairness vs register file size, 2-thread workloads",
        ],
    },
    RegisterSweep {
        groups: [
            WorkloadGroup::Ilp4,
            WorkloadGroup::Mix4,
            WorkloadGroup::Mem4,
        ],
        sizes: &[160, 192, 256, 320],
        titles: [
            "Figure 6(b). Throughput vs register file size, 4-thread workloads",
            "Figure 6(b'). Fairness vs register file size, 4-thread workloads",
        ],
    },
];

/// Table 1 hardware with the given runahead variant.
fn variant_config(variant: RunaheadVariant) -> SmtConfig {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.runahead = variant;
    cfg
}

/// Table 1 hardware with both register files resized.
fn sized_config(size: usize) -> SmtConfig {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.regs = size;
    cfg
}

/// One cell a figure reads: `mix` under `policy` on hardware `smt`.
struct Cell {
    smt: SmtConfig,
    mix: Mix,
    policy: PolicyKind,
}

/// One runner per hardware configuration the figures declare, all on
/// the harness's methodology. A configuration is found by its
/// fingerprint, so configurations the fingerprint cannot tell apart
/// share one runner and one set of single-thread references: the
/// baseline is also fig4's full-RaT configuration and fig6's
/// 320-register one.
struct Runners {
    run: RunConfig,
    pool: Vec<Runner>,
}

impl Runners {
    fn new(run: RunConfig, configs: impl IntoIterator<Item = SmtConfig>) -> Runners {
        let mut runners = Runners {
            run,
            pool: Vec::new(),
        };
        for smt in configs {
            if runners.find(&smt).is_none() {
                runners.pool.push(Runner::new(smt, run));
            }
        }
        runners
    }

    fn find(&self, smt: &SmtConfig) -> Option<&Runner> {
        let fingerprint = config_fingerprint(smt, &self.run);
        self.pool
            .iter()
            .find(|r| r.config_fingerprint() == fingerprint)
    }

    fn get(&self, smt: &SmtConfig) -> &Runner {
        self.find(smt)
            .expect("every rendered configuration was declared")
    }
}

/// Every Table 2 mix (at most `--mixes` per group), group by group.
fn all_mixes(args: &HarnessArgs) -> impl Iterator<Item = Mix> + '_ {
    ALL_GROUPS.iter().flat_map(|&g| select_mixes(g, args.mixes))
}

impl Figure {
    /// Whether the figure's summaries compute Eq. 2 fairness
    /// ([`Runner::summarize`]), so its cells need single-thread
    /// references. fig3 prints only ED² ratios.
    fn needs_references(self) -> bool {
        !matches!(self, Figure::Fig3 | Figure::Fig4 | Figure::Fig5)
    }

    /// The policy columns of fig1–fig3 under `--policies`.
    fn policies(self, args: &HarnessArgs) -> Vec<PolicyKind> {
        match self {
            Figure::Fig1 => args.filter_policies(&FIG1_POLICIES),
            Figure::Fig2 => args.filter_policies(&FIG2_POLICIES),
            _ => {
                // ED² is normalized to ICOUNT, so the baseline always
                // occupies column 0 even when --policies narrows the
                // technique set.
                let mut policies = args.filter_policies(&FIG3_POLICIES);
                policies.retain(|&p| p != PolicyKind::Icount);
                policies.insert(0, PolicyKind::Icount);
                policies
            }
        }
    }

    /// The cells the figure reads, in the fixed order a fault plan's
    /// `panic@C` indexes: fig1–fig3 group, policy, mix; fig4 group, mix,
    /// run; fig5 group, mix; fig6 its 2-thread cells, then its 4-thread
    /// cells, each group, policy, size, mix.
    fn cells(self, args: &HarnessArgs) -> Vec<Cell> {
        let base = SmtConfig::hpca2008_baseline();
        let cell = |smt, mix: &Mix, policy| Cell {
            smt,
            mix: mix.clone(),
            policy,
        };
        match self {
            Figure::Fig1 | Figure::Fig2 | Figure::Fig3 => {
                matrix_order(&self.policies(args), args.mixes)
                    .iter()
                    .map(|(m, p)| cell(base, m, *p))
                    .collect()
            }
            Figure::Fig4 => all_mixes(args)
                .flat_map(|m| FIG4_RUNS.map(|(v, p)| cell(variant_config(v), &m, p)))
                .collect(),
            Figure::Fig5 => all_mixes(args)
                .map(|m| cell(base, &m, PolicyKind::Rat))
                .collect(),
            Figure::Fig6 => {
                let mut cells = Vec::new();
                for sweep in &FIG6_SWEEPS {
                    for &g in &sweep.groups {
                        let mixes = select_mixes(g, args.mixes);
                        for p in FIG6_POLICIES {
                            for &size in sweep.sizes {
                                let smt = sized_config(size);
                                cells.extend(mixes.iter().map(|m| cell(smt, m, p)));
                            }
                        }
                    }
                }
                cells
            }
        }
    }

    /// Prints the figure's tables to stdout.
    fn render(self, args: &HarnessArgs, runners: &Runners, results: &CellResults) {
        let base = runners.get(&SmtConfig::hpca2008_baseline());
        match self {
            Figure::Fig1 | Figure::Fig2 => {
                let policies = self.policies(args);
                let rows = results
                    .matrix(base, &policies, args.mixes)
                    .into_iter()
                    .map(|(g, summaries)| (g.name().to_string(), summaries));
                let titles = if self == Figure::Fig1 {
                    FIG1_TITLES
                } else {
                    FIG2_TITLES
                };
                let headers = policy_headers(&policies);
                let truncated = emit_throughput_and_fairness(headers, rows, titles, args.csv);
                emit_truncation_note(truncated, args.csv);
            }
            Figure::Fig3 => render_ed2(args, base, results),
            Figure::Fig4 => render_sources(args, runners, results),
            Figure::Fig5 => render_registers(args, base, results),
            Figure::Fig6 => render_register_sweeps(args, runners, results),
        }
    }
}

/// Regenerates `figures` from one sweep over the union of their cells,
/// under the harness flags of the process arguments: runs the sweep,
/// prints each figure's tables to stdout in order, then the failure
/// report, and exits non-zero if any cell failed. Each figure binary is
/// this call.
pub fn main(figures: &[Figure]) {
    let args = HarnessArgs::from_env();
    let declared: Vec<(Figure, Vec<Cell>)> = figures.iter().map(|&f| (f, f.cells(&args))).collect();
    let runners = Runners::new(
        args.run_config(),
        declared
            .iter()
            .flat_map(|(_, cells)| cells.iter().map(|c| c.smt)),
    );
    let session = SweepSession::from_args(&args);
    let cells = declared.into_iter().flat_map(|(figure, cells)| {
        let runners = &runners;
        cells.into_iter().map(move |c| {
            let cell = SweepCell {
                runner: runners.get(&c.smt),
                mix: c.mix,
                policy: c.policy,
            };
            (cell, figure.needs_references())
        })
    });
    let (results, failures) = run_union(cells, args.threads, &session);
    for figure in figures {
        figure.render(&args, &runners, &results);
    }
    let code = report_failures(&failures);
    if code != 0 {
        std::process::exit(code);
    }
}

/// Marks a row label with `*` when the row's data covers mixes
/// truncated at `max_cycles` (their IPCs come from an incomplete
/// window; the `Runner` also reports each on stderr). The mark rides on
/// the *label* — always a string column — so numeric CSV columns stay
/// parseable as floats.
fn mark_row_label(label: impl Into<String>, truncated: bool) -> String {
    let label = label.into();
    if truncated {
        format!("{label}*")
    } else {
        label
    }
}

/// Whether any of `summaries` covers a truncated mix.
fn truncated(summaries: &[GroupSummary]) -> bool {
    summaries.iter().any(|s| s.incomplete > 0)
}

/// Prints the `*` footnote when `truncated` — as a `#` comment under
/// `--csv` so redirected output stays machine-readable.
fn emit_truncation_note(truncated: bool, csv: bool) {
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

/// A `group` column, then one column per policy.
fn policy_headers(policies: &[PolicyKind]) -> Vec<String> {
    let mut headers = vec!["group".to_string()];
    headers.extend(policies.iter().map(|p| p.name().to_string()));
    headers
}

/// A throughput and a fairness table (fig1, fig2 and each half of fig6)
/// over the same rows, each a label and one summary per column; returns
/// whether any row covers a truncated mix.
fn emit_throughput_and_fairness(
    headers: Vec<String>,
    rows: impl IntoIterator<Item = (String, Vec<GroupSummary>)>,
    titles: [&str; 2],
    csv: bool,
) -> bool {
    let mut thr = TableWriter::from_headers(headers.clone());
    let mut fair = TableWriter::from_headers(headers);
    let mut any_truncated = false;
    for (label, summaries) in rows {
        let row_truncated = truncated(&summaries);
        any_truncated |= row_truncated;
        let label = mark_row_label(label, row_truncated);
        let cells = |metric: fn(&GroupSummary) -> f64| {
            let values = summaries.iter().map(|s| format!("{:.3}", metric(s)));
            std::iter::once(label.clone()).chain(values).collect()
        };
        thr.row(cells(|s| s.throughput));
        fair.row(cells(|s| s.fairness));
    }
    thr.emit(titles[0], csv);
    println!();
    fair.emit(titles[1], csv);
    any_truncated
}

/// fig3: per group, each technique's mean ED² over ICOUNT's (column 0
/// of [`Figure::policies`]), each mean over the mixes that completed.
fn render_ed2(args: &HarnessArgs, base: &Runner, results: &CellResults) {
    let policies = Figure::Fig3.policies(args);
    let mut t = TableWriter::from_headers(policy_headers(&policies[1..]));
    let mut any_truncated = false;
    for &g in ALL_GROUPS {
        let mixes = select_mixes(g, args.mixes);
        let means: Vec<(f64, bool)> = policies
            .iter()
            .map(|&p| results.mean_ed2(base, &mixes, p))
            .collect();
        // A truncated mix on either side of a ratio taints the row.
        let row_truncated = means.iter().any(|&(_, truncated)| truncated);
        any_truncated |= row_truncated;
        let mut row = vec![mark_row_label(g.name(), row_truncated)];
        row.extend(
            means[1..]
                .iter()
                .map(|(ed2, _)| format!("{:.3}", ed2 / means[0].0)),
        );
        t.row(row);
    }
    t.emit(
        "Figure 3. ED² normalized to ICOUNT (lower is better)",
        args.csv,
    );
    emit_truncation_note(any_truncated, args.csv);
}

/// Average IPC of the ILP-class threads of a mix result (the "remaining
/// threads" of fig4's overhead experiment).
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

/// fig4: per group, the prefetching, resource-availability and overhead
/// percentages averaged over the mixes whose four runs all completed.
fn render_sources(args: &HarnessArgs, runners: &Runners, results: &CellResults) {
    let mut t = TableWriter::new(&[
        "group",
        "prefetching(%)",
        "resource-avail(%)",
        "overhead(%)",
    ]);
    let mut any_truncated = false;
    for &g in ALL_GROUPS {
        let (mut pf_gain, mut ra_gain) = (0.0, 0.0);
        let (mut ovh_sum, mut ovh_n) = (0.0, 0usize);
        let mut truncated = false;
        let mut surviving = 0usize;
        for mix in select_mixes(g, args.mixes) {
            let run = |(v, p): (RunaheadVariant, PolicyKind)| {
                results.get(runners.get(&variant_config(v)), &mix, p)
            };
            // All four runs of a mix must have completed for its ratios
            // to be meaningful; a mix hit by a cell failure is dropped
            // from the averages.
            let [Some(r_full), Some(r_nopf), Some(r_nofetch), Some(r_base)] = FIG4_RUNS.map(run)
            else {
                continue;
            };
            surviving += 1;
            truncated |= [r_full, r_nopf, r_nofetch, r_base]
                .iter()
                .any(|r| !r.complete);
            pf_gain += r_full.throughput() / r_nopf.throughput() - 1.0;
            ra_gain += r_nofetch.throughput() / r_base.throughput() - 1.0;
            if let (Some(a), Some(b)) = (
                ilp_side_ipc(&mix, &r_nopf.ipcs),
                ilp_side_ipc(&mix, &r_base.ipcs),
            ) {
                ovh_sum += a / b - 1.0;
                ovh_n += 1;
            }
        }
        let pct = |sum: f64, n: usize| {
            if n > 0 {
                format!("{:+.1}", 100.0 * sum / n as f64)
            } else {
                "n/a".to_string()
            }
        };
        any_truncated |= truncated;
        t.row(vec![
            mark_row_label(g.name(), truncated),
            pct(pf_gain, surviving),
            pct(ra_gain, surviving),
            pct(ovh_sum, ovh_n),
        ]);
    }
    t.emit("Figure 4. Sources of improvement of RaT", args.csv);
    emit_truncation_note(any_truncated, args.csv);
    if !args.csv {
        println!("\n(prefetching: RaT vs RaT-no-prefetch; resource availability: RaT-no-fetch vs");
        println!(" ICOUNT; overhead: ILP co-runners under RaT-no-prefetch vs ICOUNT — negative");
        println!(" means the useless-runahead worst case costs the other threads that much.)");
    }
}

/// fig5: per group, the registers a thread holds per cycle in each mode,
/// averaged over the threads that spent cycles in that mode.
fn render_registers(args: &HarnessArgs, base: &Runner, results: &CellResults) {
    let mut t = TableWriter::new(&["group", "normal mode", "runahead mode", "ratio"]);
    let mut any_truncated = false;
    for &g in ALL_GROUPS {
        let (mut normal, mut nn) = (0.0, 0u64);
        let (mut ra, mut rn) = (0.0, 0u64);
        let mut truncated = false;
        for mix in select_mixes(g, args.mixes) {
            // A failed cell contributes nothing to its group's averages.
            let Some(r) = results.get(base, &mix, PolicyKind::Rat) else {
                continue;
            };
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
        let (ra, ratio) = if rn > 0 {
            let ra = ra / rn as f64;
            (format!("{ra:.1}"), format!("{:.2}", ra / normal))
        } else {
            ("n/a".into(), "n/a".into())
        };
        any_truncated |= truncated;
        t.row(vec![
            mark_row_label(g.name(), truncated),
            format!("{normal:.1}"),
            ra,
            ratio,
        ]);
    }
    t.emit(
        "Figure 5. Avg physical registers (INT+FP) used per cycle per thread, \
         normal vs runahead mode (RaT policy)",
        args.csv,
    );
    emit_truncation_note(any_truncated, args.csv);
}

/// fig6: per sweep, a throughput and a fairness table with one row per
/// (policy, group) and one column per register-file size. A row that
/// lost mixes to failures is summarized over the survivors; an
/// all-failed one reports zeros.
fn render_register_sweeps(args: &HarnessArgs, runners: &Runners, results: &CellResults) {
    let mut any_truncated = false;
    for (i, sweep) in FIG6_SWEEPS.iter().enumerate() {
        let mut headers = vec!["policy/group".to_string()];
        headers.extend(sweep.sizes.iter().map(|s| format!("{s}r")));
        let mut rows = Vec::new();
        for &g in &sweep.groups {
            let mixes = select_mixes(g, args.mixes);
            for p in FIG6_POLICIES {
                let summaries = sweep
                    .sizes
                    .iter()
                    .map(|&size| results.summary(runners.get(&sized_config(size)), &mixes, p))
                    .collect();
                rows.push((format!("{} {}", p.name(), g.name()), summaries));
            }
        }
        if i > 0 {
            println!();
        }
        any_truncated |= emit_throughput_and_fairness(headers, rows, sweep.titles, args.csv);
    }
    emit_truncation_note(any_truncated, args.csv);
}
