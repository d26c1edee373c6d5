//! perfbench — wall-clock benchmarks of the simulator itself.
//!
//! Every perf-oriented PR is judged against this harness: it times a
//! fixed set of representative (mix × policy) cells — one per figure
//! regime, with cycle-skip ablation pairs on the memory-bound mix where
//! skipping matters most, post-quota-drain ablation pairs on the cells
//! with the worst FAME overshoot (a fast thread retiring many times its
//! quota at full fidelity just to keep contending), and RaT / ICOUNT /
//! FLUSH coverage on the ILP and MIX groups so gains outside the tracked
//! memory-bound cells stay visible — prints a table, and writes the
//! results to a JSON artifact (default `BENCH_7.json`) of the form
//! `{bench_name: {"wall_ms": .., "cycles_simulated": .., "cycles_per_sec": ..}}`
//! so the perf trajectory is tracked in the repository.
//!
//! Two further regime families time the sweep layer rather than one
//! simulation:
//!
//! * `sweep12_batch{1,4,8}` run a fig1-style 12-cell matrix
//!   ({ILP4, MEM4, MIX4} × {ICOUNT, STALL, FLUSH, RaT}, first mix) on
//!   one worker thread through [`rat_bench::run_cells`] at the given
//!   `--batch` width, at a fortieth of the configured quota — small
//!   cells, where per-cell setup weighs most, which is what the
//!   lockstep batch engine amortizes. Results are bit-identical across
//!   widths, so the cycles/sec ratio *is* the orchestration speedup.
//! * `sweep12_batch8_noshare` is the ablation cell: the same batch-8
//!   sweep with the image cache disabled.
//!
//! The simulated *numbers* are identical with and without `noskip`
//! (enforced by `tests/cycle_skip.rs`); only wall-clock differs, which
//! is exactly what this harness measures. The `nodrain` pairs are
//! different: per-thread measurement windows still match bit-exactly,
//! but the post-overlap shared-resource timing drifts within the bound
//! measured by `tests/quota_drain.rs`, so `nodrain` cells also differ
//! slightly in simulated cycle count, not just wall clock.
//! Dependency-free: timing via `std::time::Instant`, JSON written by
//! hand.
//!
//! Flags: `--insts N` / `--warmup N` / `--seed N` (methodology),
//! `--out PATH` (JSON artifact), `--compare PATH` (print per-regime
//! cycles/sec deltas against an earlier artifact and fail on
//! regressions), `--tolerance PCT` (the regression threshold for
//! `--compare`; default 25), `--smoke` (tiny quota — verifies the
//! harness runs end to end, e.g. in CI; the timings are meaningless, so
//! `--compare` only reports and never gates under `--smoke`).

use std::time::Instant;

use rat_bench::{run_batch, run_cells, BatchOptions, SweepCell, SweepSession, TableWriter};
use rat_core::{RunConfig, Runner};
use rat_smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_workload::{mixes_for_group, ThreadImage, WorkloadGroup};

/// One benchmark cell: a Table 2 mix under a policy, with or without
/// cycle skipping / post-quota drain.
struct BenchSpec {
    name: &'static str,
    group: WorkloadGroup,
    policy: PolicyKind,
    no_skip: bool,
    no_drain: bool,
}

const fn spec(
    name: &'static str,
    group: WorkloadGroup,
    policy: PolicyKind,
    no_skip: bool,
) -> BenchSpec {
    BenchSpec {
        name,
        group,
        policy,
        no_skip,
        no_drain: false,
    }
}

const fn spec_nodrain(name: &'static str, group: WorkloadGroup, policy: PolicyKind) -> BenchSpec {
    BenchSpec {
        name,
        group,
        policy,
        no_skip: false,
        no_drain: true,
    }
}

/// The tracked benchmark set. MEM4 carries the skip-ablation pairs (the
/// memory-bound regime is where dead cycles dominate); ILP4 bounds the
/// compute-bound end where skipping rarely fires; the policy spread
/// covers every figure's hot loop (fig1: ICOUNT/STALL/FLUSH/RaT, fig2:
/// DCRA/HILL, fig4/5: RaT variants ride the RaT cell).
const BENCHES: &[BenchSpec] = &[
    spec(
        "ilp4_icount",
        WorkloadGroup::Ilp4,
        PolicyKind::Icount,
        false,
    ),
    spec("ilp4_rat", WorkloadGroup::Ilp4, PolicyKind::Rat, false),
    spec("ilp4_flush", WorkloadGroup::Ilp4, PolicyKind::Flush, false),
    spec(
        "mem4_icount",
        WorkloadGroup::Mem4,
        PolicyKind::Icount,
        false,
    ),
    spec(
        "mem4_icount_noskip",
        WorkloadGroup::Mem4,
        PolicyKind::Icount,
        true,
    ),
    spec("mem4_stall", WorkloadGroup::Mem4, PolicyKind::Stall, false),
    spec("mem4_flush", WorkloadGroup::Mem4, PolicyKind::Flush, false),
    spec("mem4_dcra", WorkloadGroup::Mem4, PolicyKind::Dcra, false),
    spec("mem4_hill", WorkloadGroup::Mem4, PolicyKind::Hill, false),
    spec("mem4_rat", WorkloadGroup::Mem4, PolicyKind::Rat, false),
    spec(
        "mem4_rat_noskip",
        WorkloadGroup::Mem4,
        PolicyKind::Rat,
        true,
    ),
    spec_nodrain("mem4_rat_nodrain", WorkloadGroup::Mem4, PolicyKind::Rat),
    spec("mix4_rat", WorkloadGroup::Mix4, PolicyKind::Rat, false),
    spec_nodrain("mix4_rat_nodrain", WorkloadGroup::Mix4, PolicyKind::Rat),
    spec(
        "mix4_icount",
        WorkloadGroup::Mix4,
        PolicyKind::Icount,
        false,
    ),
];

struct BenchResult {
    name: &'static str,
    wall_ms: f64,
    cycles: u64,
    cycles_per_sec: f64,
    skipped: u64,
    replayed: u64,
    committed: u64,
}

struct Args {
    insts: u64,
    warmup: u64,
    seed: u64,
    out: String,
    compare: Option<String>,
    /// Maximum tolerated cycles/sec regression under `--compare`, in
    /// percent.
    tolerance: f64,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        insts: 30_000,
        warmup: 20_000,
        seed: 42,
        out: "BENCH_7.json".to_string(),
        compare: None,
        tolerance: 25.0,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        fn num(v: Option<String>, what: &str) -> u64 {
            v.and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("expected a number after {what}"))
        }
        match a.as_str() {
            "--insts" => out.insts = num(args.next(), "--insts"),
            "--warmup" => out.warmup = num(args.next(), "--warmup"),
            "--seed" => out.seed = num(args.next(), "--seed"),
            "--out" => out.out = args.next().expect("expected a path after --out"),
            "--compare" => {
                out.compare = Some(args.next().expect("expected a path after --compare"));
            }
            "--tolerance" => {
                out.tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|p: &f64| (0.0..100.0).contains(p))
                    .expect("expected a percentage in [0, 100) after --tolerance");
            }
            "--smoke" => out.smoke = true,
            "--help" | "-h" => {
                eprintln!(
                    "options: --insts N  --warmup N  --seed N  --out PATH  --compare PATH  \
                     --tolerance PCT  --smoke"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if out.smoke {
        out.insts = 400;
        out.warmup = 200;
    }
    out
}

fn run_bench(s: &BenchSpec, args: &Args) -> BenchResult {
    let mix = &mixes_for_group(s.group)[0];
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = s.policy;
    let cpus = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, args.seed + i as u64).build_cpu())
        .collect();
    let mut sim = SmtSimulator::new(cfg, cpus);
    sim.set_cycle_skip(!s.no_skip);

    // Time the whole simulation (warmup + measurement): the figure
    // sweeps pay for both phases. Warmup always runs at full fidelity;
    // post-quota drain applies to the measurement phase only (as in
    // `Runner::run_mix`).
    let started = Instant::now();
    sim.run_until_quota(args.warmup, 400_000_000);
    sim.reset_stats();
    sim.set_quota_drain(!s.no_drain);
    sim.run_until_quota(args.insts, 400_000_000);
    let wall = started.elapsed();

    let cycles = sim.cycles();
    let wall_ms = wall.as_secs_f64() * 1e3;
    BenchResult {
        name: s.name,
        wall_ms,
        cycles,
        cycles_per_sec: cycles as f64 / wall.as_secs_f64().max(1e-9),
        skipped: sim.stats().skipped_cycles,
        replayed: sim.stats().fetch_replays,
        committed: sim.stats().threads.iter().map(|t| t.committed).sum::<u64>(),
    }
}

/// The sweep regimes run at a fortieth of the single-cell quota: a
/// many-small-cells sweep (the `--quick` figure-sweep shape) is where
/// per-cell setup is a measurable slice of the wall clock, which is
/// the overhead the batch engine exists to amortize (at full quota the
/// simulation loop drowns it below the timing noise).
fn sweep_runner(args: &Args) -> Runner {
    Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: (args.insts / 40).max(1),
            warmup_insts: (args.warmup / 40).max(1),
            seed: args.seed,
            ..RunConfig::default()
        },
    )
}

/// The fig1-style 12-cell matrix the sweep regimes time.
fn sweep_cells(runner: &Runner) -> Vec<SweepCell<'_>> {
    let groups = [
        WorkloadGroup::Ilp4,
        WorkloadGroup::Mem4,
        WorkloadGroup::Mix4,
    ];
    let policies = [
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Rat,
    ];
    let mut cells = Vec::new();
    for g in groups {
        let mix = mixes_for_group(g)[0].clone();
        for p in policies {
            cells.push(SweepCell {
                runner,
                mix: mix.clone(),
                policy: p,
            });
        }
    }
    cells
}

/// Folds a sweep's results into one [`BenchResult`] row. The simulated
/// numbers are bit-identical at every batch width, so two rows' cycle
/// counts always match and their cycles/sec ratio is purely the
/// orchestration (setup amortization) speedup.
fn sweep_result(
    name: &'static str,
    results: Vec<Option<rat_core::MixResult>>,
    wall: std::time::Duration,
) -> BenchResult {
    let mut cycles = 0u64;
    let mut committed = 0u64;
    for r in results.iter().map(|r| r.as_ref().expect("cell completed")) {
        cycles += r.cycles;
        committed += r.thread_stats.iter().map(|t| t.committed).sum::<u64>();
    }
    BenchResult {
        name,
        wall_ms: wall.as_secs_f64() * 1e3,
        cycles,
        cycles_per_sec: cycles as f64 / wall.as_secs_f64().max(1e-9),
        skipped: 0,
        replayed: 0,
        committed,
    }
}

/// Times the 12-cell matrix through the production sweep path
/// ([`run_cells`], one worker thread) at the given `--batch` width.
/// Best of three repetitions (results are identical each rep, so only
/// the wall clock varies): one rep's scheduling noise is on the order
/// of the setup cost the regimes measure.
fn run_sweep_bench(name: &'static str, batch: usize, args: &Args) -> BenchResult {
    let runner = sweep_runner(args);
    let cells = sweep_cells(&runner);
    let session = SweepSession {
        batch,
        ..SweepSession::none()
    };
    let reps = if args.smoke { 1 } else { 3 };
    let mut best: Option<(Vec<Option<rat_core::MixResult>>, std::time::Duration)> = None;
    for _ in 0..reps {
        let started = Instant::now();
        let report = run_cells(&cells, 1, &session);
        let wall = started.elapsed();
        assert!(report.failures.is_empty(), "sweep bench cell failed");
        if best.as_ref().is_none_or(|(_, w)| wall < *w) {
            best = Some((report.results, wall));
        }
    }
    let (results, wall) = best.unwrap();
    sweep_result(name, results, wall)
}

/// Times the 12-cell matrix through the batch engine directly with
/// `opts` — the ablation cell. Best of three repetitions, like
/// [`run_sweep_bench`].
fn run_sweep_ablation(name: &'static str, opts: BatchOptions, args: &Args) -> BenchResult {
    let runner = sweep_runner(args);
    let cells = sweep_cells(&runner);
    let queue: Vec<usize> = (0..cells.len()).collect();
    let reps = if args.smoke { 1 } else { 3 };
    let mut best: Option<(Vec<Option<rat_core::MixResult>>, std::time::Duration)> = None;
    for _ in 0..reps {
        let mut results: Vec<Option<rat_core::MixResult>> = vec![None; cells.len()];
        let started = Instant::now();
        run_batch(
            &cells,
            &queue,
            &opts,
            None,
            None,
            None,
            &mut |ci, outcome| {
                results[ci] = Some(outcome.expect("sweep bench cell failed"));
            },
        );
        let wall = started.elapsed();
        if best.as_ref().is_none_or(|(_, w)| wall < *w) {
            best = Some((results, wall));
        }
    }
    let (results, wall) = best.unwrap();
    sweep_result(name, results, wall)
}

/// Serializes the results as the tracked JSON artifact (hand-rolled;
/// the harness is dependency-free).
fn to_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {{\"wall_ms\": {:.3}, \"cycles_simulated\": {}, \"cycles_per_sec\": {:.1}}}",
            r.name, r.wall_ms, r.cycles, r.cycles_per_sec
        ));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

fn speedup_line(results: &[BenchResult], fast: &str, slow: &str, label: &str) -> Option<f64> {
    let f = results.iter().find(|r| r.name == fast)?;
    let s = results.iter().find(|r| r.name == slow)?;
    let speedup = f.cycles_per_sec / s.cycles_per_sec;
    println!("speedup ({label}): {speedup:.2}x (cycles/sec, {fast} vs {slow})");
    Some(speedup)
}

/// Extracts `"cycles_per_sec": <number>` entries keyed by bench name
/// from a prior artifact (hand-rolled to stay dependency-free; format
/// is the one `to_json` writes).
fn parse_artifact(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name_part, rest)) = line.split_once(':') else {
            continue;
        };
        let name = name_part.trim().trim_matches('"');
        let Some(idx) = rest.find("\"cycles_per_sec\":") else {
            continue;
        };
        let tail = rest[idx + "\"cycles_per_sec\":".len()..]
            .trim_start()
            .trim_end_matches(['}', ' ']);
        if let Ok(v) = tail.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Prints per-regime cycles/sec deltas against a prior artifact.
/// Returns `false` when any common regime regressed by more than
/// `tolerance` percent. Under `--smoke` the caller never gates
/// (tiny-quota timings are meaningless and CI hardware differs from the
/// benchmarking host); the deltas are still printed for visibility.
fn compare_against(results: &[BenchResult], base_path: &str, tolerance: f64, smoke: bool) -> bool {
    let body = match std::fs::read_to_string(base_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: cannot read {base_path}: {e}");
            return false;
        }
    };
    let base = parse_artifact(&body);
    if base.is_empty() {
        eprintln!("perfbench: no benchmarks parsed from {base_path}");
        return false;
    }
    let floor = 1.0 - tolerance / 100.0;
    println!("\ncompared to {base_path} (cycles/sec, tolerance {tolerance:.0}%):");
    let mut ok = true;
    for (name, old) in &base {
        let Some(new) = results.iter().find(|r| r.name == name) else {
            println!("  {name:<20} (not in this run)");
            continue;
        };
        let ratio = new.cycles_per_sec / old.max(1e-9);
        let flag = if ratio < floor {
            "  <-- REGRESSION"
        } else {
            ""
        };
        println!(
            "  {name:<20} {:>10.2} -> {:>10.2} M/s  ({ratio:>5.2}x){flag}",
            old / 1e6,
            new.cycles_per_sec / 1e6
        );
        if ratio < floor {
            ok = false;
        }
    }
    if smoke && !ok {
        println!("  (smoke run: deltas are informational only, not gated)");
    }
    ok
}

fn main() {
    let args = parse_args();
    if args.smoke {
        eprintln!("perfbench: --smoke run (tiny quota; timings are not meaningful)");
    }

    let mut results: Vec<BenchResult> = BENCHES.iter().map(|s| run_bench(s, &args)).collect();
    // One untimed sweep first: the sweep regimes have a much larger
    // allocation footprint than the single-cell benches above, and the
    // first one otherwise pays one-time page-fault/frequency-ramp costs
    // that would bias the batch1-vs-batchN ratios.
    std::hint::black_box(run_sweep_bench("sweep_warmup", 8, &args));
    results.push(run_sweep_bench("sweep12_batch1", 1, &args));
    results.push(run_sweep_bench("sweep12_batch4", 4, &args));
    results.push(run_sweep_bench("sweep12_batch8", 8, &args));
    results.push(run_sweep_ablation(
        "sweep12_batch8_noshare",
        BatchOptions {
            share_images: false,
            ..BatchOptions::new(8)
        },
        &args,
    ));
    let results = results;

    let mut t = TableWriter::new(&[
        "bench",
        "wall_ms",
        "Mcycles",
        "Mcycles/s",
        "skipped%",
        "Mreplays",
        "committed",
    ]);
    for r in &results {
        t.row(vec![
            r.name.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.2}", r.cycles as f64 / 1e6),
            format!("{:.2}", r.cycles_per_sec / 1e6),
            format!("{:.1}", 100.0 * r.skipped as f64 / r.cycles.max(1) as f64),
            format!("{:.2}", r.replayed as f64 / 1e6),
            r.committed.to_string(),
        ]);
    }
    t.emit("perfbench: simulator wall-clock benchmarks", false);
    println!();
    speedup_line(
        &results,
        "mem4_icount",
        "mem4_icount_noskip",
        "MEM4, ICOUNT, cycle-skip",
    );
    speedup_line(
        &results,
        "mem4_rat",
        "mem4_rat_noskip",
        "MEM4, RaT, cycle-skip",
    );
    speedup_line(
        &results,
        "mem4_rat",
        "mem4_rat_nodrain",
        "MEM4, RaT, post-quota drain",
    );
    speedup_line(
        &results,
        "mix4_rat",
        "mix4_rat_nodrain",
        "MIX4, RaT, post-quota drain",
    );
    speedup_line(
        &results,
        "sweep12_batch8",
        "sweep12_batch1",
        "12-cell sweep, lockstep batch 8",
    );
    speedup_line(
        &results,
        "sweep12_batch8",
        "sweep12_batch8_noshare",
        "batch 8, image-cache ablation",
    );

    let json = to_json(&results);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("perfbench: failed to write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("\nwrote {}", args.out);

    if let Some(base_path) = &args.compare {
        let ok = compare_against(&results, base_path, args.tolerance, args.smoke);
        if !ok && !args.smoke {
            eprintln!(
                "perfbench: cycles/sec regressed by more than {:.0}% vs {base_path}; failing",
                args.tolerance
            );
            std::process::exit(1);
        }
    }

    // Smoke mode is a harness self-check: every cell must have simulated
    // something and timed it.
    for r in &results {
        assert!(r.cycles > 0 && r.wall_ms > 0.0, "empty bench {}", r.name);
        assert!(r.committed > 0, "no commits in bench {}", r.name);
    }
}
