//! The golden cells and their checker, used by `tests/golden.rs`.
//!
//! `tests/golden.txt` holds one line per cell, `<label> <digest>`. A
//! simulated cell's digest is the FNV-1a of its journal record line's
//! body, everything before ` crc ` (`format_record_line` over
//! `encode_result`, keyed with fingerprint 0 so that the configuration
//! fingerprint cannot move it). That is the `crc` of a `ratstore v1`
//! record, so the digests pinned under v1 still hold under the XXH64
//! records of v2. A single-thread reference's digest is the raw bits of
//! its IPC.
//!
//! On drift a check lists every drifted cell (label, pinned digest, new
//! digest) and then prints the whole regenerated `golden.txt`. A change
//! meant to move results re-pins by pasting that text over the file.

use std::collections::{BTreeMap, BTreeSet};

use rat_core::smt::{PolicyKind, RunaheadVariant, SmtConfig};
use rat_core::store::{encode_result, fnv1a};
use rat_core::workload::{
    mixes_for_group, Benchmark, Mix, WorkloadGroup, ALL_BENCHMARKS, ALL_GROUPS,
};
use rat_core::{format_record_line, par_map, CellKey, RunConfig, Runner};

const GOLDEN: &str = include_str!("../golden.txt");

const HEADER: &str = "\
# Golden cell digests checked by tests/golden.rs, one `<label> <digest>`
# per cell. To re-pin an intended change, paste the file the test prints.
";

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

/// A property a cell's result must have, so the cell really pins the
/// path it is there for.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Any,
    Flushes,
    Truncates,
}

enum Sim {
    Mix(Mix, PolicyKind),
    SingleThread(Benchmark),
}

pub struct Cell {
    pub label: String,
    smt: SmtConfig,
    run: RunConfig,
    sim: Sim,
    pub expect: Expect,
    /// Checked only by the release-build test.
    release_only: bool,
}

/// Seed-42 methodology at the given quotas.
fn quotas(insts: u64, warmup: u64, max_cycles: u64) -> RunConfig {
    RunConfig {
        insts_per_thread: insts,
        warmup_insts: warmup,
        max_cycles,
        seed: 42,
        ..RunConfig::default()
    }
}

fn mix_cell(tag: &str, smt: SmtConfig, run: RunConfig, mix: Mix, policy: PolicyKind) -> Cell {
    Cell {
        label: format!("{tag} {mix} {}", policy.name()),
        smt,
        run,
        sim: Sim::Mix(mix, policy),
        expect: Expect::Any,
        release_only: false,
    }
}

/// The first mix of a workload group.
pub fn first(group: WorkloadGroup) -> Mix {
    mixes_for_group(group).swap_remove(0)
}

/// Every golden cell, in `golden.txt` order.
pub fn cells() -> Vec<Cell> {
    use PolicyKind::{Flush, Rat};
    use WorkloadGroup::{Mem4, Mix4};
    let base = SmtConfig::hpca2008_baseline();
    let quick = quotas(1_500, 700, 100_000_000);
    let mut cells = Vec::new();
    for &g in ALL_GROUPS {
        for p in ALL_POLICIES {
            cells.push(mix_cell("quick", base, quick, first(g), p));
        }
    }
    // FLUSH on the memory-bound group squashes constantly: the partial
    // rewind (to a surviving in-flight instruction, not the commit
    // point) that runahead exits never take.
    let mem4_1 = mixes_for_group(Mem4).swap_remove(1);
    cells.push(Cell {
        expect: Expect::Flushes,
        ..mix_cell("quick", base, quick, mem4_1, Flush)
    });
    // An unreachable quota: the clock stops mid-flight, possibly
    // mid-squash.
    let truncated = quotas(10_000_000, 200, 20_000);
    cells.push(Cell {
        expect: Expect::Truncates,
        ..mix_cell("truncated", base, truncated, first(Mem4), Rat)
    });
    for (tag, variant) in [
        ("fig4-noprefetch", RunaheadVariant::NoPrefetch),
        ("fig4-nofetch", RunaheadVariant::NoFetch),
    ] {
        let mut smt = base;
        smt.runahead = variant;
        for g in [Mem4, Mix4] {
            cells.push(mix_cell(tag, smt, quick, first(g), Rat));
        }
    }
    let mut regs160 = base;
    regs160.regs = 160;
    for p in [Rat, Flush] {
        cells.push(mix_cell("fig6-160r", regs160, quick, first(Mem4), p));
    }
    let no_drain = RunConfig {
        no_drain: true,
        ..quick
    };
    cells.push(mix_cell("no-drain", base, no_drain, first(Mem4), Rat));
    for &b in ALL_BENCHMARKS {
        cells.push(Cell {
            label: format!("st {}", b.name()),
            smt: base,
            run: quick,
            sim: Sim::SingleThread(b),
            expect: Expect::Any,
            release_only: false,
        });
    }
    let default = quotas(30_000, 20_000, 400_000_000);
    for g in [Mem4, Mix4] {
        cells.push(Cell {
            release_only: true,
            ..mix_cell("default", base, default, first(g), Rat)
        });
    }
    cells
}

fn digest(cell: &Cell) -> u64 {
    let mut runner = Runner::new(cell.smt, cell.run);
    runner.capture_warnings();
    match &cell.sim {
        Sim::SingleThread(b) => runner.single_thread_ipc(*b).to_bits(),
        Sim::Mix(mix, policy) => {
            let r = runner.run_mix(mix, *policy);
            match cell.expect {
                Expect::Any => {}
                Expect::Flushes => assert!(
                    r.thread_stats.iter().any(|t| t.flushes > 0),
                    "{}: case must actually flush",
                    cell.label
                ),
                Expect::Truncates => {
                    assert!(!r.complete, "{}: run must actually truncate", cell.label)
                }
            }
            let key = CellKey::new(0, mix, *policy, cell.run.seed);
            let line = format_record_line(&key, &encode_result(&r));
            let (body, _) = line
                .rsplit_once(" crc ")
                .expect("a record line ends in its crc");
            fnv1a(body.as_bytes())
        }
    }
}

/// `golden.txt` as label → digest.
fn pinned() -> BTreeMap<&'static str, u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hex) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("malformed golden line {l:?}"));
            let digest = u64::from_str_radix(hex, 16)
                .unwrap_or_else(|_| panic!("malformed golden digest {l:?}"));
            (label, digest)
        })
        .collect()
}

fn show(d: Option<u64>) -> String {
    d.map_or_else(|| "(none)".to_string(), |d| format!("{d:016x}"))
}

/// Recomputes the cells whose `release_only` flag matches and compares
/// them with their pinned digests. Cells not recomputed keep their
/// pinned digest in the regenerated file.
pub fn check(release_only: bool) {
    let cells = cells();
    let labels: BTreeSet<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels.len(), cells.len(), "golden labels must be unique");
    let pinned = pinned();
    let todo: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.release_only == release_only)
        .collect();
    assert!(!todo.is_empty(), "no golden cell of this build kind");
    let fresh = par_map(0, &todo, |_, c| digest(c));
    let computed: BTreeMap<&str, u64> = todo.iter().map(|c| c.label.as_str()).zip(fresh).collect();

    let mut drift = Vec::new();
    let mut regenerated = String::from(HEADER);
    for c in &cells {
        let old = pinned.get(c.label.as_str()).copied();
        let new = computed.get(c.label.as_str()).copied().or(old);
        if new != old {
            drift.push(format!(
                "  {}: pinned {} now {}",
                c.label,
                show(old),
                show(new)
            ));
        }
        if let Some(d) = new {
            regenerated.push_str(&format!("{} {d:016x}\n", c.label));
        }
    }
    for label in pinned.keys().filter(|l| !labels.contains(*l)) {
        drift.push(format!("  {label}: pinned but no longer a golden cell"));
    }
    assert!(
        drift.is_empty(),
        "{} golden cell(s) drifted:\n{}\n\nregenerated tests/golden.txt:\n{regenerated}",
        drift.len(),
        drift.join("\n")
    );
}
