//! Golden cell digests: the pinned bit-identity reference for the
//! simulator.
//!
//! `tests/golden.txt` pins one digest per cell (see `golden_cells` for
//! the format and for re-pinning). The cells cover the first mix of
//! every workload group under every policy, plus the paths that matrix
//! misses: a truncated run, a FLUSH-squash-heavy mix, the fig4 runahead
//! variants, a fig6 register-file size, the drain ablation, every
//! benchmark's single-thread reference, and the two default-quota RaT
//! cells of the `rat_long` benchmark workload. Those two take about half
//! a minute each unoptimized, several times all the other cells
//! together, so only release builds check them.
//!
//! Squashes re-fetch from the front end's replay buffer, and the digests
//! alone would also pass if that buffer never served a fetch, so a last
//! test checks that RaT really replays.

mod golden_cells;

use golden_cells::{check, first};
use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{ThreadImage, WorkloadGroup};

#[test]
fn golden_cells_match_pinned_digests() {
    check(false, |_| true);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "default-quota cells are slow unoptimized; run with --release"
)]
fn default_quota_rat_long_cells_match_pinned_digests() {
    check(true, |_| true);
}

#[test]
fn rat_actually_replays_a_large_fraction_of_fetches() {
    // Under RaT every episode's span is re-fetched after its exit, so a
    // large share of all fetches must come from the buffer.
    let mix = first(WorkloadGroup::Mem4);
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    let cpus = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, 42 + i as u64).build_cpu())
        .collect();
    let mut sim = SmtSimulator::new(cfg, cpus);
    sim.run_until_quota(3_000, 100_000_000);
    let replayed = sim.stats().fetch_replays;
    let fetched: u64 = sim.stats().threads.iter().map(|t| t.fetched).sum();
    assert!(
        replayed * 4 > fetched,
        "expected >25% of RaT fetches to be replay-served, got {replayed}/{fetched}"
    );
}
