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
//! Squashes re-fetch from the front end's replay buffer, so serving a
//! squashed span from it must be invisible to the simulated machine. The
//! digests were pinned where squashes could still be recovered by eager
//! functional re-execution, and that path regenerated the file byte for
//! byte; a record that diverged from re-execution shows up as a drifted
//! cell. The cells that exercise squashes hardest are the first mixes of
//! ILP4, MEM4 and MIX4 under every policy, the truncated run (it may end
//! mid-squash, with the replay cursor below the frontier) and the
//! FLUSH-heavy one (the partial rewind to a surviving in-flight
//! instruction that runahead exits never take), so the set must keep the
//! last two. The digests alone would also pass if the buffer never
//! served a fetch, so a last test checks that RaT really replays.

mod golden_cells;

use golden_cells::{cells, check, first, Expect};
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::workload::WorkloadGroup;
use rat_core::{RunConfig, Runner};

#[test]
fn golden_cells_match_pinned_digests() {
    let expects: Vec<Expect> = cells().iter().map(|c| c.expect).collect();
    assert!(
        expects.contains(&Expect::Flushes) && expects.contains(&Expect::Truncates),
        "the golden set must keep its FLUSH-heavy and its truncated cell"
    );
    check(false);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "default-quota cells are slow unoptimized; run with --release"
)]
fn default_quota_rat_long_cells_match_pinned_digests() {
    check(true);
}

#[test]
fn rat_actually_replays_a_large_fraction_of_fetches() {
    // Under RaT every episode's span is re-fetched after its exit, so a
    // large share of all fetches must come from the buffer.
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), RunConfig::default());
    let mut sim = runner.simulator(&first(WorkloadGroup::Mem4), PolicyKind::Rat);
    sim.run_until_quota(3_000, 100_000_000);
    let replayed = sim.stats().fetch_replays;
    let fetched: u64 = sim.stats().threads.iter().map(|t| t.fetched).sum();
    assert!(
        replayed * 4 > fetched,
        "expected >25% of RaT fetches to be replay-served, got {replayed}/{fetched}"
    );
}
