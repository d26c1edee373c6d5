//! Fetch-replay equivalence suite: serving a squashed span from the
//! front end's replay buffer must be invisible to the simulated machine.
//!
//! The digests in `tests/golden.txt` were pinned where squashes could
//! still be recovered by eager functional re-execution, and that path
//! regenerated the file byte for byte. Every squash is now served from
//! the buffer, so a record that diverged from re-execution shows up here
//! as a drifted cell. These tests recheck the cells that exercise
//! squashes hardest: three workload classes under every policy, a run
//! truncated mid-flight, and a FLUSH-squash-heavy mix.

mod golden_cells;

use golden_cells::{check, first, Expect};
use rat_core::workload::WorkloadGroup;

/// Checks the small-quota cells of a group's first mix, one per policy.
fn check_group_under_all_policies(group: WorkloadGroup) {
    let prefix = format!("quick {} ", first(group));
    check(false, |c| c.label.starts_with(&prefix));
}

#[test]
fn ilp4_bit_identical_under_all_policies() {
    check_group_under_all_policies(WorkloadGroup::Ilp4);
}

#[test]
fn mem4_bit_identical_under_all_policies() {
    check_group_under_all_policies(WorkloadGroup::Mem4);
}

#[test]
fn mix4_bit_identical_under_all_policies() {
    check_group_under_all_policies(WorkloadGroup::Mix4);
}

#[test]
fn truncated_runs_are_bit_identical_too() {
    // A truncated run ends mid-flight, possibly mid-squash with the
    // replay cursor below the frontier, so the quota and cycle
    // accounting must match wherever the clock stops.
    check(false, |c| c.expect == Expect::Truncates);
}

#[test]
fn flush_squash_heavy_case_is_bit_identical() {
    // FLUSH on the memory-bound group squashes constantly: the partial
    // rewind (to a surviving in-flight instruction, not the commit
    // point) that runahead exits never take.
    check(false, |c| c.expect == Expect::Flushes);
}
