//! # rat-bench — figure/table harness support
//!
//! The binaries in this crate regenerate every table and figure of the
//! paper's evaluation (§5–§6: Tables 1–2, Figures 1–6). Every figure
//! binary is one call into the figure driver ([`figures`]), and `figs`
//! renders all six from one sweep over the deduplicated union of their
//! cells. Shared plumbing lives here — CLI parsing ([`HarnessArgs`]),
//! parallel sweep orchestration ([`policy_matrix`], [`run_cells`]),
//! and table formatting ([`TableWriter`], aligned text
//! or `--csv` machine-readable output). Sweeps run the experiment matrix
//! over all cores by default (`--threads N` to restrict): each worker
//! claims the next cell from a shared cursor and simulates it to
//! completion, so uneven cells balance across workers. Output is
//! deterministic at any thread count.
//!
//! Sweeps are crash-safe: workers are panic-isolated (a failing cell is
//! reported with its full identity while every healthy cell completes),
//! `--resume PATH` journals completed cells to a checksummed
//! [`rat_core::ResultStore`] for bit-identical replay after a crash or
//! kill, and `--fault-plan` drives the deterministic fault-injection
//! harness that tests all of the above. The single-thread reference
//! runs behind Eq. 2 fairness are cells like any other.

pub mod cli;
pub mod figures;
pub mod sweep;
pub mod table;

pub use cli::HarnessArgs;
pub use sweep::{
    policy_matrix, report_failures, run_cells, run_cells_streaming, select_mixes, simulate_cells,
    CellFailure, SweepCell, SweepReport, SweepSession,
};
pub use table::TableWriter;
