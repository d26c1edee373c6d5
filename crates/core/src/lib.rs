//! # rat-core — experiment runner and metrics for the RaT reproduction
//!
//! This is the crate downstream users interact with: it ties the synthetic
//! workloads ([`rat_workload`]) to the SMT pipeline ([`rat_smt`]) and
//! computes the paper's evaluation metrics:
//!
//! * **Throughput** (Eq. 1): the average of per-thread IPCs;
//! * **Fairness** (Eq. 2): the harmonic mean of each thread's
//!   multithreaded-vs-single-threaded speedup;
//! * **ED²** (§5.3): executed instructions × CPI², the paper's
//!   energy-delay-squared proxy.
//!
//! Measurement follows the paper's FAME-inspired methodology: threads run
//! warmup instructions first, statistics reset, and then the simulation
//! continues until *every* thread has committed its measurement quota —
//! each thread's IPC is taken over its own window so fast threads do not
//! truncate slow ones.
//!
//! Sweeps parallelize over the experiment matrix: [`Runner`] methods take
//! `&self` (the map of single-thread reference IPCs is internally
//! synchronized), and
//! [`parallel::par_map`] distributes independent `(mix, policy, config)`
//! cells over all cores with results in deterministic input order.
//!
//! The sweep machinery is crash-safe: workers are panic-isolated
//! ([`parallel::par_map_isolated`] turns a panicking cell into a
//! [`CellError`] instead of killing the sweep), completed cells persist
//! to a journaled, checksummed [`store::ResultStore`] keyed by
//! `(mix, policy, config, seed)` so interrupted sweeps resume
//! bit-identically, and every recovery path is exercised by the
//! deterministic [`faultinject`] harness rather than trusted.
//!
//! # Example
//!
//! ```no_run
//! use rat_core::{Runner, RunConfig};
//! use rat_smt::{PolicyKind, SmtConfig};
//! use rat_workload::{mixes_for_group, WorkloadGroup};
//!
//! let runner = Runner::new(SmtConfig::hpca2008_baseline(), RunConfig::default());
//! let mix = &mixes_for_group(WorkloadGroup::Mem2)[1]; // art+mcf
//! let result = runner.run_mix(mix, PolicyKind::Rat);
//! println!("throughput {:.3}", result.throughput());
//! println!("fairness   {:.3}", runner.fairness(&result));
//! ```

mod metrics;

pub mod faultinject;
pub mod lock;
pub mod parallel;
pub mod retry;
mod runner;
pub mod store;

pub use faultinject::{FaultPlan, RecordFault};
pub use lock::{get_mut_recover, lock_recover};
pub use metrics::{ed2, fairness_from_ipcs, throughput_from_ipcs};
pub use parallel::{par_map, par_map_isolated, resolve_threads, CellError, CellErrorKind};
pub use retry::Backoff;
pub use runner::{config_fingerprint, GroupSummary, MixResult, RunConfig, Runner, SLICE_CYCLES};
pub use store::{
    atomic_write, format_record_line, parse_record_line, CellKey, ResultStore, StoreStats,
};

// Re-export the layers so downstream users need a single dependency.
pub use rat_bpred as bpred;
pub use rat_isa as isa;
pub use rat_mem as mem;
pub use rat_smt as smt;
pub use rat_workload as workload;
