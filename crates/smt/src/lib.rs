//! # rat-smt — the SMT out-of-order pipeline
//!
//! An execution-driven, cycle-level model of the SMT processor in Table 1
//! of *Runahead Threads to Improve SMT Performance* (HPCA 2008). The
//! fixed part of Table 1 is constants in [`config`]; the shared
//! perceptron's geometry is `rat_bpred`'s:
//!
//! * 8-wide, 10-stage pipeline; ICOUNT-2.8-style fetch (up to 2 threads,
//!   8 instructions per cycle);
//! * shared 512-entry reorder buffer (a pool with per-thread program-order
//!   queues, as in the paper's shared-ROB design);
//! * 64-entry INT/FP/LS issue queues; 6 INT, 3 FP, 4 LS units;
//! * perceptron branch predictor (1024 entries, 32 history bits);
//! * the shared I/D/L2 cache hierarchy ([`config::HIERARCHY`]) with
//!   event-driven L2-port and memory-bus contention (threads compete
//!   for bandwidth, not just capacity — see [`rat_mem::event`]), whose
//!   counters surface in [`SimStats::mem_events`] and per-thread
//!   [`ThreadStats::mem_stall_cycles`].
//!
//! [`SmtConfig`] holds what the figures vary:
//!
//! * the fetch/resource policy ([`SmtConfig::policy`], Figures 1–3);
//! * the runahead variant ([`SmtConfig::runahead`], Figure 4);
//! * the size of each of the two register files ([`SmtConfig::regs`],
//!   Figure 6; Table 1: 320 integer + 320 FP physical registers with
//!   renaming).
//!
//! On top of the pipeline it implements every resource-management scheme
//! the paper evaluates:
//!
//! * fetch policies: ICOUNT, STALL, FLUSH ([`PolicyKind`]);
//! * dynamic resource control: DCRA and Hill Climbing;
//! * **Runahead Threads (RaT)** — the paper's contribution — in one
//!   configuration (no runahead cache, FP computation dropped during
//!   runahead, a 100-cycle entry threshold) whose only setting is the
//!   Figure 4 ablation variant ([`SmtConfig::runahead`]).
//!
//! # Example
//!
//! ```
//! use rat_smt::{SmtConfig, SmtSimulator, PolicyKind};
//! use rat_workload::{Benchmark, ThreadImage};
//!
//! let mut cfg = SmtConfig::hpca2008_baseline();
//! cfg.policy = PolicyKind::Rat;
//! let cpus = vec![
//!     ThreadImage::generate(Benchmark::Gzip, 1).build_cpu(),
//!     ThreadImage::generate(Benchmark::Mcf, 2).build_cpu(),
//! ];
//! let mut sim = SmtSimulator::new(cfg, cpus);
//! sim.run_until_quota(2_000, 1_000_000);
//! assert!(sim.thread_stats(0).committed >= 2_000);
//! ```

pub mod config;
mod frontend;
mod instr_table;
mod iq;
mod pipeline;
mod policy;
mod pool;
mod regfile;
mod rename;
mod stats;
mod types;

pub use config::{RunaheadVariant, SmtConfig};
pub use pipeline::SmtSimulator;
pub use policy::PolicyKind;
pub use rat_mem::MemEventStats;
pub use stats::{SimStats, ThreadStats};
pub use types::{Cycle, ExecMode, IqKind, PhysReg, RegClass, ThreadId};
