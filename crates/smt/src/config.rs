//! Simulator configuration (Table 1 of the paper).
//!
//! The paper fixes one machine and varies three things: the
//! fetch/resource policy (Figures 1–3), the runahead mechanism (Figure 4)
//! and the register-file size (Figure 6). Those three are the fields of
//! [`SmtConfig`]; the rest of Table 1 is the constants below, which the
//! pipeline stages read directly.

use rat_mem::HierarchyConfig;

use crate::policy::PolicyKind;
use crate::types::Cycle;

/// Which parts of the Runahead Threads mechanism are active — the Figure 4
/// "sources of improvement" ablation knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RunaheadVariant {
    /// The full mechanism: speculative execution, prefetching, early
    /// resource release.
    #[default]
    Full,
    /// Runahead periods happen but runahead loads may not access the L2 or
    /// memory (no prefetching). L2-miss loads found during runahead do not
    /// re-trigger runahead after recovery, keeping episode timing
    /// comparable (paper §6.1, "Prefetching").
    NoPrefetch,
    /// On entering runahead the thread stops fetching new instructions;
    /// already-fetched ones drain and release their resources (paper §6.1,
    /// "Resource Availability").
    NoFetch,
}

/// Decode/rename/commit width and issue width (Table 1: 8).
pub const WIDTH: usize = 8;
/// Maximum threads fetched per cycle (ICOUNT-2.8 style: 2).
pub const FETCH_THREADS: usize = 2;
/// Cycles between fetch and earliest dispatch, modeling the 10-stage
/// front end (fetch + ~6 front-end stages before the out-of-order back
/// end), and hence the misprediction refill penalty.
pub const FRONTEND_DEPTH: Cycle = 6;
/// Per-thread fetch buffer capacity (instructions fetched but not yet
/// dispatched).
pub const FETCH_BUFFER: usize = 32;
/// Shared reorder buffer entries (Table 1: 512).
pub const ROB_SIZE: usize = 512;
/// INT, FP and LS issue queue sizes (Table 1: 64 each).
pub const IQ_SIZE: [usize; 3] = [64, 64, 64];
/// INT, FP and LS functional unit counts (Table 1: 6/3/4).
pub const FU_COUNT: [usize; 3] = [6, 3, 4];
/// The memory hierarchy: 64 KB L1s, a shared 1 MB L2 and 400-cycle
/// memory (Table 1), with calibrated L2 ports and bus bandwidth.
pub const HIERARCHY: HierarchyConfig = HierarchyConfig::hpca2008_baseline();

/// The parameters the paper's figures vary. Every other Table 1
/// parameter is a constant of this module (the perceptron's geometry is
/// `rat_bpred`'s). Defaults (via [`SmtConfig::hpca2008_baseline`])
/// reproduce Table 1.
#[derive(Clone, Copy, Debug)]
pub struct SmtConfig {
    /// Physical registers in each of the INT and FP register files
    /// (Table 1: 320). Swept in Figure 6.
    pub regs: usize,
    /// Fetch / resource-management policy (Figures 1–3).
    pub policy: PolicyKind,
    /// Runahead Threads variant (used when `policy` is
    /// [`PolicyKind::Rat`]): the one runahead setting a figure varies
    /// (Figure 4). The mechanism is otherwise fixed: no runahead cache
    /// (the paper omits it, §3.3), FP computation folded at rename during
    /// runahead, and a minimum remaining miss latency for entry.
    pub runahead: RunaheadVariant,
}

impl SmtConfig {
    /// The exact Table 1 baseline: 320 registers per file, 64KB L1s /
    /// 1MB L2 / 400-cycle memory, ICOUNT (the paper's reference
    /// baseline) and the full runahead mechanism, on the fixed 8-wide,
    /// 10-stage core this module's constants describe.
    pub fn hpca2008_baseline() -> Self {
        SmtConfig {
            regs: 320,
            policy: PolicyKind::Icount,
            runahead: RunaheadVariant::Full,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a register file cannot hold two threads' architectural
    /// state.
    pub fn validate(&self) {
        assert!(
            self.regs >= 64,
            "need at least 2 threads' worth of registers per file"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = SmtConfig::hpca2008_baseline();
        c.validate();
        assert_eq!(WIDTH, 8);
        assert_eq!(ROB_SIZE, 512);
        assert_eq!(c.regs, 320);
        assert_eq!(IQ_SIZE, [64, 64, 64]);
        assert_eq!(FU_COUNT, [6, 3, 4]);
        assert_eq!(HIERARCHY.memory_latency, 400);
    }

    #[test]
    fn runahead_defaults() {
        let c = SmtConfig::hpca2008_baseline();
        assert_eq!(c.runahead, RunaheadVariant::Full);
    }

    #[test]
    #[should_panic(expected = "registers per file")]
    fn tiny_register_file_panics() {
        let mut c = SmtConfig::hpca2008_baseline();
        c.regs = 63;
        c.validate();
    }
}
