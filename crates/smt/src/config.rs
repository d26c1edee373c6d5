//! Simulator configuration (Table 1 of the paper).

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

/// Full processor configuration. Defaults (via
/// [`SmtConfig::hpca2008_baseline`]) reproduce Table 1.
#[derive(Clone, Copy, Debug)]
pub struct SmtConfig {
    /// Decode/rename/commit width and issue width (Table 1: 8).
    pub width: usize,
    /// Maximum threads fetched per cycle (ICOUNT-2.8 style: 2).
    pub fetch_threads: usize,
    /// Cycles between fetch and earliest dispatch, modeling the 10-stage
    /// front end (and hence the misprediction refill penalty).
    pub frontend_depth: Cycle,
    /// Per-thread fetch buffer capacity (instructions fetched but not yet
    /// dispatched).
    pub fetch_buffer: usize,
    /// Shared reorder buffer entries (Table 1: 512).
    pub rob_size: usize,
    /// Integer physical registers (Table 1: 320). Swept in Figure 6.
    pub int_regs: usize,
    /// FP physical registers (Table 1: 320). Swept in Figure 6.
    pub fp_regs: usize,
    /// INT, FP and LS issue queue sizes (Table 1: 64 each).
    pub iq_size: [usize; 3],
    /// INT, FP and LS functional unit counts (Table 1: 6/3/4).
    pub fu_count: [usize; 3],
    /// Memory hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// Perceptron predictor table size (power of two).
    pub bpred_table: usize,
    /// Perceptron history length.
    pub bpred_history: usize,
    /// Fetch / resource-management policy.
    pub policy: PolicyKind,
    /// Runahead Threads variant (used when `policy` is
    /// [`PolicyKind::Rat`]): the one runahead setting a figure varies.
    /// The mechanism is otherwise fixed: no runahead cache (the paper
    /// omits it, §3.3), FP computation folded at rename during runahead,
    /// and a minimum remaining miss latency for entry.
    pub runahead: RunaheadVariant,
}

impl SmtConfig {
    /// The exact Table 1 baseline: 8-wide, 10 stages, 512-entry shared
    /// ROB, 320/320 registers, 64-entry queues, 6/3/4 units, perceptron
    /// predictor, 64KB L1s / 1MB L2 / 400-cycle memory. Policy defaults to
    /// ICOUNT (the paper's reference baseline).
    pub fn hpca2008_baseline() -> Self {
        SmtConfig {
            width: 8,
            fetch_threads: 2,
            // 10 pipeline stages: fetch + ~6 front-end stages before the
            // out-of-order back end.
            frontend_depth: 6,
            fetch_buffer: 32,
            rob_size: 512,
            int_regs: 320,
            fp_regs: 320,
            iq_size: [64, 64, 64],
            fu_count: [6, 3, 4],
            hierarchy: HierarchyConfig::hpca2008_baseline(),
            bpred_table: 1024,
            bpred_history: 32,
            policy: PolicyKind::Icount,
            runahead: RunaheadVariant::Full,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values (zero widths, zero resources).
    pub fn validate(&self) {
        assert!(self.width >= 1, "width must be at least 1");
        assert!(
            self.fetch_threads >= 1,
            "must fetch from at least one thread"
        );
        assert!(
            self.rob_size >= self.width,
            "ROB smaller than pipeline width"
        );
        assert!(
            self.int_regs >= 64,
            "need at least 2 threads' worth of int registers"
        );
        assert!(
            self.fp_regs >= 64,
            "need at least 2 threads' worth of fp registers"
        );
        for (i, &s) in self.iq_size.iter().enumerate() {
            assert!(s >= 4, "issue queue {i} too small");
        }
        for (i, &f) in self.fu_count.iter().enumerate() {
            assert!(f >= 1, "functional unit class {i} empty");
        }
        assert!(
            self.fetch_buffer >= self.width,
            "fetch buffer smaller than width"
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
        assert_eq!(c.width, 8);
        assert_eq!(c.rob_size, 512);
        assert_eq!(c.int_regs, 320);
        assert_eq!(c.fp_regs, 320);
        assert_eq!(c.iq_size, [64, 64, 64]);
        assert_eq!(c.fu_count, [6, 3, 4]);
        assert_eq!(c.hierarchy.memory_latency, 400);
    }

    #[test]
    fn runahead_defaults() {
        let c = SmtConfig::hpca2008_baseline();
        assert_eq!(c.runahead, RunaheadVariant::Full);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let mut c = SmtConfig::hpca2008_baseline();
        c.width = 0;
        c.validate();
    }
}
