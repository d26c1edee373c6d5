//! Simulation statistics.

use rat_bpred::PredictorStats;
use rat_mem::MemEventStats;

use crate::types::Cycle;

/// Per-thread counters. All instruction counters except `committed` count
/// *work performed* (including runahead and squashed re-executions), which
/// is what the paper's ED² energy proxy needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadStats {
    /// Architecturally committed instructions (normal mode only).
    pub committed: u64,
    /// Instructions fetched (includes runahead and refetched-after-squash).
    pub fetched: u64,
    /// Instructions dispatched into the back end.
    pub dispatched: u64,
    /// Instructions issued to functional units (excludes folded INV).
    pub issued: u64,
    /// Runahead instructions folded at rename (INV sources or dropped FP):
    /// they consume front-end energy but no back-end resources.
    pub folded: u64,
    /// Runahead instructions pseudo-retired.
    pub pseudo_retired: u64,
    /// Runahead episodes entered.
    pub runahead_episodes: u64,
    /// Cycles spent in runahead mode.
    pub runahead_cycles: u64,
    /// Prefetches issued from runahead mode (valid runahead loads/stores
    /// that touched the hierarchy).
    pub runahead_prefetches: u64,
    /// Runahead L2-miss loads turned INV (the paper's MLP exploitation).
    pub runahead_inv_loads: u64,
    /// Runahead episodes that diverged from the correct path on an INV
    /// branch.
    pub runahead_divergences: u64,
    /// FLUSH-policy squashes suffered.
    pub flushes: u64,
    /// Instructions squashed by FLUSH or runahead exit.
    pub squashed: u64,
    /// Conditional branch prediction bookkeeping.
    pub bpred: PredictorStats,
    /// Cycles spent in each execution mode (`[normal, runahead]`),
    /// counted only while the thread has work in flight or fetchable.
    pub mode_cycles: [u64; 2],
    /// Sum over cycles of allocated INT physical registers, split by mode.
    pub int_reg_cycles: [u64; 2],
    /// Sum over cycles of allocated FP physical registers, split by mode.
    pub fp_reg_cycles: [u64; 2],
    /// Sum over cycles of the thread's ROB occupancy (entry-cycles).
    /// `/ cycles_since_reset` gives the time-averaged window share the
    /// drain engine freezes as notional occupancy at demotion — an
    /// instant sample would land on a fill peak or a post-commit trough
    /// more or less at random.
    pub rob_occ_cycles: u64,
    /// Sum over cycles of the thread's issue-queue occupancy per kind
    /// (`[INT, FP, LS]` entry-cycles), same role as
    /// [`Self::rob_occ_cycles`].
    pub iq_occ_cycles: [u64; 3],
    /// Cycle at which this thread reached the measurement quota (FAME-like
    /// per-thread endpoint), if it has.
    pub quota_cycle: Option<Cycle>,
    /// Committed count when the quota was reached (the thread keeps
    /// running — and committing — until every thread reaches its quota, so
    /// its own IPC must be measured over its own window).
    pub committed_at_quota: u64,
    /// Committed count at the last stats reset (quota measures from here).
    pub committed_at_reset: u64,
    /// Loads that hit a pending L1D miss slot (in-flight misses observed).
    pub dmiss_loads: u64,
    /// Loads that were L2 misses (long-latency).
    pub l2_miss_loads: u64,
    /// Loads satisfied by store→load forwarding.
    pub forwarded_loads: u64,
    /// Cycles demand (normal-mode) loads spent waiting on the memory
    /// system past their issue cycle, summed over loads. Grows under
    /// L2-port and memory-bus contention, which is how the event-driven
    /// hierarchy's sharpened MEM-mix numbers show up per thread.
    pub mem_stall_cycles: u64,
}

impl ThreadStats {
    /// Committed instructions since the last stats reset.
    pub fn committed_since_reset(&self) -> u64 {
        self.committed - self.committed_at_reset
    }

    /// Average INT+FP registers allocated per cycle in the given mode
    /// (`0` = normal, `1` = runahead); `None` if the thread never spent a
    /// cycle in that mode.
    pub fn regs_per_cycle(&self, mode: usize) -> Option<f64> {
        let c = self.mode_cycles[mode];
        if c == 0 {
            None
        } else {
            Some((self.int_reg_cycles[mode] + self.fp_reg_cycles[mode]) as f64 / c as f64)
        }
    }
}

/// Whole-simulation statistics.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Total elapsed cycles.
    pub cycles: Cycle,
    /// Cycle count at the last stats reset (warmup end).
    pub cycles_at_reset: Cycle,
    /// Per-thread counters.
    pub threads: Vec<ThreadStats>,
    /// L2-port and memory-bus contention counters from the shared
    /// hierarchy, refreshed every cycle. Cumulative over the whole
    /// simulation (warmup included) — [`crate::SmtSimulator::reset_stats`]
    /// does not zero them, so compare totals across runs.
    pub mem_events: MemEventStats,
    /// Cycles the event-driven driver fast-forwarded over instead of
    /// stepping one by one (cumulative, warmup included). Purely a
    /// simulator-performance diagnostic: skipped cycles are charged to
    /// every per-cycle counter exactly as if they had been stepped, so
    /// all other statistics are bit-identical with skipping disabled.
    pub skipped_cycles: Cycle,
    /// Number of contiguous skip jumps performed (cumulative).
    pub skip_spans: u64,
    /// Fetches served from the per-thread replay buffers instead of
    /// live functional execution: every re-fetch of a squashed span
    /// (cumulative, warmup included). Like `skipped_cycles`, purely a
    /// simulator-performance diagnostic; no other statistic depends on
    /// it.
    pub fetch_replays: u64,
    /// Snapshot of each thread's counters taken the cycle its quota was
    /// reached (before any post-quota accounting, in particular before a
    /// drain-mode demotion squashes its window). `None` until the thread
    /// reaches its quota. This is what the drain-equivalence suite
    /// (`tests/quota_drain.rs`) compares bit-exactly: everything a
    /// thread's own measurement window reports is frozen here.
    pub threads_at_quota: Vec<Option<ThreadStats>>,
    /// Instructions committed by the post-quota drain engine instead of
    /// the full-fidelity pipeline (cumulative, warmup included). Unlike
    /// `skipped_cycles`/`fetch_replays`, drain mode is an
    /// *approximation* of the overshoot tail: demotion is tail-only
    /// (it fires once a single thread is still measuring), so every
    /// measurement window except the last thread's is bit-identical,
    /// and the last window's post-overlap timing drifts within the
    /// bound measured by `tests/quota_drain.rs`.
    pub drain_commits: u64,
    /// Threads demoted to drain mode (cumulative over warmup and
    /// measurement; a thread demoted in both phases counts twice).
    pub drained_threads: u64,
}

impl SimStats {
    /// Cycles elapsed since the last stats reset.
    pub fn cycles_since_reset(&self) -> Cycle {
        self.cycles - self.cycles_at_reset
    }

    /// Per-thread IPC over the thread's own measurement window (reset →
    /// quota or now), the FAME-like per-thread rate.
    pub fn thread_ipc(&self, tid: usize) -> f64 {
        let t = &self.threads[tid];
        let (end, committed) = match t.quota_cycle {
            Some(c) => (c, t.committed_at_quota - t.committed_at_reset),
            None => (self.cycles, t.committed_since_reset()),
        };
        let window = end.saturating_sub(self.cycles_at_reset).max(1);
        committed as f64 / window as f64
    }

    /// Total instructions executed in the paper's energy sense: every
    /// instruction issued to a functional unit, including runahead work
    /// and FLUSH re-execution. Folded (INV) runahead instructions are
    /// *not* executed — the paper §3.1: invalid instructions are folded,
    /// not executed — and are reported separately.
    pub fn executed_insts(&self) -> u64 {
        self.threads.iter().map(|t| t.issued).sum()
    }

    /// Sum of committed instructions since reset.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed_since_reset()).sum()
    }

    /// Total memory stall cycles across threads (sum of per-thread
    /// [`ThreadStats::mem_stall_cycles`] over the measurement window).
    pub fn total_mem_stall_cycles(&self) -> u64 {
        self.threads.iter().map(|t| t.mem_stall_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ipc_uses_quota_window() {
        let mut s = SimStats {
            cycles: 1000,
            threads: vec![ThreadStats::default()],
            ..SimStats::default()
        };
        s.threads[0].committed = 500;
        s.threads[0].committed_at_quota = 500;
        s.threads[0].quota_cycle = Some(500);
        assert!((s.thread_ipc(0) - 1.0).abs() < 1e-12);
        // Commits after the quota point do not inflate the rate.
        s.threads[0].committed = 9_000;
        assert!((s.thread_ipc(0) - 1.0).abs() < 1e-12);
        s.threads[0].committed = 500;
        s.threads[0].quota_cycle = None;
        assert!((s.thread_ipc(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn regs_per_cycle_by_mode() {
        let mut t = ThreadStats::default();
        assert!(t.regs_per_cycle(1).is_none());
        t.mode_cycles = [10, 5];
        t.int_reg_cycles = [100, 20];
        t.fp_reg_cycles = [50, 5];
        assert!((t.regs_per_cycle(0).unwrap() - 15.0).abs() < 1e-12);
        assert!((t.regs_per_cycle(1).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn executed_excludes_folded() {
        let mut s = SimStats {
            cycles: 1,
            threads: vec![ThreadStats::default(), ThreadStats::default()],
            ..SimStats::default()
        };
        s.threads[0].issued = 10;
        s.threads[0].folded = 2;
        s.threads[1].issued = 5;
        assert_eq!(
            s.executed_insts(),
            15,
            "folded instructions are not executed"
        );
    }
}
