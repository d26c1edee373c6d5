//! The cycle-level SMT pipeline simulator, decomposed by stage.
//!
//! Stage order within a cycle (reverse pipeline order, standard for
//! cycle-accurate models): complete → runahead exits → commit (and
//! runahead entry) → issue → dispatch/rename → fetch → per-cycle policy
//! and statistics updates.
//!
//! # Module map
//!
//! One file per stage, in reverse-pipeline order, plus the shared
//! back-end structures:
//!
//! | module        | owns                                                    |
//! |---------------|---------------------------------------------------------|
//! | [`resources`] | [`SharedResources`]: register files, issue queues, cache hierarchy, predictor, completion heap, and the policy arbitration state (DCRA/Hill caps, round-robin pointers) behind a narrow API |
//! | [`complete`]  | writeback: completion heap drain, register wakeup, branch resolution |
//! | [`runahead`]  | episode entry/exit, INV propagation, squash machinery (shared with FLUSH) |
//! | [`commit`]    | architectural commit and runahead pseudo-retirement     |
//! | [`issue`]     | age-ordered select, functional-unit/MSHR arbitration, load/store timing |
//! | [`dispatch`]  | rename, resource allocation, runahead folding, DCRA/Hill dispatch gates |
//! | [`fetch`]     | fetch policy ordering (ICOUNT/RR), I-cache access, branch prediction |
//!
//! Per-thread microarchitectural state lives in [`Thread`]; everything
//! threads share (and contend for) lives in [`SharedResources`]. The
//! in-flight instructions themselves live in one struct-of-arrays
//! [`InstrTable`] per thread (see [`crate::instr_table`]): the fetch
//! window and the reorder-buffer window are two adjacent ranges over the
//! same slot-indexed columns, every stage reads and writes columns by
//! slot, and the issue queues carry slot handles instead of copies. A
//! stage is a function over `(&mut Thread, &mut SharedResources,
//! &SmtConfig)` where the work is thread-local (e.g. [`fetch`]); stages
//! whose arbitration inherently crosses threads (wakeup, commit
//! bandwidth, DCRA entitlements) take the whole simulator and split the
//! borrows internally.

mod commit;
mod complete;
mod dispatch;
mod drain;
mod fetch;
mod issue;
mod resources;
mod runahead;
#[cfg(test)]
mod tests;

use rat_bpred::GlobalHistory;
use rat_isa::hash::WordSet;
use rat_isa::Pc;
use rat_mem::Hierarchy;

use crate::config::{RunaheadVariant, SmtConfig};
use crate::frontend::OracleThread;
use crate::instr_table::{sched_iq, sched_stage, InstrTable, ST_DONE, ST_WAIT};
use crate::rename::RenameTables;
use crate::stats::{SimStats, ThreadStats};
use crate::store_set::StoreSet;
use crate::types::{Cycle, ExecMode, IqKind, PhysReg, RegClass, ThreadId};

use resources::SharedResources;

/// A live runahead episode.
#[derive(Clone, Copy, Debug)]
struct Episode {
    trigger_seq: u64,
    entered_at: Cycle,
    exit_at: Cycle,
}

/// Per-thread microarchitectural state: everything a hardware context
/// owns privately. Shared, contended structures live in
/// [`SharedResources`].
struct Thread {
    oracle: OracleThread,
    /// Static decode table of the thread's program, indexed by
    /// `Pc::index` (see [`dispatch::decode_program`]).
    decode: Box<[dispatch::Decoded]>,
    /// The struct-of-arrays instruction lifecycle table: the single home
    /// of every in-flight instruction, from fetch to commit.
    instrs: InstrTable,
    rename: RenameTables,
    mode: ExecMode,
    episode: Option<Episode>,
    diverged: bool,
    /// Rename-time INV bits over architectural registers (flat index).
    arch_inv: [bool; 64],
    /// Registers allocated during (or in flight at the start of) the
    /// current runahead episode.
    episode_regs: Vec<(RegClass, PhysReg)>,
    /// Fetch blocked until this cycle by an I-cache miss.
    icache_wait: Cycle,
    /// Fetch blocked by an unresolved mispredicted branch (its seq).
    branch_gate: Option<u64>,
    /// Fetch blocked until this cycle by STALL/FLUSH long-latency gating.
    longlat_gate: Cycle,
    /// In-flight store addresses (word-granular) for store→load
    /// forwarding — an open-addressed counting table: this is probed on
    /// every load issue, the hottest lookup in the back end.
    store_addrs: StoreSet,
    hist: GlobalHistory,
    dmiss_inflight: usize,
    fp_user: bool,
    /// Loads seen (and suppressed) during NoPrefetch runahead: they do not
    /// re-trigger runahead after recovery (paper §6.1).
    no_retrigger: WordSet,
    /// Whether the thread has been demoted to post-quota drain mode (see
    /// [`drain`]): its window is squashed, it holds no pipeline
    /// resources, and only the paced commit engine in `drain::run`
    /// advances it.
    drained: bool,
    /// Pacing and pressure state of the drain engine (meaningful while
    /// `drained`).
    drain: drain::DrainState,
    /// `(cycle, committed, mem_stall_cycles)` when the thread crossed
    /// half its quota — the drain engine calibrates from here so the
    /// cold-start transient right after the stats reset (empty
    /// pipelines, cold post-reset predictor history) does not
    /// contaminate its pace model. Pure bookkeeping: never observable
    /// pre-demotion.
    half_mark: Option<(Cycle, u64, u64)>,
}

impl Thread {
    fn icount(&self, iqs: &crate::iq::IssueQueues, tid: ThreadId) -> usize {
        self.instrs.fe_len() + iqs.thread_total(tid)
    }

    /// If `dst_arch`'s current speculative mapping is `p`, propagate the
    /// INV status to the rename-time INV bit vector (keeps the two INV
    /// planes consistent).
    fn set_arch_inv_if_current(&mut self, dst_arch: rat_isa::ArchReg, p: PhysReg) {
        if self.rename.lookup(dst_arch) == p {
            self.arch_inv[dst_arch.flat_index()] = true;
        }
    }

    /// Registers an in-flight store for store→load forwarding.
    fn add_store_addr(&mut self, addr: u64) {
        self.store_addrs.insert(addr & !7);
    }

    /// Drops one in-flight store (commit, pseudo-retire, squash).
    fn remove_store_addr(&mut self, addr: u64) {
        self.store_addrs.remove(addr & !7);
    }

    /// Whether any front-end gate (I-cache refill, unresolved
    /// misprediction, STALL/FLUSH long-latency gate) blocks fetch now.
    fn fetch_gated(&self, now: Cycle) -> bool {
        now < self.icache_wait || self.branch_gate.is_some() || now < self.longlat_gate
    }
}

/// Thread-tags a per-thread virtual address so threads contend in the
/// shared caches without aliasing each other.
#[inline]
fn tag_addr(tid: ThreadId, addr: u64) -> u64 {
    addr | (((tid as u64) + 1) << 44)
}

/// Predictor table key: PC hashed with the thread id so threads alias
/// each other's perceptron rows only incidentally (shared tables).
#[inline]
fn pred_key(tid: ThreadId, pc: Pc) -> u64 {
    pc.byte_addr() ^ ((tid as u64).wrapping_mul(0x9E37_79B1) << 12)
}

/// The SMT processor simulator. Construct with a configuration and one
/// prepared functional [`rat_isa::Cpu`] per hardware context (see
/// `rat_workload::ThreadImage::build_cpu`), then run cycles until the
/// measurement quota is met.
pub struct SmtSimulator {
    cfg: SmtConfig,
    threads: Vec<Thread>,
    res: SharedResources,
    stats: SimStats,
    now: Cycle,
    last_progress: Cycle,
    /// Event-driven fast-forwarding over dead cycles (default on; see
    /// [`SmtSimulator::set_cycle_skip`]).
    skip_enabled: bool,
    /// Post-quota drain mode (default off; see
    /// [`SmtSimulator::set_quota_drain`]). When on,
    /// [`SmtSimulator::run_until_quota`] demotes a thread that reaches
    /// its quota — while other threads are still measuring — from
    /// full-fidelity simulation to the cheap commit-only engine in
    /// [`drain`].
    quota_drain: bool,
    /// Number of threads currently demoted to drain mode (fast path for
    /// the per-cycle drain stage).
    drained_live: usize,
    /// Number of threads currently in a runahead episode (fast path for
    /// the per-cycle exit check).
    episodes_live: usize,
    /// Whether the last stepped cycle performed any simulated work
    /// (writeback, retirement, issue, dispatch, fetch, episode
    /// transition). A busy machine cannot be quiescent, so the
    /// cycle-skip driver probes for a jump only after an idle cycle —
    /// skipping the (pure overhead) quiescence scan on the cycles that
    /// are doing real work. Affects only *when* the probe runs, never
    /// the simulated state: stepping instead of jumping is always
    /// bit-identical (`tests/cycle_skip.rs`).
    activity: bool,
}

impl SmtSimulator {
    /// Builds a simulator over the given thread images.
    ///
    /// # Panics
    ///
    /// Panics if there are no threads, more than 8, or the register files
    /// are too small to hold every thread's architectural state (the paper
    /// notes N threads need 32·N registers per file just for precise
    /// state).
    pub fn new(cfg: SmtConfig, cpus: Vec<rat_isa::Cpu>) -> Self {
        cfg.validate();
        let n = cpus.len();
        assert!((1..=8).contains(&n), "1..=8 hardware threads supported");
        assert!(
            cfg.int_regs >= 32 * n && cfg.fp_regs >= 32 * n,
            "register file too small for {n} threads' architectural state"
        );

        let mut res = SharedResources::new(&cfg, n);
        let mut threads = Vec::with_capacity(n);
        for (tid, cpu) in cpus.into_iter().enumerate() {
            let init_int: [PhysReg; 32] = std::array::from_fn(|_| {
                let p = res.int_rf.alloc(tid).expect("int regs for arch state");
                res.int_rf.set_ready(p);
                p
            });
            let init_fp: [PhysReg; 32] = std::array::from_fn(|_| {
                let p = res.fp_rf.alloc(tid).expect("fp regs for arch state");
                res.fp_rf.set_ready(p);
                p
            });
            threads.push(Thread {
                decode: dispatch::decode_program(cpu.program()),
                oracle: OracleThread::new(cpu),
                instrs: InstrTable::new(cfg.rob_size, cfg.fetch_buffer),
                rename: RenameTables::new(init_int, init_fp),
                mode: ExecMode::Normal,
                episode: None,
                diverged: false,
                arch_inv: [false; 64],
                episode_regs: Vec::new(),
                icache_wait: 0,
                branch_gate: None,
                longlat_gate: 0,
                store_addrs: StoreSet::with_capacity(64),
                hist: GlobalHistory::new(),
                dmiss_inflight: 0,
                fp_user: false,
                no_retrigger: WordSet::default(),
                drained: false,
                drain: drain::DrainState::default(),
                half_mark: None,
            });
        }

        SmtSimulator {
            stats: SimStats {
                threads: vec![ThreadStats::default(); n],
                threads_at_quota: vec![None; n],
                ..SimStats::default()
            },
            now: 0,
            last_progress: 0,
            skip_enabled: true,
            quota_drain: false,
            drained_live: 0,
            episodes_live: 0,
            activity: false,
            threads,
            res,
            cfg,
        }
    }

    /// Enables or disables cycle skipping (on by default).
    ///
    /// With skipping on, [`SmtSimulator::run_until_quota`] jumps the
    /// clock over *dead* cycles — cycles in which no thread can fetch,
    /// dispatch, issue, commit, or be woken by any pending event — in one
    /// hop, charging the skipped span to the same per-cycle counters the
    /// stepped path updates. All statistics are bit-identical either
    /// way (the `tests/cycle_skip.rs` suite enforces this); `false` is
    /// the `--no-skip` ablation reference.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// Enables or disables post-quota drain mode (off by default; the
    /// experiment harness in `rat_core` turns it on unless the
    /// `--no-drain` ablation is requested).
    ///
    /// Drain is *tail-only*: [`SmtSimulator::run_until_quota`] demotes
    /// every finished thread the cycle the **second-to-last** thread
    /// reaches its quota (i.e. only once a single thread is still
    /// measuring — see the fidelity note in the `drain` module). A
    /// demoted
    /// thread becomes a commit-only engine driven by the fetch oracle:
    /// its window is squashed (rename walk-back, so it holds exactly
    /// its architectural registers and zero IQ/ROB/fetch-buffer
    /// entries), and it thereafter commits in chunked self-timed
    /// bursts, still charging I-side and D-side accesses to the shared
    /// hierarchy and keeping its pre-demotion ROB share charged to the
    /// shared-ROB budget so the last measuring thread sees realistic
    /// contention.
    ///
    /// Every measurement window except the last thread's is
    /// bit-identical either way — no demotion can fire while two or
    /// more threads are measuring, and the quota-cycle snapshot in
    /// [`SimStats::threads_at_quota`] is taken before demotion. Only
    /// the last thread's post-overlap tail sees approximate timing,
    /// with the drift bounded and measured by `tests/quota_drain.rs`.
    /// Disabling drain re-promotes every drained thread (it resumes
    /// full-fidelity fetch at its commit point).
    pub fn set_quota_drain(&mut self, enabled: bool) {
        self.quota_drain = enabled;
        if !enabled {
            drain::undrain_all(self);
        }
    }

    /// Number of hardware threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> Cycle {
        self.now
    }

    /// All statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// One thread's statistics.
    pub fn thread_stats(&self, tid: ThreadId) -> &ThreadStats {
        &self.stats.threads[tid]
    }

    /// The shared memory hierarchy (cache statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.res.hier
    }

    /// The active configuration.
    pub fn config(&self) -> &SmtConfig {
        &self.cfg
    }

    /// Checks the cross-structure lifecycle invariants: each thread's
    /// instruction-table window/slot consistency, agreement between the
    /// shared-ROB occupancy budget and the tables' ring windows,
    /// agreement between the fetch oracle and the fetch window, and
    /// issue-queue occupancy accounting against live `WaitIssue` slots.
    ///
    /// Exercised by the property tests in `tests/properties.rs` over
    /// random policy×mix runs; cheap enough to call every few thousand
    /// cycles, not meant for every cycle.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn check_invariants(&self) {
        let mut rob_total = 0;
        let mut notional = 0;
        let mut notional_iq = [0usize; 3];
        let mut notional_regs = [0usize; 2];
        for (tid, t) in self.threads.iter().enumerate() {
            t.instrs.check_invariants();
            if t.drained {
                // A drained thread holds nothing: both table windows
                // empty, zero issue-queue occupancy, and exactly its
                // architectural register mappings. Its frozen
                // pre-demotion ROB share stays charged to the shared
                // budget (checked below); the oracle fetch point runs
                // ahead of the frozen table, so the seq agreement check
                // does not apply until re-promotion resyncs it.
                assert_eq!(
                    t.instrs.rob_len(),
                    0,
                    "drained thread {tid} holds ROB entries"
                );
                assert_eq!(
                    t.instrs.fe_len(),
                    0,
                    "drained thread {tid} holds fetch entries"
                );
                for kind in [IqKind::Int, IqKind::Fp, IqKind::Ls] {
                    assert_eq!(
                        self.res.iqs.thread_occupancy(tid, kind),
                        0,
                        "drained thread {tid} holds {kind:?} queue entries"
                    );
                }
                assert_eq!(
                    self.res.int_rf.allocated(tid),
                    32,
                    "drained thread {tid} holds speculative INT registers"
                );
                assert_eq!(
                    self.res.fp_rf.allocated(tid),
                    32,
                    "drained thread {tid} holds speculative FP registers"
                );
                notional += t.drain.rob_notional;
                for (acc, n) in notional_iq.iter_mut().zip(t.drain.iq_notional) {
                    *acc += n;
                }
                for (acc, n) in notional_regs.iter_mut().zip(t.drain.reg_notional) {
                    *acc += n;
                }
                continue;
            }
            rob_total += t.instrs.rob_len();
            assert_eq!(
                t.oracle.next_seq(),
                t.instrs.next_fetch_seq(),
                "thread {tid}: oracle fetch point disagrees with the fetch window"
            );
            let mut iq_counts = [0usize; 3];
            for seq in t.instrs.rob_seqs() {
                let s = t.instrs.sched[t.instrs.slot_of(seq)];
                if sched_stage(s) == ST_WAIT {
                    iq_counts[sched_iq(s).expect("WaitIssue slot has a queue").index()] += 1;
                }
            }
            for kind in [IqKind::Int, IqKind::Fp, IqKind::Ls] {
                assert_eq!(
                    iq_counts[kind.index()],
                    self.res.iqs.thread_occupancy(tid, kind),
                    "thread {tid}: {kind:?} queue occupancy disagrees with live WaitIssue slots"
                );
            }
        }
        assert_eq!(
            rob_total + notional,
            self.res.rob_occupancy,
            "shared ROB budget disagrees with the per-thread windows plus drained notional shares"
        );
        assert_eq!(
            notional_iq, self.res.notional_iq,
            "notional IQ reservation disagrees with the drained threads' frozen shares"
        );
        assert_eq!(
            notional_regs, self.res.notional_regs,
            "notional register reservation disagrees with the drained threads' frozen shares"
        );
        for (kind, i) in [(IqKind::Int, 0), (IqKind::Fp, 1), (IqKind::Ls, 2)] {
            assert!(
                self.res.iqs.occupancy(kind) + self.res.notional_iq[i] <= self.cfg.iq_size[i],
                "live {kind:?} queue entries plus notional reservation exceed capacity"
            );
        }
        assert!(
            self.res.int_rf.free_count() >= self.res.notional_regs[0]
                && self.res.fp_rf.free_count() >= self.res.notional_regs[1],
            "notional register reservation exceeds the free pool"
        );
    }

    /// Zeroes measurement counters (end of warmup). Committed-instruction
    /// baselines and the cycle base are recorded so quota and IPC windows
    /// start here.
    pub fn reset_stats(&mut self) {
        // A thread drained during warmup must be measured at full
        // fidelity: re-promote everyone before the measurement window
        // opens (it resumes fetching at its commit point).
        drain::undrain_all(self);
        self.stats.cycles_at_reset = self.now;
        for t in self.threads.iter_mut() {
            t.half_mark = None;
        }
        for t in self.stats.threads.iter_mut() {
            let committed = t.committed;
            *t = ThreadStats {
                committed,
                committed_at_reset: committed,
                ..ThreadStats::default()
            };
        }
        self.stats.threads_at_quota.fill(None);
    }

    /// Runs until every thread has committed `quota` instructions since
    /// the last stats reset, or `max_cycles` more cycles elapse. Returns
    /// `true` if every thread met the quota (the FAME-like condition that
    /// every thread is fully represented).
    pub fn run_until_quota(&mut self, quota: u64, max_cycles: Cycle) -> bool {
        let deadline = self.now + max_cycles;
        loop {
            self.cycle();
            let mut all = true;
            let mut newly_at_quota = false;
            for tid in 0..self.threads.len() {
                let ts = &mut self.stats.threads[tid];
                if ts.quota_cycle.is_none() {
                    if self.threads[tid].half_mark.is_none()
                        && ts.committed_since_reset() * 2 >= quota
                    {
                        self.threads[tid].half_mark =
                            Some((self.now, ts.committed, ts.mem_stall_cycles));
                    }
                    if ts.committed_since_reset() >= quota {
                        ts.quota_cycle = Some(self.now);
                        ts.committed_at_quota = ts.committed;
                        // Freeze the thread's entire measurement-window
                        // view before any post-quota accounting (in
                        // particular before a drain demotion squashes
                        // its window and charges the squash stats).
                        self.stats.threads_at_quota[tid] = Some(*ts);
                        newly_at_quota = true;
                    } else {
                        all = false;
                    }
                }
            }
            // Order matters for the drain-mode fidelity contract: the
            // success return comes *before* any demotion, so a run in
            // which every thread finishes on the same cycle (notably
            // every single-thread run) never drains and stays
            // bit-identical to `--no-drain` in its final machine state.
            // The deadline return comes *after* it: `newly_at_quota`
            // lives only for this cycle, so a slice that returned first
            // would skip the demotion for good, and the run would no
            // longer be bit-identical at any slicing.
            if all {
                return true;
            }
            // Demote finished threads only once a *single* thread is
            // still measuring. While two or more measurement windows
            // are open, every thread stays at full fidelity — finished
            // threads keep overshooting exactly as the paper's FAME
            // methodology prescribes — so every window that closes
            // before the last one is bit-identical with `--no-drain`.
            // Measured with eager per-quota demotion instead: windows
            // that overlapped a drained peer drifted up to +50% (the
            // coupling a live thread exerts on a concurrently-measuring
            // peer is fine-grained timing, which no commit-only engine
            // reproduces), while the *last* window over drained
            // companions stayed within ~1%. Draining only the tail
            // keeps that accurate regime and still removes the
            // dominant overshoot: the slowest thread's window is what
            // every faster thread would otherwise ride out at full
            // fidelity.
            if newly_at_quota && self.quota_drain {
                let measuring = self
                    .stats
                    .threads
                    .iter()
                    .filter(|t| t.quota_cycle.is_none())
                    .count();
                if measuring == 1 {
                    for tid in 0..self.threads.len() {
                        if self.stats.threads[tid].quota_cycle.is_some()
                            && !self.threads[tid].drained
                        {
                            drain::demote(self, tid);
                        }
                    }
                }
            }
            if self.now >= deadline {
                return false;
            }
            // Probe for a jump only after an idle cycle: a cycle that
            // performed work cannot have been quiescent, and the scan
            // itself is pure overhead on busy cycles. Costs at most one
            // stepped (idle) cycle per quiescent span.
            if self.skip_enabled && !self.activity {
                self.skip_dead_cycles(deadline);
            }
        }
    }

    // ---- event-driven cycle skipping ----

    /// Fast-forwards over dead cycles: if the machine is quiescent (the
    /// next cycle would advance nothing but the clock), jumps straight
    /// to the cycle before the next *interesting* one, so the following
    /// [`SmtSimulator::cycle`] lands exactly on it. Never jumps to or
    /// past `deadline` — the stepped path executes its final cycle at
    /// the deadline, and the jump preserves that.
    fn skip_dead_cycles(&mut self, deadline: Cycle) {
        let Some(next) = self.next_interesting_cycle() else {
            return;
        };
        let target = next.min(deadline) - 1;
        if target > self.now {
            self.bulk_advance(target);
        }
    }

    /// The earliest cycle after `now` at which any pipeline stage can do
    /// work, or `None` if the next cycle is already interesting (or no
    /// wakeup event exists at all, in which case the caller falls back
    /// to stepping and the deadlock check fires as usual).
    ///
    /// Quiescence argument: between events, every stage's gate is frozen
    /// — resources are only freed by completions/commits, fetch gates
    /// only clear by time or branch resolution (a completion), DCRA
    /// inputs only change at completions, Hill shares only change at
    /// epoch boundaries — so a cycle in which no stage can act is
    /// followed by dead cycles until the earliest timed wakeup, which
    /// this function enumerates exhaustively:
    ///
    /// * the completion heap head (writeback / branch resolution),
    /// * the memory event queue's next fill ([`Hierarchy::next_ready_cycle`]),
    /// * runahead episode exits,
    /// * frontend refill availability (`ready_at` of each fetch-window head),
    /// * fetch gate expiry (I-cache refills, STALL/FLUSH gates),
    /// * the Hill-Climbing epoch boundary.
    fn next_interesting_cycle(&self) -> Option<Cycle> {
        // The cycle under consideration: the one `cycle()` would run next.
        let at = self.now + 1;
        // Pending ready candidates (including stale entries and MSHR
        // retries) give the issue stage per-cycle work — popping,
        // validating, re-probing the cache — that mutates state.
        if self.res.iqs.any_ready_candidates() {
            return None;
        }
        let mut next = Cycle::MAX;

        if let Some(ready) = self.res.peek_completion() {
            if ready <= at {
                return None;
            }
            next = next.min(ready);
        }
        // The memory system wakes itself lazily (transfers drain on the
        // next access), but its next fill bounds the jump conservatively.
        if let Some(ready) = self.res.hier.next_ready_cycle() {
            if ready > at {
                next = next.min(ready);
            }
        }

        for (tid, t) in self.threads.iter().enumerate() {
            // A drained thread acts only at its next self-timed burst,
            // whose cycle is stored pacing state (updated only inside
            // bursts, which are themselves interesting cycles); none of
            // the stage gates below apply to it.
            if t.drained {
                let burst_at = t.drain.next_burst_at;
                if burst_at <= at {
                    return None;
                }
                next = next.min(burst_at);
                continue;
            }
            // Runahead episode exit.
            if let Some(ep) = t.episode {
                if ep.exit_at <= at {
                    return None;
                }
                next = next.min(ep.exit_at);
            }
            // Commit head: retirement, pseudo-retirement, runahead entry.
            if let Some(front) = t.instrs.rob_front_slot() {
                if sched_stage(t.instrs.sched[front]) == ST_DONE {
                    return None;
                }
                if t.mode == ExecMode::Normal && commit::entry_eligible(&self.cfg, t, front, at) {
                    return None;
                }
            }
            // Dispatch: the head either acts, waits out the front-end
            // depth (timed), or is blocked on frozen resources/policy.
            if let Some(f) = t.instrs.fe_front_slot() {
                let ready_at = t.instrs.front[f].ready_at;
                if ready_at > at {
                    next = next.min(ready_at);
                } else if dispatch::decide(self, tid) != dispatch::DispatchDecision::Blocked {
                    return None;
                }
            }
            // Fetch: untimed blocks (full buffer, unresolved
            // misprediction, NoFetch-runahead) persist until an event
            // already accounted above; otherwise the thread resumes at
            // its latest time gate.
            let untimed_blocked = t.instrs.fe_len() >= self.cfg.fetch_buffer
                || t.branch_gate.is_some()
                || (t.mode == ExecMode::Runahead && self.cfg.runahead == RunaheadVariant::NoFetch);
            if !untimed_blocked {
                let gate = t.icache_wait.max(t.longlat_gate);
                if gate <= at {
                    return None; // fetchable next cycle
                }
                next = next.min(gate);
            }
        }

        // Hill shares can change (and unblock dispatch) only at an epoch
        // boundary; never jump past one.
        if let Some(hill) = &self.res.hill {
            let boundary = hill.next_boundary();
            if boundary <= at {
                return None;
            }
            next = next.min(boundary);
        }

        (next != Cycle::MAX).then_some(next)
    }

    /// Jumps the clock to `to` (exclusive of any stage work), charging
    /// the skipped span to exactly the per-cycle state the stepped path
    /// would have touched: the mode/register occupancy counters and the
    /// round-robin rotation pointers, which advance unconditionally once
    /// per cycle in every stage.
    fn bulk_advance(&mut self, to: Cycle) {
        let k = to - self.now;
        let n = self.threads.len();
        self.now = to;
        self.stats.cycles = self.now;
        self.stats.skipped_cycles += k;
        self.stats.skip_spans += 1;
        self.res.commit_rr = (self.res.commit_rr + k as usize) % n;
        self.res.dispatch_rr = (self.res.dispatch_rr + k as usize) % n;
        self.res.fetch_rr = self.res.fetch_rr.wrapping_add(k as usize);
        for tid in 0..n {
            let m = self.threads[tid].mode.index();
            let rob = self.threads[tid].instrs.rob_len() as u64;
            let iq = self.res.iqs.thread_kinds(tid);
            let ts = &mut self.stats.threads[tid];
            ts.mode_cycles[m] += k;
            ts.int_reg_cycles[m] += k * self.res.int_rf.allocated(tid) as u64;
            ts.fp_reg_cycles[m] += k * self.res.fp_rf.allocated(tid) as u64;
            ts.rob_occ_cycles += k * rob;
            for (acc, occ) in ts.iq_occ_cycles.iter_mut().zip(iq) {
                *acc += k * occ as u64;
            }
        }
        // `stats.mem_events` needs no update: a dead span performs no
        // hierarchy access, so the per-cycle mirror would re-copy the
        // same value. Hill's `on_cycle` is a no-op strictly before its
        // epoch boundary, which bounds every jump.
    }

    /// Advances the pipeline one cycle.
    pub fn cycle(&mut self) {
        self.now += 1;
        self.stats.cycles = self.now;
        self.activity = false;
        complete::run(self);
        runahead::process_exits(self);
        commit::run(self);
        issue::run(self);
        dispatch::run(self);
        fetch::run(self);
        if self.drained_live > 0 {
            drain::run(self);
        }
        self.per_cycle_updates();
        assert!(
            self.now - self.last_progress < 200_000,
            "pipeline deadlock: no commit for 200k cycles at cycle {} (rob occupancy {})",
            self.now,
            self.res.rob_occupancy
        );
    }

    // ---- per-cycle policy & stats updates ----

    fn per_cycle_updates(&mut self) {
        if let Some(hill) = &mut self.res.hill {
            let total: u64 = self.stats.threads.iter().map(|t| t.committed).sum();
            hill.on_cycle(self.now, total);
        }
        for tid in 0..self.threads.len() {
            let m = self.threads[tid].mode.index();
            let rob = self.threads[tid].instrs.rob_len() as u64;
            let iq = self.res.iqs.thread_kinds(tid);
            let ts = &mut self.stats.threads[tid];
            ts.mode_cycles[m] += 1;
            ts.int_reg_cycles[m] += self.res.int_rf.allocated(tid) as u64;
            ts.fp_reg_cycles[m] += self.res.fp_rf.allocated(tid) as u64;
            ts.rob_occ_cycles += rob;
            for (acc, occ) in ts.iq_occ_cycles.iter_mut().zip(iq) {
                *acc += occ as u64;
            }
        }
        // Mirror the shared hierarchy's contention counters so
        // `SimStats` snapshots carry them (bus occupancy, port
        // conflicts).
        self.stats.mem_events = *self.res.hier.event_stats();
        self.stats.fetch_replays = self.threads.iter().map(|t| t.oracle.replayed_count()).sum();
    }
}
