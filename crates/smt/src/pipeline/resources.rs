//! The structures every hardware thread contends for, behind a narrow
//! arbitration API.
//!
//! [`SharedResources`] owns the physical register files, issue queues,
//! cache hierarchy, branch predictor tables, the completion event heap,
//! the shared-ROB occupancy budget, and the per-policy arbitration state
//! (round-robin pointers, DCRA weights, Hill-Climbing shares). Stages
//! operate on `(&mut Thread, &mut SharedResources, &SmtConfig)` and go
//! through these methods for anything shared; policies gate dispatch via
//! the single [`SharedResources::allows_dispatch`] entry point instead of
//! ad-hoc fields sprinkled over the pipeline.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rat_bpred::PerceptronPredictor;
use rat_isa::ArchReg;
use rat_mem::Hierarchy;

use crate::config::{SmtConfig, HIERARCHY, IQ_SIZE, ROB_SIZE};
use crate::instr_table::{sched_iq, GSEQ_SHIFT, STAGE_MASK, ST_WAIT, WAIT_MASK, WAIT_ONE};
use crate::iq::{IssueQueues, ReadyKey};
use crate::policy::{dcra_cap, dcra_weight, HillState, PolicyKind};
use crate::pool::{NodePool, NIL};
use crate::regfile::PhysRegFile;
use crate::types::{Cycle, IqKind, PhysReg, RegClass, ThreadId};

use super::Thread;

/// DCRA's weight for a slow (memory-bound) thread, against 1 for a fast
/// one (see [`dcra_weight`]).
const DCRA_SLOW_WEIGHT: f64 = 4.0;

/// One pending completion event: the drain-order word (thread id in the
/// high byte, sequence number below — sorting by it reproduces the
/// `(tid, seq)` order the stepped drain has always used, with `gseq` as
/// the final tiebreak) plus the dispatch stamp for staleness checks.
type CompletionEvent = (u64, u64);

/// Packs a completion event's drain-order word.
#[inline]
fn completion_order(tid: ThreadId, seq: u64) -> u64 {
    debug_assert!(tid < 8 && seq < 1 << 56);
    ((tid as u64) << 56) | seq
}

/// Unpacks a drain-order word into `(tid, seq)`.
#[inline]
fn completion_parts(order: u64) -> (ThreadId, u64) {
    ((order >> 56) as ThreadId, order & ((1 << 56) - 1))
}

/// A timing wheel for completion events, replacing a global binary heap.
///
/// The wheel holds one bucket per cycle over a sliding horizon; events
/// beyond the horizon overflow into a small binary heap and migrate into
/// buckets as the horizon advances. A bucket is a chain through one
/// [`NodePool`] (the issue queues' wakeup lists use the same pool
/// type): scheduling links one node, and the per-cycle drain unlinks
/// one (tiny) bucket into a scratch `Vec` and sorts it — far cheaper
/// than millions of 32-byte heap sifts, while popping events in exactly
/// the heap's `(ready_at, tid, seq, gseq)` order. The pool holds as many
/// nodes as events were ever pending at once, not each bucket's largest
/// size, and the steady state allocates nothing.
struct CompletionWheel {
    /// `slots[c & mask]` is the chain of the events due at cycle `c` for
    /// `c ∈ [base, base + slots.len())` ([`NIL`] when there are none).
    slots: Box<[u32]>,
    /// Every bucket's events.
    events: NodePool<CompletionEvent>,
    mask: u64,
    /// Every cycle `< base` has been fully drained.
    base: Cycle,
    /// Events currently in `slots`.
    near_count: usize,
    /// Events at or beyond `base + slots.len()` (rare: queued-up memory
    /// bus transfers can push fills past the horizon).
    far: BinaryHeap<Reverse<(Cycle, u64, u64)>>,
    /// The bucket being drained (sorted), and the drain position.
    cur: Vec<CompletionEvent>,
    cur_idx: usize,
    /// Monotone lower-bound cursor for [`Self::peek`]: no event exists in
    /// `[base, next_due)`. Pushes lower it; peeks advance it. `Cell` so
    /// the read-only peek can memoize its scan.
    next_due: Cell<Cycle>,
}

impl CompletionWheel {
    /// Horizon width. Must exceed the longest single-event latency in the
    /// common case (memory latency + L2 + bus queueing); rarer, longer
    /// waits take the `far` overflow path.
    const SLOTS: usize = 1024;

    fn new() -> Self {
        CompletionWheel {
            slots: vec![NIL; Self::SLOTS].into_boxed_slice(),
            events: NodePool::new(),
            mask: (Self::SLOTS - 1) as u64,
            base: 0,
            near_count: 0,
            far: BinaryHeap::new(),
            cur: Vec::new(),
            cur_idx: 0,
            next_due: Cell::new(0),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.near_count == 0 && self.far.is_empty() && self.cur_idx >= self.cur.len()
    }

    fn push(&mut self, ready_at: Cycle, tid: ThreadId, seq: u64, gseq: u64) {
        debug_assert!(ready_at >= self.base, "completion scheduled in the past");
        if ready_at - self.base < self.slots.len() as u64 {
            let bucket = &mut self.slots[(ready_at & self.mask) as usize];
            self.events.push(bucket, (completion_order(tid, seq), gseq));
            self.near_count += 1;
        } else {
            self.far
                .push(Reverse((ready_at, completion_order(tid, seq), gseq)));
        }
        if ready_at < self.next_due.get() {
            self.next_due.set(ready_at);
        }
    }

    /// Moves far events that fell inside the horizon into their buckets.
    fn migrate_far(&mut self) {
        let horizon = self.base + self.slots.len() as u64;
        while let Some(&Reverse((ready, order, gseq))) = self.far.peek() {
            if ready >= horizon {
                break;
            }
            self.far.pop();
            let bucket = &mut self.slots[(ready & self.mask) as usize];
            self.events.push(bucket, (order, gseq));
            self.near_count += 1;
        }
    }

    /// Pops the next event due at or before `now`, in `(ready, tid, seq,
    /// gseq)` order.
    fn pop_due(&mut self, now: Cycle) -> Option<CompletionEvent> {
        loop {
            if self.cur_idx < self.cur.len() {
                let ev = self.cur[self.cur_idx];
                self.cur_idx += 1;
                return Some(ev);
            }
            if self.base > now {
                return None;
            }
            // Keep the horizon fresh on *every* `base` advance — a far
            // event whose slot the walk is about to cross must land in
            // its bucket before the walk passes it, or it would alias to
            // a cycle one wheel-turn later. `migrate_far` is one heap
            // peek when nothing is due to move.
            self.migrate_far();
            if self.near_count == 0 {
                // Nothing in the horizon; far events (if any) are beyond
                // `base + SLOTS`, hence beyond `now` only if the horizon
                // still covers `now` — advance and re-check.
                if self.far.is_empty() {
                    self.base = now + 1;
                    return None;
                }
                self.base = (now + 1).min(self.base + self.slots.len() as u64);
                continue;
            }
            // Walk to the next non-empty bucket at or before `now`.
            let bucket = &mut self.slots[(self.base & self.mask) as usize];
            if *bucket == NIL {
                self.base += 1;
                continue;
            }
            self.cur.clear();
            self.cur_idx = 0;
            while let Some(ev) = self.events.pop(bucket) {
                self.cur.push(ev);
            }
            self.near_count -= self.cur.len();
            // The chain pops newest first. Push order is nearly sorted,
            // and a small `sort_unstable` is an insertion sort, which
            // shifts half as often on it as on the chain's order.
            self.cur.reverse();
            self.cur.sort_unstable();
            self.base += 1;
        }
    }

    /// The due cycle of the earliest pending event, if any.
    fn peek(&self) -> Option<Cycle> {
        if self.cur_idx < self.cur.len() {
            // Mid-drain: the drained bucket's cycle is `base - 1`.
            return Some(self.base - 1);
        }
        let far_head = self.far.peek().map(|&Reverse((ready, ..))| ready);
        if self.near_count == 0 {
            return far_head;
        }
        // Scan from the memoized cursor (never below base) to the next
        // non-empty bucket; amortized O(1) because the cursor and `base`
        // only move forward and pushes lower the cursor explicitly.
        let mut c = self.next_due.get().max(self.base);
        loop {
            debug_assert!(c < self.base + self.slots.len() as u64);
            if self.slots[(c & self.mask) as usize] != NIL {
                self.next_due.set(c);
                return Some(match far_head {
                    Some(f) if f < c => f,
                    _ => c,
                });
            }
            c += 1;
        }
    }
}

/// Shared back-end structures plus arbitration state.
pub(super) struct SharedResources {
    pub(super) int_rf: PhysRegFile,
    pub(super) fp_rf: PhysRegFile,
    pub(super) iqs: IssueQueues,
    pub(super) hier: Hierarchy,
    pub(super) pred: PerceptronPredictor,
    /// Pending completion events, bucketed by due cycle.
    completions: CompletionWheel,
    /// Global dispatch-order stamp (unique per dispatched instance).
    pub(super) gseq: u64,
    /// Shared-ROB occupancy (the 512-entry capacity budget).
    pub(super) rob_occupancy: usize,
    /// Issue-queue entries (per kind) notionally held by drained
    /// threads — reserved against the capacity in the dispatch gate so
    /// measuring threads keep contending, without live entries behind
    /// them (see `pipeline::drain`).
    pub(super) notional_iq: [usize; 3],
    /// Renaming physical registers (`[INT, FP]`) notionally held by
    /// drained threads — reserved against `free_count` in the dispatch
    /// gate.
    pub(super) notional_regs: [usize; 2],
    pub(super) commit_rr: usize,
    pub(super) dispatch_rr: usize,
    pub(super) fetch_rr: usize,
    pub(super) hill: Option<HillState>,
    /// Reusable scratch for the issue stage's per-cycle retry set (MSHR
    /// rejections put back after the select loop). Capacity persists
    /// across cycles so the steady state allocates nothing.
    pub(super) retry_scratch: Vec<ReadyKey>,
    /// Reusable scratch for runahead entry's in-flight L2-miss
    /// conversions.
    pub(super) conv_scratch: Vec<(RegClass, PhysReg, Option<ArchReg>)>,
    /// Reusable scratch for runahead entry's episode register sweep.
    pub(super) dst_scratch: Vec<(RegClass, PhysReg)>,
}

impl SharedResources {
    /// Builds the shared structures for `n` hardware threads.
    pub(super) fn new(cfg: &SmtConfig, n: usize) -> Self {
        let hill = if cfg.policy == PolicyKind::Hill {
            Some(HillState::new(n, 4096, 0.05))
        } else {
            None
        };
        SharedResources {
            int_rf: PhysRegFile::new(cfg.regs, n),
            fp_rf: PhysRegFile::new(cfg.regs, n),
            iqs: IssueQueues::new(IQ_SIZE, n, cfg.regs),
            hier: Hierarchy::new(HIERARCHY),
            pred: PerceptronPredictor::hpca2008_default(),
            completions: CompletionWheel::new(),
            gseq: 0,
            rob_occupancy: 0,
            notional_iq: [0; 3],
            notional_regs: [0; 2],
            commit_rr: 0,
            dispatch_rr: 0,
            fetch_rr: 0,
            hill,
            retry_scratch: Vec::new(),
            conv_scratch: Vec::new(),
            dst_scratch: Vec::new(),
        }
    }

    /// The register file of `class`.
    pub(super) fn rf(&mut self, class: RegClass) -> &mut PhysRegFile {
        match class {
            RegClass::Int => &mut self.int_rf,
            RegClass::Fp => &mut self.fp_rf,
        }
    }

    /// Read access to the register file of `class`.
    pub(super) fn rf_ref(&self, class: RegClass) -> &PhysRegFile {
        match class {
            RegClass::Int => &self.int_rf,
            RegClass::Fp => &self.fp_rf,
        }
    }

    /// Frees `p` if it is episode-tagged and still owned by `tid` — the
    /// early-release rule shared by pseudo-retirement, squash cleanup and
    /// the episode-exit sweep.
    pub(super) fn free_if_episode_owned(&mut self, class: RegClass, p: PhysReg, tid: ThreadId) {
        if self.rf_ref(class).in_episode(p) && self.rf_ref(class).owned_by(p, tid) {
            self.rf(class).free(p, tid);
        }
    }

    /// Schedules a completion event.
    pub(super) fn schedule_completion(
        &mut self,
        ready_at: Cycle,
        tid: ThreadId,
        seq: u64,
        gseq: u64,
    ) {
        self.completions.push(ready_at, tid, seq, gseq);
    }

    /// Pops the next completion event due at or before `now`, in
    /// `(ready_at, tid, seq, gseq)` order.
    pub(super) fn pop_due_completion(&mut self, now: Cycle) -> Option<(ThreadId, u64, u64)> {
        if self.completions.is_empty() {
            return None;
        }
        self.completions.pop_due(now).map(|(order, gseq)| {
            let (tid, seq) = completion_parts(order);
            (tid, seq, gseq)
        })
    }

    /// The due cycle of the earliest pending completion event, if any —
    /// one bound on how far the cycle-skipping driver may jump the clock.
    pub(super) fn peek_completion(&self) -> Option<Cycle> {
        self.completions.peek()
    }

    /// Marks a produced register ready (and possibly INV), waking waiters
    /// across all threads' windows.
    pub(super) fn wake_register(
        &mut self,
        threads: &mut [Thread],
        class: RegClass,
        p: PhysReg,
        inv: bool,
    ) {
        {
            let rf = self.rf(class);
            if inv {
                rf.set_inv(p);
            }
            rf.set_ready(p);
        }
        // Fused drain + requeue (see `IssueQueues::wake_waiters`): the
        // callback validates each waiter handle against the slot's
        // scheduler word — one load — decrements its wait count in
        // place, and reports the queue to requeue it on once its last
        // operand arrives.
        self.iqs.wake_waiters(class, p, |tid, slot, gseq| {
            let t = &mut threads[tid as usize].instrs;
            let slot = slot as usize;
            let s = t.sched[slot];
            if s >> GSEQ_SHIFT != gseq || s & STAGE_MASK != ST_WAIT || s & WAIT_MASK == 0 {
                return None;
            }
            let ns = s - WAIT_ONE;
            t.sched[slot] = ns;
            if ns & WAIT_MASK == 0 {
                Some(sched_iq(ns).expect("waiting slot sits in an IQ"))
            } else {
                None
            }
        });
    }

    // ---- policy dispatch gate ----

    /// The single dispatch-gating entry point: DCRA and Hill Climbing cap
    /// a thread's issue-queue entries and renaming registers here; every
    /// other policy admits unconditionally (STALL/FLUSH gate *fetch*, via
    /// `Thread::fetch_ready_at`).
    pub(super) fn allows_dispatch(
        &self,
        cfg: &SmtConfig,
        threads: &[Thread],
        tid: ThreadId,
        iq_kind: Option<IqKind>,
        dst_arch: Option<ArchReg>,
    ) -> bool {
        match cfg.policy {
            PolicyKind::Dcra => self.dcra_allows(cfg, threads, tid, iq_kind, dst_arch),
            PolicyKind::Hill => self.hill_allows(cfg, threads, tid, iq_kind, dst_arch),
            _ => true,
        }
    }

    /// The one share check of DCRA and Hill Climbing: whether `tid` is
    /// below its cap of the issue queue `iq_kind` and of the renaming
    /// registers of `dst_arch`'s class. `cap(total, fp)` is the
    /// thread's share of a resource of `total` entries (`fp` for the FP
    /// queue and FP registers), floored at 4. Only renaming registers
    /// are shared: 32 per thread are pinned for precise state.
    fn within_caps(
        &self,
        cfg: &SmtConfig,
        n: usize,
        tid: ThreadId,
        iq_kind: Option<IqKind>,
        dst_arch: Option<ArchReg>,
        cap: impl Fn(usize, bool) -> usize,
    ) -> bool {
        if let Some(k) = iq_kind {
            let limit = cap(IQ_SIZE[k.index()], k == IqKind::Fp).max(4);
            if self.iqs.thread_occupancy(tid, k) >= limit {
                return false;
            }
        }
        if let Some(arch) = dst_arch {
            let limit = cap(cfg.regs.saturating_sub(32 * n), !arch.is_int()).max(4);
            let rf = if arch.is_int() {
                &self.int_rf
            } else {
                &self.fp_rf
            };
            if rf.allocated(tid).saturating_sub(32) >= limit {
                return false;
            }
        }
        true
    }

    /// DCRA: each thread's cap is its weighted floor share, with slow
    /// threads weighted [`DCRA_SLOW_WEIGHT`] and FP resources shared
    /// only among threads that have touched FP.
    fn dcra_allows(
        &self,
        cfg: &SmtConfig,
        threads: &[Thread],
        tid: ThreadId,
        iq_kind: Option<IqKind>,
        dst_arch: Option<ArchReg>,
    ) -> bool {
        let n = threads.len();
        if n == 1 {
            return true;
        }
        // Weights in stack scratch (n <= 8): the gate runs on every
        // dispatch attempt and must not allocate.
        let (mut int_weights, mut fp_weights) = ([0.0; 8], [0.0; 8]);
        for (t, thread) in threads.iter().enumerate() {
            let slow = thread.dmiss_inflight > 0;
            int_weights[t] = dcra_weight(slow, true, DCRA_SLOW_WEIGHT);
            fp_weights[t] = dcra_weight(slow, thread.fp_user, DCRA_SLOW_WEIGHT);
        }
        let (int_weights, fp_weights) = (&int_weights[..n], &fp_weights[..n]);
        self.within_caps(cfg, n, tid, iq_kind, dst_arch, |total, fp| {
            dcra_cap(total, if fp { fp_weights } else { int_weights }, tid)
        })
    }

    /// Hill Climbing: the thread's ROB entries, and then its caps, are
    /// bounded by its current share.
    fn hill_allows(
        &self,
        cfg: &SmtConfig,
        threads: &[Thread],
        tid: ThreadId,
        iq_kind: Option<IqKind>,
        dst_arch: Option<ArchReg>,
    ) -> bool {
        let Some(hill) = &self.hill else { return true };
        let share = hill.share(tid);
        if threads[tid].instrs.rob_len() >= ((ROB_SIZE as f64) * share) as usize {
            return false;
        }
        self.within_caps(cfg, threads.len(), tid, iq_kind, dst_arch, |total, _| {
            ((total as f64) * share) as usize
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{completion_order, CompletionWheel};

    #[test]
    fn wheel_pops_in_ready_tid_seq_order() {
        let mut w = CompletionWheel::new();
        w.push(5, 1, 10, 100);
        w.push(3, 0, 7, 70);
        w.push(5, 0, 9, 90);
        assert_eq!(w.peek(), Some(3));
        assert_eq!(w.pop_due(2), None);
        assert_eq!(w.pop_due(5), Some((completion_order(0, 7), 70)));
        assert_eq!(w.pop_due(5), Some((completion_order(0, 9), 90)));
        assert_eq!(w.pop_due(5), Some((completion_order(1, 10), 100)));
        assert_eq!(w.pop_due(5), None);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_nodes_never_exceed_peak_pending() {
        // Every cycle schedules up to three events a short way ahead and
        // drains the due ones: the pool must track the peak number of
        // pending events, not every event ever scheduled.
        let mut w = CompletionWheel::new();
        let (mut pending, mut peak, mut seq) = (0usize, 0usize, 0u64);
        for now in 0..5_000u64 {
            for _ in 0..now % 4 {
                w.push(now + 1 + seq * 7 % 300, 0, seq, seq);
                seq += 1;
                pending += 1;
            }
            peak = peak.max(pending);
            while w.pop_due(now).is_some() {
                pending -= 1;
            }
            assert!(w.events.node_count() <= peak, "cycle {now}");
        }
        assert!(peak * 4 < seq as usize, "peak {peak} of {seq} events");
    }

    #[test]
    fn far_event_survives_long_empty_walk() {
        // A far event (beyond the wheel horizon) must not be walked past
        // when `base` advances across its slot during an empty-bucket
        // scan — the regression mode is slot aliasing one wheel turn
        // later.
        let mut w = CompletionWheel::new();
        let far = CompletionWheel::SLOTS as u64 + 600;
        w.push(far, 0, 1, 1); // beyond base(0) + SLOTS: far heap
        w.push(900, 0, 2, 2); // near anchor keeps near_count > 0
                              // Walk a long dead span that ends before either event.
        assert_eq!(w.pop_due(800), None);
        assert_eq!(w.peek(), Some(900));
        // Drain the near anchor, then cross the far event's cycle.
        assert_eq!(w.pop_due(1000), Some((completion_order(0, 2), 2)));
        assert_eq!(w.pop_due(1000), None);
        assert_eq!(w.peek(), Some(far));
        assert_eq!(
            w.pop_due(far),
            Some((completion_order(0, 1), 1)),
            "far event delivered on time"
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_event_crossed_in_one_jump_is_still_delivered() {
        // Cycle skipping can jump the clock far past the horizon in one
        // hop; every pending event must still drain, in order.
        let mut w = CompletionWheel::new();
        let a = CompletionWheel::SLOTS as u64 * 3 + 17;
        w.push(a, 1, 1, 1);
        w.push(a + CompletionWheel::SLOTS as u64, 0, 2, 2);
        assert_eq!(
            w.pop_due(a + 10 * CompletionWheel::SLOTS as u64),
            Some((completion_order(1, 1), 1))
        );
        assert_eq!(
            w.pop_due(a + 10 * CompletionWheel::SLOTS as u64),
            Some((completion_order(0, 2), 2))
        );
        assert!(w.is_empty());
    }
}
