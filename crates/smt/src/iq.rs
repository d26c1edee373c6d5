//! Issue queues: occupancy accounting, wakeup lists and age-ordered
//! ready selection.
//!
//! The per-entry wait state lives in the instruction table (`waiting`
//! column); this module owns (a) the occupancy counters that bound
//! dispatch, (b) the physical-register wakeup lists, and (c) per-queue
//! ready heaps that yield issuable instructions oldest-first.
//!
//! Entries refer to instructions by **handle**: the owning thread, the
//! instruction-table slot, and the dispatch stamp `gseq` that both orders
//! selection (oldest first — stamps are globally unique) and invalidates
//! stale handles after squashes (the table clears a slot's stamp when the
//! instruction dies, so a popped handle validates with one column read).
//!
//! Every physical register's wakeup list is a chain of packed candidate
//! handles through one [`NodePool`] (the completion wheel's buckets use
//! the same pool type), instead of one `Vec` per register: registering
//! a waiter and draining a wakeup are pointer bumps, and the pool never
//! holds more nodes than waiters were ever pending at once. The drain
//! order is per-register LIFO, which is immaterial to the simulation:
//! woken candidates are re-ranked by the age-ordered ready heaps, whose
//! keys (`gseq`) are unique.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::pool::{NodePool, NIL};
use crate::types::{IqKind, PhysReg, RegClass, ThreadId};

/// A candidate for issue, packed into one word: the dispatch stamp
/// `gseq` in the high 48 bits (which both orders selection — oldest
/// first, stamps are unique — and invalidates stale candidates after
/// squashes), the thread id in bits 13..16 and the table slot in bits
/// 0..13. One-word heap elements keep the age-ordered select heaps
/// dense: a sift touches half the cache lines of a tuple key.
pub type ReadyKey = u64;

/// Packs a ready-candidate handle.
#[inline]
pub fn ready_key(gseq: u64, tid: u32, slot: u32) -> ReadyKey {
    debug_assert!(tid < 8 && slot < (1 << 13));
    (gseq << 16) | ((tid as u64) << 13) | slot as u64
}

/// Unpacks a ready-candidate handle into `(gseq, tid, slot)`.
#[inline]
pub fn ready_parts(key: ReadyKey) -> (u64, u32, u32) {
    (key >> 16, (key >> 13) as u32 & 0b111, key as u32 & 0x1fff)
}

/// The three issue queues plus wakeup machinery: per-register chains of
/// waiting candidates through one [`NodePool`], and per-queue ready
/// heaps.
#[derive(Clone, Debug)]
pub struct IssueQueues {
    capacity: [usize; 3],
    occupancy: [usize; 3],
    per_thread: Vec<[usize; 3]>,
    ready: [BinaryHeap<Reverse<ReadyKey>>; 3],
    /// Chain head per physical register: INT registers first, then FP.
    wake_heads: Vec<u32>,
    /// Registers per file: the offset of the FP region in `wake_heads`.
    regs: usize,
    /// Every wakeup chain's waiters, as packed candidate handles.
    waiters: NodePool<ReadyKey>,
}

impl IssueQueues {
    /// Creates queues with the given capacities and wakeup lists sized for
    /// two register files of `regs` registers each.
    pub fn new(capacity: [usize; 3], num_threads: usize, regs: usize) -> Self {
        IssueQueues {
            capacity,
            occupancy: [0; 3],
            per_thread: vec![[0; 3]; num_threads],
            ready: Default::default(),
            wake_heads: vec![NIL; 2 * regs],
            regs,
            waiters: NodePool::new(),
        }
    }

    /// Whether queue `kind` has a free slot.
    pub fn has_space(&self, kind: IqKind) -> bool {
        self.occupancy[kind.index()] < self.capacity[kind.index()]
    }

    /// Current occupancy of queue `kind`.
    pub fn occupancy(&self, kind: IqKind) -> usize {
        self.occupancy[kind.index()]
    }

    /// Entries thread `tid` holds in queue `kind` (ICOUNT / DCRA input).
    pub fn thread_occupancy(&self, tid: ThreadId, kind: IqKind) -> usize {
        self.per_thread[tid][kind.index()]
    }

    /// Total queue entries held by `tid` across all three queues.
    pub fn thread_total(&self, tid: ThreadId) -> usize {
        self.per_thread[tid].iter().sum()
    }

    /// Entries thread `tid` holds in each queue, `[INT, FP, LS]`.
    pub fn thread_kinds(&self, tid: ThreadId) -> [usize; 3] {
        self.per_thread[tid]
    }

    /// Accounts an entry entering queue `kind` at dispatch.
    pub fn insert(&mut self, kind: IqKind, tid: ThreadId) {
        debug_assert!(self.has_space(kind), "issue queue overflow");
        self.occupancy[kind.index()] += 1;
        self.per_thread[tid][kind.index()] += 1;
    }

    /// Accounts an entry leaving queue `kind` (issue or squash).
    pub fn remove(&mut self, kind: IqKind, tid: ThreadId) {
        debug_assert!(self.occupancy[kind.index()] > 0);
        debug_assert!(self.per_thread[tid][kind.index()] > 0);
        self.occupancy[kind.index()] -= 1;
        self.per_thread[tid][kind.index()] -= 1;
    }

    /// Index of `(class, p)`'s chain head in `wake_heads`.
    #[inline]
    fn head_slot(&self, class: RegClass, p: PhysReg) -> usize {
        match class {
            RegClass::Int => p as usize,
            RegClass::Fp => self.regs + p as usize,
        }
    }

    /// Registers a waiter: the instruction at `(tid, slot)` stamped
    /// `gseq` needs register `(class, p)` to become ready.
    pub fn add_waiter(&mut self, class: RegClass, p: PhysReg, tid: u32, slot: u32, gseq: u64) {
        let head = self.head_slot(class, p);
        self.waiters
            .push(&mut self.wake_heads[head], ready_key(gseq, tid, slot));
    }

    /// Drains the waiters of `(class, p)` in place: for each waiter the
    /// callback decides (by decrementing its wakeup count against the
    /// instruction table) whether it became issuable, returning the queue
    /// to requeue it on. Fusing the drain and the requeue avoids bouncing
    /// every wakeup through a scratch vector on the writeback hot path.
    pub fn wake_waiters(
        &mut self,
        class: RegClass,
        p: PhysReg,
        mut requeue: impl FnMut(u32, u32, u64) -> Option<IqKind>,
    ) {
        let head = self.head_slot(class, p);
        let mut chain = std::mem::replace(&mut self.wake_heads[head], NIL);
        while let Some(key) = self.waiters.pop(&mut chain) {
            let (gseq, tid, slot) = ready_parts(key);
            if let Some(kind) = requeue(tid, slot, gseq) {
                self.ready[kind.index()].push(Reverse(key));
            }
        }
    }

    /// Re-enqueues an already-packed candidate (MSHR retry).
    pub fn push_requeue(&mut self, kind: IqKind, key: ReadyKey) {
        self.ready[kind.index()].push(Reverse(key));
    }

    /// Enqueues a ready-to-issue candidate.
    pub fn push_ready(&mut self, kind: IqKind, gseq: u64, tid: u32, slot: u32) {
        self.ready[kind.index()].push(Reverse(ready_key(gseq, tid, slot)));
    }

    /// Pops the oldest ready candidate of queue `kind`, if any. The caller
    /// must validate the candidate against the instruction table (it may
    /// have been squashed).
    pub fn pop_ready(&mut self, kind: IqKind) -> Option<ReadyKey> {
        self.ready[kind.index()].pop().map(|Reverse(k)| k)
    }

    /// Whether any queue holds a ready (or possibly-stale) candidate.
    /// While this is true the issue stage has per-cycle work to do —
    /// popping, validating, retrying — so the clock may not skip.
    pub fn any_ready_candidates(&self) -> bool {
        self.ready.iter().any(|h| !h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_tracks_insert_remove() {
        let mut iq = IssueQueues::new([2, 2, 2], 2, 8);
        assert!(iq.has_space(IqKind::Int));
        iq.insert(IqKind::Int, 0);
        iq.insert(IqKind::Int, 1);
        assert!(!iq.has_space(IqKind::Int));
        assert_eq!(iq.thread_occupancy(0, IqKind::Int), 1);
        assert_eq!(iq.thread_total(1), 1);
        iq.remove(IqKind::Int, 0);
        assert!(iq.has_space(IqKind::Int));
    }

    #[test]
    fn ready_pops_oldest_first() {
        let mut iq = IssueQueues::new([4, 4, 4], 1, 8);
        assert!(!iq.any_ready_candidates());
        iq.push_ready(IqKind::Ls, 30, 0, 3);
        iq.push_ready(IqKind::Ls, 10, 0, 1);
        iq.push_ready(IqKind::Ls, 20, 0, 2);
        assert!(iq.any_ready_candidates());
        assert_eq!(ready_parts(iq.pop_ready(IqKind::Ls).unwrap()).0, 10);
        assert_eq!(ready_parts(iq.pop_ready(IqKind::Ls).unwrap()).0, 20);
        assert_eq!(ready_parts(iq.pop_ready(IqKind::Ls).unwrap()).0, 30);
        assert!(iq.pop_ready(IqKind::Ls).is_none());
        assert!(!iq.any_ready_candidates());
    }

    /// Wakes the waiters of `(class, p)`, collecting each one's handle
    /// and requeueing none.
    fn drain(iq: &mut IssueQueues, class: RegClass, p: PhysReg) -> Vec<ReadyKey> {
        let mut out = Vec::new();
        iq.wake_waiters(class, p, |tid, slot, gseq| {
            out.push(ready_key(gseq, tid, slot));
            None
        });
        out
    }

    #[test]
    fn waiters_drain_once() {
        let mut iq = IssueQueues::new([4, 4, 4], 1, 8);
        iq.add_waiter(RegClass::Int, 3, 0, 7, 70);
        iq.add_waiter(RegClass::Int, 3, 0, 8, 80);
        iq.add_waiter(RegClass::Fp, 3, 0, 9, 90);
        assert_eq!(drain(&mut iq, RegClass::Int, 3).len(), 2);
        assert!(drain(&mut iq, RegClass::Int, 3).is_empty());
        // A waiter the callback finds issuable is requeued on the queue
        // it names.
        iq.wake_waiters(RegClass::Fp, 3, |_, _, _| Some(IqKind::Fp));
        assert_eq!(iq.pop_ready(IqKind::Fp), Some(ready_key(90, 0, 9)));
        assert!(drain(&mut iq, RegClass::Fp, 3).is_empty());
    }

    #[test]
    fn freelist_recycles_nodes() {
        let mut iq = IssueQueues::new([4, 4, 4], 1, 8);
        for round in 0..100u64 {
            for w in 0..5 {
                iq.add_waiter(
                    RegClass::Int,
                    (w % 8) as PhysReg,
                    0,
                    round as u32,
                    round * 10 + w as u64,
                );
            }
            for p in 0..8 {
                drain(&mut iq, RegClass::Int, p);
            }
        }
        assert!(
            iq.waiters.node_count() <= 5,
            "pool must not grow past the peak live waiter count, got {}",
            iq.waiters.node_count()
        );
    }

    #[test]
    fn int_and_fp_chains_are_disjoint() {
        let mut iq = IssueQueues::new([4, 4, 4], 2, 8);
        iq.add_waiter(RegClass::Int, 5, 0, 1, 10);
        iq.add_waiter(RegClass::Fp, 5, 1, 2, 20);
        assert_eq!(drain(&mut iq, RegClass::Int, 5), vec![ready_key(10, 0, 1)]);
        assert_eq!(drain(&mut iq, RegClass::Fp, 5), vec![ready_key(20, 1, 2)]);
    }
}
