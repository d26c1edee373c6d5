//! The shared-resource event queue: L2-port arbitration and memory-bus
//! bandwidth.
//!
//! # The event model
//!
//! [`MemEventQueue`] turns the hierarchy from *latency-accurate* into
//! *event-driven*: instead of every miss being granted its fixed latency
//! regardless of what else is in flight, the two finite resources that
//! concurrent misses actually compete for are arbitrated explicitly:
//!
//! * **L2 ports** ([`MemEventQueue::acquire_port`]): the L2 accepts at
//!   most one new lookup per port per cycle. A lookup that arrives while
//!   every port is booked for its cycle is *delayed* to the earliest
//!   cycle with a free port, and everything downstream of it (the L2
//!   probe, the memory request, the fill) shifts by the same amount.
//! * **Memory bus** ([`MemEventQueue::reserve_bus`]): a cache line takes
//!   [`bus_cycles_per_line`](MemEventQueue::new) cycles to cross the
//!   L2↔memory bus, and transfers serialize — one line at a time, in
//!   request order. The uncontended memory latency already covers one
//!   transfer, so a lone miss is unaffected; a burst of misses from
//!   several SMT threads drains at bus bandwidth instead of overlapping
//!   for free.
//!
//! Completed transfers are retired from the pending set by
//! [`MemEventQueue::drain`].
//!
//! # Invariants
//!
//! * **Bus FIFO**: `reserve_bus` never reorders transfers — the bus-free
//!   horizon only grows, so a later request can never be granted the bus
//!   ahead of an earlier one. Each transfer completes at least
//!   `bus_cycles_per_line` (≥ 1) cycles after the one before it, so the
//!   pending transfers are a FIFO in ascending completion order, and
//!   they leave the queue in that order.
//! * **Determinism**: all arbitration state is plain data owned by the
//!   queue (no wall clock, no randomness). The same access sequence
//!   yields the same grants, and `Clone` preserves the exact schedule —
//!   which is what keeps parallel sweep output bit-identical at any
//!   worker-thread count.
//! * **Work conservation**: with a free port and an idle bus, a request
//!   is granted at its uncontended cycle; contention can only *delay*
//!   a grant, never accelerate it.

use std::collections::VecDeque;

use crate::Cycle;

/// Contention counters accumulated by a [`MemEventQueue`].
///
/// All counters are cumulative over the queue's lifetime (they are *not*
/// zeroed by `rat_smt`'s warmup stats reset; compare totals between runs,
/// or snapshot-and-subtract for windowed measurements).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemEventStats {
    /// L2 lookups delayed because every port was booked for their cycle.
    pub port_conflicts: u64,
    /// Total cycles of L2-lookup delay added by port arbitration.
    pub port_wait_cycles: u64,
    /// Line transfers scheduled on the memory bus.
    pub bus_transfers: u64,
    /// Total cycles the bus spent occupied by transfers.
    pub bus_busy_cycles: u64,
    /// Total cycles of fill delay added by bus serialization (arrival
    /// past the uncontended arrival cycle).
    pub bus_wait_cycles: u64,
    /// Transfers whose completion has been drained from the pending set.
    pub completed_transfers: u64,
}

impl MemEventStats {
    /// Total delay contention added over the uncontended latencies:
    /// port waits plus bus waits.
    pub fn contention_cycles(&self) -> u64 {
        self.port_wait_cycles + self.bus_wait_cycles
    }
}

/// Per-cycle arbitration of the L2 ports and the memory bus (see the
/// [module docs](self) for the model and its invariants).
#[derive(Clone, Debug)]
pub struct MemEventQueue {
    /// Next free cycle per L2 port.
    port_free: Vec<Cycle>,
    /// Cycles one line occupies the bus.
    bus_cycles_per_line: Cycle,
    /// Cycle at which the bus finishes its last scheduled transfer.
    bus_free: Cycle,
    /// Completion cycles of the scheduled-but-not-yet-completed
    /// transfers, in push order, which is ascending (see the module
    /// docs).
    pending: VecDeque<Cycle>,
    stats: MemEventStats,
}

impl MemEventQueue {
    /// Builds the queue.
    ///
    /// # Panics
    ///
    /// Panics if `l2_ports` or `bus_cycles_per_line` is 0: every lookup
    /// needs a port and every transfer occupies the bus.
    pub fn new(l2_ports: usize, bus_cycles_per_line: Cycle) -> Self {
        assert!(l2_ports >= 1, "the L2 needs at least one lookup port");
        assert!(
            bus_cycles_per_line >= 1,
            "a line transfer occupies the bus for at least one cycle"
        );
        MemEventQueue {
            port_free: vec![0; l2_ports],
            bus_cycles_per_line,
            bus_free: 0,
            pending: VecDeque::new(),
            stats: MemEventStats::default(),
        }
    }

    /// Contention counters accumulated so far.
    pub fn stats(&self) -> &MemEventStats {
        &self.stats
    }

    /// Grants an L2 lookup slot at or after `now`: returns the cycle the
    /// lookup actually starts. Each port accepts one new lookup per
    /// cycle; the earliest-free port wins, so grants are deterministic
    /// and work-conserving.
    pub fn acquire_port(&mut self, now: Cycle) -> Cycle {
        let (idx, &free) = self
            .port_free
            .iter()
            .enumerate()
            .min_by_key(|&(i, &f)| (f, i))
            .expect("at least one port");
        let start = now.max(free);
        self.port_free[idx] = start + 1;
        if start > now {
            self.stats.port_conflicts += 1;
            self.stats.port_wait_cycles += start - now;
        }
        start
    }

    /// Reserves the bus for one line transfer whose *uncontended* arrival
    /// cycle is `uncontended_ready` (the fixed-latency fill time, which
    /// already includes one bus crossing). Returns the actual arrival
    /// cycle: unchanged on an idle bus, pushed back behind earlier
    /// transfers otherwise.
    pub fn reserve_bus(&mut self, uncontended_ready: Cycle) -> Cycle {
        let b = self.bus_cycles_per_line;
        // The transfer occupies the bus for its last `b` cycles; it may
        // start no earlier than its data leaves memory and no earlier
        // than the bus frees up.
        let start = uncontended_ready.saturating_sub(b).max(self.bus_free);
        let ready = start + b;
        self.bus_free = ready;
        self.stats.bus_transfers += 1;
        self.stats.bus_busy_cycles += b;
        self.stats.bus_wait_cycles += ready - uncontended_ready;
        debug_assert!(self.pending.back().is_none_or(|&last| last < ready));
        self.pending.push_back(ready);
        ready
    }

    /// The completion cycle of the earliest scheduled-but-undrained
    /// transfer, if any. This is the memory system's next wakeup point:
    /// a discrete-event driver can jump the clock here when every core
    /// structure is quiescent, because nothing in the memory system
    /// changes state before this cycle.
    pub fn next_ready_cycle(&self) -> Option<Cycle> {
        self.pending.front().copied()
    }

    /// Retires every pending transfer that completes at or before `now`,
    /// in push order. Returns the number retired.
    pub fn drain(&mut self, now: Cycle) -> usize {
        let mut n = 0;
        while self.pending.front().is_some_and(|&ready| ready <= now) {
            self.pending.pop_front();
            n += 1;
        }
        self.stats.completed_transfers += n as u64;
        n
    }

    /// Number of bus transfers scheduled but not complete at `now`.
    pub fn in_flight_transfers(&mut self, now: Cycle) -> usize {
        self.drain(now);
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one lookup port")]
    fn zero_ports_panic() {
        MemEventQueue::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_bus_panics() {
        MemEventQueue::new(1, 0);
    }

    #[test]
    fn single_port_serializes_same_cycle_lookups() {
        let mut q = MemEventQueue::new(1, 1);
        assert_eq!(q.acquire_port(10), 10);
        assert_eq!(q.acquire_port(10), 11);
        assert_eq!(q.acquire_port(10), 12);
        assert_eq!(q.stats().port_conflicts, 2);
        assert_eq!(q.stats().port_wait_cycles, 3);
        // After the burst drains, a later lookup is ungated.
        assert_eq!(q.acquire_port(100), 100);
    }

    #[test]
    fn two_ports_accept_two_per_cycle() {
        let mut q = MemEventQueue::new(2, 1);
        assert_eq!(q.acquire_port(5), 5);
        assert_eq!(q.acquire_port(5), 5);
        assert_eq!(q.acquire_port(5), 6);
        assert_eq!(q.stats().port_conflicts, 1);
    }

    #[test]
    fn idle_bus_does_not_delay() {
        let mut q = MemEventQueue::new(1, 8);
        assert_eq!(q.reserve_bus(423), 423);
        assert_eq!(q.stats().bus_wait_cycles, 0);
        assert_eq!(q.stats().bus_busy_cycles, 8);
    }

    #[test]
    fn busy_bus_serializes_fifo() {
        let mut q = MemEventQueue::new(1, 8);
        let a = q.reserve_bus(423);
        let b = q.reserve_bus(423);
        let c = q.reserve_bus(424);
        assert_eq!(a, 423);
        assert_eq!(b, 431, "second line waits one full transfer");
        assert_eq!(c, 439, "third queues behind the second");
        assert_eq!(q.stats().bus_wait_cycles, (431 - 423) + (439 - 424));
        assert_eq!(q.in_flight_transfers(423), 2);
        assert_eq!(q.in_flight_transfers(431), 1);
        assert_eq!(q.in_flight_transfers(439), 0);
        assert_eq!(q.stats().completed_transfers, 3);
    }

    #[test]
    fn drain_is_ready_then_seq_ordered() {
        let mut q = MemEventQueue::new(1, 1);
        // Completions strictly ascend in push order, even for transfers
        // requested for one cycle on a one-cycle bus, and drain retires
        // every transfer due at once.
        assert_eq!(q.reserve_bus(8), 8);
        assert_eq!(q.reserve_bus(8), 9);
        assert_eq!(q.reserve_bus(4), 10);
        assert_eq!(q.drain(7), 0);
        assert_eq!(q.drain(9), 2);
        assert_eq!(q.next_ready_cycle(), Some(10));
        assert_eq!(q.drain(10), 1);
        assert_eq!(q.stats().completed_transfers, 3);
    }

    #[test]
    fn next_ready_cycle_tracks_earliest_pending() {
        let mut q = MemEventQueue::new(1, 4);
        assert_eq!(q.next_ready_cycle(), None, "idle queue has no wakeup");
        let a = q.reserve_bus(100);
        let b = q.reserve_bus(50);
        assert_eq!(a, 100);
        assert_eq!(b, 100 + 4, "FIFO: later request queues behind");
        assert_eq!(q.next_ready_cycle(), Some(100), "earliest completion");
        q.drain(100);
        assert_eq!(q.next_ready_cycle(), Some(104));
        q.drain(104);
        assert_eq!(q.next_ready_cycle(), None, "drained queue is idle again");
    }

    #[test]
    fn clone_preserves_schedule() {
        let mut q = MemEventQueue::new(1, 8);
        q.acquire_port(0);
        q.reserve_bus(423);
        let mut r = q.clone();
        assert_eq!(q.acquire_port(0), r.acquire_port(0));
        assert_eq!(q.reserve_bus(423), r.reserve_bus(423));
        assert_eq!(q.stats(), r.stats());
    }
}
