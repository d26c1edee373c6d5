//! Physical register file with free list, readiness, INV bits and
//! runahead-episode ownership tracking.

use crate::types::{PhysReg, ThreadId};

/// Per-register state, packed into one word so every register operation
/// — alloc, free, wakeup, readiness probe — touches a single cache line
/// instead of one line per parallel flag vector.
#[derive(Clone, Copy, Debug, Default)]
struct RegState {
    /// Bit-packed READY / INV / EPISODE / ALLOCATED flags.
    flags: u8,
    /// Owning thread (valid while allocated).
    owner: u8,
}

const READY: u8 = 1 << 0;
const INV: u8 = 1 << 1;
const EPISODE: u8 = 1 << 2;
const ALLOCATED: u8 = 1 << 3;

/// One class (INT or FP) of physical registers.
///
/// Besides the usual free list and per-register ready bit, each register
/// carries:
///
/// * an **INV bit** — the runahead invalid-value marker of the paper
///   (§3.1): set when the producing instruction's result is bogus;
/// * an **episode bit** — set on registers allocated during (or in flight
///   at the start of) a runahead episode, so pseudo-retirement can free
///   them early and episode exit can sweep the stragglers. Registers
///   holding the checkpointed architectural state never carry the episode
///   bit, which is what pins them.
#[derive(Clone, Debug)]
pub struct PhysRegFile {
    regs: Vec<RegState>,
    free: Vec<PhysReg>,
    per_thread: Vec<usize>,
}

impl PhysRegFile {
    /// Creates a register file of `capacity` registers, all free.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `num_threads == 0`.
    pub fn new(capacity: usize, num_threads: usize) -> Self {
        assert!(capacity > 0, "register file must have capacity");
        assert!(
            capacity <= PhysReg::MAX as usize,
            "register file too large for 16-bit physical register names"
        );
        assert!(num_threads > 0, "need at least one thread");
        assert!(
            num_threads <= u8::MAX as usize,
            "owner field is a u8 thread id"
        );
        PhysRegFile {
            regs: vec![RegState::default(); capacity],
            free: (0..capacity as PhysReg).rev().collect(),
            per_thread: vec![0; num_threads],
        }
    }

    /// Currently free registers.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Registers currently allocated to `tid`.
    pub fn allocated(&self, tid: ThreadId) -> usize {
        self.per_thread[tid]
    }

    /// Allocates a register for `tid` (not ready, not INV). Returns `None`
    /// when the free list is empty — the caller must stall dispatch.
    pub fn alloc(&mut self, tid: ThreadId) -> Option<PhysReg> {
        let p = self.free.pop()?;
        self.regs[p as usize] = RegState {
            flags: ALLOCATED,
            owner: tid as u8,
        };
        self.per_thread[tid] += 1;
        Some(p)
    }

    /// Whether `p` is currently allocated to `tid`. Runahead episode exit
    /// uses this to skip episode-list entries that were already freed by
    /// pseudo-retirement and re-allocated elsewhere.
    #[inline]
    pub fn owned_by(&self, p: PhysReg, tid: ThreadId) -> bool {
        let r = self.regs[p as usize];
        r.flags & ALLOCATED != 0 && r.owner as usize == tid
    }

    /// Returns `p` to the free list.
    ///
    /// # Panics
    ///
    /// Panics on freeing a register not owned by `tid`.
    pub fn free(&mut self, p: PhysReg, tid: ThreadId) {
        assert!(
            self.owned_by(p, tid),
            "freeing register {p} not owned by thread {tid}"
        );
        self.regs[p as usize].flags = 0;
        debug_assert!(self.per_thread[tid] > 0);
        self.per_thread[tid] -= 1;
        self.free.push(p);
    }

    /// Marks `p` ready (its value — possibly bogus — is available).
    #[inline]
    pub fn set_ready(&mut self, p: PhysReg) {
        self.regs[p as usize].flags |= READY;
    }

    /// Whether `p` is ready.
    #[inline]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.regs[p as usize].flags & READY != 0
    }

    /// Sets the INV bit (bogus runahead value).
    #[inline]
    pub fn set_inv(&mut self, p: PhysReg) {
        self.regs[p as usize].flags |= INV;
    }

    /// Whether `p` carries a bogus value.
    #[inline]
    pub fn is_inv(&self, p: PhysReg) -> bool {
        self.regs[p as usize].flags & INV != 0
    }

    /// Marks `p` as belonging to the current runahead episode of its
    /// owning thread.
    #[inline]
    pub fn mark_episode(&mut self, p: PhysReg) {
        self.regs[p as usize].flags |= EPISODE;
    }

    /// Whether `p` belongs to a runahead episode (and may therefore be
    /// freed by pseudo-retirement / episode exit).
    #[inline]
    pub fn in_episode(&self, p: PhysReg) -> bool {
        self.regs[p as usize].flags & EPISODE != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut rf = PhysRegFile::new(4, 2);
        assert_eq!(rf.free_count(), 4);
        let a = rf.alloc(0).unwrap();
        let b = rf.alloc(1).unwrap();
        assert_ne!(a, b);
        assert_eq!(rf.allocated(0), 1);
        assert_eq!(rf.allocated(1), 1);
        rf.free(a, 0);
        assert_eq!(rf.free_count(), 3);
        assert_eq!(rf.allocated(0), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = PhysRegFile::new(2, 1);
        assert!(rf.alloc(0).is_some());
        assert!(rf.alloc(0).is_some());
        assert!(rf.alloc(0).is_none());
    }

    #[test]
    fn flags_reset_on_alloc() {
        let mut rf = PhysRegFile::new(1, 1);
        let p = rf.alloc(0).unwrap();
        rf.set_ready(p);
        rf.set_inv(p);
        rf.mark_episode(p);
        rf.free(p, 0);
        let q = rf.alloc(0).unwrap();
        assert_eq!(p, q);
        assert!(!rf.is_ready(q));
        assert!(!rf.is_inv(q));
        assert!(!rf.in_episode(q));
    }

    #[test]
    fn owner_tracking() {
        let mut rf = PhysRegFile::new(2, 2);
        let p = rf.alloc(1).unwrap();
        assert!(rf.owned_by(p, 1));
        assert!(!rf.owned_by(p, 0));
        rf.free(p, 1);
        assert!(!rf.owned_by(p, 1));
        let q = rf.alloc(0).unwrap();
        assert_eq!(p, q);
        assert!(rf.owned_by(q, 0));
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn double_free_panics() {
        let mut rf = PhysRegFile::new(2, 1);
        let p = rf.alloc(0).unwrap();
        rf.free(p, 0);
        rf.free(p, 0);
    }
}
