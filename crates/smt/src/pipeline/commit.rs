//! Commit stage: architectural retirement, runahead pseudo-retirement,
//! and runahead entry detection.
//!
//! Shares the pipeline width across threads round-robin. A normal-mode
//! thread whose ROB head is a long-latency (L2-miss) load enters
//! runahead here (paper §3.1: entry happens when the blocking load
//! reaches the window head, making the architectural map the
//! checkpoint).

use rat_isa::InstructionKind;

use crate::config::{SmtConfig, WIDTH};
use crate::instr_table::{
    sched_stage, unpack_arch, unpack_reg, F_INV, F_L2MISS, F_RUNAHEAD, REG_NONE, ST_DONE, ST_EXEC,
};
use crate::types::{Cycle, ExecMode, ThreadId};

use super::{runahead, SmtSimulator, Thread};

/// Minimum expected remaining miss latency (cycles) for entering
/// runahead. A blocking load whose fill is about to arrive is cheaper to
/// wait out than to checkpoint + squash + refill the window for — the
/// short-episode pathology addressed by the runahead-efficiency
/// literature (Mutlu et al., ISCA-32). Full-latency misses (400 cycles)
/// always qualify.
const ENTRY_THRESHOLD: Cycle = 100;

/// Whether the instruction in `slot` — the ROB head of a normal-mode
/// thread — triggers runahead entry at cycle `at`. The condition can
/// only decay as `at` grows (the fill gets closer), so a head that is
/// ineligible next cycle stays ineligible for the rest of a quiescent
/// span.
fn entry_eligible(cfg: &SmtConfig, thread: &Thread, slot: usize, at: Cycle) -> bool {
    let t = &thread.instrs;
    let m = t.meta[slot];
    cfg.policy.uses_runahead()
        && m.kind == InstructionKind::Load
        && sched_stage(t.sched[slot]) == ST_EXEC
        && m.flags & (F_L2MISS | F_INV) == F_L2MISS
        && t.front[slot].ready_at > at + ENTRY_THRESHOLD
        && (thread.no_retrigger.is_empty() || !thread.no_retrigger.contains(&t.front[slot].seq))
}

/// What the commit stage does with a thread's ROB head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Action {
    Commit,
    PseudoRetire,
    EnterRunahead,
    Stop,
}

/// The commit stage's decision for `thread`'s ROB head at cycle `at`:
/// a finished head commits (or pseudo-retires in runahead), a
/// normal-mode head blocked on an eligible L2 miss enters runahead, and
/// anything else stops the thread's commit for the cycle. Shared
/// between the commit stage (`at = now`) and the cycle-skip probe
/// (`at = now + 1`).
pub(super) fn head_action(cfg: &SmtConfig, thread: &Thread, at: Cycle) -> Action {
    let Some(front) = thread.instrs.rob_front_slot() else {
        return Action::Stop;
    };
    let done = sched_stage(thread.instrs.sched[front]) == ST_DONE;
    match thread.mode {
        ExecMode::Normal if done => Action::Commit,
        ExecMode::Normal if entry_eligible(cfg, thread, front, at) => Action::EnterRunahead,
        ExecMode::Runahead if done => Action::PseudoRetire,
        _ => Action::Stop,
    }
}

/// Runs the commit stage for one cycle.
pub(super) fn run(sim: &mut SmtSimulator) {
    let n = sim.threads.len();
    let mut budget = WIDTH;
    let start = sim.res.commit_rr;
    sim.res.commit_rr = (sim.res.commit_rr + 1) % n;
    for k in 0..n {
        let tid = (start + k) % n;
        while budget > 0 {
            match head_action(&sim.cfg, &sim.threads[tid], sim.now) {
                Action::Commit => {
                    commit_one(sim, tid);
                    budget -= 1;
                }
                Action::PseudoRetire => {
                    pseudo_retire_one(sim, tid);
                    budget -= 1;
                }
                Action::EnterRunahead => {
                    runahead::enter_runahead(sim, tid);
                    break;
                }
                Action::Stop => break,
            }
        }
    }
}

fn commit_one(sim: &mut SmtSimulator, tid: ThreadId) {
    let t = &mut sim.threads[tid];
    let slot = t.instrs.rob_front_slot().expect("commit front");
    let seq = t.instrs.rob_front_seq();
    let m = t.instrs.meta[slot];
    debug_assert_eq!(m.flags & F_RUNAHEAD, 0);
    let regs = t.instrs.regs[slot];
    t.instrs.rob_pop_front();
    let store_addr = t.oracle.commit_next(seq);
    if regs.dst != REG_NONE {
        let (class, dst) = unpack_reg(regs.dst).expect("packed dst");
        let arch = unpack_arch(m.dst_arch).expect("dst implies dst_arch");
        let old = t.rename.commit(arch, dst);
        sim.res.rf(class).free(old, tid);
    }
    let t = &mut sim.threads[tid];
    if m.kind == InstructionKind::Store {
        if let Some(addr) = store_addr {
            t.remove_store_addr(addr);
        }
    }
    // Committed instructions are past the re-trigger filter window.
    if !t.no_retrigger.is_empty() {
        t.no_retrigger.remove(&seq);
    }
    sim.res.rob_occupancy -= 1;
    sim.stats.threads[tid].committed += 1;
    sim.last_progress = sim.now;
    sim.activity = true;
}

fn pseudo_retire_one(sim: &mut SmtSimulator, tid: ThreadId) {
    let t = &mut sim.threads[tid];
    let slot = t.instrs.rob_front_slot().expect("pseudo front");
    let regs = t.instrs.regs[slot];
    let m = t.instrs.meta[slot];
    let addr = (m.kind == InstructionKind::Store).then(|| t.instrs.front[slot].eff_addr);
    t.instrs.rob_pop_front();
    if regs.prev != REG_NONE {
        let class = unpack_reg(regs.dst).expect("prev implies dst").0;
        sim.res.free_if_episode_owned(class, regs.prev as u16, tid);
    }
    if let Some(addr) = addr {
        sim.threads[tid].remove_store_addr(addr);
    }
    sim.res.rob_occupancy -= 1;
    sim.stats.threads[tid].pseudo_retired += 1;
    sim.last_progress = sim.now;
    sim.activity = true;
}
