//! Runahead episode entry/exit, INV propagation, and the squash
//! machinery shared with the FLUSH policy.
//!
//! Entry ([`enter_runahead`], called from the commit stage when an
//! L2-miss load blocks the window head): in-flight L2-miss loads
//! pseudo-complete INV, every in-flight destination register is
//! episode-tagged for early release, and the thread switches to
//! [`ExecMode::Runahead`]. Exit ([`process_exits`], when the trigger's
//! fill arrives): the entire window is squashed — a columnar walk over
//! the thread's live slot range for per-entry resource cleanup, then a
//! bulk window reset — episode registers are swept, the rename
//! checkpoint (`fmap := amap`) is restored, and the fetch oracle rewinds
//! to the trigger load.

use rat_isa::InstructionKind;

use crate::instr_table::{
    sched_iq, sched_stage, unpack_arch, unpack_reg, F_DMISS, F_INV, F_L2MISS, REG_NONE, STAGE_MASK,
    ST_DONE, ST_EXEC, ST_WAIT,
};
use crate::types::{Cycle, ExecMode, ThreadId};

use super::{Episode, SmtSimulator};

/// Exits every episode whose trigger fill has arrived.
pub(super) fn process_exits(sim: &mut SmtSimulator) {
    // Fast path: no thread is in runahead (the common cycle under every
    // non-RaT policy, and most cycles even under RaT).
    if sim.episodes_live == 0 {
        return;
    }
    for tid in 0..sim.threads.len() {
        if let Some(ep) = sim.threads[tid].episode {
            if sim.now >= ep.exit_at {
                exit_runahead(sim, tid);
            }
        }
    }
}

/// Enters runahead on `tid` (its ROB head is an L2-miss load).
pub(super) fn enter_runahead(sim: &mut SmtSimulator, tid: ThreadId) {
    let trigger_seq;
    let exit_at;
    {
        let t = &sim.threads[tid].instrs;
        let front = t.rob_front_slot().expect("trigger at head");
        debug_assert!(
            t.meta[front].kind == InstructionKind::Load && t.meta[front].flags & F_L2MISS != 0
        );
        trigger_seq = t.rob_front_seq();
        exit_at = t.front[front].ready_at;
    }
    sim.threads[tid].mode = ExecMode::Runahead;
    sim.threads[tid].diverged = false;
    sim.threads[tid].episode = Some(Episode {
        trigger_seq,
        entered_at: sim.now,
        exit_at,
    });
    sim.episodes_live += 1;
    sim.stats.threads[tid].runahead_episodes += 1;
    sim.activity = true;

    // Invalidate the trigger and any other in-flight L2-miss loads:
    // they pseudo-complete with bogus values (their fills keep
    // prefetching in the hierarchy), and every in-flight register
    // becomes episode-owned so pseudo-retirement can free it early.
    // Columnar pass over the live ROB range.
    let mut conversions = std::mem::take(&mut sim.res.conv_scratch);
    conversions.clear();
    let mut dmiss_drop = 0;
    {
        let thread = &mut sim.threads[tid];
        let t = &mut thread.instrs;
        for seq in t.rob_seqs() {
            let slot = t.slot_of(seq);
            let m = t.meta[slot];
            if m.kind == InstructionKind::Load
                && sched_stage(t.sched[slot]) == ST_EXEC
                && m.flags & (F_L2MISS | F_INV) == F_L2MISS
            {
                let mut flags = m.flags | F_INV;
                // Converted loads never write back: their pending
                // completion events become stale against the Done stage.
                t.sched[slot] = (t.sched[slot] & !STAGE_MASK) | ST_DONE;
                if flags & F_DMISS != 0 {
                    dmiss_drop += 1;
                    flags &= !F_DMISS;
                }
                t.meta[slot].flags = flags;
                if let Some((class, p)) = unpack_reg(t.regs[slot].dst) {
                    conversions.push((class, p, unpack_arch(m.dst_arch)));
                }
            }
        }
        thread.dmiss_inflight -= dmiss_drop;
    }
    sim.stats.threads[tid].runahead_inv_loads += conversions.len() as u64;
    for &(class, p, dst_arch) in &conversions {
        sim.res.wake_register(&mut sim.threads, class, p, true);
        if let Some(arch) = dst_arch {
            sim.threads[tid].set_arch_inv_if_current(arch, p);
        }
    }
    sim.res.conv_scratch = conversions;

    // Episode-tag every in-flight destination register: a second
    // columnar pass, over the rename cluster only.
    let mut dsts = std::mem::take(&mut sim.res.dst_scratch);
    dsts.clear();
    {
        let t = &sim.threads[tid].instrs;
        dsts.extend(
            t.rob_seqs()
                .filter_map(|seq| unpack_reg(t.regs[t.slot_of(seq)].dst)),
        );
    }
    for &(class, p) in &dsts {
        sim.res.rf(class).mark_episode(p);
    }
    sim.threads[tid].episode_regs.extend(dsts.iter().copied());
    sim.res.dst_scratch = dsts;
}

pub(super) fn exit_runahead(sim: &mut SmtSimulator, tid: ThreadId) {
    let ep = sim.threads[tid].episode.take().expect("episode to exit");
    sim.episodes_live -= 1;
    sim.activity = true;

    // Squash the thread's entire window (all of it is runahead work).
    // The fetch window is positioned relative to the ROB length, so it
    // must be invalidated *before* the ROB walk moves that boundary;
    // then walk the live range youngest-first for per-entry cleanup,
    // each pop invalidating its slot, and reset the windows to the
    // trigger.
    let squashed_frontend = sim.threads[tid].instrs.fe_len() as u64;
    sim.threads[tid].instrs.fe_clear();
    while let Some(back_seq) = sim.threads[tid].instrs.rob_back_seq() {
        let slot = sim.threads[tid].instrs.slot_of(back_seq);
        cleanup_squashed(sim, tid, slot, false);
        sim.threads[tid].instrs.rob_pop_back();
    }
    // Sweep episode registers that pseudo-retirement did not yet free.
    // A register freed earlier and re-allocated (possibly to another
    // thread) must be skipped: the ownership check makes the stale
    // episode-list entry harmless.
    let regs = std::mem::take(&mut sim.threads[tid].episode_regs);
    for (class, p) in regs {
        sim.res.free_if_episode_owned(class, p, tid);
    }
    // Restore the checkpoint: speculative map := architectural map.
    sim.threads[tid].rename.reset_to_arch();

    {
        let thread = &mut sim.threads[tid];
        thread.arch_inv = [false; 64];
        thread.instrs.reset_to(ep.trigger_seq);
        thread.branch_gate = None;
        thread.icache_wait = 0;
        thread.diverged = false;
        thread.mode = ExecMode::Normal;
        thread.dmiss_inflight = 0;
        thread.ra_inv_words.clear();
        // Rewind the fetch oracle to the retirement point (= the
        // trigger load's PC: it re-executes and now hits in the cache).
        thread.oracle.rewind_to(ep.trigger_seq);
        debug_assert_eq!(thread.oracle.next_seq(), ep.trigger_seq);
    }
    let ts = &mut sim.stats.threads[tid];
    ts.squashed += squashed_frontend;
    ts.runahead_cycles += sim.now - ep.entered_at;
}

/// Releases the resources of a squashed slot (the caller pops it right
/// after). `walkback` selects FLUSH-style rename recovery (restore prev
/// mapping, free dst); the runahead exit path instead frees via episode
/// tags + map reset.
pub(super) fn cleanup_squashed(sim: &mut SmtSimulator, tid: ThreadId, slot: usize, walkback: bool) {
    let (sched, meta, regs, seq, addr) = {
        let t = &sim.threads[tid].instrs;
        let m = t.meta[slot];
        (
            t.sched[slot],
            m,
            t.regs[slot],
            t.front[slot].seq,
            (m.kind == InstructionKind::Store).then(|| t.front[slot].eff_addr),
        )
    };
    if sched_stage(sched) == ST_WAIT {
        let kind = sched_iq(sched).expect("WaitIssue slot sits in an IQ");
        sim.res.iqs.remove(kind, tid);
    }
    if meta.flags & F_DMISS != 0 {
        sim.threads[tid].dmiss_inflight = sim.threads[tid].dmiss_inflight.saturating_sub(1);
    }
    if walkback {
        if let (Some((class, dst)), Some(arch)) = (unpack_reg(regs.dst), unpack_arch(meta.dst_arch))
        {
            debug_assert_ne!(regs.prev, REG_NONE, "renamed entry has prev mapping");
            sim.threads[tid].rename.restore(arch, regs.prev as u16);
            sim.res.rf(class).free(dst, tid);
        }
    } else if let Some((class, dst)) = unpack_reg(regs.dst) {
        sim.res.free_if_episode_owned(class, dst, tid);
    }
    if let Some(addr) = addr {
        sim.threads[tid].remove_store_addr(addr);
    }
    if sim.threads[tid].branch_gate == Some(seq) {
        sim.threads[tid].branch_gate = None;
    }
    sim.res.rob_occupancy -= 1;
    sim.stats.threads[tid].squashed += 1;
}

// ---- FLUSH policy squash ----

/// Squashes all of `tid`'s instructions younger than `keep_seq`,
/// restores the rename map by walk-back, rewinds the fetch oracle, and
/// gates fetch until `resume_at` (the missing load's fill time).
pub(super) fn flush_thread(sim: &mut SmtSimulator, tid: ThreadId, keep_seq: u64, resume_at: Cycle) {
    // Fetch window first: its position is relative to the ROB length,
    // which the walk-back below moves.
    let squashed_frontend = sim.threads[tid].instrs.fe_len() as u64;
    sim.threads[tid].instrs.fe_clear();
    while let Some(back_seq) = sim.threads[tid].instrs.rob_back_seq() {
        if back_seq <= keep_seq {
            break;
        }
        let slot = sim.threads[tid].instrs.slot_of(back_seq);
        cleanup_squashed(sim, tid, slot, true);
        sim.threads[tid].instrs.rob_pop_back();
    }
    sim.threads[tid].branch_gate = None;
    sim.threads[tid].icache_wait = 0;
    sim.stats.threads[tid].squashed += squashed_frontend;

    // A cursor move: the squashed span re-fetches from the replay
    // buffer.
    sim.threads[tid].oracle.rewind_to(keep_seq + 1);
    debug_assert_eq!(sim.threads[tid].oracle.next_seq(), keep_seq + 1);

    sim.threads[tid].longlat_gate = sim.threads[tid].longlat_gate.max(resume_at);
    sim.stats.threads[tid].flushes += 1;
}
