//! Issue stage: age-ordered select per queue, functional-unit and MSHR
//! arbitration, and the load/store timing model (including the runahead
//! INV semantics and the STALL/FLUSH long-latency reactions).

use rat_isa::InstructionKind;
use rat_mem::AccessKind;

use crate::config::{RunaheadVariant, FU_COUNT, HIERARCHY, WIDTH};
use crate::instr_table::{
    sched_iq, unpack_reg, F_DMISS, F_INV, F_L2MISS, GSEQ_SHIFT, IQK_MASK, ST_EXEC, ST_WAIT,
};
use crate::policy::PolicyKind;
use crate::types::{Cycle, ExecMode, IqKind, PhysReg, RegClass, ThreadId};

use super::{runahead, tag_addr, SmtSimulator};

/// Result of attempting to issue one instruction.
enum IssueOutcome {
    Issued,
    Retry,
}

/// Execution latency of a non-memory instruction.
fn exec_latency(kind: InstructionKind) -> Cycle {
    match kind {
        InstructionKind::IntAlu | InstructionKind::Branch => 1,
        InstructionKind::IntMul => 3,
        InstructionKind::IntDiv => 20,
        InstructionKind::FpAdd | InstructionKind::FpMul => 4,
        InstructionKind::FpDiv => 12,
        _ => 1,
    }
}

/// Runs the issue stage for one cycle.
pub(super) fn run(sim: &mut SmtSimulator) {
    let mut budget = WIDTH;
    // Pipeline-owned retry scratch: taken for the stage, handed back at
    // the end so its capacity is reused every cycle.
    let mut retries = std::mem::take(&mut sim.res.retry_scratch);
    for kind in [IqKind::Int, IqKind::Fp, IqKind::Ls] {
        let mut fu = FU_COUNT[kind.index()];
        retries.clear();
        // Bound the scheduler scan per queue per cycle: a rejected
        // (MSHR-full) load is set aside without consuming an issue
        // port, so one thread's blocked misses cannot starve another
        // thread's ready accesses.
        let mut scan = 64usize;
        while budget > 0 && fu > 0 && scan > 0 {
            scan -= 1;
            let Some(key) = sim.res.iqs.pop_ready(kind) else {
                break;
            };
            let (gseq, tid32, slot32) = crate::iq::ready_parts(key);
            let (tid, slot) = (tid32 as ThreadId, slot32 as usize);
            // One-load validation against the scheduler word: a live,
            // operand-ready WaitIssue slot carries exactly this stamp,
            // stage and (zero) wait count — stale candidates (squashed,
            // possibly re-dispatched) cannot match.
            {
                let t = &sim.threads[tid].instrs;
                if t.sched[slot] & !IQK_MASK != (gseq << GSEQ_SHIFT) | ST_WAIT {
                    continue;
                }
            }
            match issue_one(sim, tid, slot, gseq) {
                IssueOutcome::Issued => {
                    budget -= 1;
                    fu -= 1;
                }
                IssueOutcome::Retry => {
                    retries.push(key);
                }
            }
        }
        for &key in &retries {
            sim.res.iqs.push_requeue(kind, key);
        }
    }
    retries.clear();
    sim.res.retry_scratch = retries;
}

fn issue_one(sim: &mut SmtSimulator, tid: ThreadId, slot: usize, gseq: u64) -> IssueOutcome {
    // Memory ops execute under the thread's *current* mode: instructions
    // in flight when runahead begins become runahead instructions (their
    // L2 misses turn INV instead of blocking pseudo-retire).
    let (srcs, entry_kind, eff_addr, inv_already) = {
        let t = &sim.threads[tid].instrs;
        let m = t.meta[slot];
        (
            t.regs[slot].srcs,
            m.kind,
            t.front[slot].eff_addr,
            m.flags & F_INV != 0,
        )
    };
    let mode = sim.threads[tid].mode;
    let reg_inv = |class: RegClass, p: PhysReg| sim.res.rf_ref(class).is_inv(p);
    let src_inv = srcs
        .iter()
        .filter_map(|&s| unpack_reg(s))
        .any(|(class, p)| reg_inv(class, p));
    let mut inv = inv_already || src_inv;

    let ready_at = match entry_kind {
        InstructionKind::Load => match issue_load(sim, tid, slot, eff_addr, mode, inv) {
            Some(r) => r,
            None => {
                // MSHR rejection: the scheduler word was never changed,
                // so the slot stays WaitIssue and in its IQ — retry next
                // cycle.
                return IssueOutcome::Retry;
            }
        },
        InstructionKind::Store => {
            // For a store only the *address* (src 0) going INV makes the
            // whole operation bogus; INV data still allows the address
            // access (write-allocate prefetch).
            let base_inv = inv_already || unpack_reg(srcs[0]).is_some_and(|(c, p)| reg_inv(c, p));
            inv = base_inv;
            issue_store(sim, tid, eff_addr, mode, base_inv)
        }
        k => sim.now + exec_latency(k),
    };

    let t = &mut sim.threads[tid].instrs;
    let was_iq = sched_iq(t.sched[slot]);
    // Advance the scheduler word: stamp preserved, queue tag and wait
    // count cleared, stage Executing.
    t.sched[slot] = (gseq << GSEQ_SHIFT) | ST_EXEC;
    // issue_load may have set the INV flag itself (L2 miss in runahead).
    if inv {
        t.meta[slot].flags |= F_INV;
    }
    t.front[slot].ready_at = ready_at;
    let seq = t.front[slot].seq;
    if let Some(kind) = was_iq {
        sim.res.iqs.remove(kind, tid);
    }
    sim.res.schedule_completion(ready_at, tid, seq, gseq);
    sim.stats.threads[tid].issued += 1;
    sim.activity = true;
    IssueOutcome::Issued
}

/// Computes a load's completion cycle. Returns `None` when the access
/// was rejected (MSHRs full) and must retry. May mark the slot INV
/// (runahead L2 miss / suppressed access).
fn issue_load(
    sim: &mut SmtSimulator,
    tid: ThreadId,
    slot: usize,
    addr: u64,
    mode: ExecMode,
    inv_in: bool,
) -> Option<Cycle> {
    let dlat = HIERARCHY.dcache.latency;
    // Bogus address (INV base propagated at issue): fold silently.
    if inv_in {
        return Some(sim.now + 1);
    }
    let tagged = tag_addr(tid, addr);
    // Store→load forwarding (word-granular, oracle addresses).
    if sim.threads[tid].store_addrs.contains_key(&(addr & !7)) {
        sim.stats.threads[tid].forwarded_loads += 1;
        return Some(sim.now + dlat);
    }

    match mode {
        ExecMode::Normal => {
            let res = sim.res.hier.data_access(tagged, AccessKind::Load, sim.now);
            if res.rejected {
                return None;
            }
            // Memory stall attribution: every cycle this load's data is
            // not yet available past issue. Port/bus contention in the
            // event-driven hierarchy lengthens exactly this wait.
            sim.stats.threads[tid].mem_stall_cycles += res.ready_at.saturating_sub(sim.now);
            if !res.l1_hit {
                sim.threads[tid].instrs.meta[slot].flags |= F_DMISS;
                sim.threads[tid].dmiss_inflight += 1;
                sim.stats.threads[tid].dmiss_loads += 1;
            }
            if res.l2_miss {
                sim.threads[tid].instrs.meta[slot].flags |= F_L2MISS;
                sim.stats.threads[tid].l2_miss_loads += 1;
                match sim.cfg.policy {
                    PolicyKind::Stall => {
                        sim.threads[tid].longlat_gate =
                            sim.threads[tid].longlat_gate.max(res.ready_at);
                    }
                    PolicyKind::Flush
                        // One flush per long-latency episode: while the
                        // thread is already fetch-gated on a miss, later
                        // misses do not re-flush (Tullsen & Brown flush
                        // on the first detected L2 miss).
                        if sim.now >= sim.threads[tid].longlat_gate => {
                            let seq = sim.threads[tid].instrs.front[slot].seq;
                            runahead::flush_thread(sim, tid, seq, res.ready_at);
                        }
                    _ => {}
                }
            }
            Some(res.ready_at)
        }
        ExecMode::Runahead => {
            if sim.threads[tid].diverged {
                // Off the most-likely path: no useful prefetch; model
                // as a short-latency bogus access.
                return Some(sim.now + dlat);
            }
            match sim.cfg.runahead {
                RunaheadVariant::NoPrefetch => {
                    match sim.res.hier.l1_data_probe(tagged, sim.now) {
                        Some(ready) => Some(ready),
                        None => {
                            // Would miss: invalid, no L2 access; and do
                            // not re-trigger runahead on this load
                            // after recovery (keeps episode timing
                            // comparable to Full).
                            let t = &mut sim.threads[tid];
                            t.instrs.meta[slot].flags |= F_INV;
                            let seq = t.instrs.front[slot].seq;
                            t.no_retrigger.insert(seq);
                            sim.stats.threads[tid].runahead_inv_loads += 1;
                            Some(sim.now + 1)
                        }
                    }
                }
                _ => {
                    // Runahead accesses are speculative: they take the
                    // prefetch MSHR-arbitration class so demand misses
                    // of other threads are never starved.
                    let res = sim
                        .res
                        .hier
                        .data_access(tagged, AccessKind::Prefetch, sim.now);
                    if res.rejected {
                        // No MSHR for a speculative miss: drop the
                        // prefetch and mark the value bogus, as real
                        // runahead engines do — a runahead load must
                        // never camp on the window head retrying.
                        let t = &mut sim.threads[tid];
                        t.instrs.meta[slot].flags |= F_INV;
                        let seq = t.instrs.front[slot].seq;
                        t.no_retrigger.insert(seq);
                        return Some(sim.now + 1);
                    }
                    if !res.l1_hit {
                        sim.stats.threads[tid].runahead_prefetches += 1;
                    }
                    if res.l2_miss {
                        // The paper's key behavior: a runahead L2 miss
                        // turns INV immediately (value bogus) while its
                        // prefetch proceeds in the memory system.
                        sim.threads[tid].instrs.meta[slot].flags |= F_INV;
                        sim.stats.threads[tid].runahead_inv_loads += 1;
                        Some(sim.now + 1)
                    } else {
                        Some(res.ready_at)
                    }
                }
            }
        }
    }
}

/// Stores complete quickly (store buffer); their cache access is for
/// write-allocation and, during runahead, prefetching. `base_inv`
/// suppresses the access entirely (unknown address). There is no
/// runahead cache (the paper omits it, §3.3): INV store data is not
/// tracked, so a later runahead load of that word counts as valid.
fn issue_store(
    sim: &mut SmtSimulator,
    tid: ThreadId,
    addr: u64,
    mode: ExecMode,
    base_inv: bool,
) -> Cycle {
    if !base_inv {
        let tagged = tag_addr(tid, addr);
        match mode {
            ExecMode::Normal => {
                let _ = sim.res.hier.data_access(tagged, AccessKind::Store, sim.now);
            }
            ExecMode::Runahead => {
                if !sim.threads[tid].diverged && sim.cfg.runahead == RunaheadVariant::Full {
                    let res = sim
                        .res
                        .hier
                        .data_access(tagged, AccessKind::Prefetch, sim.now);
                    if !res.rejected && !res.l1_hit {
                        sim.stats.threads[tid].runahead_prefetches += 1;
                    }
                }
            }
        }
    }
    sim.now + 1
}
