//! Fetch stage: policy-ordered thread selection (round-robin or
//! ICOUNT, with runahead threads always lowest priority), I-cache
//! access, and branch prediction at fetch.

use rat_bpred::Predictor;
use rat_isa::InstructionKind;

use crate::config::{RunaheadVariant, SmtConfig};
use crate::instr_table::{Front, Meta, ARCH_NONE, F_MISPRED, F_PRED, F_PRED_TAKEN, F_TAKEN};
use crate::policy::PolicyKind;
use crate::stats::ThreadStats;
use crate::types::{Cycle, ExecMode, ThreadId};

use super::resources::SharedResources;
use super::{drain, pred_key, tag_addr, SmtSimulator, Thread};

/// Runs the fetch stage for one cycle.
pub(super) fn run(sim: &mut SmtSimulator) {
    let n = sim.threads.len();
    // Thread-order scratch on the stack (n <= 8): the fetch stage runs
    // every cycle and must not allocate or call into the generic sort.
    let mut order = [0usize; 8];
    let live = match sim.cfg.policy {
        PolicyKind::RoundRobin => {
            let start = sim.res.fetch_rr % n;
            for (k, slot) in order[..n].iter_mut().enumerate() {
                *slot = (start + k) % n;
            }
            n
        }
        _ => {
            // ICOUNT: ascending in-flight front-end instruction count.
            // Runahead threads are speculative, so they fetch with
            // strictly lower priority than any normal thread — this is
            // how a runahead thread avoids "limiting the available
            // resources for other threads" (§3.2) at the fetch stage.
            //
            // The (speculative, icount, rotation-rank) key packs into one
            // u64 with the thread id in the low byte (ranks are unique,
            // so keys are unique and stability is moot); an insertion
            // sort over at most 8 u64s replaces the generic sort. Only
            // fetchable threads get a key: ordering the blocked ones
            // (skipped below anyway) is per-cycle work for nothing.
            let start = sim.res.fetch_rr % n; // stable tie-break rotation
            let mut keys = [u64::MAX; 8];
            let mut fetchable_n = 0;
            for t in 0..n {
                // A phantom-active drained thread enters the order to
                // displace fetch slots (its empty structures give it an
                // icount of 0, exactly like its just-emptied
                // full-fidelity self); otherwise only fetchable threads
                // are ranked.
                let include = if sim.threads[t].drained {
                    drain::phantom_fetch_active(&sim.threads[t].drain, sim.now)
                } else {
                    fetchable(&sim.threads[t], &sim.cfg, sim.now)
                };
                if !include {
                    continue;
                }
                let speculative = (sim.threads[t].mode == ExecMode::Runahead) as u64;
                let icount = sim.threads[t].icount(&sim.res.iqs, t) as u64;
                let rank = ((t + n - start) % n) as u64;
                keys[fetchable_n] = (speculative << 40) | (icount << 16) | (rank << 8) | t as u64;
                fetchable_n += 1;
            }
            for i in 1..fetchable_n {
                let k = keys[i];
                let mut j = i;
                while j > 0 && keys[j - 1] > k {
                    keys[j] = keys[j - 1];
                    j -= 1;
                }
                keys[j] = k;
            }
            for (key, slot) in keys[..fetchable_n]
                .iter()
                .zip(order[..fetchable_n].iter_mut())
            {
                *slot = (key & 0xff) as usize;
            }
            fetchable_n
        }
    };
    sim.res.fetch_rr += 1;

    let mut slots = sim.cfg.width;
    let mut threads_used = 0;
    for &tid in &order[..live] {
        if slots == 0 || threads_used >= sim.cfg.fetch_threads {
            break;
        }
        if sim.threads[tid].drained {
            // Paced phantom fetch: the drained thread burns a fetch
            // turn (slots + a thread turn) without touching any state,
            // so measuring threads keep losing the bandwidth its
            // full-fidelity self would have taken. Not `activity`: no
            // machine state changes.
            if drain::phantom_fetch_active(&sim.threads[tid].drain, sim.now) {
                slots -= slots.min(drain::PHANTOM_BURST);
                threads_used += 1;
            }
            continue;
        }
        // Under ICOUNT `order` holds only fetchable threads already; the
        // re-check is three field compares and keeps this tail shared
        // with the round-robin path.
        if !fetchable(&sim.threads[tid], &sim.cfg, sim.now) {
            continue;
        }
        let fetched = fetch_one(
            &mut sim.threads[tid],
            &mut sim.stats.threads[tid],
            &mut sim.res,
            &sim.cfg,
            sim.now,
            tid,
            slots,
        );
        if fetched > 0 {
            slots -= fetched;
            threads_used += 1;
            sim.activity = true;
        }
    }
}

fn fetchable(t: &Thread, cfg: &SmtConfig, now: Cycle) -> bool {
    // Drained threads fetch nothing: the drain engine commits straight
    // from the oracle and charges its own I-line accesses.
    if t.drained {
        return false;
    }
    if t.fetch_gated(now) {
        return false;
    }
    if t.instrs.fe_len() >= cfg.fetch_buffer {
        return false;
    }
    if t.mode == ExecMode::Runahead && cfg.runahead.variant == RunaheadVariant::NoFetch {
        return false;
    }
    true
}

/// Fetches up to `max` instructions for one thread: the per-thread stage
/// body, a function over the thread's own state plus the shared
/// I-cache/predictor resources. Each fetched instruction opens a fresh
/// slot in the thread's instruction table and fills its `meta` and
/// `front` clusters in two stores.
fn fetch_one(
    t: &mut Thread,
    ts: &mut ThreadStats,
    res: &mut SharedResources,
    cfg: &SmtConfig,
    now: Cycle,
    tid: ThreadId,
    max: usize,
) -> usize {
    let mut count = 0;
    let mut cur_line = u64::MAX;
    while count < max && t.instrs.fe_len() < cfg.fetch_buffer {
        let pc = t.oracle.fetch_pc();
        let addr = tag_addr(tid, pc.byte_addr());
        let line = addr & !63;
        if line != cur_line {
            let fres = res.hier.fetch_access(addr, now);
            if fres.rejected {
                break;
            }
            if !fres.l1_hit {
                t.icache_wait = fres.ready_at;
                break;
            }
            cur_line = line;
        }
        let rec = t.oracle.fetch_step();
        ts.fetched += 1;
        let kind = t.decode[rec.pc.index()].kind;
        let mut flags = if rec.taken { F_TAKEN } else { 0 };
        let mut mispredicted = false;
        let hist_bits = t.hist.bits();
        if kind == InstructionKind::Branch {
            let dir = res.pred.predict(pred_key(tid, rec.pc), &t.hist);
            flags |= F_PRED | if dir { F_PRED_TAKEN } else { 0 };
            t.hist.push(rec.taken);
            if dir != rec.taken {
                mispredicted = true;
                flags |= F_MISPRED;
                t.branch_gate = Some(rec.seq);
            }
        }
        let slot = t.instrs.fe_push(rec.seq);
        t.instrs.meta[slot] = Meta {
            pc: rec.pc,
            kind,
            flags,
            dst_arch: ARCH_NONE,
        };
        t.instrs.front[slot] = Front {
            seq: rec.seq,
            ready_at: now + cfg.frontend_depth,
            eff_addr: rec.eff_addr.unwrap_or(0),
            hist_bits,
        };
        count += 1;
        match kind {
            InstructionKind::Branch if mispredicted => break,
            InstructionKind::Branch if rec.taken => break,
            InstructionKind::Jump => break,
            _ => {}
        }
    }
    count
}
