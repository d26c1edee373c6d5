//! Post-quota drain mode: the cheap commit-only engine a thread is
//! demoted to once its own measurement window has closed (see
//! [`SmtSimulator::set_quota_drain`]).
//!
//! The paper's FAME-inspired methodology measures each thread over its
//! own quota window but keeps every thread running until the *slowest*
//! finishes — so a fast thread can retire 10× its quota at full
//! fidelity purely to keep contending. Drain mode replaces that
//! overshoot: on demotion ([`demote`]) the thread's window is squashed
//! (FLUSH-style rename walk-back, or a runahead exit if an episode is
//! live), so it holds exactly its 32+32 architectural registers and
//! zero IQ/ROB/fetch-buffer entries; its pre-demotion ROB share stays
//! charged to the shared budget as a frozen *notional* occupancy
//! (notionals are collectively capped to leave one equal partition
//! free, so frozen shares can never starve the measuring threads); and
//! thereafter [`run`] commits instructions straight from the fetch
//! oracle at the thread's own measured rate, charging I-line fetches
//! and load/store data accesses to the shared hierarchy so the
//! still-measuring threads keep seeing L2-port and bus pressure from
//! it. Front-end pressure survives separately: on a paced duty cycle
//! ([`phantom_fetch_active`]) the drained thread keeps occupying fetch
//! arbitration turns, statelessly displacing the fetch slots its
//! full-fidelity self would have taken.
//!
//! Pacing is *chunked and self-timed*: the engine commits [`CHUNK`]
//! instructions per burst and schedules the next burst after the span
//! those instructions "took" — a calibrated non-memory base CPI plus
//! the actual (MLP-scaled) latencies the burst's loads just observed
//! in the shared hierarchy (see [`DrainState::next_burst_at`]). A
//! per-cycle trickle would make every drained thread "interesting"
//! every few cycles and kill the event-driven cycle skipping; bursts
//! keep the skip spans long, and the next burst cycle is a stored
//! state variable [`SmtSimulator::next_interesting_cycle`] reads
//! directly, so skipping stays bit-identical with stepping.
//!
//! Fidelity contract — *tail-only* drain: demotion fires only once a
//! **single** thread is still inside its measurement window (then every
//! finished thread demotes at once), so every window except the last
//! thread's is bit-identical with drain off, and the last thread's is
//! bit-identical up to the cycle the second-to-last finishes. The
//! eager alternative (demote each thread the cycle its own quota
//! closes) was measured and rejected: a *middle* finisher's window
//! overlaps live full-fidelity threads whose progress is coupled to
//! the demoted thread through fine-grained per-cycle timing — not
//! through any counter the hierarchy exposes — and a silent-drain
//! ablation (demotion with *zero* hierarchy pressure) produced the
//! same drift as the full drain engine on every cell, i.e. no
//! commit-only pressure model can close that gap (worst middle-window
//! drift ≈ +50%). Last-window drift under tail-only drain is ~1% at
//! realistic window sizes because by then the companions' *measured*
//! figures are all frozen; only their overshoot is approximated.
//! Post-overlap timing is still an approximation: drained threads stop
//! issuing runahead prefetches and present bursty rather than
//! cycle-smooth hierarchy pressure (their branches *do* keep training
//! the shared predictor). `tests/quota_drain.rs` measures and bounds
//! the resulting drift on the last thread's figures.

use rat_bpred::Predictor;
use rat_isa::InstructionKind;
use rat_mem::AccessKind;

use crate::types::{Cycle, IqKind, ThreadId};

use super::{pred_key, runahead, tag_addr, SmtSimulator};

/// Minimum paced backlog before a drain burst fires. Large enough that
/// drained threads do not shorten cycle-skip spans much below what the
/// measuring threads already impose; small enough that the hierarchy
/// pressure stays reasonably spread in time.
pub(super) const CHUNK: u64 = 32;

/// Pacing and pressure state of a drained thread (meaningful while
/// `Thread::drained`).
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct DrainState {
    /// Measured commit rate at demotion, as the rational
    /// `rate_num / rate_den` instructions per cycle (the thread's IPC
    /// over the second half of its quota window — see the half-mark
    /// note in [`demote`]). Both are ≥ 1. Drives only the phantom
    /// fetch duty cycle; commit pacing is self-timed (below).
    pub(super) rate_num: u64,
    pub(super) rate_den: u64,
    /// Cycle the next burst fires at. Self-timed: every burst charges
    /// `CHUNK` instructions of calibrated base CPI plus the *actual*
    /// (scaled) latencies its load accesses just observed in the shared
    /// hierarchy, and schedules the next burst after that span. A
    /// fixed measured-rate pace gets the overshoot badly wrong: in a
    /// `--no-drain` run a finished thread *accelerates* as other
    /// threads finish and contention fades, and its cache pollution
    /// rate rises with it — pacing at the old contended rate left the
    /// last thread's window up to 2× too clean. Self-timing reproduces
    /// the feedback loop: less contention → lower observed latencies →
    /// faster bursts → more pressure, and vice versa.
    pub(super) next_burst_at: Cycle,
    /// Non-memory CPI over the calibration window, as the rational
    /// `base_num / base_den` cycles per instruction.
    pub(super) base_num: u64,
    pub(super) base_den: u64,
    /// Memory cycles per instruction over the calibration window, as
    /// the rational `mem_num / mem_den` (window cycles minus the
    /// non-memory base, over committed instructions).
    pub(super) mem_num: u64,
    pub(super) mem_den: u64,
    /// Exponential moving average of burst stall sums (`0` = unseeded),
    /// the reference a burst's own stall sum is measured against. A
    /// burst's per-load stall sum is *not* commensurable with the
    /// window's `mem_stall_cycles`: the burst measures full latency
    /// from access start (no issue-time merging) and includes the
    /// port/bus queueing its own clumped accesses inflict on each
    /// other, so calibrating a fixed scale against window stalls paces
    /// mem-bound threads ~20% too slow (measured: post-quota commit
    /// rates 17–33% under the `--no-drain` overshoot's). Charging
    /// `expected-mem-cycles × stall / ema` instead is self-normalizing
    /// — in the long run the pace reproduces the window's memory CPI
    /// regardless of the semantics gap — while single-burst swings
    /// (a contended bus, a warm stretch) still speed and slow the pace,
    /// and a genuinely stall-free burst (drained ILP thread running on
    /// cache hits) accelerates to the non-memory base CPI outright,
    /// the overshoot's fade-out feedback.
    pub(super) ema_stall: u64,
    /// Cycle of demotion; the phantom fetch duty cycle is phased from
    /// here.
    pub(super) entered_at: Cycle,
    /// Last I-line charged to the hierarchy (64-byte granule, tagged
    /// address), deduplicating sequential fetches exactly like the
    /// full fetch stage's per-call line register.
    pub(super) cur_line: u64,
    /// The thread's ROB occupancy at demotion, kept charged to the
    /// shared-ROB budget so still-measuring threads dispatch against
    /// realistic window pressure. The *sum* of all frozen shares is
    /// capped at `rob_size` minus one equal partition (see
    /// [`demote`]): an instant occupancy frozen mid-runahead can be
    /// most of the ROB, and uncapped frozen shares would wedge the
    /// remaining measuring threads permanently (a live thread's
    /// occupancy oscillates; a frozen one never yields). Reserving one
    /// partition for the live pool keeps it always able to dispatch,
    /// while a *lone* drained thread still charges its full real
    /// occupancy — the common case while the last, slowest thread is
    /// measured. Released on re-promotion.
    pub(super) rob_notional: usize,
    /// Issue-queue entries (per kind) charged as notional occupancy,
    /// same capture-then-cap scheme as [`Self::rob_notional`].
    pub(super) iq_notional: [usize; 3],
    /// Renaming (non-pinned) physical registers charged as notional
    /// occupancy, `[INT, FP]`, same capture-then-cap scheme.
    pub(super) reg_notional: [usize; 2],
}

/// Fetch slots a phantom-active drained thread occupies — the width of
/// one full-fidelity fetch turn, so the displaced bandwidth arrives in
/// realistic turn-sized grains.
pub(super) const PHANTOM_BURST: usize = 8;

/// Whether drained thread `d` occupies a fetch-arbitration turn on
/// cycle `now`: true on exactly the cycles where the paced commit count
/// crosses a [`PHANTOM_BURST`] boundary, i.e. one turn per
/// `PHANTOM_BURST` paced instructions. This keeps the *fetch-slot*
/// pressure a finished thread exerts in a `--no-drain` run: on a
/// phantom-active cycle the drained thread consumes up to
/// `PHANTOM_BURST` of the cycle's fetch slots and one of its thread
/// turns, displacing lower-priority measuring threads exactly as its
/// full-fidelity self would — averaging `rate` slots per cycle at a
/// `rate / PHANTOM_BURST` thread-turn duty.
///
/// A pure function of the clock and the frozen [`DrainState`]: it
/// mutates nothing and only *displaces* work, so it can never make a
/// quiescent cycle interesting — cycle skipping stays bit-identical
/// with stepping without the skip predicate modeling it.
pub(super) fn phantom_fetch_active(d: &DrainState, now: Cycle) -> bool {
    if now <= d.entered_at {
        return false;
    }
    let turns = |at: Cycle| d.rate_num * (at - d.entered_at) / d.rate_den / PHANTOM_BURST as u64;
    turns(now) > turns(now - 1)
}

/// Demotes `tid` to drain mode: squashes its window back to the commit
/// point, freezes its ROB share as notional occupancy, and starts the
/// paced commit engine at the thread's measured rate.
pub(super) fn demote(sim: &mut SmtSimulator, tid: ThreadId) {
    debug_assert!(!sim.threads[tid].drained, "double demotion");
    if sim.threads[tid].episode.is_some() {
        // A live runahead episode: the whole window is speculative, and
        // the episode-exit path already knows how to unwind it (episode
        // register sweep, checkpoint restore, oracle rewind to the
        // trigger load = the commit point).
        runahead::exit_runahead(sim, tid);
    } else {
        // Normal mode: FLUSH-style whole-window squash. Fetch window
        // first (its position is relative to the ROB length), then a
        // youngest-first walk-back over the ROB for per-entry rename
        // and resource cleanup.
        let squashed_frontend = sim.threads[tid].instrs.fe_len() as u64;
        sim.threads[tid].instrs.fe_clear();
        while let Some(back_seq) = sim.threads[tid].instrs.rob_back_seq() {
            let slot = sim.threads[tid].instrs.slot_of(back_seq);
            runahead::cleanup_squashed(sim, tid, slot, true);
            sim.threads[tid].instrs.rob_pop_back();
        }
        sim.stats.threads[tid].squashed += squashed_frontend;
        // Both windows are empty, so the table's fetch point *is* the
        // commit point; park the oracle there.
        let resume = sim.threads[tid].instrs.next_fetch_seq();
        sim.threads[tid].oracle.rewind_to(resume);
    }

    // Average-then-cap: each structure the squash above handed back is
    // re-charged as frozen notional occupancy (its sudden release would
    // otherwise speed up the still-measuring threads beyond anything
    // their `--no-drain` selves see). The charge is the thread's
    // *time-averaged* occupancy over its measurement window — a live
    // thread's occupancy oscillates between fill peaks and post-commit
    // troughs, and an instant sample at the demotion cycle lands on one
    // or the other at random (measured both ways: a peak sample makes
    // the survivors ~15% too slow on MEM mixes, a trough sample ~9% too
    // fast on ILP mixes). Each average is then capped twice: by what is
    // actually free right now (the average can top the instant holding
    // just released, and the shared counters must stay within
    // capacity), and by a budget on the *sum* across drained threads —
    // everything except one equal partition, which stays reserved for
    // the live pool so frozen shares can never wedge it. The budget is
    // collective rather than per-thread so a lone drained thread (the
    // common case while the slowest thread finishes) charges its full
    // average.
    let n = sim.threads.len();
    let window = (sim.now - sim.stats.cycles_at_reset).max(1);
    let ts = &sim.stats.threads[tid];
    let rob_budget = (sim.cfg.rob_size - sim.cfg.rob_size / n)
        .saturating_sub(sim.threads.iter().map(|t| t.drain.rob_notional).sum())
        .min(sim.cfg.rob_size.saturating_sub(sim.res.rob_occupancy));
    let notional = ((ts.rob_occ_cycles / window) as usize).min(rob_budget);
    let mut iq_notional = [0usize; 3];
    for (i, kind) in [IqKind::Int, IqKind::Fp, IqKind::Ls]
        .into_iter()
        .enumerate()
    {
        let budget = (sim.cfg.iq_size[i] - sim.cfg.iq_size[i] / n)
            .saturating_sub(sim.res.notional_iq[i])
            .min(
                sim.cfg.iq_size[i]
                    .saturating_sub(sim.res.iqs.occupancy(kind) + sim.res.notional_iq[i]),
            );
        iq_notional[i] = ((ts.iq_occ_cycles[i] / window) as usize).min(budget);
    }
    let renaming = [
        sim.cfg.int_regs.saturating_sub(32 * n),
        sim.cfg.fp_regs.saturating_sub(32 * n),
    ];
    let reg_budget = [
        (renaming[0] - renaming[0] / n)
            .saturating_sub(sim.res.notional_regs[0])
            .min(
                sim.res
                    .int_rf
                    .free_count()
                    .saturating_sub(sim.res.notional_regs[0]),
            ),
        (renaming[1] - renaming[1] / n)
            .saturating_sub(sim.res.notional_regs[1])
            .min(
                sim.res
                    .fp_rf
                    .free_count()
                    .saturating_sub(sim.res.notional_regs[1]),
            ),
    ];
    let avg_regs = |cyc: [u64; 2]| ((cyc[0] + cyc[1]) / window) as usize;
    let reg_notional = [
        avg_regs(ts.int_reg_cycles)
            .saturating_sub(32)
            .min(reg_budget[0]),
        avg_regs(ts.fp_reg_cycles)
            .saturating_sub(32)
            .min(reg_budget[1]),
    ];

    // Calibrate the self-timed pace over the *second half* of the
    // quota window (the whole window as a fallback for sliced callers
    // that never crossed the half mark): the measurement window opens
    // on empty pipelines, and that cold-start transient is a regime
    // the overshoot never revisits.
    let (mark_cycle, mark_committed, mark_stall) =
        sim.threads[tid]
            .half_mark
            .unwrap_or((sim.stats.cycles_at_reset, ts.committed_at_reset, 0));
    let win_cycles = (sim.now - mark_cycle).max(1);
    let win_committed = (ts.committed - mark_committed).max(1);
    let win_stall = ts.mem_stall_cycles - mark_stall;
    let rate_num = win_committed;
    let rate_den = win_cycles;
    // Split the window's CPI into a non-memory base and a memory term.
    // The window's serial per-load stall sum tells how much of the wall
    // clock was memory-bound: if it fits inside the window the base is
    // the remainder; if it exceeds it (overlapped misses) the floor
    // keeps a minimal base and everything above it is memory time. The
    // memory term is *not* charged via `win_stall` directly — burst
    // stall sums are measured differently (see
    // [`DrainState::ema_stall`]), so each burst's sum is normalized
    // against the bursts' own moving average instead.
    let floor = (win_committed / 4).max(1);
    let base_num = if win_stall + floor <= win_cycles {
        win_cycles - win_stall
    } else {
        floor
    };
    let base_den = win_committed;
    let mem_num = win_cycles - base_num;
    let mem_den = win_committed;
    let t = &mut sim.threads[tid];
    debug_assert_eq!(t.dmiss_inflight, 0, "squash left d-misses in flight");
    debug_assert_eq!(t.oracle.next_seq(), t.instrs.next_fetch_seq());
    t.branch_gate = None;
    t.icache_wait = 0;
    t.longlat_gate = 0;
    t.no_retrigger.clear();
    t.drain = DrainState {
        rate_num,
        rate_den,
        // First burst fires after one CHUNK at the full measured rate;
        // its stall sum then calibrates the scale.
        next_burst_at: sim.now + (CHUNK * rate_den / rate_num).max(1),
        base_num,
        base_den,
        mem_num,
        mem_den,
        ema_stall: 0,
        entered_at: sim.now,
        cur_line: u64::MAX,
        rob_notional: notional,
        iq_notional,
        reg_notional,
    };
    t.drained = true;
    sim.res.rob_occupancy += notional;
    for (acc, n) in sim.res.notional_iq.iter_mut().zip(iq_notional) {
        *acc += n;
    }
    for (acc, n) in sim.res.notional_regs.iter_mut().zip(reg_notional) {
        *acc += n;
    }
    sim.drained_live += 1;
    sim.stats.drained_threads += 1;
    sim.activity = true;
}

/// Re-promotes every drained thread to full-fidelity simulation: the
/// notional ROB share is released and the (empty) instruction table is
/// resynced to the oracle's commit point, so the thread resumes
/// fetching exactly where draining stopped. Used by the `--no-drain`
/// toggle and by `reset_stats` (a thread drained during warmup must be
/// measured at full fidelity).
pub(super) fn undrain_all(sim: &mut SmtSimulator) {
    if sim.drained_live == 0 {
        return;
    }
    for t in &mut sim.threads {
        if !t.drained {
            continue;
        }
        sim.res.rob_occupancy -= t.drain.rob_notional;
        for i in 0..3 {
            sim.res.notional_iq[i] -= t.drain.iq_notional[i];
        }
        for i in 0..2 {
            sim.res.notional_regs[i] -= t.drain.reg_notional[i];
        }
        // Resync the (empty) instruction table to the oracle's commit
        // point so the revived thread refetches from its architectural
        // frontier.
        let resume = t.oracle.commit_seq();
        t.oracle.rewind_to(resume);
        t.instrs.reset_to(resume);
        t.drained = false;
        t.drain = DrainState::default();
    }
    sim.drained_live = 0;
}

/// The drain stage: fires the burst for every drained thread whose
/// self-timed schedule has come due. Runs after every full-fidelity
/// stage in the cycle, so measuring threads win all same-cycle
/// hierarchy arbitration against drained ones.
pub(super) fn run(sim: &mut SmtSimulator) {
    debug_assert!(sim.drained_live > 0, "gated by the caller");
    let now = sim.now;
    for tid in 0..sim.threads.len() {
        if !sim.threads[tid].drained || now < sim.threads[tid].drain.next_burst_at {
            continue;
        }
        burst(sim, tid, CHUNK);
    }
}

/// Commits `n` instructions for drained thread `tid` straight from the
/// fetch oracle: per instruction, one deduplicated I-line fetch access
/// plus a data access for loads/stores, then an architectural commit.
/// No rename, no issue queues, no wakeup, no register file traffic.
/// Load latencies are summed (serially, like `mem_stall_cycles`) and —
/// normalized against their own moving average — set the burst's
/// self-timed span, so the drained thread's pace tracks the contention
/// it actually meets.
fn burst(sim: &mut SmtSimulator, tid: ThreadId, n: u64) {
    let dlat = sim.cfg.hierarchy.dcache.latency;
    let t = &mut sim.threads[tid];
    let ts = &mut sim.stats.threads[tid];
    let res = &mut sim.res;
    let now = sim.now;
    let mut stall = 0u64;
    for _ in 0..n {
        let brief = t.oracle.fetch_step();
        let addr = tag_addr(tid, brief.pc.byte_addr());
        let line = addr & !63;
        if line != t.drain.cur_line {
            let _ = res.hier.fetch_access(addr, now);
            t.drain.cur_line = line;
        }
        match t.decode[brief.pc.index()].kind {
            InstructionKind::Load => {
                if let Some(ea) = brief.eff_addr {
                    let acc = res
                        .hier
                        .data_access(tag_addr(tid, ea), AccessKind::Load, now);
                    stall += if acc.rejected {
                        // MSHRs full: a live thread would retry; charge
                        // a nominal wait instead of dropping the time.
                        8
                    } else {
                        acc.ready_at.saturating_sub(now + dlat)
                    };
                }
            }
            InstructionKind::Store => {
                if let Some(ea) = brief.eff_addr {
                    // Store latency is hidden by the store buffer in
                    // full fidelity (it never reaches
                    // `mem_stall_cycles`), so it does not time the
                    // burst either — the access is pure pressure.
                    let _ = res
                        .hier
                        .data_access(tag_addr(tid, ea), AccessKind::Store, now);
                }
            }
            InstructionKind::Branch => {
                // Keep exercising the shared predictor: the thread's
                // branches keep training their own weights and keep
                // aliasing everyone else's, exactly the interference a
                // still-running `--no-drain` thread inflicts. Predict
                // against the pre-push history (what fetch records),
                // train immediately (drain has no resolve latency).
                let key = pred_key(tid, brief.pc);
                let dir = res.pred.predict(key, &t.hist);
                res.pred.train(key, &t.hist, brief.taken, dir);
                ts.bpred.record(dir == brief.taken);
                t.hist.push(brief.taken);
            }
            _ => {}
        }
        t.oracle.commit_next(brief.seq);
        ts.committed += 1;
        ts.fetched += 1;
        ts.dispatched += 1;
        ts.issued += 1;
    }
    let d = &mut t.drain;
    let mem = if stall == 0 {
        // Genuinely no memory time this burst: run at the non-memory
        // base CPI (the fade-out acceleration).
        0
    } else {
        if d.ema_stall == 0 {
            d.ema_stall = stall;
        }
        let expected = (n * d.mem_num / d.mem_den).max(1);
        let mem = expected * stall / d.ema_stall;
        // Quarter-weight update after the charge: the reference tracks
        // shifts in contention (and the first burst's unrepresentative
        // warmth — its lines were prefetched by the squashed window)
        // within a few bursts.
        d.ema_stall = (3 * d.ema_stall + stall) / 4;
        mem
    };
    let span = (n * d.base_num / d.base_den) + mem;
    d.next_burst_at = now + span.max(1);
    sim.stats.drain_commits += n;
    sim.last_progress = now;
    sim.activity = true;
}
