//! Dispatch/rename stage: in-order per-thread rename and resource
//! allocation, runahead folding of INV instructions, and the DCRA/Hill
//! dispatch gates (via `SharedResources::allows_dispatch`).
//!
//! The gate logic is factored into the side-effect-free [`decide`], which
//! both the stage itself and the cycle-skipping driver consult — the
//! skip predicate must know whether a thread *could* dispatch without
//! actually dispatching, and sharing the decision function keeps the two
//! paths incapable of drifting apart.
//!
//! Dispatch is where a slot *promotes* from the fetch window into the
//! ROB window of the thread's instruction table: no entry is copied
//! anywhere — the window boundary moves, the rename results land in the
//! `regs` cluster, and the scheduler word is composed in one store.

use rat_isa::{ArchReg, Instruction, InstructionKind};

use crate::config::{IQ_SIZE, ROB_SIZE, WIDTH};
use crate::instr_table::{
    pack_arch, pack_reg, sched_word, Regs, F_INV, F_RUNAHEAD, F_TAKEN, ST_DONE, ST_WAIT,
};
use crate::types::{ExecMode, IqKind, RegClass, ThreadId};

use super::SmtSimulator;

/// Which issue queue an instruction dispatches into.
fn iq_kind(kind: InstructionKind) -> Option<IqKind> {
    match kind {
        InstructionKind::IntAlu
        | InstructionKind::IntMul
        | InstructionKind::IntDiv
        | InstructionKind::Branch => Some(IqKind::Int),
        InstructionKind::FpAdd | InstructionKind::FpMul | InstructionKind::FpDiv => {
            Some(IqKind::Fp)
        }
        InstructionKind::Load | InstructionKind::Store => Some(IqKind::Ls),
        InstructionKind::Jump | InstructionKind::Nop => None,
    }
}

/// Architectural source registers of an instruction (r0 excluded —
/// it is constant and never renamed).
fn src_regs(inst: &Instruction) -> [Option<ArchReg>; 2] {
    use rat_isa::Operand;
    let int = |r: rat_isa::IntReg| {
        if r.is_zero() {
            None
        } else {
            Some(ArchReg::Int(r))
        }
    };
    match *inst {
        Instruction::IntOp { src1, src2, .. } => {
            let s2 = match src2 {
                Operand::Reg(r) => int(r),
                Operand::Imm(_) => None,
            };
            [int(src1), s2]
        }
        Instruction::FpOpInst { src1, src2, .. } => {
            [Some(ArchReg::Fp(src1)), Some(ArchReg::Fp(src2))]
        }
        Instruction::Load { base, .. } | Instruction::LoadFp { base, .. } => [int(base), None],
        Instruction::Store { src, base, .. } => [int(base), int(src)],
        Instruction::StoreFp { src, base, .. } => [int(base), Some(ArchReg::Fp(src))],
        Instruction::Branch { src1, src2, .. } => [int(src1), int(src2)],
        Instruction::Jump { .. } | Instruction::Nop | Instruction::Fence => [None, None],
    }
}

/// Architectural destination register (r0 writes discarded).
fn dst_reg(inst: &Instruction) -> Option<ArchReg> {
    match *inst {
        Instruction::IntOp { dst, .. } | Instruction::Load { dst, .. } => {
            if dst.is_zero() {
                None
            } else {
                Some(ArchReg::Int(dst))
            }
        }
        Instruction::FpOpInst { dst, .. } | Instruction::LoadFp { dst, .. } => {
            Some(ArchReg::Fp(dst))
        }
        _ => None,
    }
}

/// Runs the dispatch stage for one cycle.
pub(super) fn run(sim: &mut SmtSimulator) {
    let n = sim.threads.len();
    let mut budget = WIDTH;
    let start = sim.res.dispatch_rr;
    sim.res.dispatch_rr = (sim.res.dispatch_rr + 1) % n;
    // Normal threads dispatch before speculative (runahead) threads:
    // runahead work fills leftover bandwidth only (§3.2: a runahead
    // thread must not limit the resources of other threads). Two passes
    // over the rotation replace a stable sort-by-mode; stack scratch
    // (n <= 8) because this runs every cycle and must not allocate.
    let mut order = [0usize; 8];
    let mut filled = 0;
    for speculative in [false, true] {
        for k in 0..n {
            let t = (start + k) % n;
            if (sim.threads[t].mode == ExecMode::Runahead) == speculative {
                order[filled] = t;
                filled += 1;
            }
        }
    }
    for &tid in &order[..n] {
        while budget > 0 {
            let ready = matches!(
                sim.threads[tid].instrs.fe_front_slot(),
                Some(f) if sim.threads[tid].instrs.front[f].ready_at <= sim.now
            );
            if !ready || !try_dispatch_one(sim, tid) {
                break;
            }
            budget -= 1;
        }
        if budget == 0 {
            break;
        }
    }
}

/// What dispatch would do with the head instruction of `tid` this cycle,
/// computed without mutating any state. (The head's `ready_at` timing is
/// the caller's concern.)
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum DispatchDecision {
    /// Resource or policy stall: in-order dispatch, the thread stops.
    Blocked,
    /// Runahead folding (paper §3.2/§3.3): consumed at rename, no
    /// back-end resources.
    Fold,
    /// Full rename + resource allocation.
    Dispatch,
}

/// The static decode of one instruction: operand and queue
/// classification, a pure function of the instruction.
///
/// Decoding is precomputed per *program counter* into a per-thread table
/// at simulator construction ([`decode_program`]): the dispatch gate
/// runs for every dispatch attempt *and* for every cycle-skip
/// quiescence probe, so re-classifying the instruction each time is
/// measurable hot-path work for zero information.
#[derive(Clone, Copy)]
pub(super) struct Decoded {
    pub(super) kind: InstructionKind,
    iq_kind: Option<IqKind>,
    dst_arch: Option<ArchReg>,
    srcs_arch: [Option<ArchReg>; 2],
    is_fp_compute: bool,
    is_fence: bool,
}

/// Builds the static decode table of a program, indexed by `Pc::index`.
pub(super) fn decode_program(prog: &rat_isa::Program) -> Box<[Decoded]> {
    prog.iter()
        .map(|inst| {
            let kind = inst.kind();
            Decoded {
                kind,
                iq_kind: iq_kind(kind),
                dst_arch: dst_reg(inst),
                srcs_arch: src_regs(inst),
                is_fp_compute: inst.is_fp_compute(),
                is_fence: matches!(inst, Instruction::Fence),
            }
        })
        .collect()
}

/// The side-effect-free dispatch gate for `tid`'s fetch-window head.
pub(super) fn decide(sim: &SmtSimulator, tid: ThreadId) -> DispatchDecision {
    let Some(f) = sim.threads[tid].instrs.fe_front_slot() else {
        return DispatchDecision::Blocked;
    };
    let d = sim.threads[tid].decode[sim.threads[tid].instrs.meta[f].pc.index()];
    gate(sim, tid, &d)
}

/// The gate logic over an already-decoded head instruction.
fn gate(sim: &SmtSimulator, tid: ThreadId, d: &Decoded) -> DispatchDecision {
    if sim.threads[tid].mode == ExecMode::Runahead && folds_in_runahead(sim, tid, d) {
        // A folded instruction still needs a ROB slot.
        return if sim.res.rob_occupancy >= ROB_SIZE {
            DispatchDecision::Blocked
        } else {
            DispatchDecision::Fold
        };
    }

    // --- resource checks ---
    if sim.res.rob_occupancy >= ROB_SIZE {
        return DispatchDecision::Blocked;
    }
    if let Some(k) = d.iq_kind {
        // Drained threads' notional entries count against the capacity
        // (zero unless post-quota drain is active — see
        // `pipeline::drain`).
        if sim.res.iqs.occupancy(k) + sim.res.notional_iq[k.index()] >= IQ_SIZE[k.index()] {
            return DispatchDecision::Blocked;
        }
    }
    if let Some(arch) = d.dst_arch {
        let class = reg_class(arch);
        if sim.res.rf_ref(class).free_count() <= sim.res.notional_regs[class.index()] {
            return DispatchDecision::Blocked;
        }
    }
    if !sim
        .res
        .allows_dispatch(&sim.cfg, &sim.threads, tid, d.iq_kind, d.dst_arch)
    {
        return DispatchDecision::Blocked;
    }
    DispatchDecision::Dispatch
}

/// Whether the head folds at rename during runahead: INV sources (for
/// loads/stores only the address matters — INV store *data* still
/// prefetches), FP computation (dropped so it uses no FP issue queue,
/// unit or register, §3.3 "Floating-point resources"; FP loads and
/// stores still prefetch), or a fence (synchronization is ignored in
/// runahead, §3.3).
fn folds_in_runahead(sim: &SmtSimulator, tid: ThreadId, d: &Decoded) -> bool {
    let fold_srcs: &[Option<ArchReg>] = match d.kind {
        InstructionKind::Load | InstructionKind::Store => &d.srcs_arch[..1],
        _ => &d.srcs_arch[..],
    };
    let src_inv = fold_srcs
        .iter()
        .flatten()
        .any(|r| sim.threads[tid].arch_inv[r.flat_index()]);
    src_inv || d.is_fp_compute || d.is_fence
}

/// Attempts to rename+dispatch the next fetched instruction of `tid`.
/// Returns `false` on a resource or policy stall (in-order dispatch:
/// the thread stops for this cycle).
fn try_dispatch_one(sim: &mut SmtSimulator, tid: ThreadId) -> bool {
    let Some(f) = sim.threads[tid].instrs.fe_front_slot() else {
        return false;
    };
    let d = sim.threads[tid].decode[sim.threads[tid].instrs.meta[f].pc.index()];
    match gate(sim, tid, &d) {
        DispatchDecision::Blocked => false,
        DispatchDecision::Fold => {
            fold_one(sim, tid, &d);
            true
        }
        DispatchDecision::Dispatch => {
            dispatch_one(sim, tid, &d);
            true
        }
    }
}

/// Consumes the head instruction as a folded (INV) runahead entry: the
/// slot promotes into the ROB window already `Done`, holding no back-end
/// resources.
fn fold_one(sim: &mut SmtSimulator, tid: ThreadId, d: &Decoded) {
    let slot = sim.threads[tid].instrs.promote_front();
    if let Some(arch) = d.dst_arch {
        sim.threads[tid].arch_inv[arch.flat_index()] = true;
    }
    if d.kind == InstructionKind::Branch {
        let t = &mut sim.threads[tid];
        let m = t.instrs.meta[slot];
        // An INV branch follows the predicted path; if the
        // prediction disagrees with the correct path, the
        // runahead thread diverges (§3.1 "most likely path").
        if m.predicted() != Some(m.flags & F_TAKEN != 0) && !t.diverged {
            t.diverged = true;
            sim.stats.threads[tid].runahead_divergences += 1;
        }
        if t.branch_gate == Some(t.instrs.front[slot].seq) {
            t.branch_gate = None;
        }
    }
    sim.res.gseq += 1;
    let t = &mut sim.threads[tid].instrs;
    t.sched[slot] = sched_word(sim.res.gseq, 0, 0, ST_DONE);
    t.meta[slot].flags |= F_INV | F_RUNAHEAD;
    t.regs[slot] = Regs::NONE;
    sim.res.rob_occupancy += 1;
    let ts = &mut sim.stats.threads[tid];
    ts.dispatched += 1;
    ts.folded += 1;
    sim.activity = true;
}

/// Renames and allocates the head instruction (every gate in [`gate`]
/// has passed).
fn dispatch_one(sim: &mut SmtSimulator, tid: ThreadId, d: &Decoded) {
    let runahead = sim.threads[tid].mode == ExecMode::Runahead;
    let &Decoded {
        kind,
        iq_kind,
        dst_arch,
        srcs_arch,
        is_fp_compute,
        ..
    } = d;

    // --- rename & allocate (in the promoted slot, in place) ---
    let slot = sim.threads[tid].instrs.promote_front();
    sim.res.gseq += 1;
    let gseq = sim.res.gseq;

    let mut srcs: [u32; 2] = [crate::instr_table::REG_NONE; 2];
    let mut waiting = 0u8;
    for (i, src) in srcs_arch.iter().enumerate() {
        if let Some(arch) = src {
            let class = reg_class(*arch);
            let p = sim.threads[tid].rename.lookup(*arch);
            srcs[i] = pack_reg(class, p);
            if !sim.res.rf_ref(class).is_ready(p) {
                waiting += 1;
                sim.res
                    .iqs
                    .add_waiter(class, p, tid as u32, slot as u32, gseq);
            }
        }
    }

    let mut dst = crate::instr_table::REG_NONE;
    let mut prev = crate::instr_table::REG_NONE;
    if let Some(arch) = dst_arch {
        let class = reg_class(arch);
        let p = sim.res.rf(class).alloc(tid).expect("checked free_count");
        prev = sim.threads[tid].rename.rename(arch, p) as u32;
        dst = pack_reg(class, p);
        if runahead {
            sim.res.rf(class).mark_episode(p);
            sim.threads[tid].episode_regs.push((class, p));
        }
        // A valid instruction overwrites any INV status of its dest.
        sim.threads[tid].arch_inv[arch.flat_index()] = false;
        if class == RegClass::Fp {
            sim.threads[tid].fp_user = true;
        }
    }
    if is_fp_compute {
        sim.threads[tid].fp_user = true;
    }

    if let Some(k) = iq_kind {
        sim.res.iqs.insert(k, tid);
    }
    if kind == InstructionKind::Store {
        let addr = sim.threads[tid].instrs.front[slot].eff_addr;
        sim.threads[tid].add_store_addr(addr);
    }

    let t = &mut sim.threads[tid].instrs;
    let (iqk8, stage) = match iq_kind {
        Some(k) => (1 + k.index() as u8, ST_WAIT),
        None => (0, ST_DONE),
    };
    t.sched[slot] = sched_word(gseq, iqk8, waiting, stage);
    if runahead {
        t.meta[slot].flags |= F_RUNAHEAD;
    }
    t.meta[slot].dst_arch = pack_arch(dst_arch);
    t.regs[slot] = Regs { srcs, dst, prev };
    sim.res.rob_occupancy += 1;
    sim.stats.threads[tid].dispatched += 1;
    sim.activity = true;
    if waiting == 0 {
        if let Some(k) = iq_kind {
            sim.res.iqs.push_ready(k, gseq, tid as u32, slot as u32);
        }
    }
}

#[inline]
fn reg_class(arch: ArchReg) -> RegClass {
    if arch.is_int() {
        RegClass::Int
    } else {
        RegClass::Fp
    }
}
