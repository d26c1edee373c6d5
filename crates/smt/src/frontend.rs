//! The per-thread execute-at-fetch oracle and its fetch-replay buffer.
//!
//! Each hardware thread owns a functional [`Cpu`] that executes
//! instructions *when the pipeline first fetches them* — so every fetched
//! instruction carries its exact effective address and branch outcome
//! down the pipe.
//!
//! # Fetch replay
//!
//! The oracle is deterministic and each thread's data memory is private,
//! so the executed stream is a pure function of the dynamic sequence
//! number: re-fetching after a squash would recompute bit-identical
//! results. The oracle therefore keeps a seq-indexed **replay buffer**
//! holding the [`FetchBrief`] of every executed-but-uncommitted
//! instruction, and a rewind (runahead exit, FLUSH squash) is a cursor
//! move. Subsequent [`OracleThread::fetch_step`] calls are served from
//! the buffer until fetch passes the execution frontier, where live
//! execution resumes (the `Cpu` was simply left there). The `Cpu` only
//! ever steps forward: no register file is rebuilt and no memory write is
//! undone. `tests/golden.rs` pins the simulator's results bit for bit,
//! and this module's tests check every served brief against a `Cpu` that
//! never rewinds.

use std::collections::VecDeque;

use rat_isa::{Cpu, Pc};

/// What the pipeline consumes from one executed instruction. Live fetch
/// and replay return the same record: the replay buffer stores these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchBrief {
    /// Dynamic sequence number.
    pub seq: u64,
    /// PC of the instruction (also its decode-table index).
    pub pc: Pc,
    /// Effective address for loads/stores.
    pub eff_addr: Option<u64>,
    /// Correct branch/jump direction.
    pub taken: bool,
}

/// A thread's functional front end: fetch-time emulator + fetch-replay
/// buffer.
#[derive(Debug)]
pub struct OracleThread {
    cpu: Cpu,
    /// Sequence number of the oldest uncommitted instruction.
    committed: u64,
    /// Briefs of every executed-but-uncommitted instruction, in seq
    /// order: seqs `[committed, committed + replay.len())`.
    replay: VecDeque<FetchBrief>,
    /// Sequence number of the next brief [`Self::fetch_step`] returns.
    /// `cursor < frontier` means fetch is replaying buffered briefs;
    /// `cursor == frontier` means fetch is at the live edge.
    cursor: u64,
    /// Fetches served from the buffer (simulator-performance diagnostic).
    replayed: u64,
}

impl OracleThread {
    /// Wraps a prepared functional context (program + memory image +
    /// planted registers).
    pub fn new(cpu: Cpu) -> Self {
        let cursor = cpu.retired();
        OracleThread {
            cpu,
            committed: cursor,
            replay: VecDeque::new(),
            cursor,
            replayed: 0,
        }
    }

    /// Sequence number one past the newest instruction ever executed (the
    /// live edge of the replay buffer).
    #[inline]
    fn frontier(&self) -> u64 {
        self.committed + self.replay.len() as u64
    }

    /// Total fetches served from the replay buffer instead of live
    /// functional execution.
    #[inline]
    pub fn replayed_count(&self) -> u64 {
        self.replayed
    }

    /// The PC the next fetch will execute.
    #[inline]
    pub fn fetch_pc(&self) -> Pc {
        if self.cursor < self.frontier() {
            self.replay[(self.cursor - self.committed) as usize].pc
        } else {
            self.cpu.state().pc()
        }
    }

    /// Fetches the instruction at the cursor: from the replay buffer if it
    /// was executed before, otherwise by executing it live.
    #[inline]
    pub fn fetch_step(&mut self) -> FetchBrief {
        let idx = (self.cursor - self.committed) as usize;
        let brief = if let Some(&brief) = self.replay.get(idx) {
            self.replayed += 1;
            brief
        } else {
            let rec = self.cpu.step();
            let brief = FetchBrief {
                seq: rec.seq,
                pc: rec.pc,
                eff_addr: rec.eff_addr,
                taken: rec.taken,
            };
            self.replay.push_back(brief);
            brief
        };
        debug_assert_eq!(brief.seq, self.cursor, "replay buffer out of sync");
        self.cursor += 1;
        brief
    }

    /// Sequence number of the next instruction to be fetched.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.cursor
    }

    /// Sequence number of the next instruction to commit.
    #[inline]
    pub fn commit_seq(&self) -> u64 {
        self.committed
    }

    /// Commits the instruction at the commit point, pruning its brief (a
    /// committed instruction is never re-fetched), and returns its
    /// effective address (what the commit stage's store bookkeeping
    /// needs).
    ///
    /// # Panics
    ///
    /// Panics if no in-flight (fetched) instruction is pending commit;
    /// debug-panics if the commit point disagrees with `expected_seq`
    /// (the pipeline's ROB front).
    pub fn commit_next(&mut self, expected_seq: u64) -> Option<u64> {
        assert!(
            self.committed < self.cursor,
            "commit ahead of the fetch point"
        );
        debug_assert_eq!(
            self.committed, expected_seq,
            "oracle/ROB commit points diverged"
        );
        let brief = self.replay.pop_front().expect("in-flight record");
        debug_assert_eq!(brief.seq, self.committed, "replay prune out of sync");
        self.committed += 1;
        brief.eff_addr
    }

    /// Rewinds the fetch point to `resume_seq` (`committed <= resume_seq
    /// <= frontier`): the squash resumes fetching at `resume_seq`, with
    /// everything younger discarded. A pure cursor move: the squashed span
    /// is served from the buffer on re-fetch.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `resume_seq` is outside the buffered range —
    /// the pipeline only ever rewinds to in-flight points, which are
    /// always buffered.
    pub fn rewind_to(&mut self, resume_seq: u64) {
        debug_assert!(
            resume_seq >= self.committed && resume_seq <= self.frontier(),
            "rewind target {resume_seq} outside buffered range [{}, {}]",
            self.committed,
            self.frontier()
        );
        self.cursor = resume_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_isa::{AluOp, BranchCond, ExecRecord, Instruction, IntReg, Operand, Program};
    use rat_workload::WorkloadRng;

    fn counting_cpu() -> Cpu {
        // r1 += 1; mem[0x100] = r1; forever
        let prog = Program::new(vec![
            Instruction::int_op(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1)),
            Instruction::store(IntReg::new(1), IntReg::new(2), 0),
            Instruction::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        cpu.state_mut().set_int_reg(IntReg::new(2), 0x100);
        cpu
    }

    /// A loop whose addresses and branch outcomes depend on its own
    /// earlier stores: each iteration stores its count into one of eight
    /// slots, loads the neighbouring slot, and moves the slot base when
    /// the loaded value is odd.
    fn looping_cpu() -> Cpu {
        let r = IntReg::new;
        let prog = Program::new(vec![
            Instruction::int_op(AluOp::Add, r(1), r(1), Operand::Imm(1)),
            Instruction::int_op(AluOp::And, r(3), r(1), Operand::Imm(7)),
            Instruction::int_op(AluOp::Shl, r(3), r(3), Operand::Imm(3)),
            Instruction::int_op(AluOp::Add, r(3), r(3), Operand::Reg(r(2))),
            Instruction::store(r(1), r(3), 0),
            Instruction::load(r(4), r(3), 8),
            Instruction::int_op(AluOp::And, r(5), r(4), Operand::Imm(1)),
            Instruction::branch(BranchCond::Eq, r(5), IntReg::ZERO, 9),
            Instruction::int_op(AluOp::Add, r(2), r(2), Operand::Imm(64)),
            Instruction::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        cpu.state_mut().set_int_reg(r(2), 0x1000);
        cpu
    }

    #[test]
    fn deterministic_refetch_after_many_rewinds() {
        let mut o = OracleThread::new(counting_cpu());
        let baseline: Vec<_> = (0..12).map(|_| o.fetch_step()).collect();
        o.rewind_to(0);
        for round in 0..3 {
            let again: Vec<_> = (0..12).map(|_| o.fetch_step()).collect();
            assert_eq!(baseline, again, "round {round}");
            o.rewind_to(0);
        }
    }

    #[test]
    fn replay_serves_buffer_then_resumes_live() {
        let mut o = OracleThread::new(counting_cpu());
        let briefs: Vec<_> = (0..6).map(|_| o.fetch_step()).collect();
        o.rewind_to(0);
        assert_eq!(o.next_seq(), 0);
        // The whole squashed span replays from the buffer...
        for b in &briefs {
            assert_eq!(o.fetch_step(), *b);
        }
        assert_eq!(o.replayed_count(), 6);
        // ...and the next fetch crosses the frontier into live execution.
        let live = o.fetch_step();
        assert_eq!(live.seq, 6);
        assert_eq!(o.replayed_count(), 6);
    }

    /// Drives the oracle through random fetches, commits and rewinds (the
    /// moves the pipeline makes) and checks every fetched brief and every
    /// committed effective address against a `Cpu` that only ever steps
    /// forward.
    #[test]
    fn random_fetch_commit_rewind_matches_forward_execution() {
        for case in 0..16u64 {
            let mut rng = WorkloadRng::seed_from_u64(0xF00D + case);
            let mut o = OracleThread::new(looping_cpu());
            let mut forward = looping_cpu();
            let mut records: Vec<ExecRecord> = Vec::new();
            let mut truth = |seq: u64| {
                while records.len() as u64 <= seq {
                    records.push(forward.step());
                }
                records[seq as usize]
            };
            let mut committed = 0u64;
            for step in 0..2_000 {
                let at = format!("case {case} step {step}");
                match rng.below(8) {
                    0..=4 => {
                        let seq = o.next_seq();
                        let want = truth(seq);
                        assert_eq!(o.fetch_pc(), want.pc, "{at}");
                        let want = FetchBrief {
                            seq,
                            pc: want.pc,
                            eff_addr: want.eff_addr,
                            taken: want.taken,
                        };
                        assert_eq!(o.fetch_step(), want, "{at}");
                    }
                    5 | 6 if committed < o.next_seq() => {
                        let want = truth(committed).eff_addr;
                        assert_eq!(o.commit_next(committed), want, "{at}");
                        committed += 1;
                        assert_eq!(o.commit_seq(), committed, "{at}");
                    }
                    7 => {
                        let resume = committed + rng.below(o.next_seq() - committed + 1);
                        o.rewind_to(resume);
                        assert_eq!(o.next_seq(), resume, "{at}");
                    }
                    _ => {}
                }
            }
            assert!(
                o.replayed_count() > 0 && committed > 0,
                "case {case}: the schedule must replay and commit"
            );
        }
    }
}
