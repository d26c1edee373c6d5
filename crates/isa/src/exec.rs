//! Functional emulator: architectural state and single-step execution.

use crate::inst::{AluOp, BranchCond, FpOp, Instruction, Operand};
use crate::memory::SparseMemory;
use crate::program::{Pc, Program};
use crate::reg::{FpReg, IntReg, NUM_FP_ARCH_REGS, NUM_INT_ARCH_REGS};

/// The architectural register state of a thread context (registers + PC).
/// Data memory lives separately in [`SparseMemory`].
#[derive(Clone, Debug)]
pub struct ArchState {
    pc: Pc,
    int: [u64; NUM_INT_ARCH_REGS],
    fp: [u64; NUM_FP_ARCH_REGS],
}

impl ArchState {
    /// Creates a zeroed state with the given starting PC.
    pub fn new(pc: Pc) -> Self {
        ArchState {
            pc,
            int: [0; NUM_INT_ARCH_REGS],
            fp: [0; NUM_FP_ARCH_REGS],
        }
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Reads an integer register (`r0` reads as zero).
    #[inline]
    pub fn int_reg(&self, r: IntReg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.int[r.index()]
        }
    }

    /// Writes an integer register (writes to `r0` are ignored).
    #[inline]
    pub fn set_int_reg(&mut self, r: IntReg, v: u64) {
        if !r.is_zero() {
            self.int[r.index()] = v;
        }
    }

    /// Reads an FP register as a raw bit pattern.
    #[inline]
    pub fn fp_reg_bits(&self, r: FpReg) -> u64 {
        self.fp[r.index()]
    }

    /// Reads an FP register as an IEEE-754 binary64 value.
    #[inline]
    pub fn fp_reg(&self, r: FpReg) -> f64 {
        f64::from_bits(self.fp[r.index()])
    }

    /// Writes an FP register.
    #[inline]
    pub fn set_fp_reg(&mut self, r: FpReg, v: f64) {
        self.fp[r.index()] = v.to_bits();
    }
}

/// Everything the timing model needs to know about one dynamically executed
/// instruction.
#[derive(Clone, Copy, Debug)]
pub struct ExecRecord {
    /// PC of the executed instruction.
    pub pc: Pc,
    /// The executed instruction.
    pub inst: Instruction,
    /// PC of the next instruction on the executed (correct) path.
    pub next_pc: Pc,
    /// Effective address for loads/stores.
    pub eff_addr: Option<u64>,
    /// For control instructions: whether the branch/jump was taken.
    pub taken: bool,
    /// For register-writing instructions: the produced value as raw bits
    /// (FP results are `f64::to_bits`; a load's result is the loaded
    /// word).
    pub result: Option<u64>,
    /// The dynamic sequence number of this instruction (0-based index in
    /// the thread's execution).
    pub seq: u64,
}

impl ExecRecord {
    /// Whether this record is a control-flow instruction.
    pub fn is_control(&self) -> bool {
        self.inst.is_control()
    }
}

/// A functional CPU context: architectural state + private data memory +
/// program. Stepping it executes one instruction at architectural
/// precision.
///
/// The timing simulator drives one `Cpu` per hardware thread in
/// *execute-at-fetch* fashion: functional execution happens when the timing
/// model first fetches an instruction, and the [`ExecRecord`] supplies the
/// addresses and branch outcomes the simulated pipeline needs. A `Cpu`
/// only ever steps forward along the correct path: when the pipeline
/// squashes (a runahead exit, a FLUSH), it re-fetches the squashed span
/// from the records it already has instead of rewinding the `Cpu`.
#[derive(Debug)]
pub struct Cpu {
    state: ArchState,
    memory: SparseMemory,
    program: Program,
    retired: u64,
}

impl Cpu {
    /// Creates a context at the program's entry with empty memory.
    pub fn new(program: Program) -> Self {
        Self::with_memory(program, SparseMemory::new())
    }

    /// Creates a context with a pre-initialized memory image (the workload
    /// generator uses this to lay out arrays and linked lists).
    pub fn with_memory(program: Program, memory: SparseMemory) -> Self {
        Cpu {
            state: ArchState::new(program.entry()),
            memory,
            program,
            retired: 0,
        }
    }

    /// The architectural register state.
    #[inline]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable access to the architectural register state (used by workload
    /// setup to plant base pointers before simulation starts).
    #[inline]
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// The data memory.
    #[inline]
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }

    /// The program being executed.
    #[inline]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Total instructions functionally executed so far; also the sequence
    /// number of the *next* instruction to execute.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    #[inline]
    fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.state.int_reg(r),
            Operand::Imm(i) => i as u64,
        }
    }

    /// Executes the instruction at the current PC and advances the PC along
    /// the correct path. Returns the execution record.
    ///
    /// # Panics
    ///
    /// Panics if the PC runs past the end of the program (well-formed
    /// workloads are infinite loops and never do).
    pub fn step(&mut self) -> ExecRecord {
        let pc = self.state.pc;
        let inst = self.program.fetch(pc);
        let seq = self.retired;
        let mut eff_addr = None;
        let mut taken = false;
        let mut result = None;
        let mut next_pc = pc.next();

        match inst {
            Instruction::IntOp {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = self.state.int_reg(src1);
                let b = self.operand(src2);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Shl => a.wrapping_shl((b & 63) as u32),
                    AluOp::Shr => a.wrapping_shr((b & 63) as u32),
                    AluOp::SltU => (a < b) as u64,
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div => a / b.max(1),
                };
                self.state.set_int_reg(dst, v);
                result = Some(v);
            }
            Instruction::FpOpInst {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = self.state.fp_reg(src1);
                let b = self.state.fp_reg(src2);
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Mul => a * b,
                    FpOp::Div => a / b,
                };
                self.state.set_fp_reg(dst, v);
                result = Some(v.to_bits());
            }
            Instruction::Load { dst, base, offset } => {
                let addr = self.state.int_reg(base).wrapping_add(offset as i64 as u64);
                let v = self.memory.read_u64(addr);
                self.state.set_int_reg(dst, v);
                eff_addr = Some(addr);
                result = Some(v);
            }
            Instruction::LoadFp { dst, base, offset } => {
                let addr = self.state.int_reg(base).wrapping_add(offset as i64 as u64);
                let v = self.memory.read_u64(addr);
                self.state.fp[dst.index()] = v;
                eff_addr = Some(addr);
                result = Some(v);
            }
            Instruction::Store { src, base, offset } => {
                let addr = self.state.int_reg(base).wrapping_add(offset as i64 as u64);
                self.memory.write_u64(addr, self.state.int_reg(src));
                eff_addr = Some(addr);
            }
            Instruction::StoreFp { src, base, offset } => {
                let addr = self.state.int_reg(base).wrapping_add(offset as i64 as u64);
                self.memory.write_u64(addr, self.state.fp_reg_bits(src));
                eff_addr = Some(addr);
            }
            Instruction::Branch {
                cond,
                src1,
                src2,
                target,
            } => {
                let a = self.state.int_reg(src1);
                let b = self.state.int_reg(src2);
                taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::LtU => a < b,
                    BranchCond::GeU => a >= b,
                };
                if taken {
                    next_pc = target;
                }
            }
            Instruction::Jump { target } => {
                taken = true;
                next_pc = target;
            }
            Instruction::Nop | Instruction::Fence => {}
        }

        self.state.pc = next_pc;
        self.retired += 1;
        ExecRecord {
            pc,
            inst,
            next_pc,
            eff_addr,
            taken,
            result,
            seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction as I;

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    #[test]
    fn alu_ops_compute() {
        let prog = Program::new(vec![
            I::int_op(AluOp::Add, r(1), IntReg::ZERO, Operand::Imm(10)),
            I::int_op(AluOp::Add, r(2), IntReg::ZERO, Operand::Imm(3)),
            I::int_op(AluOp::Sub, r(3), r(1), Operand::Reg(r(2))),
            I::int_op(AluOp::Mul, r(4), r(1), Operand::Reg(r(2))),
            I::int_op(AluOp::Div, r(5), r(1), Operand::Reg(r(2))),
            I::int_op(AluOp::And, r(6), r(1), Operand::Imm(0b110)),
            I::int_op(AluOp::Or, r(7), r(1), Operand::Imm(0b1)),
            I::int_op(AluOp::Xor, r(8), r(1), Operand::Reg(r(1))),
            I::int_op(AluOp::Shl, r(9), r(1), Operand::Imm(2)),
            I::int_op(AluOp::Shr, r(10), r(1), Operand::Imm(1)),
            I::int_op(AluOp::SltU, r(11), r(2), Operand::Reg(r(1))),
            I::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        for _ in 0..11 {
            cpu.step();
        }
        let s = cpu.state();
        assert_eq!(s.int_reg(r(3)), 7);
        assert_eq!(s.int_reg(r(4)), 30);
        assert_eq!(s.int_reg(r(5)), 3);
        assert_eq!(s.int_reg(r(6)), 0b010);
        assert_eq!(s.int_reg(r(7)), 11);
        assert_eq!(s.int_reg(r(8)), 0);
        assert_eq!(s.int_reg(r(9)), 40);
        assert_eq!(s.int_reg(r(10)), 5);
        assert_eq!(s.int_reg(r(11)), 1);
    }

    #[test]
    fn div_by_zero_is_defined() {
        let prog = Program::new(vec![
            I::int_op(AluOp::Div, r(1), IntReg::ZERO, Operand::Reg(IntReg::ZERO)),
            I::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        cpu.step();
        assert_eq!(cpu.state().int_reg(r(1)), 0);
    }

    #[test]
    fn zero_register_is_immutable() {
        let prog = Program::new(vec![
            I::int_op(AluOp::Add, IntReg::ZERO, IntReg::ZERO, Operand::Imm(5)),
            I::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        cpu.step();
        assert_eq!(cpu.state().int_reg(IntReg::ZERO), 0);
    }

    #[test]
    fn load_store_roundtrip() {
        let prog = Program::new(vec![
            I::int_op(AluOp::Add, r(1), IntReg::ZERO, Operand::Imm(0x1000)),
            I::int_op(AluOp::Add, r(2), IntReg::ZERO, Operand::Imm(77)),
            I::store(r(2), r(1), 8),
            I::load(r(3), r(1), 8),
            I::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        for _ in 0..4 {
            cpu.step();
        }
        assert_eq!(cpu.state().int_reg(r(3)), 77);
        assert_eq!(cpu.memory().read_u64(0x1008), 77);
    }

    #[test]
    fn exec_record_reports_addresses_and_outcomes() {
        let prog = Program::new(vec![
            I::int_op(AluOp::Add, r(1), IntReg::ZERO, Operand::Imm(0x40)),
            I::load(r(2), r(1), 0),
            I::branch(BranchCond::Eq, r(2), IntReg::ZERO, 0),
            I::jump(0),
        ]);
        let mut cpu = Cpu::new(prog);
        cpu.step();
        let ld = cpu.step();
        assert_eq!(ld.eff_addr, Some(0x40));
        assert_eq!(ld.result, Some(0), "a load's result is the loaded value");
        let br = cpu.step();
        assert!(br.is_control());
        assert!(br.taken); // r2 == 0
        assert_eq!(br.next_pc.index(), 0);
    }

    #[test]
    fn fp_ops_compute() {
        let mut prog = vec![I::int_op(
            AluOp::Add,
            r(1),
            IntReg::ZERO,
            Operand::Imm(0x100),
        )];
        prog.push(I::LoadFp {
            dst: FpReg::new(1),
            base: r(1),
            offset: 0,
        });
        prog.push(I::fp_op(
            FpOp::Add,
            FpReg::new(2),
            FpReg::new(1),
            FpReg::new(1),
        ));
        prog.push(I::fp_op(
            FpOp::Mul,
            FpReg::new(3),
            FpReg::new(2),
            FpReg::new(1),
        ));
        prog.push(I::fp_op(
            FpOp::Div,
            FpReg::new(4),
            FpReg::new(3),
            FpReg::new(1),
        ));
        prog.push(I::StoreFp {
            src: FpReg::new(4),
            base: r(1),
            offset: 8,
        });
        prog.push(I::jump(0));
        let mut mem = SparseMemory::new();
        mem.write_f64(0x100, 1.5);
        let mut cpu = Cpu::with_memory(Program::new(prog), mem);
        for _ in 0..6 {
            cpu.step();
        }
        assert_eq!(cpu.state().fp_reg(FpReg::new(2)), 3.0);
        assert_eq!(cpu.state().fp_reg(FpReg::new(3)), 4.5);
        assert_eq!(cpu.state().fp_reg(FpReg::new(4)), 3.0);
        assert_eq!(cpu.memory().read_f64(0x108), 3.0);
    }

    #[test]
    fn retired_counts_steps() {
        let prog = Program::new(vec![I::Nop, I::jump(0)]);
        let mut cpu = Cpu::new(prog);
        for _ in 0..10 {
            cpu.step();
        }
        assert_eq!(cpu.retired(), 10);
    }
}
