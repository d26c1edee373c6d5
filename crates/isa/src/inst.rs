//! Instruction definitions.

use std::fmt;

use crate::program::Pc;
use crate::reg::{FpReg, IntReg};

/// Integer ALU operations.
///
/// `Mul` and `Div` are separated from the single-cycle group because the
/// timing model gives them longer latencies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// `dst = src1 + src2`
    Add,
    /// `dst = src1 - src2`
    Sub,
    /// `dst = src1 & src2`
    And,
    /// `dst = src1 | src2`
    Or,
    /// `dst = src1 ^ src2`
    Xor,
    /// `dst = src1 << (src2 & 63)`
    Shl,
    /// `dst = src1 >> (src2 & 63)` (logical)
    Shr,
    /// `dst = (src1 < src2) as u64` (unsigned)
    SltU,
    /// `dst = src1 * src2` (wrapping; multi-cycle)
    Mul,
    /// `dst = src1 / max(src2, 1)` (unsigned; long latency)
    Div,
}

/// Floating-point operations (operands are IEEE-754 binary64 values stored
/// in FP registers as raw bit patterns).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// `dst = src1 + src2`
    Add,
    /// `dst = src1 * src2`
    Mul,
    /// `dst = src1 / src2` (division by zero yields ±inf per IEEE-754)
    Div,
}

/// Conditions for conditional branches, comparing two integer registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Taken when `src1 == src2`.
    Eq,
    /// Taken when `src1 != src2`.
    Ne,
    /// Taken when `src1 < src2` (unsigned).
    LtU,
    /// Taken when `src1 >= src2` (unsigned).
    GeU,
}

/// Second source of an integer operation: a register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register source.
    Reg(IntReg),
    /// A sign-extended 64-bit immediate.
    Imm(i64),
}

/// A static instruction of the synthetic ISA.
///
/// Effective addresses for memory operations are always `base + offset`
/// (integer pipeline), matching the observation in §3.3 of the paper that
/// address computation never needs the FP pipeline.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instruction {
    /// Integer ALU/mul/div operation.
    IntOp {
        /// The operation to perform.
        op: AluOp,
        /// Destination register.
        dst: IntReg,
        /// First source register.
        src1: IntReg,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Floating-point operation.
    FpOpInst {
        /// The operation to perform.
        op: FpOp,
        /// Destination FP register.
        dst: FpReg,
        /// First source FP register.
        src1: FpReg,
        /// Second source FP register.
        src2: FpReg,
    },
    /// 8-byte integer load: `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: IntReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset.
        offset: i32,
    },
    /// 8-byte FP load: `dst = mem[base + offset]` (bit pattern).
    LoadFp {
        /// Destination FP register.
        dst: FpReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset.
        offset: i32,
    },
    /// 8-byte integer store: `mem[base + offset] = src`.
    Store {
        /// Value register.
        src: IntReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset.
        offset: i32,
    },
    /// 8-byte FP store: `mem[base + offset] = src` (bit pattern).
    StoreFp {
        /// Value FP register.
        src: FpReg,
        /// Base address register.
        base: IntReg,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch to an absolute instruction index.
    Branch {
        /// Branch condition.
        cond: BranchCond,
        /// First compared register.
        src1: IntReg,
        /// Second compared register.
        src2: IntReg,
        /// Absolute target (instruction index).
        target: Pc,
    },
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Absolute target (instruction index).
        target: Pc,
    },
    /// No operation.
    Nop,
    /// Memory fence / synchronization marker. Executes as a NOP in this
    /// multiprogrammed model; runahead mode ignores it entirely (§3.3).
    Fence,
}

/// Coarse classification used throughout the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstructionKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// FP add.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// Memory load (either register class destination).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// NOP or fence.
    Nop,
}

impl Instruction {
    /// Convenience constructor for an integer operation.
    pub fn int_op(op: AluOp, dst: IntReg, src1: IntReg, src2: Operand) -> Self {
        Instruction::IntOp {
            op,
            dst,
            src1,
            src2,
        }
    }

    /// Convenience constructor for an FP operation.
    pub fn fp_op(op: FpOp, dst: FpReg, src1: FpReg, src2: FpReg) -> Self {
        Instruction::FpOpInst {
            op,
            dst,
            src1,
            src2,
        }
    }

    /// Convenience constructor for an integer load.
    pub fn load(dst: IntReg, base: IntReg, offset: i32) -> Self {
        Instruction::Load { dst, base, offset }
    }

    /// Convenience constructor for an integer store.
    pub fn store(src: IntReg, base: IntReg, offset: i32) -> Self {
        Instruction::Store { src, base, offset }
    }

    /// Convenience constructor for a conditional branch.
    pub fn branch(cond: BranchCond, src1: IntReg, src2: IntReg, target: u32) -> Self {
        Instruction::Branch {
            cond,
            src1,
            src2,
            target: Pc::new(target),
        }
    }

    /// Convenience constructor for an unconditional jump.
    pub fn jump(target: u32) -> Self {
        Instruction::Jump {
            target: Pc::new(target),
        }
    }

    /// The coarse kind used by the timing model.
    pub fn kind(&self) -> InstructionKind {
        match self {
            Instruction::IntOp { op: AluOp::Mul, .. } => InstructionKind::IntMul,
            Instruction::IntOp { op: AluOp::Div, .. } => InstructionKind::IntDiv,
            Instruction::IntOp { .. } => InstructionKind::IntAlu,
            Instruction::FpOpInst { op: FpOp::Add, .. } => InstructionKind::FpAdd,
            Instruction::FpOpInst { op: FpOp::Mul, .. } => InstructionKind::FpMul,
            Instruction::FpOpInst { op: FpOp::Div, .. } => InstructionKind::FpDiv,
            Instruction::Load { .. } | Instruction::LoadFp { .. } => InstructionKind::Load,
            Instruction::Store { .. } | Instruction::StoreFp { .. } => InstructionKind::Store,
            Instruction::Branch { .. } => InstructionKind::Branch,
            Instruction::Jump { .. } => InstructionKind::Jump,
            Instruction::Nop | Instruction::Fence => InstructionKind::Nop,
        }
    }

    /// Whether this instruction reads or writes memory.
    pub fn is_mem(&self) -> bool {
        matches!(self.kind(), InstructionKind::Load | InstructionKind::Store)
    }

    /// Whether this instruction is a control-flow instruction.
    pub fn is_control(&self) -> bool {
        matches!(self.kind(), InstructionKind::Branch | InstructionKind::Jump)
    }

    /// Whether this instruction executes in the FP pipeline (FP arithmetic
    /// only; FP loads/stores compute addresses in the integer pipeline).
    pub fn is_fp_compute(&self) -> bool {
        matches!(self, Instruction::FpOpInst { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::IntOp {
                op,
                dst,
                src1,
                src2,
            } => match src2 {
                Operand::Reg(r) => write!(f, "{op:?} {dst}, {src1}, {r}"),
                Operand::Imm(i) => write!(f, "{op:?} {dst}, {src1}, #{i}"),
            },
            Instruction::FpOpInst {
                op,
                dst,
                src1,
                src2,
            } => {
                write!(f, "F{op:?} {dst}, {src1}, {src2}")
            }
            Instruction::Load { dst, base, offset } => write!(f, "LD {dst}, {offset}({base})"),
            Instruction::LoadFp { dst, base, offset } => write!(f, "LDF {dst}, {offset}({base})"),
            Instruction::Store { src, base, offset } => write!(f, "ST {src}, {offset}({base})"),
            Instruction::StoreFp { src, base, offset } => write!(f, "STF {src}, {offset}({base})"),
            Instruction::Branch {
                cond,
                src1,
                src2,
                target,
            } => write!(f, "B{cond:?} {src1}, {src2} -> {target}"),
            Instruction::Jump { target } => write!(f, "J -> {target}"),
            Instruction::Nop => write!(f, "NOP"),
            Instruction::Fence => write!(f, "FENCE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        let ld = Instruction::load(IntReg::new(1), IntReg::new(2), 8);
        assert_eq!(ld.kind(), InstructionKind::Load);
        assert!(ld.is_mem());
        assert!(!ld.is_control());

        let br = Instruction::branch(BranchCond::Eq, IntReg::ZERO, IntReg::ZERO, 0);
        assert_eq!(br.kind(), InstructionKind::Branch);
        assert!(br.is_control());

        let mul = Instruction::int_op(
            AluOp::Mul,
            IntReg::new(1),
            IntReg::new(2),
            Operand::Reg(IntReg::new(3)),
        );
        assert_eq!(mul.kind(), InstructionKind::IntMul);
    }

    #[test]
    fn fp_compute_excludes_fp_mem() {
        let fpadd = Instruction::fp_op(FpOp::Add, FpReg::new(0), FpReg::new(1), FpReg::new(2));
        assert!(fpadd.is_fp_compute());
        let fpld = Instruction::LoadFp {
            dst: FpReg::new(0),
            base: IntReg::new(1),
            offset: 0,
        };
        assert!(!fpld.is_fp_compute());
        assert_eq!(fpld.kind(), InstructionKind::Load);
    }

    #[test]
    fn display_is_nonempty() {
        let insts = [
            Instruction::Nop,
            Instruction::Fence,
            Instruction::jump(3),
            Instruction::load(IntReg::new(1), IntReg::new(2), -8),
        ];
        for i in insts {
            assert!(!i.to_string().is_empty());
        }
    }
}
