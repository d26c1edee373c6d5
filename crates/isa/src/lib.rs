//! # rat-isa — synthetic RISC ISA and functional emulator
//!
//! This crate defines the minimal-but-real instruction set used by the
//! Runahead Threads (HPCA 2008) reproduction, plus a deterministic
//! functional emulator over it.
//!
//! The ISA is a small load/store RISC machine:
//!
//! * 32 integer architectural registers (`r0` is hard-wired to zero),
//! * 32 floating-point architectural registers,
//! * 64-bit byte-addressable memory (8-byte aligned accesses),
//! * integer ALU/multiply/divide, FP add/multiply/divide,
//! * loads, stores, conditional branches and unconditional jumps.
//!
//! The emulator ([`Cpu`]) is *execute-at-fetch* friendly: each call to
//! [`Cpu::step`] executes exactly one instruction and returns an
//! [`ExecRecord`] carrying everything a timing model needs (effective
//! address, branch outcome, next PC). It only steps forward: the timing
//! model keeps the records of its in-flight instructions and re-fetches a
//! squashed span (a runahead exit, a FLUSH) from them, so the emulator
//! never checkpoints or rolls back, and its data memory
//! ([`SparseMemory`]) has a single write path. Unwritten memory reads an
//! optional initial-content source ([`MemorySource`]), or zero without
//! one, and a 64-byte line is materialized on its first write: a
//! workload's multi-megabyte arrays are computed on demand, not filled
//! up front, and a store holds one line, not a page.
//!
//! # Example
//!
//! ```
//! use rat_isa::{Cpu, Program, Instruction, AluOp, IntReg, Operand};
//!
//! let prog = Program::new(vec![
//!     Instruction::int_op(AluOp::Add, IntReg::new(1), IntReg::ZERO, Operand::Imm(40)),
//!     Instruction::int_op(AluOp::Add, IntReg::new(2), IntReg::new(1), Operand::Imm(2)),
//!     Instruction::jump(0),
//! ]);
//! let mut cpu = Cpu::new(prog);
//! cpu.step();
//! let rec = cpu.step();
//! assert_eq!(rec.pc.index(), 1);
//! assert_eq!(cpu.state().int_reg(IntReg::new(2)), 42);
//! ```

mod exec;
pub mod hash;
mod inst;
mod memory;
mod program;
mod reg;

pub use exec::{ArchState, Cpu, ExecRecord};
pub use inst::{AluOp, BranchCond, FpOp, Instruction, InstructionKind, Operand};
pub use memory::{MemorySource, SparseMemory, LINE_WORDS};
pub use program::{Pc, Program};
pub use reg::{ArchReg, FpReg, IntReg, NUM_FP_ARCH_REGS, NUM_INT_ARCH_REGS};
