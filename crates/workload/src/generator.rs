//! Turns a [`BenchmarkProfile`] into an executable synthetic program plus
//! its initialized memory image.

use std::sync::Arc;

use rat_isa::{
    AluOp, BranchCond, Cpu, FpOp, FpReg, Instruction as I, IntReg, MemorySource, Operand, Pc,
    Program, SparseMemory, LINE_WORDS,
};

use crate::profile::{Benchmark, BenchmarkProfile, ThreadClass};
use crate::rng::WorkloadRng;

// ---- fixed register allocation for generated programs ----
const R_STREAM_BASE: u8 = 1;
const R_STREAM_CUR: u8 = 2;
const R_CHASE: u8 = 3;
const R_LCG: u8 = 4;
const R_HOT_BASE: u8 = 5;
const R_ITER: u8 = 6;
const R_STREAM_MASK: u8 = 7;
const R_STREAM_LINE: u8 = 8;
const R_RAND_ADDR: u8 = 13;
const R_BR_TMP: u8 = 11;
/// First of the integer "rotation" registers fed by loads and compute.
const R_ROT_BASE: u8 = 16;
const R_ROT_COUNT: u8 = 12;
/// FP rotation registers.
const F_ROT_COUNT: u8 = 12;

// ---- disjoint data regions (per-thread virtual addresses) ----
const STREAM_BASE: u64 = 0x1000_0000;
const HOT_BASE: u64 = 0x3000_0000;
const CHASE_BASE: u64 = 0x5000_0000;
const LINE: u64 = 64;
/// Bytes per line of the functional memory (its storage granule).
const MEM_LINE: u64 = (LINE_WORDS * 8) as u64;

const LCG_A: i64 = 6364136223846793005u64 as i64;
const LCG_C: i64 = 1442695040888963407u64 as i64;

/// Number of instructions targeted for one loop body (the static loop is
/// re-executed forever, so this also bounds the I-cache footprint: about
/// 4 KiB of instructions, comfortably I-cache resident like SPEC loops).
const BODY_TARGET: usize = 1024;

/// A ready-to-simulate thread context: the synthetic program, its
/// initialized data memory, and the initial register values.
///
/// Build one per hardware thread with [`ThreadImage::generate`], then turn
/// it into a functional context with [`ThreadImage::build_cpu`].
///
/// The image is a pure function of `(benchmark, seed)`. None of its
/// memory is filled: the random-valued stream and hot arrays (up to
/// 12 MiB on the MEM benchmarks) are computed from the address on
/// demand, the pointer-chase list reads a permutation kept as one `u32`
/// per node, and a 64-byte line is materialized only when a store first
/// reaches it. So generating an image writes no memory, building CPUs
/// from it copies none, and a thread holds only the lines it stores to.
#[derive(Clone, Debug)]
pub struct ThreadImage {
    bench: Benchmark,
    program: Program,
    memory: SparseMemory,
    init_regs: Vec<(IntReg, u64)>,
    init_fps: Vec<(FpReg, f64)>,
}

impl ThreadImage {
    /// Generates the deterministic synthetic program for `bench`. The same
    /// `(bench, seed)` pair always yields the identical image.
    pub fn generate(bench: Benchmark, seed: u64) -> Self {
        Generator::new(bench.profile(), seed).build()
    }

    /// Number of 64-bit words materialized at generation (whole lines):
    /// zero, since every region of the image is computed on demand.
    pub fn memory_words(&self) -> u64 {
        self.memory.resident_words() as u64
    }

    /// The benchmark this image reproduces.
    pub fn benchmark(&self) -> Benchmark {
        self.bench
    }

    /// The benchmark's ILP/MEM class.
    pub fn class(&self) -> ThreadClass {
        self.bench.class()
    }

    /// The generated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Instantiates a functional CPU context: program + a memory over a
    /// shared handle to the image's on-demand content (no frames to copy)
    /// + planted registers.
    pub fn build_cpu(&self) -> Cpu {
        let mut cpu = Cpu::with_memory(self.program.clone(), self.memory.clone());
        for &(r, v) in &self.init_regs {
            cpu.state_mut().set_int_reg(r, v);
        }
        for &(f, v) in &self.init_fps {
            cpu.state_mut().set_fp_reg(f, v);
        }
        cpu
    }
}

/// Internal emission token: one unit of workload behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Token {
    LoadStream,
    LoadRandom,
    LoadChase,
    StoreStream,
    StoreRandom,
    NoiseBranch,
    PredBranch,
    ComputeInt,
    ComputeFp,
}

struct Generator {
    prof: BenchmarkProfile,
    rng: WorkloadRng,
    code: Vec<I>,
    stream_pos: u32,
    int_rot: u8,
    fp_rot: u8,
    last_int_dst: IntReg,
    last_load_dst: IntReg,
    stream_bytes: u64,
    hot_bytes: u64,
    chase_nodes: u64,
}

fn pow2_at_least(bytes: u64) -> u64 {
    bytes.next_power_of_two().max(8 * 1024)
}

impl Generator {
    fn new(prof: BenchmarkProfile, seed: u64) -> Self {
        let ws_bytes = prof.ws_kb as u64 * 1024;
        let stream_bytes = pow2_at_least((ws_bytes as f64 * prof.stream.max(0.05)) as u64);
        let hot_bytes = pow2_at_least(prof.hot_kb as u64 * 1024);
        let chase_bytes = pow2_at_least((ws_bytes as f64 * prof.chase) as u64);
        Generator {
            prof,
            rng: WorkloadRng::seed_from_u64(seed ^ 0x5eed_0000),
            code: Vec::with_capacity(BODY_TARGET + 64),
            stream_pos: 0,
            int_rot: 0,
            fp_rot: 0,
            last_int_dst: IntReg::new(R_ROT_BASE),
            last_load_dst: IntReg::new(R_ROT_BASE),
            stream_bytes,
            hot_bytes,
            chase_nodes: (chase_bytes / LINE).max(16),
        }
    }

    fn next_int_dst(&mut self) -> IntReg {
        let r = IntReg::new(R_ROT_BASE + self.int_rot);
        self.int_rot = (self.int_rot + 1) % R_ROT_COUNT;
        self.last_int_dst = r;
        r
    }

    fn rand_rot_int(&mut self) -> IntReg {
        IntReg::new(R_ROT_BASE + self.rng.below(R_ROT_COUNT as u64) as u8)
    }

    fn next_fp_dst(&mut self) -> FpReg {
        let r = FpReg::new(self.fp_rot);
        self.fp_rot = (self.fp_rot + 1) % F_ROT_COUNT;
        r
    }

    fn rand_rot_fp(&mut self) -> FpReg {
        FpReg::new(self.rng.below(F_ROT_COUNT as u64) as u8)
    }

    fn emit_compute_int(&mut self) {
        let w: f64 = self.rng.gen_f64();
        let op = match w {
            x if x < 0.45 => AluOp::Add,
            x if x < 0.60 => AluOp::Sub,
            x if x < 0.70 => AluOp::And,
            x if x < 0.78 => AluOp::Or,
            x if x < 0.86 => AluOp::Xor,
            x if x < 0.91 => AluOp::Shl,
            x if x < 0.95 => AluOp::Shr,
            x if x < 0.99 => AluOp::Mul,
            _ => AluOp::Div,
        };
        let src1 = if self.rng.gen_bool(self.prof.dep_density) {
            self.last_int_dst
        } else {
            self.rand_rot_int()
        };
        let src2 = if self.rng.gen_bool(0.5) {
            Operand::Reg(self.rand_rot_int())
        } else {
            Operand::Imm(1 + self.rng.below(63) as i64)
        };
        let dst = self.next_int_dst();
        self.code.push(I::int_op(op, dst, src1, src2));
    }

    fn emit_compute_fp(&mut self) {
        let w: f64 = self.rng.gen_f64();
        let op = match w {
            x if x < 0.50 => FpOp::Add,
            x if x < 0.92 => FpOp::Mul,
            _ => FpOp::Div,
        };
        let src1 = if self.rng.gen_bool(self.prof.dep_density) {
            let prev = (self.fp_rot + F_ROT_COUNT - 1) % F_ROT_COUNT;
            FpReg::new(prev)
        } else {
            self.rand_rot_fp()
        };
        let src2 = self.rand_rot_fp();
        let dst = self.next_fp_dst();
        self.code.push(I::fp_op(op, dst, src1, src2));
    }

    /// Stream loads walk the stream region 8 bytes at a time; every eighth
    /// load advances the cursor one cache line (with wraparound) and
    /// recomputes the line address, so a streaming thread touches a new
    /// line every 8 loads — independent, prefetchable misses.
    fn emit_load_stream(&mut self, fp: bool) {
        if self.stream_pos == 0 {
            self.code.push(I::int_op(
                AluOp::Add,
                IntReg::new(R_STREAM_CUR),
                IntReg::new(R_STREAM_CUR),
                Operand::Imm(LINE as i64),
            ));
            self.code.push(I::int_op(
                AluOp::And,
                IntReg::new(R_STREAM_CUR),
                IntReg::new(R_STREAM_CUR),
                Operand::Reg(IntReg::new(R_STREAM_MASK)),
            ));
            self.code.push(I::int_op(
                AluOp::Add,
                IntReg::new(R_STREAM_LINE),
                IntReg::new(R_STREAM_BASE),
                Operand::Reg(IntReg::new(R_STREAM_CUR)),
            ));
        }
        let off = (self.stream_pos * 8) as i32;
        self.stream_pos = (self.stream_pos + 1) % 8;
        if fp {
            let dst = self.next_fp_dst();
            self.code.push(I::LoadFp {
                dst,
                base: IntReg::new(R_STREAM_LINE),
                offset: off,
            });
        } else {
            let dst = self.next_int_dst();
            self.last_load_dst = dst;
            self.code
                .push(I::load(dst, IntReg::new(R_STREAM_LINE), off));
        }
    }

    /// Random loads draw an address from an in-register LCG over the hot
    /// region. The address never depends on loaded data, so these misses
    /// are independent (high MLP) — and remain valid during runahead.
    fn emit_load_random(&mut self, fp: bool) {
        self.code.push(I::int_op(
            AluOp::Mul,
            IntReg::new(R_LCG),
            IntReg::new(R_LCG),
            Operand::Imm(LCG_A),
        ));
        self.code.push(I::int_op(
            AluOp::Add,
            IntReg::new(R_LCG),
            IntReg::new(R_LCG),
            Operand::Imm(LCG_C),
        ));
        self.code.push(I::int_op(
            AluOp::Shr,
            IntReg::new(R_RAND_ADDR),
            IntReg::new(R_LCG),
            Operand::Imm(17),
        ));
        self.code.push(I::int_op(
            AluOp::And,
            IntReg::new(R_RAND_ADDR),
            IntReg::new(R_RAND_ADDR),
            Operand::Imm((self.hot_bytes as i64 - 1) & !7),
        ));
        self.code.push(I::int_op(
            AluOp::Add,
            IntReg::new(R_RAND_ADDR),
            IntReg::new(R_RAND_ADDR),
            Operand::Reg(IntReg::new(R_HOT_BASE)),
        ));
        if fp {
            let dst = self.next_fp_dst();
            self.code.push(I::LoadFp {
                dst,
                base: IntReg::new(R_RAND_ADDR),
                offset: 0,
            });
        } else {
            let dst = self.next_int_dst();
            self.last_load_dst = dst;
            self.code.push(I::load(dst, IntReg::new(R_RAND_ADDR), 0));
        }
    }

    /// Pointer-chase loads serially follow a random cyclic list: the next
    /// address *is* the loaded value, so after one L2 miss the chain is
    /// unknown — runahead cannot prefetch it (the mcf pathology).
    fn emit_load_chase(&mut self) {
        self.code
            .push(I::load(IntReg::new(R_CHASE), IntReg::new(R_CHASE), 0));
    }

    fn emit_store_stream(&mut self) {
        let off = (self.rng.below(8) as u32 * 8) as i32;
        if self.prof.fp_fraction > 0.0 && self.rng.gen_bool(self.prof.fp_fraction) {
            let src = self.rand_rot_fp();
            self.code.push(I::StoreFp {
                src,
                base: IntReg::new(R_STREAM_LINE),
                offset: off,
            });
        } else {
            let src = self.rand_rot_int();
            self.code
                .push(I::store(src, IntReg::new(R_STREAM_LINE), off));
        }
    }

    fn emit_store_random(&mut self) {
        let src = self.rand_rot_int();
        self.code.push(I::store(src, IntReg::new(R_RAND_ADDR), 0));
    }

    /// A data-dependent, biased-random branch. Half of them test LCG bits
    /// (address-generator data: stays valid in runahead), half test the
    /// most recently loaded value (becomes INV in runahead, modeling the
    /// "most likely path" divergence the paper describes).
    fn emit_noise_branch(&mut self) {
        let taken_prob = self.rng.range_f64(0.55, 0.90);
        let threshold = (taken_prob * 256.0) as i64;
        let src = if self.rng.gen_bool(0.5) {
            IntReg::new(R_LCG)
        } else {
            self.last_load_dst
        };
        self.code.push(I::int_op(
            AluOp::Shr,
            IntReg::new(R_BR_TMP),
            src,
            Operand::Imm(25),
        ));
        self.code.push(I::int_op(
            AluOp::And,
            IntReg::new(R_BR_TMP),
            IntReg::new(R_BR_TMP),
            Operand::Imm(255),
        ));
        self.code.push(I::int_op(
            AluOp::SltU,
            IntReg::new(R_BR_TMP),
            IntReg::new(R_BR_TMP),
            Operand::Imm(threshold),
        ));
        self.emit_skip_branch(BranchCond::Ne, IntReg::new(R_BR_TMP), IntReg::ZERO);
    }

    /// A highly predictable branch: always-taken or never-taken.
    fn emit_pred_branch(&mut self) {
        if self.rng.gen_bool(0.5) {
            self.emit_skip_branch(BranchCond::Eq, IntReg::ZERO, IntReg::ZERO);
        } else {
            self.emit_skip_branch(BranchCond::Ne, IntReg::ZERO, IntReg::ZERO);
        }
    }

    /// Emits `cond ? skip fillers : fall through`, patching the target.
    fn emit_skip_branch(&mut self, cond: BranchCond, src1: IntReg, src2: IntReg) {
        let branch_idx = self.code.len();
        self.code.push(I::branch(cond, src1, src2, 0)); // patched below
        let fillers = 1 + self.rng.below(3);
        for _ in 0..fillers {
            self.emit_compute_int();
        }
        let target = self.code.len() as u32;
        if let I::Branch { target: t, .. } = &mut self.code[branch_idx] {
            *t = Pc::new(target);
        }
    }

    fn emit(&mut self, token: Token) {
        match token {
            Token::LoadStream => {
                let fp = self.rng.gen_bool(self.prof.fp_fraction);
                self.emit_load_stream(fp);
            }
            Token::LoadRandom => {
                let fp = self.rng.gen_bool(self.prof.fp_fraction);
                self.emit_load_random(fp);
            }
            Token::LoadChase => self.emit_load_chase(),
            Token::StoreStream => self.emit_store_stream(),
            Token::StoreRandom => self.emit_store_random(),
            Token::NoiseBranch => self.emit_noise_branch(),
            Token::PredBranch => self.emit_pred_branch(),
            Token::ComputeInt => self.emit_compute_int(),
            Token::ComputeFp => self.emit_compute_fp(),
        }
    }

    /// Emits the loop body: the profile's token mix, shuffled, then the
    /// loop-closing branch.
    fn emit_body(&mut self) {
        let prof = self.prof;
        let n_mem = (BODY_TARGET as f64 * prof.mem_fraction) as usize;
        let n_stores = (n_mem as f64 * prof.store_fraction) as usize;
        let n_loads = n_mem - n_stores;
        let n_chase = (n_loads as f64 * prof.chase) as usize;
        let n_random = (n_loads as f64 * prof.random) as usize;
        let n_stream = n_loads - n_chase - n_random;
        let n_branch = (BODY_TARGET as f64 * prof.branch_fraction) as usize;
        let n_noise = (n_branch as f64 * prof.branch_noise) as usize;
        let n_pred = n_branch - n_noise;

        let mut tokens = Vec::new();
        tokens.extend(std::iter::repeat_n(Token::LoadStream, n_stream));
        tokens.extend(std::iter::repeat_n(Token::LoadRandom, n_random));
        tokens.extend(std::iter::repeat_n(Token::LoadChase, n_chase));
        // Random stores need a valid R_RAND_ADDR; it is planted at init so
        // the first iteration is safe even if a store precedes any load.
        let n_store_random = (n_stores as f64 * prof.random) as usize;
        tokens.extend(std::iter::repeat_n(Token::StoreRandom, n_store_random));
        tokens.extend(std::iter::repeat_n(
            Token::StoreStream,
            n_stores - n_store_random,
        ));
        tokens.extend(std::iter::repeat_n(Token::NoiseBranch, n_noise));
        tokens.extend(std::iter::repeat_n(Token::PredBranch, n_pred));

        // Estimate the instruction overhead of the event tokens, then pad
        // with compute so the dynamic mix approximates the profile.
        let est_event_insts = n_stream as f64 * 1.4
            + n_random as f64 * 6.0
            + n_chase as f64
            + n_stores as f64
            + n_noise as f64 * 5.5
            + n_pred as f64 * 3.0;
        let n_compute = (BODY_TARGET as f64 - est_event_insts).max(0.0) as usize;
        let n_fp = (n_compute as f64 * prof.fp_fraction) as usize;
        tokens.extend(std::iter::repeat_n(Token::ComputeFp, n_fp));
        tokens.extend(std::iter::repeat_n(Token::ComputeInt, n_compute - n_fp));

        self.rng.shuffle(&mut tokens);
        for t in tokens {
            self.emit(t);
        }

        // Loop closing: count iterations and branch back (always taken, a
        // classic well-predicted backward branch).
        self.code.push(I::int_op(
            AluOp::Add,
            IntReg::new(R_ITER),
            IntReg::new(R_ITER),
            Operand::Imm(1),
        ));
        self.code
            .push(I::branch(BranchCond::GeU, IntReg::ZERO, IntReg::ZERO, 0));
    }

    fn build(mut self) -> ThreadImage {
        self.emit_body();
        let memory = SparseMemory::with_source(Arc::new(self.image_source()));
        let init_regs = vec![
            (IntReg::new(R_STREAM_BASE), STREAM_BASE),
            (IntReg::new(R_STREAM_CUR), 0),
            (IntReg::new(R_STREAM_LINE), STREAM_BASE),
            (IntReg::new(R_CHASE), CHASE_BASE),
            (IntReg::new(R_LCG), 0x9e37_79b9_7f4a_7c15),
            (IntReg::new(R_HOT_BASE), HOT_BASE),
            (IntReg::new(R_RAND_ADDR), HOT_BASE),
            (
                IntReg::new(R_STREAM_MASK),
                (self.stream_bytes - 1) & !(LINE - 1),
            ),
        ];
        let init_fps = (0..F_ROT_COUNT)
            .map(|i| (FpReg::new(i), 1.0 + i as f64 * 0.125))
            .collect();

        let prof = self.prof;
        let program = Program::with_entry(self.code, Pc::new(0), prof.bench.name());
        ThreadImage {
            bench: prof.bench,
            program,
            memory,
            init_regs,
            init_fps,
        }
    }

    /// Lays out the three data regions, all read on demand and none
    /// written: the random-valued stream and hot arrays (see [`Region`]),
    /// recorded at the RNG's current position with the RNG skipped past
    /// their draws, then a random cyclic pointer-chase list (one node per
    /// cache line so every hop is a new line).
    fn image_source(&mut self) -> ImageSource {
        let regions = [
            self.region(STREAM_BASE, self.stream_bytes),
            self.region(HOT_BASE, self.hot_bytes),
        ];
        // Random cyclic permutation via Sattolo's algorithm: guarantees a
        // single cycle visiting every node. The permutation is sequential,
        // so it is drawn here, from the stream position after the arrays.
        let n = u32::try_from(self.chase_nodes).expect("chase node count fits u32");
        let mut next: Vec<u32> = (0..n).collect();
        for i in (1..next.len()).rev() {
            let j = self.rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        ImageSource {
            regions,
            chase: next,
        }
    }

    /// One random-valued array of `bytes` at `base`, drawing from the
    /// RNG's current position; the RNG skips the array's draws.
    fn region(&mut self, base: u64, bytes: u64) -> Region {
        assert!(
            base.is_multiple_of(MEM_LINE) && bytes.is_multiple_of(MEM_LINE),
            "a region covers whole memory lines"
        );
        let region = Region {
            base,
            words: bytes / 8,
            rng: self.rng.clone(),
        };
        self.rng.advance(region.words / 2);
        region
    }
}

/// A random-valued array of a thread image: its word `w` (counted from
/// `base`) is draw `w / 2` of the generator's stream from `rng` when `w`
/// is even, and an FP value in `[1, 2)` when odd (values double as FP
/// data and as branch-noise sources). Any word is computable in O(1),
/// because splitmix64's draw `k` is a pure function of the state.
#[derive(Debug)]
struct Region {
    base: u64,
    words: u64,
    /// The generator's RNG before the region's first draw.
    rng: WorkloadRng,
}

impl Region {
    fn contains(&self, addr: u64) -> bool {
        addr.wrapping_sub(self.base) / 8 < self.words
    }

    /// The RNG positioned just before the draw of even word `w`.
    fn rng_at(&self, w: u64) -> WorkloadRng {
        let mut rng = self.rng.clone();
        rng.advance(w / 2);
        rng
    }
}

/// The value of a region's odd word `w`.
fn odd_word(w: u64) -> u64 {
    (1.0 + (w % 1024) as f64 / 1024.0_f64).to_bits()
}

/// The initial content of an image: its stream and hot arrays and its
/// pointer-chase list. Every other word is zero until written.
#[derive(Debug)]
struct ImageSource {
    regions: [Region; 2],
    /// Chase node `i` (the first word of line `i` from `CHASE_BASE`)
    /// points at node `chase[i]`; the rest of each node's line is zero.
    chase: Vec<u32>,
}

impl ImageSource {
    fn region_of(&self, addr: u64) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// The chase list's word at `addr`: a node's successor address, or
    /// zero off the node words and outside the list.
    fn chase_word(&self, addr: u64) -> u64 {
        let off = addr.wrapping_sub(CHASE_BASE);
        if !off.is_multiple_of(LINE) {
            return 0;
        }
        usize::try_from(off / LINE)
            .ok()
            .and_then(|i| self.chase.get(i))
            .map_or(0, |&next| CHASE_BASE + u64::from(next) * LINE)
    }
}

impl MemorySource for ImageSource {
    fn word(&self, addr: u64) -> u64 {
        let Some(r) = self.region_of(addr) else {
            return self.chase_word(addr);
        };
        let w = (addr - r.base) / 8;
        if w.is_multiple_of(2) {
            r.rng_at(w).next_u64()
        } else {
            odd_word(w)
        }
    }

    /// Draws the line's random words (its even offsets; regions are
    /// line-aligned, so a line starts at an even word) as one block and
    /// interleaves the odd words' FP values.
    fn fill_line(&self, line: u64, out: &mut [u64; LINE_WORDS]) {
        let addr = line * MEM_LINE;
        let Some(r) = self.region_of(addr) else {
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.chase_word(addr + 8 * i as u64);
            }
            return;
        };
        let w0 = (addr - r.base) / 8;
        let mut draws = [0u64; LINE_WORDS / 2];
        r.rng_at(w0).next_block(&mut draws);
        for (i, (pair, &draw)) in out.chunks_exact_mut(2).zip(&draws).enumerate() {
            pair[0] = draw;
            pair[1] = odd_word(w0 + 2 * i as u64 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_isa::InstructionKind;
    use std::collections::HashSet;

    impl Generator {
        /// The eager fill images used before their arrays became
        /// on-demand: every word of the stream and hot arrays written from
        /// sequential draws, then the chase list. The reference the
        /// on-demand image must match word for word.
        fn build_memory_eager(&mut self) -> SparseMemory {
            let mut mem = SparseMemory::new();
            for (base, bytes) in [(STREAM_BASE, self.stream_bytes), (HOT_BASE, self.hot_bytes)] {
                for w in 0..(bytes / 8) {
                    let v: u64 = if w % 2 == 0 {
                        self.rng.next_u64()
                    } else {
                        (1.0 + (w % 1024) as f64 / 1024.0_f64).to_bits()
                    };
                    mem.write_u64(base + w * 8, v);
                }
            }
            let n = self.chase_nodes as usize;
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = self.rng.below(i as u64) as usize;
                perm.swap(i, j);
            }
            for (i, &next_idx) in perm.iter().enumerate() {
                let node = CHASE_BASE + (i as u64) * LINE;
                let next = CHASE_BASE + (next_idx as u64) * LINE;
                mem.write_u64(node, next);
            }
            mem
        }
    }

    /// A generator positioned where image generation lays out memory.
    fn at_memory(bench: Benchmark, seed: u64) -> Generator {
        let mut g = Generator::new(bench.profile(), seed);
        g.emit_body();
        g
    }

    /// Checks one image against the eager reference: every word of the
    /// three regions and of one line on either side, through both the
    /// per-word read and the line fill, then 50k steps of execution.
    fn assert_matches_eager(bench: Benchmark, seed: u64) {
        let image = ThreadImage::generate(bench, seed);
        let mut g = at_memory(bench, seed);
        let reference = g.build_memory_eager();
        let source = at_memory(bench, seed).image_source();
        let spans = [
            (STREAM_BASE, g.stream_bytes),
            (HOT_BASE, g.hot_bytes),
            (CHASE_BASE, g.chase_nodes * LINE),
        ];
        let mut filled = [0u64; LINE_WORDS];
        for (base, bytes) in spans {
            for start in (base - MEM_LINE..base + bytes + MEM_LINE).step_by(MEM_LINE as usize) {
                source.fill_line(start / MEM_LINE, &mut filled);
                for (i, &fill) in filled.iter().enumerate() {
                    let addr = start + 8 * i as u64;
                    let want = reference.read_u64(addr);
                    let got = image.memory.read_u64(addr);
                    assert_eq!(got, want, "{bench} seed {seed}: read at {addr:#x}");
                    assert_eq!(fill, want, "{bench} seed {seed}: line fill at {addr:#x}");
                }
            }
        }
        let mut eager = ThreadImage {
            memory: reference,
            ..image.clone()
        }
        .build_cpu();
        let mut lazy = image.build_cpu();
        for step in 0..50_000 {
            let (a, b) = (lazy.step(), eager.step());
            assert!(
                (a.pc, a.eff_addr, a.result, a.taken) == (b.pc, b.eff_addr, b.result, b.taken),
                "{bench} seed {seed} step {step}: {a:?} vs {b:?}"
            );
        }
    }

    fn assert_seeds_match_eager(seeds: &[u64]) {
        for &seed in seeds {
            for &bench in crate::ALL_BENCHMARKS {
                assert_matches_eager(bench, seed);
            }
        }
    }

    #[test]
    fn on_demand_images_match_the_eager_fill_small_seeds() {
        assert_seeds_match_eager(&[0, 1, 42]);
    }

    #[test]
    fn on_demand_images_match_the_eager_fill_large_seeds() {
        assert_seeds_match_eager(&[0xDEAD_BEEF, u64::MAX - 3, u64::MAX]);
    }

    #[test]
    fn generation_materializes_nothing() {
        for seed in [0, 7, u64::MAX] {
            for &bench in crate::ALL_BENCHMARKS {
                let image = ThreadImage::generate(bench, seed);
                assert_eq!(
                    image.memory_words(),
                    0,
                    "{bench} seed {seed}: words materialized at generation"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ThreadImage::generate(Benchmark::Art, 7);
        let b = ThreadImage::generate(Benchmark::Art, 7);
        assert_eq!(a.program().len(), b.program().len());
        for (x, y) in a.program().iter().zip(b.program().iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ThreadImage::generate(Benchmark::Art, 1);
        let b = ThreadImage::generate(Benchmark::Art, 2);
        let same = a.program().len() == b.program().len()
            && a.program()
                .iter()
                .zip(b.program().iter())
                .all(|(x, y)| x == y);
        assert!(!same, "different seeds must yield different programs");
    }

    #[test]
    fn programs_execute_forever() {
        for &b in crate::ALL_BENCHMARKS {
            let img = ThreadImage::generate(b, 11);
            let mut cpu = img.build_cpu();
            for _ in 0..20_000 {
                cpu.step();
            }
            assert_eq!(cpu.retired(), 20_000, "{b}");
        }
    }

    fn dynamic_mix(bench: Benchmark, n: u64) -> (f64, f64, f64) {
        let img = ThreadImage::generate(bench, 3);
        let mut cpu = img.build_cpu();
        let (mut mem, mut br, mut fp) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            let r = cpu.step();
            match r.inst.kind() {
                InstructionKind::Load | InstructionKind::Store => mem += 1,
                InstructionKind::Branch => br += 1,
                InstructionKind::FpAdd | InstructionKind::FpMul | InstructionKind::FpDiv => fp += 1,
                _ => {}
            }
        }
        (
            mem as f64 / n as f64,
            br as f64 / n as f64,
            fp as f64 / n as f64,
        )
    }

    #[test]
    fn dynamic_mem_fraction_tracks_profile() {
        for bench in [Benchmark::Mcf, Benchmark::Gzip, Benchmark::Swim] {
            let p = bench.profile();
            let (mem, _, _) = dynamic_mix(bench, 30_000);
            assert!(
                mem > p.mem_fraction * 0.5 && mem < p.mem_fraction * 1.6,
                "{bench}: dynamic mem {mem:.3} vs profile {:.3}",
                p.mem_fraction
            );
        }
    }

    #[test]
    fn fp_benchmarks_execute_fp() {
        let (_, _, fp_swim) = dynamic_mix(Benchmark::Swim, 20_000);
        let (_, _, fp_gzip) = dynamic_mix(Benchmark::Gzip, 20_000);
        assert!(fp_swim > 0.1, "swim fp share {fp_swim}");
        assert_eq!(fp_gzip, 0.0, "gzip must be integer-only");
    }

    #[test]
    fn chase_visits_many_lines() {
        let img = ThreadImage::generate(Benchmark::Mcf, 5);
        let mut cpu = img.build_cpu();
        let mut chase_lines = HashSet::new();
        for _ in 0..60_000 {
            let r = cpu.step();
            if let Some(addr) = r.eff_addr {
                if (CHASE_BASE..CHASE_BASE + (1 << 30)).contains(&addr) {
                    chase_lines.insert(addr / LINE);
                }
            }
        }
        assert!(
            chase_lines.len() > 1000,
            "pointer chase must wander widely, visited {}",
            chase_lines.len()
        );
    }

    #[test]
    fn stream_addresses_advance_sequentially() {
        let img = ThreadImage::generate(Benchmark::Swim, 5);
        let mut cpu = img.build_cpu();
        let mut stream_lines = Vec::new();
        for _ in 0..30_000 {
            let r = cpu.step();
            if let Some(addr) = r.eff_addr {
                if (STREAM_BASE..HOT_BASE).contains(&addr) {
                    let line = addr / LINE;
                    if stream_lines.last() != Some(&line) {
                        stream_lines.push(line);
                    }
                }
            }
        }
        assert!(stream_lines.len() > 100);
        // Largely monotonic: each new line is the previous + 1 until wrap.
        let increments = stream_lines.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            increments as f64 > stream_lines.len() as f64 * 0.8,
            "stream should advance line by line"
        );
    }

    #[test]
    fn working_set_respected() {
        let img = ThreadImage::generate(Benchmark::Eon, 9);
        let mut cpu = img.build_cpu();
        for _ in 0..30_000 {
            let r = cpu.step();
            if let Some(addr) = r.eff_addr {
                assert!(
                    (STREAM_BASE..CHASE_BASE + (1 << 30)).contains(&addr),
                    "address {addr:#x} outside data regions"
                );
            }
        }
    }

    #[test]
    fn branches_have_mixed_outcomes() {
        let img = ThreadImage::generate(Benchmark::Twolf, 13);
        let mut cpu = img.build_cpu();
        let (mut taken, mut total) = (0u64, 0u64);
        for _ in 0..30_000 {
            let r = cpu.step();
            if r.inst.kind() == InstructionKind::Branch {
                total += 1;
                taken += r.taken as u64;
            }
        }
        let ratio = taken as f64 / total as f64;
        assert!(ratio > 0.2 && ratio < 0.98, "taken ratio {ratio}");
    }
}
