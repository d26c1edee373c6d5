//! # rat-workload — synthetic SPEC CPU2000-like workloads
//!
//! The paper evaluates on SPEC CPU2000 Alpha binaries. Those are not
//! redistributable (and we have no Alpha toolchain), so this crate provides
//! the substitution described in `DESIGN.md`: for every benchmark named in
//! Table 2 of the paper, a **deterministic synthetic program** over the
//! [`rat_isa`] instruction set whose *microarchitectural profile* — working
//! set size, memory instruction fraction, FP share, branch predictability,
//! and the shape of its memory-level parallelism (streaming vs. random vs.
//! pointer-chasing) — matches the published characterization of that
//! benchmark.
//!
//! The three access shapes matter because they interact differently with
//! Runahead Threads:
//!
//! * **streaming** (art, swim, mgrid…): independent loads over a large
//!   array — runahead runs ahead and prefetches future lines, huge MLP;
//! * **random** (twolf, vpr…): LCG-generated addresses — independent, so
//!   runahead still exposes MLP;
//! * **pointer-chasing** (mcf, parser…): each load's address depends on the
//!   previous load's value — after the first miss the chase register is INV
//!   and runahead cannot prefetch the chain, exactly the hard case for
//!   runahead execution.
//!
//! An image is a pure function of `(benchmark, seed)`, and none of its
//! memory is written at generation. The stream and hot arrays are never
//! filled: the generator's splitmix64 draw `k` is a pure function of the
//! state, so every word is computed from its address when read. The
//! pointer-chase list reads the Sattolo permutation it was drawn as, one
//! `u32` per node. A store keeps only the word it writes, so a thread
//! holds only the words it stores, [`ThreadImage::memory_words`] is
//! zero, and generating an image and building CPUs from it copy no
//! memory even for the 12 MiB MEM working sets.
//!
//! # Example
//!
//! ```
//! use rat_workload::{Benchmark, ThreadImage};
//!
//! let img = ThreadImage::generate(Benchmark::Mcf, 42);
//! let mut cpu = img.build_cpu();
//! for _ in 0..1000 {
//!     cpu.step(); // functionally executes the synthetic mcf loop
//! }
//! assert_eq!(cpu.retired(), 1000);
//! ```

mod generator;
mod mixes;
mod profile;
mod rng;

pub use generator::ThreadImage;
pub use mixes::{mixes_for_group, Mix, WorkloadGroup, ALL_GROUPS};
pub use profile::{Benchmark, BenchmarkProfile, ThreadClass, ALL_BENCHMARKS};
pub use rng::WorkloadRng;
