//! A small deterministic PRNG for workload generation.
//!
//! The container builds offline, so instead of an external `rand`
//! dependency the generator uses this splitmix64 stream. Workload images
//! are part of the experiment definition: the same `(benchmark, seed)`
//! pair must produce the identical program on every host and toolchain,
//! which a fully specified in-repo generator guarantees.
//!
//! splitmix64 advances its state by a fixed odd gamma per draw, so the
//! `k`-th upcoming output is a pure function `mix(state + k·GAMMA)` of
//! the current state. Two operations ride on that:
//!
//! * [`WorkloadRng::advance`] skips `n` draws in O(1). A workload image
//!   records the state at the start of each random-valued region and
//!   skips past it, so any word of the region can be computed later
//!   from its address alone.
//! * [`WorkloadRng::next_block`] computes the next `k` outputs of the
//!   stream lane-parallel: a block of consecutive outputs has no
//!   loop-carried dependence, so the autovectorizer can lower the
//!   per-lane mix to SIMD. An image fills a line through it.

/// splitmix64's fixed odd state increment (2⁶⁴/φ, Weyl sequence).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function: finalizes one state value into one
/// uniform output word. Pure, so blocks and lanes can apply it in
/// parallel.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic splitmix64 generator.
#[derive(Clone, Debug)]
pub struct WorkloadRng(u64);

impl WorkloadRng {
    /// Seeds the stream (mirrors `SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Self {
        WorkloadRng(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix(self.0)
    }

    /// Skips the next `n` draws: afterwards the stream continues
    /// exactly as after `n` [`WorkloadRng::next_u64`] calls.
    pub fn advance(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(GAMMA.wrapping_mul(n));
    }

    /// Fills `out` with the stream's next `out.len()` outputs —
    /// bit-identical to that many [`WorkloadRng::next_u64`] calls, but
    /// without a loop-carried dependence: within each chunk the lane
    /// states are `state + (i+1)·GAMMA` and the mix applies per lane,
    /// a shape the autovectorizer lowers to SIMD. Workload images fill
    /// a line through this.
    pub fn next_block(&mut self, out: &mut [u64]) {
        const LANES: usize = 8;
        let mut chunks = out.chunks_exact_mut(LANES);
        for chunk in chunks.by_ref() {
            let base = self.0;
            let mut states = [0u64; LANES];
            for (i, s) in states.iter_mut().enumerate() {
                *s = base.wrapping_add(GAMMA.wrapping_mul(i as u64 + 1));
            }
            for (dst, s) in chunk.iter_mut().zip(states) {
                *dst = mix(s);
            }
            self.0 = base.wrapping_add(GAMMA.wrapping_mul(LANES as u64));
        }
        for dst in chunks.into_remainder() {
            *dst = self.next_u64();
        }
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Modulo bias is negligible for the small bounds used here
        // (≤ 2^20 ≪ 2^64) and keeps the stream position deterministic.
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.gen_f64() * (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = WorkloadRng::seed_from_u64(42);
        let mut b = WorkloadRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = WorkloadRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = WorkloadRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..256 {
            let v = r.below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = WorkloadRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    fn block_matches_scalar_and_resumes() {
        // Interleaving block and scalar draws must track one stream.
        let mut wide = WorkloadRng::seed_from_u64(7);
        let mut scalar = WorkloadRng::seed_from_u64(7);
        let mut buf = [0u64; 13];
        wide.next_block(&mut buf);
        for &v in &buf {
            assert_eq!(v, scalar.next_u64());
        }
        assert_eq!(wide.next_u64(), scalar.next_u64(), "state resumes");
    }

    const SEEDS: [u64; 6] = [0, 1, 42, 0xDEAD_BEEF, u64::MAX - 3, u64::MAX];

    #[test]
    fn next_block_matches_scalar_for_every_length() {
        for &seed in &SEEDS {
            for len in 0..=33usize {
                let mut blocked = WorkloadRng::seed_from_u64(seed);
                let mut scalar = WorkloadRng::seed_from_u64(seed);
                let mut buf = vec![0u64; len];
                blocked.next_block(&mut buf);
                for (i, &v) in buf.iter().enumerate() {
                    assert_eq!(v, scalar.next_u64(), "seed {seed} len {len} draw {i}");
                }
                // The stream must resume at the same position.
                for _ in 0..4 {
                    assert_eq!(blocked.next_u64(), scalar.next_u64());
                }
            }
        }
    }

    #[test]
    fn next_block_interleaves_with_scalar_draws() {
        let mut blocked = WorkloadRng::seed_from_u64(9);
        let mut scalar = WorkloadRng::seed_from_u64(9);
        for round in 0..8 {
            let len = (round * 5) % 17;
            let mut buf = vec![0u64; len];
            blocked.next_block(&mut buf);
            for &v in &buf {
                assert_eq!(v, scalar.next_u64());
            }
            assert_eq!(blocked.next_u64(), scalar.next_u64());
        }
    }

    #[test]
    fn advance_skips_exactly_n_draws() {
        for &seed in &SEEDS {
            for n in [0u64, 1, 2, 7, 256, 1 << 20] {
                let mut skipped = WorkloadRng::seed_from_u64(seed);
                skipped.advance(n);
                let mut drawn = WorkloadRng::seed_from_u64(seed);
                for _ in 0..n {
                    drawn.next_u64();
                }
                for _ in 0..4 {
                    assert_eq!(skipped.next_u64(), drawn.next_u64(), "seed {seed} n {n}");
                }
            }
        }
    }
}
