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
//! the current state. [`WorkloadRng::advance`] rides on that: it skips
//! `n` draws in O(1). A workload image records the state at the start of
//! each random-valued region and skips past it, so any word of the
//! region can be computed later from its address alone.

/// splitmix64's fixed odd state increment (2⁶⁴/φ, Weyl sequence).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function: finalizes one state value into one
/// uniform output word.
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

    const SEEDS: [u64; 6] = [0, 1, 42, 0xDEAD_BEEF, u64::MAX - 3, u64::MAX];

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
