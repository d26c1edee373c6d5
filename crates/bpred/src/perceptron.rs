//! The perceptron branch predictor (Jiménez & Lin, HPCA 2001), the
//! predictor named in Table 1 of the paper.

use crate::history::GlobalHistory;
use crate::Predictor;

/// A table of perceptrons indexed by a PC hash. Each perceptron holds a
/// bias weight plus one weight per history bit; the prediction is the sign
/// of the dot product of the weights with the ±1-encoded history.
///
/// Training follows the original algorithm: on a misprediction, or when the
/// output magnitude is at most the threshold `theta`, every weight is
/// nudged toward the observed outcome with saturation.
#[derive(Clone, Debug)]
pub struct PerceptronPredictor {
    weights: Vec<i16>,
    table_size: usize,
    history_len: usize,
    theta: i32,
}

impl PerceptronPredictor {
    /// Perceptrons in the reproduction's table (Table 1: 1024 entries).
    pub const TABLE_SIZE: usize = 1024;
    /// Global-history bits each perceptron weighs (Table 1: 32).
    pub const HISTORY_LEN: usize = 32;

    /// Creates a predictor with `table_size` perceptrons (power of two) over
    /// `history_len` history bits (at most 63). The simulator uses
    /// [`PerceptronPredictor::hpca2008_default`]; other geometries serve
    /// this module's tests.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` is not a power of two or `history_len > 63`.
    fn new(table_size: usize, history_len: usize) -> Self {
        assert!(
            table_size.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(history_len <= 63, "history length must be at most 63");
        // Optimal threshold from the original paper: ⌊1.93 h + 14⌋.
        let theta = (1.93 * history_len as f64 + 14.0).floor() as i32;
        PerceptronPredictor {
            weights: vec![0; table_size * (history_len + 1)],
            table_size,
            history_len,
            theta,
        }
    }

    /// The configuration used for the paper reproduction:
    /// [`Self::TABLE_SIZE`] perceptrons over [`Self::HISTORY_LEN`] bits
    /// of global history.
    pub fn hpca2008_default() -> Self {
        Self::new(Self::TABLE_SIZE, Self::HISTORY_LEN)
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Instructions are 4 bytes; mix in higher PC bits for spread.
        let word = pc >> 2;
        ((word ^ (word >> 10)) as usize) & (self.table_size - 1)
    }

    #[inline]
    fn output(&self, idx: usize, history: &GlobalHistory) -> i32 {
        let base = idx * (self.history_len + 1);
        let row = &self.weights[base..base + 1 + self.history_len];
        // Branch-free ±weight accumulation (the history bits are
        // near-random, so a data-dependent branch per bit mispredicts
        // constantly and defeats vectorization). `sign` is +1 for a
        // taken history bit, -1 otherwise — identical arithmetic to the
        // branching form.
        let mut y = row[0] as i32; // bias
        let bits = history.bits();
        for (i, &w) in row[1..].iter().enumerate() {
            let sign = (((bits >> i) & 1) as i32) * 2 - 1;
            y += sign * w as i32;
        }
        y
    }

    /// The training threshold θ.
    pub fn theta(&self) -> i32 {
        self.theta
    }
}

const WEIGHT_MAX: i16 = 127;
const WEIGHT_MIN: i16 = -128;

#[inline]
fn saturating_bump(w: &mut i16, up: bool) {
    if up {
        if *w < WEIGHT_MAX {
            *w += 1;
        }
    } else if *w > WEIGHT_MIN {
        *w -= 1;
    }
}

impl Predictor for PerceptronPredictor {
    fn predict(&self, pc: u64, history: &GlobalHistory) -> bool {
        self.output(self.index(pc), history) >= 0
    }

    fn train(&mut self, pc: u64, history: &GlobalHistory, outcome: bool, predicted: bool) {
        let idx = self.index(pc);
        let y = self.output(idx, history);
        if predicted != outcome || y.abs() <= self.theta {
            let base = idx * (self.history_len + 1);
            saturating_bump(&mut self.weights[base], outcome);
            let bits = history.bits();
            for i in 0..self.history_len {
                // Agreeing (history bit == outcome) weights move up.
                let agree = ((bits >> i) & 1 == 1) == outcome;
                saturating_bump(&mut self.weights[base + 1 + i], agree);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern<F: Fn(u64) -> bool>(p: &mut PerceptronPredictor, pattern: F, n: u64) -> f64 {
        let mut h = GlobalHistory::new();
        let mut correct = 0u64;
        for i in 0..n {
            let pc = 0x1000;
            let outcome = pattern(i);
            let pred = p.predict(pc, &h);
            if pred == outcome {
                correct += 1;
            }
            p.train(pc, &h, outcome, pred);
            h.push(outcome);
        }
        correct as f64 / n as f64
    }

    #[test]
    fn learns_always_taken() {
        let mut p = PerceptronPredictor::new(64, 16);
        let acc = run_pattern(&mut p, |_| true, 500);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut p = PerceptronPredictor::new(64, 16);
        let acc = run_pattern(&mut p, |i| i % 2 == 0, 2000);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // taken 7 times, not-taken once (loop of 8 iterations).
        let mut p = PerceptronPredictor::new(64, 16);
        let acc = run_pattern(&mut p, |i| i % 8 != 7, 4000);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn theta_matches_formula() {
        let p = PerceptronPredictor::new(64, 32);
        assert_eq!(p.theta(), (1.93 * 32.0 + 14.0) as i32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_table_panics() {
        PerceptronPredictor::new(100, 16);
    }

    #[test]
    fn weights_saturate() {
        let mut p = PerceptronPredictor::new(8, 4);
        let h = GlobalHistory::new();
        for _ in 0..10_000 {
            let pred = p.predict(0, &h);
            p.train(0, &h, true, pred);
        }
        // No overflow panic and still predicting taken.
        assert!(p.predict(0, &h));
    }
}
