//! # rat-bpred — the branch direction predictor
//!
//! Table 1 of the paper specifies a **perceptron** branch predictor; this
//! crate implements it, behind the [`Predictor`] trait. Its geometry is
//! fixed: [`PerceptronPredictor::hpca2008_default`] builds
//! [`PerceptronPredictor::TABLE_SIZE`] perceptrons (1024) over
//! [`PerceptronPredictor::HISTORY_LEN`] bits of global history (32).
//!
//! In an SMT processor the predictor *tables* are shared by all hardware
//! threads (creating constructive/destructive aliasing) while each thread
//! keeps its own global-history register. The [`Predictor`] trait therefore
//! takes an explicit per-thread history argument; the pipeline owns one
//! [`GlobalHistory`] per thread.
//!
//! # Example
//!
//! ```
//! use rat_bpred::{PerceptronPredictor, Predictor, GlobalHistory};
//!
//! let mut p = PerceptronPredictor::hpca2008_default();
//! let mut hist = GlobalHistory::new();
//! let pc = 0x40u64;
//! let pred = p.predict(pc, &hist);
//! p.train(pc, &hist, true, pred);
//! hist.push(true);
//! ```

mod history;
mod perceptron;

pub use history::GlobalHistory;
pub use perceptron::PerceptronPredictor;

/// A branch direction predictor with shared tables and caller-owned
/// per-thread history.
pub trait Predictor {
    /// Predicts the direction of the branch at `pc` given the requesting
    /// thread's global history.
    fn predict(&self, pc: u64, history: &GlobalHistory) -> bool;

    /// Trains the predictor with the resolved `outcome`. `predicted` is the
    /// direction that was predicted at fetch (perceptron training depends on
    /// whether the prediction was correct and on the output magnitude).
    fn train(&mut self, pc: u64, history: &GlobalHistory, outcome: bool, predicted: bool);
}

/// Accuracy bookkeeping shared by the pipeline's predictor wrapper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Mispredictions among them.
    pub mispredictions: u64,
}

impl PredictorStats {
    /// Records one resolved prediction.
    pub fn record(&mut self, correct: bool) {
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
    }

    /// Fraction of correct predictions (1.0 when nothing was predicted).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accuracy() {
        let mut s = PredictorStats::default();
        assert_eq!(s.accuracy(), 1.0);
        s.record(true);
        s.record(true);
        s.record(false);
        s.record(true);
        assert_eq!(s.predictions, 4);
        assert_eq!(s.mispredictions, 1);
        assert!((s.accuracy() - 0.75).abs() < 1e-12);
    }
}
