//! Fetch policies and dynamic resource-control schemes.
//!
//! * **ICOUNT** — the classic SMT fetch priority (Tullsen et al.,
//!   ISCA-23), the paper's baseline.
//! * **STALL** — ICOUNT plus fetch-gating a thread with a pending L2 miss
//!   (Tullsen & Brown, MICRO-34).
//! * **FLUSH** — STALL plus squashing the blocked thread's instructions
//!   after the missing load, releasing all its resources (same paper).
//! * **DCRA** — dynamically controlled resource allocation (Cazorla et
//!   al., MICRO-37): threads classified fast/slow by in-flight L1D misses;
//!   slow threads receive a larger entitlement of issue-queue entries and
//!   registers, and threads exceeding their entitlement are dispatch-gated.
//! * **Hill Climbing** — learning-based partitioning (Choi & Yeung,
//!   ISCA-33), the throughput-guided "Hill-Thru" variant: epoch-based
//!   trials perturb per-thread resource shares and keep the best.
//! * **RaT** — Runahead Threads: ICOUNT fetch plus the runahead mechanism
//!   (implemented in the pipeline; its one setting is `RunaheadVariant`).

use crate::types::ThreadId;

/// The fetch / resource-management policy under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// ICOUNT fetch priority (paper baseline).
    Icount,
    /// ICOUNT + fetch-gating threads with pending L2 misses.
    Stall,
    /// STALL + flushing the blocked thread's post-miss instructions.
    Flush,
    /// ICOUNT + DCRA dynamic resource caps.
    Dcra,
    /// ICOUNT + Hill Climbing resource partitioning.
    Hill,
    /// ICOUNT + Runahead Threads (the paper's proposal).
    Rat,
}

impl PolicyKind {
    /// Whether the runahead mechanism is active under this policy.
    pub fn uses_runahead(self) -> bool {
        matches!(self, PolicyKind::Rat)
    }

    /// Display name used in reports (matches the paper's figure legends).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Icount => "ICOUNT",
            PolicyKind::Stall => "STALL",
            PolicyKind::Flush => "FLUSH",
            PolicyKind::Dcra => "DCRA",
            PolicyKind::Hill => "HILL",
            PolicyKind::Rat => "RaT",
        }
    }

    /// Parses a display name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "icount" => Some(PolicyKind::Icount),
            "stall" => Some(PolicyKind::Stall),
            "flush" => Some(PolicyKind::Flush),
            "dcra" => Some(PolicyKind::Dcra),
            "hill" | "hillclimbing" => Some(PolicyKind::Hill),
            "rat" | "runahead" => Some(PolicyKind::Rat),
            _ => None,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// DCRA entitlement of thread `tid`: its share of `total` entries of a
/// resource, proportional to its weight in `weights` and floored
/// (0-weight threads get 0 — e.g. integer-only threads claim no FP
/// registers). When no thread has weight, every thread is entitled to
/// the whole resource.
pub fn dcra_cap(total: usize, weights: &[f64], tid: usize) -> usize {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        return total;
    }
    ((total as f64) * weights[tid] / sum).floor() as usize
}

/// The DCRA weight of a thread: `slow_weight` for memory-intensive (slow)
/// threads, 1 for fast threads, 0 for threads that do not use the
/// resource class at all.
pub fn dcra_weight(slow: bool, uses_resource: bool, slow_weight: f64) -> f64 {
    if !uses_resource {
        0.0
    } else if slow {
        slow_weight
    } else {
        1.0
    }
}

/// Hill-climbing (Hill-Thru) share controller.
///
/// Operates in rounds of `n_threads + 1` epochs: one epoch measures the
/// base shares, then one trial epoch per thread with that thread's share
/// boosted by `delta`. At the end of a round the configuration with the
/// best committed-instruction throughput becomes the new base.
#[derive(Clone, Debug)]
pub struct HillState {
    n: usize,
    base: Vec<f64>,
    shares: Vec<f64>,
    epoch_len: u64,
    delta: f64,
    next_boundary: u64,
    committed_at_epoch: u64,
    /// index 0 = base epoch, 1..=n = trial for thread i-1
    phase: usize,
    results: Vec<f64>,
    /// Reusable scratch for in-place rebalances (a rebalance is
    /// allocation-free; the old implementation cloned `base` on every
    /// adjustment).
    scratch: Vec<f64>,
}

impl HillState {
    /// Creates a controller for `n` threads with equal initial shares.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `epoch_len == 0`.
    pub fn new(n: usize, epoch_len: u64, delta: f64) -> Self {
        assert!(n > 0, "need at least one thread");
        assert!(epoch_len > 0, "epoch length must be positive");
        HillState {
            n,
            base: vec![1.0 / n as f64; n],
            shares: vec![1.0 / n as f64; n],
            epoch_len,
            delta,
            next_boundary: epoch_len,
            committed_at_epoch: 0,
            phase: 0,
            results: Vec::with_capacity(n + 1),
            scratch: Vec::with_capacity(n),
        }
    }

    /// The current share of `tid` (fraction of each partitioned resource).
    pub fn share(&self, tid: ThreadId) -> f64 {
        self.shares[tid]
    }

    /// The cycle of the next epoch boundary — the only cycle at which
    /// shares can change, and hence a clock-skip bound for the Hill
    /// policy.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Computes the trial configuration boosting `boosted` from `base`
    /// into `out` (cleared first). A free function over disjoint field
    /// borrows so callers can write straight into `shares` or `scratch`.
    fn compute_trial(base: &[f64], boosted: usize, delta: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(base);
        let boost = (out[boosted] + delta).min(0.90);
        let scale: f64 = (1.0 - boost) / (1.0 - base[boosted]).max(1e-9);
        for (i, v) in out.iter_mut().enumerate() {
            if i == boosted {
                *v = boost;
            } else {
                *v = (*v * scale).max(0.05);
            }
        }
        // Renormalize to 1.
        let sum: f64 = out.iter().sum();
        for v in out {
            *v /= sum;
        }
    }

    /// Allocating convenience wrapper over [`Self::compute_trial`].
    #[cfg(test)]
    fn trial_shares(&self, boosted: usize) -> Vec<f64> {
        let mut out = Vec::new();
        Self::compute_trial(&self.base, boosted, self.delta, &mut out);
        out
    }

    /// Advances the controller; call once per cycle with the cumulative
    /// committed-instruction count. Returns `true` when an epoch boundary
    /// was crossed (shares may have changed).
    pub fn on_cycle(&mut self, now: u64, total_committed: u64) -> bool {
        if now < self.next_boundary {
            return false;
        }
        let ipc = (total_committed - self.committed_at_epoch) as f64 / self.epoch_len as f64;
        self.results.push(ipc);
        self.committed_at_epoch = total_committed;
        self.next_boundary = now + self.epoch_len;

        if self.phase < self.n {
            // Start next trial: boost thread `phase` (written in place).
            Self::compute_trial(&self.base, self.phase, self.delta, &mut self.shares);
            self.phase += 1;
        } else {
            // Round over: adopt the best configuration as the new base.
            let (best_idx, _) = self
                .results
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("ipc is finite"))
                .expect("at least the base epoch result");
            if best_idx > 0 {
                // `base` is both input and output: stage through scratch.
                Self::compute_trial(&self.base, best_idx - 1, self.delta, &mut self.scratch);
                self.base.copy_from_slice(&self.scratch);
            }
            self.shares.copy_from_slice(&self.base);
            self.results.clear();
            self.phase = 0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        for p in [
            PolicyKind::Icount,
            PolicyKind::Stall,
            PolicyKind::Flush,
            PolicyKind::Dcra,
            PolicyKind::Hill,
            PolicyKind::Rat,
        ] {
            assert_eq!(PolicyKind::from_name(p.name()), Some(p));
        }
        assert!(PolicyKind::from_name("bogus").is_none());
        assert!(PolicyKind::Rat.uses_runahead());
        assert!(!PolicyKind::Flush.uses_runahead());
    }

    #[test]
    fn from_name_is_case_insensitive_and_knows_aliases() {
        assert_eq!(PolicyKind::from_name("RaT"), Some(PolicyKind::Rat));
        assert_eq!(PolicyKind::from_name("RUNAHEAD"), Some(PolicyKind::Rat));
        assert_eq!(PolicyKind::from_name("Icount"), Some(PolicyKind::Icount));
        assert_eq!(PolicyKind::from_name("RR"), None);
        assert_eq!(PolicyKind::from_name("HILL"), Some(PolicyKind::Hill));
        assert_eq!(
            PolicyKind::from_name("HillClimbing"),
            Some(PolicyKind::Hill)
        );
        assert_eq!(PolicyKind::from_name(""), None);
    }

    #[test]
    fn display_matches_name() {
        for p in [PolicyKind::Icount, PolicyKind::Rat, PolicyKind::Dcra] {
            assert_eq!(p.to_string(), p.name());
        }
    }

    /// Every thread's [`dcra_cap`] over `weights`.
    fn dcra_caps(total: usize, weights: &[f64]) -> Vec<usize> {
        (0..weights.len())
            .map(|tid| dcra_cap(total, weights, tid))
            .collect()
    }

    #[test]
    fn dcra_caps_proportional() {
        let caps = dcra_caps(100, &[1.0, 4.0]);
        assert_eq!(caps, vec![20, 80]);
        let caps = dcra_caps(64, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(caps, vec![16, 16, 16, 16]);
    }

    #[test]
    fn dcra_caps_sum_never_exceeds_total() {
        // Entitlements are floored shares, so however the weights fall the
        // caps can never overcommit the resource.
        let weight_sets: &[&[f64]] = &[
            &[1.0],
            &[1.0, 4.0],
            &[4.0, 4.0, 1.0],
            &[0.3, 0.7, 1.9, 4.0],
            &[1e-3, 4.0, 1.0, 1.0, 4.0, 0.5, 2.5, 3.3],
        ];
        for &weights in weight_sets {
            for total in [4usize, 17, 64, 100, 320] {
                let caps = dcra_caps(total, weights);
                assert_eq!(caps.len(), weights.len());
                assert!(
                    caps.iter().sum::<usize>() <= total,
                    "caps {caps:?} overcommit {total} for weights {weights:?}"
                );
            }
        }
    }

    #[test]
    fn dcra_slow_threads_outrank_fast_threads() {
        // A slow (memory-intensive) thread's entitlement must be at least
        // a fast thread's, for any slow-weight ≥ 1 and any resource size.
        for slow_weight in [1.0, 2.0, 4.0, 8.0] {
            for total in [16usize, 64, 256] {
                let weights = [
                    dcra_weight(true, true, slow_weight),
                    dcra_weight(false, true, slow_weight),
                    dcra_weight(true, true, slow_weight),
                    dcra_weight(false, true, slow_weight),
                ];
                let caps = dcra_caps(total, &weights);
                assert!(
                    caps[0] >= caps[1] && caps[2] >= caps[3],
                    "slow threads under-entitled: {caps:?} (w={slow_weight}, total={total})"
                );
                // Same-class threads are entitled identically.
                assert_eq!(caps[0], caps[2]);
                assert_eq!(caps[1], caps[3]);
            }
        }
    }

    #[test]
    fn dcra_nonusers_get_nothing_when_others_use() {
        // An integer-only thread claims no FP registers while an FP user
        // is present (weight 0 ⇒ cap 0).
        let weights = [
            dcra_weight(false, false, 4.0),
            dcra_weight(false, true, 4.0),
        ];
        let caps = dcra_caps(100, &weights);
        assert_eq!(caps[0], 0);
        assert_eq!(caps[1], 100);
    }

    #[test]
    fn dcra_zero_weight_means_unlimited_for_all_when_no_user() {
        // No thread uses the resource: no cap pressure.
        let caps = dcra_caps(100, &[0.0, 0.0]);
        assert_eq!(caps, vec![100, 100]);
    }

    #[test]
    fn dcra_weight_logic() {
        assert_eq!(dcra_weight(true, true, 4.0), 4.0);
        assert_eq!(dcra_weight(false, true, 4.0), 1.0);
        assert_eq!(dcra_weight(true, false, 4.0), 0.0);
    }

    #[test]
    fn hill_shares_sum_to_one() {
        let mut h = HillState::new(4, 100, 0.05);
        let mut committed = 0;
        for now in 1..=2000u64 {
            committed += if h.share(0) > 0.3 { 8 } else { 4 }; // fake: thread 0 boost helps
            h.on_cycle(now, committed);
            let sum: f64 = (0..4).map(|t| h.share(t)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "shares sum {sum}");
        }
    }

    #[test]
    fn hill_moves_toward_productive_thread() {
        let mut h = HillState::new(2, 50, 0.10);
        let mut committed = 0u64;
        for now in 1..=20_000u64 {
            // Synthetic objective: throughput rises with thread 0's share.
            committed += (h.share(0) * 16.0) as u64;
            h.on_cycle(now, committed);
        }
        assert!(
            h.share(0) > 0.6,
            "hill climbing should boost thread 0, got {}",
            h.share(0)
        );
    }

    #[test]
    fn trial_boost_is_bounded() {
        let h = HillState::new(2, 10, 0.5);
        let s = h.trial_shares(0);
        assert!(s[0] <= 0.91);
        assert!(s[1] >= 0.05 / 1.05);
    }
}
