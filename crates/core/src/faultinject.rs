//! Deterministic fault injection for the crash-safety layer.
//!
//! Every recovery path in the sweep engine — panic-isolated workers,
//! checksummed result-store records, non-fatal journal-append failures —
//! is exercised by *injecting* the corresponding fault at a chosen,
//! reproducible point rather than waiting for a real one. A [`FaultPlan`]
//! names those points two ways:
//!
//! * **explicit**: `panic@3,flip@1,torn@2,enospc@0` — panic the worker
//!   that runs sweep-cell 3, bit-flip the 2nd record appended to the
//!   result store this run, write the 3rd as a torn (truncated) line,
//!   and fail the 1st append with a simulated out-of-space error;
//! * **seeded**: `seed:1234` — a splitmix64-derived pseudo-random plan
//!   where each cell panics with probability 1/8 and each appended
//!   record is corrupted or dropped with probability 3/32. The same seed
//!   always yields the same plan, so a failing run reproduces exactly.
//!
//! Cell indices refer to a sweep's *full* deterministic cell list (the
//! order the figure binary builds it in), so a plan means the same thing
//! on a cold run and on a `--resume` run — a cell replayed from the
//! store never reaches its worker, so its injected panic never fires,
//! which is exactly the recovery semantics under test.
//!
//! Each seeded decision is [`splitmix_finalize`] of the seed and the
//! index: a full-avalanche hash, so per-index fault decisions (and
//! [`crate::retry::Backoff`] jitter draws) are independent draws of a
//! seeded stream.

use rat_isa::hash::splitmix_finalize;

/// What to do to one record appended to the result store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordFault {
    /// Flip one bit inside the checksummed payload (silent corruption;
    /// the loader must catch it via the record checksum).
    BitFlip,
    /// Write only a prefix of the record line (a torn write, as a kill
    /// mid-append would leave).
    Torn,
    /// Fail the append with a simulated `ENOSPC`; nothing is written.
    Enospc,
}

#[derive(Clone, Debug, Default)]
struct ExplicitPlan {
    panics: Vec<usize>,
    flips: Vec<u64>,
    torn: Vec<u64>,
    enospc: Vec<u64>,
}

#[derive(Clone, Debug)]
enum PlanKind {
    Explicit(ExplicitPlan),
    Seeded(u64),
}

/// A deterministic schedule of injected faults (see the module docs for
/// the spec grammar).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    kind: PlanKind,
    spec: String,
}

impl FaultPlan {
    /// Parses a plan spec: either `seed:N` or a comma-separated list of
    /// `panic@CELL`, `flip@REC`, `torn@REC`, `enospc@REC` tokens.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty fault plan".into());
        }
        if let Some(seed) = spec.strip_prefix("seed:") {
            let seed: u64 = seed
                .trim()
                .parse()
                .map_err(|_| format!("bad seed in fault plan {spec:?}"))?;
            return Ok(FaultPlan {
                kind: PlanKind::Seeded(seed),
                spec: spec.to_string(),
            });
        }
        let mut plan = ExplicitPlan::default();
        for token in spec.split(',') {
            let token = token.trim();
            let (kind, idx) = token
                .split_once('@')
                .ok_or_else(|| format!("bad fault token {token:?} (want kind@index)"))?;
            let idx: u64 = idx
                .parse()
                .map_err(|_| format!("bad index in fault token {token:?}"))?;
            match kind {
                "panic" => plan.panics.push(idx as usize),
                "flip" => plan.flips.push(idx),
                "torn" => plan.torn.push(idx),
                "enospc" => plan.enospc.push(idx),
                _ => {
                    return Err(format!(
                        "unknown fault kind {kind:?} (want panic/flip/torn/enospc)"
                    ))
                }
            }
        }
        Ok(FaultPlan {
            kind: PlanKind::Explicit(plan),
            spec: spec.to_string(),
        })
    }

    /// Whether the worker computing sweep-cell `cell` must panic.
    pub fn should_panic(&self, cell: usize) -> bool {
        match &self.kind {
            PlanKind::Explicit(p) => p.panics.contains(&cell),
            PlanKind::Seeded(seed) => {
                splitmix_finalize(seed ^ 0x50A1_C0DE ^ cell as u64).is_multiple_of(8)
            }
        }
    }

    /// The fault (if any) to apply to the `append`-th record written to
    /// the result store this run (0-based, counting actual appends).
    pub fn record_fault(&self, append: u64) -> Option<RecordFault> {
        match &self.kind {
            PlanKind::Explicit(p) => {
                if p.flips.contains(&append) {
                    Some(RecordFault::BitFlip)
                } else if p.torn.contains(&append) {
                    Some(RecordFault::Torn)
                } else if p.enospc.contains(&append) {
                    Some(RecordFault::Enospc)
                } else {
                    None
                }
            }
            PlanKind::Seeded(seed) => match splitmix_finalize(seed ^ 0x0BAD_F11E ^ append) % 32 {
                0 => Some(RecordFault::BitFlip),
                1 => Some(RecordFault::Torn),
                2 => Some(RecordFault::Enospc),
                _ => None,
            },
        }
    }

    /// The spec string this plan was parsed from (for reports).
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_hits_exact_indices() {
        let p = FaultPlan::parse("panic@3, panic@7,flip@1,torn@2,enospc@0").unwrap();
        assert!(p.should_panic(3) && p.should_panic(7));
        assert!(!p.should_panic(0) && !p.should_panic(4));
        assert_eq!(p.record_fault(1), Some(RecordFault::BitFlip));
        assert_eq!(p.record_fault(2), Some(RecordFault::Torn));
        assert_eq!(p.record_fault(0), Some(RecordFault::Enospc));
        assert_eq!(p.record_fault(3), None);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_sparse() {
        let a = FaultPlan::parse("seed:99").unwrap();
        let b = FaultPlan::parse("seed:99").unwrap();
        let panics: Vec<bool> = (0..256).map(|i| a.should_panic(i)).collect();
        assert_eq!(
            panics,
            (0..256).map(|i| b.should_panic(i)).collect::<Vec<_>>()
        );
        let n_panics = panics.iter().filter(|&&x| x).count();
        assert!(
            n_panics > 8 && n_panics < 80,
            "seeded panic rate should be ~1/8 of 256, got {n_panics}"
        );
        let faults: Vec<_> = (0..256).map(|i| a.record_fault(i)).collect();
        assert_eq!(
            faults,
            (0..256).map(|i| b.record_fault(i)).collect::<Vec<_>>()
        );
        assert!(faults.iter().any(|f| f.is_some()), "some record faults");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::parse("seed:1").unwrap();
        let b = FaultPlan::parse("seed:2").unwrap();
        let pa: Vec<bool> = (0..512).map(|i| a.should_panic(i)).collect();
        let pb: Vec<bool> = (0..512).map(|i| b.should_panic(i)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("panic3").is_err());
        assert!(FaultPlan::parse("explode@2").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("seed:abc").is_err());
    }

    #[test]
    fn spec_roundtrip() {
        let p = FaultPlan::parse("panic@1,flip@0").unwrap();
        assert_eq!(p.spec(), "panic@1,flip@0");
    }
}
