//! Deterministic fault injection for the crash-safety layer.
//!
//! Every recovery path in the sweep engine — panic-isolated workers,
//! checksummed result-store records, non-fatal journal-append failures —
//! is exercised by *injecting* the corresponding fault at a chosen,
//! reproducible point rather than waiting for a real one. A [`FaultPlan`]
//! names those points explicitly: `panic@3,flip@1,torn@2,enospc@0`
//! panics the worker that runs sweep-cell 3, bit-flips the 2nd record
//! appended to the result store this run, writes the 3rd as a torn
//! (truncated) line, and fails the 1st append with a simulated
//! out-of-space error.
//!
//! Cell indices refer to a sweep's *full* deterministic cell list (the
//! order the figure binary builds it in), so a plan means the same thing
//! on a cold run and on a `--resume` run — a cell replayed from the
//! store never reaches its worker, so its injected panic never fires,
//! which is exactly the recovery semantics under test.

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

/// A deterministic schedule of injected faults (see the module docs for
/// the spec grammar).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    panics: Vec<usize>,
    flips: Vec<u64>,
    torn: Vec<u64>,
    enospc: Vec<u64>,
}

impl FaultPlan {
    /// Parses a plan spec: a comma-separated list of `panic@CELL`,
    /// `flip@REC`, `torn@REC` and `enospc@REC` tokens.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty fault plan".into());
        }
        let mut plan = FaultPlan::default();
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
        Ok(plan)
    }

    /// Whether the worker computing sweep-cell `cell` must panic.
    pub fn should_panic(&self, cell: usize) -> bool {
        self.panics.contains(&cell)
    }

    /// The fault (if any) to apply to the `append`-th record written to
    /// the result store this run (0-based, counting actual appends).
    pub fn record_fault(&self, append: u64) -> Option<RecordFault> {
        if self.flips.contains(&append) {
            Some(RecordFault::BitFlip)
        } else if self.torn.contains(&append) {
            Some(RecordFault::Torn)
        } else if self.enospc.contains(&append) {
            Some(RecordFault::Enospc)
        } else {
            None
        }
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
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("panic3").is_err());
        assert!(FaultPlan::parse("explode@2").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("seed:abc").is_err());
        assert!(FaultPlan::parse("seed:7").is_err());
    }
}
