//! Minimal argument parsing shared by the figure binaries.

use rat_core::{FaultPlan, RunConfig};
use rat_smt::PolicyKind;

/// Common harness options.
///
/// Flags: `--insts N` (per-thread measurement quota), `--warmup N`,
/// `--mixes N` (mixes per group), `--seed N`, `--threads N` (simulation
/// worker threads, 0 = all cores, 1 = serial), `--csv` (machine-readable
/// output for plotting), `--no-skip` (step every cycle — the
/// cycle-skipping ablation), `--no-drain` (keep every thread at full
/// fidelity past its quota — the FAME-overshoot ablation), `--resume
/// PATH` (result journal, single-thread references included),
/// `--fault-plan SPEC`, `--cell-timeout SECS` (wall-clock watchdog per
/// sweep cell), `--policies A,B,..`, `--quick` (tiny preset).
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Per-thread committed-instruction quota for measurement.
    pub insts: u64,
    /// Per-thread warmup instructions before stats reset.
    pub warmup: u64,
    /// Number of Table 2 mixes per group to run (0 = all).
    pub mixes: usize,
    /// Base RNG seed for workload generation.
    pub seed: u64,
    /// Worker threads for the sweep (0 = all cores, 1 = serial). The
    /// numeric output is identical at any thread count.
    pub threads: usize,
    /// Emit CSV (titles as `#` comment lines) instead of aligned text.
    pub csv: bool,
    /// Disable event-driven cycle skipping (wall-clock ablation; the
    /// simulated numbers are bit-identical either way).
    pub no_skip: bool,
    /// Disable post-quota drain mode (the paper's literal FAME
    /// procedure: every thread runs at full fidelity until the slowest
    /// reaches its quota). Per-thread measurement windows are
    /// bit-identical either way; post-overlap shared-resource timing
    /// drifts within the bound measured by `tests/quota_drain.rs`.
    pub no_drain: bool,
    /// Journal path for the crash-safe result store: completed cells —
    /// the single-thread reference runs among them — persist here the
    /// moment they finish, and a re-invocation with the same path
    /// replays them and recomputes only missing/failed cells — output is
    /// bit-identical to an uninterrupted run.
    pub resume: Option<String>,
    /// Deterministic fault-injection plan
    /// (see [`rat_core::FaultPlan::parse`]): `panic@CELL`, `flip@REC`,
    /// `torn@REC`, `enospc@REC` tokens, or `seed:N`.
    pub fault_plan: Option<String>,
    /// Per-cell wall-clock watchdog in seconds: a cell still simulating
    /// after this long is abandoned as a timeout failure while the rest
    /// of the sweep completes. `0` times every computed cell out
    /// immediately (deterministic; used by tests). `None` = no limit.
    pub cell_timeout: Option<f64>,
    /// Restrict (and reorder) the sweep's policy set: comma-separated
    /// policy names resolved by [`PolicyKind::from_name`]. `None` keeps
    /// each figure's full default set.
    pub policies: Option<Vec<String>>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            insts: 30_000,
            warmup: 20_000,
            mixes: 0,
            seed: 42,
            threads: 0,
            csv: false,
            no_skip: false,
            no_drain: false,
            resume: None,
            fault_plan: None,
            cell_timeout: None,
            policies: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut out = HarnessArgs::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let num = |args: &mut std::iter::Peekable<_>| -> u64 {
                let v: Option<String> = Iterator::next(args);
                v.and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("expected a number after {a}"))
            };
            match a.as_str() {
                "--insts" => out.insts = num(&mut args),
                "--warmup" => out.warmup = num(&mut args),
                "--mixes" => out.mixes = num(&mut args) as usize,
                "--seed" => out.seed = num(&mut args),
                "--threads" => out.threads = num(&mut args) as usize,
                "--csv" => out.csv = true,
                "--no-skip" => out.no_skip = true,
                "--no-drain" => out.no_drain = true,
                "--resume" => {
                    out.resume = Some(
                        args.next()
                            .unwrap_or_else(|| panic!("expected a path after --resume")),
                    );
                }
                "--fault-plan" => {
                    let spec = args
                        .next()
                        .unwrap_or_else(|| panic!("expected a plan after --fault-plan"));
                    // Validate now so a typo fails before any simulation.
                    if let Err(e) = FaultPlan::parse(&spec) {
                        panic!("--fault-plan: {e}");
                    }
                    out.fault_plan = Some(spec);
                }
                "--cell-timeout" => {
                    let secs: f64 = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| panic!("expected seconds (>= 0) after --cell-timeout"));
                    out.cell_timeout = Some(secs);
                }
                "--policies" => {
                    let list = args
                        .next()
                        .unwrap_or_else(|| panic!("expected a list after --policies"));
                    let names: Vec<String> = list
                        .split(',')
                        .map(|p| {
                            let p = p.trim();
                            if PolicyKind::from_name(p).is_none() {
                                panic!("--policies: unknown policy {p:?}");
                            }
                            p.to_string()
                        })
                        .collect();
                    if names.is_empty() {
                        panic!("--policies: empty list");
                    }
                    out.policies = Some(names);
                }
                "--quick" => {
                    out.insts = 8_000;
                    out.warmup = 3_000;
                    out.mixes = 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --insts N  --warmup N  --mixes N (0=all)  --seed N  \
                         --threads N (0=all cores, 1=serial)  --csv  \
                         --resume PATH (crash-safe result journal; replay + recompute)  \
                         --fault-plan SPEC (panic@C,flip@R,torn@R,enospc@R or seed:N)  \
                         --cell-timeout SECS (abandon a cell still simulating after SECS)  \
                         --policies A,B,.. (restrict the policy set)  \
                         --no-skip  --no-drain  --quick"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other}"),
            }
        }
        out
    }

    /// Parses the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The policy set a sweep should run: `default` (the figure's
    /// definition) unless `--policies` was given, in which case the
    /// requested policies in the requested order. The names were
    /// validated at parse time, so resolution cannot fail.
    pub fn filter_policies(&self, default: &[PolicyKind]) -> Vec<PolicyKind> {
        match &self.policies {
            None => default.to_vec(),
            Some(names) => names
                .iter()
                .map(|n| PolicyKind::from_name(n).expect("validated at parse time"))
                .collect(),
        }
    }

    /// The [`RunConfig`] these arguments describe (remaining fields from
    /// [`RunConfig::default`]).
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            insts_per_thread: self.insts,
            warmup_insts: self.warmup,
            seed: self.seed,
            no_skip: self.no_skip,
            no_drain: self.no_drain,
            ..RunConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = HarnessArgs::default();
        assert!(a.insts > 0 && a.warmup > 0);
        assert_eq!(a.mixes, 0);
        assert_eq!(a.threads, 0, "default uses all cores");
        assert!(!a.no_skip);
        assert!(!a.no_drain, "drain mode is on by default");
    }

    #[test]
    fn parse_flags() {
        let a = HarnessArgs::parse(
            [
                "--insts",
                "100",
                "--warmup",
                "5",
                "--mixes",
                "3",
                "--seed",
                "7",
                "--threads",
                "2",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(a.insts, 100);
        assert_eq!(a.warmup, 5);
        assert_eq!(a.mixes, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn quick_preset() {
        let a = HarnessArgs::parse(["--quick"].iter().map(|s| s.to_string()));
        assert!(a.insts < HarnessArgs::default().insts);
    }

    #[test]
    fn csv_flag() {
        assert!(!HarnessArgs::default().csv);
        let a = HarnessArgs::parse(["--csv"].iter().map(|s| s.to_string()));
        assert!(a.csv);
    }

    #[test]
    fn no_skip_and_no_drain_flags() {
        let a = HarnessArgs::parse(["--no-skip", "--no-drain"].iter().map(|s| s.to_string()));
        assert!(a.no_skip);
        assert!(a.run_config().no_skip);
        assert!(a.no_drain);
        assert!(a.run_config().no_drain);
    }

    #[test]
    fn resume_and_fault_plan_flags() {
        let a = HarnessArgs::parse(
            [
                "--resume",
                "/tmp/sweep.journal",
                "--fault-plan",
                "panic@2,flip@0",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(a.resume.as_deref(), Some("/tmp/sweep.journal"));
        assert_eq!(a.fault_plan.as_deref(), Some("panic@2,flip@0"));
    }

    #[test]
    fn cell_timeout_flag() {
        assert!(HarnessArgs::default().cell_timeout.is_none());
        let a = HarnessArgs::parse(["--cell-timeout", "2.5"].iter().map(|s| s.to_string()));
        assert_eq!(a.cell_timeout, Some(2.5));
        let z = HarnessArgs::parse(["--cell-timeout", "0"].iter().map(|s| s.to_string()));
        assert_eq!(z.cell_timeout, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "--cell-timeout")]
    fn negative_cell_timeout_fails_fast() {
        HarnessArgs::parse(["--cell-timeout", "-1"].iter().map(|s| s.to_string()));
    }

    #[test]
    #[should_panic(expected = "--fault-plan")]
    fn bad_fault_plan_fails_fast() {
        HarnessArgs::parse(["--fault-plan", "explode@9"].iter().map(|s| s.to_string()));
    }

    #[test]
    fn policies_filter_resolves_and_reorders() {
        let a = HarnessArgs::parse(["--policies", "rat,icount"].iter().map(|s| s.to_string()));
        let filtered = a.filter_policies(&[PolicyKind::Icount, PolicyKind::Flush]);
        assert_eq!(filtered, vec![PolicyKind::Rat, PolicyKind::Icount]);
        // Without the flag, the figure's default set is untouched.
        let d = HarnessArgs::default().filter_policies(&[PolicyKind::Flush]);
        assert_eq!(d, vec![PolicyKind::Flush]);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_fails_fast() {
        HarnessArgs::parse(["--policies", "icount,bogus"].iter().map(|s| s.to_string()));
    }

    #[test]
    fn run_config_mirrors_args() {
        let a = HarnessArgs::parse(
            ["--insts", "123", "--warmup", "45", "--seed", "6"]
                .iter()
                .map(|s| s.to_string()),
        );
        let rc = a.run_config();
        assert_eq!(rc.insts_per_thread, 123);
        assert_eq!(rc.warmup_insts, 45);
        assert_eq!(rc.seed, 6);
        assert!(!rc.no_skip);
    }
}
