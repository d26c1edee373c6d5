//! The simulation [`Runner::run_mix`] performs, driven by hand, shared by
//! `tests/cell_timeout.rs` and `tests/cycle_skip.rs`: each
//! `run_until_quota` call gets the cycle count a slicing function
//! returns, and cycle skipping can be switched off. Neither may change
//! the result: both suites compare it with `Runner::run_mix` bit for bit.

use rat_core::smt::{PolicyKind, SmtSimulator};
use rat_core::workload::Mix;
use rat_core::{MixResult, Runner};

/// Simulates `mix` under `policy` as [`Runner::run_mix`] does (warm-up,
/// stats reset, measurement with post-quota drain), with cycle skipping
/// on or off as `skip` says, giving each `run_until_quota` call the
/// cycle count `slice` returns for the current cycle, within each
/// phase's `max_cycles` budget. `&mut |_| u64::MAX` runs each phase in
/// one call, as `run_mix` does.
pub fn run_driven(
    runner: &Runner,
    mix: &Mix,
    policy: PolicyKind,
    skip: bool,
    slice: &mut dyn FnMut(u64) -> u64,
) -> MixResult {
    let run = *runner.run_config();
    let mut sim = runner.simulator(mix, policy);
    sim.set_cycle_skip(skip);
    let mut phase = |sim: &mut SmtSimulator, quota: u64| {
        let mut left = run.max_cycles;
        loop {
            let step = slice(sim.cycles()).clamp(1, left);
            let reached = sim.run_until_quota(quota, step);
            left -= step;
            if reached || left == 0 {
                return reached;
            }
        }
    };
    phase(&mut sim, run.warmup_insts);
    sim.reset_stats();
    sim.set_quota_drain(!run.no_drain);
    let complete = phase(&mut sim, run.insts_per_thread);
    runner.result(&sim, mix, policy, complete)
}
