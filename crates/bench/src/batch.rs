//! The lockstep batch engine (ISSUE 10 tentpole).
//!
//! [`run_batch`] advances up to `width` independent simulations in
//! lockstep on one thread: a shared outer loop round-robins
//! [`rat_core::SLICE_CYCLES`]-cycle slices (the same quantum the
//! `--cell-timeout` watchdog uses) across the live slots, harvests each
//! cell's [`MixResult`] the moment it finishes, and refills the slot
//! from the pending queue. Because `run_until_quota` is resumable,
//! interleaving slices from many cells changes nothing about any cell's
//! numbers — every result is bit-identical to the plain per-cell path
//! at any batch width (`tests/batch_lockstep.rs`).
//!
//! **Image sharing**: a policy matrix simulates the same
//! `(benchmark, seed)` thread images once per policy; the engine
//! generates each unique image once per queue and rebuilds CPUs from
//! the cache instead of regenerating. Images compute their arrays on
//! demand, so what sharing saves is the code emission and the eager
//! pointer-chase list (mcf's 2 MiB list is the largest).
//!
//! Fault containment matches the non-batch path exactly: each slot's
//! admission and every slice run under `catch_unwind`, so a panicking
//! cell (real bug or `--fault-plan` injection, which fires here with
//! the same message at the same deterministic cell index) costs exactly
//! its own slot while the rest of the batch proceeds.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rat_core::{
    parallel, CellError, CellErrorKind, FaultPlan, MixResult, MixRun, StepOutcome, SLICE_CYCLES,
};
use rat_workload::{Benchmark, ThreadImage};

use crate::sweep::SweepCell;

/// How [`run_batch`] schedules and generates. The `share_images` knob
/// exists for perfbench's `sweep12_batch8_noshare` ablation cell; sweeps
/// always run with it on.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Simulations advanced in lockstep per worker (≥ 1).
    pub width: usize,
    /// Share generated `(benchmark, seed)` images across the worker's
    /// whole queue (bit-identical: CPUs are rebuilt per cell from the
    /// cached image, exactly what regeneration would produce).
    pub share_images: bool,
}

impl BatchOptions {
    /// The production configuration at a given lockstep width.
    pub fn new(width: usize) -> BatchOptions {
        BatchOptions {
            width: width.max(1),
            share_images: true,
        }
    }
}

/// One in-flight cell: its resumable run plus the wall clock it has
/// personally consumed (time spent in *other* slots' slices does not
/// count against a cell's `--cell-timeout` budget).
struct Slot<'a> {
    ci: usize,
    run: MixRun<'a>,
    spent: Duration,
    budget: Option<Duration>,
}

/// Runs `queue` (indices into `cells`) through a `width`-wide lockstep
/// engine, reporting each cell's outcome through `on_cell` the moment
/// it is known (the harvest-on-finish callback: the sweep layer
/// journals there, the server streams `RESULT` lines there). Every
/// queued index gets exactly one `on_cell` call.
pub fn run_batch(
    cells: &[SweepCell<'_>],
    queue: &[usize],
    opts: &BatchOptions,
    fault_plan: Option<&FaultPlan>,
    cell_timeout: Option<Duration>,
    deadline: Option<Instant>,
    on_cell: &mut dyn FnMut(usize, Result<MixResult, CellError>),
) {
    let mut cache: HashMap<(Benchmark, u64), ThreadImage> = HashMap::new();
    let mut pending = queue.iter().copied();
    let mut slots: Vec<Slot<'_>> = Vec::with_capacity(opts.width);
    loop {
        // Refill every free slot from the queue (admission failures —
        // injected panics, an expired deadline — consume the cell).
        while slots.len() < opts.width {
            let Some(ci) = pending.next() else { break };
            match admit(
                cells,
                ci,
                opts,
                &mut cache,
                fault_plan,
                cell_timeout,
                deadline,
            ) {
                Ok(slot) => slots.push(slot),
                Err(e) => on_cell(ci, Err(e)),
            }
        }
        if slots.is_empty() {
            return;
        }
        // One scheduling round: every live slot gets one quantum.
        let mut i = 0;
        while i < slots.len() {
            if let Some(reason) = timed_out(&slots[i], deadline) {
                let s = slots.swap_remove(i);
                on_cell(s.ci, Err(CellError::timeout(s.ci, reason)));
                continue;
            }
            let slot = &mut slots[i];
            let t0 = Instant::now();
            let stepped = catch_unwind(AssertUnwindSafe(|| slot.run.step(SLICE_CYCLES)));
            slot.spent += t0.elapsed();
            match stepped {
                Ok(StepOutcome::Running) => i += 1,
                Ok(StepOutcome::Finished(r)) => {
                    let s = slots.swap_remove(i);
                    on_cell(s.ci, Ok(r));
                }
                Err(payload) => {
                    let s = slots.swap_remove(i);
                    on_cell(
                        s.ci,
                        Err(CellError {
                            index: s.ci,
                            kind: CellErrorKind::Panic,
                            message: parallel::panic_message(payload),
                        }),
                    );
                }
            }
        }
    }
}

/// The cell's wall-clock verdict before a slice: its own spent time
/// against its admission-time budget, and the whole-request deadline
/// (checked directly too — lockstep interleaving spends wall clock a
/// per-cell budget cannot see).
fn timed_out(slot: &Slot<'_>, deadline: Option<Instant>) -> Option<String> {
    let over_budget = slot.budget.is_some_and(|b| slot.spent >= b);
    let past_deadline = deadline.is_some_and(|d| Instant::now() >= d);
    (over_budget || past_deadline).then(|| {
        format!(
            "abandoned after {:.3}s of wall clock",
            slot.spent.as_secs_f64()
        )
    })
}

/// Builds one cell's simulation (under `catch_unwind`, where the fault
/// plan's injected panic fires with the same message and index as on
/// the non-batch path) and arms its wall-clock budget exactly as
/// `run_cells` does.
fn admit<'a>(
    cells: &[SweepCell<'a>],
    ci: usize,
    opts: &BatchOptions,
    cache: &mut HashMap<(Benchmark, u64), ThreadImage>,
    fault_plan: Option<&FaultPlan>,
    cell_timeout: Option<Duration>,
    deadline: Option<Instant>,
) -> Result<Slot<'a>, CellError> {
    let mut budget = cell_timeout;
    if let Some(deadline) = deadline {
        let now = Instant::now();
        if now >= deadline {
            return Err(CellError::timeout(
                ci,
                "request deadline expired before the cell started",
            ));
        }
        let left = deadline - now;
        budget = Some(budget.map_or(left, |b| b.min(left)));
    }
    let admitted = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = fault_plan {
            if plan.should_panic(ci) {
                panic!("injected fault: worker panic at cell {ci}");
            }
        }
        let cell = &cells[ci];
        let seed = cell.runner.run_config().seed;
        let cpus = cell
            .mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let key = (b, seed + i as u64);
                if opts.share_images {
                    cache
                        .entry(key)
                        .or_insert_with(|| ThreadImage::generate(b, key.1))
                        .build_cpu()
                } else {
                    ThreadImage::generate(b, key.1).build_cpu()
                }
            })
            .collect();
        cell.runner
            .begin_mix_with_cpus(&cell.mix, cell.policy, cpus)
    }));
    match admitted {
        Ok(run) => Ok(Slot {
            ci,
            run,
            spent: Duration::ZERO,
            budget,
        }),
        Err(payload) => Err(CellError {
            index: ci,
            kind: CellErrorKind::Panic,
            message: parallel::panic_message(payload),
        }),
    }
}
