//! Experiment execution: mixes, warmup, measurement, ST reference runs.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rat_isa::Cpu;
use rat_mem::MemEventStats;
use rat_smt::{PolicyKind, SmtConfig, SmtSimulator, ThreadStats};
use rat_workload::{Benchmark, Mix, ThreadImage};

use crate::lock::{get_mut_recover, lock_recover};
use crate::store::{atomic_write, fnv1a};
use crate::{metrics, parallel};

/// Measurement methodology parameters (instruction quotas, cycle bounds).
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Committed instructions per thread in the measurement window.
    pub insts_per_thread: u64,
    /// Committed instructions per thread before statistics reset (cache
    /// and predictor warmup).
    pub warmup_insts: u64,
    /// Hard cycle bound per phase (guards against pathological configs).
    pub max_cycles: u64,
    /// Base RNG seed; thread `i` of a mix uses `seed + i`.
    pub seed: u64,
    /// Disable the simulator's event-driven cycle skipping and step
    /// every cycle (the `--no-skip` ablation reference). Results are
    /// bit-identical either way; only wall-clock time differs.
    pub no_skip: bool,
    /// Disable post-quota drain mode and keep every thread at full
    /// fidelity until the slowest reaches its quota (the `--no-drain`
    /// ablation reference, and the paper's literal FAME procedure).
    /// Unlike `no_skip` this ablation is *not* bit-identical end to end:
    /// every statistic inside a thread's own measurement window matches
    /// exactly, but where one thread's window overlaps another's drain
    /// the shared-resource timing drifts within the bound measured by
    /// `tests/quota_drain.rs`.
    pub no_drain: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            insts_per_thread: 30_000,
            warmup_insts: 20_000,
            max_cycles: 400_000_000,
            seed: 42,
            no_skip: false,
            no_drain: false,
        }
    }
}

/// The outcome of simulating one mix under one policy.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// The simulated mix.
    pub mix: Mix,
    /// The policy under test.
    pub policy: PolicyKind,
    /// Per-thread IPC over each thread's measurement window.
    pub ipcs: Vec<f64>,
    /// Total executed (issued) instructions in the measurement window.
    pub executed_insts: u64,
    /// Measurement-window cycles (reset → last quota).
    pub cycles: u64,
    /// Whether every thread reached its quota before `max_cycles`.
    pub complete: bool,
    /// Full per-thread counters.
    pub thread_stats: Vec<ThreadStats>,
    /// Each thread's counters frozen the cycle it reached its quota
    /// (`None` for threads that never did — truncated runs). Everything
    /// a thread's own measurement window reports lives here, unaffected
    /// by whatever happened afterwards (other threads finishing, drain
    /// mode); `tests/quota_drain.rs` compares these bit-exactly across
    /// the drain ablation.
    pub thread_stats_at_quota: Vec<Option<ThreadStats>>,
    /// L2-port / memory-bus contention counters of the shared hierarchy
    /// (cumulative over the whole simulation, warmup included).
    pub mem_events: MemEventStats,
}

impl MixResult {
    /// Equation 1 throughput for this mix.
    pub fn throughput(&self) -> f64 {
        metrics::throughput_from_ipcs(&self.ipcs)
    }

    /// §5.3 ED² (unnormalized).
    pub fn ed2(&self) -> f64 {
        metrics::ed2(self.executed_insts, &self.ipcs)
    }
}

/// Average metrics over the mixes of one workload group.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupSummary {
    /// Mean Eq. 1 throughput over the group's mixes.
    pub throughput: f64,
    /// Mean Eq. 2 fairness over the group's mixes.
    pub fairness: f64,
    /// Mean ED² over the group's mixes (normalize against a baseline
    /// summary before reporting).
    pub ed2: f64,
    /// Number of mixes aggregated.
    pub mixes: usize,
    /// Mixes that hit `max_cycles` before every thread reached its
    /// quota: their IPCs come from a truncated window, so rows built on
    /// this summary should be marked (the figure binaries append `*`).
    pub incomplete: usize,
}

/// Cycles simulated between watchdog/scheduler checks (~0.1 s of wall
/// clock at the simulator's typical Mcycles/s). Both the `--cell-timeout`
/// watchdog and the batch engine's lockstep round-robin use this as
/// their scheduling quantum.
pub const SLICE_CYCLES: u64 = 100_000;

/// Which phase a [`MixRun`] is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MixPhase {
    /// Full-fidelity cache/predictor warmup; statistics are discarded.
    Warmup,
    /// The measurement window (post-quota drain active unless
    /// `no_drain`).
    Measure,
    /// Finished; `step` must not be called again.
    Done,
}

/// What one [`MixRun::step`] produced.
pub enum StepOutcome {
    /// The run needs more slices.
    Running,
    /// The run completed (quota reached, or `max_cycles` exhausted —
    /// the result's `complete` flag distinguishes them).
    Finished(MixResult),
}

/// An in-flight simulation of one mix under one policy, advanced in
/// caller-bounded cycle slices — the resumable form of
/// [`Runner::run_mix`]. Slicing is free: `run_until_quota` is resumable,
/// so the finished [`MixResult`] is bit-identical at any slice schedule
/// (the property the `--cell-timeout` watchdog already relied on, now
/// shared with the batch engine's lockstep scheduler).
pub struct MixRun<'a> {
    runner: &'a Runner,
    sim: SmtSimulator,
    mix: Mix,
    policy: PolicyKind,
    phase: MixPhase,
    /// Cycles left in the current phase's `max_cycles` budget.
    cycles_left: u64,
}

impl MixRun<'_> {
    /// Advances the simulation by at most `slice_cycles` (clamped to the
    /// phase's remaining `max_cycles` budget). Phase transitions happen
    /// between slices, exactly where the unsliced runner puts them.
    ///
    /// # Panics
    ///
    /// Panics if called again after returning
    /// [`StepOutcome::Finished`].
    pub fn step(&mut self, slice_cycles: u64) -> StepOutcome {
        let quota = match self.phase {
            MixPhase::Warmup => self.runner.run.warmup_insts,
            MixPhase::Measure => self.runner.run.insts_per_thread,
            MixPhase::Done => panic!("MixRun::step after Finished"),
        };
        let slice = slice_cycles.min(self.cycles_left);
        let reached = self.sim.run_until_quota(quota, slice);
        self.cycles_left = self.cycles_left.saturating_sub(slice);
        match self.phase {
            MixPhase::Warmup => {
                // Warmup that exhausts max_cycles proceeds to the
                // measurement window regardless (as in the unsliced
                // runner); only the measurement phase sets `complete`.
                if reached || self.cycles_left == 0 {
                    self.sim.reset_stats();
                    self.sim.set_quota_drain(!self.runner.run.no_drain);
                    self.phase = MixPhase::Measure;
                    self.cycles_left = self.runner.run.max_cycles;
                }
                StepOutcome::Running
            }
            MixPhase::Measure => {
                if reached || self.cycles_left == 0 {
                    self.phase = MixPhase::Done;
                    let r = self
                        .runner
                        .finish_mix(&self.sim, &self.mix, self.policy, reached);
                    StepOutcome::Finished(r)
                } else {
                    StepOutcome::Running
                }
            }
            MixPhase::Done => unreachable!(),
        }
    }
}

/// Runs experiments and caches single-thread reference IPCs.
///
/// The ST references (denominators of Eq. 2) are measured on the same
/// hardware configuration with the ICOUNT policy, as in the paper.
///
/// Every measurement method takes `&self`, so one `Runner` can drive a
/// whole sweep from [`crate::parallel::par_map`] workers concurrently;
/// the ST-reference cache is internally synchronized. Results are
/// deterministic functions of `(mix, policy, config, seed)`, so the
/// sweep output is identical at any thread count.
pub struct Runner {
    smt: SmtConfig,
    run: RunConfig,
    st_cache: Mutex<HashMap<(Benchmark, u64), f64>>,
    /// Optional persistence for the ST-reference cache (see
    /// [`Runner::set_st_cache_path`]).
    st_cache_path: Option<PathBuf>,
    /// Serialized warning channel: `run_mix` may fire its truncation
    /// warning from concurrent `par_map` workers, so every warning is
    /// emitted (or captured) under this lock — one intact line each,
    /// never interleaved. `Some` captures instead of printing (see
    /// [`Runner::capture_warnings`]).
    warnings: Mutex<Option<Vec<String>>>,
    /// Persistent-cache records rejected at load (fingerprint mismatch
    /// or corruption) instead of being silently served; see
    /// [`Runner::st_cache_rejections`].
    st_cache_rejected: u64,
}

impl Runner {
    /// Creates a runner over a hardware configuration and methodology.
    pub fn new(smt: SmtConfig, run: RunConfig) -> Self {
        Runner {
            smt,
            run,
            st_cache: Mutex::new(HashMap::new()),
            st_cache_path: None,
            warnings: Mutex::new(None),
            st_cache_rejected: 0,
        }
    }

    /// Switches the warning channel from stderr to an in-memory buffer;
    /// retrieve (and clear) it with [`Runner::take_warnings`]. Used by
    /// tests and by front ends that render warnings themselves.
    pub fn capture_warnings(&mut self) {
        *get_mut_recover(&mut self.warnings) = Some(Vec::new());
    }

    /// Drains the captured warnings (empty if capturing is off or
    /// nothing warned).
    pub fn take_warnings(&self) -> Vec<String> {
        lock_recover(&self.warnings)
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Emits one warning line atomically: captured if capturing is on,
    /// otherwise written to stderr while holding the lock so concurrent
    /// workers' warnings never interleave. The lock recovers from
    /// poisoning: a panicking (fault-injected or buggy) worker must not
    /// cost the healthy cells their warning channel.
    fn warn(&self, msg: String) {
        let mut sink = lock_recover(&self.warnings);
        match &mut *sink {
            Some(buf) => buf.push(msg),
            None => eprintln!("{msg}"),
        }
    }

    /// Persists the ST-reference cache at `path`: entries already in the
    /// file (written by an earlier invocation with the *same hardware
    /// and methodology* — a fingerprint line guards against mismatches)
    /// are loaded now, and every reference IPC computed later is saved
    /// back, so repeated figure invocations skip the single-thread
    /// reference simulations entirely.
    ///
    /// I/O failures are non-fatal: a missing or stale file just means an
    /// empty starting cache, and a failed save is reported to stderr.
    pub fn set_st_cache_path(&mut self, path: impl Into<PathBuf>) {
        let path = path.into();
        let loaded = load_st_cache(&path, self.st_fingerprint());
        if loaded.rejected > 0 {
            self.st_cache_rejected += loaded.rejected as u64;
            let reason = if loaded.stale {
                "written for a different hardware/methodology configuration"
            } else {
                "malformed or corrupt"
            };
            self.warn(format!(
                "warning: st-cache: rejected {} record(s) in {} ({reason}); \
                 they will be recomputed, not served stale",
                loaded.rejected,
                path.display()
            ));
        }
        if !loaded.entries.is_empty() {
            eprintln!(
                "st-cache: loaded {} reference IPC(s) from {}",
                loaded.entries.len(),
                path.display()
            );
        }
        get_mut_recover(&mut self.st_cache).extend(loaded.entries);
        self.st_cache_path = Some(path);
    }

    /// Number of persistent ST-cache records rejected at load instead of
    /// being silently served (stale fingerprint or corruption). Sweep
    /// front ends surface this in their run summary.
    pub fn st_cache_rejections(&self) -> u64 {
        self.st_cache_rejected
    }

    /// Fingerprint of everything a cached ST-reference IPC depends on:
    /// the hardware configuration (with the policy pinned to ICOUNT,
    /// which every reference run uses) and the measurement methodology.
    /// The cycle-skip ablation is excluded on purpose — results are
    /// bit-identical with and without skipping.
    fn st_fingerprint(&self) -> u64 {
        let mut cfg = self.smt;
        cfg.policy = PolicyKind::Icount;
        let repr = format!(
            "{cfg:?}/insts={}/warmup={}/max_cycles={}",
            self.run.insts_per_thread, self.run.warmup_insts, self.run.max_cycles
        );
        fnv1a(repr.as_bytes())
    }

    /// Fingerprint of everything a multithreaded cell result depends on
    /// besides its `(mix, policy, seed)` identity: the hardware
    /// configuration (policy pinned — the cell's policy is a separate
    /// [`crate::store::CellKey`] component) and the measurement
    /// methodology. Differs from the ST fingerprint in covering the
    /// drain ablation, which changes multithreaded (but not
    /// single-thread) timing; the bit-identical `no_skip` ablation stays
    /// excluded.
    pub fn config_fingerprint(&self) -> u64 {
        let mut cfg = self.smt;
        cfg.policy = PolicyKind::Icount;
        let repr = format!(
            "{cfg:?}/insts={}/warmup={}/max_cycles={}/drain={}",
            self.run.insts_per_thread,
            self.run.warmup_insts,
            self.run.max_cycles,
            !self.run.no_drain
        );
        fnv1a(repr.as_bytes())
    }

    /// Rewrites the persistent cache file from the in-memory map. Call
    /// with the cache lock held (entries passed in) to keep file and map
    /// consistent. The write is atomic (tmp file + rename) so a kill
    /// mid-save can never leave a torn cache file behind.
    fn save_st_cache(&self, entries: &HashMap<(Benchmark, u64), f64>) {
        let Some(path) = &self.st_cache_path else {
            return;
        };
        let mut lines: Vec<String> = entries
            .iter()
            .map(|(&(b, seed), &ipc)| format!("{} {} {:016x}", b.name(), seed, ipc.to_bits()))
            .collect();
        lines.sort(); // deterministic file contents
        let body = format!(
            "# rat single-thread reference IPC cache (bench seed ipc-bits-hex)\nfingerprint {:016x}\n{}\n",
            self.st_fingerprint(),
            lines.join("\n")
        );
        if let Err(e) = atomic_write(path, body.as_bytes()) {
            eprintln!("st-cache: failed to write {}: {e}", path.display());
        }
    }

    /// The hardware configuration (policy field is overridden per run).
    pub fn smt_config(&self) -> &SmtConfig {
        &self.smt
    }

    /// Mutable access (e.g. for the Figure 6 register-file sweep). Clears
    /// the ST cache since references depend on the hardware.
    pub fn smt_config_mut(&mut self) -> &mut SmtConfig {
        get_mut_recover(&mut self.st_cache).clear();
        &mut self.smt
    }

    /// The methodology parameters.
    pub fn run_config(&self) -> &RunConfig {
        &self.run
    }

    fn build_sim(&self, benches: &[Benchmark], policy: PolicyKind, seed: u64) -> SmtSimulator {
        let cpus = benches
            .iter()
            .enumerate()
            .map(|(i, &b)| ThreadImage::generate(b, seed + i as u64).build_cpu())
            .collect();
        self.sim_from_cpus(policy, cpus)
    }

    fn sim_from_cpus(&self, policy: PolicyKind, cpus: Vec<Cpu>) -> SmtSimulator {
        let mut cfg = self.smt;
        cfg.policy = policy;
        let mut sim = SmtSimulator::new(cfg, cpus);
        sim.set_cycle_skip(!self.run.no_skip);
        sim
    }

    /// Starts `mix` under `policy` as a resumable [`MixRun`]: the caller
    /// advances it in bounded cycle slices with [`MixRun::step`]. The
    /// finished result is bit-identical to [`Runner::run_mix`] at any
    /// slicing (`run_until_quota` is resumable; `tests/cell_timeout.rs`
    /// and `tests/batch_lockstep.rs` enforce this), which is what lets
    /// the batch engine round-robin many cells on one thread.
    pub fn begin_mix(&self, mix: &Mix, policy: PolicyKind) -> MixRun<'_> {
        let sim = self.build_sim(&mix.benchmarks, policy, self.run.seed);
        self.mix_run(sim, mix, policy)
    }

    /// [`Runner::begin_mix`] over caller-built CPU contexts. For a
    /// bit-identical run, `cpus` must be what [`ThreadImage::generate`]
    /// `(bench_i, seed + i)` + `build_cpu()` would produce — the batch
    /// engine guarantees that by building from a cache of exactly those
    /// images (generated via the bit-identical wide path).
    pub fn begin_mix_with_cpus(&self, mix: &Mix, policy: PolicyKind, cpus: Vec<Cpu>) -> MixRun<'_> {
        let sim = self.sim_from_cpus(policy, cpus);
        self.mix_run(sim, mix, policy)
    }

    fn mix_run(&self, sim: SmtSimulator, mix: &Mix, policy: PolicyKind) -> MixRun<'_> {
        MixRun {
            runner: self,
            sim,
            mix: mix.clone(),
            policy,
            phase: MixPhase::Warmup,
            cycles_left: self.run.max_cycles,
        }
    }

    /// Simulates `mix` under `policy`: warmup, stats reset, measurement
    /// until every thread commits its quota.
    ///
    /// The warmup phase always runs at full fidelity: post-quota drain
    /// (enabled only for the measurement phase, unless `no_drain`)
    /// would squash the warm pipeline state that warmup exists to
    /// build, and the warmup overshoot is small anyway.
    pub fn run_mix(&self, mix: &Mix, policy: PolicyKind) -> MixResult {
        let mut run = self.begin_mix(mix, policy);
        loop {
            // One maximal slice per phase: exactly the unsliced calls.
            if let StepOutcome::Finished(r) = run.step(u64::MAX) {
                return r;
            }
        }
    }

    /// [`Runner::run_mix`] under a wall-clock watchdog: the simulation
    /// advances in bounded cycle slices and the elapsed time is checked
    /// between slices, so a pathological or hung cell is abandoned with
    /// `Err(elapsed)` instead of wedging its sweep worker forever.
    ///
    /// A run that finishes within its budget is **bit-identical** to
    /// [`Runner::run_mix`]: `run_until_quota` is resumable, so slicing
    /// the cycle deadline changes nothing but where the wall clock is
    /// sampled (enforced by `tests/cell_timeout.rs`). The clock is
    /// checked *before* each slice, so a zero budget times out
    /// deterministically without simulating a cycle.
    pub fn run_mix_budgeted(
        &self,
        mix: &Mix,
        policy: PolicyKind,
        budget: Option<std::time::Duration>,
    ) -> Result<MixResult, std::time::Duration> {
        let Some(budget) = budget else {
            return Ok(self.run_mix(mix, policy));
        };
        let started = std::time::Instant::now();
        let mut run = self.begin_mix(mix, policy);
        loop {
            let elapsed = started.elapsed();
            if elapsed >= budget {
                return Err(elapsed);
            }
            if let StepOutcome::Finished(r) = run.step(SLICE_CYCLES) {
                return Ok(r);
            }
        }
    }

    /// Collects a finished simulation into a [`MixResult`] (warning on a
    /// truncated measurement window).
    fn finish_mix(
        &self,
        sim: &SmtSimulator,
        mix: &Mix,
        policy: PolicyKind,
        complete: bool,
    ) -> MixResult {
        if !complete {
            self.warn(format!(
                "warning: {mix} under {policy} hit max_cycles ({}) before every thread \
                 reached its quota; IPCs are truncated-window estimates",
                self.run.max_cycles
            ));
        }
        let n = mix.benchmarks.len();
        let ipcs = (0..n).map(|t| sim.stats().thread_ipc(t)).collect();
        MixResult {
            mix: mix.clone(),
            policy,
            ipcs,
            executed_insts: sim.stats().executed_insts(),
            cycles: sim.stats().cycles_since_reset(),
            complete,
            thread_stats: sim.stats().threads.clone(),
            thread_stats_at_quota: sim.stats().threads_at_quota.clone(),
            mem_events: sim.stats().mem_events,
        }
    }

    /// The single-thread reference IPC of `bench` on this hardware
    /// (ICOUNT policy), cached across calls.
    pub fn single_thread_ipc(&self, bench: Benchmark) -> f64 {
        let key = (bench, self.run.seed);
        if let Some(&ipc) = lock_recover(&self.st_cache).get(&key) {
            return ipc;
        }
        // Simulate outside the lock: concurrent callers may duplicate a
        // reference run, but the value is deterministic so the cache
        // stays consistent whichever insert lands last.
        let mut sim = self.build_sim(&[bench], PolicyKind::Icount, self.run.seed);
        sim.run_until_quota(self.run.warmup_insts, self.run.max_cycles);
        sim.reset_stats();
        sim.run_until_quota(self.run.insts_per_thread, self.run.max_cycles);
        let ipc = sim.stats().thread_ipc(0);
        let cache = &mut *lock_recover(&self.st_cache);
        cache.insert(key, ipc);
        self.save_st_cache(cache);
        ipc
    }

    /// Computes (and caches) the ST reference IPC of every distinct
    /// benchmark in `benches`, using up to `threads` worker threads.
    /// Call before a parallel sweep so concurrent [`Runner::fairness`]
    /// lookups hit the cache instead of duplicating reference runs.
    pub fn prewarm_st_references(
        &self,
        benches: impl IntoIterator<Item = Benchmark>,
        threads: usize,
    ) {
        let unique: Vec<Benchmark> = benches
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        parallel::par_map(threads, &unique, |_, &b| self.single_thread_ipc(b));
    }

    /// Equation 2 fairness for a mix result, using cached ST references.
    ///
    /// Note: a mix's thread `i` is generated with seed `seed + i`, while
    /// the ST reference uses seed `seed`; synthetic programs are
    /// statistically stationary so the seed offset does not bias the
    /// reference.
    pub fn fairness(&self, result: &MixResult) -> f64 {
        let st: Vec<f64> = result
            .mix
            .benchmarks
            .iter()
            .map(|&b| self.single_thread_ipc(b))
            .collect();
        metrics::fairness_from_ipcs(&result.ipcs, &st)
    }

    /// Averages the metrics of a set of mix results (one workload group).
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn summarize(&self, results: &[MixResult]) -> GroupSummary {
        assert!(!results.is_empty(), "empty mix group");
        let mut sum = GroupSummary::default();
        for r in results {
            sum.throughput += r.throughput();
            sum.fairness += self.fairness(r);
            sum.ed2 += r.ed2();
            sum.mixes += 1;
            sum.incomplete += usize::from(!r.complete);
        }
        let n = sum.mixes as f64;
        sum.throughput /= n;
        sum.fairness /= n;
        sum.ed2 /= n;
        sum
    }

    /// Runs every mix of a slice under `policy` and averages the metrics.
    pub fn run_group(&self, mixes: &[Mix], policy: PolicyKind) -> GroupSummary {
        assert!(!mixes.is_empty(), "empty mix group");
        let results: Vec<MixResult> = mixes.iter().map(|mix| self.run_mix(mix, policy)).collect();
        self.summarize(&results)
    }
}

/// What [`load_st_cache`] found at a persistent-cache path.
#[derive(Default)]
struct StCacheLoad {
    /// Entries whose fingerprint matched and whose line parsed.
    entries: HashMap<(Benchmark, u64), f64>,
    /// Records rejected instead of silently served: every entry line
    /// that did not make it into `entries`.
    rejected: usize,
    /// Whether rejections came from a fingerprint mismatch (a stale
    /// file for a different configuration) rather than corruption.
    stale: bool,
}

/// Parses a persistent ST-cache file, keeping entries only when the
/// file's fingerprint matches `fingerprint`. Nothing untrusted is ever
/// served: records under a mismatched (or missing) fingerprint and
/// malformed lines are counted as rejected so the caller can warn and
/// surface the count in its run summary.
fn load_st_cache(path: &Path, fingerprint: u64) -> StCacheLoad {
    let mut out = StCacheLoad::default();
    let Ok(body) = std::fs::read_to_string(path) else {
        return out;
    };
    let mut fingerprint_ok = false;
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(hex) = line.strip_prefix("fingerprint ") {
            fingerprint_ok = u64::from_str_radix(hex.trim(), 16) == Ok(fingerprint);
            if !fingerprint_ok {
                out.stale = true;
            }
            continue;
        }
        if !fingerprint_ok {
            // Entries before (or without) a matching fingerprint line
            // are untrusted — likely a stale file for other hardware or
            // methodology. Count, never serve.
            out.rejected += 1;
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(bench), Some(seed), Some(bits)) = (parts.next(), parts.next(), parts.next())
        else {
            out.rejected += 1;
            continue;
        };
        let (Some(bench), Ok(seed), Ok(bits)) = (
            Benchmark::from_name(bench),
            seed.parse::<u64>(),
            u64::from_str_radix(bits, 16),
        ) else {
            out.rejected += 1;
            continue;
        };
        out.entries.insert((bench, seed), f64::from_bits(bits));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rat_workload::{mixes_for_group, WorkloadGroup};

    fn quick() -> RunConfig {
        RunConfig {
            insts_per_thread: 4_000,
            warmup_insts: 2_000,
            max_cycles: 50_000_000,
            seed: 7,
            no_skip: false,
            no_drain: false,
        }
    }

    #[test]
    fn run_mix_produces_sane_result() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let mix = &mixes_for_group(WorkloadGroup::Ilp2)[0];
        let r = runner.run_mix(mix, PolicyKind::Icount);
        assert!(r.complete);
        assert_eq!(r.ipcs.len(), 2);
        assert!(
            r.throughput() > 0.3,
            "ILP2 throughput {:.3}",
            r.throughput()
        );
        assert!(r.executed_insts >= 8_000);
    }

    #[test]
    fn st_cache_is_stable() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let a = runner.single_thread_ipc(Benchmark::Gzip);
        let b = runner.single_thread_ipc(Benchmark::Gzip);
        assert_eq!(a, b);
        assert!(a > 0.3, "gzip ST IPC {a} (short cold window)");
    }

    #[test]
    fn fairness_bounded_for_ilp_mix() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let mix = &mixes_for_group(WorkloadGroup::Ilp2)[0];
        let r = runner.run_mix(mix, PolicyKind::Icount);
        let f = runner.fairness(&r);
        assert!(f > 0.1 && f < 1.2, "fairness {f}");
    }

    #[test]
    fn changing_hardware_clears_st_cache() {
        let mut runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let _ = runner.single_thread_ipc(Benchmark::Gzip);
        runner.smt_config_mut().int_regs = 256;
        assert!(runner.st_cache.lock().unwrap().is_empty());
    }

    #[test]
    fn prewarm_fills_cache() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        runner.prewarm_st_references([Benchmark::Gzip, Benchmark::Gzip, Benchmark::Eon], 2);
        assert_eq!(runner.st_cache.lock().unwrap().len(), 2);
    }

    #[test]
    fn st_cache_persists_across_runners() {
        let path =
            std::env::temp_dir().join(format!("rat_st_cache_test_{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut r1 = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        r1.set_st_cache_path(&path);
        let ipc = r1.single_thread_ipc(Benchmark::Gzip);
        assert!(path.exists(), "save must create the cache file");

        // Same hardware + methodology: the entry loads bit-exactly, so
        // no reference re-simulation is needed.
        let mut r2 = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        r2.set_st_cache_path(&path);
        let cached = r2
            .st_cache
            .lock()
            .unwrap()
            .get(&(Benchmark::Gzip, quick().seed))
            .copied();
        assert_eq!(cached.map(f64::to_bits), Some(ipc.to_bits()));

        // Different hardware: the fingerprint mismatch rejects the file.
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.int_regs = 256;
        let mut r3 = Runner::new(cfg, quick());
        r3.set_st_cache_path(&path);
        assert!(r3.st_cache.lock().unwrap().is_empty());

        // Different methodology rejects it too.
        let mut other = quick();
        other.insts_per_thread += 1;
        let mut r4 = Runner::new(SmtConfig::hpca2008_baseline(), other);
        r4.set_st_cache_path(&path);
        assert!(r4.st_cache.lock().unwrap().is_empty());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn st_cache_ignores_garbage_files() {
        let path =
            std::env::temp_dir().join(format!("rat_st_cache_garbage_{}.txt", std::process::id()));
        std::fs::write(&path, "not a cache\nfingerprint zzz\ngzip nan nan\n").unwrap();
        let mut r = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        r.capture_warnings();
        r.set_st_cache_path(&path);
        assert!(r.st_cache.lock().unwrap().is_empty());
        assert_eq!(
            r.st_cache_rejections(),
            2,
            "both entry lines must be counted as rejected"
        );
        let warnings = r.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("rejected 2 record(s)"),
            "rejection must warn, not be silent: {warnings:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_st_cache_warns_and_counts_instead_of_silently_serving() {
        let path =
            std::env::temp_dir().join(format!("rat_st_cache_stale_{}.txt", std::process::id()));
        // Write a valid cache on one hardware configuration…
        let mut writer = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        writer.set_st_cache_path(&path);
        let _ = writer.single_thread_ipc(Benchmark::Gzip);
        // …then load it on different hardware: the fingerprint
        // mismatches, so the record must be rejected with a warning and
        // a counter bump, never used.
        let mut cfg = SmtConfig::hpca2008_baseline();
        cfg.int_regs = 256;
        let mut reader = Runner::new(cfg, quick());
        reader.capture_warnings();
        reader.set_st_cache_path(&path);
        assert!(reader.st_cache.lock().unwrap().is_empty());
        assert_eq!(reader.st_cache_rejections(), 1);
        let warnings = reader.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("different hardware/methodology"),
            "stale-file rejections must say why: {warnings:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_shared_locks_recover() {
        // A worker panicking while holding the Runner's shared locks
        // (the cascade the crash-safety layer exists to stop) must not
        // break later healthy calls.
        let mut runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        runner.capture_warnings();
        std::thread::scope(|s| {
            let r = &runner;
            let _ = s
                .spawn(move || {
                    let _cache = r.st_cache.lock().unwrap();
                    let _sink = r.warnings.lock().unwrap();
                    panic!("worker dies holding both locks");
                })
                .join();
        });
        assert!(runner.st_cache.is_poisoned());
        assert!(runner.warnings.is_poisoned());
        let ipc = runner.single_thread_ipc(Benchmark::Gzip);
        assert!(ipc > 0.0, "cache path must survive poisoning");
        runner.warn("still alive".to_string());
        assert_eq!(runner.take_warnings(), vec!["still alive".to_string()]);
    }

    #[test]
    fn truncated_runs_warn_and_count_incomplete() {
        // A quota far beyond what max_cycles allows: the run truncates.
        let run = RunConfig {
            insts_per_thread: 10_000_000,
            warmup_insts: 100,
            max_cycles: 5_000,
            seed: 7,
            no_skip: false,
            no_drain: false,
        };
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), run);
        let mix = &mixes_for_group(WorkloadGroup::Ilp2)[0];
        let r = runner.run_mix(mix, PolicyKind::Icount);
        assert!(!r.complete);
        let s = runner.summarize(&[r]);
        assert_eq!(s.mixes, 1);
        assert_eq!(s.incomplete, 1, "truncated mix must be counted");
    }

    #[test]
    fn truncation_warnings_are_one_intact_line_per_cell() {
        // Three truncated cells fired from concurrent par_map workers
        // (the sweep's real shape): the mutex'd sink must deliver
        // exactly one intact, newline-free warning line per cell, never
        // interleaved fragments.
        let run = RunConfig {
            insts_per_thread: 10_000_000,
            warmup_insts: 100,
            max_cycles: 5_000,
            seed: 7,
            no_skip: false,
            no_drain: false,
        };
        let mut runner = Runner::new(SmtConfig::hpca2008_baseline(), run);
        runner.capture_warnings();
        let mixes = &mixes_for_group(WorkloadGroup::Ilp2)[..3];
        let results =
            crate::parallel::par_map(3, mixes, |_, mix| runner.run_mix(mix, PolicyKind::Icount));
        assert!(results.iter().all(|r| !r.complete), "cells must truncate");
        let warnings = runner.take_warnings();
        assert_eq!(warnings.len(), 3, "one warning per truncated cell");
        for w in &warnings {
            assert!(!w.contains('\n'), "warning must be a single line: {w:?}");
            assert!(
                w.starts_with("warning: ") && w.contains("hit max_cycles"),
                "warning line mangled: {w:?}"
            );
        }
        for mix in mixes {
            let label = mix.to_string();
            assert_eq!(
                warnings.iter().filter(|w| w.contains(&label)).count(),
                1,
                "exactly one warning for {label}"
            );
        }
        // The sink is drained; capturing stays on and empty.
        assert!(runner.take_warnings().is_empty());
    }

    #[test]
    fn parallel_and_serial_group_runs_agree() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let mixes = &mixes_for_group(WorkloadGroup::Ilp2)[..2];
        let serial = runner.run_group(mixes, PolicyKind::Icount);
        let results =
            crate::parallel::par_map(2, mixes, |_, mix| runner.run_mix(mix, PolicyKind::Icount));
        let parallel = runner.summarize(&results);
        assert_eq!(serial.throughput.to_bits(), parallel.throughput.to_bits());
        assert_eq!(serial.fairness.to_bits(), parallel.fairness.to_bits());
        assert_eq!(serial.ed2.to_bits(), parallel.ed2.to_bits());
    }
}
