//! Experiment execution: mixes, warmup, measurement, ST reference runs.

use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rat_mem::MemEventStats;
use rat_smt::{PolicyKind, RunaheadVariant, SmtConfig, SmtSimulator, ThreadStats};
use rat_workload::{Benchmark, Mix, ThreadImage, WorkloadGroup};

use crate::lock::{get_mut_recover, lock_recover};
use crate::store::{fnv1a, fnv1a_continue, FNV1A_OFFSET};
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
    /// Disable post-quota drain mode and keep every thread at full
    /// fidelity until the slowest reaches its quota (the `--no-drain`
    /// ablation reference, and the paper's literal FAME procedure).
    /// This ablation is *not* bit-identical end to end: every statistic
    /// inside a thread's own measurement window matches exactly, but
    /// where one thread's window overlaps another's drain the
    /// shared-resource timing drifts within the bound measured by
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
            no_drain: false,
        }
    }
}

/// FNV-1a of `tests/golden.txt`, the pinned digests of the model's
/// results, taken at compile time. [`config_fingerprint`] folds it in, so
/// re-pinning any golden digest re-keys every journal. The digests are
/// computed at fingerprint 0, so they do not depend on this value.
const MODEL_DIGEST: u64 = fnv1a(include_bytes!("../../../tests/golden.txt"));

/// Fingerprint of everything a cell result depends on besides its
/// `(mix, policy, seed)` identity: every field of the hardware
/// configuration except the policy (a separate [`crate::store::CellKey`]
/// component), the measurement methodology except the seed (another key
/// component), and the model itself as a compile-time FNV-1a of
/// `tests/golden.txt`, so re-pinning any golden digest re-keys every
/// journal. The fixed Table 1 parameters (the `rat_smt::config` constants,
/// the memory hierarchy among them, and the perceptron geometry) are part
/// of that model: changing one moves golden digests. It covers the drain
/// ablation, which changes multithreaded timing, so `--no-drain`
/// recomputes the single-thread references too even though drain never
/// moves them.
///
/// A pure function of its arguments, cheap enough to call per request:
/// [`Runner::new`] and the sweep server both derive keys from it.
pub fn config_fingerprint(smt: &SmtConfig, run: &RunConfig) -> u64 {
    fingerprint_with_model(smt, run, MODEL_DIGEST)
}

/// [`config_fingerprint`] under the model digest `model`. The structs are
/// destructured without `..`, so a new field fails to compile here until
/// it is hashed or named as excluded. Each field is hashed as its
/// little-endian `u64` with FNV-1a ([`crate::store::fnv1a`]).
fn fingerprint_with_model(smt: &SmtConfig, run: &RunConfig, model: u64) -> u64 {
    let SmtConfig {
        regs,
        policy: _,
        runahead,
    } = *smt;
    let RunConfig {
        insts_per_thread,
        warmup_insts,
        max_cycles,
        seed: _,
        no_drain,
    } = *run;
    let variant = match runahead {
        RunaheadVariant::Full => 0,
        RunaheadVariant::NoPrefetch => 1,
        RunaheadVariant::NoFetch => 2,
    };
    [
        model,
        regs as u64,
        variant,
        insts_per_thread,
        warmup_insts,
        max_cycles,
        u64::from(no_drain),
    ]
    .iter()
    .fold(FNV1A_OFFSET, |h, w| fnv1a_continue(h, &w.to_le_bytes()))
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

/// Cycles simulated between wall-clock checks of the `--cell-timeout`
/// watchdog (~0.1 s of wall clock at the simulator's typical
/// Mcycles/s): [`Runner::run_mix_budgeted`] advances a budgeted cell in
/// slices of this many cycles and checks its clock before each one.
pub const SLICE_CYCLES: u64 = 100_000;

/// Runs experiments and holds single-thread reference IPCs.
///
/// The ST references (denominators of Eq. 2) are measured on the same
/// hardware configuration with the ICOUNT policy, as in the paper: a
/// reference is the [`Mix::single_thread`] cell of its benchmark,
/// simulated by [`Runner::run_mix`] like any other cell. A sweep runs
/// the references it needs as ordinary journaled cells and hands each
/// result to [`Runner::record_st_reference`]; a reference asked for
/// and not held is simulated in place. The hardware and the seed are
/// fixed at construction, so the map is keyed by benchmark alone and
/// never needs clearing.
///
/// Every measurement method takes `&self`, so one `Runner` can drive a
/// whole sweep from [`crate::parallel::par_map`] workers concurrently;
/// the reference map is internally synchronized. Results are
/// deterministic functions of `(mix, policy, config, seed)`, so the
/// sweep output is identical at any thread count.
pub struct Runner {
    smt: SmtConfig,
    run: RunConfig,
    /// [`Runner::config_fingerprint`], derived in [`Runner::new`] from
    /// `smt` and `run`, which never change afterwards.
    fingerprint: u64,
    st_ipcs: Mutex<HashMap<Benchmark, f64>>,
    /// Serialized warning channel: `run_mix` may fire its truncation
    /// warning from concurrent `par_map` workers, so every warning is
    /// emitted (or captured) under this lock — one intact line each,
    /// never interleaved. `Some` captures instead of printing (see
    /// [`Runner::capture_warnings`]).
    warnings: Mutex<Option<Vec<String>>>,
}

impl Runner {
    /// Creates a runner over a hardware configuration and methodology.
    pub fn new(smt: SmtConfig, run: RunConfig) -> Self {
        Runner {
            smt,
            run,
            fingerprint: config_fingerprint(&smt, &run),
            st_ipcs: Mutex::new(HashMap::new()),
            warnings: Mutex::new(None),
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

    /// The [`config_fingerprint`] of this runner's hardware and
    /// methodology: its fields, and a compile-time hash of
    /// `tests/golden.txt` standing for the model's code. Computed once,
    /// in [`Runner::new`]: both are fixed at construction.
    ///
    /// Journals on disk are keyed by this value. It moves when a
    /// fingerprinted field does and when a golden digest is re-pinned —
    /// a results-changing edit must re-pin, so no journal replays a
    /// result the current model would not compute. Nothing else may move
    /// it.
    pub fn config_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The hardware configuration (policy field is overridden per run).
    pub fn smt_config(&self) -> &SmtConfig {
        &self.smt
    }

    /// The methodology parameters.
    pub fn run_config(&self) -> &RunConfig {
        &self.run
    }

    /// A fresh simulator of `mix` under `policy` on this runner's
    /// hardware: thread `i` runs the image of its benchmark generated
    /// from `seed + i`. [`Runner::run_mix`] drives it through warmup and
    /// measurement; a caller driving it by hand ends with
    /// [`Runner::result`].
    pub fn simulator(&self, mix: &Mix, policy: PolicyKind) -> SmtSimulator {
        let cpus = mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, &b)| ThreadImage::generate(b, self.run.seed + i as u64).build_cpu())
            .collect();
        let mut cfg = self.smt;
        cfg.policy = policy;
        SmtSimulator::new(cfg, cpus)
    }

    /// Simulates `mix` under `policy`: warmup, stats reset, measurement
    /// until every thread commits its quota.
    ///
    /// The warmup phase always runs at full fidelity: post-quota drain
    /// (enabled only for the measurement phase, unless `no_drain`)
    /// would squash the warm pipeline state that warmup exists to
    /// build. That fidelity is not cheap: at default quotas warmup
    /// takes about as long as the measurement window. Two traced passes
    /// of the benchmark's two `rat_long` cells on a 2-vCPU Xeon host
    /// spent 1847 and 2442 ms in warmup against 1678 and 2797 ms in the
    /// measurement window (quota tail included).
    pub fn run_mix(&self, mix: &Mix, policy: PolicyKind) -> MixResult {
        self.run_mix_budgeted(mix, policy, None)
            .expect("a run without a budget cannot time out")
    }

    /// [`Runner::run_mix`] under a wall-clock watchdog: the simulation
    /// advances in [`SLICE_CYCLES`]-cycle slices and the elapsed time is
    /// checked between slices, so a pathological or hung cell is
    /// abandoned with `Err(elapsed)` instead of wedging its sweep worker
    /// forever. Without a budget each phase is one `max_cycles` call.
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
        budget: Option<Duration>,
    ) -> Result<MixResult, Duration> {
        let started = Instant::now();
        let slice = if budget.is_some() {
            SLICE_CYCLES
        } else {
            u64::MAX
        };
        // One phase: slices until every thread reaches `quota` or the
        // phase's `max_cycles` budget runs out; returns whether the
        // quota was reached.
        let phase = |sim: &mut SmtSimulator, quota: u64| -> Result<bool, Duration> {
            let mut left = self.run.max_cycles;
            loop {
                if let Some(budget) = budget {
                    let elapsed = started.elapsed();
                    if elapsed >= budget {
                        return Err(elapsed);
                    }
                }
                let step = slice.min(left);
                let reached = sim.run_until_quota(quota, step);
                left -= step;
                if reached || left == 0 {
                    return Ok(reached);
                }
            }
        };
        let mut sim = self.simulator(mix, policy);
        // Warmup that exhausts max_cycles proceeds to the measurement
        // window regardless; only the measurement phase sets `complete`.
        phase(&mut sim, self.run.warmup_insts)?;
        sim.reset_stats();
        sim.set_quota_drain(!self.run.no_drain);
        let complete = phase(&mut sim, self.run.insts_per_thread)?;
        Ok(self.result(&sim, mix, policy, complete))
    }

    /// Collects a finished simulation of `mix` under `policy` into a
    /// [`MixResult`], warning when the measurement window was truncated
    /// (`complete` is false).
    pub fn result(
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
    /// (ICOUNT policy): the IPC of its [`Mix::single_thread`] cell,
    /// simulated on first use unless a sweep already recorded it.
    pub fn single_thread_ipc(&self, bench: Benchmark) -> f64 {
        if let Some(&ipc) = lock_recover(&self.st_ipcs).get(&bench) {
            return ipc;
        }
        // Simulate outside the lock: concurrent callers may duplicate a
        // reference run, but the value is deterministic so the map stays
        // consistent whichever insert lands last.
        let r = self.run_mix(&Mix::single_thread(bench), PolicyKind::Icount);
        self.record_st_reference(&r);
        r.ipcs[0]
    }

    /// Whether the reference IPC of `bench` is already held, so
    /// [`Runner::single_thread_ipc`] will not simulate it.
    pub fn has_st_reference(&self, bench: Benchmark) -> bool {
        lock_recover(&self.st_ipcs).contains_key(&bench)
    }

    /// Records a reference cell's result — the [`Mix::single_thread`]
    /// mix of a benchmark under ICOUNT, simulated (or replayed from a
    /// journal) on this runner — as that benchmark's reference IPC.
    ///
    /// # Panics
    ///
    /// Panics if `result` is not a reference cell's.
    pub fn record_st_reference(&self, result: &MixResult) {
        assert!(
            result.mix.group == WorkloadGroup::St && result.policy == PolicyKind::Icount,
            "{} under {} is not a single-thread reference",
            result.mix,
            result.policy
        );
        lock_recover(&self.st_ipcs).insert(result.mix.benchmarks[0], result.ipcs[0]);
    }

    /// Computes the ST reference IPC of every distinct benchmark in
    /// `benches`, using up to `threads` worker threads. Unlike a sweep's
    /// reference cells these runs are unjournaled, not panic-isolated
    /// and not watched; no figure binary calls this. It stays for the
    /// repository benchmark's (`ratbench/`) reference probes.
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

    /// Equation 2 fairness for a mix result, against the ST references
    /// of [`Runner::single_thread_ipc`].
    ///
    /// Known bias: a mix's thread `i` is generated with seed `seed + i`,
    /// while every reference uses seed `seed`. The synthetic programs
    /// are not stationary across seeds, so thread `i > 0` is divided by
    /// another image's IPC. At default quotas art's reference IPC at
    /// seeds 43/44/45 is 39/52/30% above its seed-42 value, and twelve
    /// benchmarks move by 4% or more at some offset. Keying references
    /// by each thread's own seed is an open ROADMAP item, because it
    /// changes published values.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rat_workload::{mixes_for_group, WorkloadGroup};

    /// Journals on disk are keyed by these values: a change here orphans
    /// every existing journal record. They moved once when the
    /// derivation changed from a hash of `SmtConfig`'s `Debug` string to
    /// a hash of the fields plus the model digest, once when the
    /// runahead cache, FP-drop and entry-threshold words left it, and once
    /// when the fixed Table 1 words left it and `tests/golden.txt` lost
    /// its round-robin cells (those settings stopped being configurable
    /// and the policy was deleted, so no result moved). They move again,
    /// on purpose, whenever `tests/golden.txt` is re-pinned: re-pin them
    /// together.
    #[test]
    fn config_fingerprint_is_pinned() {
        let fingerprint =
            |run: RunConfig| Runner::new(SmtConfig::hpca2008_baseline(), run).config_fingerprint();
        assert_eq!(fingerprint(RunConfig::default()), 0x2d3a_997e_b820_cf04);
        for seed in [42, 99] {
            let run = RunConfig {
                insts_per_thread: 6_000,
                warmup_insts: 2_000,
                seed,
                ..RunConfig::default()
            };
            assert_eq!(fingerprint(run), 0x5622_5dab_9b07_3131, "seed {seed}");
        }
    }

    #[test]
    fn every_fingerprinted_field_moves_the_fingerprint() {
        let (smt, run) = (SmtConfig::hpca2008_baseline(), RunConfig::default());
        let base = config_fingerprint(&smt, &run);
        assert_eq!(Runner::new(smt, run).config_fingerprint(), base);
        assert_eq!(fingerprint_with_model(&smt, &run, MODEL_DIGEST), base);

        let smt_edits: [fn(&mut SmtConfig); 3] = [
            |c| c.regs += 1,
            |c| c.runahead = RunaheadVariant::NoPrefetch,
            |c| c.runahead = RunaheadVariant::NoFetch,
        ];
        let run_edits: [fn(&mut RunConfig); 4] = [
            |r| r.insts_per_thread += 1,
            |r| r.warmup_insts += 1,
            |r| r.max_cycles += 1,
            |r| r.no_drain = !r.no_drain,
        ];
        let mut seen = std::collections::HashSet::from([base]);
        for (k, edit) in smt_edits.iter().enumerate() {
            let mut c = smt;
            edit(&mut c);
            assert!(
                seen.insert(config_fingerprint(&c, &run)),
                "SmtConfig edit {k}"
            );
        }
        for (k, edit) in run_edits.iter().enumerate() {
            let mut r = run;
            edit(&mut r);
            assert!(
                seen.insert(config_fingerprint(&smt, &r)),
                "RunConfig edit {k}"
            );
        }
        // Another golden text is another model.
        let other = fnv1a(b"quick ILP2(apsi+eon) ICOUNT 0000000000000000\n");
        assert!(seen.insert(fingerprint_with_model(&smt, &run, other)));

        // Policy and seed are key components of their own.
        let mut c = smt;
        c.policy = PolicyKind::Rat;
        let r = RunConfig {
            seed: run.seed + 1,
            ..run
        };
        assert_eq!(config_fingerprint(&c, &r), base);
    }

    fn quick() -> RunConfig {
        RunConfig {
            insts_per_thread: 4_000,
            warmup_insts: 2_000,
            max_cycles: 50_000_000,
            seed: 7,
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
    fn recorded_reference_is_served_without_simulating() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let mut r = runner.run_mix(&Mix::single_thread(Benchmark::Gzip), PolicyKind::Icount);
        assert!(!runner.has_st_reference(Benchmark::Gzip));
        // A value no simulation produces: serving it proves the lookup.
        r.ipcs[0] = 1234.5;
        runner.record_st_reference(&r);
        assert!(runner.has_st_reference(Benchmark::Gzip));
        assert_eq!(runner.single_thread_ipc(Benchmark::Gzip), 1234.5);
    }

    #[test]
    #[should_panic(expected = "not a single-thread reference")]
    fn only_reference_cells_are_recorded() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let r = runner.run_mix(&Mix::single_thread(Benchmark::Gzip), PolicyKind::Rat);
        runner.record_st_reference(&r);
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
    fn prewarm_fills_cache() {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        runner.prewarm_st_references([Benchmark::Gzip, Benchmark::Gzip, Benchmark::Eon], 2);
        assert_eq!(runner.st_ipcs.lock().unwrap().len(), 2);
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
                    let _refs = r.st_ipcs.lock().unwrap();
                    let _sink = r.warnings.lock().unwrap();
                    panic!("worker dies holding both locks");
                })
                .join();
        });
        assert!(runner.st_ipcs.is_poisoned());
        assert!(runner.warnings.is_poisoned());
        let ipc = runner.single_thread_ipc(Benchmark::Gzip);
        assert!(ipc > 0.0, "the reference map must survive poisoning");
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
