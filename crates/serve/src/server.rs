//! The persistent sweep server.
//!
//! One process owns the shared [`ResultStore`] journal and serves
//! `SWEEP` batches over TCP: warm cells (already journaled) are
//! answered from memory, cold cells fan out over the crash-safe sweep
//! engine ([`rat_bench::run_cells_streaming`], one cell per worker at a
//! time) and are journaled the moment they complete — so a
//! killed-and-restarted server resumes warm, and a resubmitted batch is
//! served mostly from cache. Each cell's `RESULT` line is written as
//! the cell finishes (progressive delivery), with failure lines and the
//! `DONE` summary after the sweep settles.
//!
//! Connections are persistent: one handler thread per connection serves
//! its requests in turn until the client closes it, sends `SHUTDOWN`,
//! or earns a `BAD` reply. [`Client`](crate::Client) keeps its
//! connection across requests, so a repeat skips the connect, the
//! accept and the thread spawn. The accept loop wakes the moment a
//! connection arrives, and at least every 25 ms to notice a drain.
//!
//! Robustness properties (each tested in `tests/service.rs`):
//!
//! * **Backpressure** — at most `max_inflight` sweeps run at once;
//!   excess requests are shed with `BUSY retry_after_ms=N` on an intact
//!   connection, never a dropped one.
//! * **Deadlines** — a request's `deadline_ms` bounds its cold work:
//!   expired cells come back as `TIMEOUT` lines next to the completed
//!   `RESULT` lines; warm cells are always served.
//! * **Containment** — a panicking worker costs exactly its cell (an
//!   `ERR` line); the server keeps serving.
//! * **Graceful drain** — `SHUTDOWN` (or SIGTERM, see
//!   [`install_sigterm_handler`]) stops accepting, lets in-flight
//!   requests finish, compacts the journal, and returns `Ok` so the
//!   process can exit 0. An idle kept connection is closed within one
//!   300-ms read timeout. A kill that skips all of that loses nothing
//!   but in-flight work: the journal is append-only and checksummed.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rat_bench::{run_cells_streaming, SweepCell, SweepSession};
use rat_core::store::encode_result;
use rat_core::{format_record_line, lock_recover, CellErrorKind, CellKey, FaultPlan, MixResult};
use rat_core::{CellError, ResultStore, RunConfig, Runner};
use rat_smt::{PolicyKind, SmtConfig};
use rat_workload::Mix;

use crate::protocol::{
    format_done, parse_cell, parse_request, CellSpec, LineReader, Request, SweepHead, MAX_LINE,
};

/// Set by the SIGTERM handler; checked by every accept/connection loop.
static TERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that triggers the same graceful drain as
/// a `SHUTDOWN` request. Call once, before [`Server::run`]. No-op off
/// Unix.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_term(_signum: i32) {
            // A store to a static atomic is async-signal-safe.
            TERM.store(true, Ordering::SeqCst);
        }
        // libc is already linked by std; binding `signal` directly
        // avoids an external crate for one syscall.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }
}

/// How a [`Server`] behaves; see the field docs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Result-journal path; `None` serves every request cold and
    /// persists nothing.
    pub journal: Option<PathBuf>,
    /// Sweeps allowed in flight at once; further requests are shed with
    /// `BUSY`. `0` sheds everything (used to test shedding).
    pub max_inflight: usize,
    /// The wait suggested in `BUSY` replies.
    pub retry_after_ms: u64,
    /// Per-cell wall-clock watchdog applied to every request
    /// (`None` = unlimited).
    pub cell_timeout: Option<Duration>,
    /// Worker threads per sweep (`0` = all cores).
    pub threads: usize,
    /// Injected worker faults (tests/drills). A request's valid cells
    /// are grouped by seed, keeping request order, and each group runs
    /// as its own sweep: `panic@C` fires on the cell at index `C` of
    /// each seed's group, and only when that cell is cold (a journal
    /// hit is served, never simulated).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            journal: None,
            max_inflight: 4,
            retry_after_ms: 200,
            cell_timeout: None,
            threads: 0,
            fault_plan: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    /// Connections accepted.
    accepted: AtomicU64,
    sweeps: AtomicU64,
    busy: AtomicU64,
    bad: AtomicU64,
    cells_ok: AtomicU64,
    cells_timeout: AtomicU64,
    cells_err: AtomicU64,
    hits: AtomicU64,
    computed: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    store: Option<Arc<ResultStore>>,
    /// Sweeps admitted and not yet finished.
    active: AtomicUsize,
    /// Live connection-handler threads.
    conns: AtomicUsize,
    /// Set by a `SHUTDOWN` request (SIGTERM sets [`TERM`] instead).
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || TERM.load(Ordering::SeqCst)
    }

    /// Admission control: increment-then-check so two racing requests
    /// cannot both slip under the cap, and re-check drain after the
    /// increment so a request admitted concurrently with shutdown is
    /// shed rather than started.
    fn try_admit(&self) -> bool {
        let prev = self.active.fetch_add(1, Ordering::SeqCst);
        if prev >= self.cfg.max_inflight || self.draining() {
            self.active.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    fn stats_line(&self) -> String {
        let c = &self.counters;
        let mut line = format!(
            "STATS active={} conns={} accepted={} draining={} sweeps={} busy={} bad={} \
             cells_ok={} cells_timeout={} cells_err={} hits={} computed={}",
            self.active.load(Ordering::SeqCst),
            self.conns.load(Ordering::SeqCst),
            c.accepted.load(Ordering::Relaxed),
            u64::from(self.draining()),
            c.sweeps.load(Ordering::Relaxed),
            c.busy.load(Ordering::Relaxed),
            c.bad.load(Ordering::Relaxed),
            c.cells_ok.load(Ordering::Relaxed),
            c.cells_timeout.load(Ordering::Relaxed),
            c.cells_err.load(Ordering::Relaxed),
            c.hits.load(Ordering::Relaxed),
            c.computed.load(Ordering::Relaxed),
        );
        if let Some(store) = &self.store {
            let s = store.stats();
            line.push_str(&format!(
                " store_loaded={} store_appended={} store_retries={} store_failures={}",
                s.loaded, s.appended, s.retries, s.append_failures
            ));
        }
        line
    }
}

/// Decrements the connection count even if the handler panics.
struct ConnGuard(Arc<Shared>);
impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// See the module docs.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket and opens the journal (if any).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let store = cfg.journal.as_ref().map(|p| Arc::new(ResultStore::open(p)));
        if let (Some(store), Some(plan)) = (&store, &cfg.fault_plan) {
            store.set_fault_plan(plan.clone());
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                store,
                active: AtomicUsize::new(0),
                conns: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
            }),
        })
    }

    /// The bound address (the actual port when the config said `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener is bound")
    }

    /// Requests a graceful drain, as a `SHUTDOWN` request would.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Serves until drained: accepts connections, sheds overload,
    /// contains worker faults — and on `SHUTDOWN`/SIGTERM stops
    /// accepting, waits for in-flight connections, compacts the
    /// journal, and returns `Ok(())` (the process should then exit 0).
    pub fn run(&self) -> std::io::Result<()> {
        loop {
            if self.shared.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    shared.conns.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        let _guard = ConnGuard(Arc::clone(&shared));
                        // Connection-level I/O errors are that
                        // connection's problem, never the server's.
                        let _ = handle_conn(stream, &shared);
                    });
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    wait_for_connection(&self.listener, Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: connections notice `draining()` within one read
        // timeout and finish their in-flight reply first.
        while self.shared.conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(store) = &self.shared.store {
            // Compacting on the way out also re-lands any append that
            // failed transiently: the in-memory map is authoritative.
            store.rewrite_journal();
        }
        Ok(())
    }
}

/// Blocks until `listener` has a connection to accept or `timeout`
/// passes, whichever is first. An error or a signal just ends the wait
/// early: the accept loop re-checks drain and retries the accept.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[cfg(target_os = "linux")]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::ffi::c_uint;
    // Bound like `signal` above: libc is already linked by std.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one live, initialised `pollfd` that outlives the
    // call, `nfds` is 1 to match, and the listener keeps its descriptor
    // open for the whole call.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// Off Unix there is no `poll` binding: sleep out the interval.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one line of an in-progress frame, riding out read timeouts up
/// to `limit` so a slow (but live) client can finish its frame, while a
/// stalled one cannot hold the connection forever.
fn read_frame_line(
    reader: &mut LineReader<TcpStream>,
    limit: Duration,
) -> std::io::Result<Option<String>> {
    let started = Instant::now();
    loop {
        match reader.read_line() {
            Err(e) if is_timeout(&e) && started.elapsed() < limit => continue,
            Err(e) if is_timeout(&e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "truncated frame: client stalled mid-request",
                ))
            }
            other => return other,
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(300)))?;
    stream.set_nodelay(true)?;
    let mut reader = LineReader::new(stream.try_clone()?, MAX_LINE);
    // Behind a mutex so sweep workers can stream `RESULT` lines the
    // moment their cells complete (see `run_sweep`).
    let writer = Mutex::new(std::io::BufWriter::new(stream));
    let send = |line: std::fmt::Arguments<'_>| -> std::io::Result<()> {
        let mut w = lock_recover(&writer);
        w.write_fmt(line)?;
        w.write_all(b"\n")?;
        w.flush()
    };
    loop {
        if shared.draining() {
            return Ok(());
        }
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()), // clean EOF between requests
            Err(e) if is_timeout(&e) => continue, // idle keep-alive; poll drain
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                shared.counters.bad.fetch_add(1, Ordering::Relaxed);
                return send(format_args!("BAD {e}"));
            }
            Err(e) => return Err(e),
        };
        let request = match parse_request(&line) {
            Ok(r) => r,
            Err(msg) => {
                shared.counters.bad.fetch_add(1, Ordering::Relaxed);
                send(format_args!("BAD {msg}"))?;
                // A peer this confused gets a fresh connection.
                return Ok(());
            }
        };
        match request {
            Request::Ping => {
                send(format_args!("PONG"))?;
            }
            Request::Stats => {
                send(format_args!("{}", shared.stats_line()))?;
            }
            Request::Shutdown => {
                send(format_args!("BYE"))?;
                shared.shutdown.store(true, Ordering::SeqCst);
                return Ok(());
            }
            Request::Sweep(head) => {
                // The frame (CELL lines + END) must be consumed before
                // any reply — including BUSY — so the connection stays
                // usable for the retry.
                let cells = match read_cells(&mut reader, head.cells) {
                    Ok(cells) => cells,
                    Err(msg) => {
                        shared.counters.bad.fetch_add(1, Ordering::Relaxed);
                        return send(format_args!("BAD {msg}"));
                    }
                };
                // The deadline clock starts at receipt, before any
                // queueing or simulation.
                let deadline = head
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                if !shared.try_admit() {
                    shared.counters.busy.fetch_add(1, Ordering::Relaxed);
                    send(format_args!(
                        "BUSY retry_after_ms={}",
                        shared.cfg.retry_after_ms
                    ))?;
                    continue;
                }
                shared.counters.sweeps.fetch_add(1, Ordering::Relaxed);
                let outcome = run_sweep(shared, &head, &cells, deadline, &writer);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                outcome?;
            }
        }
    }
}

fn read_cells(reader: &mut LineReader<TcpStream>, n: usize) -> Result<Vec<CellSpec>, String> {
    const FRAME_LIMIT: Duration = Duration::from_secs(10);
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let line = read_frame_line(reader, FRAME_LIMIT)
            .map_err(|e| e.to_string())?
            .ok_or("truncated frame: end of stream inside a SWEEP")?;
        cells.push(parse_cell(&line)?);
    }
    let end = read_frame_line(reader, FRAME_LIMIT)
        .map_err(|e| e.to_string())?
        .ok_or("truncated frame: missing END")?;
    if end.trim() != "END" {
        return Err(format!("expected END, got {end:?}"));
    }
    Ok(cells)
}

/// One line per reply message, no trailing newlines.
fn sanitize(msg: &str) -> String {
    msg.replace(['\n', '\r'], "; ")
}

/// Runs one `SWEEP` request, streaming each cell's `RESULT` line the
/// moment the cell completes (replayed from the journal or freshly
/// computed, from whichever worker finished it) — a client watching the
/// connection sees results trickle in instead of waiting for the whole
/// batch. Failure lines (`TIMEOUT`/`ERR`) and the final `DONE` summary
/// are written after the sweep settles: [`run_cells_streaming`] reports
/// a panicked cell in its returned report, not through the callback.
/// The request's valid cells run as one sweep per seed, in seed order.
///
/// A write error mid-stream (client vanished) is swallowed per line:
/// completed cells are already journaled, so the only loss is the dead
/// connection's unread bytes.
fn run_sweep(
    shared: &Shared,
    head: &SweepHead,
    specs: &[CellSpec],
    deadline: Option<Instant>,
    writer: &Mutex<std::io::BufWriter<TcpStream>>,
) -> std::io::Result<()> {
    let send = |line: String| {
        let mut w = lock_recover(writer);
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    };
    // Which spec indices have had their line written (streamed results
    // now, failures later) — anything still false at the end gets the
    // no-outcome ERR line.
    let emitted = Mutex::new(vec![false; specs.len()]);
    let (mut ok, mut timeout, mut err) = (0usize, 0usize, 0usize);
    let (mut hits, mut computed) = (0usize, 0usize);

    // Resolve specs; unresolvable cells fail individually, and the
    // valid remainder is grouped by seed (one Runner per seed).
    let mut by_seed: std::collections::BTreeMap<u64, Vec<(usize, Mix, PolicyKind)>> =
        std::collections::BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let key = CellKey {
            fingerprint: 0,
            group: spec.group.clone(),
            mix: spec.mix.clone(),
            policy: spec.policy.clone(),
            seed: spec.seed,
        };
        match (key.to_mix(), PolicyKind::from_name(&spec.policy)) {
            (Some(mix), Some(policy)) => {
                by_seed.entry(spec.seed).or_default().push((i, mix, policy));
            }
            (mix, _) => {
                let what = if mix.is_none() { "group/mix" } else { "policy" };
                send(format!(
                    "ERR {i} unknown {what} in {} {} {}",
                    spec.group, spec.mix, spec.policy
                ));
                lock_recover(&emitted)[i] = true;
                err += 1;
            }
        }
    }

    for (seed, group) in by_seed {
        let runner = Runner::new(
            SmtConfig::hpca2008_baseline(),
            RunConfig {
                insts_per_thread: head.insts,
                warmup_insts: head.warmup,
                seed,
                ..RunConfig::default()
            },
        );
        let fingerprint = runner.config_fingerprint();
        let cells: Vec<SweepCell<'_>> = group
            .iter()
            .map(|(_, mix, policy)| SweepCell {
                runner: &runner,
                mix: mix.clone(),
                policy: *policy,
            })
            .collect();
        let session = SweepSession {
            store: shared.store.clone(),
            fault_plan: shared.cfg.fault_plan.clone(),
            cell_timeout: shared.cfg.cell_timeout,
            deadline,
        };
        let on_cell = |ci: usize, outcome: &Result<MixResult, CellError>| {
            // Stream completions; failures wait for the settled report.
            if let Ok(r) = outcome {
                let (i, mix, policy) = &group[ci];
                let key = CellKey::new(fingerprint, mix, *policy, seed);
                send(format!(
                    "RESULT {i} {}",
                    format_record_line(&key, &encode_result(r))
                ));
                lock_recover(&emitted)[*i] = true;
            }
        };
        let report = run_cells_streaming(&cells, shared.cfg.threads, &session, &on_cell);
        hits += report.replayed;
        computed += report.computed;
        ok += report.results.iter().filter(|r| r.is_some()).count();
        for f in &report.failures {
            let i = group[f.index].0;
            match f.kind {
                CellErrorKind::Timeout => {
                    send(format!(
                        "TIMEOUT {i} {}: {}",
                        f.identity,
                        sanitize(&f.error)
                    ));
                    timeout += 1;
                }
                CellErrorKind::Panic => {
                    send(format!("ERR {i} {}: {}", f.identity, sanitize(&f.error)));
                    err += 1;
                }
            }
            lock_recover(&emitted)[i] = true;
        }
    }

    let c = &shared.counters;
    c.cells_ok.fetch_add(ok as u64, Ordering::Relaxed);
    c.cells_timeout.fetch_add(timeout as u64, Ordering::Relaxed);
    c.cells_err.fetch_add(err as u64, Ordering::Relaxed);
    c.hits.fetch_add(hits as u64, Ordering::Relaxed);
    c.computed.fetch_add(computed as u64, Ordering::Relaxed);

    for (i, done) in lock_recover(&emitted).iter().enumerate() {
        if !done {
            send(format!("ERR {i} cell produced no outcome"));
        }
    }
    {
        let mut w = lock_recover(writer);
        writeln!(
            w,
            "{}",
            format_done(head.id, ok, timeout, err, hits, computed)
        )?;
        w.flush()?;
    }
    Ok(())
}
