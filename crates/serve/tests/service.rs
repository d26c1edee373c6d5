//! End-to-end robustness tests for the sweep service (ISSUE 9
//! acceptance criteria):
//!
//! * overload shedding: a full admission queue answers `BUSY` on an
//!   intact connection — never a dropped one;
//! * deadlines: an expired deadline yields per-cell `TIMEOUT` lines
//!   *alongside* completed (warm) `RESULT` lines;
//! * containment: a panicking worker costs one `ERR` line and the
//!   server keeps serving;
//! * graceful drain: `SHUTDOWN` (and SIGTERM, in the subprocess tests)
//!   finishes in-flight work, flushes a valid journal, and exits 0;
//! * crash recovery: `kill -9` mid-batch, restart, resubmit — the
//!   reply is bit-identical to a local computation and mostly served
//!   warm (verified through `STATS`/`DONE` hit counters);
//! * wire bytes: a journaled server's `RESULT` payload is the cell's
//!   journal line, byte for byte, and a reply the journal answers whole
//!   is flushed once;
//! * warm answers: a hit is sent from its stored line without a decode
//!   (`STATS store_hits=` stays 0), hits are answered before any cold
//!   cell is simulated, and an injected panic fires only on cold cells;
//! * connections: a client's repeat requests and `BUSY` retries travel
//!   on one kept connection (counted by `STATS accepted=`), a kept
//!   connection a drain closed is replaced without spending a retry,
//!   and one-shot clients are accepted without a fixed wait.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use rat_core::store::encode_result;
use rat_core::{Backoff, ResultStore, RunConfig, Runner};
use rat_serve::protocol::{LineReader, MAX_LINE};
use rat_serve::{CellOutcome, CellSpec, Client, Server, ServerConfig, SweepRequest};
use rat_smt::{PolicyKind, SmtConfig};
use rat_workload::mixes_for_group;
use rat_workload::WorkloadGroup;

fn tmp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rat_service_{tag}_{}", std::process::id()));
    p
}

struct Cleanup(Vec<std::path::PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A tight retry schedule so shedding tests fail fast.
fn tight_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(1), Duration::from_millis(4), 2, 7)
}

/// Tiny cells so tests finish quickly.
fn request(id: u64, n_cells: usize, deadline_ms: Option<u64>) -> SweepRequest {
    let mixes = mixes_for_group(WorkloadGroup::Mem2);
    let cells = [PolicyKind::Icount, PolicyKind::Rat]
        .iter()
        .flat_map(|p| {
            mixes.iter().map(move |m| CellSpec {
                group: "MEM2".to_string(),
                mix: m.label(),
                policy: p.name().to_string(),
                seed: 42,
            })
        })
        .take(n_cells)
        .collect();
    SweepRequest {
        id,
        insts: 1_500,
        warmup: 500,
        deadline_ms,
        cells,
    }
}

fn spawn_server(
    cfg: ServerConfig,
) -> (
    Arc<Server>,
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Arc::new(Server::bind(cfg).expect("bind"));
    let addr = server.local_addr();
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run());
    (server, addr, handle)
}

/// `max_inflight=0` sheds every sweep with `BUSY` — and the connection
/// survives to serve the next request (a `PING` on the same socket).
/// The retrying client sends its retries on that same connection.
#[test]
fn full_queue_answers_busy_without_dropping_the_connection() {
    let (server, addr, handle) = spawn_server(ServerConfig {
        max_inflight: 0,
        retry_after_ms: 123,
        ..ServerConfig::default()
    });

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = LineReader::new(stream.try_clone().unwrap(), MAX_LINE);
    let mut writer = stream;
    for line in request(1, 2, None).to_lines() {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let reply = reader.read_line().unwrap().unwrap();
    assert_eq!(reply, "BUSY retry_after_ms=123");

    // Same connection, next request: still alive.
    writeln!(writer, "PING").unwrap();
    writer.flush().unwrap();
    assert_eq!(reader.read_line().unwrap().as_deref(), Some("PONG"));

    // The retrying client gives up with an availability error, not a
    // transport error, after three attempts on one connection.
    let probe = Client::new(addr.to_string(), 0);
    let before = probe.stats().unwrap();
    let client = Client::new(addr.to_string(), 1).with_backoff(tight_backoff());
    let err = client.sweep(&request(2, 2, None)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    let after = probe.stats().unwrap();
    assert_eq!(
        after["busy"] - before["busy"],
        3,
        "the first try and two retries"
    );
    assert_eq!(
        after["accepted"] - before["accepted"],
        1,
        "the BUSY retries travel on the client's first connection"
    );

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// An expired deadline times out only the *cold* cells: warm cells are
/// served from the journal on the same reply, so partial results
/// arrive instead of nothing.
#[test]
fn expired_deadline_returns_partial_results_with_timeouts() {
    let path = tmp_path("deadline");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 2);

    // Warm two cells.
    let warm = client.sweep(&request(1, 2, None)).unwrap();
    assert_eq!(warm.computed(), 2);

    // Ask for three with an already-expired deadline: the two warm
    // cells still come back as results, the cold one as TIMEOUT.
    let reply = client.sweep(&request(2, 3, Some(0))).unwrap();
    assert_eq!(reply.hits(), 2);
    assert_eq!(reply.computed(), 0);
    assert_eq!(reply.done["ok"], 2);
    assert_eq!(reply.done["timeout"], 1);
    assert!(reply.outcomes[0].result().is_some());
    assert!(reply.outcomes[1].result().is_some());
    assert!(matches!(&reply.outcomes[2], CellOutcome::Timeout(msg) if msg.contains("deadline")));

    // The same cell without a deadline computes fine afterwards — a
    // timed-out cell poisons nothing.
    let healthy = client.sweep(&request(3, 3, None)).unwrap();
    assert_eq!(healthy.done["ok"], 3);
    assert_eq!(healthy.computed(), 1);

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A worker panic (injected) costs exactly its cell — an `ERR` line —
/// while the other cells of the same batch complete, and the server
/// keeps serving afterwards.
#[test]
fn panicking_cell_is_contained_as_err() {
    let path = tmp_path("panic");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        fault_plan: Some(rat_core::FaultPlan::parse("panic@0").unwrap()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 3);

    let reply = client.sweep(&request(1, 3, None)).unwrap();
    assert_eq!(reply.done["err"], 1);
    assert_eq!(reply.done["ok"], 2);
    assert!(matches!(&reply.outcomes[0], CellOutcome::Err(msg) if msg.contains("panic")));
    assert!(reply.outcomes[1].result().is_some());
    assert!(reply.outcomes[2].result().is_some());

    // Still serving; and the previously-journaled cells replay without
    // touching a worker, so the standing fault plan cannot re-fire.
    client.ping().unwrap();
    let warm = client.sweep(&request(2, 3, None)).unwrap();
    assert_eq!(warm.hits(), 2);
    assert_eq!(warm.done["err"], 1, "the cold cell panics again");

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// Unknown mixes/policies and malformed frames are per-cell or
/// per-connection errors; the server never dies from client input.
#[test]
fn bad_input_is_contained() {
    let (server, addr, handle) = spawn_server(ServerConfig::default());
    let client = Client::new(addr.to_string(), 4);

    // Unknown policy: that cell errors, the valid cell completes.
    let mut req = request(1, 2, None);
    req.cells[0].policy = "NOPE".to_string();
    let reply = client.sweep(&req).unwrap();
    assert!(matches!(&reply.outcomes[0], CellOutcome::Err(msg) if msg.contains("policy")));
    assert!(reply.outcomes[1].result().is_some());

    // Malformed request line: BAD, connection closed, server alive.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = LineReader::new(stream.try_clone().unwrap(), MAX_LINE);
    let mut writer = stream;
    writeln!(writer, "SWEEP id=banana").unwrap();
    writer.flush().unwrap();
    let reply = reader.read_line().unwrap().unwrap();
    assert!(reply.starts_with("BAD "), "{reply}");
    client.ping().unwrap();

    // Truncated frame (header promises more cells than sent): BAD.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = LineReader::new(stream.try_clone().unwrap(), MAX_LINE);
    let mut writer = stream;
    writeln!(writer, "SWEEP id=1 insts=10 warmup=0 cells=2").unwrap();
    writeln!(writer, "CELL MEM2 art+mcf RaT 1").unwrap();
    writeln!(writer, "END").unwrap();
    writer.flush().unwrap();
    let reply = reader.read_line().unwrap().unwrap();
    assert!(reply.starts_with("BAD "), "{reply}");
    client.ping().unwrap();

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// `SHUTDOWN` drains gracefully in process: the run loop returns
/// `Ok(())`, the journal reopens complete, and `STATS` reported the
/// drain while it was underway.
#[test]
fn shutdown_request_drains_gracefully() {
    let path = tmp_path("drain");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (_server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 5);

    let reply = client.sweep(&request(1, 4, None)).unwrap();
    assert_eq!(reply.done["ok"], 4);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // The journal is valid and complete: a store reopens all 4 records
    // and a fresh server serves them warm.
    let store = ResultStore::open(&path);
    assert_eq!(store.stats().loaded, 4);
    assert_eq!(store.stats().quarantined, 0);
    drop(store);

    let (server2, addr2, handle2) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let client2 = Client::new(addr2.to_string(), 6);
    let warm = client2.sweep(&request(2, 4, None)).unwrap();
    assert_eq!(warm.hits(), 4);
    assert_eq!(warm.computed(), 0);
    server2.request_shutdown();
    handle2.join().unwrap().unwrap();
}

/// `RESULT` lines stream as cells complete: on a serial (one-worker)
/// server, the first cell's line must arrive while the later cells are
/// still simulating — long before `DONE` — rather than the whole reply
/// landing in one buffered burst.
#[test]
fn results_stream_progressively_as_cells_complete() {
    let (server, addr, handle) = spawn_server(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = LineReader::new(stream.try_clone().unwrap(), MAX_LINE);
    let mut writer = stream;
    for line in request(21, 4, None).to_lines() {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();

    // Timestamp every reply line as it arrives off the wire.
    let mut arrivals: Vec<(std::time::Instant, String)> = Vec::new();
    loop {
        let line = reader.read_line().unwrap().expect("reply line");
        let done = line.starts_with("DONE");
        arrivals.push((std::time::Instant::now(), line));
        if done {
            break;
        }
    }

    assert_eq!(arrivals.len(), 5, "4 RESULT lines + DONE");
    let first_result = arrivals
        .iter()
        .find(|(_, l)| l.starts_with("RESULT"))
        .expect("at least one RESULT line")
        .0;
    let done_at = arrivals.last().unwrap().0;
    let tail = done_at.duration_since(first_result);
    let total = done_at.duration_since(arrivals[0].0).max(tail);
    // Buffered delivery lands every line within microseconds of DONE;
    // with 4 similar serial cells the first result leads DONE by about
    // three quarters of the reply window. Demand a quarter — far above
    // buffering, far below scheduling noise.
    assert!(
        tail > total / 4,
        "first RESULT must lead DONE: lead {tail:?} of {total:?}"
    );

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// Sends `request` on a raw socket and returns the reply's lines in
/// arrival order, `DONE` last.
fn raw_reply(addr: std::net::SocketAddr, request: &SweepRequest) -> Vec<String> {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = LineReader::new(stream.try_clone().unwrap(), MAX_LINE);
    let mut writer = stream;
    for line in request.to_lines() {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut lines = Vec::new();
    loop {
        let line = reader.read_line().unwrap().expect("reply line");
        let done = line.starts_with("DONE");
        lines.push(line);
        if done {
            return lines;
        }
    }
}

/// Sends `request` on a raw socket and returns each `RESULT` line's
/// record payload by cell index, plus the `DONE` line.
fn raw_result_payloads(
    addr: std::net::SocketAddr,
    request: &SweepRequest,
) -> (Vec<Option<String>>, String) {
    let mut lines = raw_reply(addr, request);
    let done = lines.pop().expect("DONE line");
    let mut payloads = vec![None; request.cells.len()];
    for line in lines {
        let rest = line.strip_prefix("RESULT ").expect("only RESULT lines");
        let (idx, payload) = rest.split_once(' ').expect("RESULT <i> <record>");
        payloads[idx.parse::<usize>().unwrap()] = Some(payload.to_string());
    }
    (payloads, done)
}

/// A journaled server's `RESULT` payload is the cell's journal line,
/// byte for byte: the line appended for a computed cell, and — after a
/// restart — the line loaded from the journal for a hit.
#[test]
fn result_payloads_are_the_journal_lines() {
    let path = tmp_path("wire_journal");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let req = request(31, 4, None);
    for expect in ["hits=0 computed=4", "hits=4 computed=0"] {
        let (server, addr, handle) = spawn_server(ServerConfig {
            journal: Some(path.clone()),
            ..ServerConfig::default()
        });
        let (payloads, done) = raw_result_payloads(addr, &req);
        assert!(done.ends_with(expect), "{done}");
        let journal = std::fs::read_to_string(&path).unwrap();
        for (i, (spec, payload)) in req.cells.iter().zip(&payloads).enumerate() {
            let cell = format!(
                " {} {} {} {} ",
                spec.group, spec.mix, spec.policy, spec.seed
            );
            let line = journal
                .lines()
                .find(|l| l.starts_with("rec ") && l.contains(&cell))
                .unwrap_or_else(|| panic!("cell {i} is journaled"));
            assert_eq!(payload.as_deref(), Some(line), "cell {i} ({expect})");
        }
        server.request_shutdown();
        handle.join().unwrap().unwrap();
    }
}

/// A reply the journal answers whole goes out in one write: a cold
/// 4-cell request flushes once per line (4 `RESULT` + `DONE`), and the
/// same request repeated warm flushes once (`STATS sweep_flushes=`).
#[test]
fn journal_answered_reply_is_one_flush() {
    let path = tmp_path("one_flush");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 51);
    let flushes = || client.stats().unwrap()["sweep_flushes"];
    let req = request(51, 4, None);

    let before = flushes();
    assert_eq!(client.sweep(&req).unwrap().computed(), 4);
    let cold = flushes();
    assert_eq!(cold - before, 5, "cold: one flush per RESULT, one for DONE");
    assert_eq!(client.sweep(&req).unwrap().hits(), 4);
    assert_eq!(flushes() - cold, 1, "warm: the whole reply in one flush");

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A journal hit is answered from its stored line and never decoded:
/// the store's decode count (`STATS store_hits=`) stays 0 however often
/// a warm request repeats.
#[test]
fn warm_repeats_decode_no_record() {
    let path = tmp_path("no_decode");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 71);
    let req = request(71, 4, None);

    assert_eq!(client.sweep(&req).unwrap().computed(), 4);
    for repeat in 1..=3 {
        assert_eq!(client.sweep(&req).unwrap().hits(), 4);
        let stats = client.stats().unwrap();
        assert_eq!(stats["hits"], 4 * repeat);
        assert_eq!(
            stats["store_hits"], 0,
            "warm repeat {repeat} decoded a record"
        );
    }

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A request the journal answers in part: the hits' lines go out before
/// anything is simulated — even when the cold cells come first in the
/// request — and `DONE` counts both kinds. `panic@C` fires on request
/// cell `C` only when that cell is cold: a hit never reaches a worker.
#[test]
fn hits_are_answered_first_and_faults_fire_only_on_cold_cells() {
    let path = tmp_path("mixed");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let mixes = mixes_for_group(WorkloadGroup::Mem2);
    let cell = |k: usize, seed: u64| CellSpec {
        group: "MEM2".to_string(),
        mix: mixes[k].label(),
        policy: "ICOUNT".to_string(),
        seed,
    };
    let sweep = |id: u64, cells: Vec<CellSpec>| SweepRequest {
        id,
        insts: 1_500,
        warmup: 500,
        deadline_ms: None,
        cells,
    };

    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 81);
    let warm = sweep(1, vec![cell(0, 43), cell(1, 43)]);
    assert_eq!(client.sweep(&warm).unwrap().computed(), 2);
    let mixed = sweep(2, vec![cell(0, 42), cell(1, 42), cell(0, 43), cell(1, 43)]);
    let lines = raw_reply(addr, &mixed);
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert!(lines[0].starts_with("RESULT 2 "), "{lines:?}");
    assert!(lines[1].starts_with("RESULT 3 "), "{lines:?}");
    assert!(lines[2..4].iter().all(|l| l.starts_with("RESULT ")));
    assert!(lines[4].ends_with("hits=2 computed=2"), "{}", lines[4]);
    server.request_shutdown();
    handle.join().unwrap().unwrap();

    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        fault_plan: Some(rat_core::FaultPlan::parse("panic@1").unwrap()),
        ..ServerConfig::default()
    });
    let client = Client::new(addr.to_string(), 82);
    // Cell 1 is a hit: nothing panics.
    let reply = client
        .sweep(&sweep(
            3,
            vec![cell(2, 42), cell(0, 42), cell(0, 43), cell(1, 43)],
        ))
        .unwrap();
    assert_eq!(
        (reply.done["ok"], reply.done["err"]),
        (4, 0),
        "{:?}",
        reply.done
    );
    assert_eq!((reply.hits(), reply.computed()), (3, 1));
    // Index 1 is cold: it panics, and only it does.
    let reply = client
        .sweep(&sweep(4, vec![cell(0, 42), cell(3, 42)]))
        .unwrap();
    assert_eq!((reply.done["ok"], reply.done["err"]), (1, 1));
    assert!(reply.outcomes[0].result().is_some());
    assert!(matches!(&reply.outcomes[1], CellOutcome::Err(msg) if msg.contains("panic")));
    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A request is one sweep whatever its seeds: `panic@1` names request
/// cell 1 even when each of the two cells has a seed of its own.
#[test]
fn fault_index_counts_cells_across_seeds() {
    let path = tmp_path("seeds");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (server, addr, handle) = spawn_server(ServerConfig {
        journal: Some(path.clone()),
        fault_plan: Some(rat_core::FaultPlan::parse("panic@1").unwrap()),
        ..ServerConfig::default()
    });
    let mut req = request(1, 1, None);
    req.cells.push(CellSpec {
        seed: 43,
        ..req.cells[0].clone()
    });
    let reply = Client::new(addr.to_string(), 83).sweep(&req).unwrap();
    assert_eq!(
        (reply.done["ok"], reply.done["err"]),
        (1, 1),
        "{:?}",
        reply.done
    );
    assert!(reply.outcomes[0].result().is_some());
    assert!(matches!(&reply.outcomes[1], CellOutcome::Err(msg) if msg.contains("panic")));
    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A client keeps its connection between sweeps: five sweeps cost the
/// server one accepted connection, not five.
#[test]
fn one_client_sends_its_sweeps_on_one_connection() {
    let (server, addr, handle) = spawn_server(ServerConfig::default());
    let probe = Client::new(addr.to_string(), 0);
    let before = probe.stats().unwrap()["accepted"];

    let client = Client::new(addr.to_string(), 41);
    for id in 0..5 {
        let reply = client.sweep(&request(id, 2, None)).unwrap();
        assert_eq!(reply.done["ok"], 2, "sweep {id}");
    }
    let after = probe.stats().unwrap()["accepted"];
    assert_eq!(after - before, 1, "five sweeps, one connection");

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A drain closes a client's idle kept connection. The client's next
/// sweep finds it closed before any reply and resends at once on a new
/// connection, which reaches a server re-bound on the same address —
/// even when the client is allowed no retries at all.
#[test]
fn connection_closed_by_a_drain_is_replaced_without_a_retry() {
    let (server, addr, handle) = spawn_server(ServerConfig::default());
    let no_retries = Backoff::new(Duration::from_millis(1), Duration::from_millis(1), 0, 7);
    let client = Client::new(addr.to_string(), 42).with_backoff(no_retries);
    assert_eq!(client.sweep(&request(1, 1, None)).unwrap().done["ok"], 1);

    // The drain waits for the idle kept connection to close; dropping
    // the server then releases the address.
    server.request_shutdown();
    handle.join().unwrap().unwrap();
    drop(server);

    let (server2, _, handle2) = spawn_server(ServerConfig {
        addr: addr.to_string(),
        ..ServerConfig::default()
    });
    assert_eq!(client.sweep(&request(2, 1, None)).unwrap().done["ok"], 1);
    assert_eq!(
        client.stats().unwrap()["accepted"],
        1,
        "the sweep and this STATS share the one new connection"
    );

    server2.request_shutdown();
    handle2.join().unwrap().unwrap();
}

/// The accept loop wakes when a connection arrives instead of after a
/// fixed sleep, so one-shot clients (a new connection per request, as
/// `rat-client` makes) are not held up: 50 sequential one-shot `PING`s
/// take a few milliseconds, where a 25-ms accept sleep costs over a
/// second.
#[test]
fn one_shot_pings_are_accepted_without_a_fixed_wait() {
    let (server, addr, handle) = spawn_server(ServerConfig::default());
    let started = std::time::Instant::now();
    for seed in 0..50 {
        Client::new(addr.to_string(), seed).ping().unwrap();
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "50 one-shot PINGs took {took:?}"
    );

    server.request_shutdown();
    handle.join().unwrap().unwrap();
}

// ---------------------------------------------------------------------
// Subprocess tests: real processes, real signals, real kill -9.
// ---------------------------------------------------------------------

/// Starts `rat-serve` as a subprocess and returns (child, addr).
fn spawn_server_process(journal: &std::path::Path) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_rat-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn rat-serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();
    (child, addr)
}

fn journaled_records(path: &std::path::Path) -> usize {
    std::fs::read_to_string(path)
        .map(|s| s.lines().filter(|l| l.starts_with("rec ")).count())
        .unwrap_or(0)
}

/// The crash-recovery round trip: kill -9 the server mid-batch,
/// restart on the same journal, resubmit — the reply is complete,
/// bit-identical to a local computation, and the previously journaled
/// cells are served warm (visible in the DONE/STATS hit counters).
#[test]
fn kill_dash_nine_restart_resubmit_is_bit_identical() {
    let path = tmp_path("kill9");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (mut child, addr) = spawn_server_process(&path);

    // Submit in a background thread (the kill will strand it; its
    // error is expected and ignored).
    let req = request(7, 8, None);
    let submit_req = req.clone();
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        let client = Client::new(submit_addr, 8).with_backoff(tight_backoff());
        let _ = client.sweep(&submit_req);
    });

    // Kill -9 once at least one cell is journaled (mid-batch).
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while journaled_records(&path) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "no record journaled before timeout"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let at_kill = journaled_records(&path);
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    submitter.join().unwrap();

    // Restart on the same journal; resubmit the identical batch.
    let (mut child2, addr2) = spawn_server_process(&path);
    let client = Client::new(addr2, 9);
    let reply = client.sweep(&req).unwrap();
    assert_eq!(reply.done["ok"], 8, "every cell served after restart");
    assert!(
        reply.hits() >= at_kill as u64,
        "journaled cells ({at_kill}) must be served warm, got hits={}",
        reply.hits()
    );
    let stats = client.stats().unwrap();
    assert!(stats["store_loaded"] >= at_kill as u64);
    assert_eq!(stats["cells_ok"], 8);

    // Bit-identity: the served results equal a local computation with
    // the same config, cell for cell.
    let runner = Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: req.insts,
            warmup_insts: req.warmup,
            seed: 42,
            ..RunConfig::default()
        },
    );
    let mixes = mixes_for_group(WorkloadGroup::Mem2);
    for (spec, outcome) in req.cells.iter().zip(&reply.outcomes) {
        let mix = mixes.iter().find(|m| m.label() == spec.mix).unwrap();
        let policy = PolicyKind::from_name(&spec.policy).unwrap();
        let local = runner.run_mix(mix, policy);
        let served = outcome.result().expect("cell served");
        assert_eq!(
            encode_result(&local),
            encode_result(served),
            "{} under {}: served result must be bit-identical",
            spec.mix,
            spec.policy
        );
    }

    client.shutdown().unwrap();
    let status = child2.wait().expect("restarted server exits");
    assert!(status.success(), "graceful drain must exit 0, got {status}");
}

/// SIGTERM mid-load drains gracefully: the in-flight sweep finishes
/// (the client gets its full reply), the process exits 0, and the
/// journal reopens valid.
#[cfg(unix)]
#[test]
fn sigterm_mid_load_drains_and_exits_zero() {
    let path = tmp_path("sigterm");
    let _cleanup = Cleanup(vec![path.clone(), path.with_extension("quarantine")]);
    let (mut child, addr) = spawn_server_process(&path);

    let req = request(11, 8, None);
    let submit_req = req.clone();
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || Client::new(submit_addr, 12).sweep(&submit_req));

    // SIGTERM once the sweep is demonstrably in flight.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while journaled_records(&path) < 1 {
        assert!(std::time::Instant::now() < deadline, "sweep never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // In-flight work finishes: the stranded client still gets a full
    // reply, and the server then exits 0.
    let reply = submitter
        .join()
        .unwrap()
        .expect("in-flight sweep completes");
    assert_eq!(reply.done["ok"], 8);
    let status = child.wait().expect("server exits");
    assert!(status.success(), "graceful drain must exit 0, got {status}");

    // Journal valid and complete after the drain's compaction.
    let store = ResultStore::open(&path);
    assert_eq!(store.stats().quarantined, 0);
    assert_eq!(store.stats().loaded, 8);
}
