//! The retrying sweep client.
//!
//! [`Client::sweep`] submits a batch and survives the server's two
//! designed refusals: a shed request (`BUSY`) and a dropped/refused
//! connection (server restarting) are both retried under one
//! [`Backoff`] schedule — capped exponential delays with deterministic
//! seeded jitter. Retries are safe because requests are idempotent by
//! construction: cells are content-addressed ([`CellKey`]), so a
//! resubmitted batch is served from the server's journal, not
//! recomputed.
//!
//! A client keeps its connection after a reply that leaves it open
//! (`DONE`, `BUSY`, `PONG`, `STATS`) and sends its next request on it,
//! so a repeat request skips the connect and the server's accept. Any
//! other ending (`BAD`, `BYE`, an error) drops the connection, and the
//! next request opens a new one. A kept connection can go stale while
//! idle: a draining server closes idle connections within its 300-ms
//! read timeout, and a restarted server never knew them. If a kept
//! connection fails before the first reply line, the client opens a new
//! connection at once and resends, without spending a retry — safe for
//! the same reason retries are.
//!
//! A `BAD` reply (malformed request) and a corrupt `RESULT` record are
//! *not* retried: they cannot heal by waiting.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use rat_core::store::decode_result;
use rat_core::{lock_recover, Backoff, CellKey, MixResult};

use crate::protocol::{parse_reply, LineReader, Reply, SweepRequest, MAX_LINE};

/// What one cell of a sweep reply came back as.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell completed; the result decoded bit-exactly.
    Result(Box<MixResult>),
    /// The cell hit the request deadline or the server's watchdog.
    Timeout(String),
    /// The cell failed (bad spec or contained worker panic).
    Err(String),
}

impl CellOutcome {
    /// The completed result, if any.
    pub fn result(&self) -> Option<&MixResult> {
        match self {
            CellOutcome::Result(r) => Some(r),
            _ => None,
        }
    }
}

/// A full sweep reply: per-cell outcomes in request order plus the
/// `DONE` counters (`id`, `ok`, `timeout`, `err`, `hits`, `computed`).
#[derive(Clone, Debug)]
pub struct SweepReply {
    /// Outcome per requested cell, in request order.
    pub outcomes: Vec<CellOutcome>,
    /// The `DONE` line's counters.
    pub done: BTreeMap<String, u64>,
}

impl SweepReply {
    /// Cells served from the server's journal (warm cache hits).
    pub fn hits(&self) -> u64 {
        self.done.get("hits").copied().unwrap_or(0)
    }

    /// Cells simulated for this request.
    pub fn computed(&self) -> u64 {
        self.done.get("computed").copied().unwrap_or(0)
    }
}

enum Attempt {
    Reply(SweepReply),
    Busy { retry_after_ms: u64 },
}

/// One open connection to the server.
struct Conn {
    stream: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Conn {
    /// Sends `frame` (whole request lines) and reads the first reply
    /// line. A close before that line is `UnexpectedEof`, which
    /// [`retryable`] accepts.
    fn send(&mut self, frame: &str) -> std::io::Result<String> {
        self.stream.write_all(frame.as_bytes())?;
        self.stream.flush()?;
        self.reader.read_line()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection without replying",
            )
        })
    }
}

/// See the module docs.
pub struct Client {
    addr: String,
    backoff: Backoff,
    /// How long to wait for the server to produce each reply line
    /// (cold sweeps simulate, so this is generous).
    reply_timeout: Duration,
    /// The connection the last reply left open, if any. Taken for the
    /// length of a request, so concurrent requests on one client each
    /// use their own connection.
    kept: Mutex<Option<Conn>>,
}

fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// A client for `addr` with the default retry schedule (6 retries,
    /// 50 ms doubling to a 2 s cap, jitter seeded by `seed` so
    /// concurrent clients de-synchronize deterministically).
    pub fn new(addr: impl Into<String>, seed: u64) -> Client {
        Client {
            addr: addr.into(),
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 6, seed),
            reply_timeout: Duration::from_secs(300),
            kept: Mutex::new(None),
        }
    }

    /// Overrides the retry schedule (tests use tight ones).
    pub fn with_backoff(mut self, backoff: Backoff) -> Client {
        self.backoff = backoff;
        self
    }

    fn connect(&self) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.reply_timeout))?;
        stream.set_nodelay(true)?;
        let reader = LineReader::new(stream.try_clone()?, MAX_LINE);
        Ok(Conn { stream, reader })
    }

    /// Sends `frame` on the kept connection, or on a new one if none is
    /// kept or the kept one fails before replying, and returns the
    /// connection with the first reply line. Hand the connection back
    /// with [`Client::keep`] once its reply is read in full.
    fn exchange(&self, frame: &str) -> std::io::Result<(Conn, String)> {
        let kept = lock_recover(&self.kept).take();
        if let Some(mut conn) = kept {
            match conn.send(frame) {
                Ok(line) => return Ok((conn, line)),
                // Stale: replace it at once, spending no retry.
                Err(e) if retryable(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let mut conn = self.connect()?;
        let line = conn.send(frame)?;
        Ok((conn, line))
    }

    /// Keeps `conn` for the next request.
    fn keep(&self, conn: Conn) {
        *lock_recover(&self.kept) = Some(conn);
    }

    fn roundtrip(&self, request: &str) -> std::io::Result<Reply> {
        let (conn, line) = self.exchange(&format!("{request}\n"))?;
        let reply = parse_reply(&line).map_err(bad)?;
        if matches!(reply, Reply::Pong | Reply::Stats(_)) {
            self.keep(conn);
        }
        Ok(reply)
    }

    /// Health check (`PING` → `PONG`), retrying connection failures —
    /// also the way to wait for a server that is still starting.
    pub fn ping(&self) -> std::io::Result<()> {
        let mut attempt = 0;
        loop {
            match self.roundtrip("PING") {
                Ok(Reply::Pong) => return Ok(()),
                Ok(other) => return Err(bad(format!("expected PONG, got {other:?}"))),
                Err(e) if retryable(&e) && attempt < self.backoff.max_retries() => {
                    std::thread::sleep(self.backoff.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The server's counters (`STATS`) as a map.
    pub fn stats(&self) -> std::io::Result<BTreeMap<String, u64>> {
        match self.roundtrip("STATS")? {
            Reply::Stats(map) => Ok(map),
            other => Err(bad(format!("expected STATS, got {other:?}"))),
        }
    }

    /// Asks the server to drain and exit (`SHUTDOWN` → `BYE`).
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self.roundtrip("SHUTDOWN")? {
            Reply::Bye => Ok(()),
            other => Err(bad(format!("expected BYE, got {other:?}"))),
        }
    }

    /// Submits a sweep, retrying `BUSY` and transport failures with
    /// backoff. Safe to call repeatedly with the same request: cells
    /// are idempotent by content address.
    ///
    /// The request travels on the connection the previous reply left
    /// open, if any: a `DONE` or `BUSY` reply keeps it, so a `BUSY`
    /// retry and the next sweep reuse it too. If that kept connection
    /// fails before the first reply line (a draining server closes idle
    /// connections within its 300-ms read timeout), the request is
    /// resent at once on a new connection without spending a retry.
    pub fn sweep(&self, request: &SweepRequest) -> std::io::Result<SweepReply> {
        let mut attempt = 0;
        loop {
            let give_up = attempt >= self.backoff.max_retries();
            match self.try_sweep(request) {
                Ok(Attempt::Reply(reply)) => return Ok(reply),
                Ok(Attempt::Busy { .. }) if give_up => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        format!("server still BUSY after {attempt} retries"),
                    ))
                }
                Ok(Attempt::Busy { retry_after_ms }) => {
                    // Respect the server's hint when it is longer than
                    // our own schedule.
                    let delay = self
                        .backoff
                        .delay(attempt)
                        .max(Duration::from_millis(retry_after_ms));
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                Err(e) if retryable(&e) && !give_up => {
                    std::thread::sleep(self.backoff.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt: the request and its whole reply. The connection is
    /// kept only when the reply ends in `BUSY` or `DONE`; on any error
    /// it is dropped with whatever of the reply is still unread.
    fn try_sweep(&self, request: &SweepRequest) -> std::io::Result<Attempt> {
        let mut frame = String::new();
        for line in request.to_lines() {
            frame.push_str(&line);
            frame.push('\n');
        }
        let (mut conn, mut line) = self.exchange(&frame)?;

        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; request.cells.len()];
        let place = |outcomes: &mut Vec<Option<CellOutcome>>,
                     idx: usize,
                     outcome: CellOutcome|
         -> std::io::Result<()> {
            let slot = outcomes
                .get_mut(idx)
                .ok_or_else(|| bad(format!("reply names out-of-range cell {idx}")))?;
            *slot = Some(outcome);
            Ok(())
        };
        loop {
            match parse_reply(&line).map_err(bad)? {
                Reply::Busy { retry_after_ms } => {
                    self.keep(conn);
                    return Ok(Attempt::Busy { retry_after_ms });
                }
                Reply::Bad(msg) => return Err(bad(format!("server rejected request: {msg}"))),
                Reply::Result { idx, key, words } => {
                    let spec = request
                        .cells
                        .get(idx)
                        .ok_or_else(|| bad(format!("reply names out-of-range cell {idx}")))?;
                    if !same_cell(&key, spec) {
                        return Err(bad(format!(
                            "cell {idx} reply is for {} — request/reply skew",
                            key.identity()
                        )));
                    }
                    let result = decode_result(&words, &key)
                        .ok_or_else(|| bad(format!("cell {idx} record failed to decode")))?;
                    place(&mut outcomes, idx, CellOutcome::Result(Box::new(result)))?;
                }
                Reply::Timeout { idx, msg } => {
                    place(&mut outcomes, idx, CellOutcome::Timeout(msg))?;
                }
                Reply::Err { idx, msg } => {
                    place(&mut outcomes, idx, CellOutcome::Err(msg))?;
                }
                Reply::Done(done) => {
                    let outcomes: Option<Vec<CellOutcome>> = outcomes.into_iter().collect();
                    let outcomes =
                        outcomes.ok_or_else(|| bad("DONE before every cell was answered"))?;
                    self.keep(conn);
                    return Ok(Attempt::Reply(SweepReply { outcomes, done }));
                }
                other => {
                    return Err(bad(format!("unexpected line in sweep reply: {other:?}")));
                }
            }
            line = conn
                .reader
                .read_line()?
                .ok_or_else(|| bad("connection closed mid-reply"))?;
        }
    }
}

/// The reply record must be for the cell the request named. The server
/// canonicalizes names (`icount` → `ICOUNT`), so compare
/// case-insensitively.
fn same_cell(key: &CellKey, spec: &crate::protocol::CellSpec) -> bool {
    key.group.eq_ignore_ascii_case(&spec.group)
        && key.mix.eq_ignore_ascii_case(&spec.mix)
        && key.policy.eq_ignore_ascii_case(&spec.policy)
        && key.seed == spec.seed
}
