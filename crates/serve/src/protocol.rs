//! The sweep service's line-based wire protocol.
//!
//! Every message is one `\n`-terminated UTF-8 line (a `SWEEP` request
//! is a header line, one `CELL` line per cell, and an `END` line).
//! Lines are bounded ([`MAX_LINE`]) and batches are bounded
//! ([`MAX_CELLS`]); anything outside those bounds — or syntactically
//! malformed — is rejected with an error, never a panic, and never an
//! unbounded allocation ([`LineReader`] stops buffering at the cap
//! *while reading*, not after).
//!
//! # Grammar
//!
//! Client → server:
//!
//! ```text
//! PING
//! STATS
//! SHUTDOWN
//! SWEEP id=<u64> insts=<u64> warmup=<u64> cells=<n> [deadline_ms=<u64>]
//! CELL <group> <mix> <policy> <seed>     (n times)
//! END
//! ```
//!
//! Server → client:
//!
//! ```text
//! PONG
//! STATS <key>=<value> ...
//! BYE
//! BUSY retry_after_ms=<u64>
//! BAD <message>
//! RESULT <idx> <record-line>             (per completed cell)
//! TIMEOUT <idx> <message>                (per deadline-expired cell)
//! ERR <idx> <message>                    (per failed cell)
//! DONE id=<u64> ok=<n> timeout=<n> err=<n> hits=<n> computed=<n>
//! ```
//!
//! `RESULT` carries the result journal's record line verbatim
//! ([`rat_core::format_record_line`]): f64s travel as `to_bits` hex
//! words (bit-exact) and every line carries its own XXH64 checksum, so
//! wire corruption is detected exactly like journal corruption, and a
//! record in any spelling but the formatter's is refused as the journal
//! quarantines it ([`rat_core::parse_record_line`]). The `RESULT` framing
//! is as strict: one space on each side of a canonical decimal index,
//! and nothing trimmed from the line. A
//! journaled server sends the record's stored line, as loaded from the
//! journal or as appended to it ([`rat_core::ResultStore::record_line`]),
//! so a replayed cell is never re-formatted. The line is the journal's
//! record format (`ratstore v2`), so a client and a server built with
//! different record versions refuse each other's `RESULT` lines as
//! corrupt.
//!
//! A sweep reply is streamed: the server flushes each line as it writes
//! it, so a `RESULT` reaches the client the moment its cell completes.
//! The exception is a request whose every valid cell the journal
//! already holds: nothing in it waits on a simulation, so its lines
//! go out together, in one write, when `DONE` is flushed.
//!
//! `deadline_ms` counts from request receipt; `deadline_ms=0` is an
//! already-expired deadline (cold cells time out deterministically,
//! warm cells are still served). Omitting it means no deadline.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};

use rat_core::store::parse_decimal;
use rat_core::{parse_record_line, CellKey};

/// Longest accepted line, in bytes (newline excluded). Generous for
/// real records (in a `fig1 --quick` journal a 2-thread record line is
/// about 2.6 KB and a 4-thread one about 4.9 KB) and small enough that
/// a hostile peer cannot balloon the server.
pub const MAX_LINE: usize = 64 * 1024;

/// Most cells accepted in one `SWEEP` batch.
pub const MAX_CELLS: usize = 1024;

/// A bounded, interruption-tolerant line reader.
///
/// Unlike [`BufRead::read_line`], the cap is enforced *while* reading
/// (an over-long line errors having buffered at most `max + 1` bytes of
/// it), and a partial line survives a read timeout
/// (`WouldBlock`/`TimedOut`): the caller can poll a shutdown flag and
/// try again without losing bytes — which is how server connections
/// stay responsive to drain.
///
/// The buffer holds one maximal line (`max + 1` bytes), so a reply the
/// server sent in one write, up to that size, is taken in one `read`.
pub struct LineReader<R: Read> {
    inner: BufReader<R>,
    partial: Vec<u8>,
    max: usize,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner`, accepting lines up to `max` bytes.
    pub fn new(inner: R, max: usize) -> LineReader<R> {
        LineReader {
            inner: BufReader::with_capacity(max + 1, inner),
            partial: Vec::new(),
            max,
        }
    }

    /// Reads the next line (without its terminator; a trailing `\r` is
    /// stripped, and counts toward the cap). `Ok(None)` is clean
    /// end-of-stream. Errors: over-long line or EOF mid-line
    /// (`InvalidData`), non-UTF-8 line (`InvalidData`), or any
    /// transport error — including `WouldBlock`/`TimedOut` from a read
    /// timeout, after which calling again resumes the same line. An
    /// over-long line is left partly unread, so a reader that returned
    /// `InvalidData` is done.
    pub fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        // A line of `max` bytes and its newline is the most ever
        // buffered. `read_until` keeps what it read when a read fails,
        // so a timeout loses nothing.
        let room = (self.max + 1 - self.partial.len()) as u64;
        (&mut self.inner)
            .take(room)
            .read_until(b'\n', &mut self.partial)?;
        if self.partial.pop_if(|b| *b == b'\n').is_none() {
            return if self.partial.is_empty() {
                Ok(None)
            } else if self.partial.len() > self.max {
                self.partial.clear();
                Err(invalid(&format!("line exceeds {} bytes", self.max)))
            } else {
                Err(invalid("truncated frame: end of stream inside a line"))
            };
        }
        let mut bytes = std::mem::take(&mut self.partial);
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        String::from_utf8(bytes)
            .map(Some)
            .map_err(|_| invalid("non-UTF-8 line"))
    }
}

/// One cell of a sweep request: the cell's content address minus the
/// config fingerprint (the server derives that from its own runner).
/// Names are resolved server-side; an unresolvable cell fails as an
/// `ERR` line, not a rejected request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Workload group name, e.g. `MEM2`.
    pub group: String,
    /// `+`-joined benchmark names, e.g. `art+mcf`.
    pub mix: String,
    /// Policy name, e.g. `RaT`.
    pub policy: String,
    /// Workload RNG seed.
    pub seed: u64,
}

impl CellSpec {
    /// The `CELL ...` request line for this cell.
    pub fn to_line(&self) -> String {
        format!(
            "CELL {} {} {} {}",
            self.group, self.mix, self.policy, self.seed
        )
    }
}

/// A full sweep request (header + cells).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRequest {
    /// Client-chosen id, echoed in the `DONE` line.
    pub id: u64,
    /// Per-thread measurement quota.
    pub insts: u64,
    /// Per-thread warmup instructions.
    pub warmup: u64,
    /// Deadline from request receipt; `Some(0)` is already expired,
    /// `None` is unbounded.
    pub deadline_ms: Option<u64>,
    /// The cells, in reply order.
    pub cells: Vec<CellSpec>,
}

impl SweepRequest {
    /// The request as protocol lines (header, cells, `END`).
    pub fn to_lines(&self) -> Vec<String> {
        let mut head = format!(
            "SWEEP id={} insts={} warmup={} cells={}",
            self.id,
            self.insts,
            self.warmup,
            self.cells.len()
        );
        if let Some(ms) = self.deadline_ms {
            head.push_str(&format!(" deadline_ms={ms}"));
        }
        let mut lines = vec![head];
        lines.extend(self.cells.iter().map(CellSpec::to_line));
        lines.push("END".to_string());
        lines
    }
}

/// The header of a `SWEEP` request (cells not yet read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepHead {
    /// Client-chosen id.
    pub id: u64,
    /// Per-thread measurement quota.
    pub insts: u64,
    /// Per-thread warmup instructions.
    pub warmup: u64,
    /// See [`SweepRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Number of `CELL` lines that follow.
    pub cells: usize,
}

/// A parsed request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Health check; answered with `PONG`.
    Ping,
    /// Counters; answered with a one-line `STATS` report.
    Stats,
    /// Graceful drain; answered with `BYE`, then the server stops
    /// accepting, finishes in-flight work, flushes, and exits.
    Shutdown,
    /// A sweep batch; `cells` `CELL` lines and an `END` line follow.
    Sweep(SweepHead),
}

fn parse_kv<'a>(token: &'a str, line: &str) -> Result<(&'a str, u64), String> {
    let (k, v) = token
        .split_once('=')
        .ok_or_else(|| format!("bad token {token:?} in {line:?} (want key=value)"))?;
    let v: u64 = v
        .parse()
        .map_err(|_| format!("bad value in token {token:?}"))?;
    Ok((k, v))
}

/// Parses a request line (`PING`/`STATS`/`SHUTDOWN`/`SWEEP ...`).
/// Errors are human-readable and become `BAD` replies; no input
/// panics.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next() {
        Some("PING") => Ok(Request::Ping),
        Some("STATS") => Ok(Request::Stats),
        Some("SHUTDOWN") => Ok(Request::Shutdown),
        Some("SWEEP") => {
            let (mut id, mut insts, mut warmup) = (None, None, None);
            let (mut cells, mut deadline_ms) = (None, None);
            for token in tokens {
                let (k, v) = parse_kv(token, line)?;
                match k {
                    "id" => id = Some(v),
                    "insts" => insts = Some(v),
                    "warmup" => warmup = Some(v),
                    "cells" => cells = Some(v),
                    "deadline_ms" => deadline_ms = Some(v),
                    other => return Err(format!("unknown SWEEP key {other:?}")),
                }
            }
            let missing = |what: &str| format!("SWEEP missing {what}= in {line:?}");
            let cells = cells.ok_or_else(|| missing("cells"))? as usize;
            if cells == 0 {
                return Err("SWEEP with cells=0".into());
            }
            if cells > MAX_CELLS {
                return Err(format!("cells={cells} exceeds the batch cap {MAX_CELLS}"));
            }
            if insts == Some(0) {
                return Err("SWEEP with insts=0".into());
            }
            Ok(Request::Sweep(SweepHead {
                id: id.ok_or_else(|| missing("id"))?,
                insts: insts.ok_or_else(|| missing("insts"))?,
                warmup: warmup.ok_or_else(|| missing("warmup"))?,
                deadline_ms,
                cells,
            }))
        }
        Some(other) => Err(format!("unknown request {other:?}")),
        None => Err("empty request line".into()),
    }
}

/// Parses a `CELL <group> <mix> <policy> <seed>` line.
pub fn parse_cell(line: &str) -> Result<CellSpec, String> {
    let mut tokens = line.trim().split_ascii_whitespace();
    if tokens.next() != Some("CELL") {
        return Err(format!("expected a CELL line, got {line:?}"));
    }
    let mut field = |what: &str| -> Result<String, String> {
        tokens
            .next()
            .map(str::to_string)
            .ok_or_else(|| format!("CELL missing {what} in {line:?}"))
    };
    let (group, mix, policy) = (field("group")?, field("mix")?, field("policy")?);
    let seed: u64 = field("seed")?
        .parse()
        .map_err(|_| format!("bad seed in {line:?}"))?;
    if tokens.next().is_some() {
        return Err(format!("trailing tokens in {line:?}"));
    }
    Ok(CellSpec {
        group,
        mix,
        policy,
        seed,
    })
}

/// A parsed server reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `PONG`.
    Pong,
    /// `STATS k=v ...` as a sorted map.
    Stats(BTreeMap<String, u64>),
    /// `BYE` (shutdown acknowledged).
    Bye,
    /// `BUSY retry_after_ms=N` — the request was shed; retry later.
    Busy {
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// `BAD <msg>` — the request was malformed; do not retry it.
    Bad(String),
    /// `RESULT <idx> <record-line>` — one completed cell, checksummed.
    Result {
        /// Index into the request's cell list.
        idx: usize,
        /// The cell's content address as the server computed it.
        key: CellKey,
        /// The encoded `MixResult` payload
        /// (see [`rat_core::store::decode_result`]).
        words: Vec<u64>,
    },
    /// `TIMEOUT <idx> <msg>` — the cell hit the request deadline or the
    /// server's per-cell watchdog.
    Timeout {
        /// Index into the request's cell list.
        idx: usize,
        /// What expired.
        msg: String,
    },
    /// `ERR <idx> <msg>` — the cell failed (bad spec or worker panic);
    /// the rest of the batch is unaffected.
    Err {
        /// Index into the request's cell list.
        idx: usize,
        /// The failure.
        msg: String,
    },
    /// `DONE id=N ok=N timeout=N err=N hits=N computed=N` — end of a
    /// sweep reply.
    Done(BTreeMap<String, u64>),
}

fn parse_idx_rest<'a>(line: &'a str, tag: &str) -> Result<(usize, &'a str), String> {
    let rest = &line[tag.len()..];
    let rest = rest.trim_start();
    let (idx, msg) = rest.split_once(' ').unwrap_or((rest, ""));
    let idx: usize = idx
        .parse()
        .map_err(|_| format!("bad index in {tag} line {line:?}"))?;
    Ok((idx, msg))
}

/// Parses one server reply line. Like [`parse_request`], errors are
/// strings and no input panics.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    // A `RESULT` line is framed as strictly as the journal reads its
    // record: untrimmed, single spaces, and the index as `{}` writes it.
    if let Some(rest) = line.strip_prefix("RESULT ") {
        let (idx, rec) = rest.split_once(' ').unwrap_or((rest, ""));
        let idx = parse_decimal(idx)
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| format!("bad index in RESULT line {line:?}"))?;
        let (key, words) = parse_record_line(rec)
            .ok_or_else(|| format!("corrupt RESULT record for cell {idx}"))?;
        return Ok(Reply::Result { idx, key, words });
    }
    let line = line.trim_end();
    if line == "PONG" {
        return Ok(Reply::Pong);
    }
    if line == "BYE" {
        return Ok(Reply::Bye);
    }
    if let Some(rest) = line.strip_prefix("STATS") {
        let mut map = BTreeMap::new();
        for token in rest.split_ascii_whitespace() {
            let (k, v) = parse_kv(token, line)?;
            map.insert(k.to_string(), v);
        }
        return Ok(Reply::Stats(map));
    }
    if let Some(rest) = line.strip_prefix("BUSY") {
        for token in rest.split_ascii_whitespace() {
            if let ("retry_after_ms", v) = parse_kv(token, line)? {
                return Ok(Reply::Busy { retry_after_ms: v });
            }
        }
        return Err(format!("BUSY without retry_after_ms: {line:?}"));
    }
    if let Some(rest) = line.strip_prefix("BAD ") {
        return Ok(Reply::Bad(rest.to_string()));
    }
    if line.starts_with("TIMEOUT ") {
        let (idx, msg) = parse_idx_rest(line, "TIMEOUT")?;
        return Ok(Reply::Timeout {
            idx,
            msg: msg.to_string(),
        });
    }
    if line.starts_with("ERR ") {
        let (idx, msg) = parse_idx_rest(line, "ERR")?;
        return Ok(Reply::Err {
            idx,
            msg: msg.to_string(),
        });
    }
    if let Some(rest) = line.strip_prefix("DONE") {
        let mut map = BTreeMap::new();
        for token in rest.split_ascii_whitespace() {
            let (k, v) = parse_kv(token, line)?;
            map.insert(k.to_string(), v);
        }
        for required in ["id", "ok", "timeout", "err", "hits", "computed"] {
            if !map.contains_key(required) {
                return Err(format!("DONE missing {required}= in {line:?}"));
            }
        }
        return Ok(Reply::Done(map));
    }
    Err(format!("unknown reply line {line:?}"))
}

/// Formats the `DONE` terminator of a sweep reply.
pub fn format_done(
    id: u64,
    ok: usize,
    timeout: usize,
    err: usize,
    hits: usize,
    computed: usize,
) -> String {
    format!("DONE id={id} ok={ok} timeout={timeout} err={err} hits={hits} computed={computed}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn line_reader_basics() {
        let mut r = LineReader::new(Cursor::new(b"one\ntwo\r\n\nlast\n".to_vec()), 64);
        assert_eq!(r.read_line().unwrap().as_deref(), Some("one"));
        assert_eq!(r.read_line().unwrap().as_deref(), Some("two"));
        assert_eq!(r.read_line().unwrap().as_deref(), Some(""));
        assert_eq!(r.read_line().unwrap().as_deref(), Some("last"));
        assert_eq!(r.read_line().unwrap(), None);
    }

    #[test]
    fn line_reader_caps_without_buffering() {
        let long = vec![b'x'; 1 << 20];
        let mut r = LineReader::new(Cursor::new(long), 128);
        let e = r.read_line().unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn line_reader_takes_one_maximal_line_in_one_read() {
        /// Counts the `read` calls that reach the source.
        struct Counted<R>(R, usize);
        impl<R: Read> Read for Counted<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.read(buf)
            }
        }
        // Four 2.6-KB lines and a short one, as a warm 4-cell reply
        // arrives; then a single line of the maximal length.
        let mut reply: Vec<u8> = Vec::new();
        for i in 0..4 {
            reply.extend(format!("RESULT {i} ").bytes());
            reply.extend([b'x'; 2600]);
            reply.push(b'\n');
        }
        reply.extend(b"DONE\n");
        let maximal = [vec![b'y'; MAX_LINE], vec![b'\n']].concat();
        for bytes in [reply, maximal] {
            let lines = bytes.iter().filter(|&&b| b == b'\n').count();
            let mut r = LineReader::new(Counted(Cursor::new(bytes), 0), MAX_LINE);
            for _ in 0..lines {
                assert!(r.read_line().unwrap().is_some());
            }
            assert_eq!(r.inner.get_ref().1, 1, "one read for {lines} line(s)");
        }
    }

    #[test]
    fn line_reader_rejects_eof_mid_line() {
        let mut r = LineReader::new(Cursor::new(b"no newline".to_vec()), 64);
        let e = r.read_line().unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_roundtrip() {
        let req = SweepRequest {
            id: 9,
            insts: 30_000,
            warmup: 20_000,
            deadline_ms: Some(250),
            cells: vec![CellSpec {
                group: "MEM2".into(),
                mix: "art+mcf".into(),
                policy: "RaT".into(),
                seed: 42,
            }],
        };
        let lines = req.to_lines();
        let head = match parse_request(&lines[0]).unwrap() {
            Request::Sweep(h) => h,
            other => panic!("{other:?}"),
        };
        assert_eq!(head.id, 9);
        assert_eq!(head.deadline_ms, Some(250));
        assert_eq!(head.cells, 1);
        assert_eq!(parse_cell(&lines[1]).unwrap(), req.cells[0]);
        assert_eq!(lines[2], "END");
    }

    #[test]
    fn oversized_batches_are_rejected() {
        let line = format!("SWEEP id=1 insts=10 warmup=1 cells={}", MAX_CELLS + 1);
        assert!(parse_request(&line).unwrap_err().contains("batch cap"));
    }

    #[test]
    fn malformed_requests_error_without_panic() {
        for line in [
            "",
            "NOPE",
            "SWEEP",
            "SWEEP id=x insts=1 warmup=1 cells=1",
            "SWEEP id=1 insts=1 warmup=1 cells=0",
            "SWEEP id=1 insts=0 warmup=1 cells=1",
            "SWEEP id=1 insts=1 warmup=1 cells=1 bogus=2",
            "CELL MEM2 art+mcf RaT notanumber",
            "CELL MEM2 art+mcf RaT",
            "CELL MEM2 art+mcf RaT 1 extra",
        ] {
            assert!(
                parse_request(line).is_err() || parse_cell(line).is_err(),
                "{line:?} must not parse"
            );
        }
    }

    #[test]
    fn reply_roundtrip() {
        assert_eq!(parse_reply("PONG").unwrap(), Reply::Pong);
        assert_eq!(parse_reply("BYE").unwrap(), Reply::Bye);
        assert_eq!(
            parse_reply("BUSY retry_after_ms=120").unwrap(),
            Reply::Busy {
                retry_after_ms: 120
            }
        );
        let done = format_done(3, 4, 1, 0, 2, 2);
        match parse_reply(&done).unwrap() {
            Reply::Done(m) => {
                assert_eq!(m["id"], 3);
                assert_eq!(m["ok"], 4);
                assert_eq!(m["hits"], 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_reply("DONE id=1").is_err(), "incomplete DONE");
        assert!(parse_reply("RESULT 0 rec garbage").is_err());
        assert!(parse_reply("???").is_err());
    }

    #[test]
    fn result_framing_is_as_strict_as_the_journal() {
        let key = CellKey {
            fingerprint: 0x0123_4567_89ab_cdef,
            group: "MEM2".into(),
            mix: "art+mcf".into(),
            policy: "RaT".into(),
            seed: 42,
        };
        let words = [2, 0x3ff8_0000_0000_0000, u64::MAX];
        let rec = rat_core::format_record_line(&key, &words);
        for idx in [0, 17] {
            assert_eq!(
                parse_reply(&format!("RESULT {idx} {rec}")).unwrap(),
                Reply::Result {
                    idx,
                    key: key.clone(),
                    words: words.to_vec()
                }
            );
        }
        for bad in [
            format!("RESULT 0 {rec} "),
            format!("RESULT  0 {rec}"),
            format!("RESULT 0  {rec}"),
            format!("RESULT 00 {rec}"),
            format!("RESULT +0 {rec}"),
            format!("RESULT 0 {rec}\t"),
        ] {
            assert!(parse_reply(&bad).is_err(), "{bad:?}");
        }
    }
}
