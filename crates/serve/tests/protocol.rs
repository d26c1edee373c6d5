//! Property and fuzz coverage for the wire protocol (ISSUE 9
//! satellite 4): round trips for every message, bounded framing, and —
//! above all — no input that makes a parser panic or allocate without
//! bound.

use std::io::Read;

use rat_serve::protocol::{
    parse_cell, parse_reply, parse_request, CellSpec, LineReader, Request, SweepRequest, MAX_CELLS,
    MAX_LINE,
};

/// splitmix64, so the fuzz corpus is deterministic.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pseudo_random_request(seed: u64) -> SweepRequest {
    let r = |i: u64| mix64(seed ^ i);
    let n_cells = (r(0) % 5 + 1) as usize;
    let groups = ["ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"];
    let policies = ["ICOUNT", "FLUSH", "RaT", "STALL"];
    let mixes = ["art+mcf", "gzip+bzip2", "applu+art", "a+b+c+d"];
    SweepRequest {
        id: r(1),
        insts: r(2) % 1_000_000 + 1,
        warmup: r(3) % 1_000_000,
        deadline_ms: if r(4) % 2 == 0 {
            Some(r(5) % 100_000)
        } else {
            None
        },
        cells: (0..n_cells)
            .map(|i| {
                let r = |j: u64| mix64(seed ^ (i as u64) << 32 ^ j);
                CellSpec {
                    group: groups[(r(0) % groups.len() as u64) as usize].to_string(),
                    mix: mixes[(r(1) % mixes.len() as u64) as usize].to_string(),
                    policy: policies[(r(2) % policies.len() as u64) as usize].to_string(),
                    seed: r(3),
                }
            })
            .collect(),
    }
}

/// Every (syntactically valid) request survives the
/// format → lines → parse round trip unchanged.
#[test]
fn request_roundtrip_property() {
    for seed in 0..200 {
        let req = pseudo_random_request(seed);
        let lines = req.to_lines();
        let head = match parse_request(&lines[0]) {
            Ok(Request::Sweep(h)) => h,
            other => panic!("seed {seed}: {other:?}"),
        };
        assert_eq!(head.id, req.id, "seed {seed}");
        assert_eq!(head.insts, req.insts);
        assert_eq!(head.warmup, req.warmup);
        assert_eq!(head.deadline_ms, req.deadline_ms);
        assert_eq!(head.cells, req.cells.len());
        for (i, cell) in req.cells.iter().enumerate() {
            assert_eq!(
                &parse_cell(&lines[1 + i]).unwrap(),
                cell,
                "seed {seed} cell {i}"
            );
        }
        assert_eq!(lines.last().map(String::as_str), Some("END"));
    }
}

/// No fuzzed line — printable, binary, or truncated — panics any
/// parser. (Outcomes may be Ok or Err; crashing is the only failure.)
#[test]
fn fuzzed_lines_never_panic_parsers() {
    for seed in 0..2_000u64 {
        let len = (mix64(seed) % 200) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|i| {
                let b = (mix64(seed ^ (i as u64) << 17) % 256) as u8;
                // Bias toward protocol-looking ASCII half the time so
                // the fuzz reaches deep parser branches.
                if mix64(seed ^ 0xA5A5 ^ i as u64).is_multiple_of(2) {
                    b"SWEPCELNDRUTIMOQBYAKid=cells 0123456789 "[b as usize % 40]
                } else {
                    b
                }
            })
            .collect();
        let line = String::from_utf8_lossy(&bytes).to_string();
        let _ = parse_request(&line);
        let _ = parse_cell(&line);
        let _ = parse_reply(&line);
    }
}

/// A reader that yields one byte at a time — the worst-case stream
/// fragmentation a TCP socket can produce.
struct TrickleReader {
    data: Vec<u8>,
    pos: usize,
}

impl Read for TrickleReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

/// Line framing is independent of how the transport fragments bytes.
#[test]
fn line_reader_is_fragmentation_independent() {
    let text = b"alpha\nbeta gamma\r\n\ndelta\n".to_vec();
    let mut whole = LineReader::new(std::io::Cursor::new(text.clone()), MAX_LINE);
    let mut trickle = LineReader::new(TrickleReader { data: text, pos: 0 }, MAX_LINE);
    loop {
        let (a, b) = (whole.read_line().unwrap(), trickle.read_line().unwrap());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// Fuzzed byte streams (embedded newlines, binary junk, missing
/// terminators) never panic the reader and never return an over-long
/// line.
#[test]
fn fuzzed_streams_never_panic_line_reader() {
    for seed in 0..500u64 {
        let len = (mix64(seed) % 4096) as usize;
        let data: Vec<u8> = (0..len)
            .map(|i| (mix64(seed ^ (i as u64) << 9) % 256) as u8)
            .collect();
        let mut reader = LineReader::new(std::io::Cursor::new(data), 256);
        loop {
            match reader.read_line() {
                Ok(Some(line)) => assert!(line.len() <= 256, "seed {seed}"),
                Ok(None) => break,
                Err(_) => break, // over-long, truncated, or non-UTF-8: fine
            }
        }
    }
}

/// The batch cap and the zero-cell rejection hold at the boundary.
#[test]
fn batch_bounds() {
    let at_cap = format!("SWEEP id=1 insts=10 warmup=0 cells={MAX_CELLS}");
    assert!(matches!(
        parse_request(&at_cap),
        Ok(Request::Sweep(h)) if h.cells == MAX_CELLS
    ));
    let over = format!("SWEEP id=1 insts=10 warmup=0 cells={}", MAX_CELLS + 1);
    assert!(parse_request(&over).is_err());
    assert!(parse_request("SWEEP id=1 insts=10 warmup=0 cells=0").is_err());
}

/// An over-long line errors without the reader buffering the whole
/// thing (the cap applies mid-line, not post-hoc).
#[test]
fn oversized_line_is_rejected_incrementally() {
    struct EndlessXs;
    impl Read for EndlessXs {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            buf.fill(b'x');
            Ok(buf.len())
        }
    }
    let mut reader = LineReader::new(EndlessXs, 1024);
    let e = reader.read_line().unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
}

/// A partial line survives a read timeout: the reader reports the
/// timeout, keeps the bytes it already has, and completes the line on
/// the next call. The server's 300-ms read timeout relies on this.
#[test]
fn partial_line_survives_a_read_timeout() {
    struct Stalling(Vec<std::io::Result<&'static [u8]>>);
    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let bytes = self.0.remove(0)?;
            buf[..bytes.len()].copy_from_slice(bytes);
            Ok(bytes.len())
        }
    }
    let stall = std::io::Error::from(std::io::ErrorKind::WouldBlock);
    let mut reader = LineReader::new(
        Stalling(vec![Ok(b"abc"), Err(stall), Ok(b"def\n")]),
        MAX_LINE,
    );
    let e = reader.read_line().unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
    assert_eq!(reader.read_line().unwrap().as_deref(), Some("abcdef"));
    assert_eq!(reader.read_line().unwrap(), None);
}

/// The cap is exact: a line of `max` bytes is accepted, one of
/// `max + 1` is not, and a trailing `\r` counts toward the cap.
#[test]
fn line_cap_boundary() {
    const MAX: usize = 16;
    let read = |line: Vec<u8>| LineReader::new(std::io::Cursor::new(line), MAX).read_line();
    let x = |n: usize| vec![b'x'; n];
    let at_cap = read([x(MAX), b"\n".to_vec()].concat()).unwrap();
    assert_eq!(at_cap.map(|l| l.len()), Some(MAX));
    let over = read([x(MAX + 1), b"\n".to_vec()].concat()).unwrap_err();
    assert_eq!(over.kind(), std::io::ErrorKind::InvalidData);
    let cr_over = read([x(MAX), b"\r\n".to_vec()].concat()).unwrap_err();
    assert_eq!(cr_over.kind(), std::io::ErrorKind::InvalidData);
    let cr_at_cap = read([x(MAX - 1), b"\r\n".to_vec()].concat()).unwrap();
    assert_eq!(cr_at_cap.map(|l| l.len()), Some(MAX - 1));
}
