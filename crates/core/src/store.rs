//! Journaled, content-addressed store of completed [`MixResult`]s.
//!
//! Every sweep cell is a deterministic function of
//! `(mix, policy, hardware+methodology config, seed)`; the store keys
//! each completed result by exactly that identity ([`CellKey`]) and
//! persists it the moment the cell finishes, so a killed sweep resumed
//! with `--resume PATH` replays the journal and recomputes only the
//! missing cells — with output bit-identical to an uninterrupted run
//! (IPCs round-trip as `f64::to_bits`, never through decimal text).
//!
//! # Durability model
//!
//! The journal is a line-oriented append-only file. Each record is one
//! self-contained line carrying its own XXH64 checksum, appended with a
//! single `write_all`; whole-file rewrites (creation, and compaction
//! after quarantining corruption) go through a tmp-file + atomic rename
//! ([`atomic_write`]). On load, any line that fails to parse or
//! checksum — a torn tail from a kill mid-append, a flipped bit (one
//! that leaves the line invalid UTF-8 included), a truncated record —
//! is **quarantined**: counted, appended verbatim to
//! `<path>.quarantine` for post-mortem, and dropped from the journal,
//! so the owning cell is simply recomputed. Corruption is never
//! silently served and never aborts the sweep.
//!
//! The first line names the record format (`ratstore v2`). A journal of
//! another version (`ratstore v1` checksummed its records with FNV-1a)
//! is set aside whole, with one stderr line saying so: every line goes
//! to `<path>.quarantine` and every cell is recomputed.
//!
//! Append failures (e.g. a full disk, or an injected `enospc` fault
//! from [`crate::faultinject::FaultPlan`]) are non-fatal: the append is
//! first retried a few times with a short bounded backoff
//! ([`crate::retry::Backoff`]) — transient failures heal invisibly, and
//! the retries are counted in [`StoreStats::retries`] — and only a
//! persistently failing append falls back to count-and-continue: the
//! cell's result stays in memory for the current run and is recomputed
//! on the next resume.
//!
//! On open, the journal **auto-compacts** when it carries junk worth
//! dropping: once quarantined plus duplicate records reach
//! [`COMPACT_THRESHOLD`], the file is rewritten through the same
//! tmp+rename path ([`ResultStore::rewrite_journal`]) and a line is
//! logged saying what was dropped. A clean journal is left untouched —
//! opening a large healthy journal does not rewrite it.
//!
//! The loader accepts exactly the lines [`format_record_line`] writes
//! ([`parse_record_line`]): a line in any other spelling of the same
//! key and words (uppercase or short hex, a sign, a tab, a doubled
//! space) is quarantined even when its checksum holds.
//!
//! A held record is its line alone: the line read at open, or the one
//! [`ResultStore::put`] formatted for its append. The sweep server sends
//! it as a `RESULT` payload ([`ResultStore::record_line`]), compaction
//! writes it, and [`ResultStore::get`] parses and decodes it, so a
//! record is formatted at most once.
//!
//! The store is internally synchronized (poison-recovering mutex), so
//! concurrent `par_map` workers can `put` as they finish. It is not
//! designed for two *processes* appending to one journal concurrently.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rat_smt::{PolicyKind, ThreadStats};
use rat_workload::{Benchmark, Mix, WorkloadGroup};

use crate::faultinject::{FaultPlan, RecordFault};
use crate::lock::lock_recover;
use crate::retry::Backoff;
use crate::runner::MixResult;

/// First line of every journal file; bump the version when the record
/// line layout or its checksum changes so old journals are recomputed,
/// not misread. v2 replaced v1's FNV-1a `crc` with XXH64.
const MAGIC: &str = "ratstore v2";

/// What every version's first line starts with; the version number
/// follows.
const MAGIC_PREFIX: &str = "ratstore v";

/// Journal-open compaction trigger: once this many records were dropped
/// at load (quarantined corruption plus duplicate keys), the journal is
/// rewritten without them. At 1, any junk is compacted away immediately;
/// a clean journal is never rewritten.
pub const COMPACT_THRESHOLD: usize = 1;

/// Append retries before an append failure becomes permanent (so a
/// `put` makes up to `1 + APPEND_RETRIES` attempts).
const APPEND_RETRIES: u32 = 3;

/// FNV-1a's initial state.
pub(crate) const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, the hash of the compile-time fingerprints
/// ([`crate::config_fingerprint`] and the model digest in it) and of the
/// golden digests in `tests/golden.txt`. Over a record body it is the
/// `ratstore v1` checksum. It runs one serial multiply per byte, so
/// record lines now carry XXH64 ([`format_record_line`]).
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV1A_OFFSET, bytes)
}

/// FNV-1a's state after hashing `bytes` onto state `h`, so a hash can run
/// on across separately scanned pieces of one input. A `const fn`, so a
/// hash of an embedded file is taken at compile time.
pub(crate) const fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

// XXH64's five primes.
const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// XXH64 at seed 0, the record checksum (`ratstore v2`). Four
/// independent accumulators take 32 bytes a step, so a 2.6-KB record
/// line hashes in a fraction of FNV-1a's serial byte chain.
fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        XXH_P5
    } else {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *a = xxh_round(*a, u64::from_le_bytes(*lane));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| xxh_merge(h, a))
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (lanes, tail) = tail.as_chunks::<8>();
    for lane in lanes {
        h ^= xxh_round(0, u64::from_le_bytes(*lane));
        h = h.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
    }
    let tail = match tail.split_first_chunk::<4>() {
        Some((lane, rest)) => {
            h ^= u64::from(u32::from_le_bytes(*lane)).wrapping_mul(XXH_P1);
            h = h.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            rest
        }
        None => tail,
    };
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(XXH_P5);
        h = h.rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// Writes `bytes` to `path` atomically: a unique tmp file in the same
/// directory, then `rename` — readers see the old contents or the new,
/// never a partial write.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The content address of one sweep cell: everything its `MixResult`
/// is a deterministic function of.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Fingerprint of the hardware configuration and measurement
    /// methodology (see [`crate::Runner::config_fingerprint`]).
    pub fingerprint: u64,
    /// Workload group name (e.g. `"MIX4"`).
    pub group: String,
    /// `+`-joined benchmark names (e.g. `"art+mcf"`).
    pub mix: String,
    /// Fetch/resource policy name (e.g. `"RaT"`).
    pub policy: String,
    /// Base workload RNG seed.
    pub seed: u64,
}

impl CellKey {
    /// The key of `mix` under `policy` on the config behind
    /// `fingerprint` with workload `seed`.
    pub fn new(fingerprint: u64, mix: &Mix, policy: PolicyKind, seed: u64) -> CellKey {
        CellKey {
            fingerprint,
            group: mix.group.name().to_string(),
            mix: mix.label(),
            policy: policy.name().to_string(),
            seed,
        }
    }

    /// Human-readable cell identity for failure reports and logs.
    pub fn identity(&self) -> String {
        format!(
            "{}({}) under {} [seed {}, cfg {:016x}]",
            self.group, self.mix, self.policy, self.seed, self.fingerprint
        )
    }

    /// Rebuilds the [`Mix`] this key names (`None` if the group or a
    /// benchmark name does not parse — a corrupt or foreign record, or
    /// an invalid request in the sweep server).
    pub fn to_mix(&self) -> Option<Mix> {
        parse_mix(&self.group, &self.mix)
    }
}

/// The [`Mix`] a group name and a `+`-joined benchmark list name (`None`
/// if either does not parse), as [`CellKey::to_mix`] reads them.
pub fn parse_mix(group: &str, mix: &str) -> Option<Mix> {
    let group = WorkloadGroup::from_name(group)?;
    let benchmarks: Option<Vec<Benchmark>> = mix.split('+').map(Benchmark::from_name).collect();
    let benchmarks = benchmarks?;
    if benchmarks.is_empty() {
        return None;
    }
    Some(Mix { group, benchmarks })
}

/// Counters describing one store's history this process run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Valid records loaded from the journal at open.
    pub loaded: usize,
    /// Corrupt/torn/unparseable records quarantined at open.
    pub quarantined: usize,
    /// Valid records at open whose key was already loaded (e.g. two
    /// processes appending the same cell); the later record wins and the
    /// earlier is dropped at the next compaction.
    pub duplicates: usize,
    /// `get` calls that found a record: results decoded for a journal
    /// replay. The sweep server sends stored lines and decodes none.
    pub hits: u64,
    /// Records appended (durably) this run.
    pub appended: u64,
    /// Append attempts re-tried after a transient failure (I/O error or
    /// injected `enospc`) before succeeding or giving up.
    pub retries: u64,
    /// Appends that failed even after retries; the result was kept in
    /// memory but will be recomputed on the next resume.
    pub append_failures: u64,
}

struct StoreInner {
    /// Each held record's line, without the newline (see the module
    /// docs).
    records: HashMap<CellKey, Arc<str>>,
    stats: StoreStats,
    /// Appends attempted so far (indexes the fault plan).
    append_attempts: u64,
    fault: Option<FaultPlan>,
}

/// See the module docs.
pub struct ResultStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
}

impl ResultStore {
    /// Opens (or creates) the journal at `path`, loading every valid
    /// record and quarantining corrupt ones. I/O errors are non-fatal:
    /// an unreadable file behaves like an empty store.
    pub fn open(path: impl Into<PathBuf>) -> ResultStore {
        let path = path.into();
        let mut records = HashMap::new();
        let mut stats = StoreStats::default();
        let mut bad_lines: Vec<&[u8]> = Vec::new();
        // Another version's header and its record count.
        let mut other_version: Option<(String, usize)> = None;

        // Bytes, not text: a line that is not UTF-8 (a flipped high bit)
        // is one corrupt line, not an unreadable journal.
        let body = match std::fs::read(&path) {
            Ok(body) => body,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                eprintln!("result-store: cannot read {}: {e}", path.display());
                Vec::new()
            }
        };
        let mut lines = byte_lines(&body);
        let header = lines
            .next()
            .and_then(|h| std::str::from_utf8(h).ok())
            .map(str::trim);
        let header_ok = header == Some(MAGIC);
        if !header_ok {
            // Another version or an unknown layout: quarantine
            // everything, start fresh.
            if let Some(v) = header
                .and_then(|h| h.strip_prefix(MAGIC_PREFIX))
                .filter(|v| v.parse::<u32>().is_ok())
            {
                let records = lines.filter(|l| is_record_line(l)).count();
                other_version = Some((v.to_string(), records));
            }
            bad_lines.extend(byte_lines(&body));
        } else {
            for line in lines.filter(|l| is_record_line(l)) {
                let text = std::str::from_utf8(line).ok();
                match text.and_then(|t| Some((t, parse_record_line(t)?.0))) {
                    Some((text, key)) => {
                        if records.insert(key, Arc::from(text)).is_some() {
                            stats.duplicates += 1;
                        }
                        stats.loaded += 1;
                    }
                    None => bad_lines.push(line),
                }
            }
        }

        stats.quarantined = bad_lines.len();
        if !bad_lines.is_empty() {
            let qpath = quarantine_path(&path);
            let mut q = bad_lines.join(&b'\n');
            q.push(b'\n');
            if let Err(e) = append_bytes(&qpath, &q) {
                eprintln!(
                    "result-store: cannot quarantine {} corrupt record(s) to {}: {e}",
                    bad_lines.len(),
                    qpath.display()
                );
            }
            if let Some((version, records)) = other_version {
                eprintln!(
                    "result-store: {} is a {MAGIC_PREFIX}{version} journal and this build \
                     reads {MAGIC}: set aside its {records} record(s) in {} and will \
                     recompute their cells",
                    path.display(),
                    qpath.display()
                );
            }
        }

        let dropped = stats.quarantined + stats.duplicates;
        let store = ResultStore {
            path,
            inner: Mutex::new(StoreInner {
                records,
                stats,
                append_attempts: 0,
                fault: None,
            }),
        };
        // Auto-compaction: create the file (with its header) on first
        // open, and rewrite it — dropping quarantined and duplicate
        // lines — once the junk reaches the threshold. A clean journal
        // is opened without a rewrite.
        if !header_ok {
            store.rewrite_journal();
        } else if dropped >= COMPACT_THRESHOLD {
            store.rewrite_journal();
            eprintln!(
                "result-store: compacted {} — dropped {} quarantined and {} duplicate record(s)",
                store.path.display(),
                store.stats().quarantined,
                store.stats().duplicates,
            );
        }
        store
    }

    /// Installs a fault plan whose record faults apply to subsequent
    /// appends (see [`FaultPlan::record_fault`]). Takes `&self` so a
    /// plan can be installed on a store already shared behind an `Arc`
    /// (the sweep server's configuration path).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        lock_recover(&self.inner).fault = Some(plan);
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where corrupt records are preserved for post-mortem.
    pub fn quarantine_path(&self) -> PathBuf {
        quarantine_path(&self.path)
    }

    /// Counters (snapshot).
    pub fn stats(&self) -> StoreStats {
        lock_recover(&self.inner).stats
    }

    /// Number of records currently held (loaded + appended this run).
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays the stored result for `key`, if any, by parsing and
    /// decoding its stored line. Decoding is defensive: a record that no
    /// longer decodes (e.g. schema drift that slipped past the version
    /// header) counts as a miss.
    pub fn get(&self, key: &CellKey) -> Option<MixResult> {
        let line = self.record_line(key)?;
        let result = decode_result(&parse_record_line(&line)?.1, key)?;
        lock_recover(&self.inner).stats.hits += 1;
        Some(result)
    }

    /// The stored record line for `key`, without its newline: the line
    /// read at open, or the one [`put`](Self::put) formatted for its
    /// append (the intact line, even when a fault plan corrupted the
    /// disk copy). The sweep server sends it verbatim as a `RESULT`
    /// payload, so a replay is never re-encoded or re-formatted.
    pub fn record_line(&self, key: &CellKey) -> Option<Arc<str>> {
        lock_recover(&self.inner).records.get(key).cloned()
    }

    /// Persists `result` under `key`: one checksummed record appended to
    /// the journal. A failed append (I/O error or injected `enospc`) is
    /// retried with a short bounded backoff — each fault-plan index
    /// covers one *attempt*, so `enospc@K` alone is a transient failure
    /// the retry heals, while consecutive indices exhaust the schedule.
    /// Returns `false` (after counting the failure) only when every
    /// attempt failed — the caller's sweep continues either way.
    ///
    /// The store lock is held across the retry sleeps; the schedule is
    /// sized in single-digit milliseconds so a full-disk episode stalls
    /// concurrent workers briefly rather than reordering the journal.
    pub fn put(&self, key: &CellKey, result: &MixResult) -> bool {
        let mut line = format_record_line(key, &encode_result(result));
        let record = Arc::from(line.as_str());
        line.push('\n');
        let mut inner = lock_recover(&self.inner);
        // The in-memory copy is installed regardless: within this run
        // the result is valid even if the disk copy is not.
        inner.records.insert(key.clone(), record);

        let backoff = Backoff::new(
            Duration::from_millis(1),
            Duration::from_millis(4),
            APPEND_RETRIES,
            key.fingerprint ^ key.seed,
        );
        let mut retry = 0u32;
        loop {
            let attempt = inner.append_attempts;
            inner.append_attempts += 1;
            let fault = inner.fault.as_ref().and_then(|p| p.record_fault(attempt));
            let outcome = match fault {
                None => append_bytes(&self.path, line.as_bytes()),
                Some(RecordFault::Enospc) => Err(std::io::Error::other(format!(
                    "injected ENOSPC on append {attempt}"
                ))),
                Some(RecordFault::Torn) => {
                    // A kill mid-append: only a prefix of the line lands.
                    // The write itself "succeeds" — the damage is only
                    // visible to the next open, so no retry fires.
                    let cut = line.len() * 3 / 5;
                    let mut torn = line.clone().into_bytes();
                    torn.truncate(cut);
                    torn.push(b'\n');
                    append_bytes(&self.path, &torn)
                }
                Some(RecordFault::BitFlip) => {
                    // Silent media corruption inside the checksummed
                    // region — also an apparent success.
                    let mut flipped = line.clone().into_bytes();
                    let target = flipped.len() / 2;
                    flipped[target] ^= 0x01;
                    append_bytes(&self.path, &flipped)
                }
            };
            match outcome {
                Ok(()) => {
                    inner.stats.appended += 1;
                    return true;
                }
                Err(e) if retry < backoff.max_retries() => {
                    inner.stats.retries += 1;
                    eprintln!(
                        "result-store: append to {} failed ({e}); retry {} of {}",
                        self.path.display(),
                        retry + 1,
                        backoff.max_retries()
                    );
                    std::thread::sleep(backoff.delay(retry));
                    retry += 1;
                }
                Err(e) => {
                    inner.stats.append_failures += 1;
                    eprintln!(
                        "result-store: append to {} failed after {retry} retries ({e}); \
                         {} will be recomputed on resume",
                        self.path.display(),
                        key.identity()
                    );
                    return false;
                }
            }
        }
    }

    /// Atomically rewrites the journal from the in-memory records' stored
    /// lines (sorted, so the order is deterministic): used at open to
    /// compact quarantined lines away, and available to callers as an
    /// explicit fsck. Nothing is re-formatted.
    pub fn rewrite_journal(&self) {
        let inner = lock_recover(&self.inner);
        let mut lines: Vec<&str> = inner.records.values().map(|l| &**l).collect();
        lines.sort_unstable();
        let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 64);
        body.push_str(MAGIC);
        body.push('\n');
        for l in &lines {
            body.push_str(l);
            body.push('\n');
        }
        if let Err(e) = atomic_write(&self.path, body.as_bytes()) {
            eprintln!("result-store: cannot rewrite {}: {e}", self.path.display());
        }
    }
}

/// Whether a line past the header holds a record: blank lines and `#`
/// comments do not.
fn is_record_line(line: &[u8]) -> bool {
    !matches!(line.trim_ascii().first(), None | Some(b'#'))
}

/// The lines of `body` without their `\n`, split as `str::lines` splits
/// text (no empty line after a final newline) but over bytes.
fn byte_lines(body: &[u8]) -> impl Iterator<Item = &[u8]> {
    body.split_inclusive(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\n").unwrap_or(l))
}

fn quarantine_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".quarantine");
    PathBuf::from(os)
}

fn append_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(bytes)?;
    f.flush()
}

// ---------------------------------------------------------------------------
// Record wire format
//
// One line per record, its tokens separated by single spaces:
//
//   rec <fp:016x> <group> <mix> <policy> <seed> <n> <w0> <w1> ... crc <c:016x>
//
// where the fingerprint, every word and the checksum are 16 lowercase
// hex digits, the seed and the word count `n` are decimal with no sign
// and no leading zero, and the checksum is XXH64 over the body
// (everything before " crc"). This is the only spelling a line has:
// the parser accepts a line only if the formatter writes exactly it for
// the key and words it parses to. `f64`s travel as `to_bits` words, so
// replays are bit-exact.

/// The lowercase hex digits, indexed by nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `w` as 16 lowercase hex digits: the bytes `{w:016x}` would
/// write, without the formatting machinery.
fn push_hex_word(buf: &mut Vec<u8>, w: u64) {
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX_DIGITS[(w >> (60 - 4 * i)) as usize & 0xf];
    }
    buf.extend_from_slice(&digits);
}

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The high bit of every byte that is at least `lo`, for a word whose
/// bytes are all below 0x80 (so no byte's sum carries into the next).
fn bytes_at_least(x: u64, lo: u8) -> u64 {
    x.wrapping_add(splat(0x80 - lo)) & splat(0x80)
}

/// Eight lowercase hex digits, read little-endian from a word: their
/// value, the first digit most significant, and the high bit of every
/// byte that is not one of [`HEX_DIGITS`].
fn decode_hex8(x: u64) -> (u32, u64) {
    let digit = bytes_at_least(x, b'0') & !bytes_at_least(x, b'9' + 1);
    let letter = bytes_at_least(x, b'a') & !bytes_at_least(x, b'f' + 1);
    // A byte of 0x80 or above is never a digit, and it is the one kind
    // of byte that can carry in the sums above.
    let bad = (x | !(digit | letter)) & splat(0x80);
    // Digits keep their low nibble; letters (bit 6 set) add 9 to theirs.
    let nibbles = (x & splat(0x0f)) + ((x >> 6) & splat(0x01)) * 9;
    // Pack the nibbles: two a byte, then two bytes a half, then the halves.
    let bytes = ((nibbles << 4) | (nibbles >> 8)) & 0x00ff_00ff_00ff_00ff;
    let halves = ((bytes << 8) | (bytes >> 16)) & 0x0000_ffff_0000_ffff;
    (((halves << 16) | (halves >> 32)) as u32, bad)
}

/// Reads 16 lowercase hex digits, eight at a time; `None` if any byte is
/// not one of [`HEX_DIGITS`].
fn decode_hex16(digits: &[u8; 16]) -> Option<u64> {
    let (hi, lo) = digits.split_at(8);
    let (hi, hi_bad) = decode_hex8(u64::from_le_bytes(hi.try_into().ok()?));
    let (lo, lo_bad) = decode_hex8(u64::from_le_bytes(lo.try_into().ok()?));
    (hi_bad | lo_bad == 0).then_some((u64::from(hi) << 32) | u64::from(lo))
}

/// Renders one journal record line (no trailing newline): the key, the
/// [`encode_result`] payload words, and a trailing XXH64 checksum. The
/// sweep server sends these lines verbatim as its `RESULT` payload, so
/// results travel the wire with the same bit-exactness and corruption
/// detection the journal has.
pub fn format_record_line(key: &CellKey, words: &[u64]) -> String {
    // One buffer sized for the whole line: the header, 17 bytes a word,
    // the 21-byte checksum tail and the newline `put` appends. Writing
    // into a `Vec` never fails.
    let names = key.group.len() + key.mix.len() + key.policy.len();
    let mut line = Vec::with_capacity(96 + names + 17 * words.len());
    let _ = write!(
        line,
        "rec {:016x} {} {} {} {} {}",
        key.fingerprint,
        key.group,
        key.mix,
        key.policy,
        key.seed,
        words.len()
    );
    for &w in words {
        line.push(b' ');
        push_hex_word(&mut line, w);
    }
    let crc = xxh64(&line);
    line.extend_from_slice(b" crc ");
    push_hex_word(&mut line, crc);
    String::from_utf8(line).expect("a record line is its key's UTF-8 names and ASCII")
}

/// A decimal `u64` as `{}` writes it: ASCII digits with no sign, and no
/// leading zero unless it is `0` itself.
pub fn parse_decimal(token: &str) -> Option<u64> {
    match token.as_bytes() {
        [b'1'..=b'9', ..] | [b'0'] => token.parse().ok(),
        _ => None,
    }
}

/// Parses one journal (or wire) record line into its key and payload
/// words; `None` unless the line is byte for byte what
/// [`format_record_line`] writes for them (the journal loader
/// quarantines any other line, the sweep client refuses the reply).
///
/// The checksum is checked first, over the whole body. Then one pass
/// reads the single-space-separated header tokens, and the words as
/// fixed 17-byte fields (a space and 16 lowercase digits) up to the end
/// of the body. Every hex field is decoded eight digits at a time.
pub fn parse_record_line(line: &str) -> Option<(CellKey, Vec<u64>)> {
    let (head, crc) = line.as_bytes().split_last_chunk::<16>()?;
    let body = head.strip_suffix(b" crc ")?;
    if decode_hex16(crc)? != xxh64(body) {
        return None;
    }
    // `body` ends just before an ASCII space, so it is a `str` boundary.
    let mut t = line[..body.len()].splitn(7, ' ');
    if t.next()? != "rec" {
        return None;
    }
    let fingerprint = decode_hex16(t.next()?.as_bytes().try_into().ok()?)?;
    let group = t.next()?.to_string();
    let mix = t.next()?.to_string();
    let policy = t.next()?.to_string();
    let seed = parse_decimal(t.next()?)?;
    let rest = t.next()?;
    let (count, words_text) = rest.split_at(rest.find(' ').unwrap_or(rest.len()));
    let n = parse_decimal(count)?;
    let (fields, []) = words_text.as_bytes().as_chunks::<17>() else {
        return None;
    };
    if fields.len() as u64 != n {
        return None;
    }
    let mut words = Vec::with_capacity(fields.len());
    for field in fields {
        let [b' ', digits @ ..] = field else {
            return None;
        };
        words.push(decode_hex16(digits)?);
    }
    Some((
        CellKey {
            fingerprint,
            group,
            mix,
            policy,
            seed,
        },
        words,
    ))
}

// ---------------------------------------------------------------------------
// MixResult <-> word-stream codec

struct Reader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Option<u64> {
        let w = *self.words.get(self.pos)?;
        self.pos += 1;
        Some(w)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn usize(&mut self) -> Option<usize> {
        self.u64().map(|w| w as usize)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u64()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

fn push_thread_stats(w: &mut Vec<u64>, t: &ThreadStats) {
    w.extend_from_slice(&[
        t.committed,
        t.fetched,
        t.dispatched,
        t.issued,
        t.folded,
        t.pseudo_retired,
        t.runahead_episodes,
        t.runahead_cycles,
        t.runahead_prefetches,
        t.runahead_inv_loads,
        t.runahead_divergences,
        t.flushes,
        t.squashed,
        t.bpred.predictions,
        t.bpred.mispredictions,
        t.mode_cycles[0],
        t.mode_cycles[1],
        t.int_reg_cycles[0],
        t.int_reg_cycles[1],
        t.fp_reg_cycles[0],
        t.fp_reg_cycles[1],
        t.rob_occ_cycles,
        t.iq_occ_cycles[0],
        t.iq_occ_cycles[1],
        t.iq_occ_cycles[2],
        u64::from(t.quota_cycle.is_some()),
        t.quota_cycle.unwrap_or(0),
        t.committed_at_quota,
        t.committed_at_reset,
        t.dmiss_loads,
        t.l2_miss_loads,
        t.forwarded_loads,
        t.mem_stall_cycles,
    ]);
}

fn read_thread_stats(r: &mut Reader) -> Option<ThreadStats> {
    let mut t = ThreadStats {
        committed: r.u64()?,
        fetched: r.u64()?,
        dispatched: r.u64()?,
        issued: r.u64()?,
        folded: r.u64()?,
        pseudo_retired: r.u64()?,
        runahead_episodes: r.u64()?,
        runahead_cycles: r.u64()?,
        runahead_prefetches: r.u64()?,
        runahead_inv_loads: r.u64()?,
        runahead_divergences: r.u64()?,
        flushes: r.u64()?,
        squashed: r.u64()?,
        ..ThreadStats::default()
    };
    t.bpred.predictions = r.u64()?;
    t.bpred.mispredictions = r.u64()?;
    t.mode_cycles = [r.u64()?, r.u64()?];
    t.int_reg_cycles = [r.u64()?, r.u64()?];
    t.fp_reg_cycles = [r.u64()?, r.u64()?];
    t.rob_occ_cycles = r.u64()?;
    t.iq_occ_cycles = [r.u64()?, r.u64()?, r.u64()?];
    let has_quota = r.bool()?;
    let quota = r.u64()?;
    t.quota_cycle = has_quota.then_some(quota);
    t.committed_at_quota = r.u64()?;
    t.committed_at_reset = r.u64()?;
    t.dmiss_loads = r.u64()?;
    t.l2_miss_loads = r.u64()?;
    t.forwarded_loads = r.u64()?;
    t.mem_stall_cycles = r.u64()?;
    Some(t)
}

/// Serializes everything a [`MixResult`] carries except the mix/policy
/// identity (which lives in the [`CellKey`]) into a flat word stream.
pub fn encode_result(r: &MixResult) -> Vec<u64> {
    let mut w = Vec::with_capacity(8 + 34 * (r.thread_stats.len() * 2 + 1));
    w.push(r.ipcs.len() as u64);
    w.extend(r.ipcs.iter().map(|v| v.to_bits()));
    w.push(r.executed_insts);
    w.push(r.cycles);
    w.push(u64::from(r.complete));
    w.push(r.thread_stats.len() as u64);
    for t in &r.thread_stats {
        push_thread_stats(&mut w, t);
    }
    w.push(r.thread_stats_at_quota.len() as u64);
    for t in &r.thread_stats_at_quota {
        match t {
            Some(t) => {
                w.push(1);
                push_thread_stats(&mut w, t);
            }
            None => w.push(0),
        }
    }
    let m = &r.mem_events;
    w.extend_from_slice(&[
        m.port_conflicts,
        m.port_wait_cycles,
        m.bus_transfers,
        m.bus_busy_cycles,
        m.bus_wait_cycles,
        m.completed_transfers,
    ]);
    w
}

/// Rebuilds a [`MixResult`] from [`encode_result`]'s word stream plus
/// the identity in `key`. `None` if the stream is malformed or the key
/// names an unknown group/benchmark/policy.
pub fn decode_result(words: &[u64], key: &CellKey) -> Option<MixResult> {
    let mix = key.to_mix()?;
    let policy = PolicyKind::from_name(&key.policy)?;
    let mut r = Reader { words, pos: 0 };
    let n_ipcs = r.usize()?;
    if n_ipcs > 64 {
        return None; // defensive bound; real mixes have ≤ 4 threads
    }
    let ipcs: Option<Vec<f64>> = (0..n_ipcs).map(|_| r.f64()).collect();
    let ipcs = ipcs?;
    let executed_insts = r.u64()?;
    let cycles = r.u64()?;
    let complete = r.bool()?;
    let n_threads = r.usize()?;
    if n_threads > 64 {
        return None;
    }
    let thread_stats: Option<Vec<ThreadStats>> =
        (0..n_threads).map(|_| read_thread_stats(&mut r)).collect();
    let thread_stats = thread_stats?;
    let n_quota = r.usize()?;
    if n_quota > 64 {
        return None;
    }
    let mut thread_stats_at_quota = Vec::with_capacity(n_quota);
    for _ in 0..n_quota {
        thread_stats_at_quota.push(if r.bool()? {
            Some(read_thread_stats(&mut r)?)
        } else {
            None
        });
    }
    let mem_events = rat_mem::MemEventStats {
        port_conflicts: r.u64()?,
        port_wait_cycles: r.u64()?,
        bus_transfers: r.u64()?,
        bus_busy_cycles: r.u64()?,
        bus_wait_cycles: r.u64()?,
        completed_transfers: r.u64()?,
    };
    if r.pos != words.len() {
        return None; // trailing garbage
    }
    Some(MixResult {
        mix,
        policy,
        ipcs,
        executed_insts,
        cycles,
        complete,
        thread_stats,
        thread_stats_at_quota,
        mem_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunConfig, Runner};
    use rat_smt::SmtConfig;
    use rat_workload::{mixes_for_group, WorkloadGroup};

    fn quick() -> RunConfig {
        RunConfig {
            insts_per_thread: 1_500,
            warmup_insts: 500,
            max_cycles: 50_000_000,
            seed: 7,
            ..RunConfig::default()
        }
    }

    fn sample_result() -> (CellKey, MixResult) {
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), quick());
        let mix = &mixes_for_group(WorkloadGroup::Mix2)[0];
        let r = runner.run_mix(mix, PolicyKind::Rat);
        let key = CellKey::new(runner.config_fingerprint(), mix, PolicyKind::Rat, 7);
        (key, r)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rat_store_{}_{}", std::process::id(), name))
    }

    #[test]
    fn codec_roundtrips_bit_exactly() {
        let (key, r) = sample_result();
        let words = encode_result(&r);
        let back = decode_result(&words, &key).expect("decodes");
        assert_eq!(encode_result(&back), words, "codec must be a bijection");
        assert_eq!(back.mix, r.mix);
        assert_eq!(back.policy, r.policy);
        assert_eq!(
            back.ipcs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.ipcs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn record_line_roundtrips_and_rejects_corruption() {
        let (key, r) = sample_result();
        let words = encode_result(&r);
        let line = format_record_line(&key, &words);
        let (k2, w2) = parse_record_line(&line).expect("parses");
        assert_eq!(k2, key);
        assert_eq!(w2, words);
        // Any single-character corruption must fail the checksum.
        let mut corrupt = line.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let corrupt = String::from_utf8(corrupt).unwrap();
        assert!(
            parse_record_line(&corrupt).is_none(),
            "corruption undetected"
        );
        // A torn prefix must fail too.
        assert!(parse_record_line(&line[..line.len() * 3 / 5]).is_none());
        // So must a checksum in any form but the 16 lowercase digits the
        // formatter writes: each of these reads as the same value through
        // `from_str_radix`, so each could hide a flipped bit.
        let (body, crc) = line.rsplit_once(" crc ").unwrap();
        let upper = crc.to_uppercase();
        assert_ne!(upper, crc, "the checksum has letters");
        for token in [
            upper,
            format!(" {crc}"),
            format!("{crc} "),
            format!("0{crc}"),
        ] {
            let variant = format!("{body} crc {token}");
            assert!(parse_record_line(&variant).is_none(), "{token:?}");
        }
    }

    #[test]
    fn store_persists_and_replays() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (key, r) = sample_result();
        {
            let store = ResultStore::open(&path);
            assert!(store.is_empty());
            assert!(store.put(&key, &r));
        }
        let store = ResultStore::open(&path);
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.stats().quarantined, 0);
        let back = store.get(&key).expect("replay");
        assert_eq!(encode_result(&back), encode_result(&r));
        assert_eq!(store.stats().hits, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_quarantined_not_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (key, r) = sample_result();
        let store = ResultStore::open(&path);
        store.put(&key, &r);
        drop(store);
        // Simulate a kill mid-append: chop the file mid-record.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() - 20]).unwrap();
        let store = ResultStore::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.get(&key).is_none(), "torn record must not be served");
        assert!(store.quarantine_path().exists());
        // The journal was compacted: reopening sees a clean (empty) file.
        let again = ResultStore::open(&path);
        assert_eq!(again.stats().quarantined, 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(store.quarantine_path());
    }

    #[test]
    fn a_non_utf8_byte_costs_only_its_record() {
        let path = tmp("non_utf8");
        let qpath = quarantine_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&qpath);
        let (key, r) = sample_result();
        let keys: Vec<CellKey> = (0..4)
            .map(|seed| CellKey {
                seed,
                ..key.clone()
            })
            .collect();
        let store = ResultStore::open(&path);
        for k in &keys {
            assert!(store.put(k, &r));
        }
        drop(store);

        // Bit 7 of one byte of the third record: the file is no longer
        // UTF-8, but only that line is lost.
        let mut body = std::fs::read(&path).unwrap();
        let starts: Vec<usize> = (0..body.len())
            .filter(|&i| body[i..].starts_with(b"rec "))
            .collect();
        assert_eq!(starts.len(), keys.len());
        body[starts[2] + 40] ^= 0x80;
        let bad = body[starts[2]..starts[3]].to_vec();
        assert!(std::str::from_utf8(&bad).is_err());
        std::fs::write(&path, &body).unwrap();

        let store = ResultStore::open(&path);
        assert_eq!(store.stats().loaded, keys.len() - 1);
        assert_eq!(store.stats().quarantined, 1);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(store.get(k).is_some(), i != 2, "record {i}");
        }
        assert_eq!(std::fs::read(&qpath).unwrap(), bad, "the line's own bytes");
        assert_eq!(journal_lines(&path).len(), keys.len() - 1, "compacted");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn foreign_layout_is_quarantined_wholesale() {
        let path = tmp("foreign");
        std::fs::write(&path, "some other format\nrec nonsense\n").unwrap();
        let store = ResultStore::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(store.quarantine_path());
    }

    /// The record formatter before the digit tables: `{:016x}` words.
    fn reference_format(key: &CellKey, words: &[u64]) -> String {
        let mut line = format!(
            "rec {:016x} {} {} {} {} {}",
            key.fingerprint,
            key.group,
            key.mix,
            key.policy,
            key.seed,
            words.len()
        );
        for w in words {
            line.push_str(&format!(" {w:016x}"));
        }
        let crc = xxh64(line.as_bytes());
        line.push_str(&format!(" crc {crc:016x}"));
        line
    }

    /// `body` with a valid checksum tail.
    fn with_crc(body: &str) -> String {
        format!("{body} crc {:016x}", xxh64(body.as_bytes()))
    }

    fn test_key() -> CellKey {
        CellKey {
            fingerprint: 0x0123_4567_89ab_cdef,
            group: "MEM2".to_string(),
            mix: "art+mcf".to_string(),
            policy: "RaT".to_string(),
            seed: 42,
        }
    }

    #[test]
    fn formatter_matches_the_reference_byte_for_byte() {
        let key = test_key();
        let edges = [
            0,
            1,
            u64::MAX,
            0xa5a5_a5a5_a5a5_a5a5,
            0x5a5a_5a5a_5a5a_5a5a,
            0x0f0f_0f0f_0f0f_0f0f,
            0xf0f0_f0f0_f0f0_f0f0,
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            1.5f64.to_bits(),
        ];
        let mut lines = vec![(key.clone(), edges.to_vec()), (key.clone(), Vec::new())];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x ^ (x >> 29)
        };
        for len in [1usize, 7, 33, 148, 300] {
            // Mix full-width words with short ones (leading zeros).
            let words: Vec<u64> = (0..len).map(|i| next() >> (i % 64)).collect();
            let key = CellKey {
                fingerprint: next(),
                seed: next(),
                ..test_key()
            };
            lines.push((key, words));
        }
        for (key, words) in &lines {
            let line = format_record_line(key, words);
            assert_eq!(line, reference_format(key, words));
            assert_eq!(parse_record_line(&line), Some((key.clone(), words.clone())));
        }
    }

    /// Whether `line` parses only to a key and words the formatter
    /// writes it for: every line `parse_record_line` accepts must be
    /// exactly `format_record_line` of what it returns.
    fn accepted_only_if_canonical(line: &str) -> bool {
        parse_record_line(line).is_none_or(|(k, w)| format_record_line(&k, &w) == line)
    }

    #[test]
    fn parser_accepts_exactly_the_formatted_line() {
        let head = "rec 0123456789abcdef MEM2 art+mcf RaT 42";
        let canonical = [
            format!("{head} 2 0000000000000001 a5a5a5a5a5a5a5a5"),
            format!("{head} 0"),
            "rec 0000000000000000 ST mcf ICOUNT 0 1 ffffffffffffffff".into(),
        ];
        for body in &canonical {
            let line = with_crc(body);
            assert!(parse_record_line(&line).is_some(), "{line}");
            assert!(accepted_only_if_canonical(&line), "{line}");
        }
        // Each spells a key and words the formatter writes another way
        // (or none at all), under a valid checksum.
        let variants = [
            format!("{head} 2 0000000000000001 FFFFFFFFFFFFFFFF"),
            format!("{head} 1 A5a5a5a5a5a5a5a5"),
            format!("{head} 3 0000000000000001 f 0000000000000002"),
            format!("{head} 1 fffffffffffffff"),
            format!("{head} 1 0ffffffffffffffff"),
            format!("{head} 1 1ffffffffffffffff"),
            format!("{head} 1 +fffffffffffffff"),
            format!("{head} 1 +0000000000000001"),
            format!("{head} 1 -000000000000001"),
            format!("{head} 1 000000000000000g"),
            format!("{head} 2 0000000000000001\t0000000000000002"),
            "rec\t0123456789abcdef MEM2 art+mcf RaT 42 1 0000000000000001".into(),
            format!("{head} 1\t0000000000000001"),
            format!("{head} 2 0000000000000001  0000000000000002"),
            format!("{head}  1 0000000000000001"),
            "rec  0123456789abcdef MEM2 art+mcf RaT 42 0".into(),
            format!("{head} 1 0000000000000001 "),
            format!("{head} 0 "),
            " rec 0123456789abcdef MEM2 art+mcf RaT 42 0".into(),
            "rec 0123456789abcdef MEM2 art+mcf RaT 042 0".into(),
            format!("{head} 01 0000000000000001"),
            format!("{head} 00"),
            format!("{head} +1 0000000000000001"),
            "rec 0123456789abcdef MEM2 art+mcf RaT +42 0".into(),
            "rec 0123456789ABCDEF MEM2 art+mcf RaT 42 0".into(),
            "rec 123456789abcdef MEM2 art+mcf RaT 42 0".into(),
            format!("{head} 1 0000000000000001 0000000000000002"),
            format!("{head} 3 0000000000000001 0000000000000002"),
            format!("{head} {} 0000000000000001", u64::MAX),
            format!("{head} 99999999999999999999 0000000000000001"),
            "rec 0123456789abcdef MEM2 art+mcf RaT x 0".into(),
            "ref 0123456789abcdef MEM2 art+mcf RaT 42 0".into(),
            format!("{head} 1\u{a0}0000000000000001"),
        ];
        for body in &variants {
            assert_eq!(parse_record_line(&with_crc(body)), None, "{body:?}");
        }
        // The checksum tail has one spelling too.
        let line = with_crc(&canonical[0]);
        let (body, crc) = line.rsplit_once(" crc ").unwrap();
        for tail in [
            format!(" crc {}", crc.to_uppercase()),
            format!("  crc {crc}"),
            format!(" crc  {crc}"),
            format!(" crc {crc} "),
            format!("\tcrc {crc}"),
            format!(" CRC {crc}"),
            " crc 0000000000000000".into(),
        ] {
            assert_eq!(
                parse_record_line(&format!("{body}{tail}")),
                None,
                "{tail:?}"
            );
        }

        // Random keys and words, formatted, then edited one byte at a
        // time under a recomputed checksum: whatever still parses must
        // be exactly the formatter's line for it.
        let alphabet = b" \t0123456789abcdefABCDEF+-gx";
        let mut x = 0x0bad_5eed_1234_5678u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut edited, mut accepted) = (0, 0);
        for case in 0..200 {
            let words: Vec<u64> = (0..next() % 6).map(|i| next() >> (8 * i)).collect();
            let key = CellKey {
                fingerprint: next() >> (case % 64),
                seed: [0, 1, 42, next()][case % 4],
                ..test_key()
            };
            let line = format_record_line(&key, &words);
            assert_eq!(parse_record_line(&line), Some((key, words)));
            let body = line.rsplit_once(" crc ").unwrap().0.as_bytes();
            for _ in 0..20 {
                let at = next() as usize % (body.len() + 1);
                let b = alphabet[next() as usize % alphabet.len()];
                let mut e = body.to_vec();
                match next() % 3 {
                    0 => e.insert(at, b),
                    1 if at < e.len() => e[at] = b,
                    _ if at < e.len() => drop(e.remove(at)),
                    _ => e.push(b),
                }
                let e = with_crc(std::str::from_utf8(&e).unwrap());
                assert!(accepted_only_if_canonical(&e), "{e}");
                edited += 1;
                accepted += usize::from(parse_record_line(&e).is_some());
            }
        }
        // Some edits (a digit for a digit) leave a canonical line.
        assert!(
            accepted > 0 && accepted < edited / 2,
            "{accepted} of {edited}"
        );
    }

    /// The journal's `rec` lines, in file order.
    fn journal_lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| l.starts_with("rec "))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn stored_line_is_the_appended_and_the_loaded_line() {
        let path = tmp("stored_line");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(quarantine_path(&path));
        let (key, r) = sample_result();
        let store = ResultStore::open(&path);
        assert!(store.record_line(&key).is_none());
        store.put(&key, &r);
        let appended = journal_lines(&path);
        assert_eq!(appended.len(), 1);
        assert_eq!(
            store.record_line(&key).as_deref(),
            Some(appended[0].as_str())
        );
        assert_eq!(appended[0], format_record_line(&key, &encode_result(&r)));
        drop(store);

        // A line with a valid checksum but uppercase words is not a line
        // the formatter writes: it is quarantined, alone, and its cell
        // recomputes.
        let words = encode_result(&r);
        let canonical = format_record_line(&key, &words);
        let other = CellKey {
            seed: key.seed + 1,
            ..key.clone()
        };
        let kept = format_record_line(&other, &words);
        let mut upper = format!(
            "rec {:016x} {} {} {} {} {}",
            key.fingerprint,
            key.group,
            key.mix,
            key.policy,
            key.seed,
            words.len()
        );
        for w in &words {
            upper.push_str(&format!(" {w:016X}"));
        }
        let upper = with_crc(&upper);
        assert_ne!(upper, canonical, "the IPC words have letters");
        assert!(parse_record_line(&upper).is_none());
        std::fs::write(&path, format!("{MAGIC}\n{kept}\n{upper}\n")).unwrap();
        let store = ResultStore::open(&path);
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.record_line(&key).is_none());
        assert!(store.get(&key).is_none());
        assert_eq!(store.record_line(&other).as_deref(), Some(kept.as_str()));
        assert_eq!(encode_result(&store.get(&other).expect("replay")), words);
        assert_eq!(journal_lines(&path), vec![kept]);
        assert_eq!(
            std::fs::read_to_string(store.quarantine_path()).unwrap(),
            format!("{upper}\n")
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(store.quarantine_path());
    }

    #[test]
    fn stored_line_stays_intact_under_record_faults() {
        let (key, r) = sample_result();
        let clean = format_record_line(&key, &encode_result(&r));
        for spec in ["flip@0", "torn@0"] {
            let path = tmp(&format!("fault_{}", &spec[..4]));
            let _ = std::fs::remove_file(&path);
            let store = ResultStore::open(&path);
            store.set_fault_plan(FaultPlan::parse(spec).unwrap());
            assert!(store.put(&key, &r), "{spec} looks like a success");
            let line = store.record_line(&key).expect("held in memory");
            assert_eq!(&*line, clean.as_str(), "{spec}");
            assert_eq!(
                parse_record_line(&line),
                Some((key.clone(), encode_result(&r)))
            );
            assert_ne!(journal_lines(&path), vec![clean.clone()], "{spec}");
            drop(store);
            let reopened = ResultStore::open(&path);
            assert_eq!(reopened.stats().quarantined, 1, "{spec}");
            assert!(reopened.record_line(&key).is_none(), "{spec}");
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(reopened.quarantine_path());
        }
    }

    #[test]
    fn later_duplicate_wins_and_is_compacted() {
        let path = tmp("duplicate");
        let (key, r) = sample_result();
        let mut later = r.clone();
        later.cycles += 1;
        let first = format_record_line(&key, &encode_result(&r));
        let second = format_record_line(&key, &encode_result(&later));
        std::fs::write(&path, format!("{MAGIC}\n{first}\n{second}\n")).unwrap();
        let store = ResultStore::open(&path);
        assert_eq!(store.stats().duplicates, 1);
        assert_eq!(store.record_line(&key).as_deref(), Some(second.as_str()));
        assert_eq!(store.get(&key).expect("replay").cycles, later.cycles);
        // Open compacted the journal down to the winning line.
        assert_eq!(journal_lines(&path), vec![second.clone()]);
        store.rewrite_journal();
        assert_eq!(journal_lines(&path), vec![second]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn xxh64_matches_known_answers() {
        // XXH64 at seed 0. The 39-byte input takes one 32-byte stripe,
        // then the 4-byte and the single-byte tails.
        for (input, want) in [
            ("", 0xef46_db37_51d8_e999),
            ("a", 0xd24e_c4f1_a98c_6e5b),
            ("abc", 0x44bc_2cf5_ad77_0999),
            (
                "Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(xxh64(input.as_bytes()), want, "{input:?}");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_record_line_is_rejected() {
        let (key, r) = sample_result();
        assert_eq!(r.thread_stats.len(), 2);
        let mut bytes = format_record_line(&key, &encode_result(&r)).into_bytes();
        let mut parsed = 0;
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                // A flip that breaks UTF-8 never reaches the parser: the
                // line reader refuses a non-UTF-8 line, and the journal
                // loader a non-UTF-8 file.
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    assert_eq!(parse_record_line(flipped), None, "bit {bit} of byte {i}");
                    parsed += 1;
                }
                bytes[i] ^= 1 << bit;
            }
        }
        assert_eq!(parsed, 7 * bytes.len(), "only high-bit flips break UTF-8");
    }

    /// Each byte's value as a lowercase hex digit, or `0xff` for any byte
    /// that is not one of [`HEX_DIGITS`].
    const HEX_VALUES: [u8; 256] = {
        let mut table = [0xff; 256];
        let mut i = 0;
        while i < 16 {
            table[HEX_DIGITS[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    /// The reference for [`decode_hex16`]: one table lookup a digit.
    fn table_decode_hex16(digits: &[u8; 16]) -> Option<u64> {
        let (mut w, mut bad) = (0u64, 0u8);
        for &b in digits {
            let v = HEX_VALUES[b as usize];
            bad |= v;
            w = (w << 4) | u64::from(v & 0xf);
        }
        (bad & 0xf0 == 0).then_some(w)
    }

    #[test]
    fn swar_decoder_agrees_with_the_table_at_every_byte_and_position() {
        let canonical = *b"0123456789abcdef";
        assert_eq!(decode_hex16(&canonical), Some(0x0123_4567_89ab_cdef));
        let mut accepted = 0;
        for pos in 0..16 {
            for b in 0..=255u8 {
                let mut digits = canonical;
                digits[pos] = b;
                let want = table_decode_hex16(&digits);
                assert_eq!(decode_hex16(&digits), want, "byte {b:#04x} at {pos}");
                accepted += usize::from(want.is_some());
            }
        }
        assert_eq!(accepted, 16 * 16);
    }

    #[test]
    fn swar_decoder_agrees_with_the_table_on_random_words() {
        // Lowercase digits, their uppercase forms, each range's
        // neighbours, a space, and bytes at and above 0x80.
        let mut mixed = b"0123456789abcdefABCDEFg/:`@ ".to_vec();
        mixed.extend_from_slice(&[0x80, 0x8f, 0xb0, 0xc3, 0xe1, 0xff]);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut accepted = 0;
        for _ in 0..100_000 {
            // Mostly lowercase digits, so that many words are canonical.
            let digits: [u8; 16] = std::array::from_fn(|_| {
                let r = next();
                if r % 16 == 0 {
                    mixed[(r >> 8) as usize % mixed.len()]
                } else {
                    HEX_DIGITS[(r >> 8) as usize % 16]
                }
            });
            let want = table_decode_hex16(&digits);
            assert_eq!(decode_hex16(&digits), want, "{digits:?}");
            accepted += usize::from(want.is_some());
        }
        assert!((20_000..80_000).contains(&accepted), "{accepted} accepted");
    }

    /// A record line as `ratstore v1` formatted it: the v2 body with an
    /// FNV-1a `crc`.
    const V1_LINE: &str = "rec 0123456789abcdef MEM2 art+mcf RaT 42 6 \
        0000000000000002 3ff8000000000000 3fd0000000000000 0000000000000000 \
        0000000000000001 ffffffffffffffff crc 2e4bcb00f130c7be";

    /// `line` with its checksum recomputed as `ratstore v1` did.
    fn as_v1(line: &str) -> String {
        let (body, _) = line.rsplit_once(" crc ").unwrap();
        format!("{body} crc {:016x}", fnv1a(body.as_bytes()))
    }

    #[test]
    fn v2_line_differs_from_v1_only_in_the_checksum() {
        let words = [2, 1.5f64.to_bits(), 0.25f64.to_bits(), 0, 1, u64::MAX];
        let v2 = format_record_line(&test_key(), &words);
        let (v1_body, v1_crc) = V1_LINE.rsplit_once(" crc ").unwrap();
        let (v2_body, v2_crc) = v2.rsplit_once(" crc ").unwrap();
        assert_eq!(v2_body, v1_body);
        assert_eq!(format!("{:016x}", fnv1a(v2_body.as_bytes())), v1_crc);
        assert_eq!(format!("{:016x}", xxh64(v2_body.as_bytes())), v2_crc);
        assert_ne!(v2_crc, v1_crc);
        assert_eq!(as_v1(&v2), V1_LINE);
        assert_eq!(parse_record_line(V1_LINE), None, "v1 fails the v2 checksum");
    }

    #[test]
    fn journal_of_another_version_is_set_aside_and_rewritten() {
        let path = tmp("v1_journal");
        let qpath = quarantine_path(&path);
        let _ = std::fs::remove_file(&qpath);
        let (key, r) = sample_result();
        let other = CellKey {
            seed: key.seed + 1,
            ..key.clone()
        };
        let line = format_record_line(&key, &encode_result(&r));
        let old = format!(
            "ratstore v1\n{}\n{}\n",
            as_v1(&line),
            as_v1(&format_record_line(&other, &encode_result(&r)))
        );
        std::fs::write(&path, &old).unwrap();
        let store = ResultStore::open(&path);
        assert_eq!(store.stats().loaded, 0);
        assert_eq!(store.stats().quarantined, 3, "the header and 2 records");
        assert_eq!(std::fs::read_to_string(&qpath).unwrap(), old);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{MAGIC}\n")
        );
        assert!(store.put(&key, &r));
        drop(store);
        let reopened = ResultStore::open(&path);
        assert_eq!(reopened.stats().loaded, 1);
        assert_eq!(reopened.stats().quarantined, 0);
        // The journals differ in the header and the checksum alone.
        assert_eq!(journal_lines(&path), vec![line.clone()]);
        assert_eq!(as_v1(&line), old.lines().nth(1).unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = tmp("atomic");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let _ = std::fs::remove_file(&path);
    }
}
