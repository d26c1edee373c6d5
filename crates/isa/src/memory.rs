//! Sparse 64-bit data memory.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use crate::hash::WordMap;

const LINE_SHIFT: u64 = 6;
const LINE_BYTES: usize = 1 << LINE_SHIFT;
/// 64-bit words per line.
pub const LINE_WORDS: usize = LINE_BYTES / 8;

/// Sentinel line number for an empty hot-cache slot. Real line numbers
/// are `addr >> 6` of 64-bit addresses and never reach this value.
const NO_LINE: u64 = u64::MAX;

/// Sentinel frame index in a hot-cache slot: the line is known to have
/// no frame (no write has reached it).
const NO_FRAME: u32 = u32::MAX;

/// The initial content of a [`SparseMemory`]: what a word holds before
/// any write reaches its line.
///
/// Both methods must agree — `fill_line` is the bulk form of eight
/// `word` calls — and be pure functions of the address, so a memory
/// reads the same whether or not a line has been materialized.
pub trait MemorySource: Send + Sync + fmt::Debug {
    /// The initial value of the 8-byte aligned word at `addr`.
    fn word(&self, addr: u64) -> u64;

    /// Writes the initial content of line number `line` (the words at
    /// `(line << 6) + 8 * i`) into `out`.
    fn fill_line(&self, line: u64, out: &mut [u64; LINE_WORDS]);
}

/// A sparse, line-granular simulated data memory.
///
/// * addresses are 64-bit, accesses are 8-byte aligned 64-bit words;
/// * unwritten memory reads its [`MemorySource`], or zero without one;
/// * the first write to a 64-byte line materializes it (filled from the
///   source), so only written lines occupy memory: a thread that stores
///   one word per 4 KiB holds eight words per store, not a page;
/// * a write overwrites its word and records nothing: the SMT front end
///   serves squashed spans from its replay buffer instead of
///   re-executing them, so no write is ever undone.
///
/// Lines live in one flat, append-only frame arena indexed through a
/// `line → frame` map, with a two-entry *hot-line cache* in front of the
/// map: a stream walks a line eight words at a time and stores land on
/// the line just loaded, so the common load/store resolves its frame
/// with two integer compares instead of a `HashMap` probe. A slot also
/// remembers a line that has no frame, so repeated reads of an unwritten
/// line skip the map too. The cache is pure memoization behind `Cell`s —
/// reads stay `&self` and every path falls back to the map, so behavior
/// is identical with the cache disabled. Clones share the source and
/// copy only the materialized lines.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use rat_isa::{MemorySource, SparseMemory, LINE_WORDS};
///
/// /// Every word initially holds its own address.
/// #[derive(Debug)]
/// struct Identity;
///
/// impl MemorySource for Identity {
///     fn word(&self, addr: u64) -> u64 {
///         addr
///     }
///     fn fill_line(&self, line: u64, out: &mut [u64; LINE_WORDS]) {
///         for (i, w) in out.iter_mut().enumerate() {
///             *w = (line << 6) + 8 * i as u64;
///         }
///     }
/// }
///
/// let mut zeros = SparseMemory::new();
/// zeros.write_u64(0x1000, 7);
/// assert_eq!(zeros.read_u64(0x1000), 7);
/// assert_eq!(zeros.read_u64(0x3000), 0, "no source: unwritten memory reads as zero");
///
/// let mut m = SparseMemory::with_source(Arc::new(Identity));
/// assert_eq!(m.read_u64(0x2008), 0x2008);
/// m.write_u64(0x2000, 1);
/// assert_eq!(m.read_u64(0x2008), 0x2008, "the rest of the line keeps its source values");
/// assert_eq!(m.resident_lines(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SparseMemory {
    /// Line number → index into `frames`.
    line_map: WordMap<u32>,
    /// The line frames themselves; never removed, so indices are stable.
    frames: Vec<[u64; LINE_WORDS]>,
    /// Most-recently-used `(line, frame)` pairs, hottest first; the
    /// frame is [`NO_FRAME`] for a line with none.
    hot: [Cell<(u64, u32)>; 2],
    /// Initial content of unmaterialized lines (zero when `None`).
    source: Option<Arc<dyn MemorySource>>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            line_map: WordMap::default(),
            frames: Vec::new(),
            hot: [Cell::new((NO_LINE, 0)), Cell::new((NO_LINE, 0))],
            source: None,
        }
    }
}

impl SparseMemory {
    /// Creates an empty memory (all zeros).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory whose unwritten words read `source`.
    pub fn with_source(source: Arc<dyn MemorySource>) -> Self {
        SparseMemory {
            source: Some(source),
            ..Self::default()
        }
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        debug_assert_eq!(addr % 8, 0, "misaligned 64-bit access at {addr:#x}");
        (addr >> LINE_SHIFT, ((addr as usize) & (LINE_BYTES - 1)) / 8)
    }

    /// Resolves `line` to its frame index ([`NO_FRAME`] if it has none)
    /// through the hot cache, falling back to (and refilling from) the
    /// line map.
    #[inline]
    fn frame_of(&self, line: u64) -> u32 {
        let h0 = self.hot[0].get();
        if h0.0 == line {
            return h0.1;
        }
        let h1 = self.hot[1].get();
        if h1.0 == line {
            self.hot[1].set(h0);
            self.hot[0].set(h1);
            return h1.1;
        }
        let frame = self.line_map.get(&line).copied().unwrap_or(NO_FRAME);
        self.hot[1].set(h0);
        self.hot[0].set((line, frame));
        frame
    }

    /// Resolves `line` to its frame index, materializing the line on
    /// first touch.
    #[inline]
    fn frame_of_or_alloc(&mut self, line: u64) -> usize {
        match self.frame_of(line) {
            NO_FRAME => self.materialize(line),
            frame => frame as usize,
        }
    }

    /// Allocates `line`'s frame, filled from the source. `frame_of` has
    /// just put `line` in the first hot slot, so that slot is the one
    /// to update.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, line: u64) -> usize {
        let mut data = [0u64; LINE_WORDS];
        if let Some(source) = &self.source {
            source.fill_line(line, &mut data);
        }
        let frame = u32::try_from(self.frames.len()).expect("line frame count fits u32");
        self.frames.push(data);
        self.line_map.insert(line, frame);
        self.hot[0].set((line, frame));
        frame as usize
    }

    /// Reads the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (line, word) = Self::split(addr);
        match self.frame_of(line) {
            NO_FRAME => self.initial(addr),
            frame => self.frames[frame as usize][word],
        }
    }

    /// The source's value for an unmaterialized word.
    #[inline]
    fn initial(&self, addr: u64) -> u64 {
        self.source.as_ref().map_or(0, |s| s.word(addr))
    }

    /// Writes the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (line, word) = Self::split(addr);
        let frame = self.frame_of_or_alloc(line);
        self.frames[frame][word] = value;
    }

    /// Reads the word at `addr` as an IEEE-754 binary64 value.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE-754 binary64 value at `addr`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of resident (materialized) lines; useful for footprint
    /// assertions in tests.
    pub fn resident_lines(&self) -> usize {
        self.line_map.len()
    }

    /// Number of resident 64-bit words (whole materialized lines).
    pub fn resident_words(&self) -> usize {
        self.line_map.len() * LINE_WORDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u64(0x0dea_dbee_f000), 0);
        assert_eq!(m.resident_lines(), 0);
    }

    #[test]
    fn read_after_write() {
        let mut m = SparseMemory::new();
        m.write_u64(0x10, 42);
        m.write_u64(0x8000, 43);
        assert_eq!(m.read_u64(0x10), 42);
        assert_eq!(m.read_u64(0x8000), 43);
        assert_eq!(m.read_u64(0x18), 0);
        assert_eq!(m.resident_lines(), 2);
    }

    #[test]
    fn hot_cache_survives_many_pages() {
        // Touch more lines than the hot cache holds, then revisit them
        // all: every word must still read back through the map fallback.
        let mut m = SparseMemory::new();
        for p in 0..8u64 {
            m.write_u64(p << 12, p + 1);
        }
        for p in (0..8u64).rev() {
            assert_eq!(m.read_u64(p << 12), p + 1);
        }
        assert_eq!(m.resident_lines(), 8);
    }

    #[test]
    fn sparse_stores_hold_one_line_each() {
        // One store per 4 KiB, as a stream that stores once per page
        // does: each materializes its own line and nothing around it.
        let mut m = SparseMemory::new();
        let stores = 64u64;
        for k in 0..stores {
            m.write_u64(0x1000_0000 + (k << 12) + 8 * (k % 8), k + 1);
        }
        assert!(
            m.resident_words() <= 8 * stores as usize,
            "{} resident words for {stores} stores",
            m.resident_words()
        );
        for k in 0..stores {
            assert_eq!(m.read_u64(0x1000_0000 + (k << 12) + 8 * (k % 8)), k + 1);
        }
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_f64(0x100, 3.5);
        assert_eq!(m.read_f64(0x100), 3.5);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = SparseMemory::new();
        a.write_u64(0x40, 7);
        let mut b = a.clone();
        b.write_u64(0x40, 8);
        assert_eq!(a.read_u64(0x40), 7);
        assert_eq!(b.read_u64(0x40), 8);
    }

    /// A source whose words are a mix of their address.
    #[derive(Debug)]
    struct Scrambled;

    impl MemorySource for Scrambled {
        fn word(&self, addr: u64) -> u64 {
            (addr ^ 0x5eed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        fn fill_line(&self, line: u64, out: &mut [u64; LINE_WORDS]) {
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.word((line << LINE_SHIFT) + 8 * i as u64);
            }
        }
    }

    fn scrambled() -> SparseMemory {
        SparseMemory::with_source(Arc::new(Scrambled))
    }

    #[test]
    fn unwritten_words_read_the_source() {
        let m = scrambled();
        for addr in [0, 8, 0x1ff8, 0x1000_0000, 0x0dea_dbee_f000] {
            assert_eq!(m.read_u64(addr), Scrambled.word(addr), "{addr:#x}");
        }
        assert_eq!(m.resident_lines(), 0, "reads materialize nothing");
    }

    #[test]
    fn first_write_keeps_the_rest_of_the_line() {
        let mut m = scrambled();
        let line = 0x3000_0000u64;
        // The written line and one line on either side.
        let span = line - LINE_BYTES as u64..line + 2 * LINE_BYTES as u64;
        let before: Vec<u64> = span.clone().step_by(8).map(|a| m.read_u64(a)).collect();
        m.write_u64(line + 8 * 5, 1);
        assert_eq!(m.resident_lines(), 1);
        for (addr, old) in span.step_by(8).zip(before) {
            let want = if addr == line + 8 * 5 { 1 } else { old };
            assert_eq!(m.read_u64(addr), want, "word at {addr:#x}");
        }
    }

    #[test]
    fn clone_with_source_is_independent() {
        let mut a = scrambled();
        a.write_u64(0x40, 7);
        let mut b = a.clone();
        b.write_u64(0x48, 8);
        b.write_u64(0x5000, 9);
        a.write_u64(0x9000, 10);
        assert_eq!((a.read_u64(0x40), b.read_u64(0x40)), (7, 7));
        assert_eq!(a.read_u64(0x48), Scrambled.word(0x48));
        assert_eq!(b.read_u64(0x48), 8);
        assert_eq!(a.read_u64(0x5000), Scrambled.word(0x5000));
        assert_eq!(b.read_u64(0x5000), 9);
        assert_eq!(a.read_u64(0x9000), 10);
        assert_eq!(b.read_u64(0x9000), Scrambled.word(0x9000));
        assert_eq!((a.resident_lines(), b.resident_lines()), (2, 2));
    }
}
