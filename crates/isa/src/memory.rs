//! Sparse 64-bit data memory.

use std::fmt;
use std::sync::Arc;

use crate::hash::WordMap;

/// Bits in a memory's written-line bitmap: one per line number
/// (`addr >> 6`) modulo this, 8 KiB in all.
const BITMAP_BITS: usize = 1 << 16;

/// The initial content of a [`SparseMemory`]: what a word holds before
/// a write reaches it. It must be a pure function of the address, so a
/// memory reads the same whatever else has been written.
pub trait MemorySource: Send + Sync + fmt::Debug {
    /// The initial value of the 8-byte aligned word at `addr`.
    fn word(&self, addr: u64) -> u64;
}

/// A sparse, word-granular simulated data memory.
///
/// * addresses are 64-bit, accesses are 8-byte aligned 64-bit words;
/// * unwritten memory reads its [`MemorySource`], or zero without one;
/// * a write stores its one word in a map of the written words, so a
///   thread holds only the words it writes, never a line or a page of
///   words around them;
/// * a write overwrites its word and records nothing: the SMT front end
///   serves squashed spans from its replay buffer instead of
///   re-executing them, so no write is ever undone.
///
/// A fixed 8 KiB bitmap sits in front of the map, one bit per line
/// number (`addr >> 6`) modulo 65,536, set by every write to such a
/// line. A read whose bit is clear, such as a stream load over an array
/// no store reaches, goes straight to the source without probing the
/// map. A set bit means only that a write reached this line
/// or one a multiple of 4 MiB away, so the read probes the map and
/// falls back to the source. Clones share the source and copy the
/// written words and the bitmap.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use rat_isa::{MemorySource, SparseMemory};
///
/// /// Every word initially holds its own address.
/// #[derive(Debug)]
/// struct Identity;
///
/// impl MemorySource for Identity {
///     fn word(&self, addr: u64) -> u64 {
///         addr
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
/// assert_eq!(m.resident_words(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SparseMemory {
    /// Every written word, by address.
    words: WordMap<u64>,
    /// Bit `(addr >> 6) % BITMAP_BITS` is set once a write reaches a
    /// line with that number.
    written: Box<[u64; BITMAP_BITS / 64]>,
    /// Initial content of unwritten words (zero when `None`).
    source: Option<Arc<dyn MemorySource>>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            words: WordMap::default(),
            written: Box::new([0; BITMAP_BITS / 64]),
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

    /// The bitmap word and bit of `addr`'s line.
    #[inline]
    fn bitmap_bit(addr: u64) -> (usize, u64) {
        debug_assert_eq!(addr % 8, 0, "misaligned 64-bit access at {addr:#x}");
        let bit = (addr >> 6) as usize % BITMAP_BITS;
        (bit / 64, 1 << (bit % 64))
    }

    /// Reads the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (i, bit) = Self::bitmap_bit(addr);
        if self.written[i] & bit != 0 {
            if let Some(&value) = self.words.get(&addr) {
                return value;
            }
        }
        self.source.as_ref().map_or(0, |s| s.word(addr))
    }

    /// Writes the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (i, bit) = Self::bitmap_bit(addr);
        self.written[i] |= bit;
        self.words.insert(addr, value);
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

    /// Number of written 64-bit words the memory holds.
    pub fn resident_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes between two lines that share a bitmap bit.
    const ALIAS: u64 = (BITMAP_BITS as u64) << 6;

    #[test]
    fn zero_initialized() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u64(0x0dea_dbee_f000), 0);
        assert_eq!(m.resident_words(), 0);
    }

    #[test]
    fn read_after_write() {
        let mut m = SparseMemory::new();
        m.write_u64(0x10, 42);
        m.write_u64(0x8000, 43);
        assert_eq!(m.read_u64(0x10), 42);
        assert_eq!(m.read_u64(0x8000), 43);
        assert_eq!(m.read_u64(0x18), 0);
        assert_eq!(m.resident_words(), 2);
    }

    #[test]
    fn lines_sharing_a_bitmap_bit_read_their_own_words() {
        // Eight lines 4 MiB apart set one bitmap bit: each word must
        // still read back its own value through the map.
        let mut m = SparseMemory::new();
        for p in 0..8u64 {
            m.write_u64(p * ALIAS, p + 1);
        }
        for p in (0..8u64).rev() {
            assert_eq!(m.read_u64(p * ALIAS), p + 1);
            assert_eq!(m.read_u64(p * ALIAS + 8), 0);
        }
        assert_eq!(m.read_u64(8 * ALIAS), 0);
        assert_eq!(m.resident_words(), 8);
    }

    #[test]
    fn sparse_stores_hold_one_word_each() {
        // One store per 4 KiB, as a stream that stores once per page
        // does: each holds its own word and nothing around it.
        let mut m = SparseMemory::new();
        let stores = 64u64;
        let addr = |k: u64| 0x1000_0000 + (k << 12) + 8 * (k % 8);
        for k in 0..stores {
            m.write_u64(addr(k), k + 1);
        }
        m.write_u64(addr(3), 99);
        assert_eq!(m.resident_words(), stores as usize);
        for k in 0..stores {
            assert_eq!(m.read_u64(addr(k)), if k == 3 { 99 } else { k + 1 });
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
        assert_eq!(m.resident_words(), 0, "reads store nothing");
    }

    #[test]
    fn unwritten_words_beside_written_ones_read_the_source() {
        // A never-written word reads its source value whether its line
        // holds a written word, only shares a written line's bitmap bit,
        // or has a clear bit.
        let mut m = scrambled();
        let written = 0x3000_0000u64 + 8 * 3;
        m.write_u64(written, 1);
        for addr in [written + 8, written - 24, written + ALIAS, written + 64] {
            assert_eq!(m.read_u64(addr), Scrambled.word(addr), "{addr:#x}");
        }
        assert_eq!(m.read_u64(written), 1);
        assert_eq!(m.resident_words(), 1);
    }

    #[test]
    fn first_write_keeps_the_rest_of_the_line() {
        let mut m = scrambled();
        let line = 0x3000_0000u64;
        // The written line and one line on either side.
        let span = line - 64..line + 2 * 64;
        let before: Vec<u64> = span.clone().step_by(8).map(|a| m.read_u64(a)).collect();
        m.write_u64(line + 8 * 5, 1);
        assert_eq!(m.resident_words(), 1);
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
        assert_eq!((a.resident_words(), b.resident_words()), (2, 3));
    }
}
