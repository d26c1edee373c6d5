//! Sparse 64-bit data memory.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_WORDS: usize = PAGE_BYTES / 8;

/// Sentinel page number for an empty hot-cache slot. Real page numbers
/// are `addr >> 12` of 64-bit addresses and never reach this value in
/// practice (it would require an address in the last page of the
/// address space).
const NO_PAGE: u64 = u64::MAX;

/// A sparse, page-granular simulated data memory.
///
/// * addresses are 64-bit, accesses are 8-byte aligned 64-bit words;
/// * unwritten memory reads as zero;
/// * a write overwrites its word and records nothing: the SMT front end
///   serves squashed spans from its replay buffer instead of
///   re-executing them, so no write is ever undone.
///
/// Pages live in an append-only frame arena indexed through a
/// `page → frame` map, with a two-entry *hot-page cache* in front of the
/// map: workload inner loops hammer one or two pages (a stream buffer, a
/// chased list region), so the common load/store resolves its frame with
/// two integer compares instead of a `HashMap` probe. The cache is pure
/// memoization behind `Cell`s — reads stay `&self` and every path falls
/// back to the map, so behavior is identical with the cache disabled.
///
/// # Example
///
/// ```
/// use rat_isa::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_u64(0x1000, 7);
/// m.write_block(0x2000, &[1, 2, 3]);
/// assert_eq!(m.read_u64(0x1000), 7);
/// assert_eq!(m.read_u64(0x2010), 3);
/// assert_eq!(m.read_u64(0x3000), 0, "unwritten memory reads as zero");
/// ```
#[derive(Clone, Debug)]
pub struct SparseMemory {
    /// Page number → index into `frames`.
    page_map: HashMap<u64, u32>,
    /// The page frames themselves; never removed, so indices are stable.
    frames: Vec<Box<[u64; PAGE_WORDS]>>,
    /// Most-recently-used `(page, frame)` pairs, hottest first.
    hot: [Cell<(u64, u32)>; 2],
}

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            page_map: HashMap::new(),
            frames: Vec::new(),
            hot: [Cell::new((NO_PAGE, 0)), Cell::new((NO_PAGE, 0))],
        }
    }
}

impl SparseMemory {
    /// Creates an empty memory (all zeros).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        debug_assert_eq!(addr % 8, 0, "misaligned 64-bit access at {addr:#x}");
        (addr >> PAGE_SHIFT, ((addr as usize) & (PAGE_BYTES - 1)) / 8)
    }

    /// Resolves `page` to its frame index through the hot cache, falling
    /// back to (and refilling from) the page map.
    #[inline]
    fn frame_of(&self, page: u64) -> Option<u32> {
        let h0 = self.hot[0].get();
        if h0.0 == page {
            return Some(h0.1);
        }
        let h1 = self.hot[1].get();
        if h1.0 == page {
            self.hot[1].set(h0);
            self.hot[0].set(h1);
            return Some(h1.1);
        }
        let &frame = self.page_map.get(&page)?;
        self.hot[1].set(h0);
        self.hot[0].set((page, frame));
        Some(frame)
    }

    /// Resolves `page` to its frame index, allocating a zeroed frame on
    /// first touch.
    #[inline]
    fn frame_of_or_alloc(&mut self, page: u64) -> usize {
        if let Some(frame) = self.frame_of(page) {
            return frame as usize;
        }
        let frame = u32::try_from(self.frames.len()).expect("page frame count fits u32");
        self.frames.push(Box::new([0u64; PAGE_WORDS]));
        self.page_map.insert(page, frame);
        self.hot[1].set(self.hot[0].get());
        self.hot[0].set((page, frame));
        frame as usize
    }

    /// Reads the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (page, word) = Self::split(addr);
        self.frame_of(page)
            .map_or(0, |f| self.frames[f as usize][word])
    }

    /// Writes the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (page, word) = Self::split(addr);
        let frame = self.frame_of_or_alloc(page);
        self.frames[frame][word] = value;
    }

    /// Bulk-writes `words.len()` consecutive 64-bit words starting at
    /// `addr` (8-byte aligned) — the result is bit-identical to that
    /// many [`write_u64`](Self::write_u64) calls, but each page frame is
    /// resolved once and filled with a slice copy instead of per-word
    /// hot-cache probes. Workload image generation fills multi-megabyte
    /// regions through this.
    pub fn write_block(&mut self, addr: u64, words: &[u64]) {
        let mut addr = addr;
        let mut rest = words;
        while !rest.is_empty() {
            let (page, word0) = Self::split(addr);
            let frame = self.frame_of_or_alloc(page);
            let n = (PAGE_WORDS - word0).min(rest.len());
            self.frames[frame][word0..word0 + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr += (n as u64) * 8;
        }
    }

    /// Deterministic FNV-1a digest of every allocated page's contents,
    /// folded in page-number order (insertion order never matters).
    /// Lets bit-identity tests compare whole memory images cheaply.
    pub fn digest(&self) -> u64 {
        let mut pages: Vec<(&u64, &u32)> = self.page_map.iter().collect();
        pages.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (&page, &frame) in pages {
            fold(page);
            for &w in self.frames[frame as usize].iter() {
                fold(w);
            }
        }
        h
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

    /// Number of resident (touched) pages; useful for footprint assertions
    /// in tests.
    pub fn resident_pages(&self) -> usize {
        self.page_map.len()
    }

    /// Number of resident 64-bit words (whole touched pages). Sizes the
    /// generator-throughput cells in perfbench.
    pub fn resident_words(&self) -> usize {
        self.page_map.len() * PAGE_WORDS
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
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_after_write() {
        let mut m = SparseMemory::new();
        m.write_u64(0x10, 42);
        m.write_u64(0x8000, 43);
        assert_eq!(m.read_u64(0x10), 42);
        assert_eq!(m.read_u64(0x8000), 43);
        assert_eq!(m.read_u64(0x18), 0);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn hot_cache_survives_many_pages() {
        // Touch more pages than the hot cache holds, then revisit them
        // all: every word must still read back through the map fallback.
        let mut m = SparseMemory::new();
        for p in 0..8u64 {
            m.write_u64(p << 12, p + 1);
        }
        for p in (0..8u64).rev() {
            assert_eq!(m.read_u64(p << 12), p + 1);
        }
        assert_eq!(m.resident_pages(), 8);
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

    #[test]
    fn write_block_matches_word_writes() {
        // Straddle a page boundary and start mid-page.
        let words: Vec<u64> = (0..1200u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let base = 0x1000_0000 + 8 * 100;
        let mut blk = SparseMemory::new();
        blk.write_block(base, &words);
        let mut scalar = SparseMemory::new();
        for (i, &w) in words.iter().enumerate() {
            scalar.write_u64(base + 8 * i as u64, w);
        }
        for i in 0..words.len() as u64 {
            assert_eq!(blk.read_u64(base + 8 * i), scalar.read_u64(base + 8 * i));
        }
        assert_eq!(blk.digest(), scalar.digest());
    }

    #[test]
    fn digest_ignores_insertion_order() {
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 1);
        a.write_u64(0x9000, 2);
        let mut b = SparseMemory::new();
        b.write_u64(0x9000, 2);
        b.write_u64(0x1000, 1);
        assert_eq!(a.digest(), b.digest());
        b.write_u64(0x9000, 3);
        assert_ne!(a.digest(), b.digest());
    }
}
