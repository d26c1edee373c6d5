//! Sparse 64-bit data memory.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
/// 64-bit words per page.
pub const PAGE_WORDS: usize = PAGE_BYTES / 8;

/// Sentinel page number for an empty hot-cache slot. Real page numbers
/// are `addr >> 12` of 64-bit addresses and never reach this value in
/// practice (it would require an address in the last page of the
/// address space).
const NO_PAGE: u64 = u64::MAX;

/// Sentinel frame index in a hot-cache slot: the page is known to have
/// no frame (no write has reached it).
const NO_FRAME: u32 = u32::MAX;

/// The initial content of a [`SparseMemory`]: what a word holds before
/// any write reaches its page.
///
/// Both methods must agree — `fill_page` is the bulk form of 512 `word`
/// calls — and be pure functions of the address, so a memory reads the
/// same whether or not a page has been materialized.
pub trait MemorySource: Send + Sync + fmt::Debug {
    /// The initial value of the 8-byte aligned word at `addr`.
    fn word(&self, addr: u64) -> u64;

    /// Writes the initial content of page number `page` (the words at
    /// `(page << 12) + 8 * i`) into `out`.
    fn fill_page(&self, page: u64, out: &mut [u64; PAGE_WORDS]);
}

/// A sparse, page-granular simulated data memory.
///
/// * addresses are 64-bit, accesses are 8-byte aligned 64-bit words;
/// * unwritten memory reads its [`MemorySource`], or zero without one;
/// * the first write to a page materializes it (filled from the source),
///   so only written pages occupy memory;
/// * a write overwrites its word and records nothing: the SMT front end
///   serves squashed spans from its replay buffer instead of
///   re-executing them, so no write is ever undone.
///
/// Pages live in an append-only frame arena indexed through a
/// `page → frame` map, with a two-entry *hot-page cache* in front of the
/// map: workload inner loops hammer one or two pages (a stream buffer, a
/// chased list region), so the common load/store resolves its frame with
/// two integer compares instead of a `HashMap` probe. A slot also
/// remembers a page that has no frame, so repeated reads of an unwritten
/// page skip the map too. The cache is pure memoization behind `Cell`s —
/// reads stay `&self` and every path falls back to the map, so behavior
/// is identical with the cache disabled. Clones share the source and
/// copy only the materialized pages.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use rat_isa::{MemorySource, SparseMemory, PAGE_WORDS};
///
/// /// Every word initially holds its own address.
/// #[derive(Debug)]
/// struct Identity;
///
/// impl MemorySource for Identity {
///     fn word(&self, addr: u64) -> u64 {
///         addr
///     }
///     fn fill_page(&self, page: u64, out: &mut [u64; PAGE_WORDS]) {
///         for (i, w) in out.iter_mut().enumerate() {
///             *w = (page << 12) + 8 * i as u64;
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
/// assert_eq!(m.read_u64(0x2008), 0x2008, "the rest of the page keeps its source values");
/// assert_eq!(m.resident_pages(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SparseMemory {
    /// Page number → index into `frames`.
    page_map: HashMap<u64, u32>,
    /// The page frames themselves; never removed, so indices are stable.
    frames: Vec<Box<[u64; PAGE_WORDS]>>,
    /// Most-recently-used `(page, frame)` pairs, hottest first; the
    /// frame is [`NO_FRAME`] for a page with none.
    hot: [Cell<(u64, u32)>; 2],
    /// Initial content of unmaterialized pages (zero when `None`).
    source: Option<Arc<dyn MemorySource>>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            page_map: HashMap::new(),
            frames: Vec::new(),
            hot: [Cell::new((NO_PAGE, 0)), Cell::new((NO_PAGE, 0))],
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
        (addr >> PAGE_SHIFT, ((addr as usize) & (PAGE_BYTES - 1)) / 8)
    }

    /// Resolves `page` to its frame index ([`NO_FRAME`] if it has none)
    /// through the hot cache, falling back to (and refilling from) the
    /// page map.
    #[inline]
    fn frame_of(&self, page: u64) -> u32 {
        let h0 = self.hot[0].get();
        if h0.0 == page {
            return h0.1;
        }
        let h1 = self.hot[1].get();
        if h1.0 == page {
            self.hot[1].set(h0);
            self.hot[0].set(h1);
            return h1.1;
        }
        let frame = self.page_map.get(&page).copied().unwrap_or(NO_FRAME);
        self.hot[1].set(h0);
        self.hot[0].set((page, frame));
        frame
    }

    /// Resolves `page` to its frame index, materializing the page on
    /// first touch.
    #[inline]
    fn frame_of_or_alloc(&mut self, page: u64) -> usize {
        match self.frame_of(page) {
            NO_FRAME => self.materialize(page),
            frame => frame as usize,
        }
    }

    /// Allocates `page`'s frame, filled from the source. `frame_of` has
    /// just put `page` in the first hot slot, so that slot is the one
    /// to update.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, page: u64) -> usize {
        let mut data = Box::new([0u64; PAGE_WORDS]);
        if let Some(source) = &self.source {
            source.fill_page(page, &mut data);
        }
        let frame = u32::try_from(self.frames.len()).expect("page frame count fits u32");
        self.frames.push(data);
        self.page_map.insert(page, frame);
        self.hot[0].set((page, frame));
        frame as usize
    }

    /// Reads the 64-bit word at `addr` (must be 8-byte aligned).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (page, word) = Self::split(addr);
        match self.frame_of(page) {
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
        let (page, word) = Self::split(addr);
        let frame = self.frame_of_or_alloc(page);
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

    /// Number of resident (materialized) pages; useful for footprint
    /// assertions in tests.
    pub fn resident_pages(&self) -> usize {
        self.page_map.len()
    }

    /// Number of resident 64-bit words (whole materialized pages).
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

    /// A source whose words are a mix of their address.
    #[derive(Debug)]
    struct Scrambled;

    impl MemorySource for Scrambled {
        fn word(&self, addr: u64) -> u64 {
            (addr ^ 0x5eed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        fn fill_page(&self, page: u64, out: &mut [u64; PAGE_WORDS]) {
            for (i, w) in out.iter_mut().enumerate() {
                *w = self.word((page << PAGE_SHIFT) + 8 * i as u64);
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
        assert_eq!(m.resident_pages(), 0, "reads materialize nothing");
    }

    #[test]
    fn first_write_keeps_the_rest_of_the_page() {
        let mut m = scrambled();
        let page = 0x3000_0000u64;
        let before: Vec<u64> = (0..PAGE_WORDS as u64)
            .map(|i| m.read_u64(page + 8 * i))
            .collect();
        m.write_u64(page + 8 * 17, 1);
        assert_eq!(m.resident_pages(), 1);
        for (i, &old) in before.iter().enumerate() {
            let want = if i == 17 { 1 } else { old };
            assert_eq!(m.read_u64(page + 8 * i as u64), want, "word {i}");
        }
        assert_eq!(
            m.read_u64(page + PAGE_BYTES as u64),
            Scrambled.word(page + 0x1000)
        );
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
        assert_eq!((a.resident_pages(), b.resident_pages()), (2, 2));
    }
}
