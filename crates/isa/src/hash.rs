//! Hashing for hot sets and maps keyed by one `u64`.
//!
//! std's default SipHash is keyed and DoS-resistant, which keys the
//! simulator derives itself (addresses, line numbers, sequence numbers)
//! do not need, and it costs a few dozen cycles per probe.
//! [`WordHasher`] finalizes the key with splitmix64's output mixer
//! instead: a full avalanche in two multiplies. Its users only insert,
//! probe and remove, never iterate, so the hasher moves no result.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// splitmix64's finalizer: cheap, and strong enough to spread word
/// addresses (which share low-entropy strides) over a table.
#[inline]
pub fn splitmix_finalize(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] for `u64` keys: [`splitmix_finalize`] of the written
/// word. Other writes fold in byte by byte, so any key still hashes.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix_finalize(self.0 ^ n);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashSet<u64>` hashed by [`WordHasher`].
pub type WordSet = HashSet<u64, BuildHasherDefault<WordHasher>>;

/// A `HashMap<u64, V>` hashed by [`WordHasher`].
pub type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_sets_behave_like_sets() {
        let mut s = WordSet::default();
        for k in (0..1000u64).map(|k| k * 8) {
            assert!(s.insert(k));
        }
        assert!(!s.insert(8));
        assert!(s.contains(&800) && !s.contains(&804));
        assert!(s.remove(&800) && !s.contains(&800));
        assert_eq!(s.len(), 999);
    }

    #[test]
    fn finalizer_spreads_strided_keys() {
        // Word-strided keys must land in distinct low bits, as a table
        // index takes them.
        let buckets: HashSet<u64> = (0..64u64)
            .map(|k| splitmix_finalize(k * 8) & 1023)
            .collect();
        assert!(buckets.len() > 55, "{} distinct buckets", buckets.len());
    }
}
