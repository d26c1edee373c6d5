//! A small open-addressed counting set for in-flight store addresses.
//!
//! The store→load forwarding check in the issue stage probes this
//! structure once per load, and every store touches it twice (dispatch
//! and commit/squash), which made the previous `HashMap<u64, u32>` one
//! of the hottest allocation/hashing sites in the whole simulator. The
//! working set is tiny — in-flight stores are bounded by the ROB — so a
//! fixed-start open-addressed table with linear probing beats SipHash +
//! heap buckets by a wide margin.
//!
//! Keys are word addresses (the caller masks to 8-byte granularity);
//! values are reference counts (several in-flight stores may target the
//! same word). Deletion uses tombstones (count 0, key retained); the
//! table rebuilds when live + tombstone slots exceed ¾ of capacity,
//! which both drops tombstones and grows the table if genuinely full.

use rat_isa::hash::splitmix_finalize;

/// Sentinel for a never-used slot. Store addresses are word-aligned
/// virtual addresses well below the thread-tag bits, so `u64::MAX`
/// cannot collide with a real key.
const EMPTY: u64 = u64::MAX;

/// Open-addressed counting multiset of word addresses.
#[derive(Clone, Debug)]
pub(crate) struct StoreSet {
    keys: Vec<u64>,
    counts: Vec<u32>,
    /// Slots with `count > 0`.
    live: usize,
    /// Slots with a key installed (live + tombstones).
    used: usize,
}

impl StoreSet {
    /// Creates a table with room for at least `capacity` live keys
    /// before any rebuild.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(8) * 2).next_power_of_two();
        StoreSet {
            keys: vec![EMPTY; slots],
            counts: vec![0; slots],
            live: 0,
            used: 0,
        }
    }

    /// Whether `key` is present with a positive count.
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        let mask = self.keys.len() - 1;
        let mut i = (splitmix_finalize(key) as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return false;
            }
            if k == key {
                return self.counts[i] > 0;
            }
            i = (i + 1) & mask;
        }
    }

    /// Increments `key`'s count (inserting it if absent).
    pub(crate) fn insert(&mut self, key: u64) {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        if (self.used + 1) * 4 > self.keys.len() * 3 {
            self.rebuild();
        }
        let mask = self.keys.len() - 1;
        let mut i = (splitmix_finalize(key) as usize) & mask;
        let mut tomb: Option<usize> = None;
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                // Not present: reuse the first tombstone on the probe
                // path if we saw one, else claim this empty slot.
                let slot = match tomb {
                    Some(t) => t,
                    None => {
                        self.used += 1;
                        i
                    }
                };
                self.keys[slot] = key;
                self.counts[slot] = 1;
                self.live += 1;
                return;
            }
            if k == key {
                if self.counts[i] == 0 {
                    self.live += 1;
                }
                self.counts[i] += 1;
                return;
            }
            if self.counts[i] == 0 && tomb.is_none() {
                tomb = Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Decrements `key`'s count; a count reaching zero leaves a
    /// tombstone. Absent keys are ignored (matches the previous
    /// `HashMap` removal semantics).
    pub(crate) fn remove(&mut self, key: u64) {
        let mask = self.keys.len() - 1;
        let mut i = (splitmix_finalize(key) as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return;
            }
            if k == key {
                if self.counts[i] > 0 {
                    self.counts[i] -= 1;
                    if self.counts[i] == 0 {
                        self.live -= 1;
                    }
                }
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Number of distinct live keys.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Rehashes live entries into a table sized for the live count,
    /// dropping tombstones (and growing if the table is genuinely full).
    fn rebuild(&mut self) {
        let slots = ((self.live + 1).max(8) * 2).next_power_of_two();
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; slots]);
        self.live = 0;
        self.used = 0;
        let mask = slots - 1;
        for (k, c) in old_keys.into_iter().zip(old_counts) {
            if k == EMPTY || c == 0 {
                continue;
            }
            let mut i = (splitmix_finalize(k) as usize) & mask;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.counts[i] = c;
            self.live += 1;
            self.used += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = StoreSet::with_capacity(4);
        assert!(!s.contains(0x1000));
        s.insert(0x1000);
        assert!(s.contains(0x1000));
        s.insert(0x1000);
        s.remove(0x1000);
        assert!(s.contains(0x1000), "count 2 → 1 stays present");
        s.remove(0x1000);
        assert!(!s.contains(0x1000), "count 0 is absent");
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn removing_absent_key_is_a_noop() {
        let mut s = StoreSet::with_capacity(4);
        s.remove(0xdead_beef);
        s.insert(0x40);
        s.remove(0x48);
        assert!(s.contains(0x40));
    }

    #[test]
    fn survives_churn_and_rebuilds() {
        // Far more insert/remove cycles than capacity: tombstones must
        // not wedge the table, and live counts must stay exact.
        let mut s = StoreSet::with_capacity(8);
        for round in 0u64..200 {
            let base = round * 64;
            for w in 0..8 {
                s.insert(base + w * 8);
            }
            for w in 0..8 {
                assert!(s.contains(base + w * 8), "round {round} word {w}");
                s.remove(base + w * 8);
            }
        }
        assert_eq!(s.len(), 0);
        // Distinct colliding-stride keys all coexist.
        for w in 0..64u64 {
            s.insert(w * 512);
        }
        for w in 0..64u64 {
            assert!(s.contains(w * 512));
        }
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn duplicate_counts_are_per_key() {
        let mut s = StoreSet::with_capacity(8);
        s.insert(8);
        s.insert(8);
        s.insert(16);
        s.remove(8);
        assert!(s.contains(8));
        assert!(s.contains(16));
        s.remove(8);
        assert!(!s.contains(8));
        assert!(s.contains(16));
    }
}
