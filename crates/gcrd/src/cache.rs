//! Dependency-free keyed LRU cache and the FNV-1a hash that keys it.
//!
//! The daemon keys each design's cache slot (its parsed design and
//! completed routing) by the 64-bit FNV-1a hash of a canonical
//! description string (benchmark name, stream length, seed — everything
//! that determines the input bit for bit). Hash collisions are a
//! theoretical concern at daemon cache sizes (tens of entries); the
//! canonical string itself is stored with the entry and compared on
//! lookup, so a collision degrades to a miss, never to a wrong answer.

use std::collections::HashMap;

/// 64-bit FNV-1a over `bytes` — stable across platforms and runs, which
/// is what a cache key and a response-visible decision-log digest need
/// (`DefaultHasher` makes no such promise).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A least-recently-used cache with `u64` keys and exact-key
/// verification.
///
/// Entries carry the canonical string they were keyed from; a lookup
/// whose canonical string differs (an FNV collision) is treated as a
/// miss and the colliding entry is left in place. Recency is a
/// monotonic stamp bumped on every hit; eviction scans for the minimum
/// stamp — O(capacity), which is fine at the daemon's cache sizes and
/// keeps the structure a single `HashMap`.
#[derive(Debug)]
pub struct LruCache<V> {
    map: HashMap<u64, Entry<V>>,
    capacity: usize,
    tick: u64,
}

#[derive(Debug)]
struct Entry<V> {
    canonical: String,
    stamp: u64,
    value: V,
}

impl<V: Clone> LruCache<V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Looks up `key`, verifying the entry was produced from the same
    /// `canonical` string; bumps recency on a hit.
    pub fn get(&mut self, key: u64, canonical: &str) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&key)?;
        if entry.canonical != canonical {
            return None;
        }
        entry.stamp = tick;
        Some(entry.value.clone())
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&mut self, key: u64, canonical: &str, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(&oldest) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k) {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(
            key,
            Entry {
                canonical: canonical.to_owned(),
                stamp: self.tick,
                value,
            },
        );
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "one", 10);
        cache.insert(2, "two", 20);
        assert_eq!(cache.get(1, "one"), Some(10)); // bump 1
        cache.insert(3, "three", 30); // evicts 2
        assert_eq!(cache.get(2, "two"), None);
        assert_eq!(cache.get(1, "one"), Some(10));
        assert_eq!(cache.get(3, "three"), Some(30));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn collision_is_a_miss_not_a_wrong_answer() {
        let mut cache = LruCache::new(4);
        cache.insert(7, "design-a", 1);
        assert_eq!(cache.get(7, "design-b"), None);
        assert_eq!(cache.get(7, "design-a"), Some(1));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "one", 10);
        cache.insert(2, "two", 20);
        cache.insert(1, "one", 11);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(1, "one"), Some(11));
        assert_eq!(cache.get(2, "two"), Some(20));
    }
}
