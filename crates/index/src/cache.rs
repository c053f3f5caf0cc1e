//! Byte-budgeted LRU cache for the running sums queries read at their
//! boundaries, each keyed by its chunk's index.
//!
//! The paper's server keeps hot index data in memory (caffeine LRU in the
//! Java prototype) and fetches cold data from the KV store. Cache size is a
//! first-order performance knob: Fig. 7 includes an "extremely small (1 MB)
//! index cache" configuration to show the miss-path cost.

use std::collections::HashMap;
use std::hash::Hash;

/// An LRU cache bounded by the total byte weight of its values.
///
/// Keys must be `Copy`: the recency index stores a second copy of every
/// key, and the hot paths (`get` refreshes recency on every lookup of a
/// query's boundary) must not pay a heap clone per lookup. The index keys
/// its running sums by chunk index, a `u64`.
pub struct LruCache<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Recency: logical clock per entry; eviction removes the minimum.
    /// A BTreeMap from tick to key gives O(log n) eviction.
    order: std::collections::BTreeMap<u64, K>,
    tick: u64,
    budget: usize,
    used: usize,
}

struct Entry<V> {
    value: V,
    weight: usize,
    tick: u64,
}

impl<K: Eq + Hash + Copy + Ord, V> LruCache<K, V> {
    /// Creates a cache holding at most `budget` bytes of value weight.
    pub fn new(budget: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            order: std::collections::BTreeMap::new(),
            tick: 0,
            budget,
            used: 0,
        }
    }

    /// Current byte usage.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let e = self.map.get_mut(key)?;
        self.order.remove(&e.tick);
        e.tick = self.tick;
        self.order.insert(self.tick, *key);
        Some(&e.value)
    }

    /// Inserts (or replaces) `key` with a value of `weight` bytes, evicting
    /// least-recently-used entries to stay within budget. Values heavier
    /// than the whole budget are admitted alone (the cache never refuses the
    /// working item; it just can't keep anything else).
    pub fn put(&mut self, key: K, value: V, weight: usize) {
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.tick);
            self.used -= old.weight;
        }
        while self.used + weight > self.budget {
            // The two maps move in lock-step: an exhausted order map means
            // nothing is left to evict, so the oversized value is admitted
            // alone.
            let Some((&t, _)) = self.order.iter().next() else {
                break;
            };
            let Some(victim) = self.order.remove(&t) else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.used -= e.weight;
            }
        }
        self.used += weight;
        self.order.insert(self.tick, key);
        self.map.insert(
            key,
            Entry {
                value,
                weight,
                tick: self.tick,
            },
        );
    }

    /// Removes `key` if present.
    pub fn remove(&mut self, key: &K) {
        if let Some(e) = self.map.remove(key) {
            self.order.remove(&e.tick);
            self.used -= e.weight;
        }
    }

    /// Drops everything (e.g. when a stream is deleted).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c: LruCache<u32, String> = LruCache::new(1000);
        assert!(c.get(&1).is_none());
        c.put(1, "one".into(), 10);
        assert_eq!(c.get(&1), Some(&"one".to_string()));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(30);
        c.put(1, 1, 10);
        c.put(2, 2, 10);
        c.put(3, 3, 10);
        // Touch 1 so 2 becomes LRU.
        c.get(&1);
        c.put(4, 4, 10);
        assert!(c.get(&2).is_none(), "2 should be evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert!(c.get(&4).is_some());
        assert!(c.used_bytes() <= 30);
    }

    #[test]
    fn replace_updates_weight() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.put(1, 1, 40);
        c.put(1, 2, 10);
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&2));
    }

    #[test]
    fn oversized_item_admitted_alone() {
        let mut c: LruCache<u32, u32> = LruCache::new(10);
        c.put(1, 1, 5);
        c.put(2, 2, 50);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn remove_and_clear() {
        let mut c: LruCache<u32, u32> = LruCache::new(100);
        c.put(1, 1, 10);
        c.put(2, 2, 10);
        c.remove(&1);
        assert_eq!(c.used_bytes(), 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn heavy_churn_stays_within_budget() {
        let mut c: LruCache<u64, Vec<u8>> = LruCache::new(1024);
        for i in 0..10_000u64 {
            c.put(i, vec![0u8; 64], 64);
            assert!(c.used_bytes() <= 1024);
        }
        assert_eq!(c.len(), 16);
    }
}
