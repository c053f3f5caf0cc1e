//! Sharded in-memory key-value engine.

use crate::{KvStore, StoreError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Number of shards; a small power of two balancing contention vs memory.
const SHARDS: usize = 16;

/// In-memory sharded store. Shards by key hash to keep writer contention low
/// under the multi-threaded load generator; within a shard a `BTreeMap`
/// gives cheap prefix scans.
pub struct MemKv {
    shards: Vec<RwLock<BTreeMap<Vec<u8>, Vec<u8>>>>,
}

impl Default for MemKv {
    fn default() -> Self {
        Self::new()
    }
}

impl MemKv {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemKv {
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
        }
    }

    fn shard(&self, key: &[u8]) -> &RwLock<BTreeMap<Vec<u8>, Vec<u8>>> {
        // FNV-1a over the key; cheap and adequate for shard selection.
        let mut h = 0xcbf29ce484222325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h as usize) % SHARDS]
    }

    /// Total number of stored keys (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `pick` of the first `limit` entries of each shard whose key starts
    /// with `prefix`, from `from` on, shard by shard.
    fn scan<T>(
        &self,
        prefix: &[u8],
        from: Bound<&[u8]>,
        limit: usize,
        pick: impl Fn(&Vec<u8>, &Vec<u8>) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.read();
            // Range from `from` forward; stop at the first non-match.
            let hits = map.range::<[u8], _>((from, Bound::Unbounded));
            out.extend(
                hits.take_while(|(k, _)| k.starts_with(prefix))
                    .take(limit)
                    .map(|(k, v)| pick(k, v)),
            );
        }
        out
    }

    /// Approximate total bytes held (keys + values) — used by the Table 2
    /// index-size accounting.
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .iter()
                    .map(|(k, v)| k.len() + v.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

impl KvStore for MemKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        timecrypt_obs::rank::assert_may_block();
        Ok(self.shard(key).read().get(key).cloned())
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        timecrypt_obs::rank::assert_may_block();
        self.shard(key).write().insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        timecrypt_obs::rank::assert_may_block();
        self.shard(key).write().remove(key);
        Ok(())
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        timecrypt_obs::rank::assert_may_block();
        let pair = |k: &Vec<u8>, v: &Vec<u8>| (k.clone(), v.clone());
        Ok(self.scan(prefix, Bound::Included(prefix), usize::MAX, pair))
    }

    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        timecrypt_obs::rank::assert_may_block();
        let key = |k: &Vec<u8>, _: &Vec<u8>| k.clone();
        Ok(self.scan(prefix, Bound::Included(prefix), usize::MAX, key))
    }

    /// Each shard's first `limit` keys past the cursor, merged.
    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        timecrypt_obs::rank::assert_may_block();
        let from = match after < prefix {
            true => Bound::Included(prefix),
            false => Bound::Excluded(after),
        };
        let mut keys = self.scan(prefix, from, limit, |k, _| k.clone());
        keys.sort_unstable();
        keys.truncate(limit);
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn conformance_basic() {
        conformance::basic_ops(&MemKv::new());
    }

    #[test]
    fn conformance_scan() {
        conformance::prefix_scan(&MemKv::new());
    }

    #[test]
    fn conformance_binary() {
        conformance::binary_safety(&MemKv::new());
    }

    #[test]
    fn conformance_empty_value() {
        conformance::empty_value(&MemKv::new());
    }

    #[test]
    fn conformance_scan_keys_after() {
        conformance::scan_keys_after(&MemKv::new());
    }

    #[test]
    fn conformance_write_batch() {
        conformance::write_batch(&MemKv::new());
    }

    #[test]
    fn len_and_bytes_track_contents() {
        let kv = MemKv::new();
        assert!(kv.is_empty());
        kv.put(b"k1", &[0u8; 100]).unwrap();
        kv.put(b"k2", &[0u8; 50]).unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.approx_bytes(), 2 + 100 + 2 + 50);
        kv.delete(b"k1").unwrap();
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn concurrent_writers() {
        use std::sync::Arc;
        let kv = Arc::new(MemKv::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = format!("t{t}/k{i}");
                        kv.put(key.as_bytes(), &[t as u8]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.len(), 8 * 500);
        for t in 0..8 {
            assert_eq!(
                kv.scan_prefix(format!("t{t}/").as_bytes()).unwrap().len(),
                500
            );
        }
    }
}
