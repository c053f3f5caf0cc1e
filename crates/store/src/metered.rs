//! An operation-counting decorator over any [`KvStore`].
//!
//! The sharded service layer (`timecrypt-service`) wraps its shared backend
//! in a [`MeteredKv`] so `Request::Stats` can report how hard the storage
//! tier is being driven — the reproduction's stand-in for the Cassandra-side
//! metrics the paper's deployment would export (§4.6).
//!
//! The decorator also feeds per-request tracing: each operation opens a
//! `timecrypt-obs` stage span (`store.get`, `store.put`, `store.batch`, ...), which
//! aggregates store time into the active request scope's breakdown. With
//! no scope active on the thread the span is free (no clock read), so
//! the hot path stays untouched when tracing is idle.

use crate::{KvStore, StoreError, WriteOp};
use std::sync::Arc;
use timecrypt_obs::counters::Counter;
use timecrypt_obs::trace;

/// Point-in-time snapshot of a [`MeteredKv`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// `get` calls.
    pub gets: u64,
    /// `put` calls.
    pub puts: u64,
    /// `delete` calls.
    pub deletes: u64,
    /// `scan_prefix`, `scan_keys` and `scan_keys_after` calls.
    pub scans: u64,
    /// Total value bytes returned by `get` hits and `scan_prefix`.
    pub bytes_read: u64,
    /// Total value bytes written by `put`.
    pub bytes_written: u64,
}

/// A [`KvStore`] decorator counting operations and value bytes. Counters are
/// relaxed atomics: cheap enough for the ingest hot path, and exactness
/// under concurrency is not required for monitoring.
pub struct MeteredKv {
    inner: Arc<dyn KvStore>,
    gets: Counter,
    puts: Counter,
    deletes: Counter,
    scans: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

impl MeteredKv {
    /// Wraps a store.
    pub fn new(inner: Arc<dyn KvStore>) -> Self {
        MeteredKv {
            inner,
            gets: Counter::new(),
            puts: Counter::new(),
            deletes: Counter::new(),
            scans: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
        }
    }

    /// Snapshots the counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            gets: self.gets.get(),
            puts: self.puts.get(),
            deletes: self.deletes.get(),
            scans: self.scans.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn KvStore> {
        &self.inner
    }
}

impl KvStore for MeteredKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let _span = trace::stage("store.get");
        self.gets.inc();
        let v = self.inner.get(key)?;
        if let Some(v) = &v {
            self.bytes_read.add(v.len() as u64);
        }
        Ok(v)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let _span = trace::stage("store.put");
        self.puts.inc();
        self.bytes_written.add(value.len() as u64);
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        let _span = trace::stage("store.delete");
        self.deletes.inc();
        self.inner.delete(key)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        let _span = trace::stage("store.scan");
        self.scans.inc();
        let hits = self.inner.scan_prefix(prefix)?;
        let bytes: usize = hits.iter().map(|(_, v)| v.len()).sum();
        self.bytes_read.add(bytes as u64);
        Ok(hits)
    }

    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        let _span = trace::stage("store.scan");
        self.scans.inc();
        self.inner.scan_keys(prefix)
    }

    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        let _span = trace::stage("store.scan");
        self.scans.inc();
        self.inner.scan_keys_after(prefix, after, limit)
    }

    /// Counted as the puts and deletes it carries, under one `store.batch`
    /// span.
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        let _span = trace::stage("store.batch");
        let (mut puts, mut bytes) = (0, 0);
        for op in ops {
            if let WriteOp::Put { value, .. } = op {
                puts += 1;
                bytes += value.len() as u64;
            }
        }
        self.puts.add(puts);
        self.deletes.add(ops.len() as u64 - puts);
        self.bytes_written.add(bytes);
        self.inner.write_batch(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::MemKv;

    #[test]
    fn conforms() {
        let kv = || MeteredKv::new(Arc::new(MemKv::new()));
        conformance::basic_ops(&kv());
        conformance::prefix_scan(&kv());
        conformance::binary_safety(&kv());
        conformance::empty_value(&kv());
        conformance::write_batch(&kv());
        conformance::scan_keys_after(&kv());
    }

    #[test]
    fn counts_operations_and_bytes() {
        let kv = MeteredKv::new(Arc::new(MemKv::new()));
        kv.put(b"k", b"12345").unwrap();
        kv.get(b"k").unwrap();
        kv.get(b"missing").unwrap();
        kv.scan_prefix(b"").unwrap();
        kv.scan_keys(b"").unwrap();
        kv.delete(b"k").unwrap();
        // A batch counts as the writes it carries.
        let put = |key, value| WriteOp::Put { key, value };
        kv.write_batch(&[
            put(b"a", b"123"),
            WriteOp::Delete { key: b"k" },
            put(b"b", b"4"),
        ])
        .unwrap();
        let c = kv.counters();
        assert_eq!((c.gets, c.puts, c.deletes, c.scans), (2, 3, 2, 2));
        // One get hit and one value scan return the 5 bytes; the key scan none.
        assert_eq!((c.bytes_read, c.bytes_written), (10, 9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "store call while `registry` is held")]
    fn a_store_call_under_the_registry_panics() {
        use parking_lot::Mutex;
        use timecrypt_obs::rank::{self, Ranked};
        let registry: Ranked<{ rank::REGISTRY }, _> = Ranked::new(Mutex::new(()));
        let kv = MeteredKv::new(Arc::new(MemKv::new()));
        let _registry = registry.lock(Mutex::lock);
        let _ = kv.get(b"k");
    }
}
