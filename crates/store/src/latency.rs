//! Latency-injecting store decorator.
//!
//! Models a remote storage tier (the paper's DevOps deployment runs
//! Cassandra on a separate machine with ~0.6 ms network latency, §6). Wraps
//! any [`KvStore`] and sleeps a configurable duration per operation. Used by
//! the end-to-end benchmarks to separate engine cost from storage-tier cost.

use crate::{KvStore, StoreError, WriteOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A [`KvStore`] decorator that injects fixed per-operation latency and
/// counts operations.
pub struct LatencyKv<S> {
    inner: S,
    latency: Duration,
    ops: AtomicU64,
}

impl<S: KvStore> LatencyKv<S> {
    /// Wraps `inner`, sleeping `latency` on every get/put/delete/scan and
    /// once per write batch.
    pub fn new(inner: S, latency: Duration) -> Self {
        LatencyKv {
            inner,
            latency,
            ops: AtomicU64::new(0),
        }
    }

    /// Total operations served.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn tick(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
    }
}

impl<S: KvStore> KvStore for LatencyKv<S> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.tick();
        self.inner.get(key)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.tick();
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.tick();
        self.inner.delete(key)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, StoreError> {
        self.tick();
        self.inner.scan_prefix(prefix)
    }

    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        self.tick();
        self.inner.scan_keys(prefix)
    }

    /// One latency for the whole batch: it travels to the remote tier as
    /// one request.
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        self.tick();
        self.inner.write_batch(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::MemKv;
    use std::time::Instant;

    #[test]
    fn conformance_with_zero_latency() {
        // Fresh store per suite: the suites assume an empty keyspace.
        let fresh = || LatencyKv::new(MemKv::new(), Duration::ZERO);
        conformance::basic_ops(&fresh());
        conformance::prefix_scan(&fresh());
        conformance::binary_safety(&fresh());
        conformance::empty_value(&fresh());
        conformance::write_batch(&fresh());
    }

    #[test]
    fn counts_operations() {
        let kv = LatencyKv::new(MemKv::new(), Duration::ZERO);
        kv.put(b"a", b"1").unwrap();
        kv.get(b"a").unwrap();
        kv.delete(b"a").unwrap();
        kv.scan_prefix(b"").unwrap();
        assert_eq!(kv.op_count(), 4);
        let put = |key, value| WriteOp::Put { key, value };
        kv.write_batch(&[put(b"a", b"1"), put(b"b", b"2")]).unwrap();
        assert_eq!(kv.op_count(), 5, "a batch is one round trip");
    }

    #[test]
    fn injects_latency() {
        let kv = LatencyKv::new(MemKv::new(), Duration::from_millis(5));
        let t = Instant::now();
        kv.get(b"x").unwrap();
        assert!(t.elapsed() >= Duration::from_millis(5));
    }
}
