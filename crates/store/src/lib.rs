//! Key-value storage engine (the paper's Cassandra substitute).
//!
//! TimeCrypt "can be plugged-in with any scalable key-value store for
//! persisting data chunks and statistical indices" (§4.6). The prototype
//! used Cassandra; this reproduction has one engine behind the
//! [`KvStore`] trait, [`LogKv`]: an append-only log with crash-recovery
//! replay. Its in-memory index holds record locations only — block-coded
//! at two to four bytes per key for keys that count up under a shared head
//! (a stream's chunks: the layout `timecrypt_index::keys` declares), key
//! and location for the rest; the log file is the one copy of the values,
//! read positionally and re-validated on every read. The file is a
//! [`LogFile`]: the [`OsFile`] a node opens by path, or the [`MemFile`] of
//! [`MemKv`], the same engine in memory that every test, example and
//! figure runs on.
//!
//! Beside it sits the [`MeteredKv`] decorator, which counts ops and bytes
//! for the service tier's metrics (`timecrypt-faults` adds `FaultyKv`,
//! which injects errors, torn writes and delays).
//!
//! Writes that belong together go through [`KvStore::write_batch`]: one
//! failure-atomic commit (one log append, one fsync wait in [`LogKv`]).
//! The index and the engine commit a stream's whole ingest run, and a
//! whole stream deletion, that way.
//!
//! Keys are arbitrary byte strings; TimeCrypt computes a chunk's key on the
//! fly from `(stream id, chunk index)` without storing references (§4.6
//! "storage model").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod file;
pub mod log;
pub mod metered;

pub use file::{LogFile, MemFile, OsFile};
pub use log::{Durability, LogKv, LogStats, MemKv};
pub use metered::{MeteredKv, StoreCounters};

use std::sync::Arc;

/// Storage error type.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Log file corrupt at recovery.
    Corrupt(&'static str),
    /// Log file corrupt, with the byte offset of the damage. At recovery
    /// it is distinct from a torn tail (which is truncated and warned
    /// about): valid data *follows* the damage, so resuming would silently
    /// drop history. On a read it is the offset of a live record that no
    /// longer validates (bit rot since open).
    CorruptAt {
        /// What failed to validate.
        what: &'static str,
        /// Byte offset of the first invalid record.
        offset: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "storage log corrupt: {m}"),
            StoreError::CorruptAt { what, offset } => {
                write!(f, "storage log corrupt at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One operation of a [`KvStore::write_batch`], borrowing its key and value.
#[derive(Clone, Copy, Debug)]
pub enum WriteOp<'a> {
    /// Store `value` under `key`, as [`KvStore::put`] does.
    Put {
        /// The key.
        key: &'a [u8],
        /// Its new value.
        value: &'a [u8],
    },
    /// Remove `key`, as [`KvStore::delete`] does.
    Delete {
        /// The key.
        key: &'a [u8],
    },
}

/// Minimal key-value interface the server engine needs: point get/put/delete,
/// an atomic batch of those writes, plus a prefix scan for stream enumeration
/// and range deletion.
pub trait KvStore: Send + Sync {
    /// Fetches the value stored under `key`.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;
    /// Stores `value` under `key`, replacing any previous value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Removes `key`. Removing an absent key is not an error.
    fn delete(&self, key: &[u8]) -> Result<(), StoreError>;
    /// Returns all `(key, value)` pairs whose key starts with `prefix`,
    /// in unspecified order.
    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError>;
    /// The keys of [`scan_prefix`](Self::scan_prefix) without the values —
    /// for callers that enumerate, count or probe. Engines answer it from
    /// their key index; the default drops the values of a full scan.
    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        Ok(self
            .scan_prefix(prefix)?
            .into_iter()
            .map(|(k, _)| k)
            .collect())
    }
    /// Up to `limit` keys that start with `prefix` and sort after `after`,
    /// ascending: a bounded ordered scan, so a caller pages through a
    /// prefix at the cost of a page per call. [`LogKv`] starts at `after`;
    /// the default sorts a whole [`scan_keys`](Self::scan_keys).
    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut keys = self.scan_keys(prefix)?;
        keys.retain(|key| key.as_slice() > after);
        keys.sort_unstable();
        keys.truncate(limit);
        Ok(keys)
    }
    /// Applies `ops` in order as one commit: **all of it or none of it**
    /// with respect to failure and crash. `Err` means no op took effect,
    /// and recovery after a crash finds either every op or none. There is
    /// no isolation promise — a concurrent reader may see a prefix of the
    /// batch while the call runs — so callers that publish a batch to
    /// readers do it after the call returns (the index publishes `len`).
    ///
    /// The default is a loop over [`put`](Self::put) and
    /// [`delete`](Self::delete), which keeps the promise only in doubles
    /// that do not care (test counters, the benchmark's timing wrapper,
    /// which then sees a batch as its separate writes). [`LogKv`] commits a
    /// batch as one framed append; every decorator in this workspace
    /// forwards the batch whole.
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        for op in ops {
            match *op {
                WriteOp::Put { key, value } => self.put(key, value)?,
                WriteOp::Delete { key } => self.delete(key)?,
            }
        }
        Ok(())
    }
}

/// Shared handles delegate, so decorators can wrap an `Arc<dyn KvStore>`
/// (e.g. the fault-injection layer) without a newtype at every call site.
impl<S: KvStore + ?Sized> KvStore for Arc<S> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        (**self).get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        (**self).put(key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        (**self).delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        (**self).scan_prefix(prefix)
    }
    fn scan_keys(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        (**self).scan_keys(prefix)
    }
    fn scan_keys_after(
        &self,
        prefix: &[u8],
        after: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        (**self).scan_keys_after(prefix, after, limit)
    }
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        (**self).write_batch(ops)
    }
}

/// Owned `(key, value)` pairs, as returned by [`KvStore::scan_prefix`].
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

#[cfg(test)]
pub(crate) mod conformance {
    //! A conformance suite every engine must pass; each engine's test module
    //! invokes it.
    use super::{KvStore, WriteOp};

    pub fn basic_ops(kv: &dyn KvStore) {
        assert_eq!(kv.get(b"missing").unwrap(), None);
        kv.put(b"a", b"1").unwrap();
        kv.put(b"b", b"2").unwrap();
        assert_eq!(kv.get(b"a").unwrap(), Some(b"1".to_vec()));
        kv.put(b"a", b"1b").unwrap();
        assert_eq!(kv.get(b"a").unwrap(), Some(b"1b".to_vec()));
        kv.delete(b"a").unwrap();
        assert_eq!(kv.get(b"a").unwrap(), None);
        kv.delete(b"a").unwrap(); // idempotent
        assert_eq!(kv.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    /// A mixed batch is visible whole, its ops applied in order; an empty
    /// batch changes nothing.
    pub fn write_batch(kv: &dyn KvStore) {
        kv.put(b"old", b"0").unwrap();
        kv.write_batch(&[]).unwrap();
        assert_eq!(kv.scan_keys(b"").unwrap(), vec![b"old".to_vec()]);
        let put = |key, value| WriteOp::Put { key, value };
        kv.write_batch(&[
            put(b"a", b"1"),
            WriteOp::Delete { key: b"old" },
            put(b"b", b""),
            put(b"a", b"2"),
            WriteOp::Delete { key: b"absent" },
        ])
        .unwrap();
        let mut all = kv.scan_prefix(b"").unwrap();
        all.sort();
        let want = [(&b"a"[..], &b"2"[..]), (b"b", b"")];
        assert_eq!(all, want.map(|(k, v)| (k.to_vec(), v.to_vec())));
        kv.write_batch(&[put(b"c", b"3")]).unwrap();
        assert_eq!(kv.get(b"c").unwrap(), Some(b"3".to_vec()));
    }

    pub fn prefix_scan(kv: &dyn KvStore) {
        kv.put(b"s/1/x", b"a").unwrap();
        kv.put(b"s/1/y", b"b").unwrap();
        kv.put(b"s/2/x", b"c").unwrap();
        kv.put(b"t/1", b"d").unwrap();
        let mut hits = kv.scan_prefix(b"s/1/").unwrap();
        hits.sort();
        assert_eq!(
            hits,
            vec![
                (b"s/1/x".to_vec(), b"a".to_vec()),
                (b"s/1/y".to_vec(), b"b".to_vec()),
            ]
        );
        assert_eq!(kv.scan_prefix(b"s/").unwrap().len(), 3);
        assert_eq!(kv.scan_prefix(b"zzz").unwrap().len(), 0);
        // Empty prefix = everything.
        assert_eq!(kv.scan_prefix(b"").unwrap().len(), 4);
        // `scan_keys` is `scan_prefix` without the values.
        for prefix in [&b"s/1/"[..], b"s/", b"zzz", b""] {
            let mut keys = kv.scan_keys(prefix).unwrap();
            let mut pairs = kv.scan_prefix(prefix).unwrap();
            keys.sort();
            pairs.sort();
            assert_eq!(keys, pairs.into_iter().map(|(k, _)| k).collect::<Vec<_>>());
        }
    }

    /// `scan_keys_after` is the sorted `scan_keys` past a cursor, cut at
    /// its limit, for cursors between, on and inside keys — counting keys
    /// (one `LogKv` run) among the others.
    pub fn scan_keys_after(kv: &dyn KvStore) {
        let counted = |n: u64| [&b"p/"[..], &n.to_be_bytes()].concat();
        for n in (0..20).chain([300, u64::MAX]) {
            kv.put(&counted(n), b"v").unwrap();
        }
        for key in [
            &b"p"[..],
            b"p/",
            b"p/\x00",
            b"p/x",
            b"p/\xff\xff\xff\xff\xff\xff\xff\xff\x00",
        ] {
            kv.put(key, b"v").unwrap();
        }
        kv.put(b"q/", b"v").unwrap();
        let mut stored = kv.scan_keys(b"").unwrap();
        stored.sort();
        let mut cursors = vec![Vec::new(), b"q/0".to_vec()];
        for key in &stored {
            cursors.extend((0..=key.len()).map(|n| key[..n].to_vec()));
            cursors.push([&key[..], b"\x00"].concat());
        }
        let tails = [&b"p/"[..], &counted(0)[..7], &counted(300)[..9]];
        for prefix in [&b""[..], b"p", b"p/", b"q/"].into_iter().chain(tails) {
            for after in &cursors {
                let want: Vec<Vec<u8>> = (stored.iter())
                    .filter(|k| k.starts_with(prefix) && k.as_slice() > after.as_slice())
                    .cloned()
                    .collect();
                for limit in [0, 1, 3, usize::MAX] {
                    let got = kv.scan_keys_after(prefix, after, limit).unwrap();
                    assert_eq!(got, want[..limit.min(want.len())], "{prefix:?} {after:?}");
                }
            }
        }
    }

    pub fn binary_safety(kv: &dyn KvStore) {
        let key = [0u8, 255, 10, 13, 0];
        // Values on both sides of the 4 KiB a `LogKv` reads on the stack.
        for len in [1024, 10_000] {
            let val: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            kv.put(&key, &val).unwrap();
            assert_eq!(kv.get(&key).unwrap(), Some(val));
        }
    }

    pub fn empty_value(kv: &dyn KvStore) {
        kv.put(b"empty", b"").unwrap();
        assert_eq!(kv.get(b"empty").unwrap(), Some(Vec::new()));
    }
}
