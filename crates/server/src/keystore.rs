//! Server-side key store: opaque grant blobs and resolution envelopes.
//!
//! "Access tokens are encrypted with the principal's public key (hybrid
//! encryption) and stored at the server's key-store" (§3.2). The server
//! treats all of this as bytes; it cannot open grants or envelopes.

use timecrypt_index::keys;
use timecrypt_store::{KvStore, StoreError, WriteOp};

/// Key-store facade over the shared KV.
pub struct KeyStore<'a> {
    kv: &'a dyn KvStore,
}

impl<'a> KeyStore<'a> {
    /// Wraps the server's KV store.
    pub fn new(kv: &'a dyn KvStore) -> Self {
        KeyStore { kv }
    }

    /// Appends a grant blob for `(stream, principal)`. Grants accumulate;
    /// each carries its own scope inside the sealed bytes.
    pub fn put_grant(&self, stream: u128, principal: &str, blob: &[u8]) -> Result<(), StoreError> {
        let seq = self
            .kv
            .scan_keys(&keys::grant_prefix(stream, principal))?
            .len();
        self.kv
            .put(&keys::grant(stream, principal, seq as u64), blob)
    }

    /// All grant blobs for `(stream, principal)` in insertion order.
    pub fn get_grants(&self, stream: u128, principal: &str) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut hits = self
            .kv
            .scan_prefix(&keys::grant_prefix(stream, principal))?;
        hits.sort();
        Ok(hits.into_iter().map(|(_, v)| v).collect())
    }

    /// Drops a principal's grant blobs (revocation bookkeeping; the
    /// cryptographic revocation is the owner ceasing to extend tokens —
    /// already-downloaded old-data keys remain usable, §3.3).
    /// One batch: a store fault leaves every grant in place.
    pub fn revoke_grants(&self, stream: u128, principal: &str) -> Result<usize, StoreError> {
        let hits = self.kv.scan_keys(&keys::grant_prefix(stream, principal))?;
        let ops: Vec<WriteOp<'_>> = hits.iter().map(|key| WriteOp::Delete { key }).collect();
        self.kv.write_batch(&ops)?;
        Ok(hits.len())
    }

    /// Stores resolution envelopes, as one batch: all of them or, on a
    /// store fault, none.
    pub fn put_envelopes(
        &self,
        stream: u128,
        resolution: u64,
        envelopes: &[(u64, Vec<u8>)],
    ) -> Result<(), StoreError> {
        let keys: Vec<Vec<u8>> = envelopes
            .iter()
            .map(|(index, _)| keys::envelope(stream, resolution, *index))
            .collect();
        let ops: Vec<WriteOp<'_>> = keys
            .iter()
            .zip(envelopes)
            .map(|(key, (_, value))| WriteOp::Put { key, value })
            .collect();
        self.kv.write_batch(&ops)
    }

    /// Fetches the envelopes held with an index in `lo..=hi`, ascending.
    /// The window comes from the client, so it is answered from the keys
    /// stored under `(stream, resolution)`: the cost is bounded by the
    /// envelopes held, not by `hi - lo`.
    pub fn get_envelopes(
        &self,
        stream: u128,
        resolution: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        let prefix = keys::envelope_prefix(stream, resolution);
        let mut held: Vec<u64> = self
            .kv
            .scan_keys(&prefix)?
            .iter()
            .filter_map(|key| key.strip_prefix(prefix.as_slice())?.try_into().ok())
            .map(u64::from_be_bytes)
            .filter(|index| (lo..=hi).contains(index))
            .collect();
        held.sort_unstable();
        let mut out = Vec::with_capacity(held.len());
        for index in held {
            if let Some(blob) = self.kv.get(&keys::envelope(stream, resolution, index))? {
                out.push((index, blob));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_store::MemKv;

    #[test]
    fn grants_accumulate_in_order() {
        let kv = MemKv::new();
        let ks = KeyStore::new(&kv);
        ks.put_grant(1, "alice", b"g0").unwrap();
        ks.put_grant(1, "alice", b"g1").unwrap();
        ks.put_grant(1, "bob", b"h0").unwrap();
        assert_eq!(
            ks.get_grants(1, "alice").unwrap(),
            vec![b"g0".to_vec(), b"g1".to_vec()]
        );
        assert_eq!(ks.get_grants(1, "bob").unwrap(), vec![b"h0".to_vec()]);
        assert_eq!(ks.get_grants(2, "alice").unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn revocation_clears_grants() {
        let kv = MemKv::new();
        let ks = KeyStore::new(&kv);
        ks.put_grant(1, "alice", b"g0").unwrap();
        ks.put_grant(1, "alice", b"g1").unwrap();
        assert_eq!(ks.revoke_grants(1, "alice").unwrap(), 2);
        assert!(ks.get_grants(1, "alice").unwrap().is_empty());
    }

    #[test]
    fn envelope_window_fetch() {
        let kv = MemKv::new();
        let ks = KeyStore::new(&kv);
        let envs: Vec<(u64, Vec<u8>)> = (0..10u64).map(|i| (i, vec![i as u8])).collect();
        ks.put_envelopes(1, 6, &envs).unwrap();
        let got = ks.get_envelopes(1, 6, 3, 7).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], (3, vec![3u8]));
        // Different resolution is a different namespace.
        assert!(ks.get_envelopes(1, 12, 0, 9).unwrap().is_empty());
    }

    /// A client may ask for every index there is. The walk-the-window
    /// version of `get_envelopes` never came back from this; the watchdog
    /// turns that into a failure and not a hung test run.
    #[test]
    fn full_range_window_returns_the_stored_envelopes_promptly() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let kv = MemKv::new();
            let ks = KeyStore::new(&kv);
            let envs = vec![(0, vec![1]), (7, vec![]), (u64::MAX, vec![2, 3])];
            ks.put_envelopes(1, 6, &envs).unwrap();
            // Neighbouring namespaces that must not leak into the reply.
            ks.put_envelopes(1, 7, &[(7, vec![9])]).unwrap();
            ks.put_envelopes(2, 6, &[(7, vec![9])]).unwrap();
            let all = ks.get_envelopes(1, 6, 0, u64::MAX).unwrap();
            let upper = ks.get_envelopes(1, 6, 1, u64::MAX).unwrap();
            let empty = ks.get_envelopes(1, 6, 8, u64::MAX - 1).unwrap();
            done.send((all == envs, upper == envs[1..], empty.is_empty()))
                .unwrap();
        });
        let verdict = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("GetEnvelopes over the full index range must not walk 2^64 keys");
        assert_eq!(verdict, (true, true, true));
    }
}
