//! Server-side key store: opaque grant blobs and resolution envelopes.
//!
//! "Access tokens are encrypted with the principal's public key (hybrid
//! encryption) and stored at the server's key-store" (§3.2). The server
//! treats all of this as bytes; it cannot open grants or envelopes.

use timecrypt_store::{KvStore, StoreError};

/// Key-store facade over the shared KV.
pub struct KeyStore<'a> {
    kv: &'a dyn KvStore,
}

impl<'a> KeyStore<'a> {
    /// Wraps the server's KV store.
    pub fn new(kv: &'a dyn KvStore) -> Self {
        KeyStore { kv }
    }

    fn grant_prefix(stream: u128, principal: &str) -> Vec<u8> {
        let mut k = Vec::with_capacity(24 + principal.len());
        k.extend_from_slice(b"g/");
        k.extend_from_slice(&stream.to_be_bytes());
        k.push(b'/');
        k.extend_from_slice(principal.as_bytes());
        k.push(b'/');
        k
    }

    /// Appends a grant blob for `(stream, principal)`. Grants accumulate;
    /// each carries its own scope inside the sealed bytes.
    pub fn put_grant(&self, stream: u128, principal: &str, blob: &[u8]) -> Result<(), StoreError> {
        let prefix = Self::grant_prefix(stream, principal);
        let seq = self.kv.scan_keys(&prefix)?.len() as u64;
        let mut key = prefix;
        key.extend_from_slice(&seq.to_be_bytes());
        self.kv.put(&key, blob)
    }

    /// All grant blobs for `(stream, principal)` in insertion order.
    pub fn get_grants(&self, stream: u128, principal: &str) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut hits = self
            .kv
            .scan_prefix(&Self::grant_prefix(stream, principal))?;
        hits.sort();
        Ok(hits.into_iter().map(|(_, v)| v).collect())
    }

    /// Drops a principal's grant blobs (revocation bookkeeping; the
    /// cryptographic revocation is the owner ceasing to extend tokens —
    /// already-downloaded old-data keys remain usable, §3.3).
    pub fn revoke_grants(&self, stream: u128, principal: &str) -> Result<usize, StoreError> {
        let hits = self.kv.scan_keys(&Self::grant_prefix(stream, principal))?;
        let n = hits.len();
        for k in hits {
            self.kv.delete(&k)?;
        }
        Ok(n)
    }

    fn env_key(stream: u128, resolution: u64, index: u64) -> Vec<u8> {
        let mut k = Vec::with_capacity(36);
        k.extend_from_slice(b"e/");
        k.extend_from_slice(&stream.to_be_bytes());
        k.push(b'/');
        k.extend_from_slice(&resolution.to_be_bytes());
        k.push(b'/');
        k.extend_from_slice(&index.to_be_bytes());
        k
    }

    /// Stores resolution envelopes.
    pub fn put_envelopes(
        &self,
        stream: u128,
        resolution: u64,
        envelopes: &[(u64, Vec<u8>)],
    ) -> Result<(), StoreError> {
        for (index, blob) in envelopes {
            self.kv
                .put(&Self::env_key(stream, resolution, *index), blob)?;
        }
        Ok(())
    }

    /// Fetches envelopes `lo..=hi` (missing indices are skipped).
    pub fn get_envelopes(
        &self,
        stream: u128,
        resolution: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        let mut out = Vec::new();
        for i in lo..=hi {
            if let Some(v) = self.kv.get(&Self::env_key(stream, resolution, i))? {
                out.push((i, v));
            }
        }
        Ok(out)
    }

    /// The key of everything key-store-related for a stream, for the
    /// stream deletion's one batch.
    pub fn stream_keys(&self, stream: u128) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut keys = Vec::new();
        for prefix in [b"g/".as_slice(), b"e/".as_slice()] {
            let mut p = prefix.to_vec();
            p.extend_from_slice(&stream.to_be_bytes());
            keys.extend(self.kv.scan_keys(&p)?);
        }
        Ok(keys)
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

    #[test]
    fn stream_keys_cover_one_streams_material() {
        let kv = MemKv::new();
        let ks = KeyStore::new(&kv);
        ks.put_grant(1, "alice", b"g0").unwrap();
        ks.put_envelopes(1, 6, &[(0, vec![1])]).unwrap();
        ks.put_grant(2, "alice", b"other").unwrap();
        for key in ks.stream_keys(1).unwrap() {
            kv.delete(&key).unwrap();
        }
        assert!(ks.get_grants(1, "alice").unwrap().is_empty());
        assert!(ks.get_envelopes(1, 6, 0, 10).unwrap().is_empty());
        assert_eq!(ks.get_grants(2, "alice").unwrap().len(), 1);
    }
}
