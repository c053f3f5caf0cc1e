//! Per-stream key material and the time-encoded keystream (paper §4.3).
//!
//! Each stream has one key-derivation tree; chunk `i` (the interval
//! `[t0 + i·Δ, t0 + (i+1)·Δ)`) consumes keystream position `i`. Because the
//! mapping from time to key position is implicit, ciphertexts carry **no key
//! identifiers** — zero ciphertext expansion, unlike e.g. Seabed (§4.3).
//!
//! The raw chunk payload key is derived from the same boundary leaves the
//! digest uses (`H(k_i − k_{i+1})` in the paper's notation): a principal who
//! can decrypt the per-chunk digest can also open the chunk payload, and
//! nobody else can.

use crate::error::CoreError;
use crate::heac::KeySource;
use crate::kdtree::TreeKd;
use timecrypt_crypto::sha256::sha256;
use timecrypt_crypto::{PrgKind, Seed128};

/// Derives the AES-GCM key for chunk `i`'s raw payload from any key source
/// that covers leaves `i` and `i+1`:
/// `key = trunc128(H(leaf_i || leaf_{i+1} || "tc-payload"))`.
pub fn payload_key<K: KeySource>(keys: &K, chunk: u64) -> Result<[u8; 16], CoreError> {
    let l0 = keys.leaf(chunk)?;
    let l1 = keys.leaf(chunk + 1)?;
    Ok(payload_key_from_leaves(&l0, &l1))
}

/// [`payload_key`] when the caller already holds the boundary leaves.
///
/// Sequential chunk sealing derives leaves `i` and `i+1` once for the
/// digest encryption; this entry point lets it reuse them for the payload
/// key instead of walking the derivation tree a second time per chunk.
pub fn payload_key_from_leaves(l0: &Seed128, l1: &Seed128) -> [u8; 16] {
    // 42 bytes: one block, absorbed in one piece.
    let mut msg = [0u8; 42];
    msg[..16].copy_from_slice(l0);
    msg[16..32].copy_from_slice(l1);
    msg[32..].copy_from_slice(b"tc-payload");
    let d = sha256(&msg);
    let mut k = [0u8; 16];
    k.copy_from_slice(&d[..16]);
    k
}

/// The complete owner-side secret material for one stream.
///
/// Everything else (tokens, envelopes, resolution keystreams) is derived
/// from this. Producers receive a copy (or the tree root); the server never
/// sees it.
#[derive(Clone)]
pub struct StreamKeyMaterial {
    /// Stream identifier the material belongs to.
    pub stream_id: u128,
    /// The key-derivation tree.
    pub tree: TreeKd,
}

impl StreamKeyMaterial {
    /// Creates key material from a root seed. Default tree height 30
    /// (one billion keys — the paper's evaluation setting).
    pub fn new(stream_id: u128, root: Seed128) -> Result<Self, CoreError> {
        Self::with_params(stream_id, root, 30, PrgKind::Aes)
    }

    /// Full-control constructor.
    pub fn with_params(
        stream_id: u128,
        root: Seed128,
        height: u8,
        prg: PrgKind,
    ) -> Result<Self, CoreError> {
        Ok(StreamKeyMaterial {
            stream_id,
            tree: TreeKd::new(root, height, prg)?,
        })
    }

    /// The AES-GCM payload key for chunk `i`.
    pub fn payload_key(&self, chunk: u64) -> Result<[u8; 16], CoreError> {
        payload_key(&self.tree, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_keys_differ_per_chunk() {
        let m = StreamKeyMaterial::with_params(1, [9u8; 16], 10, PrgKind::Aes).unwrap();
        let k0 = m.payload_key(0).unwrap();
        let k1 = m.payload_key(1).unwrap();
        assert_ne!(k0, k1);
        assert_eq!(k0, m.payload_key(0).unwrap());
    }

    #[test]
    fn consumer_with_tokens_derives_same_payload_key() {
        let m = StreamKeyMaterial::with_params(1, [9u8; 16], 10, PrgKind::Aes).unwrap();
        let ts = m.tree.token_set(4, 9).unwrap();
        assert_eq!(payload_key(&ts, 5).unwrap(), m.payload_key(5).unwrap());
        // Chunk 9 needs leaf 10, outside the grant.
        assert!(payload_key(&ts, 9).is_err());
    }

    #[test]
    fn default_height_is_one_billion_keys() {
        let m = StreamKeyMaterial::new(7, [0u8; 16]).unwrap();
        assert_eq!(m.tree.num_leaves(), 1 << 30);
    }
}
