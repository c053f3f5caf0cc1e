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
use timecrypt_crypto::backend::Backend;
use timecrypt_crypto::sha256::{sha256, sha256_short};
use timecrypt_crypto::{PrgKind, Seed128};

/// Derives the AES-GCM key for chunk `i`'s raw payload from any key source
/// that covers leaves `i` and `i+1`:
/// `key = trunc128(H(leaf_i || leaf_{i+1} || "tc-payload"))`.
pub fn payload_key<K: KeySource>(keys: &K, chunk: u64) -> Result<[u8; 16], CoreError> {
    let (l0, l1) = keys.boundary_leaves(chunk)?;
    Ok(payload_key_from_leaves(&l0, &l1))
}

/// [`payload_key`] when the caller already holds the boundary leaves.
///
/// Sequential chunk sealing derives leaves `i` and `i+1` once for the
/// digest encryption; this entry point lets it reuse them for the payload
/// key instead of walking the derivation tree a second time per chunk.
pub fn payload_key_from_leaves(l0: &Seed128, l1: &Seed128) -> [u8; 16] {
    truncate(sha256(&payload_key_message(l0, l1)))
}

/// [`payload_key_from_leaves`] on backend `b`: the message is one SHA-256
/// block once padded, so this is one compression.
#[inline(always)]
pub fn payload_key_with<B: Backend>(b: B, l0: &Seed128, l1: &Seed128) -> [u8; 16] {
    truncate(sha256_short(b, &payload_key_message(l0, l1)))
}

#[inline(always)]
fn payload_key_message(l0: &Seed128, l1: &Seed128) -> [u8; 42] {
    let mut msg = [0u8; 42];
    msg[..16].copy_from_slice(l0);
    msg[16..32].copy_from_slice(l1);
    msg[32..].copy_from_slice(b"tc-payload");
    msg
}

#[inline(always)]
fn truncate(digest: [u8; 32]) -> [u8; 16] {
    let mut k = [0u8; 16];
    k.copy_from_slice(&digest[..16]);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_keys_differ_per_chunk() {
        let m = StreamKeyMaterial::with_params(1, [9u8; 16], 10, PrgKind::Aes).unwrap();
        let k0 = payload_key(&m.tree, 0).unwrap();
        let k1 = payload_key(&m.tree, 1).unwrap();
        assert_ne!(k0, k1);
        assert_eq!(k0, payload_key(&m.tree, 0).unwrap());
    }

    #[test]
    fn consumer_with_tokens_derives_same_payload_key() {
        let m = StreamKeyMaterial::with_params(1, [9u8; 16], 10, PrgKind::Aes).unwrap();
        let ts = m.tree.token_set(4, 9).unwrap();
        assert_eq!(
            payload_key(&ts, 5).unwrap(),
            payload_key(&m.tree, 5).unwrap()
        );
        // Chunk 9 needs leaf 10, outside the grant.
        assert!(payload_key(&ts, 9).is_err());
    }

    #[test]
    fn default_height_is_one_billion_keys() {
        let m = StreamKeyMaterial::new(7, [0u8; 16]).unwrap();
        assert_eq!(m.tree.num_leaves(), 1 << 30);
    }
}
