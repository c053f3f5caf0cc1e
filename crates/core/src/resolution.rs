//! Resolution-based access restriction (paper §4.4).
//!
//! Restricting a principal to r-fold aggregates works by *outer key sharing*
//! (§4.4.1): only the keys at chunk indices `0, r, 2r, …` are made available,
//! so in-range sums are decryptable exactly when both boundaries are aligned
//! to `r`. Because every r-th tree leaf is not a contiguous tree segment, the
//! tree cannot share them efficiently — instead the owner creates one
//! *resolution keystream* per granularity via dual key regression and stores
//! *envelopes* `env_m = AEAD_{k̄_m}(leaf_{r·m})` at the server (§4.4.2).
//! A principal holding the dual-KR token for `[m_lo, m_hi]` downloads the
//! envelopes, opens them, and gains precisely the boundary leaves for
//! aligned aggregates in that window — nothing finer.

use crate::dualkr::{DualKeyRegression, KrConsumer, KrToken};
use crate::error::CoreError;
use crate::heac::KeySource;
use crate::kdtree::TreeKd;
use std::collections::BTreeMap;
use timecrypt_crypto::{AesGcm128, Seed128};

/// A sealed boundary leaf stored at the server's key store. Opaque to the
/// server; openable only with the matching resolution keystream key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Envelope number `m`: wraps the tree leaf at chunk index `m · r`.
    pub index: u64,
    /// AES-GCM-sealed leaf (16-byte leaf + 16-byte tag).
    pub blob: Vec<u8>,
}

/// Deterministic per-envelope nonce. Each envelope key `k̄_m` is used for
/// exactly one seal, so a fixed-structure nonce is safe.
fn envelope_nonce(m: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[4..].copy_from_slice(&m.to_be_bytes());
    n
}

/// Owner-side state for one access resolution of one stream.
pub struct ResolutionOwner {
    /// Aggregation granularity in chunks (e.g. 6 for per-minute access over
    /// 10 s chunks, the paper's running example).
    resolution: u64,
    kr: DualKeyRegression,
}

impl ResolutionOwner {
    /// Creates a resolution keystream covering envelope indices
    /// `0..=max_envelopes` from two secret seeds.
    pub fn new(
        resolution: u64,
        primary_seed: [u8; 32],
        secondary_seed: [u8; 32],
        max_envelopes: u64,
    ) -> Result<Self, CoreError> {
        if resolution < 2 {
            return Err(CoreError::InvalidParams(
                "resolution must aggregate >= 2 chunks",
            ));
        }
        Ok(ResolutionOwner {
            resolution,
            kr: DualKeyRegression::new(primary_seed, secondary_seed, max_envelopes)?,
        })
    }

    /// The granularity in chunks.
    pub fn resolution(&self) -> u64 {
        self.resolution
    }

    /// Seals envelope `m`: the tree leaf at chunk `m · r` encrypted under
    /// `k̄_m`. The owner uploads these to the server key store as the stream
    /// grows.
    pub fn seal(&self, tree: &TreeKd, m: u64) -> Result<Envelope, CoreError> {
        let chunk = m
            .checked_mul(self.resolution)
            .ok_or(CoreError::InvalidParams("envelope index overflow"))?;
        let leaf = tree.leaf(chunk)?;
        let key = self.kr.key(m)?;
        let gcm = AesGcm128::new(&key);
        let blob = gcm.seal(&envelope_nonce(m), b"tc-envelope", &leaf);
        Ok(Envelope { index: m, blob })
    }

    /// Seals all envelopes whose boundary chunk falls in `[0, chunk_end]` —
    /// what a producer would have published once the stream reached
    /// `chunk_end`.
    pub fn seal_up_to(&self, tree: &TreeKd, chunk_end: u64) -> Result<Vec<Envelope>, CoreError> {
        let last = (chunk_end / self.resolution).min(self.kr.max_index());
        (0..=last).map(|m| self.seal(tree, m)).collect()
    }

    /// Shares the resolution keystream for envelope indices `[lo, hi]`
    /// (inclusive): the token a principal needs to open those envelopes.
    pub fn share(&self, lo: u64, hi: u64) -> Result<KrToken, CoreError> {
        self.kr.share(lo, hi)
    }

    /// Shares by *chunk range*: the principal gets the envelopes covering
    /// aligned boundaries within chunk range `[chunk_lo, chunk_hi]`.
    pub fn share_chunks(&self, chunk_lo: u64, chunk_hi: u64) -> Result<KrToken, CoreError> {
        let lo = chunk_lo.div_ceil(self.resolution);
        let hi = chunk_hi / self.resolution;
        if lo > hi {
            return Err(CoreError::InvalidParams(
                "chunk range contains no aligned boundary",
            ));
        }
        self.kr.share(lo, hi)
    }
}

/// Consumer-side state for resolution-restricted access: the dual-KR token
/// plus the boundary leaves recovered from opened envelopes.
///
/// Implements [`KeySource`], so [`crate::heac::decrypt_range_sum`] works
/// directly — it will succeed only for aligned boundaries whose envelopes
/// have been ingested, which is the paper's §4.4.1 guarantee realized in the
/// type system.
pub struct ResolutionConsumer {
    resolution: u64,
    kr: KrConsumer,
    leaves: BTreeMap<u64, Seed128>,
}

impl ResolutionConsumer {
    /// Wraps a received token for a given granularity.
    pub fn new(resolution: u64, token: KrToken) -> Self {
        ResolutionConsumer {
            resolution,
            kr: KrConsumer::new(token),
            leaves: BTreeMap::new(),
        }
    }

    /// Granularity in chunks.
    pub fn resolution(&self) -> u64 {
        self.resolution
    }

    /// Inclusive envelope-index window this consumer can open.
    pub fn window(&self) -> (u64, u64) {
        self.kr.interval()
    }

    /// Opens one downloaded envelope and caches the boundary leaf. Fails
    /// with [`CoreError::KrOutOfBounds`] outside the shared window and
    /// [`CoreError::EnvelopeCorrupt`] on tampering.
    pub fn ingest(&mut self, env: &Envelope) -> Result<(), CoreError> {
        let key = self.kr.key(env.index)?;
        let gcm = AesGcm128::new(&key);
        let plain = gcm
            .open(&envelope_nonce(env.index), b"tc-envelope", &env.blob)
            .map_err(|_| CoreError::EnvelopeCorrupt)?;
        if plain.len() != 16 {
            return Err(CoreError::EnvelopeCorrupt);
        }
        let mut leaf = [0u8; 16];
        leaf.copy_from_slice(&plain);
        self.leaves.insert(env.index, leaf);
        Ok(())
    }

    /// Bulk-opens envelopes, skipping ones outside the window. Returns how
    /// many were ingested.
    pub fn ingest_all<'a>(
        &mut self,
        envs: impl IntoIterator<Item = &'a Envelope>,
    ) -> Result<usize, CoreError> {
        let mut n = 0;
        for e in envs {
            match self.ingest(e) {
                Ok(()) => n += 1,
                Err(CoreError::KrOutOfBounds { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
        Ok(n)
    }

    /// Extends an open-ended subscription with a newer primary state.
    pub fn extend(&mut self, newer_upper: crate::dualkr::KrState) -> Result<(), CoreError> {
        self.kr.extend(newer_upper)
    }
}

impl KeySource for ResolutionConsumer {
    fn leaf(&self, chunk: u64) -> Result<Seed128, CoreError> {
        if !chunk.is_multiple_of(self.resolution) {
            return Err(CoreError::UnalignedResolution {
                resolution: self.resolution,
                index: chunk,
            });
        }
        let m = chunk / self.resolution;
        self.leaves
            .get(&m)
            .copied()
            .ok_or(CoreError::OutOfScope { index: chunk })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heac::{add_assign, decrypt_range_sum, HeacEncryptor};
    use timecrypt_crypto::PrgKind;

    fn setup() -> (TreeKd, ResolutionOwner) {
        let tree = TreeKd::new([5u8; 16], 16, PrgKind::Aes).unwrap();
        let owner = ResolutionOwner::new(6, [1u8; 32], [2u8; 32], 1024).unwrap();
        (tree, owner)
    }

    #[test]
    fn rejects_trivial_resolution() {
        assert!(ResolutionOwner::new(1, [0u8; 32], [0u8; 32], 10).is_err());
        assert!(ResolutionOwner::new(0, [0u8; 32], [0u8; 32], 10).is_err());
    }

    #[test]
    fn envelope_roundtrip() {
        let (tree, owner) = setup();
        let env = owner.seal(&tree, 3).unwrap();
        let mut consumer = ResolutionConsumer::new(6, owner.share(0, 10).unwrap());
        consumer.ingest(&env).unwrap();
        // Chunk 18 = envelope 3 × resolution 6.
        assert_eq!(consumer.leaf(18).unwrap(), tree.leaf(18).unwrap());
    }

    #[test]
    fn tampered_envelope_rejected() {
        let (tree, owner) = setup();
        let mut env = owner.seal(&tree, 2).unwrap();
        env.blob[0] ^= 1;
        let mut consumer = ResolutionConsumer::new(6, owner.share(0, 10).unwrap());
        assert_eq!(consumer.ingest(&env), Err(CoreError::EnvelopeCorrupt));
    }

    #[test]
    fn out_of_window_envelope_rejected() {
        let (tree, owner) = setup();
        let env = owner.seal(&tree, 50).unwrap();
        let mut consumer = ResolutionConsumer::new(6, owner.share(0, 10).unwrap());
        assert!(matches!(
            consumer.ingest(&env),
            Err(CoreError::KrOutOfBounds { .. })
        ));
    }

    #[test]
    fn unaligned_access_rejected() {
        let (tree, owner) = setup();
        let mut consumer = ResolutionConsumer::new(6, owner.share(0, 10).unwrap());
        consumer.ingest(&owner.seal(&tree, 0).unwrap()).unwrap();
        assert!(matches!(
            consumer.leaf(3),
            Err(CoreError::UnalignedResolution {
                resolution: 6,
                index: 3
            })
        ));
    }

    #[test]
    fn six_fold_aggregate_decryption_exactly_as_paper() {
        // §4.4.1's example: access restricted to 6-fold aggregations.
        let (tree, owner) = setup();
        let enc = HeacEncryptor::new(&tree);
        // 18 chunks, each with digest [sum].
        let values: Vec<u64> = (0..18u64).map(|i| 10 + i).collect();
        let cts: Vec<Vec<u64>> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| enc.encrypt_digest(i as u64, &[v]).unwrap())
            .collect();
        let mut consumer = ResolutionConsumer::new(6, owner.share(0, 3).unwrap());
        consumer
            .ingest_all(&owner.seal_up_to(&tree, 18).unwrap())
            .unwrap();
        // Aligned 6-fold windows decrypt.
        for start in [0u64, 6] {
            let mut agg = vec![0u64];
            for ct in &cts[start as usize..(start + 6) as usize] {
                add_assign(&mut agg, ct);
            }
            let dec = decrypt_range_sum(&consumer, start, start + 6, &agg).unwrap();
            assert_eq!(
                dec[0],
                values[start as usize..(start + 6) as usize]
                    .iter()
                    .sum::<u64>()
            );
        }
        // 12-fold (lower resolution) also decrypts: boundaries still aligned.
        let mut agg = vec![0u64];
        for ct in &cts[0..12] {
            add_assign(&mut agg, ct);
        }
        assert_eq!(
            decrypt_range_sum(&consumer, 0, 12, &agg).unwrap()[0],
            values[0..12].iter().sum::<u64>()
        );
        // Higher resolution (single chunk) is cryptographically impossible.
        assert!(decrypt_range_sum(&consumer, 0, 1, &cts[0]).is_err());
        // Shifted 6-fold window (chunks 3..9) is rejected — otherwise one
        // could difference two shifted aggregates to recover chunk data.
        let mut agg = vec![0u64];
        for ct in &cts[3..9] {
            add_assign(&mut agg, ct);
        }
        assert!(matches!(
            decrypt_range_sum(&consumer, 3, 9, &agg),
            Err(CoreError::UnalignedResolution { .. })
        ));
    }

    #[test]
    fn share_chunks_alignment() {
        let (_tree, owner) = setup();
        // Chunks [7, 30] with r=6 → boundaries at 12, 18, 24, 30 → envelopes 2..=5.
        let token = owner.share_chunks(7, 30).unwrap();
        assert_eq!((token.lower.index, token.upper.index), (2, 5));
        // A range with no aligned boundary fails.
        assert!(owner.share_chunks(7, 11).is_err());
    }

    #[test]
    fn two_consumers_different_windows() {
        let (tree, owner) = setup();
        let envs = owner.seal_up_to(&tree, 120).unwrap();
        let mut early = ResolutionConsumer::new(6, owner.share(0, 5).unwrap());
        let mut late = ResolutionConsumer::new(6, owner.share(10, 20).unwrap());
        assert_eq!(early.ingest_all(&envs).unwrap(), 6);
        assert_eq!(late.ingest_all(&envs).unwrap(), 11);
        assert!(early.leaf(0).is_ok());
        assert!(early.leaf(60).is_err()); // envelope 10: outside early window
        assert!(late.leaf(60).is_ok());
        assert!(late.leaf(0).is_err());
    }

    #[test]
    fn subscription_extension() {
        let (tree, owner) = setup();
        let envs = owner.seal_up_to(&tree, 200).unwrap();
        let mut c = ResolutionConsumer::new(6, owner.share(0, 5).unwrap());
        c.ingest_all(&envs).unwrap();
        assert!(c.leaf(60).is_err());
        // Owner extends the subscription (GrantOpenAccess semantics).
        c.extend(owner.share(0, 30).unwrap().upper).unwrap();
        c.ingest_all(&envs).unwrap();
        assert_eq!(c.leaf(60).unwrap(), tree.leaf(60).unwrap());
    }
}
