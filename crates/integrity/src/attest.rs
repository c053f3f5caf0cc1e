//! Signed root attestations and the per-stream integrity ledger.
//!
//! The data owner (or producer, holding the owner's signing key) maintains
//! a [`StreamLedger`] mirroring what it uploads and periodically publishes a
//! [`RootAttestation`] — an ECDSA-signed `(stream, size, epoch, root)`
//! statement. The server maintains the same ledger from the chunks it
//! stores and serves [`RangeProof`]s against it. A consumer that trusts the
//! owner's verifying key gets completeness and correctness for every range
//! aggregate: [`verify_attested_range`] checks the attestation's stream and
//! signature, then the proof over the consumer's own window of a tree of
//! the attested size.

use crate::sumtree::{Hash, RangeProof, SumLeaf, SumTree, SumTreeError, VerifyError};
use timecrypt_crypto::{sha256, SecureRandom};
use timecrypt_pk::{Signature, SigningKey, VerifyingKey};

/// Domain prefix for attestation signatures (versioned).
const ATTEST_DOMAIN: &[u8] = b"timecrypt.root.v1";

/// Commitment to a sealed chunk: `SHA-256(chunk wire bytes)`.
pub fn chunk_commitment(chunk_bytes: &[u8]) -> Hash {
    sha256(chunk_bytes)
}

/// An owner-signed statement that stream `stream` contained exactly `size`
/// chunks with aggregation-tree root `root` at epoch `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootAttestation {
    /// Stream UUID.
    pub stream: u128,
    /// Number of chunks covered.
    pub size: u64,
    /// Monotonic attestation counter (consumers reject regressions).
    pub epoch: u64,
    /// [`SumTree`] root over the first `size` chunks.
    pub root: Hash,
    /// Owner's ECDSA signature over the above.
    pub sig: Signature,
}

fn attest_message(stream: u128, size: u64, epoch: u64, root: &Hash) -> Vec<u8> {
    let mut msg = Vec::with_capacity(ATTEST_DOMAIN.len() + 16 + 8 + 8 + 32);
    msg.extend_from_slice(ATTEST_DOMAIN);
    msg.extend_from_slice(&stream.to_le_bytes());
    msg.extend_from_slice(&size.to_le_bytes());
    msg.extend_from_slice(&epoch.to_le_bytes());
    msg.extend_from_slice(root);
    msg
}

impl RootAttestation {
    /// Checks the owner signature.
    pub fn verify(&self, key: &VerifyingKey) -> bool {
        key.verify(
            &attest_message(self.stream, self.size, self.epoch, &self.root),
            &self.sig,
        )
    }

    /// Serializes to `stream || size || epoch || root || sig` (128 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 8 + 8 + 32 + 64);
        out.extend_from_slice(&self.stream.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.root);
        out.extend_from_slice(&self.sig.encode());
        out
    }

    /// Parses [`encode`](Self::encode) output.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() != 128 {
            return None;
        }
        let stream = u128::from_le_bytes(buf[0..16].try_into().ok()?);
        let size = u64::from_le_bytes(buf[16..24].try_into().ok()?);
        let epoch = u64::from_le_bytes(buf[24..32].try_into().ok()?);
        let root: Hash = buf[32..64].try_into().ok()?;
        let sig = Signature::decode(&buf[64..128])?;
        Some(RootAttestation {
            stream,
            size,
            epoch,
            root,
            sig,
        })
    }
}

/// Per-stream authenticated ledger: the [`SumTree`] plus attestation state.
///
/// Both sides run one — the owner/producer as the source of truth it signs,
/// the server as the structure it proves against.
#[derive(Debug)]
pub struct StreamLedger {
    stream: u128,
    tree: SumTree,
    next_epoch: u64,
}

impl StreamLedger {
    /// Empty ledger for `stream`.
    pub fn new(stream: u128) -> Self {
        StreamLedger {
            stream,
            tree: SumTree::new(),
            next_epoch: 0,
        }
    }

    /// The stream this ledger covers.
    pub fn stream(&self) -> u128 {
        self.stream
    }

    /// Chunks appended so far.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Appends chunk `commitment` with its HEAC digest ciphertext.
    pub fn append(&mut self, commitment: Hash, digest_sum: Vec<u64>) -> Result<(), SumTreeError> {
        self.tree.push(SumLeaf {
            commitment,
            sum: digest_sum,
        })
    }

    /// Current tree root.
    pub fn root(&self) -> Hash {
        self.tree.root()
    }

    /// Signs the current state; epochs increase monotonically.
    pub fn attest(&mut self, key: &SigningKey, rng: &mut SecureRandom) -> RootAttestation {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let size = self.tree.len() as u64;
        let root = self.tree.root();
        let sig = key.sign(&attest_message(self.stream, size, epoch, &root), rng);
        RootAttestation {
            stream: self.stream,
            size,
            epoch,
            root,
            sig,
        }
    }

    /// Server side: proof that chunks `[lo, hi)` sum to the returned
    /// aggregate under the attestation covering `attested_size` chunks;
    /// `open` exposes every chunk commitment of the window (for verified raw
    /// retrieval — [`RangeProof::verify_open`]).
    pub fn prove_range(
        &self,
        lo: usize,
        hi: usize,
        attested_size: usize,
        open: bool,
    ) -> Result<RangeProof, SumTreeError> {
        self.tree.range_proof(lo, hi, attested_size, open)
    }
}

/// Failures from [`verify_attested_range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestError {
    /// The attestation signature is invalid for the given key.
    BadSignature,
    /// The attestation covers a different stream than expected.
    StreamMismatch,
    /// The embedded range proof failed.
    Proof(VerifyError),
}

impl std::fmt::Display for AttestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestError::BadSignature => write!(f, "invalid attestation signature"),
            AttestError::StreamMismatch => write!(f, "attestation covers a different stream"),
            AttestError::Proof(e) => write!(f, "range proof invalid: {e}"),
        }
    }
}

impl std::error::Error for AttestError {}

/// What both verifications check first: the attestation covers `stream`
/// and carries the owner's signature. Its size is the proof's tree size.
fn check_binding(
    stream: u128,
    attestation: &RootAttestation,
    owner_key: &VerifyingKey,
) -> Result<(), AttestError> {
    if attestation.stream != stream {
        return Err(AttestError::StreamMismatch);
    }
    if !attestation.verify(owner_key) {
        return Err(AttestError::BadSignature);
    }
    Ok(())
}

/// Consumer side: checks the attestation and the proof of chunks `[lo, hi)`
/// of a tree of the attested size, and returns the window's authenticated
/// digest sum.
pub fn verify_attested_range(
    stream: u128,
    attestation: &RootAttestation,
    owner_key: &VerifyingKey,
    proof: &RangeProof,
    lo: usize,
    hi: usize,
) -> Result<Vec<u64>, AttestError> {
    check_binding(stream, attestation, owner_key)?;
    let (root, n) = (&attestation.root, attestation.size as usize);
    proof.verify(root, n, lo, hi).map_err(AttestError::Proof)
}

/// Consumer side, open variant: checks the attestation and the open proof
/// of `[lo, hi)`, and returns each chunk's authenticated `(commitment,
/// digest)` — the basis for verified raw retrieval.
pub fn verify_attested_range_open(
    stream: u128,
    attestation: &RootAttestation,
    owner_key: &VerifyingKey,
    proof: &RangeProof,
    lo: usize,
    hi: usize,
) -> Result<Vec<SumLeaf>, AttestError> {
    check_binding(stream, attestation, owner_key)?;
    let (root, n) = (&attestation.root, attestation.size as usize);
    proof
        .verify_open(root, n, lo, hi)
        .map_err(AttestError::Proof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u64) -> (StreamLedger, StreamLedger, SigningKey, SecureRandom) {
        let mut rng = SecureRandom::from_seed_insecure(42);
        let key = SigningKey::generate(&mut rng);
        let mut owner = StreamLedger::new(9);
        let mut server = StreamLedger::new(9);
        for i in 0..n {
            let c = chunk_commitment(&i.to_le_bytes());
            let digest = vec![i * 3, i, 1];
            owner.append(c, digest.clone()).unwrap();
            server.append(c, digest).unwrap();
        }
        (owner, server, key, rng)
    }

    #[test]
    fn honest_flow_verifies_and_returns_sum() {
        let (mut owner, server, key, mut rng) = setup(12);
        let att = owner.attest(&key, &mut rng);
        let proof = server.prove_range(3, 9, att.size as usize, false).unwrap();
        let sum = verify_attested_range(9, &att, &key.verifying_key(), &proof, 3, 9).unwrap();
        let expect: u64 = (3..9).map(|i| i * 3).sum();
        assert_eq!(sum, vec![expect, (3..9).sum::<u64>(), 6]);
    }

    #[test]
    fn attestation_roundtrips_and_verifies() {
        let (mut owner, _, key, mut rng) = setup(5);
        let att = owner.attest(&key, &mut rng);
        let decoded = RootAttestation::decode(&att.encode()).unwrap();
        assert_eq!(decoded, att);
        assert!(decoded.verify(&key.verifying_key()));
        assert!(RootAttestation::decode(&att.encode()[..100]).is_none());
    }

    #[test]
    fn epochs_increase() {
        let (mut owner, _, key, mut rng) = setup(3);
        let a0 = owner.attest(&key, &mut rng);
        let a1 = owner.attest(&key, &mut rng);
        assert_eq!((a0.epoch, a1.epoch), (0, 1));
    }

    #[test]
    fn server_dropping_a_chunk_cannot_prove() {
        let (mut owner, _, key, mut rng) = setup(10);
        let att = owner.attest(&key, &mut rng);
        // Cheating server: skipped chunk 4.
        let mut cheat = StreamLedger::new(9);
        for i in 0..10u64 {
            if i != 4 {
                cheat
                    .append(chunk_commitment(&i.to_le_bytes()), vec![i * 3, i, 1])
                    .unwrap();
            }
        }
        // It cannot even produce a proof for the attested size (one short);
        // padding with a forged chunk still fails the root check.
        assert!(cheat.prove_range(0, 10, 10, false).is_err());
        cheat
            .append(chunk_commitment(b"forged"), vec![0, 0, 1])
            .unwrap();
        let forged = cheat.prove_range(0, 10, 10, false).unwrap();
        assert!(matches!(
            verify_attested_range(9, &att, &key.verifying_key(), &forged, 0, 10),
            Err(AttestError::Proof(_))
        ));
    }

    #[test]
    fn stale_proof_size_rejected() {
        let (mut owner, mut server, key, mut rng) = setup(8);
        let att = owner.attest(&key, &mut rng);
        // Server appends two more chunks, then proves against the larger
        // tree. The verifier reads the proof as a tree of the attested
        // size, 8, whatever size it was built for.
        for i in 8u64..10 {
            server
                .append(chunk_commitment(&i.to_le_bytes()), vec![i * 3, i, 1])
                .unwrap();
        }
        let vk = key.verifying_key();
        for (lo, hi) in [(0, 8), (0, 10), (2, 5)] {
            let proof = server.prove_range(lo, hi, 10, false).unwrap();
            let stale = verify_attested_range(9, &att, &vk, &proof, lo, hi);
            assert!(matches!(stale, Err(AttestError::Proof(_))), "{stale:?}");
        }
    }

    #[test]
    fn wrong_owner_key_rejected() {
        let (mut owner, server, key, mut rng) = setup(6);
        let att = owner.attest(&key, &mut rng);
        let proof = server.prove_range(0, 6, 6, false).unwrap();
        let other = SigningKey::generate(&mut rng);
        assert_eq!(
            verify_attested_range(9, &att, &other.verifying_key(), &proof, 0, 6),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn wrong_stream_rejected() {
        let (mut owner, server, key, mut rng) = setup(6);
        let att = owner.attest(&key, &mut rng);
        let proof = server.prove_range(0, 6, 6, false).unwrap();
        assert_eq!(
            verify_attested_range(10, &att, &key.verifying_key(), &proof, 0, 6),
            Err(AttestError::StreamMismatch)
        );
    }

    #[test]
    fn tampered_attestation_fields_rejected() {
        let (mut owner, _, key, mut rng) = setup(4);
        let att = owner.attest(&key, &mut rng);
        let vk = key.verifying_key();
        for f in 0..4 {
            let mut bad = att.clone();
            match f {
                0 => bad.stream ^= 1,
                1 => bad.size += 1,
                2 => bad.epoch += 1,
                _ => bad.root[0] ^= 1,
            }
            assert!(!bad.verify(&vk), "field {f}");
        }
    }
}
