//! # TimeCrypt integrity extension (Verena-style)
//!
//! The base TimeCrypt system provides confidentiality and cryptographic
//! access control but explicitly *"does not guarantee freshness,
//! completeness, nor correctness of the retrieved results"*, pointing to
//! Verena-style frameworks as the extension that would (paper §3.3). This
//! crate implements that extension for TimeCrypt's aggregation workload:
//!
//! | Module | Content |
//! |--------|---------|
//! | [`sumtree`] | Authenticated aggregation tree: every node binds child hashes **and** child HEAC digest sums, so an O(log n) [`RangeProof`] authenticates any range aggregate |
//! | [`attest`] | ECDSA-signed root attestations and the per-stream [`StreamLedger`] run by owner and server |
//!
//! ## Trust model
//!
//! The owner signs `(stream, size, epoch, root)` after uploading chunks.
//! The honest-but-curious (or now actively lying) server proves each range
//! aggregate against the signed root. Consumers verify with the owner's
//! public key: a server that drops, duplicates, reorders, tampers with, or
//! mis-sums chunks cannot produce a valid proof. The proven aggregate is
//! still an HEAC ciphertext — integrity verification composes with, and is
//! independent of, decryption rights.
//!
//! ```
//! use timecrypt_integrity::{chunk_commitment, verify_attested_range, StreamLedger};
//! use timecrypt_pk::SigningKey;
//! use timecrypt_crypto::SecureRandom;
//!
//! let mut rng = SecureRandom::from_seed_insecure(1);
//! let owner_key = SigningKey::generate(&mut rng);
//! let (mut owner, mut server) = (StreamLedger::new(7), StreamLedger::new(7));
//! for i in 0..10u64 {
//!     let c = chunk_commitment(&i.to_le_bytes());
//!     owner.append(c, vec![i, 1]).unwrap();    // producer mirrors uploads
//!     server.append(c, vec![i, 1]).unwrap();   // server ingests them
//! }
//! let att = owner.attest(&owner_key, &mut rng);
//! let proof = server.prove_range(2, 8, att.size as usize).unwrap();
//! let sum = verify_attested_range(7, &att, &owner_key.verifying_key(), &proof).unwrap();
//! assert_eq!(sum, vec![(2..8).sum::<u64>(), 6]);
//! ```

pub mod attest;
pub mod sumtree;

pub use attest::{
    chunk_commitment, verify_attested_range, verify_attested_range_open, AttestError,
    RootAttestation, StreamLedger,
};
pub use sumtree::{Hash, ProofNode, RangeProof, SumLeaf, SumTree, SumTreeError, VerifyError};
