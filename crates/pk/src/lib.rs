//! Public-key substrate: the from-scratch P-256 arithmetic behind the
//! signatures and sealed grants that clients and the integrity layer run
//! on server-supplied bytes.
//!
//! | Module | Content |
//! |--------|---------|
//! | [`bn`] | Arbitrary-precision unsigned integers (add/sub/mul/div/shift) |
//! | [`mont`] | Montgomery multiplication & modular exponentiation (CIOS) |
//! | [`p256`] | NIST P-256 field/group arithmetic (Jacobian coordinates) |
//! | [`ecdsa`] | ECDSA over P-256 — producers sign attestations, consumers verify them (`timecrypt-integrity`) |
//! | [`ecies`] | ECIES hybrid encryption over P-256 — used by the client to seal grant blobs for principals (§3.2's "encrypted with the principal's public key") |
//!
//! The paper's strawman ciphers (Paillier, EC-ElGamal) are built on the
//! same arithmetic but are evaluation-only: they live in `timecrypt-bench`
//! and nothing in the product can reach them.

pub mod bn;
pub mod ecdsa;
pub mod ecies;
pub mod mont;
pub mod p256;

pub use bn::BigUint;
pub use ecdsa::{Signature, SigningKey, VerifyingKey};
