//! Public-key substrate: the from-scratch P-256 arithmetic behind the
//! signatures and sealed grants that clients and the integrity layer run
//! on server-supplied bytes — ≈ 0.2 ms to seal a grant, ≈ 0.1 ms to open
//! one or sign an attestation, ≈ 0.13 ms to verify one
//! (`tests/grant_cost.rs`).
//!
//! | Module | Content |
//! |--------|---------|
//! | [`bn`] | Arbitrary-precision unsigned integers (add/sub/mul/div/shift): the form of scalars, coordinates and encodings at every boundary |
//! | [`p256`] | NIST P-256: four-limb Montgomery field and scalar arithmetic on the stack, Jacobian points, fixed 4-bit-window scalar multiplication, one inversion per operation |
//! | [`ecdsa`] | ECDSA over P-256 — producers sign attestations, consumers verify them (`timecrypt-integrity`) |
//! | [`ecies`] | ECIES hybrid encryption over P-256 — used by the client to seal grant blobs for principals (§3.2's "encrypted with the principal's public key") |
//!
//! The paper's strawman ciphers (Paillier, EC-ElGamal) are built on
//! [`bn`] and this curve but are evaluation-only: they live in
//! `timecrypt-bench`, with the heap-limb Montgomery context only they
//! need, and nothing in the product can reach them.

pub mod bn;
pub mod ecdsa;
pub mod ecies;
pub mod p256;

pub use bn::BigUint;
pub use ecdsa::{Signature, SigningKey, VerifyingKey};
