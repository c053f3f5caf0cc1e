//! # HEAC — Homomorphic Encryption-based Access Control
//!
//! The primary contribution of *TimeCrypt* (NSDI 2020): a symmetric,
//! additively homomorphic encryption scheme for time series streams whose
//! key structure doubles as a cryptographic access-control mechanism.
//!
//! The pieces, mapped to the paper:
//!
//! | Module | Paper section | Content |
//! |--------|---------------|---------|
//! | [`kdtree`] | §4.2.3, §A.1.3 | GGM key-derivation tree (`TreeKD`), access tokens, canonical range covers, token-based derivation |
//! | [`heac`] | §4.2.1–§4.2.2, §A.1.2 | Castelluccia-style mod-2^64 encryption with key canceling (`k'_i = k_i − k_{i+1}`), digest-vector encryption, boundary-key decryption |
//! | [`dualkr`] | §4.4.2, §A.2 | Dual key regression: two hash chains giving bounded-interval key enumeration with O(√n) derivation via checkpoints |
//! | [`resolution`] | §4.4 | Outer-key envelopes: resolution keystreams encrypting boundary leaves so principals can decrypt only r-fold aggregates |
//! | [`keys`] | §4.3, §4.6 | Per-stream key material, time-encoded keystream mapping, payload-key derivation |
//!
//! ## The scheme in five lines
//!
//! Plaintexts live in `Z_{2^64}`. Chunk `i`'s digest element `j` is encrypted
//! as `c = m + k_{i,j} − k_{i+1,j} (mod 2^64)` where `k_{i,j}` is derived from
//! leaf `i` of a per-stream GGM tree. Server-side aggregation is plain
//! wrapping addition of ciphertexts. In an in-range sum over chunks `[a, b)`
//! every inner key telescopes away, so decryption needs exactly the two
//! boundary keys `k_{a,j}` and `k_{b,j}` — independent of the range length.
//! Sharing a time range means sharing the tree nodes (access tokens) covering
//! its leaves; sharing a *resolution* means enveloping only every r-th
//! boundary leaf under a dual-key-regression keystream.

pub mod dualkr;
pub mod error;
pub mod heac;
pub mod kdtree;
pub mod keys;
pub mod resolution;

pub use dualkr::{DualKeyRegression, KrState, KrToken};
pub use error::CoreError;
pub use heac::{
    decrypt_range_in_place, decrypt_range_sum, Ciphertext, DigestCursor, ElementKeys,
    HeacEncryptor, KeySource,
};
pub use kdtree::{AccessToken, LeafCursor, NodeLabel, TokenSet, TokenSource, TreeKd};
pub use keys::StreamKeyMaterial;
pub use resolution::{Envelope, ResolutionConsumer, ResolutionOwner};
