//! The paper's *strawman*: a private time series store whose chunk digests
//! are encrypted with an additively homomorphic public-key scheme —
//! Paillier or EC-ElGamal — representing encrypted databases like
//! CryptDB/Talos (§6). Evaluation-only: built on the product's
//! `timecrypt-pk` arithmetic, reachable from nothing outside this crate.
//!
//! | Module | Content |
//! |--------|---------|
//! | [`mont`] | Heap-limb Montgomery multiplication & modular exponentiation (CIOS), any odd modulus |
//! | [`prime`] | Sieve + Miller-Rabin probable-prime generation |
//! | [`paillier`] | Paillier cryptosystem with `g = n+1` fast path; 3072-bit for the 128-bit setting of Table 2 |
//! | [`elgamal`] | Additively homomorphic EC-ElGamal (`m·G` encoding) with baby-step/giant-step decryption |
//! | [`abe`] | Cost model replaying the paper's measured ABE constants (§6.2: 53 ms/chunk grant, 13 ms/chunk decrypt) |
//!
//! Both ciphertexts implement [`timecrypt_index::HomDigest`], so the
//! *identical* aggregation-tree code runs over Paillier and EC-ElGamal
//! digests in the Table 2 / Fig. 5 / Fig. 7 benchmarks.

pub mod abe;
pub mod elgamal;
pub mod mont;
pub mod paillier;
pub mod prime;

pub use elgamal::{EcElGamal, ElGamalCiphertext, ElGamalDigest};
pub use paillier::{Paillier, PaillierCiphertext, PaillierDigest};
