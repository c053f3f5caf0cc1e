//! The paper's *strawman*: a private time series store whose chunk digests
//! are encrypted with an additively homomorphic public-key scheme —
//! Paillier or EC-ElGamal — representing encrypted databases like
//! CryptDB/Talos (§6). Evaluation-only: reachable from nothing outside
//! this crate; EC-ElGamal runs on the product's `timecrypt-pk` curve.
//!
//! | Module | Content |
//! |--------|---------|
//! | [`bn`] | Arbitrary-precision unsigned integers (add/sub/mul/div/shift): Paillier's 2048–3072-bit numbers |
//! | [`mont`] | Heap-limb Montgomery multiplication & modular exponentiation (CIOS), any odd modulus |
//! | [`prime`] | Sieve + Miller-Rabin probable-prime generation |
//! | [`paillier`] | Paillier cryptosystem with `g = n+1` fast path; 3072-bit for the 128-bit setting of Table 2 |
//! | [`elgamal`] | Additively homomorphic EC-ElGamal (`m·G` encoding) with baby-step/giant-step decryption |
//! | [`abe`] | Cost model replaying the paper's measured ABE constants (§6.2: 53 ms/chunk grant, 13 ms/chunk decrypt) |
//! | [`column`](mod@column) | The strawmen's running-sum [`Column`]; [`RangeSums`], what the figure bins drive of it and of the product index |
//!
//! Both ciphertexts are [`Digest`]s. The product index stores HEAC words
//! only, so the strawmen keep their running sums in a [`Column`] of their
//! own: the same prefix-sum design (a range is two record reads and one
//! subtraction), so Table 2, Fig. 5 and Fig. 7 compare the encryption
//! schemes and not two index designs.

pub mod abe;
pub mod bn;
pub mod column;
pub mod elgamal;
pub mod mont;
pub mod paillier;
pub mod prime;

pub use column::{Column, Digest, RangeSums};
pub use elgamal::{EcElGamal, ElGamalCiphertext, ElGamalDigest};
pub use paillier::{Paillier, PaillierCiphertext, PaillierDigest};
