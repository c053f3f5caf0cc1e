//! From-scratch cryptographic primitives for TimeCrypt.
//!
//! TimeCrypt (NSDI 2020) relies on a small set of symmetric primitives:
//!
//! * **SHA-256** — one PRG instantiation for the key derivation tree
//!   (`G0(x) = H(0||x)`, `G1(x) = H(1||x)`, paper §4.2.3), the hash chains
//!   in dual key regression (§A.2) and chunk payload keys.
//! * **AES-128** — the other (and default, fastest) PRG instantiation
//!   (`G0(x) = AES_x(0)`, `G1(x) = AES_x(1)`), on AES-NI or in software.
//!   The paper's Fig. 6 compares exactly these three PRG choices.
//! * **AES-128-GCM** — randomized authenticated encryption for raw chunk
//!   payloads (§4.1: "data points per chunk are compressed and encrypted
//!   with AES-GCM-128").
//! * **Length-matching hash** (§A.1.5) — folds a 128-bit PRF output to the
//!   64-bit plaintext space without biasing the distribution.
//!
//! Everything here is implemented from scratch (no external crypto crates)
//! and validated against published test vectors (FIPS-197, NIST GCM,
//! RFC 6234). The software AES is table-free and byte-oriented, simple
//! and slow next to AES-NI, which reproduces Fig. 6's ordering (software
//! AES > SHA-256 > AES-NI); on a CPU with SHA extensions, which the
//! paper's did not have, a SHA-256 step costs about what an AES-NI one
//! does, so `fig6` labels its SHA-256 series with the backend that ran.
//!
//! One road leads to a primitive: [`backend`] detects the CPU once and
//! runs work written over its [`Backend`] trait — portable, or on AES-NI,
//! `pclmulqdq` and the SHA extensions — inside one `target_feature`
//! function per backend. Every keyed primitive is generic over it
//! (`gcm::seal_once`, `gcm::open_once`, [`Prg`], [`Sha256`]), and the tests
//! hold every backend the CPU has to the same vectors.
//!
//! # Security notes
//!
//! These primitives are written for a research reproduction. The software
//! AES path is not constant-time (table-free S-box lookups still index by
//! secret data); the AES-NI path is constant-time by construction. Do not
//! use the software path where timing side channels matter.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod aes;
pub mod backend;
pub mod ct;
pub mod gcm;
pub mod lmh;
pub mod prg;
pub mod rng;
pub mod sha256;

pub use backend::{Backend, Dispatch, Job};
pub use gcm::AesGcm128;
pub use lmh::fold_u64;
pub use prg::{Prg, PrgKind, Sha256Prg};
pub use rng::SecureRandom;
pub use sha256::{sha256, Sha256};

/// The security parameter in bytes: all tree nodes, seeds, and PRG states are
/// 128-bit values, matching the paper's 128-bit security evaluation setting.
pub const LAMBDA_BYTES: usize = 16;

/// A 128-bit pseudorandom node/seed value.
pub type Seed128 = [u8; 16];

#[cfg(test)]
mod tests {
    #[test]
    fn lambda_is_128_bits() {
        assert_eq!(super::LAMBDA_BYTES * 8, 128);
    }
}
