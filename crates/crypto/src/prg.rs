//! Pseudorandom generators for the key derivation tree.
//!
//! The paper (§4.2.3) instantiates the tree PRG `G(x) = G0(x) || G1(x)`
//! either with a hash function (`G0(x) = H(0||x)`, `G1(x) = H(1||x)`) or a
//! block cipher (`G0(x) = B_x(0)`, `G1(x) = B_x(1)` with `x` as the key),
//! and Fig. 6 compares software AES, SHA-256, and AES-NI — concluding AES-NI
//! is the best candidate. [`PrgKind`] names the three as data (a tree's
//! configuration, a grant's wire byte); each step runs on the backend of
//! the job that takes it, software AES always on [`Portable`].

use crate::backend::{Backend, Portable};
use crate::sha256::sha256_short;
use crate::Seed128;

/// A length-doubling PRG `{0,1}^128 -> {0,1}^256`, exposed as the two halves
/// `G0` and `G1` used as left/right children in the GGM tree.
pub trait Prg {
    /// Derives one child on backend `b`: `bit = false` gives `G0(x)`,
    /// `bit = true` gives `G1(x)`.
    fn child<B: Backend>(&self, b: B, x: &Seed128, bit: bool) -> Seed128;
}

/// SHA-256 based PRG: `G0(x) = trunc128(H(0 || x))`, `G1(x) = trunc128(H(1 || x))`.
#[derive(Clone, Copy, Default)]
pub struct Sha256Prg;

impl Prg for Sha256Prg {
    #[inline(always)]
    fn child<B: Backend>(&self, b: B, x: &Seed128, bit: bool) -> Seed128 {
        let mut msg = [0u8; 17];
        msg[0] = bit as u8;
        msg[1..].copy_from_slice(x);
        let mut out = [0u8; 16];
        out.copy_from_slice(&sha256_short(b, &msg)[..16]);
        out
    }
}

/// The PRG a tree is built with, as data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrgKind {
    /// AES with the parent node as the key, `G_bit(x) = AES_x(0^127 || bit)`,
    /// on the job's backend: AES-NI where the CPU has it (paper default).
    /// The key schedule is run per step — the honest cost model for tree
    /// derivation, where every internal node is a fresh key (the paper's
    /// 2.5 µs for a 2^30-key tree with AES-NI includes exactly this
    /// per-level rekeying) — beside the block it keys.
    #[default]
    Aes,
    /// The same construction on the portable software AES, whatever the
    /// job's backend (Fig. 6's slowest series).
    AesSoftware,
    /// [`Sha256Prg`].
    Sha256,
}

impl PrgKind {
    /// Name as used in Fig. 6 labels.
    pub fn label(self) -> &'static str {
        match self {
            PrgKind::Aes => "AES-NI",
            PrgKind::AesSoftware => "AES",
            PrgKind::Sha256 => "SHA256",
        }
    }
}

impl Prg for PrgKind {
    #[inline(always)]
    fn child<B: Backend>(&self, b: B, x: &Seed128, bit: bool) -> Seed128 {
        /// `AES_x(0^127 || bit)`: the bit is the last byte's low bit.
        #[inline(always)]
        fn aes<B: Backend>(b: B, x: &Seed128, bit: bool) -> Seed128 {
            let mut block = [u128::from(bit) << 120];
            b.aes_keying(x, &mut block);
            block[0].to_le_bytes()
        }
        match self {
            PrgKind::Aes => aes(b, x, bit),
            PrgKind::AesSoftware => aes(Portable, x, bit),
            PrgKind::Sha256 => Sha256Prg.child(b, x, bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Dispatch, Job};

    const KINDS: [PrgKind; 3] = [PrgKind::Aes, PrgKind::AesSoftware, PrgKind::Sha256];

    /// `G0(x)` and `G1(x)` of every kind, on `d`.
    fn children(d: Dispatch, x: Seed128) -> [[Seed128; 2]; 3] {
        struct Children(Seed128);
        impl Job for Children {
            type Output = [[Seed128; 2]; 3];
            fn run<B: Backend>(self, b: B) -> Self::Output {
                KINDS.map(|k| [false, true].map(|bit| k.child(b, &self.0, bit)))
            }
        }
        d.run(Children(x))
    }

    #[test]
    fn children_are_distinct_and_deterministic() {
        for d in Dispatch::all() {
            for [l, r] in children(d, [3u8; 16]) {
                assert_ne!(l, r, "G0 and G1 collide");
                assert_ne!(l, [3u8; 16], "G0 equals input");
            }
            assert_eq!(children(d, [7u8; 16]), children(d, [7u8; 16]));
            assert_ne!(children(d, [0u8; 16]), children(d, [1u8; 16]));
        }
    }

    #[test]
    fn every_backend_derives_the_same_children() {
        let x = [0x5au8; 16];
        let [aes, soft, sha] = children(Dispatch::PORTABLE, x);
        // Software AES is the same construction as AES.
        assert_eq!(aes, soft);
        // The SHA-256 step is `trunc128(H(bit || x))`.
        let h = |bit: u8| crate::sha256::sha256_concat(&[bit], &x)[..16].to_vec();
        assert_eq!([sha[0].to_vec(), sha[1].to_vec()], [h(0), h(1)]);
        for d in Dispatch::all() {
            assert_eq!(children(d, x), [aes, soft, sha], "{d:?}");
        }
    }

    #[test]
    fn aes_children_are_the_fips197_cipher() {
        // `G0(x) = AES_x(0^128)`, checked on the FIPS-197 Appendix C key.
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let mut block = [0u8; 16];
        crate::aes::soft_encrypt_block(&crate::aes::expand_key(&key), &mut block);
        for d in Dispatch::all() {
            assert_eq!(children(d, key)[0][0], block, "{d:?}");
        }
    }
}
