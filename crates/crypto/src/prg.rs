//! Pseudorandom generators for the key derivation tree.
//!
//! The paper (§4.2.3) instantiates the tree PRG `G(x) = G0(x) || G1(x)`
//! either with a hash function (`G0(x) = H(0||x)`, `G1(x) = H(1||x)`) or a
//! block cipher (`G0(x) = B_x(0)`, `G1(x) = B_x(1)` with `x` as the key),
//! and Fig. 6 compares software AES, SHA-256, and AES-NI — concluding AES-NI
//! is the best candidate. [`PrgKind`] names the two constructions as data
//! (a tree's configuration, a grant's wire byte); each step runs on the
//! backend of the job that takes it, so software AES is [`PrgKind::Aes`] on
//! [`Portable`](crate::backend::Portable).

use crate::backend::Backend;
use crate::sha256::sha256_short;
use crate::Seed128;

/// The length-doubling PRG `{0,1}^128 -> {0,1}^256` a tree is built with,
/// as data: its two halves `G0` and `G1` are the left and right children
/// in the GGM tree.
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
    /// SHA-256: `G0(x) = trunc128(H(0 || x))`, `G1(x) = trunc128(H(1 || x))`.
    Sha256,
}

impl PrgKind {
    /// Derives one child on backend `b`: `bit = false` gives `G0(x)`,
    /// `bit = true` gives `G1(x)`.
    #[inline(always)]
    pub fn child<B: Backend>(self, b: B, x: &Seed128, bit: bool) -> Seed128 {
        match self {
            // `AES_x(0^127 || bit)`: the bit is the last byte's low bit.
            PrgKind::Aes => {
                let mut block = [u128::from(bit) << 120];
                b.aes_keying(x, &mut block);
                block[0].to_le_bytes()
            }
            PrgKind::Sha256 => {
                let mut msg = [0u8; 17];
                msg[0] = bit as u8;
                msg[1..].copy_from_slice(x);
                let mut out = [0u8; 16];
                out.copy_from_slice(&sha256_short(b, &msg)[..16]);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Dispatch, Job};

    const KINDS: [PrgKind; 2] = [PrgKind::Aes, PrgKind::Sha256];

    /// `G0(x)` and `G1(x)` of every kind, on `d`.
    fn children(d: Dispatch, x: Seed128) -> [[Seed128; 2]; 2] {
        struct Children(Seed128);
        impl Job for Children {
            type Output = [[Seed128; 2]; 2];
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
        let [aes, sha] = children(Dispatch::PORTABLE, x);
        // The SHA-256 step is `trunc128(H(bit || x))`.
        let h = |bit: u8| crate::sha256::sha256_concat(&[bit], &x)[..16].to_vec();
        assert_eq!([sha[0].to_vec(), sha[1].to_vec()], [h(0), h(1)]);
        for d in Dispatch::all() {
            assert_eq!(children(d, x), [aes, sha], "{d:?}");
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
