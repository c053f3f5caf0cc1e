//! Pseudorandom generators for the key derivation tree.
//!
//! The paper (§4.2.3) instantiates the tree PRG `G(x) = G0(x) || G1(x)`
//! either with a hash function (`G0(x) = H(0||x)`, `G1(x) = H(1||x)`) or a
//! block cipher (`G0(x) = B_x(0)`, `G1(x) = B_x(1)` with `x` as the key),
//! and Fig. 6 compares software AES, SHA-256, and AES-NI — concluding AES-NI
//! is the best candidate. All three are provided here behind the [`Prg`]
//! trait; [`PrgKind`] selects one at runtime for the benchmarks.

use crate::aes::Aes128;
use crate::sha256::Sha256;
use crate::Seed128;

/// A length-doubling PRG `{0,1}^128 -> {0,1}^256`, exposed as the two halves
/// `G0` and `G1` used as left/right children in the GGM tree.
pub trait Prg: Send + Sync {
    /// Expands a node into its two children: `(G0(x), G1(x))`.
    fn expand(&self, x: &Seed128) -> (Seed128, Seed128);

    /// Derives only one child; `bit = false` gives `G0(x)`, `bit = true`
    /// gives `G1(x)`. Implementations may avoid computing the sibling.
    fn child(&self, x: &Seed128, bit: bool) -> Seed128 {
        let (l, r) = self.expand(x);
        if bit {
            r
        } else {
            l
        }
    }
}

/// SHA-256 based PRG: `G0(x) = trunc128(H(0 || x))`, `G1(x) = trunc128(H(1 || x))`.
#[derive(Clone, Copy, Default)]
pub struct Sha256Prg;

impl Prg for Sha256Prg {
    fn expand(&self, x: &Seed128) -> (Seed128, Seed128) {
        (self.child(x, false), self.child(x, true))
    }

    fn child(&self, x: &Seed128, bit: bool) -> Seed128 {
        let mut h = Sha256::new();
        h.update(&[bit as u8]);
        h.update(x);
        let digest = h.finalize();
        let mut out = [0u8; 16];
        out.copy_from_slice(&digest[..16]);
        out
    }
}

/// AES based PRG using the parent node as the key:
/// `G0(x) = AES_x(0^128)`, `G1(x) = AES_x(0^127 || 1)`.
///
/// The key schedule is recomputed per expansion — this is the honest cost
/// model for tree derivation, where every internal node is a fresh key
/// (the paper's 2.5 µs for a 2^30-key tree with AES-NI includes exactly
/// this per-level rekeying) — and on AES-NI it runs beside the block
/// ([`Aes128::encrypt_once`]).
#[derive(Clone, Copy, Default)]
pub struct AesNiPrg;

impl Prg for AesNiPrg {
    fn expand(&self, x: &Seed128) -> (Seed128, Seed128) {
        let mut blocks = [[0u8; 16]; 2];
        blocks[1][15] = 1;
        Aes128::encrypt_once(x, &mut blocks);
        (blocks[0], blocks[1])
    }

    fn child(&self, x: &Seed128, bit: bool) -> Seed128 {
        let mut block = [[0u8; 16]];
        block[0][15] = bit as u8;
        Aes128::encrypt_once(x, &mut block);
        block[0]
    }
}

/// Software-only AES PRG — identical construction to [`AesNiPrg`] but forcing
/// the portable implementation. Exists so Fig. 6 can compare the three PRG
/// instantiations on the same machine.
#[derive(Clone, Copy, Default)]
pub struct AesSoftPrg;

impl Prg for AesSoftPrg {
    fn expand(&self, x: &Seed128) -> (Seed128, Seed128) {
        let cipher = Aes128::with_force_software(x, true);
        let mut zero = [0u8; 16];
        let mut one = [0u8; 16];
        one[15] = 1;
        cipher.encrypt_block(&mut zero);
        cipher.encrypt_block(&mut one);
        (zero, one)
    }

    fn child(&self, x: &Seed128, bit: bool) -> Seed128 {
        let cipher = Aes128::with_force_software(x, true);
        let mut block = [0u8; 16];
        block[15] = bit as u8;
        cipher.encrypt_block(&mut block);
        block
    }
}

/// Runtime-selectable PRG, used wherever a concrete choice must be carried in
/// data (stream configs, benchmarks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrgKind {
    /// AES with hardware acceleration when available (paper default).
    #[default]
    Aes,
    /// AES forced to the portable software implementation.
    AesSoftware,
    /// SHA-256.
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
    fn expand(&self, x: &Seed128) -> (Seed128, Seed128) {
        match self {
            PrgKind::Aes => AesNiPrg.expand(x),
            PrgKind::AesSoftware => AesSoftPrg.expand(x),
            PrgKind::Sha256 => Sha256Prg.expand(x),
        }
    }

    fn child(&self, x: &Seed128, bit: bool) -> Seed128 {
        match self {
            PrgKind::Aes => AesNiPrg.child(x, bit),
            PrgKind::AesSoftware => AesSoftPrg.child(x, bit),
            PrgKind::Sha256 => Sha256Prg.child(x, bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_prgs() -> Vec<(&'static str, Box<dyn Prg>)> {
        vec![
            ("sha256", Box::new(Sha256Prg)),
            ("aes", Box::new(AesNiPrg)),
            ("aes-soft", Box::new(AesSoftPrg)),
        ]
    }

    #[test]
    fn children_are_distinct() {
        for (name, prg) in all_prgs() {
            let (l, r) = prg.expand(&[3u8; 16]);
            assert_ne!(l, r, "{name}: G0 and G1 collide");
            assert_ne!(l, [3u8; 16], "{name}: G0 equals input");
        }
    }

    #[test]
    fn expand_is_deterministic() {
        for (name, prg) in all_prgs() {
            assert_eq!(prg.expand(&[7u8; 16]), prg.expand(&[7u8; 16]), "{name}");
        }
    }

    #[test]
    fn child_matches_expand() {
        for (name, prg) in all_prgs() {
            let x = [0xabu8; 16];
            let (l, r) = prg.expand(&x);
            assert_eq!(prg.child(&x, false), l, "{name}: left");
            assert_eq!(prg.child(&x, true), r, "{name}: right");
        }
    }

    #[test]
    fn aes_soft_and_aes_agree() {
        // Both instantiate the same construction; only the implementation
        // differs, so outputs must be identical.
        let x = [0x5au8; 16];
        assert_eq!(AesNiPrg.expand(&x), AesSoftPrg.expand(&x));
    }

    #[test]
    fn different_seeds_diverge() {
        for (name, prg) in all_prgs() {
            let a = prg.expand(&[0u8; 16]);
            let b = prg.expand(&[1u8; 16]);
            assert_ne!(a, b, "{name}");
        }
    }

    #[test]
    fn prg_kind_dispatch() {
        let x = [9u8; 16];
        assert_eq!(PrgKind::Sha256.expand(&x), Sha256Prg.expand(&x));
        assert_eq!(PrgKind::Aes.expand(&x), AesNiPrg.expand(&x));
        assert_eq!(PrgKind::AesSoftware.expand(&x), AesSoftPrg.expand(&x));
    }
}
