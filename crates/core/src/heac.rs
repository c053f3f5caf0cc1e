//! The HEAC cipher itself (paper §4.2.1–§4.2.2, §A.1.2).
//!
//! Encryption of digest element `j` of chunk `i`:
//!
//! ```text
//! c_{i,j} = m_{i,j} + k_{i,j} − k_{i+1,j}   (mod 2^64)
//! k_{i,j} = fold64( AES_{leaf_i}( j ) )
//! ```
//!
//! where `leaf_i` is leaf `i` of the per-stream key-derivation tree and
//! `fold64` is the length-matching hash (§A.1.5). The `k_i − k_{i+1}` key
//! encoding is the paper's *key canceling* (§4.2.2): inner keys telescope
//! away under in-range aggregation, so decrypting `Σ_{x=a}^{b-1} c_x`
//! requires only `k_a` and `k_b` regardless of the range length — this is
//! what makes decryption cost independent of how many ciphertexts the server
//! aggregated (Table 2's 1 ns ADD, constant-cost decrypt).
//!
//! Digests are *vectors* of u64 (sum, count, sum-of-squares, histogram bins —
//! §4.5), so each chunk consumes one tree leaf and derives per-element
//! subkeys from it with AES as a PRF. This keeps one leaf per chunk (the
//! time-encoded keystream of §4.3) while giving every element an independent
//! one-time key.

use crate::error::CoreError;
use crate::kdtree::{LeafCursor, TokenSet, TokenSource, TreeKd};
use timecrypt_crypto::{fold_u64, Aes128, Seed128};

/// A HEAC ciphertext element: a u64 in `Z_{2^64}`. Identical in size to the
/// plaintext — zero ciphertext expansion (Table 2: 8.1 MB index for both
/// TimeCrypt and plaintext).
pub type Ciphertext = u64;

/// Per-chunk element-key generator: a PRF keyed by the chunk's tree leaf.
///
/// `key(j) = fold64(AES_leaf(j))` — one AES block per digest element.
pub struct ElementKeys {
    cipher: Aes128,
}

impl ElementKeys {
    /// Blocks per [`Aes128::encrypt_blocks`] call (512 bytes of stack).
    const BATCH: usize = 32;

    /// Builds the per-chunk PRF from the chunk's tree leaf.
    pub fn new(leaf: &Seed128) -> Self {
        ElementKeys {
            cipher: Aes128::new(leaf),
        }
    }

    /// The 64-bit one-time key for digest element `j` of this chunk: the
    /// one-block reference [`apply`](Self::apply) is held to.
    #[inline]
    pub fn key(&self, j: u32) -> u64 {
        let mut block = [0u8; 16];
        block[12..].copy_from_slice(&j.to_be_bytes());
        self.cipher.encrypt_block(&mut block);
        fold_u64(&block)
    }

    /// Replaces every `words[j]` by `op(words[j], key(j))`, the keys
    /// evaluated in batches through the cipher's eight-wide block pipeline.
    pub fn apply(&self, words: &mut [u64], op: impl Fn(u64, u64) -> u64) {
        let mut blocks = [[0u8; 16]; Self::BATCH];
        for (n, run) in words.chunks_mut(Self::BATCH).enumerate() {
            let blocks = &mut blocks[..run.len()];
            for (block, j) in blocks.iter_mut().zip((n * Self::BATCH) as u32..) {
                *block = [0u8; 16];
                block[12..].copy_from_slice(&j.to_be_bytes());
            }
            self.cipher.encrypt_blocks(blocks);
            for (word, block) in run.iter_mut().zip(blocks.iter()) {
                *word = op(*word, fold_u64(block));
            }
        }
    }

    /// Writes the keys of elements `0..out.len()` into `out`.
    pub fn keys_into(&self, out: &mut [u64]) {
        self.apply(out, |_, key| key);
    }

    /// Keys for elements `0..n` as a vector.
    pub fn keys(&self, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        self.keys_into(&mut out);
        out
    }
}

/// A source of keystream leaves. The owner derives from the full tree; a
/// principal derives from its token set; a resolution-restricted principal
/// derives from opened envelopes. Decryption code is generic over all three.
pub trait KeySource {
    /// Returns leaf `i` if this principal's key material covers it.
    fn leaf(&self, i: u64) -> Result<Seed128, CoreError>;
}

impl KeySource for TreeKd {
    fn leaf(&self, i: u64) -> Result<Seed128, CoreError> {
        TreeKd::leaf(self, i)
    }
}

impl KeySource for TokenSet {
    fn leaf(&self, i: u64) -> Result<Seed128, CoreError> {
        TokenSet::leaf(self, i)
    }
}

/// A sealer's place in a stream's keystream: its [`LeafCursor`] and, beside
/// it, the *evaluated* element keys of the upper boundary leaf of the chunk
/// encrypted last. Chunk `i` is encrypted under `k_i − k_{i+1}`, so chunk
/// `i + 1` after chunk `i` expands one leaf's PRF (one AES key schedule,
/// `width` blocks), not two. The carried keys are used only when they are
/// the keys of the leaf asked for — compared by value, so in any order and
/// over any source — and recomputed otherwise.
#[derive(Clone, Default)]
pub struct DigestCursor {
    /// Where the boundary leaves are derived.
    pub leaves: LeafCursor,
    /// `keys` are the first element keys of `leaf`, once there is one.
    leaf: Option<Seed128>,
    keys: Vec<u64>,
    prf_blocks: u64,
}

impl DigestCursor {
    /// AES blocks spent on element keys so far. Every PRF expansion (one
    /// key schedule) evaluates exactly the digest's width in blocks.
    pub fn prf_blocks(&self) -> u64 {
        self.prf_blocks
    }

    fn expand(&mut self, leaf: &Seed128, width: usize) {
        self.keys.resize(width, 0);
        ElementKeys::new(leaf).keys_into(&mut self.keys);
        self.leaf = Some(*leaf);
        self.prf_blocks += width as u64;
    }

    /// Encrypts the digest of chunk `i` where it lies,
    /// `c_j = m_j + k_{i,j} − k_{i+1,j} (mod 2^64)`, and returns the boundary
    /// leaves (what the payload key is made from). Leaf `i+1` must exist; a
    /// refused chunk leaves the digest as it was.
    pub fn encrypt_digest<S: TokenSource>(
        &mut self,
        src: &S,
        chunk: u64,
        digest: &mut [u64],
    ) -> Result<(Seed128, Seed128), CoreError> {
        let (l0, l1) = self.leaves.boundary_leaves(src, chunk)?;
        if self.leaf != Some(l0) || self.keys.len() < digest.len() {
            self.expand(&l0, digest.len());
        }
        add_assign(digest, &self.keys[..digest.len()]);
        self.expand(&l1, digest.len());
        for (m, k) in digest.iter_mut().zip(&self.keys) {
            *m = m.wrapping_sub(*k);
        }
        Ok((l0, l1))
    }
}

/// Owner/producer-side encryptor bound to a stream's key tree. It holds a
/// [`DigestCursor`]: kept across a run of chunks it pays under two PRG calls
/// and one PRF expansion per chunk in ingest order, at most two walks and
/// two expansions for any other; one built per chunk pays those every time.
pub struct HeacEncryptor<'a> {
    tree: &'a TreeKd,
    cursor: std::cell::RefCell<DigestCursor>,
}

impl<'a> HeacEncryptor<'a> {
    /// Creates an encryptor over the stream's key-derivation tree.
    pub fn new(tree: &'a TreeKd) -> Self {
        HeacEncryptor {
            tree,
            cursor: Default::default(),
        }
    }

    /// [`DigestCursor::encrypt_digest`] of chunk `i` on a copy of `plain`.
    pub fn encrypt_digest(&self, chunk: u64, plain: &[u64]) -> Result<Vec<Ciphertext>, CoreError> {
        let mut ct = plain.to_vec();
        let mut cursor = self.cursor.borrow_mut();
        cursor.encrypt_digest(self.tree, chunk, &mut ct)?;
        Ok(ct)
    }
}

/// Decrypts, where it lies, an in-range aggregate over chunks `[a, b)` — the
/// element-wise wrapping sum of their encrypted digests — with boundary keys
/// from any [`KeySource`]; an error leaves `agg` as it was. Cost: two leaf
/// derivations + two batched AES blocks per element, independent of `b − a`
/// (the key-canceling property).
pub fn decrypt_range_in_place<K: KeySource>(
    keys: &K,
    a: u64,
    b: u64,
    agg: &mut [Ciphertext],
) -> Result<(), CoreError> {
    if a >= b {
        return Err(CoreError::InvalidParams("empty decryption range"));
    }
    let (k_a, k_b) = (keys.leaf(a)?, keys.leaf(b)?);
    ElementKeys::new(&k_a).apply(agg, u64::wrapping_sub);
    ElementKeys::new(&k_b).apply(agg, u64::wrapping_add);
    Ok(())
}

/// [`decrypt_range_in_place`] on a copy of `agg`.
pub fn decrypt_range_sum<K: KeySource>(
    keys: &K,
    a: u64,
    b: u64,
    agg: &[Ciphertext],
) -> Result<Vec<u64>, CoreError> {
    let mut plain = agg.to_vec();
    decrypt_range_in_place(keys, a, b, &mut plain)?;
    Ok(plain)
}

/// Server-side homomorphic addition: element-wise wrapping add. This is the
/// entire cost of aggregation in TimeCrypt (Table 2: 1 ns, same as
/// plaintext).
#[inline]
pub fn add_assign(acc: &mut [Ciphertext], other: &[Ciphertext]) {
    debug_assert_eq!(acc.len(), other.len());
    for (a, b) in acc.iter_mut().zip(other.iter()) {
        *a = a.wrapping_add(*b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_crypto::PrgKind;

    fn tree() -> TreeKd {
        TreeKd::new([42u8; 16], 16, PrgKind::Aes).unwrap()
    }

    #[test]
    fn roundtrip_single_chunk() {
        let t = tree();
        let enc = HeacEncryptor::new(&t);
        let plain = vec![100u64, 5, 10_000, 0, u64::MAX];
        let ct = enc.encrypt_digest(7, &plain).unwrap();
        assert_ne!(ct, plain, "ciphertext must differ from plaintext");
        let dec = decrypt_range_sum(&t, 7, 8, &ct).unwrap();
        assert_eq!(dec, plain);
    }

    #[test]
    fn aggregation_telescopes() {
        let t = tree();
        let enc = HeacEncryptor::new(&t);
        let chunks: Vec<Vec<u64>> = (0..50u64).map(|i| vec![i * 3, 1, i * i]).collect();
        let mut agg = vec![0u64; 3];
        for (i, m) in chunks.iter().enumerate() {
            let c = enc.encrypt_digest(i as u64, m).unwrap();
            add_assign(&mut agg, &c);
        }
        let dec = decrypt_range_sum(&t, 0, 50, &agg).unwrap();
        let expect: Vec<u64> = (0..3)
            .map(|j| chunks.iter().map(|m| m[j]).fold(0u64, u64::wrapping_add))
            .collect();
        assert_eq!(dec, expect);
    }

    #[test]
    fn subrange_aggregation() {
        let t = tree();
        let enc = HeacEncryptor::new(&t);
        let cts: Vec<Vec<u64>> = (0..20u64)
            .map(|i| enc.encrypt_digest(i, &[i + 1]).unwrap())
            .collect();
        // Sum chunks [5, 12).
        let mut agg = vec![0u64];
        for ct in &cts[5..12] {
            add_assign(&mut agg, ct);
        }
        let dec = decrypt_range_sum(&t, 5, 12, &agg).unwrap();
        assert_eq!(dec[0], (5..12).map(|i| i + 1).sum::<u64>());
    }

    #[test]
    fn consumer_with_tokens_can_decrypt_granted_range_only() {
        let t = tree();
        let enc = HeacEncryptor::new(&t);
        let mut agg = vec![0u64];
        for i in 10..20u64 {
            add_assign(&mut agg, &enc.encrypt_digest(i, &[i]).unwrap());
        }
        // Grant leaves [10, 20] — note the +1 boundary leaf.
        let ts = t.token_set(10, 20).unwrap();
        let dec = decrypt_range_sum(&ts, 10, 20, &agg).unwrap();
        assert_eq!(dec[0], (10..20).sum::<u64>());
        // A principal granted [10, 19] cannot decrypt [10, 20) — needs k_20.
        let ts_short = t.token_set(10, 19).unwrap();
        assert_eq!(
            decrypt_range_sum(&ts_short, 10, 20, &agg),
            Err(CoreError::OutOfScope { index: 20 })
        );
    }

    #[test]
    fn wrong_range_decrypts_to_garbage_not_plaintext() {
        // Decrypting with mismatched boundaries yields an unrelated value —
        // keys don't cancel. (Not an error: the scheme is malleable by
        // design; integrity comes from elsewhere.)
        let t = tree();
        let enc = HeacEncryptor::new(&t);
        let ct = enc.encrypt_digest(3, &[777]).unwrap();
        let wrong = decrypt_range_sum(&t, 4, 5, &ct).unwrap();
        assert_ne!(wrong[0], 777);
    }

    #[test]
    fn negative_values_via_wrapping() {
        // i64 deltas are representable: two's-complement arithmetic mod 2^64
        // survives encryption/aggregation.
        let t = tree();
        let enc = HeacEncryptor::new(&t);
        let a = (-5i64) as u64;
        let b = 3u64;
        let mut agg = vec![0u64];
        add_assign(&mut agg, &enc.encrypt_digest(0, &[a]).unwrap());
        add_assign(&mut agg, &enc.encrypt_digest(1, &[b]).unwrap());
        let dec = decrypt_range_sum(&t, 0, 2, &agg).unwrap();
        assert_eq!(dec[0] as i64, -2);
    }

    #[test]
    fn element_keys_are_independent() {
        let t = tree();
        let ek = ElementKeys::new(&t.leaf(0).unwrap());
        let keys = ek.keys(16);
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "element keys {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn batched_keys_match_the_one_block_reference() {
        // Widths across the cipher's 8-block pipeline, its remainder and
        // the 32-block scratch array.
        let ek = ElementKeys::new(&tree().leaf(3).unwrap());
        for width in 0..=70usize {
            let reference: Vec<u64> = (0..width as u32).map(|j| ek.key(j)).collect();
            let mut keys = vec![0xdead_beefu64; width];
            ek.keys_into(&mut keys);
            assert_eq!(keys, reference, "width {width}");
            assert_eq!(ek.keys(width), reference);
            let mut words: Vec<u64> = (0..width as u64).map(|j| j * j).collect();
            ek.apply(&mut words, u64::wrapping_sub);
            for (j, (w, k)) in words.iter().zip(&reference).enumerate() {
                assert_eq!(*w, (j as u64 * j as u64).wrapping_sub(*k), "width {width}");
            }
        }
    }

    #[test]
    fn digest_cursor_matches_from_root_in_every_order() {
        // Forward, repeated, backward, across gaps, another tree in between,
        // a width change and the last leaf: always `m + k_i − k_{i+1}` by
        // the one-block reference, with the PRF blocks counted.
        let (t, other) = (tree(), TreeKd::new([1u8; 16], 16, PrgKind::Aes).unwrap());
        let last = t.num_leaves() - 1;
        let mut cursor = DigestCursor::default();
        let mut carried = None;
        let steps = [0u64, 1, 2, 2, 1, 9, 10, 11, last - 1, last, 5, 6, 7];
        for (n, &i) in steps.iter().enumerate() {
            let (src, width) = match n {
                5 => (&other, 19),
                11 => (&t, 40),
                _ => (&t, 19),
            };
            let plain: Vec<u64> = (0..width).map(|j| i * 1000 + j).collect();
            let mut ct = plain.clone();
            let before = cursor.prf_blocks();
            let got = cursor.encrypt_digest(src, i, &mut ct);
            let spent = cursor.prf_blocks() - before;
            if i == last {
                assert_eq!(got, Err(CoreError::OutOfScope { index: last + 1 }));
                assert_eq!((ct, spent), (plain, 0), "a refusal touches nothing");
                continue;
            }
            let (l0, l1) = (src.leaf(i).unwrap(), src.leaf(i + 1).unwrap());
            assert_eq!(got, Ok((l0, l1)));
            let (k0, k1) = (ElementKeys::new(&l0), ElementKeys::new(&l1));
            for (j, (c, m)) in ct.iter().zip(&plain).enumerate() {
                let expect = m
                    .wrapping_add(k0.key(j as u32))
                    .wrapping_sub(k1.key(j as u32));
                assert_eq!(*c, expect, "step {n} chunk {i} element {j}");
            }
            // Carried keys serve any digest they are wide enough for.
            let sequential = carried.is_some_and(|(leaf, w)| leaf == l0 && w >= width);
            assert_eq!(
                spent,
                if sequential { width } else { 2 * width },
                "step {n}"
            );
            carried = Some((l1, width));
        }
    }

    #[test]
    fn failed_peel_leaves_the_aggregate_alone() {
        let t = tree();
        let ts = t.token_set(10, 19).unwrap();
        let mut agg = vec![1u64, 2, 3];
        assert_eq!(
            decrypt_range_in_place(&ts, 10, 20, &mut agg),
            Err(CoreError::OutOfScope { index: 20 })
        );
        assert_eq!(agg, [1, 2, 3]);
        decrypt_range_in_place(&ts, 10, 19, &mut agg).unwrap();
        assert_eq!(agg, decrypt_range_sum(&ts, 10, 19, &[1, 2, 3]).unwrap());
    }

    #[test]
    fn empty_range_rejected() {
        let t = tree();
        assert!(decrypt_range_sum(&t, 5, 5, &[0]).is_err());
        assert!(decrypt_range_sum(&t, 6, 5, &[0]).is_err());
    }

    #[test]
    fn ciphertext_has_no_expansion() {
        assert_eq!(std::mem::size_of::<Ciphertext>(), 8);
    }
}
