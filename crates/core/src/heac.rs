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
use crate::kdtree::{LeafCursor, TokenSet, TreeKd};
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
    /// Builds the per-chunk PRF from the chunk's tree leaf.
    pub fn new(leaf: &Seed128) -> Self {
        ElementKeys {
            cipher: Aes128::new(leaf),
        }
    }

    /// The 64-bit one-time key for digest element `j` of this chunk.
    #[inline]
    pub fn key(&self, j: u32) -> u64 {
        let mut block = [0u8; 16];
        block[12..].copy_from_slice(&j.to_be_bytes());
        self.cipher.encrypt_block(&mut block);
        fold_u64(&block)
    }

    /// Keys for elements `0..n` as a vector.
    pub fn keys(&self, n: usize) -> Vec<u64> {
        (0..n as u32).map(|j| self.key(j)).collect()
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

/// Owner/producer-side encryptor bound to a stream's key tree.
///
/// Holds a [`LeafCursor`], so an encryptor kept across a run of chunks
/// derives chunk `i+1`'s boundary leaves from where chunk `i` left off —
/// under two PRG calls per chunk in the append-only ingest order, at most
/// two walks for any other. The amortisation lasts as long as the
/// encryptor does: one built per chunk pays both walks every time.
pub struct HeacEncryptor<'a> {
    tree: &'a TreeKd,
    cursor: std::cell::RefCell<LeafCursor>,
}

impl<'a> HeacEncryptor<'a> {
    /// Creates an encryptor over the stream's key-derivation tree.
    pub fn new(tree: &'a TreeKd) -> Self {
        HeacEncryptor {
            tree,
            cursor: std::cell::RefCell::new(LeafCursor::new()),
        }
    }

    /// The boundary leaves `(leaf_i, leaf_{i+1})` of chunk `i`, derived
    /// through (and advancing) the encryptor's cursor.
    pub fn boundary_leaves(&self, chunk: u64) -> Result<(Seed128, Seed128), CoreError> {
        self.cursor.borrow_mut().boundary_leaves(self.tree, chunk)
    }

    /// Encrypts the digest vector of chunk `i`:
    /// `c_j = m_j + k_{i,j} − k_{i+1,j} (mod 2^64)`.
    ///
    /// Requires leaf `i+1` to exist (the stream must not exhaust the
    /// keystream; with height 30+ this is never a practical concern).
    pub fn encrypt_digest(&self, chunk: u64, plain: &[u64]) -> Result<Vec<Ciphertext>, CoreError> {
        let (l0, l1) = self.boundary_leaves(chunk)?;
        Ok(encrypt_digest_with(
            &ElementKeys::new(&l0),
            &ElementKeys::new(&l1),
            plain,
        ))
    }
}

/// [`HeacEncryptor::encrypt_digest`] when the caller already expanded the
/// boundary element-key PRFs.
pub fn encrypt_digest_with(
    k_i: &ElementKeys,
    k_next: &ElementKeys,
    plain: &[u64],
) -> Vec<Ciphertext> {
    plain
        .iter()
        .enumerate()
        .map(|(j, &m)| {
            let j = j as u32;
            m.wrapping_add(k_i.key(j)).wrapping_sub(k_next.key(j))
        })
        .collect()
}

/// Decrypts an in-range aggregate over chunks `[a, b)` using boundary keys
/// from any [`KeySource`]. `agg` is the element-wise wrapping sum of the
/// encrypted digests of chunks `a..b`.
///
/// Cost: two leaf derivations + two AES calls per element — independent of
/// `b − a` (the key-canceling property).
pub fn decrypt_range_sum<K: KeySource>(
    keys: &K,
    a: u64,
    b: u64,
    agg: &[Ciphertext],
) -> Result<Vec<u64>, CoreError> {
    if a >= b {
        return Err(CoreError::InvalidParams("empty decryption range"));
    }
    let k_a = ElementKeys::new(&keys.leaf(a)?);
    let k_b = ElementKeys::new(&keys.leaf(b)?);
    Ok(agg
        .iter()
        .enumerate()
        .map(|(j, &c)| {
            let j = j as u32;
            c.wrapping_sub(k_a.key(j)).wrapping_add(k_b.key(j))
        })
        .collect())
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
