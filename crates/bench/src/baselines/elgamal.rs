//! Additively homomorphic EC-ElGamal — the paper's second strawman
//! (Table 2/3, Fig. 5/7: "EC-ElGamal" over prime256v1).
//!
//! Encryption encodes the integer in the exponent: `Enc(m) = (rG, mG + rQ)`.
//! Addition is pointwise; decryption recovers `mG = S − dR` and must then
//! solve a small discrete log, done here with baby-step/giant-step over a
//! configurable plaintext range (the reason Table 2 lists EC-ElGamal
//! decryption as expensive/N-A on constrained devices).

use super::column::Digest;
use std::collections::HashMap;
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::p256::{self, Point, Scalar, G};

/// An EC-ElGamal ciphertext: `(R, S) = (rG, mG + rQ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElGamalCiphertext {
    /// `rG`.
    pub r: Point,
    /// `mG + rQ`.
    pub s: Point,
}

/// Keypair + BSGS decryption table.
pub struct EcElGamal {
    /// Secret scalar d.
    d: Scalar,
    /// Public point Q = dG.
    pub q: Point,
    /// Baby-step table: x-coordinate bytes of iG → i, for i in [0, table).
    baby: HashMap<Vec<u8>, u64>,
    /// Baby table size (giant step stride).
    stride: u64,
    /// Max recoverable plaintext.
    max_plaintext: u64,
}

impl EcElGamal {
    /// Generates a keypair able to decrypt sums up to `max_plaintext`
    /// (BSGS memory/time are both O(√max_plaintext)).
    pub fn generate(max_plaintext: u64, rng: &mut SecureRandom) -> Self {
        let d = p256::random_scalar(rng);
        let q = p256::scalar_mul_base(&d);
        let stride = (max_plaintext as f64).sqrt().ceil() as u64 + 1;
        let mut baby = HashMap::with_capacity(stride as usize);
        let mut acc = Point::INFINITY;
        for i in 0..stride {
            baby.insert(point_fingerprint(&acc), i);
            acc = p256::add(&acc, &G);
        }
        EcElGamal {
            d,
            q,
            baby,
            stride,
            max_plaintext,
        }
    }

    /// Encrypts `m` (must not exceed decryptable sums you intend to take).
    pub fn encrypt(&self, m: u64, rng: &mut SecureRandom) -> ElGamalCiphertext {
        let r = p256::random_scalar(rng);
        let rq = p256::scalar_mul(&r, &self.q);
        ElGamalCiphertext {
            r: p256::scalar_mul_base(&r),
            s: p256::add(&p256::scalar_mul_base(&small(m)), &rq),
        }
    }

    /// Homomorphic addition (pointwise; needs no key).
    pub fn add(a: &ElGamalCiphertext, b: &ElGamalCiphertext) -> ElGamalCiphertext {
        ElGamalCiphertext {
            r: p256::add(&a.r, &b.r),
            s: p256::add(&a.s, &b.s),
        }
    }

    /// The additive identity `(O, O)`.
    pub fn zero() -> ElGamalCiphertext {
        ElGamalCiphertext {
            r: Point::INFINITY,
            s: Point::INFINITY,
        }
    }

    /// Decrypts: recovers `mG = S − dR`, then solves the discrete log by
    /// baby-step/giant-step. Returns `None` if `m > max_plaintext`.
    pub fn decrypt(&self, ct: &ElGamalCiphertext) -> Option<u64> {
        let dr = p256::scalar_mul(&self.d, &ct.r);
        let mut mg = p256::sub(&ct.s, &dr);
        // Giant steps: subtract stride·G until we hit the baby table.
        let giant = p256::scalar_mul_base(&small(self.stride));
        let max_giants = self.max_plaintext / self.stride + 1;
        for g in 0..=max_giants {
            if let Some(&i) = self.baby.get(&point_fingerprint(&mg)) {
                return Some(g * self.stride + i);
            }
            mg = p256::sub(&mg, &giant);
        }
        None
    }

    /// Serialized ciphertext size: two uncompressed points (Table 2's 21x
    /// expansion counts compressed points; we report our actual size in the
    /// bench output).
    pub fn ciphertext_bytes() -> usize {
        2 * 65
    }
}

/// `v` as a scalar.
fn small(v: u64) -> Scalar {
    let mut k = [0u8; 32];
    k[24..].copy_from_slice(&v.to_be_bytes());
    k
}

/// Key for the BSGS table: the encoded point (infinity handled).
fn point_fingerprint(p: &Point) -> Vec<u8> {
    p.encode()
}

/// A digest vector of EC-ElGamal ciphertexts, the running sums of a
/// [`Column`](super::column::Column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElGamalDigest(pub Vec<ElGamalCiphertext>);

/// Self-describing: a count, then each ciphertext.
impl Digest for ElGamalDigest {
    fn add_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = EcElGamal::add(a, b);
        }
    }

    fn sub_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = ElGamalCiphertext {
                r: p256::sub(&a.r, &b.r),
                s: p256::sub(&a.s, &b.s),
            };
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        for ct in &self.0 {
            out.extend_from_slice(&ct.r.encode());
            out.extend_from_slice(&ct.s.encode());
        }
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 4 {
            return None;
        }
        let n = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        let mut pos = 4;
        let mut cts = Vec::with_capacity(n);
        for _ in 0..n {
            let (r, used) = Point::decode(&buf[pos..])?;
            pos += used;
            let (s, used) = Point::decode(&buf[pos..])?;
            pos += used;
            cts.push(ElGamalCiphertext { r, s });
        }
        (pos == buf.len()).then_some(ElGamalDigest(cts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> (EcElGamal, SecureRandom) {
        let mut rng = SecureRandom::from_seed_insecure(11);
        (EcElGamal::generate(1 << 16, &mut rng), rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut rng) = keypair();
        for m in [0u64, 1, 255, 65535] {
            let ct = kp.encrypt(m, &mut rng);
            assert_eq!(kp.decrypt(&ct), Some(m), "m={m}");
        }
    }

    #[test]
    fn randomized_ciphertexts() {
        let (kp, mut rng) = keypair();
        let a = kp.encrypt(9, &mut rng);
        let b = kp.encrypt(9, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn additive_homomorphism() {
        let (kp, mut rng) = keypair();
        let values = [100u64, 2000, 3, 40000];
        let mut acc = EcElGamal::zero();
        for &v in &values {
            acc = EcElGamal::add(&acc, &kp.encrypt(v, &mut rng));
        }
        assert_eq!(kp.decrypt(&acc), Some(values.iter().sum::<u64>()));
    }

    #[test]
    fn out_of_range_returns_none() {
        let mut rng = SecureRandom::from_seed_insecure(12);
        let kp = EcElGamal::generate(100, &mut rng);
        let ct = kp.encrypt(5000, &mut rng);
        assert_eq!(kp.decrypt(&ct), None);
    }

    #[test]
    fn hom_digest_roundtrip() {
        let (kp, mut rng) = keypair();
        let d = ElGamalDigest(vec![kp.encrypt(7, &mut rng), kp.encrypt(11, &mut rng)]);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        assert_eq!(buf.len(), 4 + 2 * EcElGamal::ciphertext_bytes());
        assert_eq!(ElGamalDigest::decode(&buf), Some(d.clone()));
        assert_eq!(ElGamalDigest::decode(&buf[..buf.len() - 1]), None);
        // Aggregation through the trait.
        let mut sum = d.clone();
        sum.add_assign(&d);
        assert_eq!(kp.decrypt(&sum.0[0]), Some(14));
        assert_eq!(kp.decrypt(&sum.0[1]), Some(22));
        // Subtraction undoes one.
        sum.sub_assign(&d);
        assert_eq!(kp.decrypt(&sum.0[0]), Some(7));
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let mut rng = SecureRandom::from_seed_insecure(13);
        let kp1 = EcElGamal::generate(1000, &mut rng);
        let kp2 = EcElGamal::generate(1000, &mut rng);
        let ct = kp1.encrypt(42, &mut rng);
        // Wrong key yields a random-looking point: almost surely not in range.
        assert_ne!(kp2.decrypt(&ct), Some(42));
    }
}
