//! The Paillier cryptosystem — the paper's first strawman digest encryption
//! (Table 2/3, Fig. 5/7: "Paillier", 3072-bit keys at 128-bit security).
//!
//! Standard construction with `g = n + 1`, which gives the fast encryption
//! path `c = (1 + m·n) · r^n mod n²` and decryption
//! `m = L(c^λ mod n²) · λ^{-1} mod n`, `L(x) = (x−1)/n`.
//!
//! Ciphertexts are `n²`-sized — 768 bytes at 3072-bit keys versus
//! TimeCrypt's 8 bytes, the 96x index expansion of Table 2.

use super::mont::Mont;
use super::prime::gen_prime;
use std::sync::{Arc, Mutex, OnceLock};
use timecrypt_crypto::SecureRandom;
use timecrypt_index::HomDigest;
use timecrypt_pk::bn::BigUint;

/// Public parameters (enough to encrypt and aggregate).
#[derive(Debug, Clone)]
pub struct PaillierPublic {
    /// The modulus n.
    pub n: BigUint,
    /// n².
    pub n2: BigUint,
    /// Montgomery context mod n² (aggregation and encryption live here).
    mont_n2: Mont,
    /// Serialized ciphertext size in bytes.
    ct_bytes: usize,
    /// Registry id for [`HomDigest`] decoding.
    key_id: u64,
}

/// Full keypair.
pub struct Paillier {
    /// Public half.
    pub public: Arc<PaillierPublic>,
    /// λ = (p−1)(q−1)/gcd(p−1, q−1).
    lambda: BigUint,
    /// μ = λ^{-1} mod n.
    mu: BigUint,
}

/// Global registry so [`PaillierDigest::decode`] can recover the modulus
/// (ciphertext bytes deliberately exclude it — the paper's 96x expansion
/// figure counts ciphertext size only). Bench/server-side only.
fn registry() -> &'static Mutex<Vec<Arc<PaillierPublic>>> {
    static REG: OnceLock<Mutex<Vec<Arc<PaillierPublic>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn lookup(key_id: u64) -> Option<Arc<PaillierPublic>> {
    registry().lock().unwrap().get(key_id as usize).cloned()
}

impl Paillier {
    /// Generates a keypair with an n of `n_bits` (3072 for the paper's
    /// 128-bit setting, 1024 for the 80-bit IoT comparison in Table 3).
    pub fn generate(n_bits: usize, rng: &mut SecureRandom) -> Self {
        let half = n_bits / 2;
        let (p, q) = loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(half, rng);
            if p != q {
                break (p, q);
            }
        };
        let n = p.mul(&q);
        let n2 = n.mul(&n);
        let p1 = p.sub(&BigUint::one());
        let q1 = q.sub(&BigUint::one());
        let lambda = p1.mul(&q1).div_rem(&p1.gcd(&q1)).0;
        let mu = lambda.modinv_odd(&n).expect("lambda invertible mod n");
        let mont_n2 = Mont::new(&n2);
        let ct_bytes = n2.to_bytes_be().len();
        let mut reg = registry().lock().unwrap();
        let key_id = reg.len() as u64;
        let public = Arc::new(PaillierPublic {
            n,
            n2,
            mont_n2,
            ct_bytes,
            key_id,
        });
        reg.push(public.clone());
        drop(reg);
        Paillier { public, lambda, mu }
    }

    /// Decrypts an aggregate ciphertext to a u64 (the digest element space).
    pub fn decrypt(&self, ct: &PaillierCiphertext) -> u64 {
        let pb = &self.public;
        let x = pb.mont_n2.pow(&ct.c, &self.lambda);
        // L(x) = (x - 1) / n (exact division).
        let l = x.sub(&BigUint::one()).div_rem(&pb.n).0;
        let m = Mont::new(&pb.n).modmul(&l, &self.mu);
        m.low_u64()
    }

    /// Decrypts to the full residue mod n (for values exceeding u64).
    pub fn decrypt_full(&self, ct: &PaillierCiphertext) -> BigUint {
        let pb = &self.public;
        let x = pb.mont_n2.pow(&ct.c, &self.lambda);
        let l = x.sub(&BigUint::one()).div_rem(&pb.n).0;
        Mont::new(&pb.n).modmul(&l, &self.mu)
    }
}

impl PaillierPublic {
    /// Encrypts `m` (u64 digest element) with fresh randomness:
    /// `c = (1 + m·n) · r^n mod n²`.
    pub fn encrypt(&self, m: u64, rng: &mut SecureRandom) -> PaillierCiphertext {
        // r uniform in [1, n): sample wide and reduce.
        let mut bytes = vec![0u8; self.n.to_bytes_be().len() + 16];
        rng.fill(&mut bytes);
        let r = BigUint::from_bytes_be(&bytes)
            .rem(&self.n.sub(&BigUint::one()))
            .add(&BigUint::one());
        let rn = self.mont_n2.pow(&r, &self.n);
        let gm = BigUint::one()
            .add(&BigUint::from_u64(m).mul(&self.n))
            .rem(&self.n2);
        let c = self.mont_n2.modmul(&gm, &rn);
        PaillierCiphertext {
            c,
            key_id: self.key_id,
            ct_bytes: self.ct_bytes,
        }
    }

    /// Homomorphic addition: ciphertext multiplication mod n².
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext {
            c: self.mont_n2.modmul(&a.c, &b.c),
            key_id: self.key_id,
            ct_bytes: self.ct_bytes,
        }
    }

    /// Homomorphic subtraction: multiplication by `b`'s inverse mod n²
    /// (every ciphertext is a unit mod n²).
    pub fn sub(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        let inverse =
            b.c.modinv_odd(&self.n2)
                .expect("a ciphertext is a unit mod n²");
        PaillierCiphertext {
            c: self.mont_n2.modmul(&a.c, &inverse),
            key_id: self.key_id,
            ct_bytes: self.ct_bytes,
        }
    }

    /// The additive identity: Enc(0) with r = 1, i.e. ciphertext 1.
    pub fn zero(&self) -> PaillierCiphertext {
        PaillierCiphertext {
            c: BigUint::one(),
            key_id: self.key_id,
            ct_bytes: self.ct_bytes,
        }
    }

    /// Serialized ciphertext size (Table 2's memory accounting).
    pub fn ciphertext_bytes(&self) -> usize {
        self.ct_bytes
    }
}

/// A Paillier ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext {
    c: BigUint,
    key_id: u64,
    ct_bytes: usize,
}

/// A digest vector of Paillier ciphertexts, pluggable into the aggregation
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierDigest(pub Vec<PaillierCiphertext>);

impl HomDigest for PaillierDigest {
    fn zero_like(&self) -> Self {
        PaillierDigest(
            self.0
                .iter()
                .map(|ct| PaillierCiphertext {
                    c: BigUint::one(),
                    key_id: ct.key_id,
                    ct_bytes: ct.ct_bytes,
                })
                .collect(),
        )
    }

    fn add_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            let pb = lookup(a.key_id).expect("paillier key registered");
            *a = pb.add(a, b);
        }
    }

    fn sub_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            let pb = lookup(a.key_id).expect("paillier key registered");
            *a = pb.sub(a, b);
        }
    }

    fn encoded_len(&self) -> usize {
        // 4-byte count + per-element (8-byte key id + fixed-size residue).
        4 + self.0.iter().map(|ct| 8 + ct.ct_bytes).sum::<usize>()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        for ct in &self.0 {
            out.extend_from_slice(&ct.key_id.to_le_bytes());
            out.extend_from_slice(&ct.c.to_bytes_be_padded(ct.ct_bytes));
        }
    }

    fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 4 {
            return None;
        }
        let n = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        let mut pos = 4;
        let mut cts = Vec::with_capacity(n);
        for _ in 0..n {
            if buf.len() < pos + 8 {
                return None;
            }
            let key_id = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
            pos += 8;
            let pb = lookup(key_id)?;
            let ct_bytes = pb.ct_bytes;
            if buf.len() < pos + ct_bytes {
                return None;
            }
            let c = BigUint::from_bytes_be(&buf[pos..pos + ct_bytes]);
            pos += ct_bytes;
            cts.push(PaillierCiphertext {
                c,
                key_id,
                ct_bytes,
            });
        }
        Some((PaillierDigest(cts), pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_keypair() -> (Paillier, SecureRandom) {
        let mut rng = SecureRandom::from_seed_insecure(42);
        // 256-bit n keeps tests fast; benches use 1024/3072.
        let kp = Paillier::generate(256, &mut rng);
        (kp, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut rng) = small_keypair();
        for m in [0u64, 1, 42, u32::MAX as u64, u64::MAX] {
            let ct = kp.public.encrypt(m, &mut rng);
            assert_eq!(kp.decrypt(&ct), m, "m={m}");
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (kp, mut rng) = small_keypair();
        let a = kp.public.encrypt(7, &mut rng);
        let b = kp.public.encrypt(7, &mut rng);
        assert_ne!(a, b, "same plaintext must give different ciphertexts");
        assert_eq!(kp.decrypt(&a), kp.decrypt(&b));
    }

    #[test]
    fn additive_homomorphism() {
        let (kp, mut rng) = small_keypair();
        let values = [3u64, 1000, 999_999_999, 5];
        let mut acc = kp.public.zero();
        for &v in &values {
            let ct = kp.public.encrypt(v, &mut rng);
            acc = kp.public.add(&acc, &ct);
        }
        assert_eq!(kp.decrypt(&acc), values.iter().sum::<u64>());
    }

    #[test]
    fn zero_is_identity() {
        let (kp, mut rng) = small_keypair();
        let ct = kp.public.encrypt(123, &mut rng);
        let sum = kp.public.add(&ct, &kp.public.zero());
        assert_eq!(kp.decrypt(&sum), 123);
    }

    #[test]
    fn hom_digest_roundtrip_through_bytes() {
        let (kp, mut rng) = small_keypair();
        let d = PaillierDigest(vec![
            kp.public.encrypt(10, &mut rng),
            kp.public.encrypt(20, &mut rng),
        ]);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        assert_eq!(buf.len(), d.encoded_len());
        let (d2, used) = PaillierDigest::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(kp.decrypt(&d2.0[0]), 10);
        assert_eq!(kp.decrypt(&d2.0[1]), 20);
    }

    #[test]
    fn hom_digest_add() {
        let (kp, mut rng) = small_keypair();
        let mut a = PaillierDigest(vec![kp.public.encrypt(5, &mut rng)]);
        let b = PaillierDigest(vec![kp.public.encrypt(6, &mut rng)]);
        a.add_assign(&b);
        assert_eq!(kp.decrypt(&a.0[0]), 11);
        // zero_like is the identity.
        let z = a.zero_like();
        a.add_assign(&z);
        assert_eq!(kp.decrypt(&a.0[0]), 11);
        // Subtraction undoes it.
        a.sub_assign(&b);
        assert_eq!(kp.decrypt(&a.0[0]), 5);
    }

    #[test]
    fn ciphertext_expansion_matches_paper_ratio() {
        let (kp, _) = small_keypair();
        // n² bytes per 8-byte plaintext: for a 3072-bit key this is 96x
        // (Table 2); at 256-bit test keys it is 64/8 = 8x.
        assert_eq!(kp.public.ciphertext_bytes(), 64);
    }
}
