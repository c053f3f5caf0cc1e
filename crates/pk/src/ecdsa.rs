//! ECDSA over NIST P-256 with SHA-256.
//!
//! Used by the integrity extension (`timecrypt-integrity`) to let data
//! owners sign Merkle root attestations that consumers verify — the
//! Verena-style freshness/completeness add-on the paper names in §3.3.
//! Built on the same from-scratch [`p256`] group arithmetic as
//! the EC-ElGamal baseline. Not constant-time (see the p256 module note);
//! it authenticates public metadata, it does not guard long-lived secrets
//! against local side channels.

use crate::p256::{self, below, limbs, scalar, Limbs, Point, Scalar, ORDER};
use timecrypt_crypto::{sha256, SecureRandom};

/// An ECDSA signature: the standard `(r, s)` pair, each in `[1, n-1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// x-coordinate of the nonce point, mod the group order.
    pub r: Scalar,
    /// Proof scalar `k⁻¹(z + r·d) mod n`.
    pub s: Scalar,
}

/// `k` in `[1, n − 1]`.
fn in_range(k: &Limbs) -> bool {
    *k != [0; 4] && below(k, &ORDER.m)
}

impl Signature {
    /// Fixed 64-byte encoding: `r || s`, each 32 bytes big-endian.
    pub fn encode(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }

    /// Parses [`encode`](Self::encode) output; range-checks both scalars.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let [r, s] = <&[u8; 64]>::try_from(buf).ok()?.as_chunks::<32>().0 else {
            return None;
        };
        let sig = Signature { r: *r, s: *s };
        (in_range(&limbs(r)) && in_range(&limbs(s))).then_some(sig)
    }
}

/// A signing key (scalar `d`) with its public point `Q = d·G`.
#[derive(Debug, Clone)]
pub struct SigningKey {
    d: Scalar,
    public: Point,
}

/// The verification half of a [`SigningKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    /// The public point `Q`.
    pub point: Point,
}

/// Message hash as an integer per SEC1 §4.1.3: the leftmost `log2(n)` bits.
/// For P-256 with SHA-256 that is the whole 32-byte digest, unreduced.
fn hash_to_scalar(msg: &[u8]) -> Limbs {
    limbs(&sha256(msg))
}

impl SigningKey {
    /// Generates a fresh random key.
    pub fn generate(rng: &mut SecureRandom) -> Self {
        let d = p256::random_scalar(rng);
        SigningKey {
            d,
            public: p256::scalar_mul_base(&d),
        }
    }

    /// Builds a key from a raw scalar; `None` if `d` is 0 or ≥ n.
    pub fn from_scalar(d: Scalar) -> Option<Self> {
        let key = || SigningKey {
            d,
            public: p256::scalar_mul_base(&d),
        };
        in_range(&limbs(&d)).then(key)
    }

    /// The verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { point: self.public }
    }

    /// Signs `SHA-256(msg)` with a random per-signature nonce.
    pub fn sign(&self, msg: &[u8], rng: &mut SecureRandom) -> Signature {
        loop {
            let k = p256::random_scalar(rng);
            if let Some(sig) = self.sign_with_nonce(msg, &k) {
                return sig;
            }
        }
    }

    /// Signs with a caller-supplied nonce. Returns `None` when the nonce
    /// yields `r = 0` or `s = 0` (the caller must retry with a fresh one).
    ///
    /// Exposed so tests can pin the RFC 6979 known-answer nonce. NEVER reuse
    /// a nonce across two messages — doing so reveals the private key.
    pub fn sign_with_nonce(&self, msg: &[u8], k: &Scalar) -> Option<Signature> {
        let n = &ORDER;
        let r = n.reduce(&p256::scalar_mul_base(k).x()?);
        // s = k⁻¹ (z + r·d) mod n
        let k_inv = n.inv(&n.to_mont(&limbs(k)));
        let rd = n.mul(&n.to_mont(&r), &n.to_mont(&limbs(&self.d)));
        let s = n.mul(&k_inv, &n.add(&n.to_mont(&hash_to_scalar(msg)), &rd));
        let s = n.to_raw(&s);
        (r != [0; 4] && s != [0; 4]).then(|| Signature {
            r: scalar(&r),
            s: scalar(&s),
        })
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `SHA-256(msg)`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let (r, s) = (limbs(&sig.r), limbs(&sig.s));
        if self.point.is_infinity() || !in_range(&r) || !in_range(&s) {
            return false;
        }
        // u₁ = z·s⁻¹, u₂ = r·s⁻¹ mod n: one factor in Montgomery form, so
        // each product comes out of it as a raw scalar.
        let n = &ORDER;
        let w = n.inv(&n.to_mont(&s));
        let u1 = n.mul(&hash_to_scalar(msg), &w);
        let u2 = n.mul(&r, &w);
        let x = p256::mul_add_base(&u1, &u2, &self.point).x();
        x.is_some_and(|x| n.reduce(&x) == r)
    }

    /// SEC1 uncompressed encoding of the public point.
    pub fn encode(&self) -> Vec<u8> {
        self.point.encode()
    }

    /// Parses [`encode`](Self::encode) output (checks curve membership).
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let (point, used) = Point::decode(buf)?;
        if used != buf.len() || point.is_infinity() {
            return None;
        }
        Some(VerifyingKey { point })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 hex digits as 32 bytes.
    fn h(s: &str) -> Scalar {
        std::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    /// RFC 6979 §A.2.5, P-256 + SHA-256, message "sample": the full
    /// known-answer chain — public key, nonce, r, s.
    #[test]
    fn rfc6979_known_answer() {
        let d = h("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721");
        let key = SigningKey::from_scalar(d).unwrap();
        let vk = key.verifying_key();
        let sec1 = vk.encode();
        assert_eq!(
            sec1[1..33],
            h("60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6")
        );
        assert_eq!(
            sec1[33..],
            h("7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299")
        );

        let k = h("A6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60");
        let sig = key.sign_with_nonce(b"sample", &k).unwrap();
        assert_eq!(
            sig.r,
            h("EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716")
        );
        assert_eq!(
            sig.s,
            h("F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8")
        );
        assert!(vk.verify(b"sample", &sig));
    }

    /// Second RFC 6979 vector (message "test") against the same key.
    #[test]
    fn rfc6979_second_message() {
        let d = h("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721");
        let key = SigningKey::from_scalar(d).unwrap();
        let k = h("D16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0");
        let sig = key.sign_with_nonce(b"test", &k).unwrap();
        assert_eq!(
            sig.r,
            h("F1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367")
        );
        assert_eq!(
            sig.s,
            h("019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083")
        );
        assert!(key.verifying_key().verify(b"test", &sig));
    }

    #[test]
    fn sign_verify_roundtrip_random_keys() {
        let mut rng = SecureRandom::from_seed_insecure(7);
        for i in 0..4u8 {
            let key = SigningKey::generate(&mut rng);
            let msg = [i; 37];
            let sig = key.sign(&msg, &mut rng);
            assert!(key.verifying_key().verify(&msg, &sig));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let mut rng = SecureRandom::from_seed_insecure(8);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"root attestation v1", &mut rng);
        assert!(!key.verifying_key().verify(b"root attestation v2", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut rng = SecureRandom::from_seed_insecure(9);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"msg", &mut rng);
        let plus_one = |v: &Scalar| scalar(&ORDER.add(&limbs(v), &[1, 0, 0, 0]));
        let mut bad = sig;
        bad.s = plus_one(&bad.s);
        assert!(!key.verifying_key().verify(b"msg", &bad));
        let mut bad = sig;
        bad.r = plus_one(&bad.r);
        assert!(!key.verifying_key().verify(b"msg", &bad));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = SecureRandom::from_seed_insecure(10);
        let alice = SigningKey::generate(&mut rng);
        let mallory = SigningKey::generate(&mut rng);
        let sig = alice.sign(b"msg", &mut rng);
        assert!(!mallory.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn signature_codec_roundtrip() {
        let mut rng = SecureRandom::from_seed_insecure(11);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"payload", &mut rng);
        let decoded = Signature::decode(&sig.encode()).unwrap();
        assert_eq!(decoded, sig);
        assert!(key.verifying_key().verify(b"payload", &decoded));
    }

    #[test]
    fn signature_decode_rejects_out_of_range() {
        assert!(Signature::decode(&[0u8; 64]).is_none(), "r = s = 0");
        assert!(Signature::decode(&[0u8; 63]).is_none(), "short");
        let mut buf = [0xffu8; 64]; // r = s = 2^256 - 1 > n
        buf[0] = 0xff;
        assert!(Signature::decode(&buf).is_none());
    }

    #[test]
    fn verifying_key_codec_roundtrip() {
        let mut rng = SecureRandom::from_seed_insecure(12);
        let vk = SigningKey::generate(&mut rng).verifying_key();
        assert_eq!(VerifyingKey::decode(&vk.encode()).unwrap(), vk);
        assert!(VerifyingKey::decode(&[0u8]).is_none(), "infinity rejected");
        assert!(VerifyingKey::decode(b"junk").is_none());
    }

    #[test]
    fn zero_and_oversize_scalars_rejected_as_keys() {
        assert!(SigningKey::from_scalar([0; 32]).is_none());
        assert!(SigningKey::from_scalar(scalar(&ORDER.m)).is_none());
    }
}
