//! ECIES hybrid encryption over P-256.
//!
//! TimeCrypt's key store holds access tokens "encrypted with the principal's
//! public key (hybrid encryption)" (§3.2). This is that hybrid scheme:
//! ephemeral ECDH → SHA-256 KDF → AES-128-GCM. Identity→public-key mapping
//! is the identity provider's job (the paper assumes Keybase; we assume the
//! caller already resolved the key).

use crate::p256::{self, Point, Scalar};
use timecrypt_crypto::sha256::sha256_concat;
use timecrypt_crypto::{AesGcm128, SecureRandom};

/// A principal's ECIES keypair.
pub struct EciesKeypair {
    /// Secret scalar.
    d: Scalar,
    /// Public point (register this with the identity provider).
    pub public: Point,
}

/// ECIES errors.
#[derive(Debug, PartialEq, Eq)]
pub enum EciesError {
    /// Blob malformed or ephemeral point invalid.
    Malformed,
    /// AEAD authentication failed (wrong key or tampering).
    AuthFailed,
}

impl std::fmt::Display for EciesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EciesError::Malformed => write!(f, "malformed ECIES blob"),
            EciesError::AuthFailed => write!(f, "ECIES authentication failed"),
        }
    }
}

impl std::error::Error for EciesError {}

impl EciesKeypair {
    /// Generates a fresh keypair.
    pub fn generate(rng: &mut SecureRandom) -> Self {
        let d = p256::random_scalar(rng);
        EciesKeypair {
            d,
            public: p256::scalar_mul_base(&d),
        }
    }

    /// Decrypts a blob sealed to this keypair's public key.
    pub fn open(&self, blob: &[u8]) -> Result<Vec<u8>, EciesError> {
        let (eph, used) = Point::decode(blob).ok_or(EciesError::Malformed)?;
        if eph.is_infinity() {
            return Err(EciesError::Malformed);
        }
        let shared = p256::scalar_mul(&self.d, &eph);
        let key = kdf(&shared);
        let gcm = AesGcm128::new(&key);
        let rest = &blob[used..];
        if rest.len() < 12 {
            return Err(EciesError::Malformed);
        }
        let nonce: [u8; 12] = rest[..12].try_into().unwrap();
        gcm.open(&nonce, b"tc-ecies", &rest[12..])
            .map_err(|_| EciesError::AuthFailed)
    }
}

/// Seals `plaintext` to `recipient`'s public key:
/// `ephemeral_point || nonce || AES-GCM(body)`.
pub fn seal(recipient: &Point, plaintext: &[u8], rng: &mut SecureRandom) -> Vec<u8> {
    let e = p256::random_scalar(rng);
    let eph = p256::scalar_mul_base(&e);
    let shared = p256::scalar_mul(&e, recipient);
    let key = kdf(&shared);
    let gcm = AesGcm128::new(&key);
    let mut nonce = [0u8; 12];
    rng.fill(&mut nonce);
    let mut out = eph.encode();
    out.extend_from_slice(&nonce);
    out.extend_from_slice(&gcm.seal(&nonce, b"tc-ecies", plaintext));
    out
}

/// SHA-256 KDF over the shared point's encoding.
fn kdf(shared: &Point) -> [u8; 16] {
    let d = sha256_concat(&shared.encode(), b"tc-ecies-kdf");
    let mut k = [0u8; 16];
    k.copy_from_slice(&d[..16]);
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = SecureRandom::from_seed_insecure(21);
        let kp = EciesKeypair::generate(&mut rng);
        for msg in [b"".as_slice(), b"short", &[7u8; 10_000]] {
            let blob = seal(&kp.public, msg, &mut rng);
            assert_eq!(kp.open(&blob).unwrap(), msg);
        }
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = SecureRandom::from_seed_insecure(22);
        let alice = EciesKeypair::generate(&mut rng);
        let bob = EciesKeypair::generate(&mut rng);
        let blob = seal(&alice.public, b"for alice only", &mut rng);
        assert_eq!(bob.open(&blob), Err(EciesError::AuthFailed));
    }

    #[test]
    fn tampering_detected() {
        let mut rng = SecureRandom::from_seed_insecure(23);
        let kp = EciesKeypair::generate(&mut rng);
        let mut blob = seal(&kp.public, b"payload", &mut rng);
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert_eq!(kp.open(&blob), Err(EciesError::AuthFailed));
        assert_eq!(kp.open(&[]), Err(EciesError::Malformed));
        assert_eq!(kp.open(&[0u8]), Err(EciesError::Malformed));
    }

    #[test]
    fn blobs_are_randomized() {
        let mut rng = SecureRandom::from_seed_insecure(24);
        let kp = EciesKeypair::generate(&mut rng);
        let a = seal(&kp.public, b"msg", &mut rng);
        let b = seal(&kp.public, b"msg", &mut rng);
        assert_ne!(a, b);
    }

    /// Captured from the bitwise double-and-add curve this crate had before
    /// its fixed-limb one: the draw order from the RNG (key scalar,
    /// ephemeral scalar, nonce) and every sealed byte are unchanged, so
    /// blobs in a key store open as before.
    #[test]
    fn golden_blob_from_a_fixed_seed() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut rng = SecureRandom::from_seed_insecure(0x6772616e74);
        let kp = EciesKeypair::generate(&mut rng);
        assert_eq!(
            hex(&kp.public.encode()),
            "046d6cef3a46fa18e4a29ca12311a67d7a2469f3ff2f9689a838b79984922c2cff\
             001b584da68693600ccdfa560f0fce4223e954a1b4a3e3ad3606a174f7e5745a"
        );
        let msg: Vec<u8> = (0..48).collect();
        let blob = seal(&kp.public, &msg, &mut rng);
        assert_eq!(
            hex(&blob),
            "04c43f4536752749451eab08e52a48b233522b425f1f7f1d910d8b4dccae0b4d28\
             c481c0af495bddf45adab3514725de032290a830cdd61be8ee9ed4522e7afe25\
             43dac239a0e11e5b4a2f9107f6a5cbec\
             e8f9e4f5d2deadf4b0bf58430233a3cdf1f6db05ebbcc2373431c9cd8b0ba5c5\
             203ef95106e50e4bceee4fafc9eec76b211ce6252054976bda881f53"
        );
        assert_eq!(kp.open(&blob).unwrap(), msg);
    }
}
