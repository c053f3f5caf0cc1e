//! Property-based tests for P-256 and ECDSA, and for the decoders that run
//! on bytes a server or a peer supplies.

use proptest::prelude::*;
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::ecies::{self, EciesKeypair};
use timecrypt_pk::p256::{self, Point, Scalar};
use timecrypt_pk::{Signature, SigningKey, VerifyingKey};

proptest! {
    /// P-256 scalar multiplication is a homomorphism from (Z, +).
    #[test]
    fn p256_scalar_homomorphism(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let k = |v: u64| -> Scalar {
            let mut k = [0; 32];
            k[24..].copy_from_slice(&v.to_be_bytes());
            k
        };
        let lhs = p256::scalar_mul_base(&k(a + b));
        let rhs = p256::add(&p256::scalar_mul_base(&k(a)), &p256::scalar_mul_base(&k(b)));
        prop_assert_eq!(lhs, rhs);
    }
}

proptest! {
    /// ECDSA: honest signatures always verify; signatures never transfer
    /// across messages; encode/decode is stable.
    #[test]
    fn ecdsa_sign_verify_properties(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut rng = SecureRandom::from_seed_insecure(seed);
        let key = SigningKey::generate(&mut rng);
        let vk = key.verifying_key();
        let sig = key.sign(&msg, &mut rng);
        prop_assert!(vk.verify(&msg, &sig));
        prop_assert_eq!(Signature::decode(&sig.encode()).unwrap(), sig);
        let mut other = msg.clone();
        other.push(0);
        prop_assert!(!vk.verify(&other, &sig));
    }

    /// Signature decode never panics on arbitrary 64-byte inputs, and
    /// whatever decodes re-encodes identically.
    #[test]
    fn ecdsa_signature_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        if let Some(sig) = Signature::decode(&bytes) {
            prop_assert_eq!(sig.encode().to_vec(), bytes);
        }
    }

    /// Hostile bytes into the decoders clients run on server-supplied data:
    /// arbitrary input and every single-bit corruption of a valid encoding
    /// is rejected or decodes to something well-formed — never a panic, and
    /// a corrupted signature, key or sealed blob is never accepted as the
    /// original.
    #[test]
    fn decoders_survive_hostile_bytes(
        seed in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 0..140),
        tag in prop_oneof![Just(0u8), Just(4u8), any::<u8>()],
        flip in any::<u16>(),
    ) {
        // Arbitrary bytes, biased towards the two tags `Point::decode` knows.
        let mut bytes = junk;
        if let Some(first) = bytes.first_mut() {
            *first = tag;
        }
        let mut rng = SecureRandom::from_seed_insecure(seed);
        let recipient = EciesKeypair::generate(&mut rng);
        // `Signature::decode` looks at nothing but 64-byte inputs.
        let mut sig_bytes = bytes.clone();
        sig_bytes.resize(64, tag);
        if let Some(sig) = Signature::decode(&sig_bytes) {
            prop_assert_eq!(sig.encode().to_vec(), sig_bytes);
        }
        if let Some((pt, used)) = Point::decode(&bytes) {
            prop_assert_eq!(pt.encode(), bytes[..used].to_vec());
        }
        if let Some(vk) = VerifyingKey::decode(&bytes) {
            prop_assert_eq!(vk.encode(), bytes.clone());
        }
        prop_assert!(recipient.open(&bytes).is_err());

        // One flipped bit in each valid encoding.
        let flipped = |valid: &[u8]| {
            let mut out = valid.to_vec();
            let bit = flip as usize % (out.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
            out
        };
        let key = SigningKey::generate(&mut rng);
        let vk = key.verifying_key();
        let msg = b"attested root";
        let sig = key.sign(msg, &mut rng);
        if let Some(forged) = Signature::decode(&flipped(&sig.encode())) {
            prop_assert!(!vk.verify(msg, &forged));
        }
        let bad_key = flipped(&vk.encode());
        prop_assert!(VerifyingKey::decode(&bad_key).is_none());
        if let Some((pt, _)) = Point::decode(&bad_key) {
            prop_assert!(pt.is_infinity(), "an off-curve point decoded");
        }
        let blob = ecies::seal(&recipient.public, b"grant", &mut rng);
        prop_assert_eq!(recipient.open(&blob).unwrap(), b"grant".to_vec());
        prop_assert!(recipient.open(&flipped(&blob)).is_err());
    }
}
