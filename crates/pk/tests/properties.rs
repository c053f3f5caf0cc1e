//! Property-based tests for the numeric substrate, P-256 and ECDSA, and
//! for the decoders that run on bytes a server or a peer supplies.

use proptest::prelude::*;
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::bn::BigUint;
use timecrypt_pk::ecies::{self, EciesKeypair};
use timecrypt_pk::p256::{curve, Point};
use timecrypt_pk::{Signature, SigningKey, VerifyingKey};

proptest! {
    /// Add/sub/mul/div agree with a u128 oracle.
    #[test]
    fn bignum_u128_oracle(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a as u128, b as u128);
        let (ba, bb) = (BigUint::from_u128(a), BigUint::from_u128(b));
        prop_assert_eq!(ba.add(&bb), BigUint::from_u128(a + b));
        prop_assert_eq!(ba.mul(&bb), BigUint::from_u128(a * b));
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(
            BigUint::from_u128(hi).sub(&BigUint::from_u128(lo)),
            BigUint::from_u128(hi - lo)
        );
        if let (Some(q128), Some(r128)) = (a.checked_div(b), a.checked_rem(b)) {
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q, BigUint::from_u128(q128));
            prop_assert_eq!(r, BigUint::from_u128(r128));
        }
    }

    /// div_rem reconstructs for multi-limb values.
    #[test]
    fn bignum_division_reconstructs(
        a in proptest::collection::vec(any::<u64>(), 1..6),
        b in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let a = BigUint::from_limbs(a);
        let b = BigUint::from_limbs(b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r.cmp_val(&b) == std::cmp::Ordering::Less);
    }

    /// Byte round-trips.
    #[test]
    fn bignum_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        let n = BigUint::from_bytes_be(&bytes);
        let back = n.to_bytes_be();
        // Leading zeros are canonicalized away.
        let mut canonical = bytes.clone();
        while canonical.first() == Some(&0) {
            canonical.remove(0);
        }
        prop_assert_eq!(back, canonical);
    }

    /// Modular inverse, when it exists, really inverts.
    #[test]
    fn modinv_inverts(m in (any::<u32>().prop_map(|x| (x as u64) | 1)), a in any::<u32>()) {
        prop_assume!(m > 2);
        let mb = BigUint::from_u64(m);
        let ab = BigUint::from_u64(a as u64);
        if let Some(inv) = ab.modinv_odd(&mb) {
            prop_assert_eq!(ab.mul(&inv).rem(&mb), BigUint::one());
        }
    }

    /// P-256 scalar multiplication is a homomorphism from (Z, +).
    #[test]
    fn p256_scalar_homomorphism(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let c = curve();
        let lhs = c.scalar_mul_base(&BigUint::from_u64(a + b));
        let rhs = c.add(
            &c.scalar_mul_base(&BigUint::from_u64(a)),
            &c.scalar_mul_base(&BigUint::from_u64(b)),
        );
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
        prop_assert_eq!(Signature::decode(&sig.encode()).unwrap(), sig.clone());
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
            prop_assert!(used <= bytes.len());
            prop_assert!(pt.is_infinity() || curve().is_on_curve(&pt));
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
