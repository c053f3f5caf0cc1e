//! Property-based tests for the homomorphic strawman baselines and the
//! arbitrary-precision integers under them.

use proptest::prelude::*;
use timecrypt_bench::baselines::bn::BigUint;
use timecrypt_bench::baselines::mont::Mont;
use timecrypt_bench::baselines::{EcElGamal, Paillier};
use timecrypt_crypto::SecureRandom;

proptest! {
    /// Montgomery modmul/pow agree with naive mul+rem for random odd moduli.
    #[test]
    fn mont_matches_naive(
        m in (any::<u64>().prop_map(|x| x | 1)),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        prop_assume!(m > 2);
        let m_b = BigUint::from_u64(m);
        let ctx = Mont::new(&m_b);
        let expect = BigUint::from_u128((a as u128 % m as u128) * (b as u128 % m as u128) % m as u128);
        prop_assert_eq!(ctx.modmul(&BigUint::from_u64(a), &BigUint::from_u64(b)), expect);
    }

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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Paillier: Dec(Enc(a) ⊕ Enc(b)) = a + b for arbitrary u32 pairs
    /// (small key for test speed; the algebra is key-size independent).
    #[test]
    fn paillier_homomorphism(a in any::<u32>(), b in any::<u32>()) {
        let mut rng = SecureRandom::from_seed_insecure(42);
        let kp = Paillier::generate(256, &mut rng);
        let ca = kp.public.encrypt(a as u64, &mut rng);
        let cb = kp.public.encrypt(b as u64, &mut rng);
        let sum = kp.public.add(&ca, &cb);
        prop_assert_eq!(kp.decrypt(&sum), a as u64 + b as u64);
    }

    /// EC-ElGamal: Dec(Enc(a) + Enc(b)) = a + b within the BSGS range.
    #[test]
    fn elgamal_homomorphism(a in 0u64..2000, b in 0u64..2000) {
        let mut rng = SecureRandom::from_seed_insecure(43);
        let kp = EcElGamal::generate(4096, &mut rng);
        let ca = kp.encrypt(a, &mut rng);
        let cb = kp.encrypt(b, &mut rng);
        prop_assert_eq!(kp.decrypt(&EcElGamal::add(&ca, &cb)), Some(a + b));
    }
}
