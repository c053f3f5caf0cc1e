//! Property-based tests for the homomorphic strawman baselines.

use proptest::prelude::*;
use timecrypt_bench::baselines::mont::Mont;
use timecrypt_bench::baselines::{EcElGamal, Paillier};
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::bn::BigUint;

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
