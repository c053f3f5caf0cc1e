//! Probable-prime generation: trial-division sieve + Miller-Rabin.

use super::bn::BigUint;
use super::mont::Mont;
use timecrypt_crypto::SecureRandom;

/// Small primes for trial division, generated by sieve at first use.
fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        const LIMIT: usize = 10_000;
        let mut sieve = vec![true; LIMIT];
        let mut primes = Vec::new();
        for i in 2..LIMIT {
            if sieve[i] {
                primes.push(i as u64);
                let mut j = i * i;
                while j < LIMIT {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        primes
    })
}

/// Remainder of a big integer by a small divisor.
fn rem_u64(n: &BigUint, d: u64) -> u64 {
    let mut r = 0u128;
    for &limb in n.limbs().iter().rev() {
        r = ((r << 64) | limb as u128) % d as u128;
    }
    r as u64
}

/// Miller-Rabin probable-prime test with `rounds` random bases.
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut SecureRandom) -> bool {
    if n.cmp_val(&BigUint::from_u64(2)) == std::cmp::Ordering::Less {
        return false;
    }
    for &p in small_primes() {
        let pb = BigUint::from_u64(p);
        match n.cmp_val(&pb) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Greater => {
                if rem_u64(n, p) == 0 {
                    return false;
                }
            }
        }
    }
    // Write n-1 = 2^s · d with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        s += 1;
    }
    let mont = Mont::new(n);
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2]: sample bytes and reduce (bias negligible).
        let mut bytes = vec![0u8; n.to_bytes_be().len() + 8];
        rng.fill(&mut bytes);
        let a = BigUint::from_bytes_be(&bytes)
            .rem(&n.sub(&BigUint::from_u64(3)))
            .add(&BigUint::from_u64(2));
        let mut x = mont.pow(&a, &d);
        if x == BigUint::one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = mont.modmul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime of exactly `bits` bits.
pub fn gen_prime(bits: usize, rng: &mut SecureRandom) -> BigUint {
    assert!(bits >= 16, "prime too small");
    loop {
        let mut bytes = vec![0u8; bits.div_ceil(8)];
        rng.fill(&mut bytes);
        let mut candidate = BigUint::from_bytes_be(&bytes);
        // Force exact bit length and oddness.
        candidate = candidate.rem(&BigUint::one().shl(bits));
        let top = BigUint::one().shl(bits - 1);
        if candidate.cmp_val(&top) == std::cmp::Ordering::Less {
            candidate = candidate.add(&top);
        }
        if !candidate.is_odd() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bits() > bits {
                continue;
            }
        }
        if is_probable_prime(&candidate, 12, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_primes_pass() {
        let mut rng = SecureRandom::from_seed_insecure(1);
        for p in [2u64, 3, 5, 7, 9973, 1_000_003, 4_294_967_291] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 12, &mut rng),
                "{p}"
            );
        }
        // 2^127 - 1 is prime.
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&m127, 12, &mut rng));
    }

    #[test]
    fn known_composites_fail() {
        let mut rng = SecureRandom::from_seed_insecure(2);
        for c in [1u64, 4, 9, 1_000_001, 4_294_967_295, 561, 41041] {
            // 561 and 41041 are Carmichael numbers — MR must still catch them.
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 12, &mut rng),
                "{c}"
            );
        }
        // 2^128 + 1 is composite (59649589127497217 divides it... actually
        // F7 = 2^128+1 is known composite).
        let f7 = BigUint::one().shl(128).add(&BigUint::one());
        assert!(!is_probable_prime(&f7, 12, &mut rng));
    }

    #[test]
    fn generated_primes_have_exact_bits() {
        let mut rng = SecureRandom::from_seed_insecure(3);
        for bits in [64usize, 128, 256] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
            assert!(is_probable_prime(&p, 12, &mut rng));
        }
    }

    #[test]
    fn distinct_primes_generated() {
        let mut rng = SecureRandom::from_seed_insecure(4);
        let a = gen_prime(128, &mut rng);
        let b = gen_prime(128, &mut rng);
        assert_ne!(a, b);
    }
}
