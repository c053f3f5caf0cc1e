//! Montgomery modular arithmetic (CIOS multiplication) and exponentiation.
//!
//! The strawman's hot modular paths — Paillier encryption/decryption and
//! Miller-Rabin — run through this context, over heap limbs of any length
//! (the product's P-256 has its own four-limb arithmetic in
//! `timecrypt_pk::p256`). The modulus must be odd (true for RSA-style
//! moduli and `n²`).

use timecrypt_pk::bn::BigUint;

/// A Montgomery context for one odd modulus.
#[derive(Debug, Clone)]
pub struct Mont {
    /// The modulus.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0: u64,
    /// `R^2 mod n` where `R = 2^(64·k)` (for conversion into the domain).
    r2: Vec<u64>,
    /// Limb count k.
    k: usize,
}

/// A value in Montgomery form (aR mod n), tied to its context's limb count.
pub type MontVal = Vec<u64>;

impl Mont {
    /// Builds a context. Panics if `n` is even or zero.
    pub fn new(n: &BigUint) -> Self {
        assert!(n.is_odd(), "Montgomery modulus must be odd");
        let limbs = n.limbs().to_vec();
        let k = limbs.len();
        // n0 = -n^{-1} mod 2^64 via Newton iteration on the low limb.
        let mut inv = 1u64;
        let n_low = limbs[0];
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n_low.wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();
        // R^2 mod n = 2^(128k) mod n, computed with the cold-path div.
        let r2 = BigUint::one().shl(128 * k).rem(n).limbs().to_vec();
        let mut r2_padded = r2;
        r2_padded.resize(k, 0);
        Mont {
            n: limbs,
            n0,
            r2: r2_padded,
            k,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.n.clone())
    }

    /// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod n`.
    #[allow(clippy::needless_range_loop)] // index arithmetic mirrors the CIOS paper
    pub fn mul(&self, a: &MontVal, b: &MontVal) -> MontVal {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        let mut t = vec![0u64; k + 2];
        for i in 0..k {
            // t += a[i] * b
            let mut carry = 0u128;
            for j in 0..k {
                let s = t[j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;
            // m = t[0] * n0 mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0);
            let s = t[0] as u128 + (m as u128) * (self.n[0] as u128);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + (m as u128) * (self.n[j] as u128) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1] + ((s >> 64) as u64);
            t[k + 1] = 0;
        }
        t.truncate(k + 1);
        // Final conditional subtraction.
        if t[k] > 0 || ge(&t[..k], &self.n) {
            sub_in_place(&mut t, &self.n);
        }
        t.truncate(k);
        t
    }

    /// Converts a reduced value into Montgomery form.
    pub fn to_mont(&self, a: &BigUint) -> MontVal {
        debug_assert!(
            a.cmp_val(&self.modulus()) == std::cmp::Ordering::Less,
            "input not reduced"
        );
        let mut padded = a.limbs().to_vec();
        padded.resize(self.k, 0);
        self.mul(&padded, &self.r2)
    }

    /// Converts back out of Montgomery form.
    pub fn from_mont(&self, a: &MontVal) -> BigUint {
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        BigUint::from_limbs(self.mul(a, &one))
    }

    /// Montgomery form of 1.
    pub fn one(&self) -> MontVal {
        self.to_mont(&BigUint::one())
    }

    /// `base^exp mod n` (base reduced, any exponent), left-to-right square
    /// and multiply.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus());
        }
        let base_m = self.to_mont(&base.rem(&self.modulus()));
        let mut acc = self.one();
        for i in (0..exp.bits()).rev() {
            acc = self.mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mul(&acc, &base_m);
            }
        }
        self.from_mont(&acc)
    }

    /// Modular multiplication through the Montgomery domain (convenience,
    /// two conversions; hot loops should stay in the domain).
    pub fn modmul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(&a.rem(&self.modulus()));
        let bm = self.to_mont(&b.rem(&self.modulus()));
        self.from_mont(&self.mul(&am, &bm))
    }
}

fn ge(a: &[u64], n: &[u64]) -> bool {
    for i in (0..n.len()).rev() {
        if a[i] != n[i] {
            return a[i] > n[i];
        }
    }
    true
}

fn sub_in_place(a: &mut [u64], n: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..n.len() {
        let (d1, b1) = a[i].overflowing_sub(n[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    if n.len() < a.len() {
        a[n.len()] = a[n.len()].wrapping_sub(borrow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn roundtrip_through_domain() {
        let m = Mont::new(&bu(1_000_000_007));
        for v in [0u128, 1, 999, 1_000_000_006] {
            assert_eq!(m.from_mont(&m.to_mont(&bu(v))), bu(v));
        }
    }

    #[test]
    fn modmul_against_u128_oracle() {
        let n = 0xffff_fffb_u128; // odd
        let m = Mont::new(&bu(n));
        for (a, b) in [(0u128, 5u128), (12345, 67890), (n - 1, n - 1), (1, n - 1)] {
            assert_eq!(m.modmul(&bu(a), &bu(b)), bu((a * b) % n), "{a}*{b}");
        }
    }

    #[test]
    fn pow_against_u128_oracle() {
        let n = 1_000_003u128;
        let m = Mont::new(&bu(n));
        fn powmod(mut b: u128, mut e: u128, n: u128) -> u128 {
            let mut r = 1u128;
            b %= n;
            while e > 0 {
                if e & 1 == 1 {
                    r = r * b % n;
                }
                b = b * b % n;
                e >>= 1;
            }
            r
        }
        for (b, e) in [(2u128, 10u128), (3, 0), (7, 1_000_002), (999_999, 12345)] {
            assert_eq!(m.pow(&bu(b), &bu(e)), bu(powmod(b, e, n)), "{b}^{e}");
        }
    }

    #[test]
    fn fermat_little_theorem_large() {
        // p = 2^127 - 1 (Mersenne prime): a^(p-1) = 1 mod p.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        let m = Mont::new(&p);
        let pm1 = p.sub(&BigUint::one());
        for a in [2u64, 3, 65537] {
            assert_eq!(m.pow(&BigUint::from_u64(a), &pm1), BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn multi_limb_consistency_with_naive() {
        // Random-ish 4-limb modulus: compare mont modmul vs naive mul+rem.
        let n =
            BigUint::from_hex("f3a4b5c6d7e8f9a1b2c3d4e5f6a7b8c9112233445566778899aabbccddeeff01")
                .unwrap(); // odd
        let m = Mont::new(&n);
        let a = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let b = BigUint::from_hex("aa55aa55aa55aa55ff00ff00ff00ff00ff00").unwrap();
        assert_eq!(m.modmul(&a, &b), a.mul(&b).rem(&n));
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = Mont::new(&bu(97));
        assert_eq!(m.pow(&bu(50), &BigUint::zero()), BigUint::one());
    }
}
