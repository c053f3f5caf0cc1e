//! Arbitrary-precision unsigned integers.
//!
//! Little-endian `u64` limbs, always normalized (no trailing zero limbs).
//! Implements exactly the operations the strawman needs — Paillier's
//! 2048–3072-bit numbers, Miller-Rabin — and the affine reference the
//! product's P-256 is tested against (`tests/p256_reference.rs`):
//! comparison, add/sub, schoolbook multiply, shifts, bit access, and binary
//! long division. Hot modular paths do not run here but through the
//! Montgomery context in [`super::mont`].

/// An unsigned big integer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian limbs; empty means zero; last limb nonzero otherwise.
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From a u128.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// From raw little-endian limbs.
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// From big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur = 0u64;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        Self::from_limbs(limbs)
    }

    /// From a hex string (no prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut limbs = Vec::new();
        let chars: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let mut cur = 0u64;
        let mut shift = 0u32;
        for &c in chars.iter().rev() {
            let digit = (c as char).to_digit(16)? as u64;
            cur |= digit << shift;
            shift += 4;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        Some(Self::from_limbs(limbs))
    }

    /// Big-endian bytes without leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Big-endian bytes zero-padded to `len` (panics if the value needs more).
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// The limbs (little-endian).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Bit length.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
            None => 0,
        }
    }

    /// Bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Comparison.
    pub fn cmp_val(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            o => return o,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`; panics on underflow (callers compare first).
    pub fn sub(&self, other: &Self) -> Self {
        debug_assert!(
            self.cmp_val(other) != std::cmp::Ordering::Less,
            "BigUint underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        Self::from_limbs(out)
    }

    /// Schoolbook `self * other`.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// `self << n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = (n % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// `self >> n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = (n % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Self::from_limbs(out)
    }

    /// Binary long division: returns `(quotient, remainder)`. Cold-path only
    /// (a random scalar's reduction, the strawman's setup); the shifted
    /// divisor and the remainder are the same length throughout and are
    /// updated in place, so a division allocates three times, not per bit.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_val(divisor) == std::cmp::Ordering::Less {
            return (Self::zero(), self.clone());
        }
        let shift = self.bits() - divisor.bits();
        let mut remainder = self.limbs.clone();
        let mut d = divisor.shl(shift).limbs;
        let mut quotient = vec![0u64; shift / 64 + 1];
        for i in (0..=shift).rev() {
            if remainder.iter().rev().ge(d.iter().rev()) {
                let mut borrow = false;
                for (r, &s) in remainder.iter_mut().zip(&d) {
                    let (d1, b1) = r.overflowing_sub(s);
                    let (d2, b2) = d1.overflowing_sub(borrow as u64);
                    (*r, borrow) = (d2, b1 | b2);
                }
                quotient[i / 64] |= 1u64 << (i % 64);
            }
            // d >>= 1
            let mut carry = 0;
            for l in d.iter_mut().rev() {
                (*l, carry) = ((*l >> 1) | carry, *l << 63);
            }
        }
        (Self::from_limbs(quotient), Self::from_limbs(remainder))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `(self + other) mod m`, inputs already reduced.
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        let s = self.add(other);
        if s.cmp_val(m) == std::cmp::Ordering::Less {
            s
        } else {
            s.sub(m)
        }
    }

    /// `(self - other) mod m`, inputs already reduced.
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        if self.cmp_val(other) != std::cmp::Ordering::Less {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// Modular inverse of `self` mod odd `m` via binary extended GCD.
    /// Returns `None` if not coprime. Requires `m` odd (all our moduli are).
    pub fn modinv_odd(&self, m: &Self) -> Option<Self> {
        assert!(m.is_odd(), "modinv_odd requires odd modulus");
        let mut u = self.rem(m);
        if u.is_zero() {
            return None;
        }
        let mut v = m.clone();
        let mut x1 = Self::one();
        let mut x2 = Self::zero();
        while u != Self::one() && v != Self::one() {
            // Non-coprime inputs drive one side to zero (the other then holds
            // gcd != 1); without this guard the even-stripping loop below
            // would spin forever on zero.
            if u.is_zero() || v.is_zero() {
                return None;
            }
            while !u.is_odd() {
                u = u.shr(1);
                x1 = if x1.is_odd() {
                    x1.add(m).shr(1)
                } else {
                    x1.shr(1)
                };
            }
            while !v.is_odd() {
                v = v.shr(1);
                x2 = if x2.is_odd() {
                    x2.add(m).shr(1)
                } else {
                    x2.shr(1)
                };
            }
            if u.cmp_val(&v) != std::cmp::Ordering::Less {
                u = u.sub(&v);
                x1 = x1.sub_mod(&x2, m);
            } else {
                v = v.sub(&u);
                x2 = x2.sub_mod(&x1, m);
            }
        }
        if u == Self::one() {
            Some(x1.rem(m))
        } else if v == Self::one() {
            Some(x2.rem(m))
        } else {
            None
        }
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while !a.is_odd() && !b.is_odd() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while !a.is_zero() {
            while !a.is_odd() {
                a = a.shr(1);
            }
            while !b.is_odd() {
                b = b.shr(1);
            }
            if a.cmp_val(&b) != std::cmp::Ordering::Less {
                a = a.sub(&b);
            } else {
                b = b.sub(&a);
            }
        }
        b.shl(shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bu(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn construction_and_bytes() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_u64(5).to_bytes_be(), vec![5]);
        let n = BigUint::from_bytes_be(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(n.to_bytes_be(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(n.bits(), 65);
        assert_eq!(
            BigUint::from_hex("ff00000000000000001").unwrap(),
            BigUint::from_u128(0xff00000000000000001)
        );
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(
            BigUint::from_u64(0x1234).to_bytes_be_padded(4),
            vec![0, 0, 0x12, 0x34]
        );
        assert_eq!(BigUint::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    fn add_sub_against_u128_oracle() {
        let cases: &[(u128, u128)] = &[
            (0, 0),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128 + 5, u64::MAX as u128),
            (1 << 100, (1 << 90) + 77),
        ];
        for &(a, b) in cases {
            assert_eq!(bu(a).add(&bu(b)), bu(a + b), "{a}+{b}");
            assert_eq!(bu(a.max(b)).sub(&bu(a.min(b))), bu(a.max(b) - a.min(b)));
        }
    }

    #[test]
    fn mul_against_u128_oracle() {
        for &(a, b) in &[
            (0u128, 5u128),
            (3, 7),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 63, 1 << 60),
        ] {
            assert_eq!(
                bu(a).mul(&bu(b)),
                bu(a.wrapping_mul(b))
                    .clone()
                    .add(&BigUint::from_limbs(vec![
                        0,
                        0,
                        ((a >> 64) * (b & u64::MAX as u128)) as u64
                    ]))
                    .sub(&BigUint::from_limbs(vec![
                        0,
                        0,
                        ((a >> 64) * (b & u64::MAX as u128)) as u64
                    ])),
                "sanity"
            );
        }
        // Direct checks staying within u128.
        assert_eq!(bu(12345).mul(&bu(67890)), bu(12345 * 67890));
        assert_eq!(
            bu(u64::MAX as u128).mul(&bu(u64::MAX as u128)),
            bu((u64::MAX as u128) * (u64::MAX as u128))
        );
    }

    #[test]
    fn mul_big() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let sq = a.mul(&a);
        let expect = BigUint::one()
            .shl(256)
            .sub(&BigUint::one().shl(129))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        assert_eq!(bu(1).shl(130).shr(130), bu(1));
        assert_eq!(bu(0b1011).shl(3), bu(0b1011000));
        assert_eq!(bu(0b1011000).shr(3), bu(0b1011));
        assert_eq!(bu(7).shr(10), BigUint::zero());
        assert_eq!(bu(1 << 70).shr(64), bu(1 << 6));
    }

    #[test]
    fn div_rem_against_u128_oracle() {
        let cases: &[(u128, u128)] = &[
            (0, 3),
            (7, 3),
            (100, 10),
            (u128::MAX - 3, 12345),
            (1 << 100, (1 << 50) + 1),
            (99, 100),
        ];
        for &(a, b) in cases {
            let (q, r) = bu(a).div_rem(&bu(b));
            assert_eq!(q, bu(a / b), "{a}/{b} q");
            assert_eq!(r, bu(a % b), "{a}/{b} r");
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = BigUint::from_hex("deadbeefcafebabe0123456789abcdef00ff00ff00ff00ff").unwrap();
        let b = BigUint::from_hex("abcdef0123456789").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_val(&b) == std::cmp::Ordering::Less);
    }

    #[test]
    fn modinv_odd_works() {
        let m = bu(1000003); // odd prime
        for a in [1u128, 2, 7, 999999, 12345] {
            let inv = bu(a).modinv_odd(&m).unwrap();
            assert_eq!(bu(a).mul(&inv).rem(&m), BigUint::one(), "a={a}");
        }
        // Non-coprime fails.
        let m = bu(21);
        assert!(bu(7).modinv_odd(&m).is_none());
        assert!(bu(0).modinv_odd(&m).is_none());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(bu(12).gcd(&bu(18)), bu(6));
        assert_eq!(bu(17).gcd(&bu(13)), bu(1));
        assert_eq!(bu(0).gcd(&bu(5)), bu(5));
        assert_eq!(bu(1 << 40).gcd(&bu(1 << 20)), bu(1 << 20));
    }

    #[test]
    fn modular_helpers() {
        let m = bu(97);
        assert_eq!(bu(50).add_mod(&bu(60), &m), bu(13));
        assert_eq!(bu(10).sub_mod(&bu(20), &m), bu(87));
        assert_eq!(bu(96).add_mod(&bu(1), &m), BigUint::zero());
    }

    #[test]
    fn bit_access() {
        let n = bu(0b101_0000_0000_0001);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(n.bit(12));
        assert!(n.bit(14));
        assert!(!n.bit(500));
    }
}
