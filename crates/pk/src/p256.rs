//! NIST P-256 (secp256r1 / prime256v1) group arithmetic — the curve under
//! every sealed grant ([`ecies`](crate::ecies)) and every signed
//! attestation ([`ecdsa`](crate::ecdsa)).
//!
//! **Representation.** Every value is four little-endian `u64` limbs on
//! the stack, and nothing allocates. A [`Point`] holds its affine
//! coordinates canonical, below `p`, and is `Copy`; a [`Scalar`] is 32
//! big-endian bytes — what keys, nonces and signatures hold and encode —
//! read into limbs where it is used, and never reduced on the way: the
//! window below multiplies by any 256-bit value. Arithmetic runs in
//! Montgomery form `a·2²⁵⁶ mod m`, always below its modulus: the field
//! prime `p` for coordinates, the group order `n` for ECDSA's scalar
//! arithmetic. Multiplication is a 4×4 CIOS pass (`−p⁻¹ mod 2⁶⁴ = 1`),
//! addition and subtraction end in one masked correction, inversion is
//! Fermat's `a^(m−2)`. Points are Jacobian `(X, Y, Z)` = affine
//! `(X/Z², Y/Z³)`, `Z = 0` the identity, passed by value.
//!
//! **Scalar multiplication** is a fixed 4-bit window: the multiples
//! `0·P … 15·P` are built once per call on the stack, then each of the 64
//! windows, most significant first, costs four doublings and one addition;
//! a sum `k₁·P₁ + k₂·P₂` (ECDSA verification) shares the doublings. The
//! **single inversion** sits at the very end, in the conversion back to
//! the affine [`Point`] that every public function takes and returns.
//!
//! **Not constant-time.** The field operations are branch-free, but these
//! steps depend on the secret scalar: the window's table lookup indexes
//! memory by a secret nibble; and `add` returns early when an operand is
//! the identity — every zero window, and the leading ones — and branches
//! to doubling (or the identity) when its operands meet. The Fermat
//! exponent is public. Grants and attestations are sealed, opened and
//! signed on their owner's device; a co-located attacker is outside what
//! this curve defends against.

use timecrypt_crypto::SecureRandom;

/// Four little-endian limbs: a Montgomery residue, or a raw value.
pub(crate) type Limbs = [u64; 4];

/// A scalar — a key, a nonce, half a signature: 32 bytes, big-endian.
pub type Scalar = [u8; 32];

/// An odd 256-bit modulus above 2²⁵⁵ with its Montgomery constants for
/// `R = 2²⁵⁶`.
pub(crate) struct Modulus {
    pub(crate) m: Limbs,
    /// `−m⁻¹ mod 2⁶⁴`.
    m0: u64,
    /// `R mod m`: one in Montgomery form.
    one: Limbs,
    /// `R² mod m`: multiplying by it enters Montgomery form.
    r2: Limbs,
}

/// The field prime `p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1`.
#[rustfmt::skip]
const FIELD: Modulus = Modulus {
    m: [0xffff_ffff_ffff_ffff, 0x0000_0000_ffff_ffff, 0, 0xffff_ffff_0000_0001],
    m0: 1,
    one: [1, 0xffff_ffff_0000_0000, 0xffff_ffff_ffff_ffff, 0x0000_0000_ffff_fffe],
    r2: [3, 0xffff_fffb_ffff_ffff, 0xffff_ffff_ffff_fffe, 0x0000_0004_ffff_fffd],
};

/// The group order `n`.
#[rustfmt::skip]
pub(crate) const ORDER: Modulus = Modulus {
    m: [0xf3b9_cac2_fc63_2551, 0xbce6_faad_a717_9e84, 0xffff_ffff_ffff_ffff, 0xffff_ffff_0000_0000],
    m0: 0xccd1_c8aa_ee00_bc4f,
    one: [0x0c46_353d_039c_daaf, 0x4319_0552_58e8_617b, 0, 0x0000_0000_ffff_ffff],
    r2: [0x8324_4c95_be79_eea2, 0x4699_799c_49bd_6fa6, 0x2845_b239_2b6b_ec59, 0x66e1_2d94_f3d9_5620],
};

/// The curve coefficient `b` of `y² = x³ − 3x + b`.
#[rustfmt::skip]
const B: Limbs = [0x3bce_3c3e_27d2_604b, 0x651d_06b0_cc53_b0f6, 0xb3eb_bd55_7698_86bc, 0x5ac6_35d8_aa3a_93e7];

/// The base point.
#[rustfmt::skip]
pub const G: Point = Point {
    xy: Some((
        [0xf4a1_3945_d898_c296, 0x7703_7d81_2deb_33a0, 0xf8bc_e6e5_63a4_40f2, 0x6b17_d1f2_e12c_4247],
        [0xcbb6_4068_37bf_51f5, 0x2bce_3357_6b31_5ece, 0x8ee7_eb4a_7c0f_9e16, 0x4fe3_42e2_fe1a_7f9b],
    )),
};

/// `acc + a·b + carry` as `(low, high)`; cannot overflow 128 bits.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` as `(difference, borrow out)`.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// `a < m`.
pub(crate) fn below(a: &Limbs, m: &Limbs) -> bool {
    let mut borrow = 0;
    for i in 0..4 {
        (_, borrow) = sbb(a[i], m[i], borrow);
    }
    borrow == 1
}

/// `carry·2²⁵⁶ + t`, known to be below `2m`, brought below `m`.
#[inline(always)]
fn correct(m: &Limbs, t: Limbs, carry: u64) -> Limbs {
    let (mut d, mut borrow) = ([0u64; 4], 0);
    for i in 0..4 {
        (d[i], borrow) = sbb(t[i], m[i], borrow);
    }
    // Keep `t` only when it was below `m`: no carry in, a borrow out. A
    // mask, because a branch here is a coin toss the predictor loses.
    let keep = ((carry ^ 1) & borrow).wrapping_neg();
    for i in 0..4 {
        d[i] = (t[i] & keep) | (d[i] & !keep);
    }
    d
}

/// A scalar's limbs.
pub(crate) fn limbs(k: &Scalar) -> Limbs {
    let mut out = [0u64; 4];
    for (limb, word) in out.iter_mut().rev().zip(k.as_chunks::<8>().0) {
        *limb = u64::from_be_bytes(*word);
    }
    out
}

/// Limbs as a scalar.
pub(crate) fn scalar(a: &Limbs) -> Scalar {
    let mut out = [0u8; 32];
    for (word, limb) in out.as_chunks_mut::<8>().0.iter_mut().zip(a.iter().rev()) {
        *word = limb.to_be_bytes();
    }
    out
}

impl Modulus {
    /// `a mod m` for any four limbs: below `2²⁵⁶`, so below `2m`.
    pub(crate) fn reduce(&self, a: &Limbs) -> Limbs {
        correct(&self.m, *a, 0)
    }

    /// `a + b mod m`.
    #[inline(always)]
    pub(crate) fn add(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let (mut t, mut carry) = ([0u64; 4], 0);
        for i in 0..4 {
            (t[i], carry) = mac(a[i], 1, b[i], carry);
        }
        correct(&self.m, t, carry)
    }

    /// `a − b mod m`: `m` is added back, masked by the borrow.
    #[inline(always)]
    fn sub(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let (mut t, mut borrow) = ([0u64; 4], 0);
        for i in 0..4 {
            (t[i], borrow) = sbb(a[i], b[i], borrow);
        }
        let (mask, mut carry) = (borrow.wrapping_neg(), 0);
        for (ti, mi) in t.iter_mut().zip(self.m) {
            (*ti, carry) = mac(*ti, 1, mi & mask, carry);
        }
        t
    }

    /// CIOS Montgomery product `a·b·R⁻¹ mod m`. `b` must be below `m`; `a`
    /// may be any four limbs.
    #[inline(always)]
    pub(crate) fn mul(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let mut t = [0u64; 6];
        for &ai in a {
            // t += aᵢ·b
            let mut carry = 0;
            for j in 0..4 {
                (t[j], carry) = mac(t[j], ai, b[j], carry);
            }
            (t[4], t[5]) = mac(t[4], 1, carry, 0);
            // t = (t + q·m) / 2⁶⁴ with q chosen to clear the low limb
            let q = t[0].wrapping_mul(self.m0);
            let (_, mut carry) = mac(t[0], q, self.m[0], 0);
            for j in 1..4 {
                (t[j - 1], carry) = mac(t[j], q, self.m[j], carry);
            }
            (t[3], carry) = mac(t[4], 1, carry, 0);
            t[4] = t[5] + carry;
        }
        correct(&self.m, [t[0], t[1], t[2], t[3]], t[4])
    }

    /// `a⁻¹ mod m` by Fermat, `a^(m−2)`, Montgomery form in and out
    /// (`m` is prime; zero maps to zero). The exponent is public.
    pub(crate) fn inv(&self, a: &Limbs) -> Limbs {
        let mut e = self.m;
        e[0] -= 2; // neither modulus ends in a limb below 2
        let mut acc = self.one;
        for i in (0..256).rev() {
            acc = self.mul(&acc, &acc);
            if (e[i / 64] >> (i % 64)) & 1 == 1 {
                acc = self.mul(&acc, a);
            }
        }
        acc
    }

    /// `a mod m` in Montgomery form, for any four limbs.
    pub(crate) fn to_mont(&self, a: &Limbs) -> Limbs {
        self.mul(a, &self.r2)
    }

    /// Out of Montgomery form: the canonical residue below `m`.
    pub(crate) fn to_raw(&self, a: &Limbs) -> Limbs {
        self.mul(a, &[1, 0, 0, 0])
    }
}

/// A point of the curve, or the identity. Only [`Point::decode`] and the
/// group operations make one, so every `Point` is on the curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// The affine coordinates, canonical; `None` for the identity.
    xy: Option<(Limbs, Limbs)>,
}

impl Point {
    /// The identity element.
    pub const INFINITY: Point = Point { xy: None };

    /// True for the identity.
    pub fn is_infinity(&self) -> bool {
        self.xy.is_none()
    }

    /// The affine `x`, canonical; `None` for the identity.
    pub(crate) fn x(&self) -> Option<Limbs> {
        self.xy.map(|(x, _)| x)
    }

    /// Fixed-size encoding: 0x00 for infinity, else 0x04 || x || y
    /// (uncompressed SEC1).
    pub fn encode(&self) -> Vec<u8> {
        match &self.xy {
            None => vec![0u8],
            Some((x, y)) => [&[4u8][..], &scalar(x), &scalar(y)].concat(),
        }
    }

    /// Parses [`encode`](Self::encode) output; checks that both
    /// coordinates are below `p` and the point is on the curve.
    pub fn decode(buf: &[u8]) -> Option<(Point, usize)> {
        match buf.first()? {
            0 => Some((Point::INFINITY, 1)),
            4 => {
                let (x, y) = buf.get(1..65)?.as_chunks::<32>().0.split_first()?;
                let (x, y) = (limbs(x), limbs(y.first()?));
                let on = below(&x, &FIELD.m) && below(&y, &FIELD.m) && on_curve(&x, &y);
                on.then_some((Point { xy: Some((x, y)) }, 65))
            }
            _ => None,
        }
    }
}

/// `y² = x³ − 3x + b` for canonical coordinates.
fn on_curve(x: &Limbs, y: &Limbs) -> bool {
    let f = &FIELD;
    let (x, y) = (f.to_mont(x), f.to_mont(y));
    let x3 = f.mul(&f.mul(&x, &x), &x);
    let x_3 = f.add(&f.add(&x, &x), &x);
    f.mul(&y, &y) == f.add(&f.sub(&x3, &x_3), &f.to_mont(&B))
}

/// A point `(X, Y, Z)` with coordinates in Montgomery form: affine
/// `(X/Z², Y/Z³)`, or the identity when `Z = 0`.
#[derive(Clone, Copy)]
struct Jacobian {
    x: Limbs,
    y: Limbs,
    z: Limbs,
}

const IDENTITY: Jacobian = Jacobian {
    x: FIELD.one,
    y: FIELD.one,
    z: [0; 4],
};

impl Jacobian {
    fn new(pt: &Point) -> Self {
        match &pt.xy {
            None => IDENTITY,
            Some((x, y)) => Jacobian {
                x: FIELD.to_mont(x),
                y: FIELD.to_mont(y),
                z: FIELD.one,
            },
        }
    }

    fn is_identity(&self) -> bool {
        self.z == [0; 4]
    }

    /// The affine point: the one field inversion of a group operation.
    fn to_affine(self) -> Point {
        if self.is_identity() {
            return Point::INFINITY;
        }
        let f = &FIELD;
        let zi = f.inv(&self.z);
        let zi2 = f.mul(&zi, &zi);
        let x = f.to_raw(&f.mul(&self.x, &zi2));
        let y = f.to_raw(&f.mul(&self.y, &f.mul(&zi2, &zi)));
        Point { xy: Some((x, y)) }
    }

    /// Doubling for `a = −3` (dbl-2001-b, 3M + 5S). The identity needs no
    /// branch: `Z = 0` gives `Z₃ = (Y + 0)² − Y² − 0 = 0`.
    fn double(&self) -> Jacobian {
        let f = &FIELD;
        let twice = |a: &Limbs| f.add(a, a);
        let delta = f.mul(&self.z, &self.z);
        let gamma = f.mul(&self.y, &self.y);
        let beta = f.mul(&self.x, &gamma);
        // alpha = 3·(X − delta)·(X + delta)
        let t = f.mul(&f.sub(&self.x, &delta), &f.add(&self.x, &delta));
        let alpha = f.add(&twice(&t), &t);
        let beta4 = twice(&twice(&beta));
        // X₃ = alpha² − 8·beta
        let x = f.sub(&f.mul(&alpha, &alpha), &twice(&beta4));
        // Z₃ = (Y + Z)² − gamma − delta
        let yz = f.add(&self.y, &self.z);
        let z = f.sub(&f.sub(&f.mul(&yz, &yz), &gamma), &delta);
        // Y₃ = alpha·(4·beta − X₃) − 8·gamma²
        let gamma2 = f.mul(&gamma, &gamma);
        let y = f.sub(
            &f.mul(&alpha, &f.sub(&beta4, &x)),
            &twice(&twice(&twice(&gamma2))),
        );
        Jacobian { x, y, z }
    }

    /// General addition (add-2007-bl, 11M + 5S), with the two cases its
    /// formulas cannot express — equal operands, opposite operands.
    fn add(&self, q: &Jacobian) -> Jacobian {
        if self.is_identity() {
            return *q;
        }
        if q.is_identity() {
            return *self;
        }
        let f = &FIELD;
        let z1z1 = f.mul(&self.z, &self.z);
        let z2z2 = f.mul(&q.z, &q.z);
        let u1 = f.mul(&self.x, &z2z2);
        let u2 = f.mul(&q.x, &z1z1);
        let s1 = f.mul(&self.y, &f.mul(&q.z, &z2z2));
        let s2 = f.mul(&q.y, &f.mul(&self.z, &z1z1));
        if u1 == u2 {
            return if s1 == s2 { self.double() } else { IDENTITY };
        }
        let h = f.sub(&u2, &u1);
        let h2 = f.add(&h, &h);
        let i = f.mul(&h2, &h2);
        let j = f.mul(&h, &i);
        let r = f.sub(&s2, &s1);
        let r = f.add(&r, &r);
        let v = f.mul(&u1, &i);
        // X₃ = r² − J − 2·V
        let x = f.sub(&f.sub(&f.sub(&f.mul(&r, &r), &j), &v), &v);
        // Y₃ = r·(V − X₃) − 2·S₁·J
        let s1j = f.mul(&s1, &j);
        let y = f.sub(&f.mul(&r, &f.sub(&v, &x)), &f.add(&s1j, &s1j));
        // Z₃ = ((Z₁ + Z₂)² − Z₁Z₁ − Z₂Z₂)·H
        let zz = f.add(&self.z, &q.z);
        let z = f.mul(&f.sub(&f.sub(&f.mul(&zz, &zz), &z1z1), &z2z2), &h);
        Jacobian { x, y, z }
    }
}

/// `Σ kᵢ·Pᵢ` over raw 256-bit scalars by a fixed 4-bit window: per term,
/// the multiples `0·P … 15·P`; then, most significant window first, four
/// doublings shared by all terms and one addition per term.
fn mul_sum<const N: usize>(terms: [(&Limbs, &Jacobian); N]) -> Jacobian {
    let mut tables = [[IDENTITY; 16]; N];
    for (table, (_, p)) in tables.iter_mut().zip(&terms) {
        for i in 1..16 {
            table[i] = table[i - 1].add(p); // i = 2 takes `add`'s doubling branch
        }
    }
    let mut acc = IDENTITY;
    for w in (0..64).rev() {
        for _ in 0..4 {
            acc = acc.double();
        }
        for (table, (k, _)) in tables.iter().zip(&terms) {
            acc = acc.add(&table[(k[w / 16] >> (4 * (w % 16))) as usize & 0xf]);
        }
    }
    acc
}

/// Point addition.
pub fn add(p: &Point, q: &Point) -> Point {
    Jacobian::new(p).add(&Jacobian::new(q)).to_affine()
}

/// Subtraction `p − q`: `p + (x_q, −y_q)`.
pub fn sub(p: &Point, q: &Point) -> Point {
    let minus_q = Point {
        xy: q.xy.map(|(x, y)| (x, FIELD.sub(&[0; 4], &y))),
    };
    add(p, &minus_q)
}

/// Scalar multiplication `k·P` for any 256-bit `k`, unreduced.
pub fn scalar_mul(k: &Scalar, p: &Point) -> Point {
    mul_sum([(&limbs(k), &Jacobian::new(p))]).to_affine()
}

/// `k·G` for the base point.
pub fn scalar_mul_base(k: &Scalar) -> Point {
    scalar_mul(k, &G)
}

/// `u₁·G + u₂·Q` for raw scalars, with one inversion: the ECDSA
/// verification equation.
pub(crate) fn mul_add_base(u1: &Limbs, u2: &Limbs, q: &Point) -> Point {
    mul_sum([(u1, &Jacobian::new(&G)), (u2, &Jacobian::new(q))]).to_affine()
}

/// A uniformly random scalar in `[1, n)`: 40 random bytes, reduced mod
/// `n − 1` (a bias below 2⁻⁶⁴), plus one.
pub fn random_scalar(rng: &mut SecureRandom) -> Scalar {
    let mut draw = [0u8; 40];
    rng.fill(&mut draw);
    let words = draw.as_chunks::<8>().0; // five, most significant first
    let mut hi = u64::from_be_bytes(words[0]);
    let mut lo: Limbs = std::array::from_fn(|i| u64::from_be_bytes(words[4 - i]));
    // 2²⁵⁶ ≡ c (mod n − 1) for c = 2²⁵⁶ − (n − 1) = (R mod n) + 1 < 2²²⁴:
    // fold the limb above 2²⁵⁶ back in as hi·c. It falls to at most 2³²,
    // then to at most 1 twice, then to 0: four folds, whatever the draw.
    let (mut c, mut n_1) = (ORDER.one, ORDER.m);
    c[0] += 1;
    n_1[0] -= 1;
    for _ in 0..4 {
        let mut carry = 0;
        for i in 0..4 {
            (lo[i], carry) = mac(lo[i], hi, c[i], carry);
        }
        hi = carry;
    }
    // lo < 2²⁵⁶ < 2(n − 1): one correction reduces it, and one more is
    // still below n.
    scalar(&ORDER.add(&correct(&n_1, lo, 0), &[1, 0, 0, 0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` as a scalar.
    fn k(v: u64) -> Scalar {
        scalar(&[v, 0, 0, 0])
    }

    /// 64 hex digits as 32 bytes.
    fn hex(s: &str) -> Scalar {
        std::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    /// The SEC1 encoding of the point with coordinates `x`, `y` in hex.
    fn sec1(x: &str, y: &str) -> Vec<u8> {
        [&[4u8][..], &hex(x), &hex(y)].concat()
    }

    /// `a + v`, wrapping.
    fn plus(a: &Limbs, v: u64) -> Limbs {
        let (mut out, mut carry) = (*a, v);
        for limb in &mut out {
            (*limb, carry) = mac(*limb, 1, carry, 0);
        }
        out
    }

    #[test]
    fn montgomery_constants_and_field_laws() {
        for md in [&FIELD, &ORDER] {
            assert_eq!(md.m0.wrapping_mul(md.m[0]), u64::MAX, "m0 = −m⁻¹ mod 2⁶⁴");
            assert!(below(&md.one, &md.m) && below(&md.r2, &md.m));
            assert_eq!(md.to_raw(&md.one), [1, 0, 0, 0], "one = R mod m");
            assert_eq!(md.to_raw(&md.r2), md.one, "r2 = R² mod m");
            let zero = [0u64; 4];
            let (mut m_minus_1, m_plus_1) = (md.m, plus(&md.m, 1));
            m_minus_1[0] -= 1; // m is odd
                               // Round trips of 0, 1, m − 1, and a value that enters unreduced.
            for v in [zero, [1, 0, 0, 0], m_minus_1] {
                assert_eq!(md.to_raw(&md.to_mont(&v)), v);
            }
            assert_eq!(md.to_mont(&[1, 0, 0, 0]), md.one);
            assert_eq!(md.to_mont(&m_plus_1), md.one);
            assert_eq!(md.reduce(&m_plus_1), [1, 0, 0, 0]);
            assert_eq!(md.reduce(&m_minus_1), m_minus_1);
            let top = md.to_mont(&m_minus_1);
            assert_eq!(md.add(&top, &md.one), zero, "(m − 1) + 1 = 0");
            assert_eq!(md.sub(&zero, &md.one), top, "0 − 1 = m − 1");
            assert_eq!(md.mul(&top, &top), md.one, "(−1)² = 1");
            for v in [2u64, 3, 0xffff_ffff_ffff_ffff] {
                let a = md.to_mont(&md.sub(&zero, &[v, 0, 0, 0]));
                assert_eq!(md.mul(&a, &md.inv(&a)), md.one, "a·a⁻¹ = 1");
            }
            assert_eq!(md.inv(&top), top);
            assert_eq!(md.inv(&zero), zero);
        }
    }

    #[test]
    fn scalars_and_limbs_round_trip() {
        let v = hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
        assert_eq!(
            limbs(&v),
            [
                0x191a_1b1c_1d1e_1f20,
                0x1112_1314_1516_1718,
                0x090a_0b0c_0d0e_0f10,
                0x0102_0304_0506_0708
            ]
        );
        assert_eq!(scalar(&limbs(&v)), v);
        assert!(below(&[5, 0, 0, 0], &[6, 0, 0, 0]) && !below(&[6, 0, 0, 0], &[6, 0, 0, 0]));
        assert!(below(&[u64::MAX, 0, 0, 0], &[0, 1, 0, 0]));
    }

    #[test]
    fn exceptional_additions() {
        let p = scalar_mul_base(&k(77));
        let inf = Point::INFINITY;
        assert!(scalar_mul(&k(5), &inf).is_infinity());
        assert!(add(&inf, &inf).is_infinity());
        assert_eq!(add(&p, &p), scalar_mul_base(&k(154)));
        assert!(sub(&p, &p).is_infinity());
        assert!(Jacobian::new(&inf).double().is_identity());
        // u₁·G + u₂·Q where the two running sums meet: Q = G.
        let u = [0x1234_5678, 0, 0, 0];
        assert_eq!(
            mul_add_base(&u, &u, &G),
            scalar_mul_base(&k(2 * 0x1234_5678))
        );
    }

    #[test]
    fn generator_is_on_curve() {
        let (x, y) = G.xy.unwrap();
        assert!(on_curve(&x, &y));
        assert_eq!(
            G.encode(),
            sec1(
                "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
                "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
            )
        );
    }

    #[test]
    fn off_curve_point_rejected() {
        assert!(!on_curve(&[1, 0, 0, 0], &[1, 0, 0, 0]));
        let mut bogus = [0u8; 65];
        (bogus[0], bogus[32], bogus[64]) = (4, 1, 1);
        assert!(Point::decode(&bogus).is_none());
    }

    #[test]
    fn group_order_annihilates_generator() {
        assert!(scalar_mul_base(&scalar(&ORDER.m)).is_infinity());
    }

    #[test]
    fn known_scalar_multiple() {
        // 2G for P-256 (published test vector).
        assert_eq!(
            scalar_mul_base(&k(2)).encode(),
            sec1(
                "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
                "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
            )
        );
    }

    #[test]
    fn addition_laws() {
        let g2 = scalar_mul_base(&k(2));
        let g3 = scalar_mul_base(&k(3));
        // G + 2G = 3G.
        assert_eq!(add(&G, &g2), g3);
        // Commutativity.
        assert_eq!(add(&g2, &G), g3);
        // Identity.
        assert_eq!(add(&G, &Point::INFINITY), G);
        assert_eq!(add(&Point::INFINITY, &G), G);
        // Inverse.
        assert!(sub(&G, &G).is_infinity());
        assert!(add(&G, &sub(&Point::INFINITY, &G)).is_infinity());
        // Doubling consistency: G + G = 2G.
        assert_eq!(add(&G, &G), g2);
    }

    #[test]
    fn scalar_mul_distributes() {
        let lhs = scalar_mul_base(&k(12345 + 67890));
        let rhs = add(&scalar_mul_base(&k(12345)), &scalar_mul_base(&k(67890)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn subtraction() {
        let g5 = scalar_mul_base(&k(5));
        let g3 = scalar_mul_base(&k(3));
        let g2 = scalar_mul_base(&k(2));
        assert_eq!(sub(&g5, &g3), g2);
        assert!(sub(&g5, &g5).is_infinity());
    }

    #[test]
    fn encode_decode_roundtrip() {
        for v in [1u64, 2, 7, 1000] {
            let p = scalar_mul_base(&k(v));
            let bytes = p.encode();
            let (q, used) = Point::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(q, p);
        }
        let (inf, used) = Point::decode(&Point::INFINITY.encode()).unwrap();
        assert!(inf.is_infinity());
        assert_eq!(used, 1);
    }

    #[test]
    fn dh_agreement() {
        let mut rng = SecureRandom::from_seed_insecure(9);
        let a = random_scalar(&mut rng);
        let b = random_scalar(&mut rng);
        let pa = scalar_mul_base(&a);
        let pb = scalar_mul_base(&b);
        assert_eq!(scalar_mul(&a, &pb), scalar_mul(&b, &pa));
    }
}
