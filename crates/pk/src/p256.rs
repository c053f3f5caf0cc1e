//! NIST P-256 (secp256r1 / prime256v1) group arithmetic — the curve under
//! every sealed grant ([`ecies`](crate::ecies)) and every signed
//! attestation ([`ecdsa`](crate::ecdsa)).
//!
//! **Representation.** A residue is four little-endian `u64` limbs on the
//! stack in Montgomery form `a·2²⁵⁶ mod m`, always below its modulus: the
//! field prime `p` for coordinates, the group order `n` for ECDSA's scalar
//! arithmetic. Multiplication is a 4×4 CIOS pass (`−p⁻¹ mod 2⁶⁴ = 1`),
//! addition and subtraction end in one masked correction, inversion is
//! Fermat's `a^(m−2)`; nothing allocates. Points are Jacobian `(X, Y, Z)`
//! = affine `(X/Z², Y/Z³)`, `Z = 0` the identity, passed by value.
//!
//! **Scalar multiplication** is a fixed 4-bit window: the multiples
//! `0·P … 15·P` are built once per call on the stack, then each of the 64
//! windows, most significant first, costs four doublings and one addition;
//! a sum `k₁·P₁ + k₂·P₂` (ECDSA verification) shares the doublings. The
//! **single inversion** sits at the very end, in the conversion back to
//! the affine [`Point`] of `BigUint` coordinates that every public
//! function takes and returns and that keys, blobs and signatures encode.
//!
//! **Not constant-time.** The field operations are branch-free, but these
//! steps depend on the secret scalar: the window's table lookup indexes
//! memory by a secret nibble; `add` returns early when an operand is the
//! identity — every zero window, and the leading ones — and branches to
//! doubling (or the identity) when its operands meet; and the `BigUint`
//! work at the boundary (reducing the scalar mod `n`, drawing it) runs in
//! time that depends on the value's length. The Fermat exponent is public.
//! Grants and attestations are sealed, opened and signed on their owner's
//! device; a co-located attacker is outside what this curve defends against.

use crate::bn::BigUint;
use std::sync::OnceLock;
use timecrypt_crypto::SecureRandom;

/// Four little-endian limbs: a Montgomery residue, or a raw scalar.
pub(crate) type Limbs = [u64; 4];

/// An odd 256-bit modulus with its Montgomery constants for `R = 2²⁵⁶`.
pub(crate) struct Modulus {
    m: Limbs,
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

/// The low four limbs of a value that fits them.
pub(crate) fn limbs4(v: &BigUint) -> Limbs {
    let mut out = [0u64; 4];
    out[..v.limbs().len()].copy_from_slice(v.limbs());
    out
}

impl Modulus {
    /// `carry·2²⁵⁶ + t`, known to be below `2m`, brought below `m`.
    #[inline(always)]
    fn correct(&self, t: Limbs, carry: u64) -> Limbs {
        let (mut d, mut borrow) = ([0u64; 4], 0);
        for i in 0..4 {
            (d[i], borrow) = sbb(t[i], self.m[i], borrow);
        }
        // Keep `t` only when it was below `m`: no carry in, a borrow out. A
        // mask, because a branch here is a coin toss the predictor loses.
        let keep = ((carry ^ 1) & borrow).wrapping_neg();
        for i in 0..4 {
            d[i] = (t[i] & keep) | (d[i] & !keep);
        }
        d
    }

    /// `a + b mod m`.
    #[inline(always)]
    pub(crate) fn add(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let (mut t, mut carry) = ([0u64; 4], 0);
        for i in 0..4 {
            (t[i], carry) = mac(a[i], 1, b[i], carry);
        }
        self.correct(t, carry)
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
        self.correct([t[0], t[1], t[2], t[3]], t[4])
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

    /// `v mod m` in Montgomery form, for a `v` of at most 256 bits — all a
    /// decoder lets through, and what `rem` leaves of a scalar.
    pub(crate) fn to_mont(&self, v: &BigUint) -> Limbs {
        self.mul(&limbs4(v), &self.r2)
    }

    /// Out of Montgomery form: the canonical residue below `m`.
    pub(crate) fn to_raw(&self, a: &Limbs) -> Limbs {
        self.mul(a, &[1, 0, 0, 0])
    }
}

/// Curve constants.
pub struct Curve {
    /// Field prime p.
    pub p: BigUint,
    /// Group order n.
    pub n: BigUint,
    /// Curve coefficient b (a = −3).
    pub b: BigUint,
    /// Base point.
    pub g: Point,
}

/// A point in affine coordinates (None = point at infinity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point {
    /// Affine coordinates, or `None` for the identity.
    pub coords: Option<(BigUint, BigUint)>,
}

impl Point {
    /// The identity element.
    pub fn infinity() -> Self {
        Point { coords: None }
    }

    /// True for the identity.
    pub fn is_infinity(&self) -> bool {
        self.coords.is_none()
    }

    /// Fixed-size encoding: 0x00 for infinity, else 0x04 || x || y
    /// (uncompressed SEC1).
    pub fn encode(&self) -> Vec<u8> {
        match &self.coords {
            None => vec![0u8],
            Some((x, y)) => {
                let mut out = Vec::with_capacity(65);
                out.push(4u8);
                out.extend_from_slice(&x.to_bytes_be_padded(32));
                out.extend_from_slice(&y.to_bytes_be_padded(32));
                out
            }
        }
    }

    /// Parses [`encode`](Self::encode) output; checks curve membership.
    pub fn decode(buf: &[u8]) -> Option<(Point, usize)> {
        match buf.first()? {
            0 => Some((Point::infinity(), 1)),
            4 => {
                if buf.len() < 65 {
                    return None;
                }
                let x = BigUint::from_bytes_be(&buf[1..33]);
                let y = BigUint::from_bytes_be(&buf[33..65]);
                let pt = Point {
                    coords: Some((x, y)),
                };
                if curve().is_on_curve(&pt) {
                    Some((pt, 65))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// The process-wide curve instance.
pub fn curve() -> &'static Curve {
    static CURVE: OnceLock<Curve> = OnceLock::new();
    CURVE.get_or_init(|| {
        let p =
            BigUint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
                .unwrap();
        let n =
            BigUint::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
                .unwrap();
        let b =
            BigUint::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
                .unwrap();
        let gx =
            BigUint::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
                .unwrap();
        let gy =
            BigUint::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
                .unwrap();
        Curve {
            p,
            n,
            b,
            g: Point {
                coords: Some((gx, gy)),
            },
        }
    })
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
        match &pt.coords {
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
            return Point::infinity();
        }
        let f = &FIELD;
        let zi = f.inv(&self.z);
        let zi2 = f.mul(&zi, &zi);
        let x = f.to_raw(&f.mul(&self.x, &zi2));
        let y = f.to_raw(&f.mul(&self.y, &f.mul(&zi2, &zi)));
        Point {
            coords: Some((
                BigUint::from_limbs(x.to_vec()),
                BigUint::from_limbs(y.to_vec()),
            )),
        }
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

impl Curve {
    /// Point addition.
    pub fn add(&self, p: &Point, q: &Point) -> Point {
        Jacobian::new(p).add(&Jacobian::new(q)).to_affine()
    }

    /// Point negation.
    pub fn neg(&self, p: &Point) -> Point {
        match &p.coords {
            None => Point::infinity(),
            Some((x, y)) => Point {
                coords: Some((x.clone(), self.p.sub(y).rem(&self.p))),
            },
        }
    }

    /// Subtraction `p − q`.
    pub fn sub(&self, p: &Point, q: &Point) -> Point {
        self.add(p, &self.neg(q))
    }

    /// Scalar multiplication `k·P` (`k` is reduced mod `n` first).
    pub fn scalar_mul(&self, k: &BigUint, p: &Point) -> Point {
        let k = limbs4(&k.rem(&self.n));
        mul_sum([(&k, &Jacobian::new(p))]).to_affine()
    }

    /// `k·G` for the base point.
    pub fn scalar_mul_base(&self, k: &BigUint) -> Point {
        self.scalar_mul(k, &self.g)
    }

    /// `u₁·G + u₂·Q` for raw scalars below `n`, with one inversion: the
    /// ECDSA verification equation.
    pub(crate) fn mul_add_base(&self, u1: &Limbs, u2: &Limbs, q: &Point) -> Point {
        mul_sum([(u1, &Jacobian::new(&self.g)), (u2, &Jacobian::new(q))]).to_affine()
    }

    /// Curve-membership check: y² = x³ − 3x + b.
    pub fn is_on_curve(&self, pt: &Point) -> bool {
        match &pt.coords {
            None => true,
            Some((x, y)) => {
                if x.cmp_val(&self.p) != std::cmp::Ordering::Less
                    || y.cmp_val(&self.p) != std::cmp::Ordering::Less
                {
                    return false;
                }
                let f = &FIELD;
                let (x, y) = (f.to_mont(x), f.to_mont(y));
                let x3 = f.mul(&f.mul(&x, &x), &x);
                let x_3 = f.add(&f.add(&x, &x), &x);
                f.mul(&y, &y) == f.add(&f.sub(&x3, &x_3), &f.to_mont(&self.b))
            }
        }
    }

    /// A uniformly random scalar in [1, n).
    pub fn random_scalar(&self, rng: &mut SecureRandom) -> BigUint {
        let mut bytes = [0u8; 40];
        rng.fill(&mut bytes);
        BigUint::from_bytes_be(&bytes)
            .rem(&self.n.sub(&BigUint::one()))
            .add(&BigUint::one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `2^e`.
    fn pow2(e: usize) -> BigUint {
        BigUint::one().shl(e)
    }

    /// `k·P` as the window computes it: raw limbs, no reduction mod `n`.
    fn window(k: &BigUint, p: &Point) -> Point {
        mul_sum([(&limbs4(k), &Jacobian::new(p))]).to_affine()
    }

    /// Affine reference, `BigUint` schoolbook arithmetic and a binary-GCD
    /// inversion per addition: shares nothing with the limb code.
    fn ref_add(p: &Point, q: &Point) -> Point {
        let m = &curve().p;
        let (Some((x1, y1)), Some((x2, y2))) = (&p.coords, &q.coords) else {
            return if p.is_infinity() { q } else { p }.clone();
        };
        let mul = |a: &BigUint, b: &BigUint| a.mul(b).rem(m);
        let lambda = if x1 != x2 {
            mul(
                &y2.sub_mod(y1, m),
                &x2.sub_mod(x1, m).modinv_odd(m).unwrap(),
            )
        } else if y1 == y2 && !y1.is_zero() {
            // (3x² − 3) / 2y
            let three = BigUint::from_u64(3);
            mul(
                &mul(&three, &mul(x1, x1)).sub_mod(&three, m),
                &y1.add_mod(y1, m).modinv_odd(m).unwrap(),
            )
        } else {
            return Point::infinity();
        };
        let x3 = mul(&lambda, &lambda).sub_mod(x1, m).sub_mod(x2, m);
        let y3 = mul(&lambda, &x1.sub_mod(&x3, m)).sub_mod(y1, m);
        Point {
            coords: Some((x3, y3)),
        }
    }

    /// Bitwise double-and-add over [`ref_add`]; any `k`, reduced or not.
    fn ref_mul(k: &BigUint, p: &Point) -> Point {
        let mut acc = Point::infinity();
        for i in (0..k.bits()).rev() {
            acc = ref_add(&acc, &acc);
            if k.bit(i) {
                acc = ref_add(&acc, p);
            }
        }
        acc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn group_operations_match_the_affine_reference(
            k in proptest::collection::vec(any::<u64>(), 4),
            a in proptest::collection::vec(any::<u64>(), 2),
            b in proptest::collection::vec(any::<u64>(), 2),
        ) {
            let c = curve();
            let k = BigUint::from_limbs(k);
            let p = ref_mul(&BigUint::from_limbs(a), &c.g);
            let q = ref_mul(&BigUint::from_limbs(b), &c.g);
            prop_assert_eq!(c.scalar_mul(&k, &p), ref_mul(&k, &p));
            prop_assert_eq!(c.scalar_mul_base(&k), ref_mul(&k, &c.g));
            prop_assert_eq!(c.add(&p, &q), ref_add(&p, &q));
            prop_assert_eq!(c.sub(&p, &q), ref_add(&p, &c.neg(&q)));
        }
    }

    #[test]
    fn fixed_scalars_match_the_reference() {
        let c = curve();
        let p = ref_mul(&BigUint::from_u64(0xdead_beef), &c.g);
        let one = BigUint::one();
        let mut ks: Vec<BigUint> = [0u64, 1, 2, 15, 16, 17].map(BigUint::from_u64).into();
        ks.extend([
            pow2(255),
            c.n.sub(&one),
            c.n.clone(),
            c.n.add(&one),
            pow2(256).sub(&one),
        ]);
        for k in &ks {
            assert_eq!(c.scalar_mul(k, &p), ref_mul(k, &p), "k = {k:?}");
            assert_eq!(c.scalar_mul_base(k), ref_mul(k, &c.g), "k = {k:?}");
        }
        assert!(c.scalar_mul(&c.n, &p).is_infinity());
        assert_eq!(c.scalar_mul(&c.n.add(&one), &p), p);
        // Window patterns, unreduced: all 0x0, all 0xf, alternating.
        for limb in [0u64, u64::MAX, 0xf0f0_f0f0_f0f0_f0f0, 0x0f0f_0f0f_0f0f_0f0f] {
            let k = BigUint::from_limbs(vec![limb; 4]);
            assert_eq!(window(&k, &p), ref_mul(&k, &p), "limb = {limb:#x}");
        }
    }

    #[test]
    fn exceptional_additions() {
        let c = curve();
        let p = ref_mul(&BigUint::from_u64(77), &c.g);
        let inf = Point::infinity();
        assert!(c.scalar_mul(&BigUint::from_u64(5), &inf).is_infinity());
        assert!(c.add(&inf, &inf).is_infinity());
        assert_eq!(c.add(&p, &p), ref_add(&p, &p));
        assert!(c.add(&p, &c.neg(&p)).is_infinity());
        assert!(Jacobian::new(&inf).double().is_identity());
        // k = n + 30 ends in the nibble 0xf: before the last addition the
        // accumulator is (n + 15)·P = 15·P — the table entry it meets.
        let k = c.n.add(&BigUint::from_u64(30));
        assert_eq!(window(&k, &p), ref_mul(&BigUint::from_u64(30), &p));
        // k = n: the last addition is (−1)·P + 1·P.
        assert!(window(&c.n, &p).is_infinity());
        // u₁·G + u₂·Q where the two running sums meet: Q = G.
        let u = limbs4(&BigUint::from_u64(0x1234_5678));
        assert_eq!(
            c.mul_add_base(&u, &u, &c.g),
            ref_mul(&BigUint::from_u64(2 * 0x1234_5678), &c.g)
        );
    }

    #[test]
    fn montgomery_constants_and_field_laws() {
        let c = curve();
        for (md, m) in [(&FIELD, &c.p), (&ORDER, &c.n)] {
            assert_eq!(&BigUint::from_limbs(md.m.to_vec()), m);
            assert_eq!(md.m0.wrapping_mul(md.m[0]), u64::MAX, "m0 = −m⁻¹ mod 2⁶⁴");
            assert_eq!(BigUint::from_limbs(md.one.to_vec()), pow2(256).rem(m));
            assert_eq!(BigUint::from_limbs(md.r2.to_vec()), pow2(512).rem(m));
            let zero = [0u64; 4];
            let m_minus_1 = m.sub(&BigUint::one());
            // Round trips of 0, 1, m − 1, and a value that enters unreduced.
            for v in [BigUint::zero(), BigUint::one(), m_minus_1.clone()] {
                assert_eq!(md.to_raw(&md.to_mont(&v)), limbs4(&v));
            }
            assert_eq!(md.to_mont(&BigUint::one()), md.one);
            assert_eq!(md.to_mont(&m.add(&BigUint::one())), md.one);
            let top = md.to_mont(&m_minus_1);
            assert_eq!(md.add(&top, &md.one), zero, "(m − 1) + 1 = 0");
            assert_eq!(md.sub(&zero, &md.one), top, "0 − 1 = m − 1");
            assert_eq!(md.mul(&top, &top), md.one, "(−1)² = 1");
            for v in [2u64, 3, 0xffff_ffff_ffff_ffff] {
                let a = md.to_mont(&BigUint::from_u64(v).mul(&m_minus_1).rem(m));
                assert_eq!(md.mul(&a, &md.inv(&a)), md.one, "a·a⁻¹ = 1");
            }
            assert_eq!(md.inv(&top), top);
            assert_eq!(md.inv(&zero), zero);
        }
    }

    #[test]
    fn unreduced_coordinate_is_rejected() {
        // A point with a tiny x, so that x + p still fits 32 bytes: the
        // first x whose x³ − 3x + b is a square, y its root a^((p+1)/4).
        let c = curve();
        let mul = |a: &BigUint, b: &BigUint| a.mul(b).rem(&c.p);
        let e = c.p.add(&BigUint::one()).shr(2);
        let (x, y) = (1u64..)
            .find_map(|x| {
                let x = BigUint::from_u64(x);
                let rhs = mul(&mul(&x, &x), &x)
                    .sub_mod(&mul(&BigUint::from_u64(3), &x), &c.p)
                    .add_mod(&c.b, &c.p);
                let mut y = BigUint::one();
                for i in (0..e.bits()).rev() {
                    y = mul(&y, &y);
                    if e.bit(i) {
                        y = mul(&y, &rhs);
                    }
                }
                (mul(&y, &y) == rhs).then_some((x, y))
            })
            .unwrap();
        let encode = |x: &BigUint| {
            Point {
                coords: Some((x.clone(), y.clone())),
            }
            .encode()
        };
        assert!(Point::decode(&encode(&x)).is_some());
        assert!(Point::decode(&encode(&x.add(&c.p))).is_none());
        let swapped = Point {
            coords: Some((x.clone(), y.add(&c.p))),
        };
        assert!(!c.is_on_curve(&swapped));
    }

    #[test]
    fn generator_is_on_curve() {
        let c = curve();
        assert!(c.is_on_curve(&c.g));
        assert!(c.is_on_curve(&Point::infinity()));
    }

    #[test]
    fn off_curve_point_rejected() {
        let c = curve();
        let bogus = Point {
            coords: Some((BigUint::from_u64(1), BigUint::from_u64(1))),
        };
        assert!(!c.is_on_curve(&bogus));
        assert!(Point::decode(&bogus.encode()).is_none());
    }

    #[test]
    fn group_order_annihilates_generator() {
        let c = curve();
        assert!(c.scalar_mul_base(&c.n).is_infinity());
    }

    #[test]
    fn known_scalar_multiple() {
        // 2G for P-256 (published test vector).
        let c = curve();
        let two_g = c.scalar_mul_base(&BigUint::from_u64(2));
        let (x, y) = two_g.coords.clone().unwrap();
        assert_eq!(
            x,
            BigUint::from_hex("7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978")
                .unwrap()
        );
        assert_eq!(
            y,
            BigUint::from_hex("07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1")
                .unwrap()
        );
        assert!(c.is_on_curve(&two_g));
    }

    #[test]
    fn addition_laws() {
        let c = curve();
        let g2 = c.scalar_mul_base(&BigUint::from_u64(2));
        let g3 = c.scalar_mul_base(&BigUint::from_u64(3));
        // G + 2G = 3G.
        assert_eq!(c.add(&c.g, &g2), g3);
        // Commutativity.
        assert_eq!(c.add(&g2, &c.g), g3);
        // Identity.
        assert_eq!(c.add(&c.g, &Point::infinity()), c.g);
        assert_eq!(c.add(&Point::infinity(), &c.g), c.g);
        // Inverse.
        assert!(c.add(&c.g, &c.neg(&c.g)).is_infinity());
        // Doubling consistency: G + G = 2G.
        assert_eq!(c.add(&c.g, &c.g), g2);
    }

    #[test]
    fn scalar_mul_distributes() {
        let c = curve();
        let a = BigUint::from_u64(12345);
        let b = BigUint::from_u64(67890);
        let lhs = c.scalar_mul_base(&a.add(&b));
        let rhs = c.add(&c.scalar_mul_base(&a), &c.scalar_mul_base(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn subtraction() {
        let c = curve();
        let g5 = c.scalar_mul_base(&BigUint::from_u64(5));
        let g3 = c.scalar_mul_base(&BigUint::from_u64(3));
        let g2 = c.scalar_mul_base(&BigUint::from_u64(2));
        assert_eq!(c.sub(&g5, &g3), g2);
        assert!(c.sub(&g5, &g5).is_infinity());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = curve();
        for k in [1u64, 2, 7, 1000] {
            let p = c.scalar_mul_base(&BigUint::from_u64(k));
            let bytes = p.encode();
            let (q, used) = Point::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(q, p);
        }
        let (inf, used) = Point::decode(&Point::infinity().encode()).unwrap();
        assert!(inf.is_infinity());
        assert_eq!(used, 1);
    }

    #[test]
    fn dh_agreement() {
        let c = curve();
        let mut rng = SecureRandom::from_seed_insecure(9);
        let a = c.random_scalar(&mut rng);
        let b = c.random_scalar(&mut rng);
        let pa = c.scalar_mul_base(&a);
        let pb = c.scalar_mul_base(&b);
        assert_eq!(c.scalar_mul(&a, &pb), c.scalar_mul(&b, &pa));
    }
}
