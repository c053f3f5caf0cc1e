//! NIST P-256 (secp256r1 / prime256v1) group arithmetic.
//!
//! The paper's EC-ElGamal strawman uses OpenSSL's prime256v1 (§6 setup);
//! this is the from-scratch equivalent: field arithmetic through a
//! Montgomery context, Jacobian-coordinate point addition/doubling, and
//! double-and-add scalar multiplication. Not constant-time — it exists to
//! reproduce baseline *performance shape* and to power ECIES grant sealing.

use crate::bn::BigUint;
use crate::mont::{Mont, MontVal};
use std::sync::OnceLock;
use timecrypt_crypto::SecureRandom;

/// Curve constants and shared Montgomery context.
pub struct Curve {
    /// Field prime p.
    pub p: BigUint,
    /// Group order n.
    pub n: BigUint,
    /// Curve coefficient b (a = −3).
    pub b: BigUint,
    /// Base point.
    pub g: Point,
    mont: Mont,
    /// −3 mod p in Montgomery form.
    a_mont: MontVal,
    b_mont: MontVal,
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
        let mont = Mont::new(&p);
        let a = p.sub(&BigUint::from_u64(3)); // a = -3 mod p
        let a_mont = mont.to_mont(&a);
        let b_mont = mont.to_mont(&b);
        Curve {
            p,
            n,
            b,
            g: Point {
                coords: Some((gx, gy)),
            },
            mont,
            a_mont,
            b_mont,
        }
    })
}

/// Internal Jacobian point: (X, Y, Z) in Montgomery form, affine = (X/Z², Y/Z³).
struct Jacobian {
    x: MontVal,
    y: MontVal,
    z: MontVal,
    inf: bool,
}

impl Curve {
    fn zero_m(&self) -> MontVal {
        vec![0u64; self.mont.limbs()]
    }

    fn add_m(&self, a: &MontVal, b: &MontVal) -> MontVal {
        let av = BigUint::from_limbs(a.clone());
        let bv = BigUint::from_limbs(b.clone());
        let mut s = av.add_mod(&bv, &self.p).limbs().to_vec();
        s.resize(self.mont.limbs(), 0);
        s
    }

    fn sub_m(&self, a: &MontVal, b: &MontVal) -> MontVal {
        let av = BigUint::from_limbs(a.clone());
        let bv = BigUint::from_limbs(b.clone());
        let mut s = av.sub_mod(&bv, &self.p).limbs().to_vec();
        s.resize(self.mont.limbs(), 0);
        s
    }

    fn mul_m(&self, a: &MontVal, b: &MontVal) -> MontVal {
        self.mont.mul(a, b)
    }

    fn to_jacobian(&self, pt: &Point) -> Jacobian {
        match &pt.coords {
            None => Jacobian {
                x: self.zero_m(),
                y: self.zero_m(),
                z: self.zero_m(),
                inf: true,
            },
            Some((x, y)) => Jacobian {
                x: self.mont.to_mont(x),
                y: self.mont.to_mont(y),
                z: self.mont.one(),
                inf: false,
            },
        }
    }

    fn to_affine(&self, j: &Jacobian) -> Point {
        if j.inf {
            return Point::infinity();
        }
        let z = self.mont.from_mont(&j.z);
        let z_inv = z.modinv_odd(&self.p).expect("nonzero z");
        let z_inv_m = self.mont.to_mont(&z_inv);
        let z2 = self.mul_m(&z_inv_m, &z_inv_m);
        let z3 = self.mul_m(&z2, &z_inv_m);
        let x = self.mont.from_mont(&self.mul_m(&j.x, &z2));
        let y = self.mont.from_mont(&self.mul_m(&j.y, &z3));
        Point {
            coords: Some((x, y)),
        }
    }

    /// Jacobian doubling (dbl-2001-b, works for a = −3).
    fn double_j(&self, p: &Jacobian) -> Jacobian {
        if p.inf {
            return Jacobian {
                x: self.zero_m(),
                y: self.zero_m(),
                z: self.zero_m(),
                inf: true,
            };
        }
        let xx = self.mul_m(&p.x, &p.x);
        let yy = self.mul_m(&p.y, &p.y);
        let yyyy = self.mul_m(&yy, &yy);
        let zz = self.mul_m(&p.z, &p.z);
        // S = 2*((X+YY)^2 - XX - YYYY)
        let xpyy = self.add_m(&p.x, &yy);
        let t = self.mul_m(&xpyy, &xpyy);
        let t = self.sub_m(&self.sub_m(&t, &xx), &yyyy);
        let s = self.add_m(&t, &t);
        // M = 3*XX + a*ZZ^2
        let zz2 = self.mul_m(&zz, &zz);
        let m = self.add_m(&self.add_m(&xx, &xx), &xx);
        let m = self.add_m(&m, &self.mul_m(&self.a_mont, &zz2));
        // X3 = M^2 - 2*S
        let x3 = self.sub_m(&self.sub_m(&self.mul_m(&m, &m), &s), &s);
        // Y3 = M*(S - X3) - 8*YYYY
        let mut y8 = self.add_m(&yyyy, &yyyy);
        y8 = self.add_m(&y8, &y8);
        y8 = self.add_m(&y8, &y8);
        let y3 = self.sub_m(&self.mul_m(&m, &self.sub_m(&s, &x3)), &y8);
        // Z3 = (Y+Z)^2 - YY - ZZ
        let ypz = self.add_m(&p.y, &p.z);
        let z3 = self.sub_m(&self.sub_m(&self.mul_m(&ypz, &ypz), &yy), &zz);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
            inf: false,
        }
    }

    /// Mixed/general Jacobian addition (add-2007-bl).
    fn add_j(&self, p: &Jacobian, q: &Jacobian) -> Jacobian {
        if p.inf {
            return Jacobian {
                x: q.x.clone(),
                y: q.y.clone(),
                z: q.z.clone(),
                inf: q.inf,
            };
        }
        if q.inf {
            return Jacobian {
                x: p.x.clone(),
                y: p.y.clone(),
                z: p.z.clone(),
                inf: p.inf,
            };
        }
        let z1z1 = self.mul_m(&p.z, &p.z);
        let z2z2 = self.mul_m(&q.z, &q.z);
        let u1 = self.mul_m(&p.x, &z2z2);
        let u2 = self.mul_m(&q.x, &z1z1);
        let s1 = self.mul_m(&p.y, &self.mul_m(&q.z, &z2z2));
        let s2 = self.mul_m(&q.y, &self.mul_m(&p.z, &z1z1));
        if u1 == u2 {
            if s1 == s2 {
                return self.double_j(p);
            }
            return Jacobian {
                x: self.zero_m(),
                y: self.zero_m(),
                z: self.zero_m(),
                inf: true,
            };
        }
        let h = self.sub_m(&u2, &u1);
        let hh = self.mul_m(&h, &h);
        let i = self.add_m(&hh, &hh);
        let i = self.add_m(&i, &i);
        let j = self.mul_m(&h, &i);
        let r = self.sub_m(&s2, &s1);
        let r = self.add_m(&r, &r);
        let v = self.mul_m(&u1, &i);
        // X3 = r^2 - J - 2*V
        let x3 = self.sub_m(&self.sub_m(&self.sub_m(&self.mul_m(&r, &r), &j), &v), &v);
        // Y3 = r*(V - X3) - 2*S1*J
        let s1j = self.mul_m(&s1, &j);
        let y3 = self.sub_m(
            &self.mul_m(&r, &self.sub_m(&v, &x3)),
            &self.add_m(&s1j, &s1j),
        );
        // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
        let z1pz2 = self.add_m(&p.z, &q.z);
        let z3 = self.mul_m(
            &self.sub_m(&self.sub_m(&self.mul_m(&z1pz2, &z1pz2), &z1z1), &z2z2),
            &h,
        );
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
            inf: false,
        }
    }

    /// Point addition.
    pub fn add(&self, p: &Point, q: &Point) -> Point {
        self.to_affine(&self.add_j(&self.to_jacobian(p), &self.to_jacobian(q)))
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

    /// Scalar multiplication `k·P`, double-and-add.
    pub fn scalar_mul(&self, k: &BigUint, p: &Point) -> Point {
        let k = k.rem(&self.n);
        if k.is_zero() || p.is_infinity() {
            return Point::infinity();
        }
        let base = self.to_jacobian(p);
        let mut acc = Jacobian {
            x: self.zero_m(),
            y: self.zero_m(),
            z: self.zero_m(),
            inf: true,
        };
        for i in (0..k.bits()).rev() {
            acc = self.double_j(&acc);
            if k.bit(i) {
                acc = self.add_j(&acc, &base);
            }
        }
        self.to_affine(&acc)
    }

    /// `k·G` for the base point.
    pub fn scalar_mul_base(&self, k: &BigUint) -> Point {
        self.scalar_mul(k, &self.g)
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
                let xm = self.mont.to_mont(x);
                let ym = self.mont.to_mont(y);
                let y2 = self.mul_m(&ym, &ym);
                let x2 = self.mul_m(&xm, &xm);
                let x3 = self.mul_m(&x2, &xm);
                let ax = self.mul_m(&self.a_mont, &xm);
                let rhs = self.add_m(&self.add_m(&x3, &ax), &self.b_mont);
                y2 == rhs
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
