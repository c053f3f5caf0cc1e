//! `timecrypt_pk::p256` against an affine reference: `BigUint` schoolbook
//! arithmetic and a binary-GCD inversion per addition, sharing nothing
//! with the curve's limb code. The curve is driven through its public API,
//! points crossing over as SEC1 bytes and scalars as 32 big-endian bytes.

use proptest::prelude::*;
use timecrypt_bench::baselines::bn::BigUint;
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::p256::{self, Point, Scalar};

/// An affine point; `None` is the identity.
type Affine = Option<(BigUint, BigUint)>;

fn hex(s: &str) -> BigUint {
    BigUint::from_hex(s).unwrap()
}

/// The field prime.
fn p() -> BigUint {
    hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
}

/// The group order.
fn n() -> BigUint {
    hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
}

/// The curve coefficient `b`.
fn b() -> BigUint {
    hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
}

/// The base point.
fn g() -> Affine {
    Some((
        hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
        hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
    ))
}

/// `2^e`.
fn pow2(e: usize) -> BigUint {
    BigUint::one().shl(e)
}

/// `k < 2²⁵⁶` as a scalar.
fn scalar(k: &BigUint) -> Scalar {
    k.to_bytes_be_padded(32).try_into().unwrap()
}

/// The SEC1 bytes of `(x, y)`, coordinates as given.
fn sec1(x: &BigUint, y: &BigUint) -> Vec<u8> {
    [
        &[4u8][..],
        &x.to_bytes_be_padded(32),
        &y.to_bytes_be_padded(32),
    ]
    .concat()
}

/// The reference's point as the curve's.
fn point(a: &Affine) -> Point {
    let bytes = a.as_ref().map_or(vec![0], |(x, y)| sec1(x, y));
    Point::decode(&bytes).unwrap().0
}

/// The curve's point as the reference's.
fn affine(pt: &Point) -> Affine {
    let bytes = pt.encode();
    (bytes.len() == 65).then(|| {
        let (x, y) = bytes[1..].split_at(32);
        (BigUint::from_bytes_be(x), BigUint::from_bytes_be(y))
    })
}

fn ref_add(p1: &Affine, p2: &Affine) -> Affine {
    let m = &p();
    let (Some((x1, y1)), Some((x2, y2))) = (p1, p2) else {
        return if p1.is_none() { p2 } else { p1 }.clone();
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
        return None;
    };
    let x3 = mul(&lambda, &lambda).sub_mod(x1, m).sub_mod(x2, m);
    let y3 = mul(&lambda, &x1.sub_mod(&x3, m)).sub_mod(y1, m);
    Some((x3, y3))
}

fn ref_neg(a: &Affine) -> Affine {
    let m = p();
    a.as_ref().map(|(x, y)| (x.clone(), m.sub(y).rem(&m)))
}

/// Bitwise double-and-add over [`ref_add`]; any `k`, reduced or not.
fn ref_mul(k: &BigUint, a: &Affine) -> Affine {
    let mut acc = None;
    for i in (0..k.bits()).rev() {
        acc = ref_add(&acc, &acc);
        if k.bit(i) {
            acc = ref_add(&acc, a);
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
        let k = BigUint::from_limbs(k);
        let pa = ref_mul(&BigUint::from_limbs(a), &g());
        let qa = ref_mul(&BigUint::from_limbs(b), &g());
        let (pp, qp) = (point(&pa), point(&qa));
        prop_assert_eq!(affine(&p256::scalar_mul(&scalar(&k), &pp)), ref_mul(&k, &pa));
        prop_assert_eq!(affine(&p256::scalar_mul_base(&scalar(&k))), ref_mul(&k, &g()));
        prop_assert_eq!(affine(&p256::add(&pp, &qp)), ref_add(&pa, &qa));
        prop_assert_eq!(affine(&p256::sub(&pp, &qp)), ref_add(&pa, &ref_neg(&qa)));
    }
}

proptest! {
    /// A random scalar is its 40-byte draw, reduced mod `n − 1`, plus one —
    /// the draw every sealed grant and signature nonce has used.
    #[test]
    fn random_scalars_reduce_a_40_byte_draw(seed in any::<u64>()) {
        let mut draw = [0u8; 40];
        SecureRandom::from_seed_insecure(seed).fill(&mut draw);
        let one = BigUint::one();
        let expect = BigUint::from_bytes_be(&draw).rem(&n().sub(&one)).add(&one);
        let drawn = p256::random_scalar(&mut SecureRandom::from_seed_insecure(seed));
        prop_assert_eq!(drawn, scalar(&expect));
    }
}

#[test]
fn fixed_scalars_match_the_reference() {
    let (n, one) = (n(), BigUint::one());
    let pa = ref_mul(&BigUint::from_u64(0xdead_beef), &g());
    let pp = point(&pa);
    let mut ks: Vec<BigUint> = [0u64, 1, 2, 15, 16, 17].map(BigUint::from_u64).into();
    ks.extend([
        pow2(255),
        n.sub(&one),
        n.clone(),
        n.add(&one),
        pow2(256).sub(&one),
    ]);
    // Window patterns, unreduced: all 0x0, all 0xf, alternating.
    for limb in [0u64, u64::MAX, 0xf0f0_f0f0_f0f0_f0f0, 0x0f0f_0f0f_0f0f_0f0f] {
        ks.push(BigUint::from_limbs(vec![limb; 4]));
    }
    for k in &ks {
        let s = scalar(k);
        assert_eq!(
            affine(&p256::scalar_mul(&s, &pp)),
            ref_mul(k, &pa),
            "k = {k:?}"
        );
        assert_eq!(
            affine(&p256::scalar_mul_base(&s)),
            ref_mul(k, &g()),
            "k = {k:?}"
        );
    }
    assert!(p256::scalar_mul(&scalar(&n), &pp).is_infinity());
    assert_eq!(p256::scalar_mul(&scalar(&n.add(&one)), &pp), pp);
}

#[test]
fn exceptional_additions_match_the_reference() {
    let pa = ref_mul(&BigUint::from_u64(77), &g());
    let pp = point(&pa);
    assert_eq!(affine(&p256::add(&pp, &pp)), ref_add(&pa, &pa));
    assert!(p256::add(&pp, &point(&ref_neg(&pa))).is_infinity());
    // k = n + 30 ends in the nibble 0xf: before the last addition the
    // accumulator is (n + 15)·P = 15·P — the table entry it meets.
    let k = n().add(&BigUint::from_u64(30));
    let thirty = ref_mul(&BigUint::from_u64(30), &pa);
    assert_eq!(affine(&p256::scalar_mul(&scalar(&k), &pp)), thirty);
    // k = n: the last addition is (−1)·P + 1·P.
    assert!(p256::scalar_mul(&scalar(&n()), &pp).is_infinity());
}

#[test]
fn unreduced_coordinate_is_rejected() {
    // A point with a tiny x, so that x + p still fits 32 bytes: the first
    // x whose x³ − 3x + b is a square, y its root a^((p+1)/4).
    let m = p();
    let mul = |a: &BigUint, b: &BigUint| a.mul(b).rem(&m);
    let e = m.add(&BigUint::one()).shr(2);
    let (x, y) = (1u64..)
        .find_map(|x| {
            let x = BigUint::from_u64(x);
            let rhs = mul(&mul(&x, &x), &x)
                .sub_mod(&mul(&BigUint::from_u64(3), &x), &m)
                .add_mod(&b(), &m);
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
    assert!(Point::decode(&sec1(&x, &y)).is_some());
    assert!(Point::decode(&sec1(&x.add(&m), &y)).is_none());
    // And y: the curve point with y = 1 (x solved offline from
    // x³ − 3x + b − 1 = 0 mod p), so that y + p fits 32 bytes too.
    let x = hex("09e78d4ef60d05f750f6636209092bc43cbdd6b47e11a9de20a9feb2a50bb96c");
    let y = BigUint::one();
    assert!(Point::decode(&sec1(&x, &y)).is_some());
    assert!(Point::decode(&sec1(&x, &y.add(&m))).is_none());
}
