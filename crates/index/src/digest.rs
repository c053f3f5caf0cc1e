//! The homomorphic-digest abstraction the index aggregates over.
//!
//! TimeCrypt digests and plaintext digests are both `Vec<u64>` (HEAC has
//! zero ciphertext expansion and its addition is u64 wrapping addition —
//! Table 2's headline). The strawman encryptions (Paillier, EC-ElGamal)
//! implement the same trait in `timecrypt-bench` with their much larger
//! and slower ciphertexts, letting the identical index code reproduce the
//! paper's comparisons.

/// A digest vector the index can aggregate: an additive group with a
/// byte-serializable representation.
pub trait HomDigest: Clone + Send + Sync + 'static {
    /// A zero digest with the same shape (element count / parameters) as
    /// `self`. Aggregation identities: `x + zero = x`.
    fn zero_like(&self) -> Self;

    /// Homomorphic accumulation: `self += other`.
    fn add_assign(&mut self, other: &Self);

    /// Homomorphic difference: `self -= other`, the inverse of
    /// [`add_assign`](Self::add_assign) — two running sums' difference is
    /// the sum of the digests between them.
    fn sub_assign(&mut self, other: &Self);

    /// Serialized size in bytes (drives index-size accounting and the LRU
    /// cache budget).
    fn encoded_len(&self) -> usize;

    /// Appends the serialized form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Parses one digest from the front of `buf`, returning it and the
    /// bytes consumed.
    fn decode(buf: &[u8]) -> Option<(Self, usize)>
    where
        Self: Sized;

    /// Length of the digest encoded at the front of `buf`. (The index reads
    /// a digest where it lies in a stored record; this and the two methods
    /// below go through `decode` by default, all a strawman ciphertext
    /// needs; `Vec<u64>` touches the bytes alone.)
    fn encoded_len_at(buf: &[u8]) -> Option<usize> {
        Self::decode(buf).map(|(_, used)| used)
    }

    /// `self +=` the digest encoded at the front of `buf`; `None` if no
    /// digest that can be added to `self` is encoded there.
    fn add_encoded(&mut self, buf: &[u8]) -> Option<()> {
        self.add_assign(&Self::decode(buf)?.0);
        Some(())
    }

    /// `self -=` the digest encoded at the front of `buf`; `None` if no
    /// digest that can be subtracted from `self` is encoded there.
    fn sub_encoded(&mut self, buf: &[u8]) -> Option<()> {
        self.sub_assign(&Self::decode(buf)?.0);
        Some(())
    }
}

impl HomDigest for Vec<u64> {
    fn zero_like(&self) -> Self {
        vec![0u64; self.len()]
    }

    fn add_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.iter_mut().zip(other.iter()) {
            *a = a.wrapping_add(*b);
        }
    }

    fn sub_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.iter_mut().zip(other.iter()) {
            *a = a.wrapping_sub(*b);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self.len() * 8
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in self {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let total = Self::encoded_len_at(buf)?;
        let (words, _) = buf[4..total].as_chunks::<8>();
        let words = words.iter().map(|w| u64::from_le_bytes(*w));
        Some((words.collect(), total))
    }

    fn encoded_len_at(buf: &[u8]) -> Option<usize> {
        let width = u32::from_le_bytes(*buf.first_chunk()?) as usize;
        let total = width.checked_mul(8)?.checked_add(4)?;
        (total <= buf.len()).then_some(total)
    }

    fn add_encoded(&mut self, buf: &[u8]) -> Option<()> {
        zip_encoded(self, buf, u64::wrapping_add)
    }

    fn sub_encoded(&mut self, buf: &[u8]) -> Option<()> {
        zip_encoded(self, buf, u64::wrapping_sub)
    }
}

/// `digest[i] = op(digest[i], word i of buf)`; `None`, and `digest` as it
/// was, unless `buf` starts with a digest of `digest`'s width.
fn zip_encoded(digest: &mut [u64], buf: &[u8], op: fn(u64, u64) -> u64) -> Option<()> {
    let (words, _) = buf
        .get(4..<Vec<u64>>::encoded_len_at(buf)?)?
        .as_chunks::<8>();
    if words.len() != digest.len() {
        return None;
    }
    for (a, b) in digest.iter_mut().zip(words) {
        *a = op(*a, u64::from_le_bytes(*b));
    }
    Some(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `Vec<u64>` behind the required methods alone: every provided method
    /// is the decode-based default a strawman ciphertext gets.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct ByDefault(pub Vec<u64>);

    impl HomDigest for ByDefault {
        fn zero_like(&self) -> Self {
            ByDefault(self.0.zero_like())
        }
        fn add_assign(&mut self, other: &Self) {
            self.0.add_assign(&other.0)
        }
        fn sub_assign(&mut self, other: &Self) {
            self.0.sub_assign(&other.0)
        }
        fn encoded_len(&self) -> usize {
            self.0.encoded_len()
        }
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out)
        }
        fn decode(buf: &[u8]) -> Option<(Self, usize)> {
            <Vec<u64>>::decode(buf).map(|(d, used)| (ByDefault(d), used))
        }
    }

    #[test]
    fn the_allocation_free_overrides_do_what_the_defaults_do() {
        let (a, b) = (vec![1u64, u64::MAX, 7], vec![5u64, 3, u64::MAX - 1]);
        let mut buf = vec![0xEE; 5];
        b.encode(&mut buf);
        let entry = buf[5..].to_vec();
        // Trailing bytes are the next entry's business; a cut one is none.
        let long = [&entry[..], &[9; 3]].concat();
        for bytes in [&entry[..], &long] {
            assert_eq!(<Vec<u64>>::encoded_len_at(bytes), Some(entry.len()));
            assert_eq!(ByDefault::encoded_len_at(bytes), Some(entry.len()));
            let (mut fast, mut slow) = (a.clone(), ByDefault(a.clone()));
            assert_eq!(fast.add_encoded(bytes), Some(()));
            assert_eq!(slow.add_encoded(bytes), Some(()));
            assert_eq!((&fast, &fast), (&slow.0, &vec![6, 2, 5]));
            assert_eq!(fast.sub_encoded(bytes), Some(()));
            assert_eq!(slow.sub_encoded(bytes), Some(()));
            assert_eq!((&fast, &fast), (&slow.0, &a));
        }
        for cut in 0..entry.len() {
            assert_eq!(<Vec<u64>>::encoded_len_at(&entry[..cut]), None);
            assert_eq!(ByDefault::encoded_len_at(&entry[..cut]), None);
            assert_eq!(a.clone().add_encoded(&entry[..cut]), None);
            assert_eq!(ByDefault(a.clone()).sub_encoded(&entry[..cut]), None);
        }
        // Another width is refused and nothing is touched.
        let mut narrow = Vec::new();
        vec![1u64, 2].encode(&mut narrow);
        let mut fast = a.clone();
        assert_eq!(fast.add_encoded(&narrow), None);
        assert_eq!(fast.sub_encoded(&narrow), None);
        assert_eq!(fast, a);
    }

    #[test]
    fn u64_vec_monoid_laws() {
        let a = vec![1u64, 2, u64::MAX];
        let z = a.zero_like();
        let mut x = a.clone();
        x.add_assign(&z);
        assert_eq!(x, a);
        // Commutativity.
        let b = vec![5u64, 7, 3];
        let mut ab = a.clone();
        ab.add_assign(&b);
        let mut ba = b.clone();
        ba.add_assign(&a);
        assert_eq!(ab, ba);
        // Wrapping.
        assert_eq!(ab[2], 2); // MAX + 3 wraps to 2
                              // Subtraction undoes addition, wrapping.
        ab.sub_assign(&b);
        assert_eq!(ab, a);
    }

    #[test]
    fn u64_vec_codec_roundtrip() {
        let a = vec![0u64, 1, u64::MAX, 42];
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), a.encoded_len());
        let (b, used) = <Vec<u64>>::decode(&buf).unwrap();
        assert_eq!(b, a);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn u64_vec_decode_truncated() {
        let a = vec![1u64, 2, 3];
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert!(<Vec<u64>>::decode(&buf[..buf.len() - 1]).is_none());
        assert!(<Vec<u64>>::decode(&[]).is_none());
    }

    #[test]
    fn consecutive_decode() {
        let a = vec![1u64];
        let b = vec![2u64, 3];
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        let (x, n1) = <Vec<u64>>::decode(&buf).unwrap();
        let (y, n2) = <Vec<u64>>::decode(&buf[n1..]).unwrap();
        assert_eq!(x, a);
        assert_eq!(y, b);
        assert_eq!(n1 + n2, buf.len());
    }
}
