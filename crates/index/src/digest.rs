//! The homomorphic-digest abstraction the index aggregates over.
//!
//! TimeCrypt digests and plaintext digests are both `Vec<u64>` (HEAC has
//! zero ciphertext expansion and its addition is u64 wrapping addition —
//! Table 2's headline). The strawman encryptions (Paillier, EC-ElGamal)
//! implement the same trait in `timecrypt-bench` with their much larger
//! and slower ciphertexts, letting the identical index code reproduce the
//! paper's comparisons.

/// A digest vector the index can aggregate: an additive monoid with a
/// byte-serializable representation.
pub trait HomDigest: Clone + Send + Sync + 'static {
    /// A zero digest with the same shape (element count / parameters) as
    /// `self`. Aggregation identities: `x + zero = x`.
    fn zero_like(&self) -> Self;

    /// Homomorphic accumulation: `self += other`.
    fn add_assign(&mut self, other: &Self);

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
        if buf.len() < 4 {
            return None;
        }
        let n = u32::from_le_bytes(buf[..4].try_into().ok()?) as usize;
        let total = 4 + n * 8;
        if buf.len() < total {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            v.push(u64::from_le_bytes(
                buf[4 + i * 8..12 + i * 8].try_into().ok()?,
            ));
        }
        Some((v, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
