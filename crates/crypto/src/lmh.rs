//! Length-matching hash (paper §A.1.5).
//!
//! HEAC's plaintext space is 64-bit integers (`M = 2^64`) while the PRF/tree
//! outputs are 128-bit. To avoid 64 bits of ciphertext expansion, the paper
//! applies a *length-matching hash* `h : {0,1}^128 -> {0,1}^64` that maps
//! uniform inputs to uniform outputs. The construction used (and analyzed in
//! the Castelluccia scheme) is to split the PRF output into substrings of the
//! target width and XOR them together — that is exactly what [`fold_u64`]
//! does. No collision resistance is required; uniformity-preservation is the
//! only property needed for the security proof to go through.

use crate::Seed128;

/// Folds a 128-bit pseudorandom value to 64 bits by XORing its two halves.
#[inline]
pub fn fold_u64(x: &Seed128) -> u64 {
    let v = u128::from_be_bytes(*x);
    ((v >> 64) as u64) ^ (v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_zero_is_zero() {
        assert_eq!(fold_u64(&[0u8; 16]), 0);
    }

    #[test]
    fn fold_equal_halves_is_zero() {
        // If both halves are identical the XOR cancels — a structural check
        // that we are folding halves, not truncating.
        let mut x = [0u8; 16];
        for i in 0..8 {
            x[i] = i as u8 + 1;
            x[i + 8] = i as u8 + 1;
        }
        assert_eq!(fold_u64(&x), 0);
    }

    #[test]
    fn fold_uses_both_halves() {
        let mut a = [0u8; 16];
        a[0] = 1;
        let mut b = [0u8; 16];
        b[8] = 1;
        assert_ne!(fold_u64(&a), 0);
        assert_ne!(fold_u64(&b), 0);
        // Flipping a bit in either half changes the output.
        assert_ne!(fold_u64(&a), fold_u64(&[0u8; 16]));
        assert_ne!(fold_u64(&b), fold_u64(&[0u8; 16]));
    }

    #[test]
    fn fold_is_linear_in_xor() {
        // h(x ^ y) = h(x) ^ h(y): folding is GF(2)-linear, which the
        // uniformity argument relies on.
        let x: [u8; 16] = *b"0123456789abcdef";
        let y: [u8; 16] = *b"fedcba9876543210";
        let mut xy = [0u8; 16];
        for i in 0..16 {
            xy[i] = x[i] ^ y[i];
        }
        assert_eq!(fold_u64(&xy), fold_u64(&x) ^ fold_u64(&y));
    }
}
