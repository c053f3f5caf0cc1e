//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! TimeCrypt encrypts raw chunk payloads with randomized AES-GCM-128
//! (paper §4.1), with the per-chunk key derived as `H(k_i - k_{i+1})`
//! (§4.3). The digest is HEAC-encrypted separately; GCM protects the bulk
//! compressed data points and authenticates them.

use crate::backend::{Backend, Dispatch, Job};
use crate::ct::ct_eq;

/// GCM authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// GCM nonce length in bytes (the standard 96-bit IV).
pub const NONCE_LEN: usize = 12;

/// Errors from authenticated decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcmError {
    /// The authentication tag did not verify: the ciphertext was tampered
    /// with, truncated, or decrypted under the wrong key/nonce.
    TagMismatch,
    /// Ciphertext shorter than the mandatory tag.
    TooShort,
}

impl std::fmt::Display for GcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcmError::TagMismatch => write!(f, "GCM authentication tag mismatch"),
            GcmError::TooShort => write!(f, "ciphertext shorter than GCM tag"),
        }
    }
}

impl std::error::Error for GcmError {}

/// A block of at most 16 bytes as GHASH reads it, zero-padded.
#[inline(always)]
fn block_to_u128(b: &[u8]) -> u128 {
    match <[u8; 16]>::try_from(b) {
        Ok(full) => u128::from_be_bytes(full),
        Err(_) => {
            let mut buf = [0u8; 16];
            buf[..b.len()].copy_from_slice(b);
            u128::from_be_bytes(buf)
        }
    }
}

/// Multiplication by `x` in the GCM bit convention (one right shift with
/// conditional reduction) — the primitive the table path is built from.
#[inline]
const fn mulx(v: u128) -> u128 {
    (v >> 1) ^ ((v & 1) * (0xe1u128 << 120))
}

/// `REM4[r] = mulx^4(r)`: the reduction terms produced by shifting a value
/// whose low nibble is `r` right by four bits. Key-independent, so computed
/// once at compile time.
const REM4: [u128; 16] = {
    let mut t = [0u128; 16];
    let mut r = 0usize;
    while r < 16 {
        t[r] = mulx(mulx(mulx(mulx(r as u128))));
        r += 1;
    }
    t
};

/// Multiplies by `x^4`: shift right one nibble, folding the shifted-out bits
/// back via the constant reduction table.
#[inline]
fn mulx4(z: u128) -> u128 {
    (z >> 4) ^ REM4[(z & 0xf) as usize]
}

/// `table[n] = n·H` for every 4-bit pattern `n` (placed in the top nibble
/// of the u128, i.e. the lowest-degree coefficients of the field element):
/// one block multiplication is 32 table lookups instead of 128 shift/xor
/// rounds. Built from three `mulx` applications plus xors.
pub(crate) fn table(h: u128) -> [u128; 16] {
    let mut table = [0u128; 16];
    // Top nibble bit 3 (u128 bit 127) is the coefficient of x^0, so
    // pattern 8 is the multiplicative identity times H.
    table[8] = h;
    table[4] = mulx(h);
    table[2] = mulx(table[4]);
    table[1] = mulx(table[2]);
    for n in [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15] {
        table[n] = table[n & 8] ^ table[n & 4] ^ table[n & 2] ^ table[n & 1];
    }
    table
}

/// `x · H` via the precomputed table (Horner over the 32 nibbles of `x`,
/// highest-degree nibble first). Bit-identical to `gf128_mul(x, h)`.
#[inline]
pub(crate) fn mul_table(table: &[u128; 16], x: u128) -> u128 {
    let mut z = 0u128;
    let mut k = 0;
    while k < 128 {
        z = mulx4(z) ^ table[((x >> k) & 0xf) as usize];
        k += 4;
    }
    z
}

/// GHASH over AAD and ciphertext, given the multiplication by `H`.
#[inline(always)]
pub(crate) fn ghash_with(mul: impl Fn(u128) -> u128, aad: &[u8], ct: &[u8]) -> u128 {
    let mut y = 0u128;
    for chunk in aad.chunks(16) {
        y = mul(y ^ block_to_u128(chunk));
    }
    for chunk in ct.chunks(16) {
        y = mul(y ^ block_to_u128(chunk));
    }
    mul(y ^ lengths(aad, ct))
}

/// GHASH's last block: the bit lengths of the AAD and the ciphertext.
#[inline(always)]
fn lengths(aad: &[u8], ct: &[u8]) -> u128 {
    ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8)
}

#[cfg(target_arch = "x86_64")]
pub mod clmul {
    //! GHASH on the carry-less multiply, as `#[inline(always)]` bodies for
    //! a job compiled with `pclmulqdq` and `ssse3` (see
    //! [`crate::aes::aesni`]). Field elements stay in vector registers: a
    //! block loads byte-reversed, which is the `u128` the portable path
    //! reads it as (`u128::from_be_bytes`), lane 0 its low half.
    use crate::aes::aesni::{from_vector as int, to_vector as lanes};
    use std::arch::x86_64::*;

    /// Reverses the bytes of a loaded block.
    #[inline(always)]
    unsafe fn bswap(x: __m128i) -> __m128i {
        _mm_shuffle_epi8(
            x,
            _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        )
    }

    /// A full 16-byte block as a field element.
    #[inline(always)]
    unsafe fn load(block: &[u8; 16]) -> __m128i {
        bswap(_mm_loadu_si128(block.as_ptr().cast()))
    }

    /// The 256-bit carry-less product of `x` and `h`, unreduced, as
    /// `(low, high)` halves. Reduction is linear, so products summed here
    /// are reduced once ([`reduce`]).
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse2`.
    #[inline(always)]
    pub unsafe fn mul_wide(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
        let lo = _mm_clmulepi64_si128(a, b, 0x00);
        let hi = _mm_clmulepi64_si128(a, b, 0x11);
        let mid = _mm_xor_si128(
            _mm_clmulepi64_si128(a, b, 0x01),
            _mm_clmulepi64_si128(a, b, 0x10),
        );
        (
            _mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
            _mm_xor_si128(hi, _mm_srli_si128(mid, 8)),
        )
    }

    /// The field element of an unreduced product.
    ///
    /// GCM numbers a block's bits from the other end than the integer the
    /// block loads as, so the integer product of `x` and `h` is the field
    /// product bit-reversed within 255 bits (Gueron & Kounavis, "Intel
    /// Carry-Less Multiplication Instruction and its Usage for Computing
    /// the GCM Mode", 2010, §"bit-reflection peculiarity"). One left shift
    /// makes it the 256-bit reversal; in that picture the *low* half holds
    /// the high-degree terms, `x^128 = x^7 + x^2 + x + 1` folds them into
    /// the high half with right shifts, and the (at most seven) bits those
    /// shifts push out are folded a second time via the left shifts.
    ///
    /// # Safety
    /// The CPU must support `sse2`.
    #[inline(always)]
    pub unsafe fn reduce((lo, hi): (__m128i, __m128i)) -> __m128i {
        // (hi:lo) << 1.
        let carry_lo = _mm_srli_epi64(lo, 63);
        let carry_hi = _mm_srli_epi64(hi, 63);
        let lo = _mm_or_si128(_mm_slli_epi64(lo, 1), _mm_slli_si128(carry_lo, 8));
        let hi = _mm_or_si128(_mm_slli_epi64(hi, 1), _mm_slli_si128(carry_hi, 8));
        let hi = _mm_or_si128(hi, _mm_srli_si128(carry_lo, 8));
        // fold = lo ^ lo << 127 ^ lo << 126 ^ lo << 121.
        let t = _mm_xor_si128(_mm_slli_epi64(lo, 63), _mm_slli_epi64(lo, 62));
        let t = _mm_xor_si128(t, _mm_slli_epi64(lo, 57));
        let fold = _mm_xor_si128(lo, _mm_slli_si128(t, 8));
        // hi ^ fold ^ fold >> 1 ^ fold >> 2 ^ fold >> 7: the bits each
        // lane-wise right shift drops from lane 1 enter lane 0's top.
        let up = _mm_srli_si128(fold, 8);
        let r = _mm_xor_si128(_mm_srli_epi64(fold, 1), _mm_slli_epi64(up, 63));
        let r = _mm_xor_si128(
            r,
            _mm_xor_si128(_mm_srli_epi64(fold, 2), _mm_slli_epi64(up, 62)),
        );
        let r = _mm_xor_si128(
            r,
            _mm_xor_si128(_mm_srli_epi64(fold, 7), _mm_slli_epi64(up, 57)),
        );
        _mm_xor_si128(_mm_xor_si128(hi, fold), r)
    }

    /// `x · h` in GF(2^128). Bit-identical to `gf128_mul(x, h)`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse2`.
    #[inline(always)]
    pub unsafe fn mul(x: u128, h: u128) -> u128 {
        int(reduce(mul_wide(lanes(x), lanes(h))))
    }

    /// `[H, H², H³, H⁴]`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse2`.
    #[inline(always)]
    pub unsafe fn powers(h: u128) -> [u128; 4] {
        let h2 = mul(h, h);
        [h, h2, mul(h2, h), mul(h2, h2)]
    }

    /// GHASH over AAD and ciphertext. With `aggregate`, `powers` holds
    /// `H¹…H⁴` and each run of four ciphertext blocks is folded as
    /// `(Y ⊕ X₁)·H⁴ ⊕ X₂·H³ ⊕ X₃·H² ⊕ X₄·H`, one reduction for the four;
    /// without, only `powers[0] = H` is read, one reduction a block.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`, `sse2` and `ssse3`.
    #[inline(always)]
    pub unsafe fn ghash(powers: &[u128; 4], aggregate: bool, aad: &[u8], ct: &[u8]) -> u128 {
        let p = powers.map(lanes);
        let mut y = absorb(_mm_setzero_si128(), p[0], aad);
        let mut rest = ct;
        if aggregate {
            let mut fours = ct.chunks_exact(64);
            for four in &mut fours {
                let (mut lo, mut hi) = mul_wide(_mm_xor_si128(y, block(four, 0)), p[3]);
                for i in 1..4 {
                    let (l, h) = mul_wide(block(four, i), p[3 - i]);
                    (lo, hi) = (_mm_xor_si128(lo, l), _mm_xor_si128(hi, h));
                }
                y = reduce((lo, hi));
            }
            rest = fours.remainder();
        }
        y = absorb(y, p[0], rest);
        let lengths = lanes(super::lengths(aad, ct));
        int(reduce(mul_wide(_mm_xor_si128(y, lengths), p[0])))
    }

    /// Block `i` of `blocks`, a whole number of blocks.
    #[inline(always)]
    unsafe fn block(blocks: &[u8], i: usize) -> __m128i {
        let block = <&[u8; 16]>::try_from(&blocks[16 * i..16 * i + 16]);
        load(block.unwrap_or(&[0; 16]))
    }

    /// Folds `data` into `y` a block at a time, the last zero-padded.
    #[inline(always)]
    unsafe fn absorb(mut y: __m128i, h: __m128i, data: &[u8]) -> __m128i {
        let mut full = data.chunks_exact(16);
        for b in &mut full {
            y = reduce(mul_wide(_mm_xor_si128(y, block(b, 0)), h));
        }
        if !full.remainder().is_empty() {
            let last = lanes(super::block_to_u128(full.remainder()));
            y = reduce(mul_wide(_mm_xor_si128(y, last), h));
        }
        y
    }
}

/// Keystream blocks made per AES call past the first two.
const CTR_BATCH: usize = 8;

/// Counter block `i` as a backend block: the nonce (`j`, its bytes read
/// little-endian), then `i` big-endian.
#[inline(always)]
fn ctr(j: u128, i: u32) -> u128 {
    j | u128::from(i.to_be()) << 96
}

/// The ciphertext length from which GHASH folds four blocks at a time:
/// two folds pay for `H²…H⁴`.
const AGGREGATE_FROM: usize = 128;

/// The GCM of one message under a key used for nothing else: the key
/// schedule runs beside the first four blocks the key encrypts — `H`,
/// `E(J0)` and the first two keystream blocks — and the rest of the
/// keystream reuses its round keys, eight blocks at a time; every counter
/// block is made in registers.
struct Once<B: Backend> {
    b: B,
    keys: B::RoundKeys,
    /// The nonce, as [`ctr`] takes it.
    j: u128,
    /// `H`, `E(J0)`, then keystream blocks 2 and 3.
    first: [u128; 4],
}

impl<B: Backend> Once<B> {
    #[inline(always)]
    fn new(b: B, key: &[u8; 16], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut j = [0u8; 16];
        j[..NONCE_LEN].copy_from_slice(nonce);
        let j = u128::from_le_bytes(j);
        let mut first = [0, ctr(j, 1), ctr(j, 2), ctr(j, 3)];
        let keys = b.aes_keying(key, &mut first);
        Once { b, keys, j, first }
    }

    /// XORs `data` with the keystream from counter 2 on.
    #[inline(always)]
    fn ctr_xor(&self, data: &mut [u8]) {
        let (head, tail) = data.split_at_mut(data.len().min(32));
        xor_blocks(head, &self.first[2..]);
        for (n, run) in tail.chunks_mut(16 * CTR_BATCH).enumerate() {
            let first = 4u32.wrapping_add((n * CTR_BATCH) as u32);
            let mut ks: [u128; CTR_BATCH] =
                std::array::from_fn(|i| ctr(self.j, first.wrapping_add(i as u32)));
            self.b.aes_with(&self.keys, &mut ks);
            xor_blocks(run, &ks);
        }
    }

    /// The tag of `ct` under `aad`. GHASH multiplies by `H` alone unless
    /// the ciphertext is long enough to pay for `H²…H⁴`.
    #[inline(always)]
    fn tag(&self, aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let h = self.first[0].swap_bytes();
        let ghash = self.b.ghash_key(h, ct.len() >= AGGREGATE_FROM);
        let s = self.b.ghash(&ghash, aad, ct);
        (s ^ self.first[1].swap_bytes()).to_be_bytes()
    }
}

/// Seals `plaintext` under a key used for nothing else, appending
/// `ct || tag` to `out`.
#[inline(always)]
pub fn seal_once<B: Backend>(
    b: B,
    key: &[u8; 16],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
    out: &mut Vec<u8>,
) {
    let gcm = Once::new(b, key, nonce);
    let start = out.len();
    out.extend_from_slice(plaintext);
    gcm.ctr_xor(&mut out[start..]);
    let tag = gcm.tag(aad, &out[start..]);
    out.extend_from_slice(&tag);
}

/// Verifies and decrypts `ciphertext || tag` that [`seal_once`] sealed,
/// appending the plaintext to `out`: the tag is checked before anything is
/// decrypted, and nothing is appended when it fails.
#[inline(always)]
pub fn open_once<B: Backend>(
    b: B,
    key: &[u8; 16],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), GcmError> {
    let at = ciphertext.len().checked_sub(TAG_LEN);
    let (ct, tag) = ciphertext.split_at(at.ok_or(GcmError::TooShort)?);
    let gcm = Once::new(b, key, nonce);
    if !ct_eq(&gcm.tag(aad, ct), tag) {
        return Err(GcmError::TagMismatch);
    }
    let start = out.len();
    out.extend_from_slice(ct);
    gcm.ctr_xor(&mut out[start..]);
    Ok(())
}

/// XORs `data` with backend blocks of keystream.
#[inline(always)]
fn xor_blocks(data: &mut [u8], keystream: &[u128]) {
    for (chunk, key) in data.chunks_mut(16).zip(keystream) {
        match <&mut [u8; 16]>::try_from(&mut *chunk) {
            Ok(full) => *full = (u128::from_le_bytes(*full) ^ key).to_le_bytes(),
            Err(_) => chunk
                .iter_mut()
                .zip(key.to_le_bytes())
                .for_each(|(b, k)| *b ^= k),
        }
    }
}

/// AES-128-GCM under one key, on the backend [`Dispatch::detect`] picked.
///
/// It holds the key only: every `seal`/`open` is one [`seal_once`] /
/// [`open_once`], its key schedule run beside its first blocks and its
/// GHASH key made beside them, so building one per key costs nothing and
/// keeping one saves nothing.
#[derive(Clone)]
pub struct AesGcm128 {
    key: [u8; 16],
    dispatch: Dispatch,
}

/// One [`AesGcm128`] call as a [`Job`]: `(gcm, nonce, aad, input, out,
/// seal)`, a seal of `input` or, without `seal`, an open.
struct Call<'a>(
    &'a AesGcm128,
    &'a [u8; 12],
    &'a [u8],
    &'a [u8],
    &'a mut Vec<u8>,
    bool,
);

impl Job for Call<'_> {
    type Output = Result<(), GcmError>;

    #[inline(always)]
    fn run<B: Backend>(self, b: B) -> Self::Output {
        let Call(gcm, nonce, aad, input, out, seal) = self;
        if seal {
            seal_once(b, &gcm.key, nonce, aad, input, out);
            return Ok(());
        }
        open_once(b, &gcm.key, nonce, aad, input, out)
    }
}

impl AesGcm128 {
    /// Creates a GCM instance for `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::on(Dispatch::detect(), key)
    }

    /// [`new`](Self::new) on `dispatch`'s backend.
    pub fn on(dispatch: Dispatch, key: &[u8; 16]) -> Self {
        AesGcm128 {
            key: *key,
            dispatch,
        }
    }

    /// Encrypts `plaintext` with associated data `aad`, appending the 16-byte
    /// tag. Output layout: `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// [`seal`](Self::seal) appending into a caller-provided buffer.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        // A seal cannot fail.
        let _ = self
            .dispatch
            .run(Call(self, nonce, aad, plaintext, out, true));
    }

    /// Verifies and decrypts `ciphertext || tag` produced by [`seal`].
    ///
    /// [`seal`]: AesGcm128::seal
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, GcmError> {
        let mut out = Vec::new();
        self.open_into(nonce, aad, ciphertext, &mut out)?;
        Ok(out)
    }

    /// [`open`](Self::open) appending the plaintext into a caller-provided
    /// buffer. Nothing is appended when authentication fails.
    pub fn open_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), GcmError> {
        self.dispatch
            .run(Call(self, nonce, aad, ciphertext, out, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiplication in GF(2^128) using the GCM bit convention
    /// (block bytes loaded big-endian, reduction polynomial
    /// x^128 + x^7 + x^2 + x + 1, bit 0 = most significant).
    ///
    /// Reference implementation: the backends multiply by the table
    /// ([`mul_table`]) or carry-less ([`clmul`]); this bitwise version remains
    /// the ground truth both are tested against.
    fn gf128_mul(x: u128, y: u128) -> u128 {
        let mut z = 0u128;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= 0xe1u128 << 120;
            }
        }
        z
    }

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The cipher for `key` on every backend this CPU has: every vector
    /// below must hold on each.
    fn each_backend(key: &[u8; 16]) -> Vec<AesGcm128> {
        Dispatch::all().map(|d| AesGcm128::on(d, key)).collect()
    }

    #[test]
    fn nist_test_case_1_empty() {
        // McGrew-Viega test case 1: zero key, zero IV, empty plaintext.
        for gcm in each_backend(&[0u8; 16]) {
            let nonce = [0u8; 12];
            let out = gcm.seal(&nonce, &[], &[]);
            assert_eq!(out, from_hex("58e2fccefa7e3061367f1d57a4e7455a"));
        }
    }

    #[test]
    fn nist_test_case_2_one_block() {
        for gcm in each_backend(&[0u8; 16]) {
            let nonce = [0u8; 12];
            let out = gcm.seal(&nonce, &[], &[0u8; 16]);
            assert_eq!(
                out,
                from_hex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
            );
        }
    }

    #[test]
    fn nist_test_case_3_four_blocks() {
        let key: [u8; 16] = from_hex("feffe9928665731c6d6a8f9467308308")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let expected_ct = from_hex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        );
        let expected_tag = from_hex("4d5c2af327cd64a62cf35abd2ba6fab4");
        for gcm in each_backend(&key) {
            let out = gcm.seal(&nonce, &[], &pt);
            assert_eq!(&out[..pt.len()], &expected_ct[..]);
            assert_eq!(&out[pt.len()..], &expected_tag[..]);
            assert_eq!(gcm.open(&nonce, &[], &out).unwrap(), pt);
        }
    }

    #[test]
    fn nist_test_case_4_with_aad() {
        let key: [u8; 16] = from_hex("feffe9928665731c6d6a8f9467308308")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = from_hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = from_hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let expected_tag = from_hex("5bc94fbc3221a5db94fae95ae7121a47");
        for gcm in each_backend(&key) {
            let out = gcm.seal(&nonce, &aad, &pt);
            assert_eq!(&out[pt.len()..], &expected_tag[..]);
            assert_eq!(gcm.open(&nonce, &aad, &out).unwrap(), pt);
        }
    }

    #[test]
    fn tamper_detection() {
        let nonce = [1u8; 12];
        for gcm in each_backend(&[9u8; 16]) {
            for len in [0, 12, 200] {
                let sealed = gcm.seal(&nonce, b"aad", &vec![7; len]);
                for at in [0, len / 2, len, len + TAG_LEN - 1] {
                    let mut bad = sealed.clone();
                    bad[at] ^= 0x01;
                    let mut out = vec![0x33];
                    let got = gcm.open_into(&nonce, b"aad", &bad, &mut out);
                    assert_eq!((got, out), (Err(GcmError::TagMismatch), vec![0x33]));
                }
            }
        }
    }

    #[test]
    fn wrong_aad_key_or_length_rejected() {
        let nonce = [1u8; 12];
        let (gcms, others) = (each_backend(&[9u8; 16]), each_backend(&[10u8; 16]));
        for (gcm, other) in gcms.iter().zip(&others) {
            let sealed = gcm.seal(&nonce, b"aad", b"some payload");
            let mismatch = Err(GcmError::TagMismatch);
            assert_eq!(gcm.open(&nonce, b"oad", &sealed), mismatch);
            assert_eq!(other.open(&nonce, b"aad", &sealed), mismatch);
            let short = gcm.open(&[0u8; 12], &[], &[1, 2, 3]);
            assert_eq!(short, Err(GcmError::TooShort));
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let gcm = AesGcm128::new(&[0x42u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 255, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = gcm.seal(&nonce, b"meta", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(gcm.open(&nonce, b"meta", &sealed).unwrap(), pt);
        }
    }

    /// Structured operands plus a pseudo-random tail.
    fn operands() -> Vec<u128> {
        let mut xs = vec![
            0u128,
            1,
            1 << 127,
            u128::MAX,
            0x0123456789abcdef0011223344556677,
        ];
        let mut v = 0x9e3779b97f4a7c15f39cc0605cedc834u128;
        for _ in 0..64 {
            v = v.wrapping_mul(0x2545f4914f6cdd1d).rotate_left(23) ^ 0xa5a5;
            xs.push(v);
        }
        xs
    }

    #[test]
    fn table_mul_matches_bitwise_gf128_mul() {
        let xs = operands();
        let hs = [1u128 << 127, 1, 0xdeadbeefcafebabe1122334455667788];
        for &h in hs.iter().chain(&xs[xs.len() - 8..]) {
            let table = table(h);
            for &x in &xs {
                assert_eq!(mul_table(&table, x), gf128_mul(x, h), "x={x:#x} h={h:#x}");
            }
        }
    }

    #[test]
    fn ghash_backends_agree_on_every_length() {
        // Block-boundary handling: every AAD and ciphertext length from
        // empty to just past eight blocks, on every backend, folding four
        // blocks at a time or not, against the bitwise reference.
        let data: Vec<u8> = (0..129u32).map(|i| (i * 37 + 11) as u8).collect();
        crate::backend::testing::each_backend(|d, b| {
            for &h in &operands()[3..8] {
                for len in 0..=129 {
                    for (aad, ct) in [(&data[..len], &data[len..]), (&data[..5], &data[..len])] {
                        let reference = ghash_with(|x| gf128_mul(x, h), aad, ct);
                        for aggregate in [false, true] {
                            let got = b.ghash(h, aggregate, aad, ct);
                            assert_eq!(got, reference, "{d:?} len {len} {aggregate}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn seal_into_and_open_into_match_owned_paths() {
        let gcm = AesGcm128::new(&[0x42u8; 16]);
        let nonce = [7u8; 12];
        for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let owned = gcm.seal(&nonce, b"aad", &pt);
            // seal_into appends after existing content.
            let mut buf = vec![0xee, 0xff];
            gcm.seal_into(&nonce, b"aad", &pt, &mut buf);
            assert_eq!(&buf[..2], &[0xee, 0xff]);
            assert_eq!(&buf[2..], &owned[..], "len {len}");
            let mut out = vec![0x11];
            gcm.open_into(&nonce, b"aad", &owned, &mut out).unwrap();
            assert_eq!(&out[..1], &[0x11]);
            assert_eq!(&out[1..], &pt[..], "len {len}");
            // Failed auth appends nothing.
            let mut out = vec![0x22];
            let mut bad = owned.clone();
            *bad.last_mut().unwrap() ^= 1;
            assert!(gcm.open_into(&nonce, b"aad", &bad, &mut out).is_err());
            assert_eq!(out, vec![0x22]);
        }
    }

    #[test]
    fn every_backend_seals_the_same_bytes_at_every_length() {
        // Every plaintext length across the four blocks keyed with the
        // schedule, the eight-block keystream runs and the length from
        // which GHASH folds four blocks at a time.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 53 + 7) as u8).collect();
        let (nonce, aad) = ([9u8; 12], b"aad of 24 bytes, exactly");
        let gcms = each_backend(&[0x3cu8; 16]);
        for len in 0..=data.len() {
            let expected = gcms[0].seal(&nonce, aad, &data[..len]);
            for gcm in &gcms {
                let mut out = vec![0xee];
                gcm.seal_into(&nonce, aad, &data[..len], &mut out);
                assert!(out[0] == 0xee && out[1..] == expected[..], "len {len}");
                out.truncate(1);
                gcm.open_into(&nonce, aad, &expected, &mut out).unwrap();
                assert!(out[0] == 0xee && out[1..] == data[..len], "len {len}");
            }
        }
    }

    #[test]
    fn gf128_mul_identity() {
        // x * 1 = x where 1 in GCM convention is 0x80000...0 (bit 0 set).
        let one = 1u128 << 127;
        let x = 0x0123456789abcdef0011223344556677u128;
        assert_eq!(gf128_mul(x, one), x);
        assert_eq!(gf128_mul(one, x), x);
    }

    #[test]
    fn gf128_mul_commutes() {
        let a = 0xdeadbeefcafebabe1122334455667788u128;
        let b = 0x0f0e0d0c0b0a09080706050403020100u128;
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
    }
}
