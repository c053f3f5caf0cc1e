//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! TimeCrypt encrypts raw chunk payloads with randomized AES-GCM-128
//! (paper §4.1), with the per-chunk key derived as `H(k_i - k_{i+1})`
//! (§4.3). The digest is HEAC-encrypted separately; GCM protects the bulk
//! compressed data points and authenticates them.

use crate::aes::Aes128;
use crate::backend::Backend;
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

/// Multiplication in GF(2^128) using the GCM bit convention
/// (block bytes loaded big-endian, reduction polynomial
/// x^128 + x^7 + x^2 + x + 1, bit 0 = most significant).
///
/// Reference implementation: the hot path is one of the two multiplies
/// behind [`GhashKey`]; this bitwise version remains the ground truth both
/// are tested against.
#[cfg(test)]
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
/// conditional reduction) — the primitive both [`gf128_mul`] and the
/// precomputed-table path are built from.
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

/// The per-key GHASH state. Where the CPU multiplies carry-less
/// (`pclmulqdq`) it is `H¹…H⁴`, so a run of four ciphertext blocks costs
/// sixteen multiplies and one reduction ([`clmul::ghash`]); elsewhere it is
/// the 4-bit table of the portable path. Either way constructing one stays
/// cheap — a few multiplies, no table of all powers of `H`.
// Inline on purpose: a box would cost the per-chunk-key construction an
// allocation to save bytes no one keeps for long.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum GhashKey {
    /// `H¹…H⁴`, for [`clmul::ghash`].
    #[cfg(target_arch = "x86_64")]
    Clmul([u128; 4]),
    /// The portable path's table ([`table`]).
    Table([u128; 16]),
}

impl GhashKey {
    fn new(h: u128, force_table: bool) -> Self {
        #[cfg(target_arch = "x86_64")]
        if !force_table
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            // SAFETY: the target features `powers_clmul` is compiled for
            // were detected on the lines above.
            return GhashKey::Clmul(unsafe { powers_clmul(h) });
        }
        let _ = force_table;
        GhashKey::Table(table(h))
    }

    /// GHASH over AAD and ciphertext.
    fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Clmul` variant is only built in `new`, after
            // the target features `ghash_clmul` is compiled for were
            // detected on this CPU.
            GhashKey::Clmul(powers) => unsafe { ghash_clmul(powers, aad, ct) },
            GhashKey::Table(table) => ghash_with(|x| mul_table(table, x), aad, ct),
        }
    }
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

/// [`clmul::ghash`] over `H¹…H⁴`.
///
/// # Safety
/// The CPU must support `pclmulqdq`, `sse2` and `ssse3`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2,ssse3")]
unsafe fn ghash_clmul(powers: &[u128; 4], aad: &[u8], ct: &[u8]) -> u128 {
    clmul::ghash(powers, true, aad, ct)
}

/// `H¹…H⁴`.
///
/// # Safety
/// The CPU must support `pclmulqdq` and `sse2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn powers_clmul(h: u128) -> [u128; 4] {
    clmul::powers(h)
}

#[cfg(target_arch = "x86_64")]
pub mod clmul {
    //! GHASH on the carry-less multiply, as `#[inline(always)]` bodies for
    //! a caller compiled with `pclmulqdq` and `ssse3` (see
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

/// Keystream blocks generated per batched AES call: enough to feed the
/// eight-wide AES-NI interleave in [`Aes128::encrypt_blocks`].
const CTR_BATCH: usize = 8;

#[inline(always)]
fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..12].copy_from_slice(nonce);
    block[12..].copy_from_slice(&counter.to_be_bytes());
    block
}

/// Counter block `i` as a backend block: the nonce (from
/// [`counter_block`]`(nonce, 0)` read little-endian), then `i` big-endian.
#[inline(always)]
fn ctr(j: u128, i: u32) -> u128 {
    j | u128::from(i.to_be()) << 96
}

/// XORs `data` with the keystream from counter `first` on: `encrypt` turns
/// [`CTR_BATCH`] counter blocks into keystream, of which the first `n` are
/// used.
#[inline(always)]
fn ctr_xor_with(
    nonce: &[u8; NONCE_LEN],
    first: u32,
    data: &mut [u8],
    mut encrypt: impl FnMut(&mut [u128; CTR_BATCH], usize),
) {
    let j = u128::from_le_bytes(counter_block(nonce, 0));
    for (n, run) in data.chunks_mut(16 * CTR_BATCH).enumerate() {
        let first = first.wrapping_add((n * CTR_BATCH) as u32);
        let mut ks: [u128; CTR_BATCH] =
            std::array::from_fn(|i| ctr(j, first.wrapping_add(i as u32)));
        encrypt(&mut ks, run.len().div_ceil(16));
        xor_blocks(run, &ks);
    }
}

/// Seals `plaintext` under a key used for nothing else, appending
/// `ct || tag` to `out` — byte-identical to
/// [`AesGcm128::new(key).seal_into(..)`](AesGcm128::seal_into), without the
/// instance. The key schedule runs beside the first four blocks the key
/// encrypts — `H`, `E(J0)` and the first two keystream blocks — and the
/// rest of the keystream reuses its round keys, eight blocks at a time;
/// every counter block is made in registers. GHASH multiplies by `H` alone
/// unless the ciphertext is long enough to pay for `H²…H⁴`.
#[inline(always)]
pub fn seal_once<B: Backend>(
    b: B,
    key: &[u8; 16],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.extend_from_slice(plaintext);
    let data = &mut out[start..];
    let j = u128::from_le_bytes(counter_block(nonce, 0));
    let mut first = [0, ctr(j, 1), ctr(j, 2), ctr(j, 3)];
    let keys = b.aes_keying(key, &mut first);
    let (head, tail) = data.split_at_mut(data.len().min(32));
    xor_blocks(head, &first[2..]);
    ctr_xor_with(nonce, 4, tail, |ks, _| b.aes_with(&keys, ks));
    let h = first[0].swap_bytes();
    let ghash = b.ghash_key(h, data.len() >= AGGREGATE_FROM);
    let s = b.ghash(&ghash, aad, data);
    out.extend_from_slice(&(s ^ first[1].swap_bytes()).to_be_bytes());
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

/// The ciphertext length from which [`seal_once`] computes `H²…H⁴` for
/// GHASH's four-block folding: two folds pay for the powers.
const AGGREGATE_FROM: usize = 128;

/// AES-128-GCM instance bound to one key.
///
/// Construction expands the AES round keys and derives the GHASH key
/// once; every `seal`/`open` under the same key reuses both. Callers
/// that encrypt many items under one key (live-record batches, chunk
/// sealing) should construct the instance once — or use a key cache —
/// instead of re-deriving per item.
#[derive(Clone)]
pub struct AesGcm128 {
    cipher: Aes128,
    ghash: GhashKey,
}

impl AesGcm128 {
    /// Creates a GCM instance for `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_force_software(key, false)
    }

    /// [`new`](Self::new), optionally keeping both AES and GHASH on their
    /// portable paths whatever the CPU offers (what the tests compare the
    /// accelerated paths against).
    fn with_force_software(key: &[u8; 16], force_software: bool) -> Self {
        let cipher = Aes128::with_force_software(key, force_software);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; 16]));
        AesGcm128 {
            cipher,
            ghash: GhashKey::new(h, force_software),
        }
    }

    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        // Counter 1 is reserved for the tag mask.
        ctr_xor_with(nonce, 2, data, |ks, n| {
            let mut blocks = ks.map(u128::to_le_bytes);
            self.cipher.encrypt_blocks(&mut blocks[..n]);
            *ks = blocks.map(u128::from_le_bytes);
        });
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let s = self.ghash.ghash(aad, ct);
        let j0 = counter_block(nonce, 1);
        let ek_j0 = u128::from_be_bytes(self.cipher.encrypt(&j0));
        (s ^ ek_j0).to_be_bytes()
    }

    /// Encrypts `plaintext` with associated data `aad`, appending the 16-byte
    /// tag. Output layout: `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// [`seal`](Self::seal) appending into a caller-provided buffer: the
    /// allocation-free path for callers that assemble `nonce || ct || tag`
    /// payloads (chunk sealing reuses one buffer per chunk run).
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.extend_from_slice(plaintext);
        self.seal_tail(nonce, aad, out, start);
    }

    /// [`seal_into`](Self::seal_into) for a plaintext assembled in the output
    /// buffer: encrypts `buf[from..]` where it lies and appends the tag.
    pub fn seal_tail(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut Vec<u8>, from: usize) {
        self.ctr_xor(nonce, &mut buf[from..]);
        let tag = self.tag(nonce, aad, &buf[from..]);
        buf.extend_from_slice(&tag);
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
        if ciphertext.len() < TAG_LEN {
            return Err(GcmError::TooShort);
        }
        let (ct, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);
        let expected = self.tag(nonce, aad, ct);
        if !ct_eq(&expected, tag) {
            return Err(GcmError::TagMismatch);
        }
        let start = out.len();
        out.extend_from_slice(ct);
        self.ctr_xor(nonce, &mut out[start..]);
        Ok(())
    }
}

/// A small thread-safe cache of [`AesGcm128`] instances keyed by key bytes.
///
/// The chunk layer derives a fresh payload key per chunk, but several
/// operations reuse one chunk's key many times — every real-time record of
/// an open chunk is sealed/opened under the same key, and a consumer
/// decrypting a range revisits boundary chunks. Caching the expanded round
/// keys + GHASH table turns those repeats into a lookup. Bounded LRU-ish
/// (insertion order, moves hits to the back) so long-lived processes cannot
/// accumulate unbounded key material.
pub struct GcmKeyCache {
    slots: std::sync::Mutex<std::collections::VecDeque<([u8; 16], std::sync::Arc<AesGcm128>)>>,
    cap: usize,
}

impl GcmKeyCache {
    /// A cache retaining at most `cap` keys (`cap == 0` disables caching).
    pub fn new(cap: usize) -> Self {
        GcmKeyCache {
            slots: std::sync::Mutex::new(std::collections::VecDeque::new()),
            cap,
        }
    }

    /// The cipher for `key`, constructed on first use.
    pub fn get(&self, key: &[u8; 16]) -> std::sync::Arc<AesGcm128> {
        if self.cap == 0 {
            return std::sync::Arc::new(AesGcm128::new(key));
        }
        {
            // The deque stays valid at every panic point, so poisoning is
            // recoverable here and below.
            let mut slots = self
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let pos = slots.iter().position(|(k, _)| k == key);
            if let Some(hit) = pos.and_then(|p| slots.remove(p)) {
                let cipher = hit.1.clone();
                slots.push_back(hit);
                return cipher;
            }
        }
        // Miss: derive *outside* the lock — the key schedule + GHASH table
        // is the expensive part, and concurrent readers on distinct keys
        // must not serialize behind it. Two racing misses both derive;
        // the loser's insert just refreshes the same (deterministic)
        // cipher state, so correctness is unaffected.
        let cipher = std::sync::Arc::new(AesGcm128::new(key));
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pos) = slots.iter().position(|(k, _)| k == key) {
            slots.remove(pos);
        }
        if slots.len() >= self.cap {
            slots.pop_front();
        }
        slots.push_back((*key, cipher.clone()));
        cipher
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The cipher for `key` on the path the CPU selects and on the portable
    /// one: every vector below must hold on both.
    fn both_paths(key: &[u8; 16]) -> [AesGcm128; 2] {
        [
            AesGcm128::new(key),
            AesGcm128::with_force_software(key, true),
        ]
    }

    #[test]
    fn nist_test_case_1_empty() {
        // McGrew-Viega test case 1: zero key, zero IV, empty plaintext.
        for gcm in both_paths(&[0u8; 16]) {
            let nonce = [0u8; 12];
            let out = gcm.seal(&nonce, &[], &[]);
            assert_eq!(out, from_hex("58e2fccefa7e3061367f1d57a4e7455a"));
        }
    }

    #[test]
    fn nist_test_case_2_one_block() {
        for gcm in both_paths(&[0u8; 16]) {
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
        for gcm in both_paths(&key) {
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
        for gcm in both_paths(&key) {
            let out = gcm.seal(&nonce, &aad, &pt);
            assert_eq!(&out[pt.len()..], &expected_tag[..]);
            assert_eq!(gcm.open(&nonce, &aad, &out).unwrap(), pt);
        }
    }

    #[test]
    fn tamper_detection() {
        let gcm = AesGcm128::new(&[9u8; 16]);
        let nonce = [1u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", b"some payload");
        sealed[3] ^= 0x01;
        assert_eq!(
            gcm.open(&nonce, b"aad", &sealed),
            Err(GcmError::TagMismatch)
        );
    }

    #[test]
    fn wrong_aad_rejected() {
        let gcm = AesGcm128::new(&[9u8; 16]);
        let nonce = [1u8; 12];
        let sealed = gcm.seal(&nonce, b"aad", b"some payload");
        assert_eq!(
            gcm.open(&nonce, b"oad", &sealed),
            Err(GcmError::TagMismatch)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let gcm = AesGcm128::new(&[9u8; 16]);
        let other = AesGcm128::new(&[10u8; 16]);
        let nonce = [1u8; 12];
        let sealed = gcm.seal(&nonce, &[], b"payload");
        assert_eq!(other.open(&nonce, &[], &sealed), Err(GcmError::TagMismatch));
    }

    #[test]
    fn truncated_rejected() {
        let gcm = AesGcm128::new(&[9u8; 16]);
        assert_eq!(
            gcm.open(&[0u8; 12], &[], &[1, 2, 3]),
            Err(GcmError::TooShort)
        );
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
    fn every_mul_matches_bitwise_gf128_mul() {
        // The table path and (where the CPU has it) the carry-less path
        // must agree with the reference bitwise multiplication.
        let xs = operands();
        let hs = [1u128 << 127, 1, 0xdeadbeefcafebabe1122334455667788];
        for &h in hs.iter().chain(&xs[xs.len() - 8..]) {
            let table = table(h);
            for &x in &xs {
                let expect = gf128_mul(x, h);
                assert_eq!(mul_table(&table, x), expect, "table x={x:#x} h={h:#x}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("pclmulqdq") {
                    // SAFETY: `pclmulqdq` detected just above; `sse2` is
                    // part of the x86_64 baseline.
                    let got = unsafe { clmul::mul(x, h) };
                    assert_eq!(got, expect, "clmul x={x:#x} h={h:#x}");
                }
            }
        }
    }

    #[test]
    fn ghash_paths_agree_on_every_length() {
        // Block-boundary handling: every AAD and ciphertext length from
        // empty to just past eight blocks, selected path == table path ==
        // the bitwise reference.
        let data: Vec<u8> = (0..129u32).map(|i| (i * 37 + 11) as u8).collect();
        for &h in &operands()[3..8] {
            let (fast, table) = (GhashKey::new(h, false), GhashKey::new(h, true));
            for len in 0..=129 {
                let reference = ghash_with(|x| gf128_mul(x, h), &data[..len], &data[len..]);
                assert_eq!(table.ghash(&data[..len], &data[len..]), reference);
                assert_eq!(fast.ghash(&data[..len], &data[len..]), reference);
                let reference = ghash_with(|x| gf128_mul(x, h), &data[..5], &data[..len]);
                assert_eq!(table.ghash(&data[..5], &data[..len]), reference);
                assert_eq!(fast.ghash(&data[..5], &data[..len]), reference, "len {len}");
            }
        }
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
    fn key_cache_returns_equivalent_ciphers_and_honors_cap() {
        let cache = GcmKeyCache::new(2);
        let k1 = [1u8; 16];
        let a = cache.get(&k1);
        let b = cache.get(&k1);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup is a hit");
        let sealed = a.seal(&[0u8; 12], b"x", b"payload");
        assert_eq!(
            AesGcm128::new(&k1).open(&[0u8; 12], b"x", &sealed).unwrap(),
            b"payload"
        );
        // Fill past the cap: k1 (front) is evicted, a fresh instance returns.
        cache.get(&[2u8; 16]);
        cache.get(&[3u8; 16]);
        let c = cache.get(&k1);
        assert!(!std::sync::Arc::ptr_eq(&a, &c), "evicted key re-derives");
        // Disabled cache still works.
        let off = GcmKeyCache::new(0);
        let d = off.get(&k1);
        assert_eq!(d.seal(&[0u8; 12], b"", b"p"), a.seal(&[0u8; 12], b"", b"p"));
    }

    #[test]
    fn one_shot_seal_matches_the_instance_on_both_backends() {
        // Every plaintext length across the four blocks keyed with the
        // schedule, the eight-block keystream runs and the length from
        // which GHASH folds four blocks at a time.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 53 + 7) as u8).collect();
        let (key, nonce) = ([0x3cu8; 16], [9u8; 12]);
        let gcm = AesGcm128::with_force_software(&key, true);
        for len in 0..=data.len() {
            let expected = gcm.seal(&nonce, b"aad of 24 bytes, exactly", &data[..len]);
            let seal = |seal: &dyn Fn(&mut Vec<u8>)| {
                let mut out = vec![0xee];
                seal(&mut out);
                assert_eq!(out[0], 0xee);
                assert!(out[1..] == expected[..], "len {len}");
            };
            let aad = b"aad of 24 bytes, exactly";
            seal(&|out| {
                seal_once(
                    crate::backend::Portable,
                    &key,
                    &nonce,
                    aad,
                    &data[..len],
                    out,
                )
            });
            #[cfg(target_arch = "x86_64")]
            if let Some(b) = crate::backend::AesNi::<false>::detect() {
                seal(&|out| seal_once(b, &key, &nonce, aad, &data[..len], out));
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
