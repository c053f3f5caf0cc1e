//! AES-128 block cipher (FIPS 197): the portable software implementation
//! and the AES-NI bodies [`Backend`](crate::backend::Backend) runs them
//! through.
//!
//! TimeCrypt uses AES-128 in three places:
//! * as the default PRG for the key derivation tree (`G0(x) = AES_x(0)`,
//!   `G1(x) = AES_x(1)`, paper §4.2.3),
//! * as a PRF for per-digest-element subkey derivation,
//! * as the block cipher inside AES-GCM chunk encryption (§4.1).
//!
//! Only the *encryption* direction is implemented: GCM uses CTR mode (which
//! decrypts with the forward cipher) and the PRG/PRF only ever encrypt.
//!
//! The S-box and round constants are computed from first principles
//! (GF(2^8) inversion + affine map) at compile time rather than transcribed,
//! then spot-checked against FIPS-197 vectors in the tests.

/// Multiplication in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8) via a^254 (with 0 mapping to 0).
const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 by square-and-multiply: 254 = 0b11111110.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn make_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut x = 0usize;
    while x < 256 {
        let b = gf_inv(x as u8);
        // Affine transformation: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
        sbox[x] =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        x += 1;
    }
    sbox
}

/// The AES S-box, derived at compile time.
pub(crate) const SBOX: [u8; 256] = make_sbox();

const fn make_rcon() -> [u8; 11] {
    let mut rcon = [0u8; 11];
    let mut v = 1u8;
    let mut i = 1usize;
    while i < 11 {
        rcon[i] = v;
        v = gf_mul(v, 2);
        i += 1;
    }
    rcon
}

const RCON: [u8; 11] = make_rcon();

/// FIPS-197 key expansion for AES-128 (software; the AES-NI path's round
/// keys are identical).
pub(crate) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            // RotWord + SubWord + Rcon.
            temp = [
                SBOX[temp[1] as usize] ^ RCON[i / 4],
                SBOX[temp[2] as usize],
                SBOX[temp[3] as usize],
                SBOX[temp[0] as usize],
            ];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut rk = [[0u8; 16]; 11];
    for r in 0..11 {
        for c in 0..4 {
            rk[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    rk
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State layout: column-major (byte i is row i%4, column i/4), matching the
/// byte order of the input block per FIPS-197 §3.4.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: rotate left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: rotate left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: rotate left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let i = 4 * c;
        let (a0, a1, a2, a3) = (state[i], state[i + 1], state[i + 2], state[i + 3]);
        let t = a0 ^ a1 ^ a2 ^ a3;
        state[i] = a0 ^ t ^ xtime(a0 ^ a1);
        state[i + 1] = a1 ^ t ^ xtime(a1 ^ a2);
        state[i + 2] = a2 ^ t ^ xtime(a2 ^ a3);
        state[i + 3] = a3 ^ t ^ xtime(a3 ^ a0);
    }
}

/// Portable AES-128 encryption of one block.
pub(crate) fn soft_encrypt_block(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
    add_round_key(block, &rk[0]);
    for round_key in &rk[1..10] {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, round_key);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, &rk[10]);
}

#[cfg(target_arch = "x86_64")]
pub mod aesni {
    //! Hardware AES on the AES-NI instruction set.
    //!
    //! The `#[inline(always)]` bodies carry no `target_feature` of their
    //! own: [`AesNi`](crate::backend::AesNi) inlines them into a job's
    //! entry, compiled with `aes` and `ssse3`, where every intrinsic
    //! becomes one instruction and the round keys stay in registers.
    use std::arch::x86_64::*;

    /// The eleven round keys of one AES-128 key.
    pub type RoundKeys = [__m128i; 11];

    /// The block whose bytes are `x`'s little-endian bytes.
    #[inline(always)]
    pub fn to_vector(x: u128) -> __m128i {
        // SAFETY: `u128` and `__m128i` are both 16 bytes of plain integer
        // data, every bit pattern valid for either; on little-endian x86 a
        // vector's bytes in memory are the integer's little-endian bytes.
        unsafe { std::mem::transmute::<u128, __m128i>(x) }
    }

    /// The inverse of [`to_vector`].
    #[inline(always)]
    pub fn from_vector(v: __m128i) -> u128 {
        // SAFETY: as in `to_vector`.
        unsafe { std::mem::transmute::<__m128i, u128>(v) }
    }

    /// Round key `i` from round key `i − 1` (FIPS-197 §5.2, vectorized).
    ///
    /// Each round needs `SubWord(RotWord(w3)) ^ rcon`: `pshufb` puts
    /// `RotWord(w3)` in all four columns, and on four equal columns
    /// `ShiftRows` moves nothing, so `aesenclast` with the round constant
    /// as its key is exactly that — at a third of `aeskeygenassist`'s
    /// latency, which a key schedule per PRG call pays ten times over.
    ///
    /// # Safety
    /// The CPU must support the `aes` and `ssse3` target features.
    #[inline(always)]
    pub unsafe fn next_round_key(k: __m128i, i: usize) -> __m128i {
        let rot_word = _mm_set1_epi32(0x0c0f_0e0d);
        let rcon = _mm_set1_epi32(i32::from(super::RCON[i]));
        let sub = _mm_aesenclast_si128(_mm_shuffle_epi8(k, rot_word), rcon);
        // w0, w0^w1, w0^w1^w2, w0^w1^w2^w3 of the previous round key.
        let k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
        let k = _mm_xor_si128(k, _mm_slli_si128(k, 8));
        _mm_xor_si128(k, sub)
    }

    /// Encrypts `blocks` under `key` with its schedule run beside them:
    /// round key `i` is made, then used on every block, before round key
    /// `i + 1` — no round key is stored and loaded back before its first
    /// use. Returns the round keys, for more blocks under the same key.
    ///
    /// # Safety
    /// The CPU must support the `aes` and `ssse3` target features.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn encrypt_keying<const N: usize>(
        key: &[u8; 16],
        blocks: &mut [__m128i; N],
    ) -> RoundKeys {
        let mut k = _mm_loadu_si128(key.as_ptr().cast());
        let mut rk = [k; 11];
        // Index loops on purpose: iterator adapters are not always inlined
        // into a `target_feature` function, and a call per round costs
        // 25 ns a key.
        for b in 0..N {
            blocks[b] = _mm_xor_si128(blocks[b], k);
        }
        for i in 1..11 {
            k = next_round_key(k, i);
            rk[i] = k;
            for b in 0..N {
                blocks[b] = if i < 10 {
                    _mm_aesenc_si128(blocks[b], k)
                } else {
                    _mm_aesenclast_si128(blocks[b], k)
                };
            }
        }
        rk
    }

    /// Encrypts `blocks` under held round keys, round by round across all
    /// of them: each round's `aesenc` is issued for every block before the
    /// next round, so the instruction's latency overlaps across blocks
    /// instead of stalling one dependency chain.
    ///
    /// # Safety
    /// The CPU must support the `aes` target feature.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn encrypt_with<const N: usize>(rk: &RoundKeys, blocks: &mut [__m128i; N]) {
        for b in 0..N {
            blocks[b] = _mm_xor_si128(blocks[b], rk[0]);
        }
        for i in 1..10 {
            for b in 0..N {
                blocks[b] = _mm_aesenc_si128(blocks[b], rk[i]);
            }
        }
        for b in 0..N {
            blocks[b] = _mm_aesenclast_si128(blocks[b], rk[10]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::each_backend;

    /// `pt` under `key` on every backend this CPU has, keyed beside the
    /// schedule and under its round keys, and on the software cipher.
    fn check_every_backend(key: &[u8; 16], pt: &[u8; 16], ct: &[u8; 16]) {
        let mut block = *pt;
        soft_encrypt_block(&expand_key(key), &mut block);
        assert_eq!(&block, ct, "software");
        let (pt, ct) = (u128::from_le_bytes(*pt), u128::from_le_bytes(*ct));
        each_backend(|d, b| {
            let (mut first, mut more) = ([pt; 8], [pt; 4]);
            b.aes(key, &mut first, &mut more);
            assert_eq!((first, more), ([ct; 8], [ct; 4]), "{d:?}");
        });
    }

    #[test]
    fn sbox_known_entries() {
        // Spot checks against the published FIPS-197 S-box table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(SBOX[0x9a], 0xb8);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn fips197_appendix_c_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        check_every_backend(&key, &pt, &expected);
    }

    #[test]
    fn fips197_appendix_a_key_expansion() {
        // Key expansion vector from FIPS-197 Appendix A.1 for the key
        // 2b7e151628aed2a6abf7158809cf4f3c: w[4] = a0fafe17.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = expand_key(&key);
        assert_eq!(&rk[1][0..4], &[0xa0, 0xfa, 0xfe, 0x17]);
        // Final round key w[40..43] = d014f9a8 c9ee2589 e13f0cc8 b6630ca6.
        assert_eq!(
            rk[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ]
        );
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, first block.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let ct: [u8; 16] = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        check_every_backend(&key, &pt, &ct);
    }

    #[test]
    fn every_backend_agrees_with_the_software_cipher() {
        // Keys of every byte pattern an LCG reaches in 2 000 steps from the
        // FIPS-197 Appendix A key, each block its key or zero.
        let mut key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        for _ in 0..2000 {
            for pt in [[0u8; 16], key] {
                let mut ct = pt;
                soft_encrypt_block(&expand_key(&key), &mut ct);
                check_every_backend(&key, &pt, &ct);
            }
            let x = u128::from_le_bytes(key);
            key = (x.wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645) | 1)
                .rotate_left(29)
                .to_le_bytes();
        }
    }
}
