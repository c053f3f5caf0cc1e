//! AES-128 block cipher (FIPS 197), with a portable software implementation
//! and a hardware AES-NI fast path.
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

/// AES-128 with pre-expanded round keys.
///
/// Dispatches between the AES-NI implementation (when the CPU supports it)
/// and the portable software implementation. The choice is made once at
/// construction and stored, so per-block encryption has no detection cost.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    #[cfg(target_arch = "x86_64")]
    use_aesni: bool,
}

impl Aes128 {
    /// Expands `key` into the 11 round keys. Uses AES-NI when available.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_force_software(key, false)
    }

    /// Like [`Aes128::new`] but optionally forcing the software path even on
    /// AES-NI-capable hardware. Used by the Fig. 6 benchmark to compare
    /// software AES vs AES-NI key-derivation cost.
    pub fn with_force_software(key: &[u8; 16], force_software: bool) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let use_aesni = !force_software
                && std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("ssse3");
            let round_keys = if use_aesni {
                // SAFETY: `use_aesni` implies both feature checks returned
                // true on this line's path, so the `aes` and `ssse3` target
                // features required by `expand_key` are present on this CPU.
                unsafe { aesni::expand_key(key) }
            } else {
                expand_key(key)
            };
            Aes128 {
                round_keys,
                use_aesni,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = force_software;
            Aes128 {
                round_keys: expand_key(key),
            }
        }
    }

    /// Returns true if this instance will use hardware AES instructions.
    pub fn is_hardware(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            self.use_aesni
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Encrypts a single 16-byte block in place.
    #[inline]
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when the `aes` feature was
            // detected at construction time.
            unsafe { aesni::encrypt_block(&self.round_keys, block) };
            return;
        }
        soft_encrypt_block(&self.round_keys, block);
    }

    /// Encrypts a block, returning the ciphertext.
    #[inline]
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts a run of blocks in place. On AES-NI hardware the blocks are
    /// interleaved eight at a time, so the per-round `aesenc` latency of one
    /// block is hidden behind the other seven — the throughput win that makes
    /// batched CTR keystream generation (GCM bulk encryption) several times
    /// faster than block-at-a-time calls. The result is bit-identical to
    /// calling [`encrypt_block`](Self::encrypt_block) per block.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when the `aes` feature was
            // detected at construction time.
            unsafe { aesni::encrypt_blocks(&self.round_keys, blocks) };
            return;
        }
        for block in blocks {
            soft_encrypt_block(&self.round_keys, block);
        }
    }
}

/// FIPS-197 key expansion for AES-128 (software; also feeds the AES-NI path —
/// round keys are identical either way).
fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
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
fn soft_encrypt_block(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
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
mod aesni {
    //! Hardware AES path using the AES-NI instruction set.
    use std::arch::x86_64::*;

    /// AES-128 key expansion with AES-NI (FIPS-197 §5.2, vectorized).
    ///
    /// Each round needs `SubWord(RotWord(w3)) ^ rcon`: `pshufb` puts
    /// `RotWord(w3)` in all four columns, and on four equal columns
    /// `ShiftRows` moves nothing, so `aesenclast` with the round constant
    /// as its key is exactly that — at a third of `aeskeygenassist`'s
    /// latency, which a key schedule per PRG call pays ten times over.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports the `aes` and `ssse3` target
    /// features; the intrinsics fault as undefined instructions otherwise.
    /// All callers sit behind the runtime detection in
    /// [`Aes128::with_force_software`](super::Aes128::with_force_software).
    #[target_feature(enable = "aes,ssse3")]
    pub(super) unsafe fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let rot_word = _mm_set1_epi32(0x0c0f_0e0d);
        let mut rk = [[0u8; 16]; 11];
        let mut k = _mm_loadu_si128(key.as_ptr() as *const __m128i);
        _mm_storeu_si128(rk[0].as_mut_ptr() as *mut __m128i, k);
        // An index loop on purpose: iterator adapters are not inlined into a
        // `target_feature` function, and a call per round costs 25 ns a key.
        #[allow(clippy::needless_range_loop)]
        for i in 1..11 {
            let rcon = _mm_set1_epi32(i32::from(super::RCON[i]));
            let sub = _mm_aesenclast_si128(_mm_shuffle_epi8(k, rot_word), rcon);
            // w0, w0^w1, w0^w1^w2, w0^w1^w2^w3 of the previous round key.
            k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
            k = _mm_xor_si128(k, _mm_slli_si128(k, 8));
            k = _mm_xor_si128(k, sub);
            _mm_storeu_si128(rk[i].as_mut_ptr() as *mut __m128i, k);
        }
        rk
    }

    /// Encrypts one block with pre-expanded round keys.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports the `aes` target feature.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_block(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
        let mut b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        b = _mm_xor_si128(b, _mm_loadu_si128(rk[0].as_ptr() as *const __m128i));
        for round_key in rk.iter().take(10).skip(1) {
            b = _mm_aesenc_si128(b, _mm_loadu_si128(round_key.as_ptr() as *const __m128i));
        }
        b = _mm_aesenclast_si128(b, _mm_loadu_si128(rk[10].as_ptr() as *const __m128i));
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, b);
    }

    /// Encrypts blocks eight-wide interleaved: each round's `aesenc` is
    /// issued for all eight blocks before the next round, so the ~4-cycle
    /// instruction latency overlaps across blocks instead of stalling a
    /// single dependency chain.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports the `aes` target feature.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_blocks(rk: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
        let keys: [__m128i; 11] =
            std::array::from_fn(|i| _mm_loadu_si128(rk[i].as_ptr() as *const __m128i));
        let mut chunks = blocks.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let mut b: [__m128i; 8] =
                std::array::from_fn(|i| _mm_loadu_si128(chunk[i].as_ptr() as *const __m128i));
            for x in &mut b {
                *x = _mm_xor_si128(*x, keys[0]);
            }
            for key in &keys[1..10] {
                for x in &mut b {
                    *x = _mm_aesenc_si128(*x, *key);
                }
            }
            for x in &mut b {
                *x = _mm_aesenclast_si128(*x, keys[10]);
            }
            for i in 0..8 {
                _mm_storeu_si128(chunk[i].as_mut_ptr() as *mut __m128i, b[i]);
            }
        }
        for block in chunks.into_remainder() {
            encrypt_block(rk, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let soft = Aes128::with_force_software(&key, true);
        assert_eq!(soft.encrypt(&pt), expected);
        let auto = Aes128::new(&key);
        assert_eq!(auto.encrypt(&pt), expected);
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
        assert_eq!(Aes128::with_force_software(&key, true).encrypt(&pt), ct);
    }

    #[test]
    fn encrypt_blocks_matches_per_block() {
        // Equivalence across lengths that hit the 8-wide interleave, its
        // remainder path, and the empty case — for both implementations.
        for force_soft in [false, true] {
            let c = Aes128::with_force_software(&[0x2cu8; 16], force_soft);
            for n in [0usize, 1, 7, 8, 9, 16, 23, 64] {
                let mut batched: Vec<[u8; 16]> =
                    (0..n).map(|i| [(i as u8).wrapping_mul(29); 16]).collect();
                let singly: Vec<[u8; 16]> = batched.iter().map(|b| c.encrypt(b)).collect();
                c.encrypt_blocks(&mut batched);
                assert_eq!(batched, singly, "n={n} soft={force_soft}");
            }
        }
    }

    #[test]
    fn hardware_and_software_agree() {
        let hw = Aes128::new(&[7u8; 16]);
        if !hw.is_hardware() {
            return; // Nothing to compare on this machine.
        }
        // The two key expansions, over keys of every byte pattern an LCG
        // reaches in 2 000 steps and the FIPS-197 Appendix A key.
        let mut key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        for _ in 0..2000 {
            assert_eq!(Aes128::new(&key).round_keys, expand_key(&key), "{key:x?}");
            let x = u128::from_le_bytes(key);
            key = (x.wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645) | 1)
                .rotate_left(29)
                .to_le_bytes();
        }
        let sw = Aes128::with_force_software(&[7u8; 16], true);
        for i in 0..64u8 {
            let mut block = [i; 16];
            block[0] = i.wrapping_mul(37);
            assert_eq!(hw.encrypt(&block), sw.encrypt(&block));
        }
    }
}
