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

    /// Encrypts `blocks` under `key` without keeping its round keys: on
    /// AES-NI the key schedule runs beside the blocks, round keys in
    /// registers — the cost model of a PRG step, whose key is the node it
    /// expands. Bit-identical to `Aes128::new(key)` encrypting each.
    pub fn encrypt_once<const N: usize>(key: &[u8; 16], blocks: &mut [[u8; 16]; N]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            // SAFETY: both target features `encrypt_once` is compiled for
            // were detected on the line above.
            unsafe { aesni::encrypt_once(key, blocks) };
            return;
        }
        let rk = expand_key(key);
        for block in blocks {
            soft_encrypt_block(&rk, block);
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
    //! own: they are meant to be inlined into a function compiled with
    //! `aes` and `ssse3` — the kernels below, and the chunk sealing kernel
    //! — where every intrinsic becomes one instruction and the round keys
    //! stay in registers. Called anywhere else they are still correct, one
    //! call per intrinsic.
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

    /// [`encrypt_with`] over byte blocks of any count: eight at a time,
    /// and the last up to seven one, four or eight wide (a padding block
    /// costs an `aesenc` a round in a pipeline that is waiting on latency
    /// anyway).
    ///
    /// # Safety
    /// The CPU must support the `aes` target feature.
    #[inline(always)]
    unsafe fn encrypt_slice(rk: &RoundKeys, blocks: &mut [[u8; 16]]) {
        /// Encrypts the first `N` blocks of `run`, or all of it if fewer.
        #[inline(always)]
        #[allow(clippy::needless_range_loop)]
        unsafe fn run<const N: usize>(rk: &RoundKeys, run: &mut [[u8; 16]]) {
            let n = run.len().min(N);
            let mut b = [_mm_setzero_si128(); N];
            for i in 0..n {
                b[i] = _mm_loadu_si128(run[i].as_ptr().cast());
            }
            encrypt_with(rk, &mut b);
            for i in 0..n {
                _mm_storeu_si128(run[i].as_mut_ptr().cast(), b[i]);
            }
        }
        let mut at = 0;
        while blocks.len() - at >= 8 {
            run::<8>(rk, &mut blocks[at..]);
            at += 8;
        }
        let rest = &mut blocks[at..];
        match rest.len() {
            0 => {}
            1 => run::<1>(rk, rest),
            2..=4 => run::<4>(rk, rest),
            _ => run::<8>(rk, rest),
        }
    }

    /// The round keys of `key`.
    ///
    /// # Safety
    /// The CPU must support the `aes` and `ssse3` target features; the
    /// instructions fault as undefined otherwise. All callers sit behind
    /// the runtime detection in
    /// [`Aes128::with_force_software`](super::Aes128::with_force_software).
    #[target_feature(enable = "aes,ssse3")]
    #[allow(clippy::needless_range_loop)]
    pub(super) unsafe fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let rk = encrypt_keying::<0>(key, &mut []);
        let mut out = [[0u8; 16]; 11];
        for i in 0..11 {
            _mm_storeu_si128(out[i].as_mut_ptr().cast(), rk[i]);
        }
        out
    }

    /// Encrypts `blocks` under `key` used for nothing else
    /// ([`encrypt_keying`]).
    ///
    /// # Safety
    /// The CPU must support the `aes` and `ssse3` target features.
    #[target_feature(enable = "aes,ssse3")]
    pub(super) unsafe fn encrypt_once<const N: usize>(key: &[u8; 16], blocks: &mut [[u8; 16]; N]) {
        let mut b = [_mm_setzero_si128(); N];
        for i in 0..N {
            b[i] = _mm_loadu_si128(blocks[i].as_ptr().cast());
        }
        encrypt_keying(key, &mut b);
        for i in 0..N {
            _mm_storeu_si128(blocks[i].as_mut_ptr().cast(), b[i]);
        }
    }

    #[inline(always)]
    fn load(rk: &[[u8; 16]; 11]) -> RoundKeys {
        let mut out = [to_vector(0); 11];
        for i in 0..11 {
            // SAFETY: an unaligned 16-byte load from a 16-byte array;
            // `sse2` is part of the x86_64 baseline.
            out[i] = unsafe { _mm_loadu_si128(rk[i].as_ptr().cast()) };
        }
        out
    }

    /// Encrypts one block with pre-expanded round keys.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports the `aes` target feature.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_block(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
        encrypt_slice(&load(rk), std::slice::from_mut(block));
    }

    /// Encrypts blocks eight-wide interleaved ([`encrypt_slice`]).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports the `aes` target feature.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_blocks(rk: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
        encrypt_slice(&load(rk), blocks);
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
            let mut once = [[0u8; 16], key];
            Aes128::encrypt_once(&key, &mut once);
            let soft = Aes128::with_force_software(&key, true);
            assert_eq!(
                once,
                [soft.encrypt(&[0; 16]), soft.encrypt(&key)],
                "{key:x?}"
            );
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
