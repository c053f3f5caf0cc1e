//! SHA-256, implemented from FIPS 180-4.
//!
//! Used by the SHA-256 PRG instantiation of the key derivation tree
//! (paper §4.2.3 / Fig. 6), by the dual-key-regression hash chains (§A.2),
//! for chunk payload keys and for chunk commitments.

use crate::backend::{Backend, Dispatch, Job, Portable};

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher, its blocks compressed on backend `B`:
/// [`new`](Sha256::new) hashes portably, [`on`](Self::on) inside a job.
/// The one-shot [`sha256`] runs on the backend [`Dispatch::detect`] picked.
///
/// ```
/// use timecrypt_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256<B = Portable> {
    b: B,
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the portable compression.
    pub fn new() -> Self {
        Self::on(Portable)
    }
}

impl<B: Backend> Sha256<B> {
    /// Creates a fresh hasher compressing on `b`.
    #[inline(always)]
    pub fn on(b: B) -> Self {
        Sha256 {
            b,
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    #[inline(always)]
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            self.b.sha256_compress(&mut self.state, &self.buf);
        }
        // Full blocks are compressed where they lie.
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            self.b.sha256_compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    #[inline(always)]
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to byte 56 of a block, the bit length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.b.sha256_compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.b.sha256_compress(&mut self.state, &self.buf);
        digest(self.state)
    }
}

/// The digest of a final state.
#[inline(always)]
fn digest(state: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One block by the FIPS 180-4 §6.2.2 loop: the portable path, and the
/// reference for the accelerated one.
pub(crate) fn compress_portable(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod shani {
    //! The compression function on the x86 SHA extensions.
    use std::arch::x86_64::*;

    /// Folds one 64-byte block into `state`. `sha256rnds2` does two
    /// rounds on the state split as `(ABEF, CDGH)`; `sha256msg1` /
    /// `sha256msg2` extend the message schedule four words at a time, so a
    /// block is sixteen groups of four rounds over a window of the last
    /// four word groups. `#[inline(always)]`, for a job compiled with the
    /// target features below.
    ///
    /// # Safety
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` target
    /// features; the instructions fault otherwise.
    #[inline(always)]
    // The macro's last group writes a schedule word no group reads.
    #[allow(unused_assignments)]
    pub(crate) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Big-endian words out of each 16 message bytes.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // `w[g % 4]` holds W[4g..4g + 4] while group `g` needs it.
            let mut w: [__m128i; 4] = std::array::from_fn(|i| {
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), swap)
            });
            // Unrolled by the macro so the window stays in registers.
            macro_rules! four_rounds {
                ($($g:literal)*) => {$(
                    let k = _mm_loadu_si128(super::K.as_ptr().add(4 * $g).cast());
                    let wk = _mm_add_epi32(w[$g % 4], k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                    if 3 <= $g && $g < 15 {
                        // Group g + 1 replaces g − 3, made from the four.
                        let (w3, w2, w1, w0) =
                            (w[($g + 1) % 4], w[($g + 2) % 4], w[($g + 3) % 4], w[$g % 4]);
                        let sigma0 = _mm_sha256msg1_epu32(w3, w2);
                        let with_w7 = _mm_add_epi32(sigma0, _mm_alignr_epi8(w0, w1, 4));
                        w[($g + 1) % 4] = _mm_sha256msg2_epu32(with_w7, w0);
                    }
                )*};
            }
            four_rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// SHA-256 of a message of at most 55 bytes — one block once padded —
/// compressed by `b`; longer messages go to [`sha256`].
#[inline(always)]
pub fn sha256_short<B: Backend>(b: B, msg: &[u8]) -> [u8; 32] {
    if msg.len() > 55 {
        return sha256(msg);
    }
    let mut block = [0u8; 64];
    block[..msg.len()].copy_from_slice(msg);
    block[msg.len()] = 0x80;
    block[56..].copy_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    b.sha256_compress(&mut state, &block);
    digest(state)
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_concat(data, &[])
}

/// One-shot SHA-256 over the concatenation of two byte strings, avoiding an
/// intermediate allocation. Used heavily by the PRG (`H(0||x)`, `H(1||x)`).
pub fn sha256_concat(a: &[u8], b: &[u8]) -> [u8; 32] {
    struct Hash<'a>(&'a [u8], &'a [u8]);
    impl Job for Hash<'_> {
        type Output = [u8; 32];
        #[inline(always)]
        fn run<B: Backend>(self, b: B) -> [u8; 32] {
            let mut h = Sha256::on(b);
            h.update(self.0);
            h.update(self.1);
            h.finalize()
        }
    }
    Dispatch::detect().run(Hash(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testing::each_backend;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn rfc6234_and_nist_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let test4 = b"01234567".repeat(80);
        let vectors: [(&[u8], &str); 6] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
            (
                &test4,
                "594847328451bdfa85056225462cc1d867d877fb388df0ce35f25ab5562bfbb5",
            ),
        ];
        each_backend(|d, b| {
            for (input, expected) in vectors {
                assert_eq!(hex(&b.sha256(&[input])), expected, "{d:?}");
            }
        });
        for (input, expected) in vectors {
            assert_eq!(hex(&sha256(input)), expected);
        }
    }

    #[test]
    fn every_length_and_split_agrees_across_backends() {
        // Lengths across the one- and two-block padding edges (55/56, 63/64,
        // 119/120 …), each cut in two at every point: the buffered prefix,
        // the in-place full blocks and the tail all get every size.
        let mut x = 0x9e37_79b9u32;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=data.len() {
            let data = &data[..len];
            let mut h = Sha256::new();
            h.update(data);
            let reference = h.finalize();
            assert_eq!(sha256(data), reference, "len {len}");
            each_backend(|d, b| {
                for split in 0..=len {
                    let parts = [&data[..split], &data[split..]];
                    assert_eq!(b.sha256(&parts), reference, "{d:?} len {len} split {split}");
                }
            });
        }
    }

    #[test]
    fn sha256_concat_matches_manual_concat() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(sha256_concat(a, b), sha256(b"hello world"));
    }
}
