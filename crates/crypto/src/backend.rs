//! The block primitives a chunk is sealed with — AES-128 under a fresh
//! key, GHASH, one SHA-256 compression — on the CPU's instructions or
//! portably.
//!
//! Sealing a chunk keys AES four times (two key-tree leaves, the digest's
//! element keys, the payload cipher) and hashes one block, each under a key
//! used once. Called one primitive at a time, each of those expands its
//! key into memory and enters its own `target_feature` function. A sealing
//! kernel written once over [`Backend`] and instantiated inside a single
//! `target_feature` function instead runs every key schedule round by round
//! beside the blocks it keys ([`Backend::aes_keying`]), its round keys in
//! registers (Gueron, *Intel Advanced Encryption Standard (AES) New
//! Instructions Set*, 2010, on-the-fly key expansion). [`Portable`] is the
//! same kernel over the software AES, the table GHASH and the FIPS 180-4
//! loop; on x86_64, [`AesNi`] is the hardware one, made only where the CPU
//! has its instructions.

use crate::aes::{expand_key, soft_encrypt_block};
use crate::gcm::{ghash_with, mul_table, table};
use crate::sha256::compress_portable;

/// One implementation of the block primitives. An AES block is the `u128`
/// whose little-endian bytes are the block's bytes: counters and indices
/// are written into it with integer operations, in registers.
pub trait Backend: Copy {
    /// The round keys of one AES-128 key, as this backend holds them.
    type RoundKeys;
    /// A GHASH key, as this backend multiplies by it.
    type GhashKey;

    /// Encrypts `blocks` under `key`, its key schedule run beside them,
    /// and returns the round keys for more blocks under the same key.
    fn aes_keying<const N: usize>(self, key: &[u8; 16], blocks: &mut [u128; N]) -> Self::RoundKeys;

    /// Encrypts `blocks` under round keys [`aes_keying`](Self::aes_keying)
    /// returned, round by round across all of them.
    fn aes_with<const N: usize>(self, keys: &Self::RoundKeys, blocks: &mut [u128; N]);

    /// The GHASH key of `h`; `aggregate` asks for what folding four blocks
    /// at a time needs, where the backend has such a path.
    fn ghash_key(self, h: u128, aggregate: bool) -> Self::GhashKey;

    /// GHASH over AAD and ciphertext, length block included.
    fn ghash(self, key: &Self::GhashKey, aad: &[u8], ct: &[u8]) -> u128;

    /// Folds one 64-byte block into a SHA-256 state.
    fn sha256_compress(self, state: &mut [u32; 8], block: &[u8; 64]);
}

/// The portable backend: software AES, the 4-bit-table GHASH and the
/// FIPS 180-4 compression loop, whatever the CPU offers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Portable;

impl Backend for Portable {
    type RoundKeys = [[u8; 16]; 11];
    type GhashKey = [u128; 16];

    #[inline(always)]
    fn aes_keying<const N: usize>(self, key: &[u8; 16], blocks: &mut [u128; N]) -> Self::RoundKeys {
        let keys = expand_key(key);
        self.aes_with(&keys, blocks);
        keys
    }

    #[inline(always)]
    fn aes_with<const N: usize>(self, keys: &Self::RoundKeys, blocks: &mut [u128; N]) {
        for block in blocks {
            let mut bytes = block.to_le_bytes();
            soft_encrypt_block(keys, &mut bytes);
            *block = u128::from_le_bytes(bytes);
        }
    }

    #[inline(always)]
    fn ghash_key(self, h: u128, _aggregate: bool) -> Self::GhashKey {
        table(h)
    }

    #[inline(always)]
    fn ghash(self, key: &Self::GhashKey, aad: &[u8], ct: &[u8]) -> u128 {
        ghash_with(|x| mul_table(key, x), aad, ct)
    }

    #[inline(always)]
    fn sha256_compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        compress_portable(state, block);
    }
}

/// The hardware backend: AES-NI, `pclmulqdq` and, with `SHA`, the SHA
/// extensions. A value exists only where [`detect`](Self::detect) found
/// them, so its methods may run their instructions. They are
/// `#[inline(always)]`: inlined into a function compiled with those target
/// features, each intrinsic is one instruction; anywhere else they are
/// correct but call per instruction.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct AesNi<const SHA: bool>(());

#[cfg(target_arch = "x86_64")]
impl<const SHA: bool> AesNi<SHA> {
    /// The backend, if this CPU has `aes`, `pclmulqdq`, `sse2`, `ssse3`
    /// and, with `SHA`, `sha` and `sse4.1`.
    pub fn detect() -> Option<Self> {
        let aes = std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3");
        let sha = !SHA || crate::sha256::shani::available();
        (aes && sha).then_some(AesNi(()))
    }
}

// Index loops on purpose: iterator adapters and closures are not always
// inlined into a `target_feature` function, and one left out of line calls
// every intrinsic in it.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::needless_range_loop)]
impl<const SHA: bool> Backend for AesNi<SHA> {
    type RoundKeys = crate::aes::aesni::RoundKeys;
    type GhashKey = ([u128; 4], bool);

    #[inline(always)]
    fn aes_keying<const N: usize>(self, key: &[u8; 16], blocks: &mut [u128; N]) -> Self::RoundKeys {
        use crate::aes::aesni::{encrypt_keying, from_vector, to_vector};
        let mut b = [to_vector(0); N];
        for i in 0..N {
            b[i] = to_vector(blocks[i]);
        }
        // SAFETY: an `AesNi` exists only where `detect` found `aes` and
        // `ssse3`.
        let keys = unsafe { encrypt_keying(key, &mut b) };
        for i in 0..N {
            blocks[i] = from_vector(b[i]);
        }
        keys
    }

    #[inline(always)]
    fn aes_with<const N: usize>(self, keys: &Self::RoundKeys, blocks: &mut [u128; N]) {
        use crate::aes::aesni::{encrypt_with, from_vector, to_vector};
        let mut b = [to_vector(0); N];
        for i in 0..N {
            b[i] = to_vector(blocks[i]);
        }
        // SAFETY: an `AesNi` exists only where `detect` found `aes`.
        unsafe { encrypt_with(keys, &mut b) };
        for i in 0..N {
            blocks[i] = from_vector(b[i]);
        }
    }

    #[inline(always)]
    fn ghash_key(self, h: u128, aggregate: bool) -> Self::GhashKey {
        if !aggregate {
            return ([h, 0, 0, 0], false);
        }
        // SAFETY: an `AesNi` exists only where `detect` found `pclmulqdq`
        // and `sse2`.
        (unsafe { crate::gcm::clmul::powers(h) }, true)
    }

    #[inline(always)]
    fn ghash(self, (powers, aggregate): &Self::GhashKey, aad: &[u8], ct: &[u8]) -> u128 {
        // SAFETY: an `AesNi` exists only where `detect` found `pclmulqdq`,
        // `sse2` and `ssse3`.
        unsafe { crate::gcm::clmul::ghash(powers, *aggregate, aad, ct) }
    }

    #[inline(always)]
    fn sha256_compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        if SHA {
            // SAFETY: an `AesNi<true>` exists only where `detect` found
            // `sha`, `ssse3` and `sse4.1`.
            unsafe { crate::sha256::shani::compress_body(state, block) }
        } else {
            compress_portable(state, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{sha256, sha256_short};
    use crate::Aes128;

    /// Runs `check` on every backend this CPU has.
    fn each_backend(check: impl Fn(&dyn Fn(&[u8; 16], &mut [u128; 8], &mut [u128; 4]))) {
        check(&|key, first, more| {
            let keys = Portable.aes_keying(key, first);
            Portable.aes_with(&keys, more);
        });
        #[cfg(target_arch = "x86_64")]
        if let Some(b) = AesNi::<false>::detect() {
            check(&|key, first, more| {
                let keys = b.aes_keying(key, first);
                b.aes_with(&keys, more);
            });
        }
    }

    #[test]
    fn keyed_blocks_are_aes128_blocks() {
        let mut x = 0x0123_4567_89ab_cdef_u128;
        let mut next = || {
            x = x.wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645) ^ (x >> 59);
            x
        };
        for _ in 0..64 {
            let key = next().to_le_bytes();
            let reference = Aes128::with_force_software(&key, true);
            let (first, more): ([u128; 8], [u128; 4]) = (
                std::array::from_fn(|_| next()),
                std::array::from_fn(|_| next()),
            );
            let expect = |b: &u128| u128::from_le_bytes(reference.encrypt(&b.to_le_bytes()));
            each_backend(|encrypt| {
                let (mut a, mut b) = (first, more);
                encrypt(&key, &mut a, &mut b);
                assert_eq!(a, first.map(|x| expect(&x)), "{key:x?}");
                assert_eq!(b, more.map(|x| expect(&x)), "{key:x?}");
            });
        }
    }

    #[test]
    fn a_short_message_hashes_as_sha256() {
        let data: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(71)).collect();
        for len in 0..=data.len() {
            let expect = sha256(&data[..len]);
            assert_eq!(sha256_short(Portable, &data[..len]), expect, "len {len}");
            #[cfg(target_arch = "x86_64")]
            if let Some(b) = AesNi::<true>::detect() {
                assert_eq!(sha256_short(b, &data[..len]), expect, "len {len}");
            }
        }
    }
}
