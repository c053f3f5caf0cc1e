//! The one place the CPU is asked what it has, and the block primitives
//! every keyed primitive runs on: AES-128 under a fresh key, GHASH, one
//! SHA-256 compression.
//!
//! [`Dispatch::detect`] picks a backend once per process: [`Portable`], or
//! on x86_64 [`AesNi<false>`](AesNi) (AES-NI, `pclmulqdq`) or
//! [`AesNi<true>`](AesNi) (and the SHA extensions). Work written once over
//! [`Backend`] is a [`Job`]; [`Dispatch::run`] runs it inside a function
//! compiled with the backend's target features, where each
//! `#[inline(always)]` primitive's intrinsics are single instructions and
//! every AES key schedule runs round by round beside the blocks it keys,
//! round keys in registers (Gueron, *Intel Advanced Encryption Standard
//! (AES) New Instructions Set*, 2010). Only those functions make an
//! `AesNi`, a zero-sized token as in RustCrypto's `cpufeatures`: no
//! hardware primitive runs outside them or on a CPU without its
//! instructions.

use crate::aes::{expand_key, soft_encrypt_block};
use crate::gcm::{ghash_with, mul_table, table};
use crate::sha256::compress_portable;
use std::sync::OnceLock;

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
/// extensions. Made only by [`Dispatch::run`], inside a function compiled
/// with those features on a CPU found to have them.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct AesNi<const SHA: bool>(());

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
        // SAFETY: an `AesNi` exists only where `Dispatch::detect` found
        // `aes` and `ssse3`.
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
        // SAFETY: an `AesNi` exists only where `Dispatch::detect` found
        // `aes`.
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
        // SAFETY: an `AesNi` exists only where `Dispatch::detect` found
        // `pclmulqdq` and `sse2`.
        (unsafe { crate::gcm::clmul::powers(h) }, true)
    }

    #[inline(always)]
    fn ghash(self, (powers, aggregate): &Self::GhashKey, aad: &[u8], ct: &[u8]) -> u128 {
        // SAFETY: an `AesNi` exists only where `Dispatch::detect` found
        // `pclmulqdq`, `sse2` and `ssse3`.
        unsafe { crate::gcm::clmul::ghash(powers, *aggregate, aad, ct) }
    }

    #[inline(always)]
    fn sha256_compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        if SHA {
            // SAFETY: an `AesNi<true>` exists only where `Dispatch::detect`
            // found `sha`, `ssse3` and `sse4.1`.
            unsafe { crate::sha256::shani::compress(state, block) }
        } else {
            compress_portable(state, block);
        }
    }
}

/// Work written once over [`Backend`], run by [`Dispatch::run`] on the
/// backend it picked. An implementation's `run` is `#[inline(always)]`, so
/// it is compiled into the backend's `target_feature` entry.
pub trait Job {
    /// What the work returns.
    type Output;

    /// Does the work on `b`.
    fn run<B: Backend>(self, b: B) -> Self::Output;
}

/// Which backend work runs on: [`detect`](Self::detect)ed from the CPU,
/// or [`PORTABLE`](Self::PORTABLE) whatever the CPU offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dispatch(Kind);

/// What a [`Dispatch`] holds; each needs what the one before needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Portable,
    #[cfg(target_arch = "x86_64")]
    AesNi,
    #[cfg(target_arch = "x86_64")]
    AesNiSha,
}

impl Dispatch {
    /// The portable backend (what the tests hold the hardware ones to).
    pub const PORTABLE: Dispatch = Dispatch(Kind::Portable);

    /// The fastest backend this CPU runs, detected on the first call.
    pub fn detect() -> Self {
        static DETECTED: OnceLock<Dispatch> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse2")
                && std::arch::is_x86_feature_detected!("ssse3")
            {
                let sha = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                return Dispatch(if sha { Kind::AesNiSha } else { Kind::AesNi });
            }
            Dispatch::PORTABLE
        })
    }

    /// Every backend this CPU runs, the portable one first.
    pub fn all() -> impl Iterator<Item = Dispatch> {
        let best = Dispatch::detect().0;
        let kinds = [
            Kind::Portable,
            #[cfg(target_arch = "x86_64")]
            Kind::AesNi,
            #[cfg(target_arch = "x86_64")]
            Kind::AesNiSha,
        ];
        kinds.into_iter().filter(move |k| *k <= best).map(Dispatch)
    }

    /// True for a hardware backend (AES-NI and `pclmulqdq`).
    pub fn is_hardware(self) -> bool {
        self.0 != Kind::Portable
    }

    /// True if SHA-256 runs on the CPU's SHA extensions.
    pub fn has_sha(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return self.0 == Kind::AesNiSha;
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// Runs `job` on this backend, inside a function compiled with its
    /// target features.
    #[inline]
    pub fn run<J: Job>(self, job: J) -> J::Output {
        match self.0 {
            Kind::Portable => portable(job),
            // SAFETY: a `Kind::AesNi` is made only by `detect`, where the
            // CPU has every feature `aesni` is compiled for, and by `all`,
            // which makes no kind above the one `detect` found.
            #[cfg(target_arch = "x86_64")]
            Kind::AesNi => unsafe { aesni(job) },
            // SAFETY: as above, and the CPU has `sha` and `sse4.1`.
            #[cfg(target_arch = "x86_64")]
            Kind::AesNiSha => unsafe { aesni_sha(job) },
        }
    }
}

/// `job` on the portable backend. Each entry is out of line, so a job is
/// compiled once per backend, not into every caller of [`Dispatch::run`]
/// or every job that starts another.
#[inline(never)]
fn portable<J: Job>(job: J) -> J::Output {
    job.run(Portable)
}

/// `job` on AES-NI and `pclmulqdq`, SHA-256 portable.
///
/// # Safety
/// The CPU must support the target features enabled here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3")]
#[inline(never)]
unsafe fn aesni<J: Job>(job: J) -> J::Output {
    job.run(AesNi::<false>(()))
}

/// `job` on AES-NI, `pclmulqdq` and the SHA extensions.
///
/// # Safety
/// The CPU must support the target features enabled here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,pclmulqdq,sse2,ssse3,sha,sse4.1")]
#[inline(never)]
unsafe fn aesni_sha<J: Job>(job: J) -> J::Output {
    job.run(AesNi::<true>(()))
}

#[cfg(test)]
pub(crate) mod testing {
    //! The tests' view of every backend.
    use super::{Backend, Dispatch, Job};

    /// The primitives of one backend behind `dyn`, for the tests to compare
    /// backends with one check.
    pub(crate) trait Ops {
        /// AES-128 under `key`: `first` beside its schedule, `more` under the
        /// round keys it returned.
        fn aes(&self, key: &[u8; 16], first: &mut [u128; 8], more: &mut [u128; 4]);
        /// GHASH under `h`.
        fn ghash(&self, h: u128, aggregate: bool, aad: &[u8], ct: &[u8]) -> u128;
        /// SHA-256 of the parts' concatenation, fed to one hasher part by part.
        fn sha256(&self, parts: &[&[u8]]) -> [u8; 32];
    }

    impl<B: Backend> Ops for B {
        fn aes(&self, key: &[u8; 16], first: &mut [u128; 8], more: &mut [u128; 4]) {
            let keys = self.aes_keying(key, first);
            self.aes_with(&keys, more);
        }

        fn ghash(&self, h: u128, aggregate: bool, aad: &[u8], ct: &[u8]) -> u128 {
            Backend::ghash(*self, &self.ghash_key(h, aggregate), aad, ct)
        }

        fn sha256(&self, parts: &[&[u8]]) -> [u8; 32] {
            let mut h = crate::sha256::Sha256::on(*self);
            for part in parts {
                h.update(part);
            }
            h.finalize()
        }
    }

    /// Runs `check` on every backend this CPU has, inside its entry.
    pub(crate) fn each_backend(check: impl Fn(Dispatch, &dyn Ops)) {
        struct Check<'a, F>(Dispatch, &'a F);
        impl<F: Fn(Dispatch, &dyn Ops)> Job for Check<'_, F> {
            type Output = ();
            fn run<B: Backend>(self, b: B) {
                (self.1)(self.0, &b)
            }
        }
        for d in Dispatch::all() {
            d.run(Check(d, &check));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::each_backend;
    use super::*;
    use crate::sha256::{sha256, sha256_short};

    #[test]
    fn keyed_blocks_are_aes128_blocks() {
        let mut x = 0x0123_4567_89ab_cdef_u128;
        let mut next = || {
            x = x.wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645) ^ (x >> 59);
            x
        };
        for _ in 0..64 {
            let key = next().to_le_bytes();
            let rk = expand_key(&key);
            let (first, more): ([u128; 8], [u128; 4]) = (
                std::array::from_fn(|_| next()),
                std::array::from_fn(|_| next()),
            );
            let expect = |b: &u128| {
                let mut block = b.to_le_bytes();
                soft_encrypt_block(&rk, &mut block);
                u128::from_le_bytes(block)
            };
            each_backend(|d, b| {
                let (mut a, mut m) = (first, more);
                b.aes(&key, &mut a, &mut m);
                assert_eq!(a, first.map(|x| expect(&x)), "{d:?} {key:x?}");
                assert_eq!(m, more.map(|x| expect(&x)), "{d:?} {key:x?}");
            });
        }
    }

    #[test]
    fn a_short_message_hashes_as_sha256() {
        struct Short<'a>(&'a [u8]);
        impl Job for Short<'_> {
            type Output = [u8; 32];
            fn run<B: Backend>(self, b: B) -> [u8; 32] {
                sha256_short(b, self.0)
            }
        }
        let data: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(71)).collect();
        for len in 0..=data.len() {
            for d in Dispatch::all() {
                assert_eq!(
                    d.run(Short(&data[..len])),
                    sha256(&data[..len]),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn every_backend_this_cpu_has_is_listed_once_best_last() {
        let all: Vec<Dispatch> = Dispatch::all().collect();
        assert_eq!(all.first(), Some(&Dispatch::PORTABLE));
        assert_eq!(all.last(), Some(&Dispatch::detect()));
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(all.iter().all(|d| !d.has_sha() || d.is_hardware()));
    }
}
