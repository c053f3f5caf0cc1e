//! Dual key regression (paper §4.4.2 and §A.2).
//!
//! A key-regression scheme lets an entity holding state `s_i` derive all
//! keys `k_j, j ≤ i` but nothing newer. *Dual* key regression combines two
//! hash chains — the primary consumed backwards, the secondary forwards — so
//! an interval `[lo, hi]` of keys can be shared by handing out one state from
//! each chain: `s1_hi` bounds the future, `s2_lo` bounds the past.
//!
//! TimeCrypt uses one dual-key-regression instance per *access resolution*
//! (§4.4): its keys encrypt the envelopes that wrap the outer tree leaves.
//! Sharing `(s1_hi, s2_lo)` therefore grants exactly the aggregate
//! granularity and time window the owner chose, with open-ended
//! subscriptions extended by publishing a newer `s1` state and revocation
//! realized by simply stopping (forward secrecy, §3.3).
//!
//! The owner stores O(√n) checkpoints along the primary chain so that
//! deriving an arbitrary state costs at most √n hash evaluations — the
//! O(√n) bound quoted in the paper's §6.2 (2.7 ms for n = 2^30).

use crate::error::CoreError;
use timecrypt_crypto::sha256::sha256_concat;

/// A 256-bit chain state.
pub type State = [u8; 32];

/// A chain state together with its position in the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KrState {
    /// Chain position.
    pub index: u64,
    /// The state bytes.
    pub state: State,
}

/// The pair of states a principal receives: primary bound (`upper`, from
/// which all *older* primary states derive) and secondary bound (`lower`,
/// from which all *newer* secondary states derive). Grants keys
/// `[lower.index, upper.index]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KrToken {
    /// Primary-chain state at the interval's upper end.
    pub upper: KrState,
    /// Secondary-chain state at the interval's lower end.
    pub lower: KrState,
}

/// One hash-chain step: `next = H(state || "tc-kr-step")`.
#[inline]
fn step(s: &State) -> State {
    sha256_concat(s, b"tc-kr-step")
}

/// Key derivation from the XOR of the two chains' states at the same index:
/// `k = trunc128(H((s1 ⊕ s2) || "tc-kr-key"))`.
#[inline]
fn derive_key(s1: &State, s2: &State) -> [u8; 16] {
    let mut x = [0u8; 32];
    for i in 0..32 {
        x[i] = s1[i] ^ s2[i];
    }
    let d = sha256_concat(&x, b"tc-kr-key");
    let mut k = [0u8; 16];
    k.copy_from_slice(&d[..16]);
    k
}

/// Owner-side dual key regression over indices `0..=n`.
///
/// The primary chain is generated from a random seed at position `n` and
/// hashed *down* to position 0 (`s1_{i-1} = H(s1_i)`); the secondary chain
/// from a random seed at position 0 hashed *up* (`s2_{i+1} = H(s2_i)`).
/// Checkpoints every ⌈√(n+1)⌉ positions bound derivation cost by √n hashes.
pub struct DualKeyRegression {
    n: u64,
    stride: u64,
    /// Primary-chain checkpoints at indices n, n−stride, … (descending walk).
    primary_cp: Vec<State>,
    /// Secondary-chain checkpoints at indices 0, stride, … (ascending walk).
    secondary_cp: Vec<State>,
}

impl DualKeyRegression {
    /// Builds a fresh instance covering key indices `0..=n` from two secret
    /// seeds. Cost: O(n) hashes once, O(√n) memory.
    pub fn new(primary_seed: State, secondary_seed: State, n: u64) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::InvalidParams("key regression needs n >= 1"));
        }
        if n > (1u64 << 40) {
            return Err(CoreError::InvalidParams("key regression chain too long"));
        }
        let stride = ((n + 1) as f64).sqrt().ceil() as u64;
        // Primary: walk from index n down to 0, checkpointing.
        let mut primary_cp = Vec::with_capacity((n / stride + 2) as usize);
        let mut s = primary_seed;
        let mut idx = n;
        primary_cp.push(s); // checkpoint at n
        while idx > 0 {
            s = step(&s);
            idx -= 1;
            if idx.is_multiple_of(stride) {
                primary_cp.push(s);
            }
        }
        // Secondary: walk from 0 up to n, checkpointing.
        let mut secondary_cp = Vec::with_capacity((n / stride + 2) as usize);
        let mut s = secondary_seed;
        secondary_cp.push(s);
        for idx in 1..=n {
            s = step(&s);
            if idx % stride == 0 {
                secondary_cp.push(s);
            }
        }
        Ok(DualKeyRegression {
            n,
            stride,
            primary_cp,
            secondary_cp,
        })
    }

    /// Highest key index.
    pub fn max_index(&self) -> u64 {
        self.n
    }

    /// Primary-chain state at `i` (≤ √n hashes from the nearest checkpoint).
    fn primary_state(&self, i: u64) -> Result<State, CoreError> {
        if i > self.n {
            return Err(CoreError::KrOutOfBounds {
                index: i,
                lo: 0,
                hi: self.n,
            });
        }
        // `primary_cp[0]` sits at `n` and `primary_cp[k]`, k ≥ 1, at the
        // k-th multiple of `stride` below `n`, counting down from the
        // highest; the walk starts at the nearest of them at or above `i`.
        let target = i.div_ceil(self.stride) * self.stride;
        let (cp_pos, cp_state) = if target >= self.n {
            (self.n, self.primary_cp[0])
        } else {
            let highest = ((self.n - 1) / self.stride) * self.stride;
            let slot = 1 + ((highest - target) / self.stride) as usize;
            (target, self.primary_cp[slot])
        };
        let mut s = cp_state;
        for _ in i..cp_pos {
            s = step(&s);
        }
        Ok(s)
    }

    /// Secondary-chain state at `i` (≤ √n hashes).
    fn secondary_state(&self, i: u64) -> Result<State, CoreError> {
        if i > self.n {
            return Err(CoreError::KrOutOfBounds {
                index: i,
                lo: 0,
                hi: self.n,
            });
        }
        let cp_pos = (i / self.stride) * self.stride;
        let slot = (i / self.stride) as usize;
        let mut s = self.secondary_cp[slot];
        for _ in cp_pos..i {
            s = step(&s);
        }
        Ok(s)
    }

    /// The owner can derive any key directly.
    pub fn key(&self, i: u64) -> Result<[u8; 16], CoreError> {
        Ok(derive_key(
            &self.primary_state(i)?,
            &self.secondary_state(i)?,
        ))
    }

    /// Produces the share token for the inclusive interval `[lo, hi]`.
    pub fn share(&self, lo: u64, hi: u64) -> Result<KrToken, CoreError> {
        if lo > hi || hi > self.n {
            return Err(CoreError::KrOutOfBounds {
                index: hi,
                lo: 0,
                hi: self.n,
            });
        }
        Ok(KrToken {
            upper: KrState {
                index: hi,
                state: self.primary_state(hi)?,
            },
            lower: KrState {
                index: lo,
                state: self.secondary_state(lo)?,
            },
        })
    }
}

/// Consumer-side view: derives keys within the shared interval only.
pub struct KrConsumer {
    token: KrToken,
}

impl KrConsumer {
    /// Wraps a received token.
    pub fn new(token: KrToken) -> Self {
        KrConsumer { token }
    }

    /// Inclusive interval of derivable key indices.
    pub fn interval(&self) -> (u64, u64) {
        (self.token.lower.index, self.token.upper.index)
    }

    /// Extends the subscription with a newer primary state (open-ended
    /// grants, Table 1's `GrantOpenAccess`). Rejects regressions.
    pub fn extend(&mut self, newer_upper: KrState) -> Result<(), CoreError> {
        if newer_upper.index < self.token.upper.index {
            return Err(CoreError::InvalidParams(
                "extension must move the upper bound forward",
            ));
        }
        self.token.upper = newer_upper;
        Ok(())
    }

    /// Derives key `i`. Cost: `(upper − i) + (i − lower)` hash steps.
    pub fn key(&self, i: u64) -> Result<[u8; 16], CoreError> {
        let (lo, hi) = self.interval();
        if i < lo || i > hi {
            return Err(CoreError::KrOutOfBounds { index: i, lo, hi });
        }
        let mut s1 = self.token.upper.state;
        for _ in i..hi {
            s1 = step(&s1);
        }
        let mut s2 = self.token.lower.state;
        for _ in lo..i {
            s2 = step(&s2);
        }
        Ok(derive_key(&s1, &s2))
    }
}

/// Benchmark helper: the cost of deriving one state `steps` hash
/// applications away (the paper's O(√n) bound: √(2^30) ≈ 32k steps
/// ≈ 2.7 ms). Separated out so Fig./§6.2 benches can measure chain-walk
/// cost for large virtual n without materializing a 2^30-long chain.
pub fn chain_walk(seed: &State, steps: u64) -> State {
    let mut s = *seed;
    for _ in 0..steps {
        s = step(&s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kr(n: u64) -> DualKeyRegression {
        DualKeyRegression::new([1u8; 32], [2u8; 32], n).unwrap()
    }

    #[test]
    fn owner_keys_are_consistent() {
        let k = kr(100);
        for i in [0u64, 1, 9, 10, 11, 50, 99, 100] {
            assert_eq!(k.key(i).unwrap(), k.key(i).unwrap());
        }
        assert!(k.key(101).is_err());
    }

    #[test]
    fn owner_keys_match_naive_chains() {
        // Recompute both chains naively and compare every key.
        let n = 37u64;
        let k = kr(n);
        let mut primary = vec![[0u8; 32]; (n + 1) as usize];
        primary[n as usize] = [1u8; 32];
        for i in (0..n).rev() {
            primary[i as usize] = step(&primary[(i + 1) as usize]);
        }
        let mut secondary = vec![[0u8; 32]; (n + 1) as usize];
        secondary[0] = [2u8; 32];
        for i in 1..=n {
            secondary[i as usize] = step(&secondary[(i - 1) as usize]);
        }
        for i in 0..=n {
            assert_eq!(
                k.key(i).unwrap(),
                derive_key(&primary[i as usize], &secondary[i as usize]),
                "key {i}"
            );
        }
    }

    #[test]
    fn consumer_derives_shared_interval_only() {
        let k = kr(1000);
        let token = k.share(100, 200).unwrap();
        let c = KrConsumer::new(token);
        for i in [100u64, 150, 200] {
            assert_eq!(c.key(i).unwrap(), k.key(i).unwrap(), "key {i}");
        }
        assert!(c.key(99).is_err());
        assert!(c.key(201).is_err());
    }

    #[test]
    fn distinct_intervals_cannot_cross_derive() {
        let k = kr(100);
        let c1 = KrConsumer::new(k.share(0, 50).unwrap());
        let c2 = KrConsumer::new(k.share(51, 100).unwrap());
        assert!(c1.key(51).is_err());
        assert!(c2.key(50).is_err());
        // Both agree with the owner inside their own windows.
        assert_eq!(c1.key(50).unwrap(), k.key(50).unwrap());
        assert_eq!(c2.key(51).unwrap(), k.key(51).unwrap());
    }

    #[test]
    fn extension_moves_window_forward() {
        let k = kr(100);
        let mut c = KrConsumer::new(k.share(10, 20).unwrap());
        assert!(c.key(30).is_err());
        let newer = k.share(10, 60).unwrap().upper;
        c.extend(newer).unwrap();
        assert_eq!(c.key(30).unwrap(), k.key(30).unwrap());
        assert_eq!(c.key(60).unwrap(), k.key(60).unwrap());
        // Still bounded below.
        assert!(c.key(9).is_err());
        // Cannot extend backwards.
        let older = k.share(10, 20).unwrap().upper;
        assert!(c.extend(older).is_err());
    }

    #[test]
    fn single_key_share() {
        let k = kr(64);
        let c = KrConsumer::new(k.share(7, 7).unwrap());
        assert_eq!(c.key(7).unwrap(), k.key(7).unwrap());
        assert!(c.key(6).is_err());
        assert!(c.key(8).is_err());
    }

    #[test]
    fn checkpoint_strides_cover_all_indices() {
        // Exercise a size that is not a perfect square to catch off-by-one
        // errors in checkpoint slotting.
        for n in [1u64, 2, 3, 15, 16, 17, 99, 101, 255] {
            let k = kr(n);
            for i in 0..=n {
                k.key(i).unwrap();
            }
        }
    }

    #[test]
    fn different_seeds_give_different_keys() {
        let a = DualKeyRegression::new([1u8; 32], [2u8; 32], 10).unwrap();
        let b = DualKeyRegression::new([3u8; 32], [2u8; 32], 10).unwrap();
        assert_ne!(a.key(5).unwrap(), b.key(5).unwrap());
    }

    #[test]
    fn chain_walk_counts_steps() {
        let s = [9u8; 32];
        assert_eq!(chain_walk(&s, 0), s);
        assert_eq!(chain_walk(&s, 1), step(&s));
        assert_eq!(chain_walk(&s, 3), step(&step(&step(&s))));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(DualKeyRegression::new([0u8; 32], [0u8; 32], 0).is_err());
    }
}
