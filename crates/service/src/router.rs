//! Stream → shard assignment.
//!
//! ## Routing invariants
//!
//! 1. **Stability** — `shard_of` is a pure function of `(stream id, shard
//!    count)`. Every request for a stream, from any connection at any time,
//!    lands on the same shard; a stream's in-memory state (aggregation
//!    tree, integrity ledger, live-record buffer) therefore exists in
//!    exactly one engine.
//! 2. **Restart safety** — shards share one KV store and rebuild their
//!    stream registries from it with the same filter, so a service restart
//!    (even with a *different* shard count) re-partitions cleanly: the hash
//!    decides ownership afresh and each stream is recovered by exactly one
//!    shard.
//! 3. **Uniformity** — ids are mixed through a 64-bit finalizer before the
//!    modulo so that sequential stream ids (the common allocation pattern)
//!    spread evenly instead of striping.

use timecrypt_obs::mix64;

/// Routes stream ids to shards by stable hash.
///
/// ```
/// use timecrypt_service::ShardRouter;
///
/// let router = ShardRouter::new(4);
/// let shard = router.shard_of(0xBEEF);
/// assert!(shard < 4);
/// // Pure function of (stream, shard count): every caller — coordinator,
/// // node, or test — computes the same owner.
/// assert_eq!(shard, ShardRouter::new(4).shard_of(0xBEEF));
/// // Changing the shard count may move streams; that is what lets a
/// // restarted service re-partition cleanly from the shared store.
/// let wider = ShardRouter::new(8);
/// assert!(wider.shard_of(0xBEEF) < 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards (at least 1).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        ShardRouter { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `stream`.
    pub fn shard_of(&self, stream: u128) -> usize {
        (mix64((stream as u64) ^ (stream >> 64) as u64) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_in_range() {
        let r = ShardRouter::new(4);
        for id in 0..1000u128 {
            let s = r.shard_of(id);
            assert!(s < 4);
            assert_eq!(s, r.shard_of(id), "routing must be deterministic");
        }
    }

    #[test]
    fn sequential_ids_spread() {
        let r = ShardRouter::new(8);
        let mut counts = [0usize; 8];
        for id in 0..8000u128 {
            counts[r.shard_of(id)] += 1;
        }
        for &c in &counts {
            // Perfectly uniform would be 1000; allow generous slack.
            assert!(
                (600..1400).contains(&c),
                "skewed shard distribution: {counts:?}"
            );
        }
    }

    #[test]
    fn single_shard_takes_all() {
        let r = ShardRouter::new(1);
        assert_eq!(r.shard_of(u128::MAX), 0);
    }
}
