//! The boundary cache: running sums queries read from the store more than
//! once, for every index of a node, within one budget of heap. Each open of
//! an [`AggTree`](crate::AggTree) is a life, which keys its sums afresh.

use parking_lot::{Mutex, MutexGuard};
use std::collections::{hash_map::DefaultHasher, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;
use timecrypt_obs::counters::INDEX_BOUNDARY_CACHE_BYTES as GAUGE;
use timecrypt_obs::rank::{self, Held, Ranked};

/// Most stripes, and the least budget worth one.
const STRIPES: usize = 16;
const STRIPE_BYTES: usize = 64 * 1024;

/// Chunks per block: a bit per chunk read, and the sums a second read admits.
const CHUNKS: u64 = 32;

/// Running sums queries read, by life and chunk, within a budget in bytes.
/// Fixed hashes pick a block's stripe, locked at rank `cache`, and its slot
/// in the stripe's table, so that what each is charged is reproducible.
#[derive(Default)]
pub struct BoundaryCache {
    budget: usize,
    /// Lives drawn: each index open takes the next.
    pub(crate) lives: AtomicU64,
    stripes: OnceLock<Box<[Ranked<{ rank::CACHE }, Mutex<Blocks>>]>>,
}

/// A stripe's blocks, by life and chunk / [`CHUNKS`], in CLOCK's order.
#[derive(Default)]
struct Blocks {
    map: HashMap<(u64, u64), Block, BuildHasherDefault<DefaultHasher>>,
    clock: VecDeque<(u64, u64)>,
    sums: usize,
}

/// Its chunks' bits read, a reference bit, and its sums, each its place in
/// the block, then the sum.
#[derive(Default)]
struct Block {
    seen: u32,
    stride: u16,
    referenced: bool,
    sums: Vec<u8>,
}

type Stripe<'a> = Held<{ rank::CACHE }, MutexGuard<'a, Blocks>>;

impl BoundaryCache {
    /// An empty cache of `budget` bytes; its first read allocates.
    pub fn new(budget: usize) -> Self {
        let mut cache = Self::default();
        cache.budget = budget;
        cache
    }

    /// `f` of the sum of `chunk` of `life` of `stream`, if it is cached.
    pub(crate) fn get<R>(&self, at: (u128, u64, u64), f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let (mut blocks, key) = self.stripe(at)?;
        let block = blocks.map.get_mut(&key)?;
        block.referenced = true;
        block.find(at.2).map(f)
    }

    /// A query read `sum`, the sum at `(stream, life, chunk)`, from the store.
    pub(crate) fn read(&self, at @ (_, _, chunk): (u128, u64, u64), sum: &[u8]) {
        let (Ok(stride), true) = (u16::try_from(1 + sum.len()), self.budget > 0) else {
            return;
        };
        let n = (self.budget / STRIPE_BYTES).clamp(1, STRIPES);
        (self.stripes).get_or_init(|| (0..n).map(|_| Ranked::default()).collect());
        let Some((mut guard, key)) = self.stripe(at) else {
            return;
        };
        let (before, blocks) = (guard.charged(), &mut *guard);
        if !blocks.map.contains_key(&key) {
            blocks.clock.push_back(key);
        }
        let (block, bit) = (blocks.map.entry(key).or_default(), 1 << (chunk % CHUNKS));
        block.referenced = true;
        if block.seen & bit == 0 {
            block.seen |= bit;
        } else if (block.sums.is_empty() || block.stride == stride) && block.find(chunk).is_none() {
            block.stride = stride;
            let was = block.sums.capacity();
            block.sums.reserve(stride.into());
            block.sums.push((chunk % CHUNKS) as u8);
            block.sums.extend_from_slice(sum);
            blocks.sums += block.sums.capacity() - was;
        }
        // CLOCK: a block looked into since the hand passed goes round again.
        while blocks.charged() > self.budget / n {
            let Some(key) = blocks.clock.pop_front() else {
                (blocks.map, blocks.clock) = Default::default();
                break;
            };
            match blocks.map.remove(&key) {
                Some(mut block) if block.referenced => {
                    block.referenced = false;
                    blocks.clock.push_back(key);
                    blocks.map.insert(key, block);
                }
                block => blocks.sums -= block.map_or(0, |block| block.sums.capacity()),
            }
        }
        GAUGE.add((blocks.charged() as u64).wrapping_sub(before as u64));
    }

    /// Bytes charged, across the stripes: within the budget.
    pub(crate) fn charged(&self) -> usize {
        let stripes = self.stripes.get().into_iter().flatten();
        stripes.map(|s| s.lock(Mutex::lock).charged()).sum()
    }

    /// The stripe of `(stream, life, chunk)`, locked, and its block's key.
    fn stripe(&self, (stream, life, chunk): (u128, u64, u64)) -> Option<(Stripe<'_>, (u64, u64))> {
        let (stripes, block) = (self.stripes.get()?, chunk / CHUNKS);
        let mix = ((stream ^ u128::from(block)) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let stripe = &stripes[(mix >> 32) as usize % stripes.len()];
        Some((stripe.lock(Mutex::lock), (life, block)))
    }
}

impl Drop for BoundaryCache {
    fn drop(&mut self) {
        GAUGE.sub(self.charged() as u64);
    }
}

impl Blocks {
    /// Heap bytes: table slots (7 in 8 used), clock, sums, and malloc's 16 B a block.
    fn charged(&self) -> usize {
        let slots = (8 * self.map.capacity()).div_ceil(7);
        let table = slots * (size_of::<((u64, u64), Block)>() + 1);
        table + 16 * (self.clock.capacity() + self.map.len()) + self.sums
    }
}

impl Block {
    /// The cached sum of `chunk`, if it is in the block.
    fn find(&self, chunk: u64) -> Option<&[u8]> {
        let mut sums = self.sums.chunks(self.stride.max(1).into());
        let sum = sums.find(|sum| u64::from(sum[0]) == chunk % CHUNKS)?;
        Some(&sum[1..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sum of `words` words, all `chunk`.
    fn sum(chunk: u64, words: usize) -> Vec<u8> {
        (0..words).flat_map(|_| chunk.to_le_bytes()).collect()
    }

    /// A query's lookup of `chunk`'s sum in life `life` of stream `life`,
    /// and on a miss its store read; true on a hit.
    fn query(cache: &BoundaryCache, life: u64, chunk: u64, words: usize) -> bool {
        let at = (u128::from(life), life, chunk);
        let hit = cache.get(at, |_| ()).is_some();
        if !hit {
            cache.read(at, &sum(chunk, words));
        }
        hit
    }

    /// Two queries of `chunk`'s sum: its bit, then the sum admitted.
    fn admit(cache: &BoundaryCache, life: u64, chunk: u64, words: usize) {
        for _ in 0..2 {
            query(cache, life, chunk, words);
        }
    }

    /// Whether the sum of `chunk` of `life` is held, no reference bit set.
    fn held(cache: &BoundaryCache, life: u64, chunk: u64) -> bool {
        let found = cache.stripe((u128::from(life), life, chunk));
        found
            .is_some_and(|(blocks, key)| blocks.map.get(&key).and_then(|b| b.find(chunk)).is_some())
    }

    /// Each stripe is charged its blocks' sums and tables, within its share.
    fn assert_charged(cache: &BoundaryCache) {
        let stripes = cache.stripes.get().map_or(&[][..], |s| &s[..]);
        for stripe in stripes {
            let blocks = stripe.lock(Mutex::lock);
            let sums: usize = blocks.map.values().map(|b| b.sums.capacity()).sum();
            assert_eq!((blocks.sums, blocks.map.len()), (sums, blocks.clock.len()));
            assert!(blocks.charged() <= cache.budget / stripes.len());
        }
    }

    #[test]
    fn a_sum_is_admitted_by_its_second_read_and_found_by_its_life() {
        let cache = BoundaryCache::new(1 << 20);
        cache.read((1, 1, 5), &sum(5, 4));
        assert_eq!(cache.get((1, 1, 5), <[u8]>::to_vec), None, "a bit alone");
        cache.read((1, 1, 5), &sum(5, 4));
        assert_eq!(cache.get((1, 1, 5), <[u8]>::to_vec), Some(sum(5, 4)));
        // Another life of the stream, or another chunk: nothing.
        assert_eq!(cache.get((1, 2, 5), <[u8]>::to_vec), None);
        assert_eq!(cache.get((1, 1, 6), <[u8]>::to_vec), None);
        // Any width, none included; but in a block, a sum of another width
        // than its first is refused.
        admit(&cache, 3, 5, 19);
        admit(&cache, 4, 5, 0);
        admit(&cache, 3, 6, 4);
        assert_eq!(cache.get((3, 3, 5), <[u8]>::to_vec), Some(sum(5, 19)));
        assert_eq!(cache.get((4, 4, 5), <[u8]>::to_vec), Some(vec![]));
        assert!(!held(&cache, 3, 6));
        assert_charged(&cache);
        assert_eq!(cache.stripes.get().map(|s| s.len()), Some(STRIPES));
        // A zero budget builds nothing.
        let none = BoundaryCache::new(0);
        admit(&none, 1, 5, 4);
        assert!(none.stripes.get().is_none() && none.charged() == 0);
    }

    #[test]
    fn sums_re_read_are_held_and_charged_a_few_bytes_beside_their_words() {
        // Random reads of 2 000 chunks' sums of four words, each read about
        // 30 times, as the fleet's boundaries are: once every block is
        // looked into between two passes of the hand, every read hits.
        let cache = BoundaryCache::new(4 << 20);
        let mut state = 5u64;
        let mut read = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            query(&cache, 7, (state >> 33) % 2000, 4)
        };
        let hits: Vec<bool> = (0..60_000).map(|_| read()).collect();
        assert!(hits.iter().filter(|&&hit| hit).count() > 55_000);
        assert!(hits[40_000..].iter().all(|&hit| hit));
        assert!((0..2000).all(|chunk| held(&cache, 7, chunk)));
        assert_charged(&cache);
        // 33 bytes a sum of four words, and a few its block's share.
        let per_sum = cache.charged() as f64 / 2000.0;
        assert!((33.0..40.0).contains(&per_sum), "{per_sum} B a sum");
    }

    #[test]
    fn clock_evicts_blocks_not_looked_into_since_the_hand_passed() {
        // One stripe, with room for twelve blocks of 32 sums of 19 words
        // (4 896 bytes each), their table and their clock, and not for 13.
        let cache = BoundaryCache::new(12 * 4896 + 4000);
        let fill = |block: u64| (32 * block..32 * block + 32).for_each(|c| admit(&cache, 1, c, 19));
        let held_blocks = || {
            (0..20)
                .filter(|b| held(&cache, 1, 32 * b))
                .collect::<Vec<_>>()
        };
        (0..12).for_each(fill);
        assert_eq!(held_blocks(), (0..12).collect::<Vec<_>>());
        // The 13th block's sums pass the budget: the hand clears every
        // block's bit, then evicts the first.
        fill(12);
        assert_eq!(held_blocks(), (1..13).collect::<Vec<_>>());
        // Blocks 3 and 5 are looked into: each block to come evicts the
        // next one from the hand that no query looked into since.
        assert!(query(&cache, 1, 3 * 32, 19) && query(&cache, 1, 5 * 32, 19));
        (13..17).for_each(fill);
        assert_eq!(held_blocks(), [3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
        assert_charged(&cache);
    }

    #[test]
    fn many_lives_share_one_budget() {
        // Each life's eight sums are read back while the next lives fill,
        // so the budget binds: the oldest lives give way.
        let cache = BoundaryCache::new(64 << 10);
        for life in 0..2000 {
            (0..8).for_each(|chunk| admit(&cache, life, chunk, 19));
            for back in life.saturating_sub(40)..life {
                query(&cache, back, 7, 19);
            }
            if life % 100 == 0 {
                assert_charged(&cache);
            }
        }
        assert!(cache.charged() > 32 << 10 && cache.charged() <= 64 << 10);
        assert!((1990..2000).all(|life| held(&cache, life, 7)) && !held(&cache, 0, 7));
    }
}
