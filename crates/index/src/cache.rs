//! The boundary cache: running sums queries read from the store more than
//! once, for every index of a node, within one budget of heap. Each open of
//! an [`AggTree`](crate::AggTree) is a life, which keys its sums afresh.
//!
//! A stripe holds its working set: CLOCK evicts past a target that starts at
//! `FLOOR`, grows (up to the stripe's share) only as a query reads again a
//! sum the stripe evicted, and falls back as it evicts sums no query found.
//! An evicted block stays a ghost (CAR's signal, Bansal & Modha, FAST 2004),
//! so that a chunk's bit outlives it and its second read admits.

use parking_lot::{Mutex, MutexGuard};
use std::collections::{hash_map::DefaultHasher, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;
use timecrypt_obs::counters::INDEX_BOUNDARY_CACHE_BYTES as GAUGE;
use timecrypt_obs::counters::INDEX_BOUNDARY_CACHE_TARGET_BYTES as TARGET;
use timecrypt_obs::rank::{self, Held, Ranked};

/// Most stripes, and the least budget worth one.
const STRIPES: usize = 16;
const STRIPE_BYTES: usize = 64 * 1024;

/// A stripe's first and least target, in bytes, if its share is no less;
/// and the ghosts it keeps, or as many as the blocks it holds.
const FLOOR: usize = 2 * 1024;
const GHOSTS: usize = 32;

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
    stripes: OnceLock<Stripes>,
}

/// A stripe's blocks, by life and chunk / [`CHUNKS`], in CLOCK's order, and
/// the ghosts of those it evicted, oldest first: key, bits read, sums held.
#[derive(Default)]
struct Blocks {
    map: HashMap<(u64, u64), Block, BuildHasherDefault<DefaultHasher>>,
    clock: VecDeque<(u64, u64)>,
    ghosts: VecDeque<Ghost>,
    sums: usize,
    /// Bytes CLOCK lets it be charged, within its share of the budget.
    target: usize,
}

/// Bits of its chunks read, and of its sums evicted and not read since; a
/// reference bit, and whether a query found a sum; its sums, place first.
#[derive(Default)]
struct Block {
    seen: u32,
    ghost: u32,
    stride: u16,
    referenced: bool,
    hit: bool,
    sums: Vec<u8>,
}

type Ghost = ((u64, u64), u32, u32);
type Stripes = Box<[Ranked<{ rank::CACHE }, Mutex<Blocks>>]>;
type Stripe<'a> = Held<{ rank::CACHE }, MutexGuard<'a, Blocks>>;

impl BoundaryCache {
    /// An empty cache of `budget` bytes; its first read allocates, unless
    /// the budget cannot hold a stripe: then, as at `0`, it caches nothing.
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
        let found = block.find(at.2).map(f);
        block.hit |= found.is_some();
        found
    }

    /// A query read `sum`, the sum at `(stream, life, chunk)`, from the store.
    pub(crate) fn read(&self, at @ (_, _, chunk): (u128, u64, u64), sum: &[u8]) {
        let room = self.budget >= size_of::<Mutex<Blocks>>();
        let (Ok(stride), true) = (u16::try_from(1 + sum.len()), room) else {
            return;
        };
        let share = self.budget / self.built().len();
        let Some((mut guard, key)) = self.stripe(at) else {
            return;
        };
        let (before, target) = (guard.charged(), guard.target);
        let (blocks, bit): (&mut Blocks, u32) = (&mut guard, 1 << (chunk % CHUNKS));
        if !blocks.map.contains_key(&key) {
            // Held anew, or again: then a ghost's bits come back with it.
            let at = blocks.ghosts.iter().position(|g| g.0 == key);
            let ghost = at.and_then(|at| blocks.ghosts.remove(at));
            let block = blocks.map.entry(key).or_default();
            (block.seen, block.ghost) = ghost.map_or((0, 0), |g| (g.1, g.2));
            blocks.clock.push_back(key);
        }
        let block = blocks.map.entry(key).or_default();
        let again = block.ghost & bit != 0;
        block.ghost &= !bit;
        block.referenced = true;
        if block.seen & bit == 0 {
            block.seen |= bit;
        } else if (block.sums.is_empty() || block.stride == stride) && block.find(chunk).is_none() {
            blocks.sums += block.admit(chunk, stride, sum);
        }
        if again {
            // Read again since it was evicted: grow by what that cost, or by an
            // eighth if that is more, so a working set is learnt in a few reads.
            let grown = (blocks.charged() - before).max(blocks.target / 8);
            blocks.target = share.min(blocks.target + grown);
        }
        blocks.evict();
        GAUGE.add((blocks.charged() as u64).wrapping_sub(before as u64));
        TARGET.add((blocks.target as u64).wrapping_sub(target as u64));
    }

    /// Bytes charged, across the stripes: within the budget.
    pub(crate) fn charged(&self) -> usize {
        let stripes = self.stripes.get().into_iter().flatten();
        stripes.map(|s| s.lock(Mutex::lock).charged()).sum()
    }

    /// The stripes, built by the first read, each at its first target.
    fn built(&self) -> &Stripes {
        self.stripes.get_or_init(|| {
            let n = (self.budget / STRIPE_BYTES).clamp(1, STRIPES);
            let target = FLOOR.min(self.budget / n);
            TARGET.add((n * target) as u64);
            GAUGE.add((n * size_of::<Mutex<Blocks>>()) as u64);
            let stripes: Stripes = (0..n).map(|_| Ranked::default()).collect();
            for stripe in &stripes {
                stripe.lock(Mutex::lock).target = target;
            }
            stripes
        })
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
        let stripes = self.stripes.get().into_iter().flatten();
        TARGET.sub(stripes.map(|s| s.lock(Mutex::lock).target as u64).sum());
    }
}

impl Blocks {
    /// Heap bytes: the stripe, its table (slots 7 in 8 used, 16 tags more),
    /// clock and ghosts, sums, and malloc's 16 B a block held.
    fn charged(&self) -> usize {
        let slots = (8 * self.map.capacity()).div_ceil(7);
        let table = slots * (size_of::<((u64, u64), Block)>() + 1) + 16 * usize::from(slots > 0);
        let ghosts = self.ghosts.capacity() * size_of::<Ghost>();
        let keys = self.clock.capacity() + self.clock.len();
        size_of::<Mutex<Self>>() + table + 16 * keys + ghosts + self.sums
    }

    /// CLOCK, while charged past the target: a block looked into since the
    /// hand passed goes round again, and one evicted stays a ghost.
    fn evict(&mut self) {
        while self.charged() > self.target {
            let Some(key) = self.clock.pop_front() else {
                // Nothing held: the tables go, then the ghosts.
                (self.map, self.clock) = Default::default();
                if self.charged() > self.target {
                    self.ghosts = VecDeque::new();
                }
                return;
            };
            let block = self.map.entry(key).or_default();
            if std::mem::take(&mut block.referenced) {
                self.clock.push_back(key);
                continue;
            }
            let block = self.map.remove(&key).unwrap_or_default();
            let sums = block.sums.chunks(block.stride.max(1).into());
            let mask = sums.fold(block.ghost, |mask, sum| mask | 1 << sum[0]);
            self.sums -= block.sums.capacity();
            if !block.hit && !block.sums.is_empty() {
                // Sums no query found: the target falls to what is held.
                self.target = self.charged().clamp(FLOOR.min(self.target), self.target);
            }
            // The oldest ghosts go, past the blocks held or `GHOSTS`.
            let past = (self.ghosts.len() + 1).saturating_sub(self.clock.len().max(GHOSTS));
            self.ghosts.drain(..past);
            self.ghosts.push_back((key, block.seen, mask));
        }
    }
}

impl Block {
    /// The cached sum of `chunk`, if it is in the block.
    fn find(&self, chunk: u64) -> Option<&[u8]> {
        let mut sums = self.sums.chunks(self.stride.max(1).into());
        let sum = sums.find(|sum| u64::from(sum[0]) == chunk % CHUNKS)?;
        Some(&sum[1..])
    }

    /// Holds `sum`, of `chunk`, `stride` bytes with its place: the bytes added.
    fn admit(&mut self, chunk: u64, stride: u16, sum: &[u8]) -> usize {
        let was = self.sums.capacity();
        self.stride = stride;
        self.sums.reserve(stride.into());
        self.sums.push((chunk % CHUNKS) as u8);
        self.sums.extend_from_slice(sum);
        self.sums.capacity() - was
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

    /// Each stripe's (charged, target, ghosts).
    fn stripes(cache: &BoundaryCache) -> Vec<(usize, usize, usize)> {
        let stripes = cache.stripes.get().into_iter().flatten();
        let each = |blocks: &Blocks| (blocks.charged(), blocks.target, blocks.ghosts.len());
        stripes.map(|s| each(&s.lock(Mutex::lock))).collect()
    }

    /// Each stripe is charged its sums and tables, within its target, within
    /// its share; its ghosts are of blocks it does not hold, no more than
    /// it holds or `GHOSTS`.
    fn assert_charged(cache: &BoundaryCache) {
        let stripes = cache.stripes.get().map_or(&[][..], |s| &s[..]);
        for stripe in stripes {
            let blocks = stripe.lock(Mutex::lock);
            let sums: usize = blocks.map.values().map(|b| b.sums.capacity()).sum();
            assert_eq!((blocks.sums, blocks.map.len()), (sums, blocks.clock.len()));
            assert!(blocks.ghosts.len() <= blocks.clock.len().max(GHOSTS));
            assert!(blocks
                .ghosts
                .iter()
                .all(|(key, ..)| !blocks.map.contains_key(key)));
            assert!(blocks.charged() <= blocks.target);
            assert!(blocks.target <= cache.budget / stripes.len());
        }
    }

    /// A cache of `budget` whose stripes' targets have grown to their
    /// shares, as reads of sums they evicted would grow them.
    fn grown(budget: usize) -> BoundaryCache {
        let cache = BoundaryCache::new(budget);
        let stripes = cache.built();
        for stripe in stripes {
            let mut blocks = stripe.lock(Mutex::lock);
            TARGET.add((budget / stripes.len() - blocks.target) as u64);
            blocks.target = budget / stripes.len();
        }
        cache
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
    fn sums_read_twice_leave_the_target_at_the_floor() {
        // 4 000 sums of 19 words, each read twice and never again: the
        // stripes evict them at the floor and remember them as ghosts.
        let cache = BoundaryCache::new(1 << 20);
        for chunk in 0..4000 {
            admit(&cache, 1, chunk, 19);
            for (charged, target, _) in stripes(&cache) {
                assert!(
                    charged <= target && target == FLOOR,
                    "{charged} of {target}"
                );
            }
        }
        assert_charged(&cache);
        assert!(stripes(&cache).iter().all(|&(_, _, ghosts)| ghosts > 0));
        assert!(cache.charged() <= STRIPES * FLOOR);
    }

    #[test]
    fn a_chunks_bit_outlives_its_blocks_eviction() {
        // One stripe at its floor: chunk 0 is read once, then the sums of
        // seven other blocks are admitted, which evict its block. Its
        // second read still admits it, and the target stays at the floor.
        let cache = BoundaryCache::new(64 << 10);
        query(&cache, 1, 0, 19);
        (1..8).for_each(|block| admit(&cache, 1, 32 * block, 19));
        let found = cache.stripe((1, 1, 0));
        assert!(found.is_some_and(|(blocks, key)| !blocks.map.contains_key(&key)));
        assert!(!query(&cache, 1, 0, 19) && query(&cache, 1, 0, 19));
        assert_eq!(stripes(&cache)[0].1, FLOOR);
        assert_charged(&cache);
    }

    #[test]
    fn a_cyclic_sweep_past_the_floor_is_learnt_until_every_read_hits() {
        // One stripe; each sweep holds more than the floor: three blocks of
        // four-word sums, or one of 19-word sums. A target left at the floor
        // misses most of every pass; and a stripe that kept no ghost while
        // it held no block would forget the lone block as it evicted it.
        for (chunks, words) in [(96, 4), (32, 19)] {
            let cache = BoundaryCache::new(64 << 10);
            let pass = || (0..chunks).filter(|&c| query(&cache, 1, c, words)).count();
            let hits: Vec<usize> = (0..12).map(|_| pass()).collect();
            assert_eq!(hits[8..], [chunks as usize; 4], "{hits:?}");
            let [(charged, target, _)] = stripes(&cache)[..] else {
                panic!("one stripe");
            };
            assert!(charged > FLOOR && target > FLOOR);
            assert_charged(&cache);
        }
    }

    #[test]
    fn sums_no_query_found_give_their_room_back() {
        // One stripe learns a cyclic sweep of three blocks, then admits
        // 4 000 sums read twice and never again: as it evicts them, its
        // target falls back to what it holds, its tables mostly.
        let cache = BoundaryCache::new(64 << 10);
        for _ in 0..12 {
            (0..96).for_each(|chunk| _ = query(&cache, 1, chunk, 4));
        }
        assert!(stripes(&cache)[0].1 > 2 * FLOOR);
        (1000..5000).for_each(|chunk| admit(&cache, 1, chunk, 4));
        assert!(stripes(&cache)[0].1 < 16 << 10, "{:?}", stripes(&cache));
        assert_charged(&cache);
    }

    #[test]
    fn after_every_read_the_charge_is_within_the_target_within_the_share() {
        // Seeded reads of two widths, a hot 64 chunks among 2 000, at five
        // budgets of one, four and sixteen stripes.
        for budget in [1 << 10, 5 << 10, 64 << 10, 300 << 10, 4 << 20] {
            let cache = BoundaryCache::new(budget);
            let mut state = budget as u64;
            let mut grew = 0;
            for read in 0..6000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (life, pick) = ((state >> 60) % 4, state >> 33);
                let chunk = if pick & 1 == 0 {
                    pick % 64
                } else {
                    pick % 2000
                };
                query(&cache, life, chunk >> 1, [4, 19][life as usize % 2]);
                for (charged, target, _) in stripes(&cache) {
                    assert!(charged <= target && target <= budget / stripes(&cache).len());
                    grew = grew.max(target);
                }
                if read % 1000 == 0 {
                    assert_charged(&cache);
                }
            }
            assert!(
                grew > FLOOR.min(budget) || budget < FLOOR,
                "{budget}: {grew}"
            );
        }
    }

    #[test]
    fn sums_re_read_are_held_and_charged_a_few_bytes_beside_their_words() {
        // Random reads of 2 000 chunks' sums of four words, each read about
        // 30 times, as the fleet's boundaries are: once every stripe's target
        // has grown to hold its blocks, every read hits. Each stripe holds
        // some 4.8 KiB of them from a 2 KiB floor; learning that costs fewer
        // than 1 000 misses beside the 4 000 that first read and admit them.
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
        // One stripe grown to its share, with room for twelve blocks of 32
        // sums of 19 words (4 896 bytes each), their table and their clock,
        // and not for 13. Each block's first sum is found once it is filled,
        // so that its eviction leaves the target where it is.
        let cache = grown(12 * 4896 + 4000);
        let fill = |block: u64| {
            (32 * block..32 * block + 32).for_each(|c| admit(&cache, 1, c, 19));
            assert!(query(&cache, 1, 32 * block, 19));
        };
        let held_blocks = || {
            (0..20)
                .filter(|b| held(&cache, 1, 32 * b))
                .collect::<Vec<_>>()
        };
        (0..12).for_each(fill);
        assert_eq!(held_blocks(), (0..12).collect::<Vec<_>>());
        // The 13th block's sums pass the target: the hand clears every
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
        // so the target grows until the 40 lives read back fit.
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
