//! A stream's statistical index: one running sum per chunk (paper §4.5,
//! Fig. 4, as prefix sums).
//!
//! Chunk `i`'s level-0 record `il/<stream>/<i>` ([`crate::keys`]) holds
//! `P_i = c_0 + … + c_i`, the sum of the stream's HEAC digests through `i`,
//! then a *tag*, opaque here: the record the caller appended, its own digest
//! `c_i` swapped for `P_i`. A sum is its words, 8 little-endian bytes each
//! ([`decode_sum`], [`fold_sum`]), ending where the index's width says: the
//! record whole ([`AggTree::open`]), or the stream's width for a tagged
//! record ([`AggTree::open_with`]).
//! A range sum is one difference of two stored values (Ho, Agrawal, Megiddo
//! & Srikant, "Range Queries in OLAP Data Cubes", SIGMOD 1997): `[lo, hi)`
//! sums to `P_{hi−1} − P_{lo−1}`, and as HEAC addition is wrapping `u64`
//! addition that is exactly the sum of the digests. A query reads at most
//! two records, none for `lo = 0` or a boundary that is cached or the
//! stream's last; no node is stored at any level. A chunk's own digest is
//! `P_i − P_{i−1}`: whoever needs it reads the record before too (the
//! engine, through its one record decoder).
//!
//! The records are contiguous from chunk 0 and their count *is* the
//! stream's length. Each is written once, though [`AggTree::retag`] may
//! replace its tag (`delete_range` swaps a payload for its commitment) —
//! never its running sum, so a cached prefix is never stale. A missing or
//! undecodable record is [`IndexError::CorruptNode`] at level 0, where it
//! is read.
//!
//! **A resident index is `(len, P_{len−1})`.** [`AggTree::open`] finds the
//! length by [`stored_chunk_count`] (O(log n) key probes, no value read)
//! and reads the one record `len − 1`. The boundary cache holds other
//! running sums queries read: a sum's second store read admits it, and the
//! cache grows past a floor of a few sums only when a sum it evicted is
//! read again, so its memory follows the sums queries re-read, up to
//! [`TreeConfig::cache_bytes`], charged what its slots, slot table and bits
//! hold of the heap.
//! Only those reads fill it, and the first builds it.
//!
//! **Commit = one batch.** An append — one chunk or a run — hands its
//! records to the store as one [`KvStore::write_batch`]: all of it or none
//! of it, across failure and crash. A failed append left nothing behind,
//! in the store or in memory, and a retry is a first try.
//!
//! **Decay keeps the paper's granularity** (§4.5): nothing is deleted, and
//! [`AggTree::decay`] records per-level cutoffs in the stream's `i/` record.
//!
//! # Concurrency: shared readers, serialized writers
//!
//! Any number of threads may call [`AggTree::query`] concurrently with one
//! in-flight writer ([`append`](AggTree::append), [`retag`](AggTree::retag),
//! [`decay`](AggTree::decay)); an internal mutex serializes the writers,
//! and readers never take it. A query snapshots the published length, last
//! running sum and cutoffs at once and answers for chunks `[0, len)`. A
//! writer publishes after its store write succeeded, so a reader that sees
//! length `n` finds every record below `n` in the store.

use crate::keys;
use parking_lot::{Mutex, RwLock};
use std::hash::{BuildHasher, RandomState};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use timecrypt_obs::counters::{self, Counter};
use timecrypt_obs::rank::{self, Ranked};
use timecrypt_store::{KvStore, StoreError, WriteOp};

/// Index parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Heap budget in bytes of the boundary cache, a hard cap charged
    /// exactly: the running sums it keeps, a tag and a reference bit each,
    /// their slot table, and two bits per chunk read (read before; evicted
    /// since); `0` caches nothing. A sum's second store read admits it, and
    /// the cache grows only when a sum it evicted is read again, so it
    /// holds the sums queries re-read, within this.
    /// Split across lock segments (one per 64 KiB, 1–8) that the index's
    /// first read builds. Fig. 7's "small cache" variant uses 1 MB.
    pub cache_bytes: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            cache_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Fan-out of the tree whose granularity [`AggTree::decay`] keeps: the
/// 64-ary tree of the paper's evaluation.
const DECAY_ARITY: u64 = 64;

/// Index errors.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Store(StoreError),
    /// Stored bytes failed to parse: the level-0 record at `index`.
    CorruptNode { level: u8, index: u64 },
    /// The query needs node `(level, index)` of the 64-ary tree, which
    /// [`AggTree::decay`] aged out: the region is only answerable at
    /// coarser granularity.
    Decayed { level: u8, index: u64 },
    /// Query over a range the stream hasn't reached / empty range.
    BadRange { start: u64, end: u64, len: u64 },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Store(e) => write!(f, "index storage error: {e}"),
            IndexError::CorruptNode { level, index } => {
                write!(f, "corrupt index node at level {level} index {index}")
            }
            IndexError::Decayed { level, index } => write!(
                f,
                "index node at level {level} index {index} was aged out by decay; \
                 only coarser aggregates remain for this region"
            ),
            IndexError::BadRange { start, end, len } => {
                write!(f, "bad query range [{start}, {end}) over {len} chunks")
            }
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StoreError> for IndexError {
    fn from(e: StoreError) -> Self {
        IndexError::Store(e)
    }
}

/// Runtime statistics (cache behaviour, sizes) for the benchmarks.
#[derive(Debug, Clone, Default)]
pub struct TreeStats {
    /// Boundary-cache hits.
    pub cache_hits: u64,
    /// Boundary-cache misses (store reads).
    pub cache_misses: u64,
    /// Heap bytes the cache holds — its sums, their tags and slot table,
    /// and the bits of the chunks read and of the sums evicted — within
    /// [`TreeConfig::cache_bytes`].
    pub cache_used_bytes: usize,
    /// Total serialized bytes (key + value) of the stream's index records:
    /// its level-0 records and its decay cutoffs.
    pub stored_bytes: usize,
}

/// What a writer publishes: all a resident index holds besides its cache.
struct Published {
    /// Chunks appended.
    len: u64,
    /// `P_{len−1}`, the running sum through the last chunk.
    sum: Option<Vec<u64>>,
    /// At `[ℓ − 1]`: the chunk before which level ℓ is aged out, a multiple
    /// of its span (no trailing zero).
    cutoffs: Vec<u64>,
}

/// The index of one stream, a column of running sums of HEAC words. `D` is
/// a marker (every sum is a `Vec<u64>`) so that `AggTree::<Vec<u64>>` names it.
pub struct AggTree<D = Vec<u64>> {
    kv: Arc<dyn KvStore>,
    stream: u128,
    /// How a stored running sum is read: `Some(w)`, the first `8·w` bytes
    /// of a tagged record; `None`, the record is the sum alone.
    width: Option<usize>,
    /// Serializes the writers (`append`, `retag`, `decay`). Queries never
    /// take it — see the module docs for why reads stay exact regardless.
    write: Ranked<{ rank::WRITER }, Mutex<()>>,
    /// Readers take it shared for one snapshot; a writer takes it
    /// exclusively only to publish what it stored. Never held across a
    /// store call.
    published: Ranked<{ rank::FRONTIER }, RwLock<Published>>,
    cache: PrefixCache,
    marker: PhantomData<D>,
}

/// Most lock segments in the boundary cache, split by chunk index so that
/// concurrent queries (a handful of readers) do not share one mutex.
const MAX_SEGMENTS: usize = 8;

/// Least budget worth a segment of its own: a segment evicts alone, so a
/// small budget stays whole behind one lock.
const MIN_SEGMENT_BYTES: usize = 64 * 1024;

/// The segmented boundary cache, a [`Slab`] per segment: filled only by a
/// query's later store reads of a sum; the first read builds the segments.
#[derive(Default)]
struct PrefixCache {
    budget_bytes: usize,
    built: OnceLock<Box<[Segment]>>,
    /// Lookups, counted here so that one before the first fill is a miss.
    hits: Counter,
    misses: Counter,
}

/// One segment: an independently locked slab.
type Segment = Ranked<{ rank::CACHE }, Mutex<Slab>>;

impl PrefixCache {
    /// Chunk `index`'s segment (built by the first call) and bit in it.
    fn segment(&self, index: u64) -> (&Segment, u64) {
        let segments = self.built.get_or_init(|| {
            let segments = (self.budget_bytes / MIN_SEGMENT_BYTES).clamp(1, MAX_SEGMENTS);
            // Rounded down: the segments together never hold more than the budget.
            let budget = self.budget_bytes / segments;
            (0..segments)
                .map(|_| Ranked::new(Mutex::new(Slab::new(budget))))
                .collect()
        });
        let n = segments.len() as u64;
        (&segments[(index % n) as usize], index / n)
    }

    /// `f` of the running sum through chunk `index`, under its segment's
    /// lock, if it is cached; counts the lookup.
    fn with<R>(&self, index: u64, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let hit = self.built.get().and_then(|_| {
            let (segment, bit) = self.segment(index);
            segment.lock(Mutex::lock).get(bit).map(f)
        });
        let (tree, process) = match hit {
            Some(_) => (&self.hits, &counters::INDEX_NODE_CACHE_HITS),
            None => (&self.misses, &counters::INDEX_NODE_CACHE_MISSES),
        };
        tree.inc();
        process.inc();
        hit
    }

    /// A query read `prefix`, the sum through chunk `index`, from the store:
    /// the first such read sets the chunk's bit, a later one admits it.
    fn read(&self, index: u64, prefix: &[u8]) {
        if self.budget_bytes > 0 {
            let (segment, bit) = self.segment(index);
            let mut slab = segment.lock(Mutex::lock);
            if slab.mark(bit) {
                slab.admit(bit, prefix);
            }
        }
    }

    /// (hits, misses, bytes charged across segments).
    fn stats(&self) -> (u64, u64, usize) {
        let segments = self.built.get().into_iter().flatten();
        let used = segments.map(|s| s.lock(Mutex::lock).charged).sum();
        (self.hits.get(), self.misses.get(), used)
    }
}

/// Fewest slots a slab that admits anything holds, budget permitting.
const FLOOR: usize = 7;

/// An empty entry of a slab's slot table.
const EMPTY: u32 = u32::MAX;

/// One segment's running sums, within its budget of heap, charged the
/// capacity of its slots, slot table and bits.
/// A segment's `i`-th chunk is its bit `i` and its tag in the slab; a bit
/// past `u32` is never set, so never admitted.
///
/// **Admission on second read**, TinyLFU's doorkeeper made exact by dense
/// keys: a store read sets the chunk's bit in `seen`, and only a read that
/// finds it set admits the sum. A boundary read once costs a bit, not a slot.
///
/// **Slots in blocks that never move.** A slot is a sum, its chunk's tag
/// and its reference bit, side by side. Each growth step appends one block
/// of exactly the slots it adds, so no step moves, copies or frees a slot
/// the slab holds; only the slot table, the maps of bits and the list of
/// blocks are reallocated. Slot numbers count up across the blocks in
/// order, so slot `s` is found by walking the blocks' lengths, from the
/// last, the largest.
///
/// **Evicted by CLOCK.** A hit sets its slot's reference bit; no hit or
/// admission reorders, boxes or frees. A full slab admits into the first
/// slot from the hand whose bit is clear, clearing those it passes, and
/// sets the evicted chunk's bit in `ghost`.
///
/// **Found by a table of slot numbers**: open addressing over a power of
/// two at least twice `room` long, a multiplicative hash of the tag and
/// linear probing; an eviction deletes by backward shift (Knuth, TAOCP
/// vol. 3, §6.4, Algorithm R), so the table holds no tombstone and never
/// fills. Queries choose the tags, so the multiplier is an odd one drawn
/// per slab (multiply-shift, Dietzfelbinger et al., J. Algorithms 1997):
/// no reader can pick tags that pile into one probe run.
///
/// **Sized by its ghost hits** (CAR's rule, Bansal & Modha, FAST 2004): an
/// admission that finds its own `ghost` bit set — a sum evicted, then read
/// again — clears it and grows the slab by a quarter, as far as the budget
/// affords; any other admission into a full slab replaces the victim in
/// place. So the slab holds the sums queries re-read, from a floor of
/// [`FLOOR`] slots. It shrinks only as the maps of bits grow, and then
/// drops its last blocks and trims the one left last: the one path that
/// frees a slot.
#[derive(Default)]
struct Slab {
    budget: usize,
    /// Bytes of a sum, the first admitted one's: `8·width` for HEAC.
    stride: usize,
    /// Slots allocated, across the blocks.
    room: usize,
    /// Slots filled, from slot 0.
    len: usize,
    /// The slots, in order, `stride + 5` bytes each: the sum, the chunk's
    /// tag (4 bytes, little-endian), then the reference bit (a byte). The
    /// list's capacity is its length.
    blocks: Vec<Box<[u8]>>,
    /// Slot numbers at their tags' probe positions, [`EMPTY`] elsewhere;
    /// [`table_len`] of `room` long.
    table: Vec<u32>,
    /// The hash's odd multiplier.
    multiplier: u32,
    hand: usize,
    /// Bit `i % 64` of word `i / 64`: the segment's `i`-th chunk was read.
    seen: Vec<u64>,
    /// As `seen`, and as long: the chunk's sum was evicted since it was
    /// last admitted.
    ghost: Vec<u64>,
    /// [`Slab::cost`] of `room`, as the process gauge holds it.
    charged: usize,
}

impl Slab {
    fn new(budget: usize) -> Slab {
        let mut slab = Slab::default();
        slab.budget = budget;
        slab.multiplier = RandomState::new().hash_one(budget) as u32 | 1;
        slab
    }

    fn get(&mut self, chunk: u64) -> Option<&[u8]> {
        let slot = self.slot(chunk)?;
        let stride = self.stride;
        let entry = self.entry_mut(slot);
        entry[stride + 4] = 1;
        Some(&entry[..stride])
    }

    /// The slot holding `chunk`'s sum, if one does.
    fn slot(&self, chunk: u64) -> Option<usize> {
        let tag = u32::try_from(chunk).ok()?;
        let at = self.position(tag)?;
        Some(self.table[at] as usize)
    }

    /// The block `slot` lies in, and its bytes there.
    fn locate(&self, slot: usize) -> (usize, Range<usize>) {
        let width = self.stride + 5;
        let (at, mut start) = (slot * width, self.room * width);
        for (block, bytes) in self.blocks.iter().enumerate().rev() {
            start -= bytes.len();
            if at >= start {
                return (block, at - start..at - start + width);
            }
        }
        // No block: there is no slot to find.
        (0, at..at + width)
    }

    /// Slot `slot`'s bytes: sum, tag and reference bit.
    fn entry(&self, slot: usize) -> &[u8] {
        let (block, bytes) = self.locate(slot);
        &self.blocks[block][bytes]
    }

    fn entry_mut(&mut self, slot: usize) -> &mut [u8] {
        let (block, bytes) = self.locate(slot);
        &mut self.blocks[block][bytes]
    }

    /// The tag of the chunk whose sum `slot` holds.
    fn tag(&self, slot: usize) -> u32 {
        tag_of(&self.entry(slot)[self.stride..])
    }

    /// Where `tag`'s slot number lies in the table, if it is held.
    fn position(&self, tag: u32) -> Option<usize> {
        self.probe(tag, |slot| self.tag(slot as usize) == tag)
    }

    /// The first position on `tag`'s probe run whose slot number `found`
    /// accepts, if one does before an empty one.
    fn probe(&self, tag: u32, found: impl Fn(u32) -> bool) -> Option<usize> {
        let mask = self.table.len().checked_sub(1)?;
        let mut at = self.home(tag);
        loop {
            match self.table[at] {
                EMPTY => return None,
                slot if found(slot) => return Some(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The first probe position of `tag`: the top bits of its product with
    /// the multiplier. The table is not empty.
    fn home(&self, tag: u32) -> usize {
        let shift = u32::BITS - self.table.len().trailing_zeros();
        (tag.wrapping_mul(self.multiplier) >> shift) as usize
    }

    /// Enters `slot`, by its `tag`, at the first empty position from its
    /// home.
    fn place(&mut self, slot: usize, tag: u32) {
        let mask = self.table.len() - 1;
        let mut at = self.home(tag);
        while self.table[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.table[at] = slot as u32;
    }

    /// Empties position `hole`, then fills each hole with the next entry
    /// `at` of its run whose home does not lie cyclically in `(hole, at]`,
    /// so that no probe meets a gap before its tag.
    fn unplace(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut at = hole;
        loop {
            self.table[hole] = EMPTY;
            loop {
                at = (at + 1) & mask;
                let slot = self.table[at];
                if slot == EMPTY {
                    return;
                }
                let home = self.home(self.tag(slot as usize));
                if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                    self.table[hole] = slot;
                    hole = at;
                    break;
                }
            }
        }
    }

    /// Sets `bit` of `seen`; true if it was set. The bits, both maps of
    /// them, come first in the budget, and one it cannot hold at all, or
    /// past `u32`, is never set.
    fn mark(&mut self, bit: u64) -> bool {
        if u32::try_from(bit).is_err() {
            return false;
        }
        let word = (bit / 64) as usize;
        if word >= self.seen.len() {
            let most = self.budget / 16;
            let words = (word.min(most) + 1).next_power_of_two();
            if words > most {
                return false;
            }
            for bits in [&mut self.seen, &mut self.ghost] {
                exact(bits, words);
                bits.resize(words, 0);
            }
            self.resize(self.room.min(self.most()));
        }
        flip(&mut self.seen, bit, true)
    }

    /// Admits `sum` for `chunk`, whose bit is set.
    fn admit(&mut self, chunk: u64, sum: &[u8]) {
        if self.stride == 0 {
            self.stride = sum.len();
        }
        let len = self.len;
        // Two readers that missed it at once both admit it: the later one
        // finds it held.
        if sum.len() != self.stride || self.slot(chunk).is_some() {
            return;
        }
        let ghost = flip(&mut self.ghost, chunk, false);
        if len == self.room && (ghost || len < FLOOR) {
            // By a quarter, so that a fifth of the slab at most lies unused.
            let room = (len + len / 4).max(FLOOR).min(self.most());
            self.resize(room.max(len));
        }
        let slot = if len < self.room {
            self.len += 1;
            len
        } else {
            let Some((slot, evicted)) = self.victim() else {
                return;
            };
            if let Some(at) = self.probe(evicted, |held| held as usize == slot) {
                self.unplace(at);
            }
            flip(&mut self.ghost, u64::from(evicted), true);
            slot
        };
        // Its bit is set, so it fits in `u32`; a new sum is unreferenced.
        let (stride, tag) = (self.stride, chunk as u32);
        let entry = self.entry_mut(slot);
        entry[..stride].copy_from_slice(sum);
        entry[stride..][..4].copy_from_slice(&tag.to_le_bytes());
        entry[stride + 4] = 0;
        self.place(slot, tag);
    }

    /// CLOCK: the first slot from the hand whose reference bit is clear,
    /// and its tag.
    fn victim(&mut self) -> Option<(usize, u32)> {
        let (n, stride) = (self.len, self.stride);
        (n > 0).then(|| loop {
            let slot = self.hand % n;
            self.hand = slot + 1;
            let entry = self.entry_mut(slot);
            if std::mem::take(&mut entry[stride + 4]) == 0 {
                return (slot, tag_of(&entry[stride..]));
            }
        })
    }

    /// Gives the slab `room` slots, and moves the process gauge by what
    /// its charge changed. Growth appends a block of exactly the new
    /// slots; a shrink drops the blocks past `room`, trims the last one
    /// left, and drops the sums past it. The slot table is rebuilt only
    /// when its length changes or slots go.
    fn resize(&mut self, room: usize) {
        let (was, width) = (std::mem::replace(&mut self.room, room), self.stride + 5);
        if room > was {
            self.blocks.reserve_exact(1);
            self.blocks
                .push(vec![0; (room - was) * width].into_boxed_slice());
        } else if room < was {
            let (keep, mut end) = (room * width, was * width);
            while let Some(last) = self.blocks.last_mut() {
                let start = end - last.len();
                if start < keep {
                    if end > keep {
                        *last = last[..keep - start].into();
                    }
                    break;
                }
                self.blocks.pop();
                end = start;
            }
            self.blocks.shrink_to_fit();
            self.len = self.len.min(room);
        }
        if room < was || self.table.len() != table_len(room) {
            self.table = vec![EMPTY; table_len(room)];
            (0..self.len).for_each(|slot| self.place(slot, self.tag(slot)));
        }
        let now = self.cost(room);
        let was = std::mem::replace(&mut self.charged, now);
        counters::INDEX_BOUNDARY_CACHE_BYTES.add((now as u64).wrapping_sub(was as u64));
    }

    /// Heap bytes with `room` slots: a sum, a tag and a reference bit
    /// each, their table, and both maps of bits.
    fn cost(&self, room: usize) -> usize {
        let bits = self.seen.capacity() + self.ghost.capacity();
        room * (self.stride + 5) + 4 * table_len(room) + 8 * bits
    }

    /// The most slots the budget affords.
    fn most(&self) -> usize {
        let (mut lo, mut hi) = (0, self.budget / (self.stride + 5));
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            (lo, hi) = match self.cost(mid) <= self.budget {
                true => (mid, hi),
                false => (lo, mid - 1),
            };
        }
        lo
    }
}

/// A stream's eviction drops its slabs: the gauge loses their charge.
impl Drop for Slab {
    fn drop(&mut self) {
        counters::INDEX_BOUNDARY_CACHE_BYTES.sub(self.charged as u64);
    }
}

/// The tag that `bytes`, an entry past its sum, begins with.
fn tag_of(bytes: &[u8]) -> u32 {
    let mut tag = [0; 4];
    tag.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(tag)
}

/// Sets bit `i` of `bits` to `to`; whether it was set. `i` is within them.
fn flip(bits: &mut [u64], i: u64, to: bool) -> bool {
    let (word, mask) = (&mut bits[(i / 64) as usize], 1 << (i % 64));
    let was = *word & mask != 0;
    match to {
        true => *word |= mask,
        false => *word &= !mask,
    }
    was
}

/// Entries in the slot table of `room` slots: the least power of two at
/// least twice as many, so that it is at most half full; none for none.
fn table_len(room: usize) -> usize {
    match room {
        0 => 0,
        _ => (2 * room).next_power_of_two(),
    }
}

/// Sets `v`'s capacity to exactly `capacity`, at least its length.
fn exact<T>(v: &mut Vec<T>, capacity: usize) {
    v.shrink_to(capacity);
    v.reserve_exact(capacity - v.len());
}

/// The chunk count persisted for `stream` — the number of its level-0
/// records, found by O(log n) exact-key probes that read no value —
/// without building an index handle. Exactly the length a fresh
/// [`AggTree::open`] would recover: the cheap answer for callers that need
/// a cold stream's length without hydrating it (stream directories,
/// live-record staleness checks).
pub fn stored_chunk_count(kv: &dyn KvStore, stream: u128) -> Result<u64, IndexError> {
    // Contiguous from 0, so at least `n` records iff record `n - 1` exists;
    // its exact key as a prefix probes for it. `lo` are present, `hi` too many.
    let at_least = |n: u64| {
        let hit = kv.scan_keys(&keys::leaf(stream, n - 1))?;
        Ok::<_, IndexError>(!hit.is_empty())
    };
    let (mut lo, mut hi) = (0, 1);
    while at_least(hi)? {
        (lo, hi) = (hi, hi.saturating_mul(2));
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if at_least(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The words of the running sum encoded at the front of `bytes`: their
/// first `8·w` bytes for `width` `Some(w)`, or all of them, whole words,
/// for `None`. `None` if `bytes` hold no such sum.
pub fn decode_sum(width: Option<usize>, bytes: &[u8]) -> Option<Vec<u64>> {
    let (words, _) = bytes[..sum_len(width, bytes)?].as_chunks::<8>();
    Some(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

/// `sum[i] = op(sum[i], word i)` of the running sum encoded at the front of
/// `bytes`, read as [`decode_sum`] reads it: `op` is `u64::wrapping_add`,
/// HEAC's addition, or `u64::wrapping_sub`, its inverse. `None`, and `sum`
/// as it was, unless `bytes` start with a sum of `sum`'s width.
pub fn fold_sum(
    sum: &mut [u64],
    width: Option<usize>,
    bytes: &[u8],
    op: fn(u64, u64) -> u64,
) -> Option<()> {
    let (words, _) = bytes[..sum_len(width, bytes)?].as_chunks::<8>();
    if words.len() != sum.len() {
        return None;
    }
    for (a, b) in sum.iter_mut().zip(words) {
        *a = op(*a, u64::from_le_bytes(*b));
    }
    Some(())
}

/// Length in bytes of the sum encoded at the front of `bytes`.
fn sum_len(width: Option<usize>, bytes: &[u8]) -> Option<usize> {
    match width {
        Some(width) => width.checked_mul(8).filter(|&len| len <= bytes.len()),
        None => bytes.len().is_multiple_of(8).then_some(bytes.len()),
    }
}

/// Appends the encoding of `sum`: its words, 8 little-endian bytes each.
fn encode_sum(sum: &[u64], out: &mut Vec<u8>) {
    sum.iter()
        .for_each(|word| out.extend_from_slice(&word.to_le_bytes()));
}

/// Chunk `index`'s level-0 record, whole, without an index handle (raw
/// reads do not hydrate a stream). Missing below the stream's length, it is
/// `CorruptNode` at level 0: batches are atomic, a gap is no crash state.
pub fn leaf_record(kv: &dyn KvStore, stream: u128, index: u64) -> Result<Vec<u8>, IndexError> {
    kv.get(&keys::leaf(stream, index))?
        .ok_or(IndexError::CorruptNode { level: 0, index })
}

impl AggTree {
    /// Opens (or creates) the index of `stream` on `kv` whose records are
    /// their running sums alone, as [`append`](Self::append) and
    /// [`append_batch`](Self::append_batch) write them.
    pub fn open(kv: Arc<dyn KvStore>, stream: u128, cfg: TreeConfig) -> Result<Self, IndexError> {
        Self::open_at(kv, stream, cfg, None)
    }

    /// Opens (or creates) the index of `stream` on `kv` whose records are
    /// tagged: each starts with a running sum of `width` words.
    pub fn open_with(
        kv: Arc<dyn KvStore>,
        stream: u128,
        cfg: TreeConfig,
        width: usize,
    ) -> Result<Self, IndexError> {
        Self::open_at(kv, stream, cfg, Some(width))
    }

    /// Its length ([`stored_chunk_count`]), last sum and decay cutoffs.
    fn open_at(
        kv: Arc<dyn KvStore>,
        stream: u128,
        cfg: TreeConfig,
        width: Option<usize>,
    ) -> Result<Self, IndexError> {
        let len = stored_chunk_count(kv.as_ref(), stream)?;
        let sum = match len.checked_sub(1) {
            Some(index) => {
                let record = leaf_record(kv.as_ref(), stream, index)?;
                let decoded = decode_sum(width, &record);
                Some(decoded.ok_or(IndexError::CorruptNode { level: 0, index })?)
            }
            None => None,
        };
        let cutoffs = match kv.scan_prefix(&keys::decay(stream))?.pop() {
            Some((_, bytes)) => decode_cutoffs(&bytes)?,
            None => Vec::new(),
        };
        Ok(AggTree {
            kv,
            stream,
            width,
            write: Ranked::new(Mutex::new(())),
            published: Ranked::new(RwLock::new(Published { len, sum, cutoffs })),
            cache: PrefixCache {
                budget_bytes: cfg.cache_bytes,
                ..PrefixCache::default()
            },
            marker: PhantomData,
        })
    }

    /// Number of chunks ingested (a consistent snapshot: every chunk
    /// counted here is fully resolvable through [`query`](Self::query)).
    pub fn len(&self) -> u64 {
        self.published.lock(RwLock::read).len
    }

    /// True if no chunks have been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the next chunk's digest (chunk index = current `len`).
    /// Appends are serialized internally; concurrent queries proceed
    /// against the previous `len` snapshot and stay exact (module docs).
    pub fn append(&self, digest: Vec<u64>) -> Result<(), IndexError> {
        self.append_batch(std::slice::from_ref(&digest))
    }

    /// [`append_records`](Self::append_records) for chunks that are their
    /// digest alone; the store ends byte-identical to sequential
    /// [`append`](Self::append)s (`append_batch_matches_sequential_appends`).
    pub fn append_batch(&self, digests: &[Vec<u64>]) -> Result<(), IndexError> {
        // Encoded end to end in one buffer, each its own record.
        let mut encoded = Vec::with_capacity(8 * digests.iter().map(Vec::len).sum::<usize>());
        digests.iter().for_each(|d| encode_sum(d, &mut encoded));
        let mut rest = &encoded[..];
        let mut record = |d: &Vec<u64>| [rest.split_off(..8 * d.len()).unwrap_or_default()];
        self.append_records(&digests.iter().map(&mut record).collect::<Vec<_>>())
    }

    /// Appends a run of consecutive chunks (starting at the current `len`),
    /// each given as the `N` pieces its record `digest ‖ tag` is laid end to
    /// end from, the digest leading the first. Each is stored with the
    /// running sum in place of its digest — the run's records built end to
    /// end in one buffer — and the run commits as one store batch; `len` is
    /// published once, so readers never observe a torn middle.
    ///
    /// A record whose first piece starts with no digest of the index's
    /// width (`CorruptNode` at level 0) or a store failure leaves the
    /// index and the store exactly as they were (see the module docs); the
    /// caller may simply retry.
    pub fn append_records<const N: usize>(&self, records: &[[&[u8]; N]]) -> Result<(), IndexError> {
        if records.is_empty() {
            return Ok(());
        }
        let _write = self.write.lock(Mutex::lock);
        let (base, sum) = {
            let published = self.published.lock(RwLock::read);
            (published.len, published.sum.clone())
        };
        let mut sum = sum.unwrap_or_default();
        let bytes = records.iter().flatten().map(|piece| piece.len()).sum();
        let mut stored = Vec::with_capacity(bytes);
        let mut placed = Vec::with_capacity(records.len());
        for (index, record) in (base..).zip(records) {
            let (first, rest) = record
                .split_first()
                .map_or((&[][..], &[][..]), |(f, r)| (*f, r));
            let corrupt = || IndexError::CorruptNode { level: 0, index };
            // A stream's first record starts from zero, of its digest's width.
            if sum.is_empty() {
                sum = vec![0; sum_len(self.width, first).ok_or_else(corrupt)? / 8];
            }
            fold_sum(&mut sum, self.width, first, u64::wrapping_add).ok_or_else(corrupt)?;
            let start = stored.len();
            encode_sum(&sum, &mut stored);
            stored.extend_from_slice(&first[8 * sum.len()..]);
            rest.iter()
                .for_each(|piece| stored.extend_from_slice(piece));
            placed.push((keys::leaf(self.stream, index), start..stored.len()));
        }
        let puts = placed.iter().map(|(key, at)| WriteOp::Put {
            key,
            value: &stored[at.clone()],
        });
        self.kv.write_batch(&puts.collect::<Vec<_>>())?;
        // Commit point: every record the new length promises is in the
        // store. The old sum is freed after the lock is released.
        let _old = {
            let mut published = self.published.lock(RwLock::write);
            published.len = base + records.len() as u64;
            published.sum.replace(sum)
        };
        Ok(())
    }

    /// Rewrites, as one store batch, the level-0 records `(index, record)`
    /// of chunks already appended. Each must keep its stored running sum —
    /// `delete_range` swaps a payload for its commitment — so nothing the
    /// index answers moves. Returns how many it wrote; an error writes none.
    pub fn retag(&self, records: &[(u64, Vec<u8>)]) -> Result<usize, IndexError> {
        let _write = self.write.lock(Mutex::lock);
        let len = self.len();
        if let Some(&(start, _)) = records.iter().find(|(index, _)| *index >= len) {
            let end = start + 1;
            return Err(IndexError::BadRange { start, end, len });
        }
        if records.is_empty() {
            return Ok(0);
        }
        let keys: Vec<_> = records
            .iter()
            .map(|(index, _)| keys::leaf(self.stream, *index))
            .collect();
        let puts = keys.iter().zip(records);
        let puts = puts.map(|(key, (_, value))| WriteOp::Put { key, value });
        self.kv.write_batch(&puts.collect::<Vec<_>>())?;
        Ok(records.len())
    }

    /// Statistical range query over chunks `[start, end)`: the homomorphic
    /// sum of their digests, `P_{end−1} − P_{start−1}`. Runs against a
    /// single snapshot taken at entry, so it is exact even while an append
    /// is in flight.
    pub fn query(&self, start: u64, end: u64) -> Result<Vec<u64>, IndexError> {
        let _span = timecrypt_obs::trace::stage("index.walk");
        let last = {
            let published = self.published.lock(RwLock::read);
            let len = published.len;
            if start >= end || end > len {
                return Err(IndexError::BadRange { start, end, len });
            }
            aged_out(&published.cutoffs, start, end)?;
            published.sum.as_ref().filter(|_| end == len).cloned()
        };
        let mut sum = match last {
            Some(sum) => sum,
            None => self.with_prefix(end - 1, |p| decode_sum(self.width, p))?,
        };
        if start > 0 {
            let sub = |p: &[u8]| fold_sum(&mut sum, self.width, p, u64::wrapping_sub);
            self.with_prefix(start - 1, sub)?;
        }
        Ok(sum)
    }

    /// `f` of the encoded running sum through chunk `index` — from the
    /// cache, or else from its record, then cached — or `CorruptNode` at
    /// level 0 where either fails.
    fn with_prefix<R>(
        &self,
        index: u64,
        mut f: impl FnMut(&[u8]) -> Option<R>,
    ) -> Result<R, IndexError> {
        let corrupt = || IndexError::CorruptNode { level: 0, index };
        if let Some(hit) = self.cache.with(index, &mut f) {
            return hit.ok_or_else(corrupt);
        }
        let record = leaf_record(self.kv.as_ref(), self.stream, index)?;
        let prefix = &record[..sum_len(self.width, &record).ok_or_else(corrupt)?];
        let out = f(prefix).ok_or_else(corrupt)?;
        self.cache.read(index, prefix);
        Ok(out)
    }

    /// Data decay (§4.5): ages out, for the chunks before `before_chunk`,
    /// the levels below `keep_level` — never the level of the root — of the
    /// 64-ary tree over the chunks. A query that needs one of their nodes
    /// lying wholly before the cutoff is [`IndexError::Decayed`] from then
    /// on. Records the cutoffs in one store write, serialized with
    /// `append`; returns how many nodes it newly aged out, and writes
    /// nothing for none.
    pub fn decay(&self, before_chunk: u64, keep_level: u8) -> Result<usize, IndexError> {
        let _write = self.write.lock(Mutex::lock);
        let (len, mut cutoffs) = {
            let published = self.published.lock(RwLock::read);
            (published.len, published.cutoffs.clone())
        };
        // Only published history decays.
        let before = before_chunk.min(len);
        let mut aged = 0;
        for level in 1..keep_level.min(levels(len)) {
            let cut = before / span(level) * span(level);
            if cutoffs.len() < level as usize {
                cutoffs.resize(level as usize, 0);
            }
            let at = &mut cutoffs[level as usize - 1];
            aged += cut.saturating_sub(*at) / span(level);
            *at = cut.max(*at);
        }
        while cutoffs.last() == Some(&0) {
            cutoffs.pop();
        }
        if aged == 0 {
            return Ok(0);
        }
        let bytes: Vec<u8> = cutoffs.iter().flat_map(|cut| cut.to_le_bytes()).collect();
        self.kv.put(&keys::decay(self.stream), &bytes)?;
        self.published.lock(RwLock::write).cutoffs = cutoffs;
        Ok(aged as usize)
    }

    /// Cache and size statistics.
    pub fn stats(&self) -> Result<TreeStats, IndexError> {
        let (hits, misses, used) = self.cache.stats();
        let mut stored_bytes = 0;
        for head in [
            keys::head(keys::LEAF, self.stream),
            keys::decay(self.stream),
        ] {
            let records = self.kv.scan_prefix(&head)?.into_iter();
            stored_bytes += records.map(|(k, v)| k.len() + v.len()).sum::<usize>();
        }
        Ok(TreeStats {
            cache_hits: hits,
            cache_misses: misses,
            cache_used_bytes: used,
            stored_bytes,
        })
    }
}

/// Chunks covered by one node at `level` of the 64-ary tree.
fn span(level: u8) -> u64 {
    DECAY_ARITY.saturating_pow(level as u32)
}

/// Levels of the 64-ary tree over `n` chunks: the lowest whose one node
/// spans them all, at least 1.
fn levels(n: u64) -> u8 {
    // `span` saturates: level 11 spans every `u64`.
    (1..11).find(|&level| span(level) >= n).unwrap_or(11)
}

/// `Decayed` at the first aged-out node the tree's walk of `[start, end)`
/// reads — the node covering `[0, end)`, then, top down, the nodes strictly
/// holding `start`, then those strictly holding `end` — or `Ok` for none.
fn aged_out(cutoffs: &[u64], start: u64, end: u64) -> Result<(), IndexError> {
    let top = levels(end);
    let inside = |b: u64| {
        let levels = (1..top)
            .rev()
            .filter(move |&level| !b.is_multiple_of(span(level)));
        levels.map(move |level| (level, b / span(level)))
    };
    let aged = |&(level, index): &(u8, u64)| {
        let cut = cutoffs.get(level as usize - 1).copied().unwrap_or(0);
        index < cut / span(level)
    };
    let mut walk = std::iter::once((top, 0))
        .chain(inside(start))
        .chain(inside(end));
    match walk.find(aged) {
        Some((level, index)) => Err(IndexError::Decayed { level, index }),
        None => Ok(()),
    }
}

/// The decay record's cutoffs: one `u64` per level, little-endian, each a
/// multiple of its level's span.
fn decode_cutoffs(bytes: &[u8]) -> Result<Vec<u64>, IndexError> {
    let (words, rest) = bytes.as_chunks::<8>();
    let cutoffs: Vec<u64> = words.iter().map(|w| u64::from_le_bytes(*w)).collect();
    let level = |i: usize| span(i as u8 + 1);
    let canonical = cutoffs
        .iter()
        .enumerate()
        .all(|(i, cut)| cut % level(i) == 0);
    match rest.is_empty() && canonical && cutoffs.len() < 11 {
        true => Ok(cutoffs),
        false => Err(StoreError::Corrupt("undecodable decay cutoffs").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use timecrypt_store::MemKv;

    /// Stream 1's index of width-2 sums, tags allowed.
    fn open(kv: Arc<dyn KvStore>) -> AggTree<Vec<u64>> {
        let cfg = TreeConfig {
            cache_bytes: 1 << 20,
        };
        AggTree::open_with(kv, 1, cfg, 2).unwrap()
    }

    fn tree() -> AggTree<Vec<u64>> {
        open(Arc::new(MemKv::new()))
    }

    /// Appends chunks `len..n` with digest `[i, 1]`, as one run.
    fn fill(t: &AggTree<Vec<u64>>, n: u64) {
        let digests: Vec<Vec<u64>> = (t.len()..n).map(|i| vec![i, 1]).collect();
        t.append_batch(&digests).unwrap();
    }

    fn naive_sum(a: u64, b: u64) -> Vec<u64> {
        vec![(a..b).sum::<u64>(), b - a]
    }

    fn assert_exhaustive(t: &AggTree<Vec<u64>>, n: u64) {
        assert_eq!(t.len(), n);
        for a in 0..n {
            for b in (a + 1)..=n {
                assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b}) of {n}");
            }
        }
        assert!(t.query(0, n + 1).is_err());
    }

    /// Full store dump, sorted — the byte-identity probe.
    fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = kv.scan_prefix(b"").unwrap();
        all.sort();
        all
    }

    #[test]
    fn single_chunk() {
        let t = tree();
        t.append(vec![42, 1]).unwrap();
        assert_eq!(t.query(0, 1).unwrap(), vec![42, 1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn query_matches_naive_fold_exhaustive_and_a_record_is_its_running_sum() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let t = open(kv.clone());
        for i in 0..100 {
            t.append(vec![i, 1]).unwrap();
        }
        assert_exhaustive(&t, 100);
        for i in 0..100 {
            let mut sum = Vec::new();
            encode_sum(&naive_sum(0, i + 1), &mut sum);
            assert_eq!(leaf_record(kv.as_ref(), 1, i).unwrap(), sum);
        }
        // No other record: no node at any level.
        assert_eq!(dump(kv.as_ref()).len(), 100);
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = tree();
        fill(&t, 10);
        assert!(t.query(5, 5).is_err());
        assert!(t.query(6, 5).is_err());
        assert!(t.query(0, 11).is_err());
        assert!(t.query(10, 11).is_err());
    }

    #[test]
    fn reopen_at_every_length_matches_a_never_closed_tree() {
        let (kv, live_kv) = (Arc::new(MemKv::new()), Arc::new(MemKv::new()));
        let live = open(live_kv.clone());
        for n in 0..=20u64 {
            let t = open(kv.clone());
            assert_exhaustive(&t, n);
            assert_eq!(dump(kv.as_ref()), dump(live_kv.as_ref()), "length {n}");
            t.append(vec![n, 1]).unwrap();
            live.append(vec![n, 1]).unwrap();
        }
    }

    #[test]
    fn streams_are_isolated() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let t1: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 1, TreeConfig::default()).unwrap();
        let t2: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 2, TreeConfig::default()).unwrap();
        t1.append(vec![100]).unwrap();
        t2.append(vec![200]).unwrap();
        assert_eq!(t1.query(0, 1).unwrap(), vec![100]);
        assert_eq!(t2.query(0, 1).unwrap(), vec![200]);
    }

    #[test]
    fn a_zero_budget_holds_no_sum_and_no_bits() {
        let t: AggTree<Vec<u64>> =
            AggTree::open(Arc::new(MemKv::new()), 1, TreeConfig { cache_bytes: 0 }).unwrap();
        fill(&t, 100);
        for _ in 0..3 {
            assert_eq!(t.query(10, 20).unwrap(), naive_sum(10, 20));
        }
        let stats = t.stats().unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 6));
        assert_eq!(stats.cache_used_bytes, 0);
        assert!(t.cache.built.get().is_none(), "no segment was built");
    }

    #[test]
    fn the_last_sum_is_no_cache_lookup_a_stored_one_is() {
        let t = tree();
        fill(&t, 10);
        let (hits, misses) = (
            &counters::INDEX_NODE_CACHE_HITS,
            &counters::INDEX_NODE_CACHE_MISSES,
        );
        let process = (hits.get(), misses.get());
        let lookups = || {
            let stats = t.stats().unwrap();
            (stats.cache_hits, stats.cache_misses)
        };
        assert_eq!(t.query(0, 10).unwrap(), naive_sum(0, 10));
        assert_eq!(lookups(), (0, 0), "the published sum answered");
        let used = t.stats().unwrap().cache_used_bytes;
        assert_eq!(used, 0, "appends fill nothing");
        for _ in 0..3 {
            assert_eq!(t.query(1, 4).unwrap(), naive_sum(1, 4));
        }
        assert_eq!(
            lookups(),
            (2, 4),
            "read from the store twice, admitted by the second read, then cached"
        );
        // Process-wide, beside other tests' lookups.
        assert!(hits.get() > process.0 && misses.get() > process.1);
    }

    /// A query's read of chunk `chunk`'s one-word sum, as `PrefixCache`
    /// makes it: from the slab, else from the store, marking or admitting
    /// it. True on a hit.
    fn read(slab: &mut Slab, chunk: u64) -> bool {
        read_as(slab, chunk, &chunk.to_le_bytes())
    }

    /// As [`read`], of the sum `sum`.
    fn read_as(slab: &mut Slab, chunk: u64, sum: &[u8]) -> bool {
        let hit = slab.get(chunk).is_some();
        if !hit && slab.mark(chunk) {
            slab.admit(chunk, sum);
        }
        hit
    }

    /// Chunks whose sums `slab` holds, and those it evicted, of `0..n`.
    fn held_and_ghosts(slab: &Slab, n: u64) -> (Vec<u64>, Vec<u64>) {
        let held = (0..n).filter(|&c| slab.slot(c).is_some()).collect();
        let ghosts = (0..n).filter(|&c| slab.ghost[c as usize / 64] >> (c % 64) & 1 == 1);
        (held, ghosts.collect())
    }

    #[test]
    fn sums_admitted_and_never_re_read_leave_the_slab_at_its_floor() {
        let mut slab = Slab::new(1 << 20);
        // Admitted on their second reads: a first read admits nothing.
        for chunk in 0..FLOOR as u64 {
            assert!(!read(&mut slab, chunk) && slab.get(chunk).is_none());
            read(&mut slab, chunk);
        }
        // CLOCK: 0 and 2 hit; 7 takes the first cold slot past the hand
        // (1's), 8 the next (3's), both reference bits cleared on the way.
        assert!(read(&mut slab, 0) && read(&mut slab, 2));
        for chunk in [7, 7, 8, 8] {
            read(&mut slab, chunk);
        }
        let (held, ghosts) = held_and_ghosts(&slab, 9);
        assert_eq!((held, ghosts), (vec![0, 2, 4, 5, 6, 7, 8], vec![1, 3]));
        // Ninety more sums read twice and never again: each replaces a
        // victim in place, and the slab stays at its floor.
        for chunk in 9..100 {
            read(&mut slab, chunk);
            read(&mut slab, chunk);
        }
        assert_eq!(slab.room, FLOOR);
        let (held, ghosts) = held_and_ghosts(&slab, 100);
        assert_eq!((held.len(), ghosts.len()), (FLOOR, 100 - FLOOR));
        assert_eq!(slab.charged, slab.cost(FLOOR));
    }

    #[test]
    fn re_reads_of_evicted_sums_grow_the_slab_until_they_hit() {
        let mut slab = Slab::new(1 << 20);
        // Forty sums read in turn, four times: marked; admitted, evicting
        // one another at the floor; each admitted back on its re-read,
        // which grows the full slab by a quarter; then all hit.
        let passes: Vec<_> = (0..4)
            .map(|_| {
                let hits = (0..40).filter(|&chunk| read(&mut slab, chunk)).count();
                (hits, slab.room)
            })
            .collect();
        assert_eq!(passes, [(0, 0), (0, 7), (7, 41), (40, 41)]);
        assert_eq!(held_and_ghosts(&slab, 40).1, Vec::<u64>::new());
        assert_eq!(slab.charged, slab.cost(41));
    }

    #[test]
    fn growth_stops_at_the_budget_with_the_ghost_bits_charged() {
        // Room for three sums of one word, their tags, reference bits and
        // a table of 8 slot numbers, beside both maps of four words of
        // bits; or for four beside one word each, and not five.
        let mut slab = Slab::new(64 + 3 * (8 + 5) + 4 * 8);
        for chunk in (0..4).flat_map(|_| 0..12) {
            read(&mut slab, chunk);
        }
        assert_eq!(slab.room, 4);
        assert_eq!((slab.seen.capacity(), slab.ghost.capacity()), (1, 1));
        assert_eq!(slab.charged, 16 + 4 * (8 + 5) + 4 * 8);
        assert!(slab.cost(5) > slab.budget);
        let (held, ghosts) = held_and_ghosts(&slab, 12);
        assert_eq!((held.len(), ghosts.len()), (4, 8));
        // A sum of another length is never admitted.
        for _ in 0..2 {
            if slab.mark(12) {
                slab.admit(12, &[12]);
            }
        }
        assert!(slab.get(12).is_none());
        // A chunk whose bits need more words: the slab gives up slots to
        // hold them, and stays within the budget.
        read(&mut slab, 200);
        assert_eq!((slab.seen.len(), slab.ghost.len(), slab.room), (4, 4, 3));
        assert_eq!(slab.charged, slab.budget);
        // A small budget is one segment; one with room is segmented.
        let segments = |budget_bytes| {
            let cache = PrefixCache {
                budget_bytes,
                ..PrefixCache::default()
            };
            cache.segment(0);
            cache.built.get().unwrap().len()
        };
        assert_eq!(segments(1 << 20), MAX_SEGMENTS);
        assert_eq!(segments(200 << 10), 3);
    }

    /// The 19 words `19·chunk + j` of `chunk`'s sum.
    fn wide(chunk: u64) -> Vec<u8> {
        (0..19)
            .flat_map(|j| (19 * chunk + j).to_le_bytes())
            .collect()
    }

    /// Checks `slab` against `model`, the chunk each slot holds and where
    /// its sum lay when the slot was first filled.
    fn assert_held(slab: &Slab, model: &[(u64, *const u8)]) {
        assert_eq!(slab.len, model.len());
        let bytes: usize = slab.blocks.iter().map(|block| block.len()).sum();
        assert_eq!(bytes, slab.room * (slab.stride + 5));
        for (slot, &(chunk, at)) in model.iter().enumerate() {
            assert_eq!(slab.slot(chunk), Some(slot), "chunk {chunk}");
            assert_eq!(slab.tag(slot), chunk as u32);
            let sum = &slab.entry(slot)[..slab.stride];
            assert_eq!(sum.as_ptr(), at, "slot {slot} moved");
            let words = (19 * chunk..).map(u64::to_le_bytes);
            assert!(sum.chunks(8).zip(words).all(|(a, b)| a == b), "slot {slot}");
        }
    }

    #[test]
    fn growth_appends_a_block_and_moves_no_held_sum() {
        // Nineteen-word sums at the dashboard's 64 KiB, read at random
        // (seeded) from a thousand chunks: ghost hits grow the slab from
        // its floor to the most the budget affords.
        let mut slab = Slab::new(64 << 10);
        let mut state = 11u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) >> 31
        };
        let mut model: Vec<(u64, *const u8)> = Vec::new();
        let (mut reads, mut steps, mut wrapped, mut after_most) = (0, 0, 0, 0);
        while after_most < 2000 {
            reads += 1;
            let (room, blocks, hand) = (slab.room, slab.blocks.len(), slab.hand);
            let chunk = next() % 1000;
            read_as(&mut slab, chunk, &wide(chunk));
            let grew = slab.room > room;
            if grew {
                // One block of exactly the new slots.
                steps += 1;
                assert_eq!(slab.blocks.len(), blocks + 1);
                let block = slab.blocks[blocks].len();
                assert_eq!(block, (slab.room - room) * (slab.stride + 5));
            }
            // A fill takes the next slot; an admission into a full slab
            // keeps the slot where it lay.
            if let Some(slot) = slab.slot(chunk) {
                let at = slab.entry(slot).as_ptr();
                match model.get_mut(slot) {
                    Some(held) => held.0 = chunk,
                    None => model.push((chunk, at)),
                }
            }
            if grew || reads % 32 == 0 {
                assert_held(&slab, &model);
            }
            wrapped += usize::from(slab.hand < hand && slab.blocks.len() > 1);
            after_most += usize::from(slab.room == slab.most());
        }
        assert!(steps >= 15 && wrapped > 0, "{steps} steps, {wrapped} wraps");
        assert_eq!(slab.charged, slab.cost(slab.room));
        // A chunk whose bits need 64 times the words: the slab gives up
        // its last blocks and trims the one left last, which alone moves.
        let (room, blocks) = (slab.room, slab.blocks.len());
        read_as(&mut slab, 60_000, &wide(60_000));
        assert!(slab.room < room && slab.blocks.len() < blocks);
        assert_eq!(
            (slab.seen.len(), slab.charged),
            (1024, slab.cost(slab.room))
        );
        assert!(slab.charged <= slab.budget);
        let last = slab.blocks.last().map_or(0, |block| block.len());
        let kept = slab.room - last / (slab.stride + 5);
        model.truncate(slab.len);
        for (slot, held) in model.iter_mut().enumerate().skip(kept) {
            held.1 = slab.entry(slot).as_ptr();
        }
        assert_held(&slab, &model);
        // And CLOCK goes on across the blocks left.
        for read in 0..2000 {
            let chunk = next() % 1000;
            read_as(&mut slab, chunk, &wide(chunk));
            if let Some(slot) = slab.slot(chunk) {
                model[slot].0 = chunk;
            }
            if read % 32 == 0 {
                assert_held(&slab, &model);
            }
        }
        assert_held(&slab, &model);
    }

    /// Each entry of `slab`'s table as `(tag, position, home)`.
    fn entries(slab: &Slab) -> Vec<(u32, usize, usize)> {
        let full = (0..).zip(&slab.table).filter(|&(_, &slot)| slot != EMPTY);
        let entry = |(at, &slot): (usize, &u32)| {
            let tag = slab.tag(slot as usize);
            (tag, at, slab.home(tag))
        };
        full.map(entry).collect()
    }

    #[test]
    fn the_slot_table_finds_what_the_slab_holds_through_churn() {
        const CHUNKS: u64 = 512;
        // Eight words in each map of bits, and 37 slots at most: a table
        // of 128 for re-reads of random chunks to collide in, hashed by
        // one fixed multiplier (Fibonacci's, ⌊2³²/φ⌋).
        let mut slab = Slab::new(128 + 1000);
        slab.multiplier = 0x9e37_79b9;
        let mut state = 5u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb) >> 31
        };
        let (mut wrapped, mut shifted) = (0, 0);
        for _ in 0..10_000 {
            let (before, room) = (entries(&slab), slab.room);
            let chunk = next() % CHUNKS;
            read(&mut slab, chunk);
            // A second reader that missed the sum too admits it again.
            if next() % 4 == 0 && slab.mark(chunk) {
                slab.admit(chunk, &chunk.to_le_bytes());
            }
            // The model: each held tag's slot, from the slab's own tags,
            // which are distinct.
            let model: BTreeMap<u64, usize> = (0..slab.len)
                .map(|slot| (u64::from(slab.tag(slot)), slot))
                .collect();
            assert_eq!(model.len(), slab.len);
            for chunk in 0..CHUNKS {
                assert_eq!(slab.slot(chunk), model.get(&chunk).copied(), "{chunk}");
            }
            // No tombstone: one entry per slot, each reached from its home
            // through full positions only.
            let now = entries(&slab);
            assert_eq!(now.len(), slab.len);
            let mask = slab.table.len().wrapping_sub(1);
            for &(_, at, home) in &now {
                let probe = (0..=at.wrapping_sub(home) & mask).map(|i| (home + i) & mask);
                assert!(probe.map(|p| slab.table[p]).all(|slot| slot != EMPTY));
                wrapped += usize::from(at < home);
            }
            // Outside a resize, an entry that moved was shifted back by a
            // delete.
            if slab.room == room {
                let moved = |&(tag, at, _): &(u32, usize, usize)| {
                    now.iter().any(|&(t, a, _)| t == tag && a != at)
                };
                shifted += before.iter().filter(|e| moved(e)).count();
            }
        }
        assert_eq!(slab.room, slab.most());
        assert!(
            wrapped > 0 && shifted > 0,
            "{wrapped} wrapped, {shifted} shifted"
        );
        assert_eq!(slab.charged, slab.cost(slab.room));
        // A chunk past `u32` has no bit and never a slot.
        let mut slab = Slab::new(1 << 40);
        assert!(!slab.mark(1 << 32) && !slab.mark(1 << 32));
        assert!(slab.seen.is_empty() && slab.slot(1 << 32).is_none());
    }

    #[test]
    fn a_sum_is_read_and_folded_only_whole_and_of_the_width() {
        let (a, b) = (vec![1u64, u64::MAX, 7], vec![5u64, 3, u64::MAX - 1]);
        let mut entry = Vec::new();
        encode_sum(&b, &mut entry);
        let words: Vec<u8> = b.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(entry, words, "the words alone");
        // Trailing bytes are the tag under a width; with none, the bytes
        // are the sum. Addition wraps, and subtraction undoes it.
        let long = [&entry[..], &[9; 3]].concat();
        for (width, bytes) in [(Some(3), &entry[..]), (Some(3), &long), (None, &entry)] {
            assert_eq!(decode_sum(width, bytes).as_ref(), Some(&b));
            let mut sum = a.clone();
            assert_eq!(
                fold_sum(&mut sum, width, bytes, u64::wrapping_add),
                Some(())
            );
            assert_eq!(sum, [6, 2, 5]);
            assert_eq!(
                fold_sum(&mut sum, width, bytes, u64::wrapping_sub),
                Some(())
            );
            assert_eq!(sum, a);
        }
        assert_eq!(decode_sum(None, &long), None);
        // A cut sum is refused, and the target left as it was.
        for cut in 0..entry.len() {
            for width in [Some(3), None] {
                let whole = width.is_none() && cut % 8 == 0;
                let decoded = decode_sum(width, &entry[..cut]);
                assert_eq!(decoded.map(|sum| 8 * sum.len()), whole.then_some(cut));
                let mut sum = a.clone();
                assert_eq!(
                    fold_sum(&mut sum, width, &entry[..cut], u64::wrapping_add),
                    None
                );
                assert_eq!(sum, a);
            }
        }
        // So is a sum of another width.
        let mut narrow = Vec::new();
        encode_sum(&[1, 2], &mut narrow);
        let mut sum = a.clone();
        for (width, bytes) in [(Some(2), &narrow), (None, &narrow), (Some(2), &entry)] {
            assert_eq!(fold_sum(&mut sum, width, bytes, u64::wrapping_add), None);
            assert_eq!(fold_sum(&mut sum, width, bytes, u64::wrapping_sub), None);
        }
        assert_eq!(sum, a);
        // Width 0 is no bytes, whatever follows; no width overflows.
        assert_eq!(decode_sum(Some(0), &entry), Some(vec![]));
        assert_eq!(decode_sum(Some(usize::MAX), &entry), None);
    }

    /// A [`MemKv`] whose write number `fail_at` (counted from 1; a batch is
    /// one write, applied whole or not at all) fails.
    #[derive(Default)]
    struct FailNthPut {
        inner: MemKv,
        writes: AtomicU64,
        fail_at: AtomicU64,
    }

    impl FailNthPut {
        fn arm(&self, nth: u64) {
            let now = self.writes.load(Ordering::Relaxed);
            self.fail_at.store(now + nth, Ordering::Relaxed);
        }
    }

    impl KvStore for FailNthPut {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            self.write_batch(&[WriteOp::Put { key, value }])
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.inner.delete(key)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<timecrypt_store::KvPairs, StoreError> {
            self.inner.scan_prefix(prefix)
        }
        fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
            let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
            if n == self.fail_at.load(Ordering::Relaxed) {
                return Err(StoreError::Corrupt("injected write failure"));
            }
            self.inner.write_batch(ops)
        }
    }

    #[test]
    fn decay_ages_out_fine_levels_keeps_coarse_and_survives_a_reopen() {
        let kv = Arc::new(FailNthPut::default());
        let t = open(kv.clone());
        fill(&t, 3 * 4096 + 100);
        let n = t.len();
        // A faulted decay changes nothing; its retry is one write.
        kv.arm(1);
        assert!(matches!(t.decay(8192, 3), Err(IndexError::Store(_))));
        assert_eq!(t.query(0, 1).unwrap(), naive_sum(0, 1));
        let writes = kv.writes.load(Ordering::Relaxed);
        // Levels 1 and 2 before chunk 8192: 128 leaf nodes and two above.
        assert_eq!(t.decay(8192, 3).unwrap(), 128 + 2);
        assert_eq!(kv.writes.load(Ordering::Relaxed), writes + 1, "one write");
        assert_eq!(t.decay(8000, 3).unwrap(), 0, "nothing newly aged out");
        for t in [t, open(kv.clone())] {
            // Fine queries inside the aged-out region are a decay error.
            for (a, b, level, index) in [(0, 1, 1, 0), (64, 65, 2, 0), (4097, 8192, 2, 1)] {
                match t.query(a, b) {
                    Err(IndexError::Decayed { level: l, index: i }) => {
                        assert_eq!((l, i), (level, index), "[{a},{b})")
                    }
                    other => panic!("[{a},{b}): expected Decayed, got {other:?}"),
                }
            }
            // Coarse ones over it, and fine ones past it, still answer.
            for (a, b) in [(0, n), (4096, 8192), (0, 12288), (8192, 8193), (n - 1, n)] {
                assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b})");
            }
        }
        // The root level never decays: 64 chunks are one level.
        let t = tree();
        fill(&t, 64);
        assert_eq!(t.decay(64, 5).unwrap(), 0);
        assert_eq!(t.query(0, 1).unwrap(), naive_sum(0, 1));
    }

    /// Chunk `i`'s record as a caller with a tag would write it: the digest
    /// `[i, 1]`, then `i mod 5` bytes of its own.
    fn tagged(i: u64) -> Vec<u8> {
        let mut record = Vec::new();
        encode_sum(&[i, 1], &mut record);
        record.extend_from_slice(&i.to_be_bytes()[..(i % 5) as usize]);
        record
    }

    /// Records given whole, each one piece.
    fn whole(records: &[Vec<u8>]) -> Vec<[&[u8]; 1]> {
        records.iter().map(|record| [&record[..]]).collect()
    }

    #[test]
    fn failed_append_changes_nothing_and_retry_converges() {
        // Three chunks in; a run of 14 more, tags and all, is one batch.
        // The reference appends each record as three pieces: the digest,
        // its tag split unevenly.
        let clean_kv = Arc::new(MemKv::new());
        let clean = open(clean_kv.clone());
        for i in 0..17 {
            let record = tagged(i);
            let (digest, tag) = record.split_at(16);
            let (a, b) = tag.split_at(tag.len() / 2);
            clean.append_records(&[[digest, a, b]]).unwrap();
        }
        let run: Vec<Vec<u8>> = (3..17).map(tagged).collect();
        let kv = Arc::new(FailNthPut::default());
        let t = open(kv.clone());
        t.append_records(&whole(&[tagged(0), tagged(1), tagged(2)]))
            .unwrap();
        let before = dump(kv.as_ref());
        kv.arm(1);
        assert!(matches!(
            t.append_records(&whole(&run)),
            Err(IndexError::Store(_))
        ));
        // So does a run holding a record that starts with no digest, which
        // never reaches the store.
        let writes = kv.writes.load(Ordering::Relaxed);
        let mut bad = run.clone();
        bad[9].truncate(11);
        assert!(matches!(
            t.append_records(&whole(&bad)),
            Err(IndexError::CorruptNode {
                level: 0,
                index: 12
            })
        ));
        assert_eq!(kv.writes.load(Ordering::Relaxed), writes);
        // Nothing stored, nothing published, and a fresh handle agrees.
        assert_exhaustive(&t, 3);
        assert_eq!(dump(kv.as_ref()), before);
        assert_exhaustive(&open(kv.clone()), 3);
        t.append_records(&whole(&run)).unwrap();
        assert_eq!(kv.writes.load(Ordering::Relaxed) - writes, 1, "one commit");
        assert_exhaustive(&t, 17);
        assert_eq!(dump(kv.as_ref()), dump(clean_kv.as_ref()));
        // Each record is the running sum, then the caller's tag.
        for i in 0..17 {
            let mut stored = Vec::new();
            encode_sum(&naive_sum(0, i + 1), &mut stored);
            stored.extend_from_slice(&tagged(i)[16..]);
            assert_eq!(leaf_record(kv.as_ref(), 1, i).unwrap(), stored);
        }
    }

    #[test]
    fn retag_rewrites_records_in_one_batch_and_nothing_the_index_answers() {
        let kv = Arc::new(FailNthPut::default());
        let t = open(kv.clone());
        t.append_records(&whole(&(0..11).map(tagged).collect::<Vec<_>>()))
            .unwrap();
        let stub = |i: u64| {
            let mut record = leaf_record(kv.as_ref(), 1, i).unwrap();
            record.truncate(16);
            record.extend_from_slice(&[0xEE; 3]);
            (i, record)
        };
        let stubs: Vec<_> = [2, 4, 6, 8].map(stub).into();
        let before = dump(kv.as_ref());
        kv.arm(1);
        assert!(matches!(t.retag(&stubs), Err(IndexError::Store(_))));
        assert_eq!(dump(kv.as_ref()), before, "all of the batch or none");
        let writes = kv.writes.load(Ordering::Relaxed);
        assert_eq!(t.retag(&stubs).unwrap(), 4);
        assert_eq!(kv.writes.load(Ordering::Relaxed) - writes, 1, "one commit");
        for (i, record) in &stubs {
            assert_eq!(&leaf_record(kv.as_ref(), 1, *i).unwrap(), record);
        }
        assert_exhaustive(&t, 11);
        assert_exhaustive(&open(kv.clone()), 11);
        // None written; and never a chunk not appended yet.
        assert_eq!(t.retag(&[]).unwrap(), 0);
        assert_eq!(kv.writes.load(Ordering::Relaxed) - writes, 1);
        assert!(matches!(
            t.retag(&[(11, vec![])]),
            Err(IndexError::BadRange { start: 11, .. })
        ));
    }

    /// Batches are atomic, so a missing or undecodable level-0 record is
    /// corruption, never a crash state, and it is refused where it is read:
    /// open reads the last record alone, a query its boundaries'.
    #[test]
    fn a_gap_in_the_records_is_corrupt_node_where_it_is_read() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        fill(&open(kv.clone()), 11);
        let last = kv.get(&keys::leaf(1, 10)).unwrap().unwrap();
        let reopen = || AggTree::<Vec<u64>>::open(kv.clone(), 1, TreeConfig::default());
        kv.put(&keys::leaf(1, 10), &[1, 2, 3]).unwrap();
        assert!(matches!(
            reopen(),
            Err(IndexError::CorruptNode {
                level: 0,
                index: 10
            })
        ));
        kv.put(&keys::leaf(1, 10), &last).unwrap();
        kv.delete(&keys::leaf(1, 5)).unwrap();
        let t = reopen().unwrap();
        assert_eq!(t.query(0, 5).unwrap(), naive_sum(0, 5));
        assert_eq!(t.query(7, 11).unwrap(), naive_sum(7, 11));
        for (a, b) in [(0, 6), (6, 9)] {
            assert!(matches!(
                t.query(a, b),
                Err(IndexError::CorruptNode { level: 0, index: 5 })
            ));
        }
    }

    #[test]
    fn stored_chunk_count_finds_every_length() {
        // Every length around the doubling and bisection boundaries.
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let t = open(kv.clone());
        for n in 0..=40u64 {
            assert_eq!(stored_chunk_count(kv.as_ref(), 1).unwrap(), n);
            assert_eq!(stored_chunk_count(kv.as_ref(), 2).unwrap(), 0);
            t.append(vec![n, 1]).unwrap();
        }
    }

    #[test]
    fn concurrent_readers_stay_exact_during_appends() {
        use std::sync::atomic::AtomicBool;
        // Small cache so readers also exercise the store miss path.
        let kv = Arc::new(MemKv::new());
        let cfg = TreeConfig { cache_bytes: 512 };
        let t: Arc<AggTree<Vec<u64>>> = Arc::new(AggTree::open(kv, 1, cfg).unwrap());
        const N: u64 = 600;
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer = t.clone();
            let writer_done = done.clone();
            scope.spawn(move || {
                // Single appends and runs of 3.
                let mut i = 0;
                while i < N {
                    let run = if i % 7 == 0 { 3.min(N - i) } else { 1 };
                    let digests: Vec<Vec<u64>> = (i..i + run).map(|c| vec![c, 1]).collect();
                    writer.append_batch(&digests).unwrap();
                    i += run;
                }
                writer_done.store(true, Ordering::Release);
            });
            for r in 0..4u64 {
                let t = t.clone();
                let done = done.clone();
                scope.spawn(move || {
                    let mut checked = 0u64;
                    loop {
                        let stop = done.load(Ordering::Acquire);
                        let len = t.len();
                        if len > 0 {
                            // Full prefix and reader-dependent windows:
                            // exact for the snapshot the reader saw.
                            assert_eq!(t.query(0, len).unwrap(), naive_sum(0, len));
                            let a = (r * len / 5).min(len - 1);
                            assert_eq!(t.query(a, len).unwrap(), naive_sum(a, len));
                            let b = (a + 2).min(len);
                            assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b));
                            checked += 1;
                        }
                        if stop {
                            break;
                        }
                    }
                    assert!(checked > 0, "reader {r} never saw data");
                });
            }
        });
        assert_eq!(t.len(), N);
        for a in [0u64, 1, N / 3, N - 1] {
            assert_eq!(t.query(a, N).unwrap(), naive_sum(a, N), "[{a},{N})");
        }
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        // Runs of one chunk, a few, and across 64 and 4096.
        let (kv_seq, kv_batch) = (Arc::new(MemKv::new()), Arc::new(MemKv::new()));
        let (seq, batch) = (open(kv_seq.clone()), open(kv_batch.clone()));
        let mut i = 0u64;
        for n in [1u64, 3, 64, 1, 63, 128, 4000, 200] {
            let digests: Vec<Vec<u64>> = (i..i + n).map(|j| vec![j, 1]).collect();
            for d in &digests {
                seq.append(d.clone()).unwrap();
            }
            batch.append_batch(&digests).unwrap();
            i += n;
            assert_eq!(dump(kv_seq.as_ref()), dump(kv_batch.as_ref()), "after {i}");
        }
        assert_eq!(batch.query(0, i).unwrap(), naive_sum(0, i));
    }
}
