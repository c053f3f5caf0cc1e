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
//! and reads the one record `len − 1`. Other running sums queries read go
//! through a [`BoundaryCache`], the index's own or its node's, keyed by a
//! life each open draws afresh: a sum's second store read admits it, and
//! the cache's budget ([`TreeConfig::cache_bytes`]) bounds every index it
//! serves together. Only those reads fill it.
//!
//! **Commit = one batch.** An append — one chunk or a run — hands its
//! records to the store as one [`KvStore::write_batch`]: all of it or none
//! of it, across failure and crash. A failed append left nothing behind,
//! in the store or in memory, and a retry (on the log reopened, which a
//! failed append leaves read-only) is a first try.
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

use crate::cache::BoundaryCache;
use crate::keys;
use parking_lot::{Mutex, RwLock};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use timecrypt_obs::counters::{self, Counter};
use timecrypt_obs::rank::{self, Ranked};
use timecrypt_store::{KvStore, StoreError, WriteOp};

/// Index parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Heap budget in bytes of the index's own [`BoundaryCache`], a hard
    /// cap: the running sums it keeps, a bit per chunk read, the ghosts of
    /// blocks it evicted, and the tables that find them, within targets
    /// that grow as queries read again what it evicted and fall as it
    /// evicts sums no query found; `0` caches nothing. A sum's second
    /// store read admits it. Fig. 7's "small cache" variant uses 1 MB.
    pub cache_bytes: usize,
}

/// The boundary cache's budget unless one is configured: a node's, and a
/// standalone index's.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
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
    /// Heap bytes the boundary cache the index reads through is charged,
    /// for every index it serves: a node's, when the index is a node's.
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
    cache: Cache,
    /// This open's key in the cache: no other open of the cache had it.
    life: u64,
    /// Lookups in the cache, counted here so that one before the first
    /// fill is a miss.
    hits: Counter,
    misses: Counter,
    marker: PhantomData<D>,
}

/// The boundary cache an index reads through: its own, or its node's.
enum Cache {
    Own(BoundaryCache),
    Node(Arc<BoundaryCache>),
}

impl std::ops::Deref for Cache {
    type Target = BoundaryCache;

    fn deref(&self) -> &BoundaryCache {
        match self {
            Cache::Own(cache) => cache,
            Cache::Node(cache) => cache,
        }
    }
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
    /// [`append_batch`](Self::append_batch) write them, with a boundary
    /// cache of its own.
    pub fn open(kv: Arc<dyn KvStore>, stream: u128, cfg: TreeConfig) -> Result<Self, IndexError> {
        let cache = Cache::Own(BoundaryCache::new(cfg.cache_bytes));
        Self::open_at(kv, stream, cache, None)
    }

    /// Opens (or creates) the index of `stream` on `kv` whose records are
    /// tagged: each starts with a running sum of `width` words. It reads
    /// through `cache`, which other indexes may share.
    pub fn open_with(
        kv: Arc<dyn KvStore>,
        stream: u128,
        cache: &Arc<BoundaryCache>,
        width: usize,
    ) -> Result<Self, IndexError> {
        Self::open_at(kv, stream, Cache::Node(cache.clone()), Some(width))
    }

    /// Its length ([`stored_chunk_count`]), last sum and decay cutoffs.
    fn open_at(
        kv: Arc<dyn KvStore>,
        stream: u128,
        cache: Cache,
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
            life: cache.lives.fetch_add(1, Ordering::Relaxed),
            cache,
            hits: Counter::new(),
            misses: Counter::new(),
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
        let hit = self.cache.get((self.stream, self.life, index), &mut f);
        let (tree, process) = match hit {
            Some(_) => (&self.hits, &counters::INDEX_NODE_CACHE_HITS),
            None => (&self.misses, &counters::INDEX_NODE_CACHE_MISSES),
        };
        tree.inc();
        process.inc();
        if let Some(hit) = hit {
            return hit.ok_or_else(corrupt);
        }
        let record = leaf_record(self.kv.as_ref(), self.stream, index)?;
        let prefix = &record[..sum_len(self.width, &record).ok_or_else(corrupt)?];
        let out = f(prefix).ok_or_else(corrupt)?;
        self.cache.read((self.stream, self.life, index), prefix);
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
        let mut stored_bytes = 0;
        for head in [
            keys::head(keys::LEAF, self.stream),
            keys::decay(self.stream),
        ] {
            let records = self.kv.scan_prefix(&head)?.into_iter();
            stored_bytes += records.map(|(k, v)| k.len() + v.len()).sum::<usize>();
        }
        Ok(TreeStats {
            cache_hits: self.hits.get(),
            cache_misses: self.misses.get(),
            cache_used_bytes: self.cache.charged(),
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
    use timecrypt_faults::{FaultPlan, FaultyFile, FileCall, FileFault, FileRule, Trigger};
    use timecrypt_store::{Durability, LogKv, MemFile, MemKv};

    /// Stream 1's index of width-2 sums, tags allowed.
    fn open(kv: Arc<dyn KvStore>) -> AggTree<Vec<u64>> {
        AggTree::open_with(kv, 1, &Arc::new(BoundaryCache::new(1 << 20)), 2).unwrap()
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

    type Faulty = FaultyFile<MemFile>;

    /// A log over a quiet faulty file in memory, and the file.
    fn faulty_log() -> (Arc<dyn KvStore>, Faulty) {
        let file = FaultyFile::new(MemFile::default(), FaultPlan::quiet());
        (reopen(&file), file)
    }

    /// The log in `file`, opened again: a log whose append failed is
    /// read-only until then.
    fn reopen(file: &Faulty) -> Arc<dyn KvStore> {
        Arc::new(LogKv::over(file.clone(), Durability::Flush).unwrap())
    }

    /// Fails the file's next append: the next write, a batch being one.
    fn fail_next_append(file: &Faulty) {
        file.set_plan(FaultPlan::quiet().with_file_rule(FileRule {
            call: FileCall::Append,
            when: Trigger::Nth(file.calls(FileCall::Append)),
            fault: FileFault::Error,
        }));
    }

    fn appends(file: &Faulty) -> u64 {
        file.calls(FileCall::Append)
    }

    #[test]
    fn decay_ages_out_fine_levels_keeps_coarse_and_survives_a_reopen() {
        let (kv, file) = faulty_log();
        let t = open(kv);
        fill(&t, 3 * 4096 + 100);
        let n = t.len();
        // A faulted decay changes nothing; its retry, on the log reopened
        // over its file, is one write.
        fail_next_append(&file);
        assert!(matches!(t.decay(8192, 3), Err(IndexError::Store(_))));
        assert_eq!(t.query(0, 1).unwrap(), naive_sum(0, 1));
        drop(t);
        let kv = reopen(&file);
        let t = open(kv.clone());
        assert_eq!(t.query(0, 1).unwrap(), naive_sum(0, 1));
        let writes = appends(&file);
        // Levels 1 and 2 before chunk 8192: 128 leaf nodes and two above.
        assert_eq!(t.decay(8192, 3).unwrap(), 128 + 2);
        assert_eq!(appends(&file), writes + 1, "one write");
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
        let (kv, file) = faulty_log();
        let t = open(kv.clone());
        t.append_records(&whole(&[tagged(0), tagged(1), tagged(2)]))
            .unwrap();
        let before = dump(kv.as_ref());
        fail_next_append(&file);
        assert!(matches!(
            t.append_records(&whole(&run)),
            Err(IndexError::Store(_))
        ));
        // So does a run holding a record that starts with no digest, which
        // never reaches the store.
        let writes = appends(&file);
        let mut bad = run.clone();
        bad[9].truncate(11);
        assert!(matches!(
            t.append_records(&whole(&bad)),
            Err(IndexError::CorruptNode {
                level: 0,
                index: 12
            })
        ));
        assert_eq!(appends(&file), writes);
        // Nothing stored, nothing published, and a fresh handle agrees.
        assert_exhaustive(&t, 3);
        assert_eq!(dump(kv.as_ref()), before);
        assert_exhaustive(&open(kv.clone()), 3);
        // The retry, on the log reopened over its file.
        drop((t, kv));
        let kv = reopen(&file);
        let t = open(kv.clone());
        assert_exhaustive(&t, 3);
        let writes = appends(&file);
        t.append_records(&whole(&run)).unwrap();
        assert_eq!(appends(&file) - writes, 1, "one commit");
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
        let (kv, file) = faulty_log();
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
        fail_next_append(&file);
        assert!(matches!(t.retag(&stubs), Err(IndexError::Store(_))));
        assert_eq!(dump(kv.as_ref()), before, "all of the batch or none");
        // The retry, on the log reopened over its file.
        drop((t, kv));
        let kv = reopen(&file);
        let t = open(kv.clone());
        assert_eq!(dump(kv.as_ref()), before);
        let writes = appends(&file);
        assert_eq!(t.retag(&stubs).unwrap(), 4);
        assert_eq!(appends(&file) - writes, 1, "one commit");
        for (i, record) in &stubs {
            assert_eq!(&leaf_record(kv.as_ref(), 1, *i).unwrap(), record);
        }
        assert_exhaustive(&t, 11);
        assert_exhaustive(&open(kv.clone()), 11);
        // None written; and never a chunk not appended yet.
        assert_eq!(t.retag(&[]).unwrap(), 0);
        assert_eq!(appends(&file) - writes, 1);
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
