//! The k-ary time-partitioned aggregation tree (paper §4.5, Fig. 4).
//!
//! Layout: the chunk sequence is the leaf level (level 0). A node at
//! `(level ℓ ≥ 1, index i)` covers chunks `[i·k^ℓ, (i+1)·k^ℓ)` and stores up
//! to k entries, entry `c` being the homomorphic aggregate of its child
//! subtree (for ℓ = 1, entry `c` *is* the digest of chunk `i·k + c`).
//! Appends ripple one addition into each ancestor level; range queries
//! combine fully-covered entries top-down and recurse only at the two
//! partially-covered edges — O(2(k−1)·log_k n) additions worst case, the
//! bound quoted in §6.1.
//!
//! # Persistence: two record kinds ([`crate::keys`])
//!
//! * `il/<stream>/<chunk>` — the **level-0 record** of one chunk: the
//!   caller's bytes, its encoded digest and then a *tag*, opaque here. The
//!   leaf **is** the chunk — the engine's only copy of it — written once,
//!   though [`AggTree::retag`] may replace the tag (`delete_range` swaps a
//!   payload for its commitment). The records are contiguous from chunk 0
//!   and their count *is* the stream's length; nothing else stores it.
//!   They never decay, and a missing or undecodable one is
//!   [`IndexError::CorruptNode`] at level 0.
//! * `i/<stream>/<level><index>` — a **sealed** node: its k-th entry has
//!   landed, so its bytes are final. Written once, when it seals.
//!
//! **A node is one buffer**: its record's bytes — a `u32` entry count, then
//! the entries' encodings end to end — on the spine, in the cache and in a
//! store batch alike. A sealed node read from the store is checked once
//! (count, every entry's length prefix, one length for all where the digest
//! has one, no byte left over) and kept as the buffer the store handed
//! back; a query adds covered entries from it into the caller's accumulator
//! ([`HomDigest::add_encoded`]); the cache charges a node what it holds.
//! Only those store reads fill the cache, and the first builds it.
//!
//! Nodes that are not full yet — one per level, the *open right spine* —
//! live only in memory (the `frontier`). They are a pure function of the
//! level-0 records, and a resident tree holds nothing else of its history:
//! an append costs one leaf record and amortised `1/k + 1/k² + …` sealed
//! nodes, not a rewritten partial node per level.
//!
//! **Open is bounded.** [`AggTree::open`] takes the length `n` from
//! [`stored_chunk_count`] (O(log n) key probes, no value read) and rebuilds
//! each open node from what lies under it: the level-1 node from its
//! `n mod k` level-0 records; each higher one from the sums of its sealed
//! children (a sealed node's sum is the sum of its k entries) plus, as its
//! last entry, the sum of the open node one level down. That is at most
//! k−1 record reads per level — (k−1)·⌈log_k n⌉ + O(log n) probes,
//! following `n mod k^ℓ`, not `n`. A sealed child that [`AggTree::decay`]
//! deleted is re-derived from *its* children, down to the level-0 records:
//! the same code, at worst the reads of a full leaf replay.
//!
//! **Commit = one batch.** An append — one chunk or a run — hands its
//! level-0 records and the nodes it seals to the store as one
//! [`KvStore::write_batch`]: all of it or none of it, across failure and
//! crash. A failed append therefore left nothing behind, in the store or
//! in memory, and a retry is a first try.
//!
//! # Concurrency: shared readers, serialized writers
//!
//! Any number of threads may call [`AggTree::query`] concurrently with one
//! in-flight [`AggTree::append`]. Writers (`append`, `decay`) are
//! serialized by an internal mutex; readers never take it. A query
//! snapshots the published chunk count `len` once (an `Acquire` load) and
//! answers exactly for chunks `[0, len)`, resolving each node from the
//! frontier first, then the cache, then the store:
//!
//! * `append` works on a private copy of the frontier — shallow, but for
//!   the open nodes it touches, each copied once as a block. Its **commit
//!   point** comes after the store batch succeeded: it swaps the new
//!   frontier in wholesale, then publishes the new `len` with a `Release`
//!   store. A reader that observes `len == n` therefore finds every node
//!   covering chunks `< n`: sealed ones reached the store before the swap,
//!   open ones are in the frontier it sees.
//! * A reader whose `len` snapshot predates the commit may still be handed
//!   post-commit nodes (the new frontier, or a node the append sealed).
//!   It stays exact: every entry the append added or changed covers a
//!   chunk range reaching past the snapshot, and a query with `end ≤ n`
//!   never consumes such an entry whole — it skips it or recurses past it
//!   into children covering only chunks `< n`. Frontier nodes are
//!   replaced, never mutated in place: readers see whole nodes.
//! * Sealed nodes never change, so a reader may cache what it fetched —
//!   except across [`AggTree::decay`], which deletes sealed nodes: a
//!   seqlock-style generation (odd while a decay runs) stops a reader that
//!   raced it from re-caching a node the decay just dropped. A query
//!   drilling below a decayed level surfaces [`IndexError::Decayed`] — the
//!   documented decay contract, not corruption.

use crate::cache::LruCache;
use crate::digest::HomDigest;
use crate::keys;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use timecrypt_obs::counters::{self, Counter};
use timecrypt_obs::rank::{self, Ranked};
use timecrypt_store::{KvStore, StoreError, WriteOp};

/// Tree parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Fan-out k. The paper's evaluation instantiates 64-ary trees.
    pub arity: usize,
    /// LRU cache budget in bytes for the sealed nodes queries read from the
    /// store (split evenly across its lock segments, of which a small budget
    /// has one; built by the first read, so a tree never read holds none).
    /// Fig. 7's "small cache" variant uses 1 MB; the default is generous.
    pub cache_bytes: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            arity: 64,
            cache_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Index errors.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Store(StoreError),
    /// Stored node bytes failed to parse.
    CorruptNode { level: u8, index: u64 },
    /// The query drilled below a level that was aged out by
    /// [`AggTree::decay`]: the node is legitimately gone, and the region
    /// is only answerable at coarser granularity.
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
            IndexError::Decayed { level, index } => {
                write!(
                    f,
                    "index node at level {level} index {index} was aged out by decay; \
                     only coarser aggregates remain for this region"
                )
            }
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

/// One tree node: the bytes it is stored as (module docs, "A node is one
/// buffer"), a `u32` entry count, then the entries' encodings end to end.
struct Node {
    bytes: Vec<u8>,
    /// Where the last entry starts (`bytes.len()` while there is none).
    last: usize,
}

impl Clone for Node {
    /// A writer's private copy: one allocation, one `memcpy`, with room for
    /// one more entry like the last — all a single-chunk append adds.
    fn clone(&self) -> Self {
        let mut bytes = Vec::with_capacity(2 * self.bytes.len() - self.last);
        bytes.extend_from_slice(&self.bytes);
        let last = self.last;
        Node { bytes, last }
    }
}

impl Node {
    fn empty() -> Node {
        Node {
            bytes: vec![0; 4],
            last: 4,
        }
    }

    /// Takes stored bytes as a node of `count` entries, checking once what
    /// every later read relies on: the count, each entry's length prefix,
    /// one length for all where the digest has one, and no byte left over.
    fn checked<D: HomDigest>(bytes: Vec<u8>, count: usize) -> Option<Node> {
        if u32::from_le_bytes(*bytes.first_chunk()?) as usize != count {
            return None;
        }
        let (mut last, mut end) = (4, 4);
        for _ in 0..count {
            let len = D::encoded_len_at(bytes.get(end..)?)?;
            if D::FIXED_LEN && end > 4 && len != end - last {
                return None;
            }
            (last, end) = (end, end + len);
        }
        (end == bytes.len()).then_some(Node { bytes, last })
    }

    fn count(&self) -> usize {
        (self.bytes.first_chunk()).map_or(0, |count| u32::from_le_bytes(*count) as usize)
    }

    /// The entries' encodings, in slot order.
    fn entries<D: HomDigest>(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.bytes.get(4..).unwrap_or_default();
        std::iter::from_fn(move || {
            let entry;
            (entry, rest) = rest.split_at_checked(D::encoded_len_at(rest)?)?;
            Some(entry)
        })
    }

    /// The homomorphic sum of the entries; `None` for none.
    fn sum<D: HomDigest>(&self) -> Option<D> {
        let mut entries = self.entries::<D>();
        let mut sum = D::decode(entries.next()?)?.0;
        for entry in entries {
            sum.add_encoded(entry)?;
        }
        Some(sum)
    }

    /// Appends an entry; `None`, and the node as it was, for one of another
    /// length than the entries before it where [`checked`](Self::checked)
    /// would refuse that.
    fn push<D: HomDigest>(&mut self, entry: &D) -> Option<()> {
        let count = self.count() as u32;
        if D::FIXED_LEN && count > 0 && entry.encoded_len() != self.bytes.len() - self.last {
            return None;
        }
        self.last = self.bytes.len();
        entry.encode(&mut self.bytes);
        self.bytes[..4].copy_from_slice(&(count + 1).to_le_bytes());
        Some(())
    }
}

/// A node on its way to the store, with its position.
type Placed = ((u8, u64), Arc<Node>);

/// The open right spine: per level the one node that is not full yet, plus
/// the running total a new top level absorbs when the tree grows. Cloning
/// is shallow (nodes are `Arc`ed); a writer copies a node on first touch
/// ([`Arc::make_mut`], one buffer), so the shared frontier never sees half
/// an append.
#[derive(Clone)]
struct Spine<D> {
    /// `open[ℓ-1]` is `(index, node)` of the level-ℓ node still accepting
    /// entries; `None` when the last node of that level is full.
    open: Vec<Option<(u64, Arc<Node>)>>,
    /// Sum of every chunk pushed so far.
    total: Option<D>,
}

impl<D: HomDigest> Spine<D> {
    /// Ripples chunk `i`'s digest into the spine: a new level-1 entry, and
    /// per ancestor either one addition into the entry of the subtree the
    /// chunk extends — always the node's last — or, when the chunk starts a
    /// new subtree, a new entry. Levels are maintained up to the lowest one
    /// whose single node covers `[0, i]`. Nodes this chunk fills leave the
    /// spine through `sealed`. No I/O: the spine (and so every sealed node)
    /// is a pure function of the chunk digests pushed in order. `None` for
    /// a digest that cannot be added to the ones before it.
    fn push(&mut self, k: u64, i: u64, digest: D, sealed: &mut Vec<Placed>) -> Option<()> {
        let mut level = 1u8;
        let mut child = i; // index, one level down, of the subtree holding chunk i
        loop {
            let (index, slot) = (child / k, (child % k) as usize);
            if self.open.len() < level as usize {
                self.open.push(None);
            }
            let at = &mut self.open[level as usize - 1];
            let (open_index, node) = at.get_or_insert_with(|| (index, Arc::new(Node::empty())));
            debug_assert_eq!(*open_index, index, "spine out of step at level {level}");
            let node = Arc::make_mut(node);
            let count = node.count();
            if slot < count {
                debug_assert_eq!(slot + 1, count, "a chunk extends the last subtree");
                digest.add_to_encoded(&mut node.bytes, node.last)?;
            } else {
                if let (true, Some(total)) = (slot > count, &self.total) {
                    // Only a brand-new top level starts past slot 0: the
                    // subtree to its left was the whole tree until now.
                    node.push(total)?;
                }
                node.push(&digest)?;
            }
            let span = span_at(level, k);
            if (i + 1).is_multiple_of(span) {
                if let Some((index, node)) = at.take() {
                    sealed.push(((level, index), node));
                }
            }
            if index == 0 && i < span {
                break;
            }
            child = index;
            level += 1;
        }
        match &mut self.total {
            Some(total) => total.add_assign(&digest),
            None => self.total = Some(digest),
        }
        Some(())
    }
}

/// Runtime statistics (cache behaviour, sizes) for the benchmarks.
#[derive(Debug, Clone, Default)]
pub struct TreeStats {
    /// Index-node cache hits.
    pub cache_hits: u64,
    /// Index-node cache misses (KV fetches).
    pub cache_misses: u64,
    /// Bytes the cache charges for the nodes it holds: their stored lengths,
    /// within [`TreeConfig::cache_bytes`] unless a single node is larger.
    pub cache_used_bytes: usize,
    /// Total serialized bytes (key + value) of all index nodes: the sealed
    /// ones in the store plus the open spine held in memory.
    pub stored_bytes: usize,
    /// Number of index nodes, sealed and open.
    pub stored_nodes: usize,
}

/// The aggregation tree for one stream, generic over the digest
/// representation (HEAC/plaintext `Vec<u64>`, or a strawman ciphertext).
pub struct AggTree<D: HomDigest> {
    kv: Arc<dyn KvStore>,
    stream: u128,
    cfg: TreeConfig,
    /// Published chunk count. Readers snapshot it with `Acquire`;
    /// [`append`](Self::append) publishes with `Release` at its commit
    /// point, after every store write and the frontier swap.
    len: AtomicU64,
    /// Serializes the write path (`append`, `decay`). Queries never take
    /// it — see the module docs for why reads stay exact regardless.
    write: Ranked<{ rank::WRITER }, Mutex<()>>,
    /// The open right spine. Readers take it shared for one lookup; the
    /// writer takes it exclusively only to swap in the next spine at its
    /// commit point. Never held across a store call.
    frontier: Ranked<{ rank::FRONTIER }, RwLock<Spine<D>>>,
    /// Seqlock-style generation for the read-aside cache fill: odd while a
    /// `decay` is deleting nodes. A reader may cache node bytes it loaded
    /// from the store only if the generation was even before the load and
    /// is unchanged at fill time — otherwise it could resurrect a node the
    /// decay just deleted. (Appends need no guard: sealed bytes are final.)
    cache_gen: AtomicU64,
    cache: NodeCache,
}

/// Most lock segments in the node cache. Concurrent queries take node-cache
/// locks from many reader threads at once; splitting by node key keeps them
/// off one global mutex. Eight segments cover the practical parallelism (a
/// handful of concurrent readers).
const MAX_SEGMENTS: usize = 8;

/// Least budget worth a segment of its own. A segment evicts alone: one that
/// holds a single node (64-ary, 19-wide: 10 KB) drops its upper-level node
/// on every leaf fill, so a small budget stays whole behind one lock.
const MIN_SEGMENT_BYTES: usize = 64 * 1024;

/// The segmented node cache: an LRU per segment, each holding `Arc`ed nodes so
/// a cache hit hands back a reference-count bump. A node's weight is its
/// buffer's length: what it holds of the heap. Only a query's store read
/// fills it, and the first fill builds the segments.
#[derive(Default)]
struct NodeCache {
    budget_bytes: usize,
    built: OnceLock<Box<[Segment]>>,
    /// Lookups, counted here so that one before the first fill is a miss.
    hits: Counter,
    misses: Counter,
}

/// One segment: an independently locked LRU over `Arc`ed nodes.
type Segment = Ranked<{ rank::CACHE }, Mutex<LruCache<(u8, u64), Arc<Node>>>>;

impl NodeCache {
    fn new(budget_bytes: usize) -> Self {
        NodeCache {
            budget_bytes,
            ..NodeCache::default()
        }
    }

    /// The segments, built by the first call.
    fn segments(&self) -> &[Segment] {
        self.built.get_or_init(|| {
            let segments = (self.budget_bytes / MIN_SEGMENT_BYTES).clamp(1, MAX_SEGMENTS);
            // Rounded down: the segments together never hold more than the budget.
            let segment = || Ranked::new(Mutex::new(LruCache::new(self.budget_bytes / segments)));
            (0..segments).map(|_| segment()).collect()
        })
    }

    fn segment(&self, key: &(u8, u64)) -> &Segment {
        // Consecutive node indexes (the common locality pattern) land on
        // different segments; mixing the level in (un-shifted — segment
        // selection keeps only the low bits) keeps a node and its parent
        // at the same index from colliding systematically.
        let (h, segments) = (key.1 ^ (key.0 as u64), self.segments());
        &segments[(h % segments.len() as u64) as usize]
    }

    fn get(&self, key: &(u8, u64)) -> Option<Arc<Node>> {
        let built = self.built.get();
        let node = built.and_then(|_| self.segment(key).lock(Mutex::lock).get(key).cloned());
        let (tree, process) = match node {
            Some(_) => (&self.hits, &counters::INDEX_NODE_CACHE_HITS),
            None => (&self.misses, &counters::INDEX_NODE_CACHE_MISSES),
        };
        tree.inc();
        process.inc();
        node
    }

    fn remove(&self, key: &(u8, u64)) {
        if self.built.get().is_some() {
            self.segment(key).lock(Mutex::lock).remove(key);
        }
    }

    /// (hits, misses, bytes charged across segments).
    fn stats(&self) -> (u64, u64, usize) {
        let segments = self.built.get().into_iter().flatten();
        let used = segments.map(|s| s.lock(Mutex::lock).used_bytes()).sum();
        (self.hits.get(), self.misses.get(), used)
    }
}

/// RAII end-bump for `cache_gen`: the odd→even transition happens even
/// when `decay` errors out mid-flight (`?`), so a failed decay can't leave
/// the generation odd for good (readers would stop caching).
struct GenGuard<'a> {
    /// `cache_gen`, bumped with `AcqRel`: the even value it publishes
    /// follows the decay's deletes.
    gen: &'a AtomicU64,
}

impl Drop for GenGuard<'_> {
    fn drop(&mut self) {
        self.gen.fetch_add(1, Ordering::AcqRel);
    }
}

/// The chunk count persisted for `stream` — the number of its level-0
/// records, found by O(log n) exact-key probes that read no value —
/// without building a tree handle. Exactly the length a fresh
/// [`AggTree::open`] would recover: the cheap answer for callers that need
/// a cold stream's length without hydrating it (stream directories,
/// live-record staleness checks).
pub fn stored_chunk_count(kv: &dyn KvStore, stream: u128) -> Result<u64, IndexError> {
    // Contiguous from 0, so at least `n` leaves iff leaf `n - 1` exists; its
    // exact key as a prefix probes for it. `lo` are present, `hi` too many.
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

/// Chunk `index`'s level-0 record, whole, without a tree handle (raw reads
/// do not hydrate a stream). Missing below the stream's length, it is
/// `CorruptNode` at level 0: batches are atomic, a gap is no crash state.
pub fn leaf_record(kv: &dyn KvStore, stream: u128, index: u64) -> Result<Vec<u8>, IndexError> {
    kv.get(&keys::leaf(stream, index))?
        .ok_or(IndexError::CorruptNode { level: 0, index })
}

impl<D: HomDigest> AggTree<D> {
    /// Opens (or creates) the tree for `stream` on `kv`: the chunk count
    /// from [`stored_chunk_count`], the open spine from at most k−1 records
    /// per level (module docs, "Open is bounded").
    pub fn open(kv: Arc<dyn KvStore>, stream: u128, cfg: TreeConfig) -> Result<Self, IndexError> {
        assert!(cfg.arity >= 2, "arity must be at least 2");
        let len = stored_chunk_count(kv.as_ref(), stream)?;
        let cache = NodeCache::new(cfg.cache_bytes);
        let mut tree = AggTree {
            kv,
            stream,
            cfg,
            len: AtomicU64::new(len),
            write: Ranked::new(Mutex::new(())),
            frontier: Ranked::new(RwLock::new(Spine {
                open: Vec::new(),
                total: None,
            })),
            cache_gen: AtomicU64::new(0),
            cache,
        };
        tree.frontier = Ranked::new(RwLock::new(tree.stored_spine(len)?));
        Ok(tree)
    }

    /// The spine [`Spine::push`]ing chunks `0..n` leaves behind, read back
    /// from the store bottom-up: per level, the open node's entries are its
    /// sealed children's sums and then — unless the level below ends on a
    /// node boundary — the sum of the open node below.
    fn stored_spine(&self, n: u64) -> Result<Spine<D>, IndexError> {
        let k = self.cfg.arity as u64;
        let (mut open, mut total) = (Vec::new(), None);
        // Levels up to the lowest one whose single node spans `[0, n)`.
        let mut span = 0;
        while span < n {
            let level = open.len() as u8 + 1;
            span = span_at(level, k);
            let index = n / span;
            let mut node = self.node_of(level, index, n / span_at(level - 1, k) - index * k)?;
            // `total` is still the sum of the open node one level down.
            if let Some(below) = total.take() {
                let pushed = node.push(&below);
                pushed.ok_or(IndexError::CorruptNode { level, index })?;
            }
            node.bytes.shrink_to_fit();
            total = node.sum();
            open.push((node.count() > 0).then(|| (index, Arc::new(node))));
        }
        // The top node covers every chunk; at n = k^levels it has just sealed.
        if total.is_none() && n > 0 {
            total = Some(self.subtree_sum(open.len() as u8, 0)?);
        }
        Ok(Spine { open, total })
    }

    /// The first `children` entries of node `(level, index)`: the sums of the
    /// complete subtrees under them.
    fn node_of(&self, level: u8, index: u64, children: u64) -> Result<Node, IndexError> {
        let mut node = Node::empty();
        let first = index * self.cfg.arity as u64;
        for child in first..first + children {
            let pushed = node.push(&self.subtree_sum(level - 1, child)?);
            pushed.ok_or(IndexError::CorruptNode { level, index })?;
        }
        Ok(node)
    }

    /// Sum of the chunks under the complete subtree `(level, index)`: the
    /// level-0 record's digest, or the sum of the sealed node's k entries —
    /// or, where `decay` deleted the node, of its children's subtrees.
    fn subtree_sum(&self, level: u8, index: u64) -> Result<D, IndexError> {
        let corrupt = IndexError::CorruptNode { level, index };
        if level == 0 {
            let record = leaf_record(self.kv.as_ref(), self.stream, index)?;
            return Ok(D::decode(&record).ok_or(corrupt)?.0);
        }
        let k = self.cfg.arity;
        let node = match self.kv.get(&keys::node(self.stream, level, index))? {
            Some(bytes) => Node::checked::<D>(bytes, k),
            None => Some(self.node_of(level, index, k as u64)?),
        };
        node.and_then(|node| node.sum()).ok_or(corrupt)
    }

    /// Number of chunks ingested (a consistent snapshot: every chunk
    /// counted here is fully resolvable through [`query`](Self::query)).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// True if no chunks have been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fan-out.
    pub fn arity(&self) -> usize {
        self.cfg.arity
    }

    /// Number of levels above the chunks currently in use.
    pub fn levels(&self) -> u8 {
        let mut levels = 0u8;
        let mut span = 1u64;
        while span < self.len().max(1) {
            span = span.saturating_mul(self.cfg.arity as u64);
            levels += 1;
        }
        levels.max(1)
    }

    /// Appends the next chunk's digest (chunk index = current `len`).
    /// Appends are serialized internally; concurrent queries proceed
    /// against the previous `len` snapshot and stay exact (module docs).
    pub fn append(&self, digest: D) -> Result<(), IndexError> {
        self.append_batch(std::slice::from_ref(&digest))
    }

    /// [`append_records`](Self::append_records) for chunks that are their
    /// digest alone; the store ends byte-identical to sequential
    /// [`append`](Self::append)s (`append_batch_matches_sequential_appends`).
    pub fn append_batch(&self, digests: &[D]) -> Result<(), IndexError> {
        let encode = |digest: &D| {
            let mut record = Vec::with_capacity(digest.encoded_len());
            digest.encode(&mut record);
            record
        };
        self.append_records(&digests.iter().map(encode).collect::<Vec<_>>())
    }

    /// Appends a run of consecutive chunks (starting at the current `len`)
    /// given as their level-0 records, `digest ‖ tag`: what enters the
    /// index is the digest decoded from the bytes stored. The records,
    /// borrowed, and every node the run fills commit as one store batch;
    /// `len` is published once — readers never observe a torn middle.
    ///
    /// A record that starts with no digest (`CorruptNode` at level 0) or a
    /// store failure leaves the tree and the store exactly as they were
    /// (see the module docs); the caller may simply retry.
    pub fn append_records(&self, records: &[impl AsRef<[u8]>]) -> Result<(), IndexError> {
        if records.is_empty() {
            return Ok(());
        }
        let _write = self.write.lock(Mutex::lock);
        // Relaxed: we hold `write`, the only mutator, so this is our own last
        // Release store.
        let base = self.len.load(Ordering::Relaxed);
        let mut spine = self.frontier.lock(RwLock::read).clone();
        let mut sealed = Vec::new();
        let mut leaf_keys = Vec::with_capacity(records.len());
        let k = self.cfg.arity as u64;
        for (index, record) in (base..).zip(records) {
            let corrupt = || IndexError::CorruptNode { level: 0, index };
            let (digest, _) = D::decode(record.as_ref()).ok_or_else(corrupt)?;
            let pushed = spine.push(k, index, digest, &mut sealed);
            pushed.ok_or_else(corrupt)?;
            leaf_keys.push(keys::leaf(self.stream, index));
        }
        // The open nodes this append holds alone are the copies it made:
        // they give back what a run grew them by, so a published node is
        // exact. The sealed ones go to the store, and no further.
        for (_, node) in spine.open.iter_mut().flatten() {
            if let Some(node) = Arc::get_mut(node) {
                node.bytes.shrink_to_fit();
            }
        }
        let node_keys: Vec<_> = sealed
            .iter()
            .map(|((level, index), _)| keys::node(self.stream, *level, *index))
            .collect();
        let leaves = leaf_keys.iter().zip(records);
        let leaves = leaves.map(|(key, record)| (&key[..], record.as_ref()));
        let nodes = node_keys.iter().zip(&sealed);
        let nodes = nodes.map(|(key, (_, node))| (&key[..], &node.bytes[..]));
        let puts = leaves
            .chain(nodes)
            .map(|(key, value)| WriteOp::Put { key, value });
        self.kv.write_batch(&puts.collect::<Vec<_>>())?;
        // Commit point: everything the new length promises is in the store.
        // The old spine is freed after the lock is released, at return.
        let _old = std::mem::replace(&mut **self.frontier.lock(RwLock::write), spine);
        // Publish last: a reader that observes the new length is
        // guaranteed (Release/Acquire) to see the swap above.
        self.len
            .store(base + records.len() as u64, Ordering::Release);
        Ok(())
    }

    /// Replaces, as one store batch, the tag of each chunk in `[lo, hi)`
    /// for which `tag`, given the chunk's index and whole record, returns a
    /// new one; the digest bytes stay, so nothing the index answers moves.
    /// Returns the records rewritten; none, or an error, writes nothing.
    pub fn retag(
        &self,
        lo: u64,
        hi: u64,
        mut tag: impl FnMut(u64, &[u8]) -> Result<Option<Vec<u8>>, IndexError>,
    ) -> Result<usize, IndexError> {
        let _write = self.write.lock(Mutex::lock);
        let mut rewritten = Vec::new();
        for index in lo..hi.min(self.len()) {
            let mut record = leaf_record(self.kv.as_ref(), self.stream, index)?;
            let corrupt = IndexError::CorruptNode { level: 0, index };
            let (_, digest_len) = D::decode(&record).ok_or(corrupt)?;
            if let Some(tag) = tag(index, &record)? {
                record.truncate(digest_len);
                record.extend_from_slice(&tag);
                rewritten.push((keys::leaf(self.stream, index), record));
            }
        }
        let puts = rewritten
            .iter()
            .map(|(key, value)| WriteOp::Put { key, value });
        self.kv.write_batch(&puts.collect::<Vec<_>>())?;
        Ok(rewritten.len())
    }

    /// Statistical range query over chunks `[start, end)`: the homomorphic
    /// sum of their digests. Runs against a single `len` snapshot taken at
    /// entry, so it is exact even while an append is in flight.
    pub fn query(&self, start: u64, end: u64) -> Result<D, IndexError> {
        let _span = timecrypt_obs::trace::stage("index.walk");
        let len = self.len();
        if start >= end || end > len {
            return Err(IndexError::BadRange { start, end, len });
        }
        let k = self.cfg.arity as u64;
        // Find the lowest level whose single node covers [start, end).
        let mut level = 1u8;
        while span_at(level, k) < end {
            level += 1;
        }
        let mut acc: Option<D> = None;
        self.query_node(level, 0, start, end, &mut acc)?;
        acc.ok_or(IndexError::BadRange { start, end, len })
    }

    /// Recursive combine: add fully-covered entries of `(level, index)`,
    /// from the node's buffer straight into `acc`; recurse into the (at
    /// most two) partially-covered children.
    fn query_node(
        &self,
        level: u8,
        index: u64,
        start: u64,
        end: u64,
        acc: &mut Option<D>,
    ) -> Result<(), IndexError> {
        let k = self.cfg.arity as u64;
        let child_span = span_at(level - 1, k);
        // A missing node on the query path means the region was aged out
        // by `decay` (the only code path that deletes nodes): report that
        // distinctly from unparseable bytes, which `load` maps to
        // `CorruptNode`.
        let node = self
            .load_node(level, index)?
            .ok_or(IndexError::Decayed { level, index })?;
        let base = index * span_at(level, k);
        // At most two children partially overlap a contiguous range: the
        // slot containing `start` and the slot containing `end`.
        let mut partial: [Option<u64>; 2] = [None, None];
        for (slot, entry) in node.entries::<D>().enumerate() {
            let c_lo = base + slot as u64 * child_span;
            let c_hi = c_lo + child_span;
            if c_hi <= start {
                continue;
            }
            if c_lo >= end {
                break;
            }
            if start <= c_lo && c_hi <= end {
                let added = match acc {
                    Some(acc) => acc.add_encoded(entry),
                    None => D::decode(entry).map(|(first, _)| *acc = Some(first)),
                };
                added.ok_or(IndexError::CorruptNode { level, index })?;
            } else {
                // Partial overlap: drill down. At level 1 children are
                // chunks, which can't partially overlap a chunk-aligned
                // range, so level > 1 here.
                debug_assert!(level > 1, "partial overlap at chunk level");
                let child = index * k + slot as u64;
                if partial[0].is_none() {
                    partial[0] = Some(child);
                } else {
                    partial[1] = Some(child);
                }
            }
        }
        match partial {
            [None, None] => Ok(()),
            // The fill loop above can only populate slot 1 after slot 0,
            // so `[None, Some(_)]` never occurs — but a lone child is a
            // lone child either way, so handle both shapes identically
            // rather than panic on the impossible one.
            [Some(child), None] | [None, Some(child)] => {
                self.query_node(level - 1, child, start, end, acc)
            }
            [Some(left), Some(right)] => {
                self.query_node(level - 1, left, start, end, acc)?;
                self.query_node(level - 1, right, start, end, acc)
            }
        }
    }

    /// Data decay (§4.5): drops all *fully covered* index nodes at levels
    /// `< keep_level` for chunks before `before_chunk`, retaining only
    /// coarser aggregates for the aged-out region, in one store commit.
    /// Returns nodes removed. Serialized with `append`; a concurrent query
    /// drilling below the decayed level surfaces [`IndexError::Decayed`].
    pub fn decay(&self, before_chunk: u64, keep_level: u8) -> Result<usize, IndexError> {
        let _write = self.write.lock(Mutex::lock);
        // Odd generation across the deletes: a reader that fetched a node
        // just before its deletion must not re-insert it into the cache.
        self.cache_gen.fetch_add(1, Ordering::AcqRel);
        let _gen = GenGuard {
            gen: &self.cache_gen,
        };
        let k = self.cfg.arity as u64;
        // Only published history decays, and never the current root level.
        let before_chunk = before_chunk.min(self.len());
        let keep_level = keep_level.min(self.levels());
        let mut doomed = Vec::new();
        for level in 1..keep_level {
            // Node n at `level` covers [n*span, (n+1)*span): fully before
            // the cutoff iff (n+1)*span <= before_chunk.
            let full_nodes = before_chunk / span_at(level, k);
            let stored = self
                .kv
                .scan_keys(&keys::node(self.stream, level, 0)[..20])?;
            doomed.extend(stored.into_iter().filter_map(|key| {
                let n = u64::from_be_bytes(*key.last_chunk()?);
                (n < full_nodes).then_some(((level, n), key))
            }));
        }
        // One commit, all or nothing, like an append or a stream delete.
        let deletes: Vec<_> = doomed
            .iter()
            .map(|(_, key)| WriteOp::Delete { key })
            .collect();
        self.kv.write_batch(&deletes)?;
        // One segment lock per removal: readers wait one, not the whole decay.
        doomed.iter().for_each(|(node, _)| self.cache.remove(node));
        Ok(doomed.len())
    }

    /// Cache and size statistics.
    pub fn stats(&self) -> Result<TreeStats, IndexError> {
        let (hits, misses, used) = self.cache.stats();
        let sealed = self.kv.scan_prefix(&keys::head(keys::NODE, self.stream))?;
        let spine = self.frontier.lock(RwLock::read);
        let open = spine.open.iter().flatten();
        let key_len = keys::node(self.stream, 0, 0).len();
        let open_bytes: usize = open.clone().map(|(_, n)| key_len + n.bytes.len()).sum();
        Ok(TreeStats {
            cache_hits: hits,
            cache_misses: misses,
            cache_used_bytes: used,
            stored_bytes: sealed.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>() + open_bytes,
            stored_nodes: sealed.len() + open.count(),
        })
    }

    /// The open node at `(level, index)`, if that position is on the spine.
    fn open_node(&self, level: u8, index: u64) -> Option<Arc<Node>> {
        let spine = self.frontier.lock(RwLock::read);
        match spine.open.get(level as usize - 1) {
            Some(Some((open, node))) if *open == index => Some(node.clone()),
            _ => None,
        }
    }

    fn load_node(&self, level: u8, index: u64) -> Result<Option<Arc<Node>>, IndexError> {
        let key = (level, index);
        // A spine node is no cache lookup: `get` counts sealed ones alone.
        let cached = || self.cache.get(&key);
        if let Some(n) = self.open_node(level, index).or_else(cached) {
            return Ok(Some(n));
        }
        let gen_before = self.cache_gen.load(Ordering::Acquire);
        match self.kv.get(&keys::node(self.stream, level, index))? {
            Some(bytes) => {
                // Only sealed nodes are stored: the record read is the node.
                let node = Node::checked::<D>(bytes, self.cfg.arity)
                    .ok_or(IndexError::CorruptNode { level, index })?;
                let node = Arc::new(node);
                // Read-aside fill — the cache's only one, the first building
                // it — guarded by the seqlock generation: cache only if no
                // decay overlapped the KV read, else the node may already
                // be deleted — fine to return, not to cache.
                if gen_before.is_multiple_of(2) {
                    let mut cache = self.cache.segment(&key).lock(Mutex::lock);
                    if self.cache_gen.load(Ordering::Acquire) == gen_before {
                        cache.put(key, node.clone(), node.bytes.len());
                    }
                }
                Ok(Some(node))
            }
            None => Ok(None),
        }
    }
}

/// Chunks covered by one node at `level` (k^level).
fn span_at(level: u8, k: u64) -> u64 {
    k.saturating_pow(level as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_store::MemKv;

    fn tree(arity: usize) -> AggTree<Vec<u64>> {
        let kv = Arc::new(MemKv::new());
        AggTree::open(
            kv,
            1,
            TreeConfig {
                arity,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap()
    }

    fn fill(t: &AggTree<Vec<u64>>, n: u64) {
        for i in 0..n {
            t.append(vec![i, 1]).unwrap();
        }
    }

    fn naive_sum(a: u64, b: u64) -> Vec<u64> {
        vec![(a..b).sum::<u64>(), b - a]
    }

    #[test]
    fn single_chunk() {
        let t = tree(4);
        t.append(vec![42, 1]).unwrap();
        assert_eq!(t.query(0, 1).unwrap(), vec![42, 1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn query_matches_naive_fold_exhaustive() {
        // Every (a, b) range over 100 chunks, small arity to exercise many
        // levels and both partial edges.
        let t = tree(4);
        fill(&t, 100);
        for a in 0..100u64 {
            for b in (a + 1)..=100u64 {
                assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b})");
            }
        }
    }

    #[test]
    fn arity_64_matches_naive() {
        let t = tree(64);
        fill(&t, 1000);
        for (a, b) in [
            (0u64, 1000u64),
            (0, 64),
            (63, 65),
            (64, 128),
            (1, 999),
            (500, 501),
            (0, 1),
        ] {
            assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b})");
        }
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = tree(4);
        fill(&t, 10);
        assert!(t.query(5, 5).is_err());
        assert!(t.query(6, 5).is_err());
        assert!(t.query(0, 11).is_err());
        assert!(t.query(10, 11).is_err());
    }

    #[test]
    fn reopen_recovers_length_and_data() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        {
            let t: AggTree<Vec<u64>> = AggTree::open(
                kv.clone(),
                9,
                TreeConfig {
                    arity: 8,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            for i in 0..77u64 {
                t.append(vec![i]).unwrap();
            }
        }
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv,
            9,
            TreeConfig {
                arity: 8,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        assert_eq!(t.len(), 77);
        assert_eq!(t.query(0, 77).unwrap(), vec![(0..77).sum::<u64>()]);
        assert_eq!(t.query(10, 20).unwrap(), vec![(10..20).sum::<u64>()]);
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
    fn tiny_cache_still_correct() {
        // A 200-byte cache can hold at most a node or two: every query
        // hammers the KV but answers stay exact (Fig. 7 small-cache shape).
        let kv = Arc::new(MemKv::new());
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv,
            3,
            TreeConfig {
                arity: 4,
                cache_bytes: 200,
            },
        )
        .unwrap();
        fill(&t, 200);
        for (a, b) in [(0u64, 200u64), (17, 113), (199, 200)] {
            assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b));
        }
        let stats = t.stats().unwrap();
        assert!(stats.cache_misses > 0, "tiny cache must miss");
    }

    #[test]
    fn a_small_budget_is_one_cache_not_eight_slots() {
        // 64 KiB over 10 KB nodes (64-ary, 19-wide): split eight ways, no
        // segment would hold two nodes, and the level-2 node every query of
        // the sweep passes through would be evicted by each leaf node that
        // lands in its segment and read again.
        let kv = Arc::new(MemKv::new());
        let cfg = TreeConfig {
            arity: 64,
            cache_bytes: 64 << 10,
        };
        let digests: Vec<Vec<u64>> = (0..4096 + 64).map(|c| vec![c; 19]).collect();
        let filled: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 1, cfg.clone()).unwrap();
        filled.append_batch(&digests).unwrap();
        let t: AggTree<Vec<u64>> = AggTree::open(kv, 1, cfg).unwrap();
        // (Leaf node 0 is the one the walk enters at, not through level 2.)
        for leaf in 1..64 {
            let (lo, hi) = (leaf * 64 + 1, (leaf + 1) * 64);
            assert_eq!(t.query(lo, hi).unwrap()[0], (lo..hi).sum::<u64>());
            assert!(t.cache.get(&(2, 0)).is_some(), "after leaf node {leaf}");
        }
        let stats = t.stats().unwrap();
        assert_eq!(
            stats.cache_misses,
            1 + 63,
            "node (2, 0) once, each leaf node once"
        );
        assert!(stats.cache_used_bytes <= 64 << 10, "{stats:?}");
        assert_eq!(stats.cache_used_bytes, 6 * 9988);
        // A budget with room for them is still segmented.
        assert_eq!(NodeCache::new(1 << 20).segments().len(), MAX_SEGMENTS);
        assert_eq!(NodeCache::new(200 << 10).segments().len(), 3);
    }

    #[test]
    fn a_sealed_node_is_a_cache_lookup_a_spine_node_is_not() {
        // Arity 4, 10 chunks: level-1 nodes 0 and 1 sealed, 2 open.
        let t = tree(4);
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
        assert_eq!(t.query(8, 10).unwrap(), naive_sum(8, 10));
        assert_eq!(lookups(), (0, 0), "the open spine answered");
        assert_eq!(
            t.stats().unwrap().cache_used_bytes,
            0,
            "appends fill nothing"
        );
        for _ in 0..2 {
            assert_eq!(t.query(1, 4).unwrap(), naive_sum(1, 4));
        }
        assert_eq!(lookups(), (1, 1), "read from the store, then cached");
        // Process-wide, beside other tests' lookups.
        assert!(hits.get() > process.0 && misses.get() > process.1);
    }

    #[test]
    fn a_digest_with_the_default_methods_builds_the_same_tree() {
        // What a strawman ciphertext plugs in: nothing but the required
        // methods. Same store bytes, same answers, reopened too.
        use crate::digest::tests::ByDefault;
        let (kv, plain_kv) = (Arc::new(MemKv::new()), Arc::new(MemKv::new()));
        let cfg = TreeConfig {
            arity: 4,
            cache_bytes: 1 << 20,
        };
        let plain = open4(plain_kv.clone());
        for n in 0..70u64 {
            let t: AggTree<ByDefault> = AggTree::open(kv.clone(), 1, cfg.clone()).unwrap();
            for (a, b) in [(0, n), (n / 3, n), (n / 2, n / 2 + 1)] {
                let expected = plain.query(a, b).ok();
                assert_eq!(
                    t.query(a, b).ok().map(|d| d.0),
                    expected,
                    "[{a},{b}) of {n}"
                );
            }
            t.append(ByDefault(vec![n, 1])).unwrap();
            plain.append(vec![n, 1]).unwrap();
            assert_eq!(dump(kv.as_ref()), dump(plain_kv.as_ref()), "length {n}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every node the tree builds — sealed in the store, open on the
        /// spine — passes the check stored bytes get, which finds the last
        /// entry where the writer left it and hands the same bytes back.
        #[test]
        fn every_node_built_passes_the_check_unchanged(
            arity in 2usize..=64,
            width in 1usize..=32,
            fill in 0u64..=4200,
        ) {
            let chunks = (fill % (arity * arity + arity + 1) as u64).max(1);
            let kv = Arc::new(MemKv::new());
            let cfg = TreeConfig { arity, cache_bytes: 1 << 20 };
            let t: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 1, cfg).unwrap();
            let digests: Vec<Vec<u64>> = (0..chunks).map(|c| vec![c; width]).collect();
            t.append_batch(&digests).unwrap();
            let sealed = kv.scan_prefix(&keys::head(keys::NODE, 1)).unwrap();
            prop_assert_eq!(sealed.len() as u64, chunks / arity as u64 + chunks / (arity * arity) as u64);
            for (_, bytes) in sealed {
                let node = Node::checked::<Vec<u64>>(bytes.clone(), arity);
                prop_assert_eq!(node.map(|n| n.bytes), Some(bytes));
            }
            for (_, open) in t.frontier.lock(RwLock::read).open.iter().flatten() {
                let node = Node::checked::<Vec<u64>>(open.bytes.clone(), open.count()).unwrap();
                prop_assert_eq!((&node.bytes, node.last), (&open.bytes, open.last));
                prop_assert_eq!(open.bytes.capacity(), open.bytes.len());
            }
        }
    }

    #[test]
    fn root_query_is_cheap_on_power_of_k() {
        // Aggregating the entire index = reading the root (Fig. 5's right
        // edge). We can't measure time here, but we can check the query
        // works exactly at the k^ℓ boundaries.
        let t = tree(4);
        fill(&t, 256); // 4^4
        assert_eq!(t.query(0, 256).unwrap(), naive_sum(0, 256));
        assert_eq!(t.query(0, 64).unwrap(), naive_sum(0, 64));
    }

    #[test]
    fn decay_drops_fine_nodes_keeps_coarse() {
        let t = tree(4);
        fill(&t, 256);
        let before = t.stats().unwrap().stored_nodes;
        // Age out everything below level 2 for the first 128 chunks.
        let removed = t.decay(128, 2).unwrap();
        assert!(removed > 0);
        let after = t.stats().unwrap().stored_nodes;
        assert_eq!(before - removed, after);
        // Coarse queries over the decayed region still work (level-2 nodes
        // cover 16 chunks each).
        assert_eq!(t.query(0, 256).unwrap(), naive_sum(0, 256));
        assert_eq!(t.query(0, 16).unwrap(), naive_sum(0, 16));
        // Recent data still queryable at full granularity.
        assert_eq!(t.query(200, 201).unwrap(), naive_sum(200, 201));
    }

    #[test]
    fn decayed_tree_reopens_and_keeps_growing() {
        // Recovery reads leaves, never the (possibly decayed) sealed
        // children: decay everything decayable below the root level,
        // reopen, append across the next seal and growth boundaries.
        let kv = Arc::new(MemKv::new());
        let t = open4(kv.clone());
        fill(&t, 250);
        assert!(t.decay(250, 4).unwrap() > 0);
        drop(t);
        let t = open4(kv);
        assert_eq!(t.query(0, 250).unwrap(), naive_sum(0, 250));
        assert_eq!(t.query(192, 250).unwrap(), naive_sum(192, 250));
        assert!(matches!(t.query(0, 1), Err(IndexError::Decayed { .. })));
        for i in 250..300 {
            t.append(vec![i, 1]).unwrap();
        }
        assert_eq!(t.query(0, 300).unwrap(), naive_sum(0, 300));
        assert_eq!(t.query(249, 299).unwrap(), naive_sum(249, 299));
        assert!(matches!(t.query(0, 1), Err(IndexError::Decayed { .. })));
    }

    #[test]
    fn stats_accounting() {
        let t = tree(64);
        fill(&t, 500);
        let s = t.stats().unwrap();
        assert!(
            s.stored_nodes >= 8,
            "500 chunks / 64-ary = 8 level-1 nodes + root"
        );
        assert!(s.stored_bytes > 500 * 16, "leaf digests dominate");
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
    fn a_decay_whose_commit_fails_removes_nothing() {
        // Every level's deletes are one batch: a store fault leaves every
        // node stored and cached, and the retry removes what an unfaulted
        // decay does, in that one write.
        let kv = Arc::new(FailNthPut::default());
        let t = open4(kv.clone());
        fill(&t, 250);
        let nodes = kv.scan_keys(&keys::head(keys::NODE, 1)).unwrap().len();
        kv.arm(1);
        assert!(matches!(t.decay(128, 3), Err(IndexError::Store(_))));
        assert_eq!(
            kv.scan_keys(&keys::head(keys::NODE, 1)).unwrap().len(),
            nodes
        );
        assert_exhaustive(&t, 250);
        let writes = kv.writes.load(Ordering::Relaxed);
        // 32 level-1 nodes and 8 level-2 nodes lie wholly before chunk 128.
        assert_eq!(t.decay(128, 3).unwrap(), 40);
        assert_eq!(kv.writes.load(Ordering::Relaxed), writes + 1);
        assert_eq!(
            kv.scan_keys(&keys::head(keys::NODE, 1)).unwrap().len(),
            nodes - 40
        );
        assert!(matches!(t.query(0, 1), Err(IndexError::Decayed { .. })));
        assert_eq!(t.query(0, 250).unwrap(), naive_sum(0, 250));
    }

    fn open4(kv: Arc<dyn KvStore>) -> AggTree<Vec<u64>> {
        let cfg = TreeConfig {
            arity: 4,
            cache_bytes: 1 << 20,
        };
        AggTree::open(kv, 1, cfg).unwrap()
    }

    /// The open spine as `(index, encoded node)` per level.
    fn spine_bytes(t: &AggTree<Vec<u64>>) -> Vec<Option<(u64, Vec<u8>)>> {
        let open = t.frontier.lock(RwLock::read).open.clone();
        open.into_iter()
            .map(|o| o.map(|(index, node)| (index, node.bytes.clone())))
            .collect()
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

    /// Chunk `i`'s level-0 record as a caller with a tag would write it:
    /// the digest `[i, 1]`, then `i mod 5` bytes of its own.
    fn tagged(i: u64) -> Vec<u8> {
        let mut record = Vec::new();
        vec![i, 1].encode(&mut record);
        record.extend_from_slice(&i.to_be_bytes()[..(i % 5) as usize]);
        record
    }

    #[test]
    fn failed_append_changes_nothing_and_retry_converges() {
        // Arity 4 with 3 chunks in; the run adds chunks 3..=16: it seals
        // four level-1 nodes and level-2 node 0, and grows levels 2 and 3.
        // 14 leaves — the caller's bytes, tags and all — and 5 sealed
        // nodes: one batch.
        let clean_kv = Arc::new(MemKv::new());
        let clean = open4(clean_kv.clone());
        for i in 0..17 {
            clean.append_records(&[tagged(i)]).unwrap();
        }
        let run: Vec<Vec<u8>> = (3..17).map(tagged).collect();

        let kv = Arc::new(FailNthPut::default());
        let t = open4(kv.clone());
        t.append_records(&[tagged(0), tagged(1), tagged(2)])
            .unwrap();
        let before = (dump(kv.as_ref()), spine_bytes(&t));
        kv.arm(1);
        match t.append_records(&run) {
            Err(IndexError::Store(_)) => {}
            other => panic!("expected the injected failure, got {other:?}"),
        }
        // So does a run holding a record that starts with no digest, which
        // never reaches the store.
        let writes = kv.writes.load(Ordering::Relaxed);
        let mut bad = run.clone();
        bad[9].truncate(11);
        assert!(matches!(
            t.append_records(&bad),
            Err(IndexError::CorruptNode {
                level: 0,
                index: 12
            })
        ));
        assert_eq!(kv.writes.load(Ordering::Relaxed), writes);
        // Nothing stored, nothing published, the frontier untouched, and a
        // fresh handle recovers the same tree.
        assert_exhaustive(&t, 3);
        assert_eq!((dump(kv.as_ref()), spine_bytes(&t)), before);
        let reopened = open4(kv.clone());
        assert_exhaustive(&reopened, 3);
        assert_eq!(spine_bytes(&reopened), before.1);
        t.append_records(&run).unwrap();
        assert_eq!(kv.writes.load(Ordering::Relaxed) - writes, 1, "one commit");
        assert_exhaustive(&t, 17);
        assert_eq!(dump(kv.as_ref()), dump(clean_kv.as_ref()));
        assert_eq!(dump(kv.as_ref()).len(), 17 + 4 + 1);
        for i in 0..17 {
            assert_eq!(leaf_record(kv.as_ref(), 1, i).unwrap(), tagged(i));
        }
    }

    #[test]
    fn retag_rewrites_tags_in_one_batch_and_keeps_the_digests() {
        let kv = Arc::new(FailNthPut::default());
        let t = open4(kv.clone());
        t.append_records(&(0..11).map(tagged).collect::<Vec<_>>())
            .unwrap();
        let spine = spine_bytes(&t);
        // Chunks 2..9 but the odd ones; the closure sees whole records.
        let stub = |i: u64, record: &[u8]| {
            assert_eq!(record, tagged(i));
            Ok(i.is_multiple_of(2).then(|| vec![0xEE; 3]))
        };
        let before = dump(kv.as_ref());
        kv.arm(1);
        assert!(matches!(t.retag(2, 9, stub), Err(IndexError::Store(_))));
        assert_eq!(dump(kv.as_ref()), before, "all of the batch or none");
        let writes = kv.writes.load(Ordering::Relaxed);
        assert_eq!(t.retag(2, 9, stub).unwrap(), 4);
        assert_eq!(kv.writes.load(Ordering::Relaxed) - writes, 1, "one commit");
        for i in 0..11 {
            let mut expected = tagged(i);
            if (2..9).contains(&i) && i.is_multiple_of(2) {
                expected.truncate(20);
                expected.extend_from_slice(&[0xEE; 3]);
            }
            assert_eq!(leaf_record(kv.as_ref(), 1, i).unwrap(), expected);
        }
        // Nothing the index answers moved, live or reopened.
        assert_exhaustive(&t, 11);
        assert_eq!(spine_bytes(&open4(kv.clone())), spine);
        // No new tag, nothing written; the range is clamped to the length.
        let before = dump(kv.as_ref());
        assert_eq!(t.retag(0, 99, |_, _| Ok(None)).unwrap(), 0);
        assert_eq!(dump(kv.as_ref()), before);
        assert_eq!(t.retag(9, 99, |_, _| Ok(Some(Vec::new()))).unwrap(), 2);
        assert_eq!(leaf_record(kv.as_ref(), 1, 10).unwrap(), tagged(10)[..20]);
    }

    /// The bytes the parent commit stored for a full node: k entries, each
    /// the sum of its child subtree's chunk digests.
    fn full_node_bytes(level: u8, index: u64, k: u64) -> Vec<u8> {
        let child = span_at(level - 1, k);
        let lo = index * span_at(level, k);
        let mut bytes = (k as u32).to_le_bytes().to_vec();
        for c in 0..k {
            naive_sum(lo + c * child, lo + (c + 1) * child).encode(&mut bytes);
        }
        bytes
    }

    #[test]
    fn reopen_at_every_length_matches_a_never_closed_tree() {
        // k² + k chunks through a handle that is dropped and reopened
        // before every append, against one that never closes.
        let (kv, live_kv) = (Arc::new(MemKv::new()), Arc::new(MemKv::new()));
        let live = open4(live_kv.clone());
        for n in 0..=20u64 {
            let t = open4(kv.clone());
            assert_exhaustive(&t, n);
            let (a, b) = (t.stats().unwrap(), live.stats().unwrap());
            assert_eq!(
                (a.stored_nodes, a.stored_bytes),
                (b.stored_nodes, b.stored_bytes)
            );
            assert_eq!(dump(kv.as_ref()), dump(live_kv.as_ref()), "length {n}");
            // Exactly the full nodes are stored, with the bytes their
            // definition gives (what the parent commit wrote for them).
            let stored: Vec<_> = kv.scan_prefix(&keys::head(keys::NODE, 1)).unwrap();
            let mut full = 0;
            for level in 1..=t.levels() {
                for index in 0..n / span_at(level, 4) {
                    let bytes = kv.get(&keys::node(1, level, index)).unwrap();
                    assert_eq!(bytes, Some(full_node_bytes(level, index, 4)));
                    full += 1;
                }
            }
            assert_eq!(stored.len(), full, "length {n}: a partial node was stored");
            t.append(vec![n, 1]).unwrap();
            live.append(vec![n, 1]).unwrap();
        }
    }

    /// Batches are atomic, so a missing or undecodable level-0 record is
    /// corruption, never a crash state, and it is refused where it is
    /// read. Open reads only the tail records of the open level-1 node: a
    /// gap there fails open. A gap further back leaves open (and every
    /// query the sealed nodes answer) untouched and fails
    /// [`leaf_record`] — the read the engine's ledger catch-up and raw
    /// reads make — at that index, or the digest decode that follows it.
    #[test]
    fn a_gap_in_the_leaves_is_corrupt_node_where_it_is_read() {
        // 11 chunks at arity 4: open reads leaves 8..11 and sealed nodes
        // (1, 0) and (1, 1); none of the deleted leaves is a length probe.
        let kv = Arc::new(MemKv::new());
        fill(&open4(kv.clone()), 11);
        let open = |kv: &Arc<MemKv>| {
            let cfg = TreeConfig::default();
            AggTree::<Vec<u64>>::open(kv.clone(), 1, TreeConfig { arity: 4, ..cfg })
        };
        let leaf8 = kv.get(&keys::leaf(1, 8)).unwrap().unwrap();
        kv.delete(&keys::leaf(1, 8)).unwrap();
        assert_eq!(stored_chunk_count(kv.as_ref(), 1).unwrap(), 11);
        assert!(matches!(
            open(&kv),
            Err(IndexError::CorruptNode { level: 0, index: 8 })
        ));
        // A tail record whose bytes do not decode is refused the same way.
        kv.put(&keys::leaf(1, 8), &[1, 2, 3]).unwrap();
        assert!(matches!(
            open(&kv),
            Err(IndexError::CorruptNode { level: 0, index: 8 })
        ));
        kv.put(&keys::leaf(1, 8), &leaf8).unwrap();
        kv.delete(&keys::leaf(1, 5)).unwrap();
        let t = open(&kv).unwrap();
        assert_exhaustive(&t, 11);
        let mut leaf4 = Vec::new();
        vec![4u64, 1].encode(&mut leaf4);
        assert_eq!(leaf_record(kv.as_ref(), 1, 4).unwrap(), leaf4);
        assert!(matches!(
            leaf_record(kv.as_ref(), 1, 5),
            Err(IndexError::CorruptNode { level: 0, index: 5 })
        ));
        kv.put(&keys::leaf(1, 5), &[1, 2, 3]).unwrap();
        assert!(matches!(
            t.retag(5, 6, |_, _| Ok(None)),
            Err(IndexError::CorruptNode { level: 0, index: 5 })
        ));
    }

    #[test]
    fn reopen_at_every_length_after_decay_matches_a_never_closed_tree() {
        // Every length up to k³ + 5, every decay depth: the handle that
        // decayed and stayed open against one opened afterwards on the
        // same store — which finds sealed children missing at every level
        // below `keep_level` and must re-derive them from what is left.
        let results = |t: &AggTree<Vec<u64>>, n: u64| -> Vec<Result<Vec<u64>, String>> {
            (0..n)
                .flat_map(|a| (a + 1..=n).map(move |b| (a, b)))
                .map(|(a, b)| t.query(a, b).map_err(|e| e.to_string()))
                .collect()
        };
        for n in 1..=4u64.pow(3) + 5 {
            for keep_level in 1..=5 {
                let kv = Arc::new(MemKv::new());
                let live = open4(kv.clone());
                fill(&live, n);
                let removed = live.decay(n, keep_level).unwrap();
                assert_eq!(removed > 0, keep_level > 1 && n >= 4 && live.levels() > 1);
                let reopened = open4(kv);
                let at = format!("length {n}, keep_level {keep_level}");
                assert_eq!(reopened.len(), n, "{at}");
                assert_eq!(spine_bytes(&reopened), spine_bytes(&live), "{at}");
                // One frontier at a time: two are two locks of one rank.
                let total = reopened.frontier.lock(RwLock::read).total.clone();
                assert_eq!(total, live.frontier.lock(RwLock::read).total, "{at}");
                assert_eq!(results(&reopened, n), results(&live, n), "{at}");
                assert_eq!(reopened.query(0, n).unwrap(), naive_sum(0, n), "{at}");
            }
        }
    }

    #[test]
    fn stored_chunk_count_finds_every_length() {
        // Every length around the doubling and bisection boundaries.
        let kv = Arc::new(MemKv::new());
        let t = open4(kv.clone());
        for n in 0..=40u64 {
            assert_eq!(stored_chunk_count(kv.as_ref(), 1).unwrap(), n);
            assert_eq!(stored_chunk_count(kv.as_ref(), 2).unwrap(), 0);
            t.append(vec![n, 1]).unwrap();
        }
    }

    #[test]
    fn corrupt_length_prefix_fails_cleanly_without_allocating() {
        // A stored node claiming u32::MAX entries must parse-fail as
        // CorruptNode, not attempt a multi-GB Vec pre-allocation.
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        fill(&open4(kv.clone()), 8);
        // A handle opened before the damage (cold cache: open caches
        // nothing), so the query is what reads the corrupt bytes.
        let t = open4(kv.clone());
        let mut bad = u32::MAX.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 7]);
        kv.put(&keys::node(1, 1, 0), &bad).unwrap();
        match t.query(0, 4) {
            Err(IndexError::CorruptNode { level: 1, index: 0 }) => {}
            other => panic!("expected CorruptNode, got {other:?}"),
        }
        // Open needs that node's sum for the level-2 spine: same refusal.
        let cfg = TreeConfig {
            arity: 4,
            ..TreeConfig::default()
        };
        assert!(matches!(
            AggTree::<Vec<u64>>::open(kv, 1, cfg),
            Err(IndexError::CorruptNode { level: 1, index: 0 })
        ));
    }

    #[test]
    fn query_below_decayed_level_reports_decayed_not_corrupt() {
        let t = tree(4);
        fill(&t, 256);
        assert!(t.decay(128, 2).unwrap() > 0);
        // Fine-grained query inside the aged-out region: a distinct,
        // well-explained error.
        match t.query(0, 1) {
            Err(IndexError::Decayed { level: 1, index: 0 }) => {}
            other => panic!("expected Decayed, got {other:?}"),
        }
        let msg = t.query(2, 3).unwrap_err().to_string();
        assert!(msg.contains("decay"), "message should explain decay: {msg}");
        // The same region at coarser granularity still answers exactly.
        assert_eq!(t.query(0, 16).unwrap(), naive_sum(0, 16));
        // Recent (undecayed) data still answers at full granularity.
        assert_eq!(t.query(130, 131).unwrap(), naive_sum(130, 131));
    }

    #[test]
    fn concurrent_readers_stay_exact_during_appends() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Small cache so readers also exercise the store miss path.
        let kv = Arc::new(MemKv::new());
        let t: Arc<AggTree<Vec<u64>>> = Arc::new(
            AggTree::open(
                kv,
                1,
                TreeConfig {
                    arity: 4,
                    cache_bytes: 512,
                },
            )
            .unwrap(),
        );
        const N: u64 = 600;
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer = t.clone();
            let writer_done = done.clone();
            scope.spawn(move || {
                // Single appends and runs of 3 (arity 4), so commits
                // land on, before and across seal boundaries.
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
                            // Full prefix and a reader-dependent suffix:
                            // both must match the closed form exactly for
                            // the snapshot the reader observed.
                            assert_eq!(t.query(0, len).unwrap(), naive_sum(0, len));
                            let a = (r * len / 5).min(len - 1);
                            assert_eq!(t.query(a, len).unwrap(), naive_sum(a, len));
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
        // End-state canary: if any reader poisoned the cache with a stale
        // node during the run, these (cache-served) queries would now be
        // missing digests.
        for a in [0u64, 1, N / 3, N - 1] {
            assert_eq!(t.query(a, N).unwrap(), naive_sum(a, N), "[{a},{N})");
        }
    }

    #[test]
    fn growth_across_level_boundaries() {
        // Appending exactly across k, k^2 boundaries keeps queries exact.
        let t = tree(4);
        for n in 1..=70u64 {
            t.append(vec![n - 1, 1]).unwrap();
            assert_eq!(t.query(0, n).unwrap(), naive_sum(0, n), "after {n} appends");
        }
    }

    /// Full store dump (every key under the stream's index prefixes),
    /// sorted — the byte-identity probe for equivalence tests.
    fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = kv.scan_prefix(b"").unwrap();
        all.sort();
        all
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        // Batch sizes that land inside one leaf node, exactly fill one,
        // cross node boundaries, and cross level-growth boundaries — the
        // final store bytes must equal sequential appends exactly.
        for (arity, batches) in [
            (4usize, vec![1usize, 3, 4, 5, 16, 17, 64, 30]),
            (64, vec![64, 1, 63, 128, 200]),
            (2, vec![7, 9, 1, 15]),
        ] {
            let kv_seq = Arc::new(MemKv::new());
            let kv_batch = Arc::new(MemKv::new());
            let seq: AggTree<Vec<u64>> = AggTree::open(
                kv_seq.clone(),
                1,
                TreeConfig {
                    arity,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            let batch: AggTree<Vec<u64>> = AggTree::open(
                kv_batch.clone(),
                1,
                TreeConfig {
                    arity,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            let mut i = 0u64;
            for n in batches {
                let digests: Vec<Vec<u64>> = (0..n as u64).map(|j| vec![i + j, 1]).collect();
                for d in &digests {
                    seq.append(d.clone()).unwrap();
                }
                batch.append_batch(&digests).unwrap();
                i += n as u64;
                assert_eq!(seq.len(), batch.len());
                assert_eq!(
                    dump(kv_seq.as_ref()),
                    dump(kv_batch.as_ref()),
                    "arity {arity}, after {i} chunks: stores diverge"
                );
            }
            assert_eq!(batch.query(0, i).unwrap(), naive_sum(0, i));
        }
    }
}
