//! Deterministic shape guard for index nodes (ROADMAP aim 1(c): gate the
//! counts that don't jitter), beside `index_ram.rs`. A node is one buffer —
//! the bytes it is stored as — so a cached node must hold of the heap what
//! the cache charges for it, a cold query must allocate per node it reads
//! and not per entry, a warm one only its accumulator, and an append must
//! copy the open node it touches as a block, whatever the node already
//! holds — the query's walk (`query_node`) and the spine's ripple
//! (`Spine::push`) allocate nothing of their own. Only a query's store read
//! fills the cache: a written handle holds its open spine, no sealed node.
//!
//! Counts only: the binary's global allocator (`tests/common`) keeps, per
//! thread, the calls made and the bytes live. The guard prints its
//! figures; none is a timing.

use std::sync::Arc;
use timecrypt::index::{AggTree, TreeConfig};
use timecrypt::store::{KvPairs, KvStore, MemKv, StoreError};

mod common;

use common::{calls_of, live};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

fn open(kv: &Arc<MemKv>, arity: usize) -> AggTree<Vec<u64>> {
    open_with_cache(kv, arity, 64 << 20)
}

fn open_with_cache(kv: &Arc<MemKv>, arity: usize, cache_bytes: usize) -> AggTree<Vec<u64>> {
    let cfg = TreeConfig { arity, cache_bytes };
    AggTree::open(kv.clone() as Arc<dyn KvStore>, 1, cfg).unwrap()
}

/// A store holding `chunks` digests of `width`, and no handle on it.
fn filled(arity: usize, width: usize, chunks: u64) -> Arc<MemKv> {
    let kv = Arc::new(MemKv::new());
    let digests: Vec<Vec<u64>> = (0..chunks).map(|c| vec![c; width]).collect();
    open(&kv, arity).append_batch(&digests).unwrap();
    kv
}

#[test]
fn a_cached_node_holds_what_the_cache_charges_for_it() {
    const NODES: u64 = 40;
    for width in [4, 19] {
        let kv = filled(64, width, NODES * 64);
        let tree = open(&kv, 64);
        let start = live();
        // All but the first chunk of each leaf node: the level-2 entry does
        // not answer that, so the sweep reads, and caches, every one.
        for node in 0..NODES {
            tree.query(node * 64 + 1, (node + 1) * 64).unwrap();
        }
        let held = (live() - start) as f64;
        let stats = tree.stats().unwrap();
        assert_eq!(stats.cache_misses, NODES);
        let weight = 4 + 64 * (4 + 8 * width);
        assert_eq!(stats.cache_used_bytes, NODES as usize * weight);
        println!(
            "heap bytes per cached node, width {width}: {:.0} held, {weight} charged",
            held / NODES as f64
        );
        let charged = stats.cache_used_bytes as f64;
        assert!(held <= 1.15 * charged, "{held} B held, {charged} charged");
    }
}

#[test]
fn a_cold_query_allocates_per_node_read_not_per_entry() {
    // Three levels at either arity; both edges of each range fall inside a
    // leaf node, so a walk reads sealed nodes at levels 2 and 1 (the rest
    // of its path is the open spine). The first query reads other nodes
    // than the second: it is there so that the cache's own maps exist — one
    // segment at this budget — and what the second allocates is per node.
    let mut per_node = Vec::new();
    for (arity, chunks) in [(4u64, 60u64), (64, 5000)] {
        let kv = filled(arity as usize, 19, chunks);
        let tree = open_with_cache(&kv, arity as usize, 48 << 10);
        assert_eq!(tree.levels(), 3);
        tree.query(arity + 1, chunks - 3 * arity - 1).unwrap();
        let warm_up = tree.stats().unwrap().cache_misses;
        let (calls, sum) = calls_of(|| tree.query(1, chunks - arity - 1).unwrap());
        assert_eq!(sum[0], (1..chunks - arity - 1).sum::<u64>());
        let read = tree.stats().unwrap().cache_misses - warm_up;
        println!("cold query, arity {arity}: {calls} allocations, {read} nodes read");
        assert!(read >= 2, "{read} nodes read");
        assert!(calls <= 4 * read, "{calls} allocations, {read} nodes read");
        per_node.push(calls as f64 / read as f64);
        // Again, from the cache: the accumulator is all a walk allocates.
        let (warm, _) = calls_of(|| tree.query(1, chunks - arity - 1).unwrap());
        assert_eq!(tree.stats().unwrap().cache_misses - warm_up, read);
        assert_eq!(warm, 1, "a warm query, arity {arity}");
    }
    let (narrow, wide) = (per_node[0], per_node[1]);
    assert!(wide <= narrow + 0.5, "{narrow} per node at 4, {wide} at 64");
}

/// What dropping `tree` gives back to the heap: what it held.
fn held(tree: AggTree<Vec<u64>>) -> isize {
    let before = live();
    drop(tree);
    before - live()
}

/// A handle that appended `4 × 64 + 10` chunks of `width` as one run, and
/// its store: four sealed leaf nodes, ten chunks open at level 1.
fn written(width: usize) -> (Arc<MemKv>, AggTree<Vec<u64>>) {
    let kv = Arc::new(MemKv::new());
    let tree = open(&kv, 64);
    let digests: Vec<Vec<u64>> = (0..4 * 64 + 10).map(|c| vec![c; width]).collect();
    tree.append_batch(&digests).unwrap();
    (kv, tree)
}

#[test]
fn an_append_caches_nothing() {
    for width in [4, 19] {
        let (kv, tree) = written(width);
        assert_eq!(tree.stats().unwrap().cache_used_bytes, 0, "width {width}");
        // What a written handle holds is what one opened on its store
        // rebuilds: the open spine, and none of the sealed history.
        let (written_bytes, spine) = (held(tree), held(open(&kv, 64)));
        println!(
            "heap bytes a written tree holds, width {width}: {written_bytes} \
             (its open spine: {spine})"
        );
        assert!(
            written_bytes <= spine + 256,
            "{written_bytes} B held, {spine} B of spine"
        );
        // Sealed leaf node 1: the first query over it reads it from the
        // store, the second finds it cached.
        let (_, tree) = written(width);
        let misses_and_hits = || {
            assert_eq!(tree.query(65, 128).unwrap()[0], (65..128).sum::<u64>());
            let stats = tree.stats().unwrap();
            (stats.cache_misses, stats.cache_hits)
        };
        assert_eq!(
            misses_and_hits(),
            (1, 0),
            "width {width}: read from the store"
        );
        assert_eq!(
            misses_and_hits(),
            (1, 1),
            "width {width}: then from the cache"
        );
    }
}

/// A store that keeps nothing: what an append allocates is the tree's.
struct Discard;

impl KvStore for Discard {
    fn get(&self, _: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(None)
    }
    fn put(&self, _: &[u8], _: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
    fn delete(&self, _: &[u8]) -> Result<(), StoreError> {
        Ok(())
    }
    fn scan_prefix(&self, _: &[u8]) -> Result<KvPairs, StoreError> {
        Ok(Vec::new())
    }
}

#[test]
fn an_append_allocates_the_same_whatever_the_open_node_holds() {
    let cfg = TreeConfig {
        arity: 64,
        cache_bytes: 64 << 20,
    };
    let tree = AggTree::open(Arc::new(Discard), 1, cfg).unwrap();
    let mut calls = Vec::new();
    for chunk in 0..63u64 {
        let digest = vec![chunk; 19];
        calls.push(calls_of(|| tree.append(digest).unwrap()).0);
    }
    // The open leaf node holds 1 entry before the second append, 62 before
    // the last. Whatever it holds, an append encodes its record and decodes
    // it back, copies the spine, the running total and the open node once
    // each, and builds its key list and its batch: nine blocks.
    println!("allocations per append, first to 63rd: {calls:?}");
    assert!(calls[1] <= 9, "{} allocations", calls[1]);
    assert!(calls[1..].iter().all(|&c| c == calls[1]), "{calls:?}");
    assert_eq!(tree.query(0, 63).unwrap()[0], (0..63).sum::<u64>());
}
