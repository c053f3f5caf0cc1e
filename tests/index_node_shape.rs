//! Deterministic shape guard for the index's boundary reads (ROADMAP aim
//! 1(c): gate the counts that don't jitter), beside `index_ram.rs`. A range
//! sum is the difference of two running sums, so a cold query reads at
//! most two records whatever the history and allocates per record it
//! reads, a warm one only its accumulator, and an append allocates the
//! same whatever the stream holds. Only a query's store read fills the
//! boundary cache, and a cached running sum must hold of the heap what the
//! cache charges for it.
//!
//! Counts only: the binary's global allocator (`tests/common`) keeps, per
//! thread, the calls made and the bytes live; `MeteredKv` counts the store
//! reads. The guard prints its figures; none is a timing.

use std::sync::Arc;
use timecrypt::index::{AggTree, TreeConfig};
use timecrypt::store::{KvPairs, KvStore, MemKv, MeteredKv, StoreError};

mod common;

use common::{calls_of, live};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

fn open(kv: Arc<dyn KvStore>, cache_bytes: usize) -> AggTree<Vec<u64>> {
    AggTree::open(kv, 1, TreeConfig { cache_bytes }).unwrap()
}

/// A store holding `chunks` digests of `width`, and no handle on it.
fn filled(width: usize, chunks: u64) -> Arc<MemKv> {
    let kv = Arc::new(MemKv::new());
    let digests: Vec<Vec<u64>> = (0..chunks).map(|c| vec![c; width]).collect();
    open(kv.clone(), 64 << 20).append_batch(&digests).unwrap();
    kv
}

#[test]
fn a_cached_node_holds_what_the_cache_charges_for_it() {
    const QUERIES: u64 = 1000;
    for width in [4, 19] {
        let tree = open(filled(width, 4 * QUERIES), 64 << 20);
        let start = live();
        // Two boundaries no query before read: each query caches two sums.
        for q in 0..QUERIES {
            tree.query(4 * q + 1, 4 * q + 3).unwrap();
        }
        let held = (live() - start) as f64;
        let stats = tree.stats().unwrap();
        assert_eq!(stats.cache_misses, 2 * QUERIES);
        let charged = stats.cache_used_bytes as f64;
        println!(
            "heap bytes per cached running sum, width {width}: {:.0} held, {:.0} charged",
            held / (2 * QUERIES) as f64,
            charged / (2 * QUERIES) as f64
        );
        assert!(held <= 1.15 * charged, "{held} B held, {charged} charged");
    }
}

#[test]
fn a_cold_query_allocates_per_node_read_not_per_entry() {
    // Whatever the history: two records read, and a few allocations each.
    // The first query reads other records than the second: it is there so
    // that the cache's own maps exist.
    for chunks in [60u64, 5000, 50_000] {
        let kv = Arc::new(MeteredKv::new(filled(19, chunks)));
        let tree = open(kv.clone(), 48 << 10);
        tree.query(2, 5).unwrap();
        let (lo, hi) = (chunks / 3, chunks - 7);
        let before = kv.counters().gets;
        let (calls, sum) = calls_of(|| tree.query(lo, hi).unwrap());
        assert_eq!(sum[0], (lo..hi).sum::<u64>());
        let read = kv.counters().gets - before;
        println!("cold query over {chunks} chunks: {calls} allocations, {read} records read");
        assert_eq!(read, 2, "{chunks} chunks");
        assert!(
            calls <= 4 * read,
            "{calls} allocations, {read} records read"
        );
        // Again, from the cache: the accumulator is all a query allocates.
        let (warm, _) = calls_of(|| tree.query(lo, hi).unwrap());
        assert_eq!(kv.counters().gets - before, read);
        assert_eq!(warm, 1, "a warm query over {chunks} chunks");
    }
}

/// What dropping `tree` gives back to the heap: what it held.
fn held(tree: AggTree<Vec<u64>>) -> isize {
    let before = live();
    drop(tree);
    before - live()
}

#[test]
fn an_append_caches_nothing() {
    for width in [4, 19] {
        let written = || {
            let kv = Arc::new(MemKv::new());
            let tree = open(kv.clone(), 64 << 20);
            let digests: Vec<Vec<u64>> = (0..4 * 64 + 10).map(|c| vec![c; width]).collect();
            tree.append_batch(&digests).unwrap();
            (kv, tree)
        };
        let (kv, tree) = written();
        assert_eq!(tree.stats().unwrap().cache_used_bytes, 0, "width {width}");
        // What a written handle holds is what one opened on its store
        // holds: the last running sum, none of the history.
        let (written_bytes, opened) = (held(tree), held(open(kv.clone(), 64 << 20)));
        println!("heap bytes a written index holds, width {width}: {written_bytes}");
        assert_eq!(written_bytes, opened, "width {width}");
        assert!(written_bytes <= 8 * width as isize + 32, "width {width}");
        // The first query over stored sums reads them, the second finds
        // them cached.
        let (_, tree) = written();
        let misses_and_hits = || {
            assert_eq!(tree.query(65, 128).unwrap()[0], (65..128).sum::<u64>());
            let stats = tree.stats().unwrap();
            (stats.cache_misses, stats.cache_hits)
        };
        assert_eq!(misses_and_hits(), (2, 0), "width {width}: from the store");
        assert_eq!(misses_and_hits(), (2, 2), "width {width}: then the cache");
    }
}

/// A store that keeps nothing: what an append allocates is the index's.
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
    let tree = open(Arc::new(Discard), 64 << 20);
    let mut calls = Vec::new();
    for chunk in 0..200u64 {
        let digest = vec![chunk; 19];
        calls.push(calls_of(|| tree.append(digest).unwrap()).0);
    }
    // Whatever the stream holds, an append encodes its record into a list
    // and copies the running sum, then builds its stored record, its key
    // list and its batch: six blocks.
    println!("allocations per append, first to 200th: {:?}", &calls[..4]);
    assert!(calls[1] <= 6, "{} allocations", calls[1]);
    assert!(calls[1..].iter().all(|&c| c == calls[1]), "{calls:?}");
    assert_eq!(tree.query(0, 200).unwrap()[0], (0..200).sum::<u64>());
}
