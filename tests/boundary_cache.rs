//! Deterministic traffic of the index's boundary cache (ROADMAP aim 1(c):
//! gate the counts that don't jitter), beside `index_node_shape.rs`. A
//! statistical query reads at most two running sums, and the cache keeps
//! those queries read again, within its budget. What share of the lookups
//! it serves and what it is charged for that depend on how often a
//! boundary is re-read, so four query shapes of the benchmark's workloads
//! (`benchmark/src/workloads.rs`) replay through one index each, at the
//! benchmark's 64 MiB budget but for `dashboard`'s:
//!
//! - `producer`: 4 160 chunks and the 940 random windows one stream of
//!   `producer_ingest` is asked, two lookups each;
//! - `steady`: a stream growing from 512 to 841 chunks, the paper's four
//!   windows `[q·len/5, len)` (Fig. 7) queried after each append, as in
//!   `steady_mix`;
//! - `fleet`: 180 chunks and 2 430 random windows, about 27 lookups per
//!   boundary, as a stream of `fleet_ingest` is read;
//! - `dashboard`: 4 560 chunks and the 6 667 random windows one stream of
//!   `dashboard_read` is asked, at its 64 KiB budget: the one shape whose
//!   budget binds. Its windows are misaligned in time, but each covers
//!   whole chunks `[lo, hi)`, and those are what the index is asked.
//!
//! Counts only, read from `TreeStats`: the hit share and the bytes charged
//! are rows of the root `BENCH_ledger.json`, compared exactly
//! (`TC_BLESS=1` rewrites them); CI copies them to the job summary. So are
//! the bytes the dashboard replay frees, as the binary's counting allocator
//! (`tests/common`) sees them: a cache that moved what it holds would free
//! the old copy, and the allocator may keep it. The process gauge
//! `timecrypt_index_boundary_cache_bytes` holds what the one live index is
//! charged, and nothing once it is dropped.
//!
//! Beside the shapes, the node's bound: one `ShardNode` of two shards, one
//! cache of 64 KiB for both engines, and 2 000 streams each read in the same
//! window three times. Its charge, the gauge's, stays within the budget
//! however many streams are read (`boundary_cache.node.*` rows).

use common::{Deployment, Spec};
use std::sync::{Arc, Mutex, PoisonError};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::index::{AggTree, TreeConfig};
use timecrypt::server::ServerConfig;
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt_obs::counters::{
    INDEX_BOUNDARY_CACHE_BYTES, INDEX_NODE_CACHE_HITS, INDEX_NODE_CACHE_MISSES,
};

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// A fresh index of `chunks` digests of `width` words, chunk `c`'s all `c`,
/// with a boundary cache of `cache_bytes`.
fn filled(width: usize, chunks: u64, cache_bytes: usize) -> AggTree<Vec<u64>> {
    let cfg = TreeConfig { cache_bytes };
    let tree = AggTree::open(Arc::new(MemKv::new()), 1, cfg).unwrap();
    let digests: Vec<Vec<u64>> = (0..chunks).map(|c| vec![c; width]).collect();
    tree.append_batch(&digests).unwrap();
    tree
}

/// Queries `[lo, hi)` and checks the reply.
fn query(tree: &AggTree<Vec<u64>>, lo: u64, hi: u64) {
    assert_eq!(tree.query(lo, hi).unwrap()[0], (lo..hi).sum::<u64>());
}

/// `queries` random windows of at least two chunks, drawn as the
/// benchmark's read stages draw them.
fn random_windows(tree: &AggTree<Vec<u64>>, queries: u64, seed: u64) {
    let (len, mut state) = (tree.len(), seed);
    let mut below = |n: u64| splitmix(&mut state) % n;
    for _ in 0..queries {
        let lo = below(len - 1);
        query(tree, lo, lo + 2 + below(len - lo - 1));
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shape's ledger rows: the share of lookups served, and the bytes
/// charged at the end, which the process gauge holds.
fn rows(shape: &str, tree: &AggTree<Vec<u64>>) -> Vec<(String, String)> {
    let stats = tree.stats().unwrap();
    assert_eq!(
        INDEX_BOUNDARY_CACHE_BYTES.get(),
        stats.cache_used_bytes as u64
    );
    let lookups = stats.cache_hits + stats.cache_misses;
    println!(
        "boundary cache, {shape}: {} of {lookups} lookups hit, {} B charged",
        stats.cache_hits, stats.cache_used_bytes
    );
    let row = |name: &str| format!("boundary_cache.{shape}.{name}");
    vec![
        (
            row("hit_share"),
            format!("{:.4}", stats.cache_hits as f64 / lookups as f64),
        ),
        (row("charged_bytes"), stats.cache_used_bytes.to_string()),
    ]
}

/// The tests of this binary, one at a time: each reads the process gauge.
static GAUGE: Mutex<()> = Mutex::new(());

/// One test, the shapes one after another: one index at a time.
#[test]
fn four_query_shapes() {
    let _gauge = GAUGE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut ledger = Vec::new();
    let producer = filled(19, 4160, 64 << 20);
    random_windows(&producer, 940, 7);
    ledger.extend(rows("producer", &producer));
    drop(producer);

    let steady = filled(19, 512, 64 << 20);
    for len in 513..=841 {
        steady.append(vec![len - 1; 19]).unwrap();
        for q in 0..4 {
            query(&steady, q * len / 5, len);
        }
    }
    ledger.extend(rows("steady", &steady));
    drop(steady);

    let fleet = filled(4, 180, 64 << 20);
    random_windows(&fleet, 2430, 11);
    ledger.extend(rows("fleet", &fleet));
    drop(fleet);

    let dashboard = filled(19, 4560, 64 << 10);
    let freed = common::freed();
    random_windows(&dashboard, 6667, 13);
    let freed = common::freed() - freed;
    assert!(dashboard.stats().unwrap().cache_used_bytes <= 64 << 10);
    ledger.extend(rows("dashboard", &dashboard));
    println!("boundary cache, dashboard: the replay freed {freed} B");
    ledger.push((
        "boundary_cache.dashboard.freed_bytes".into(),
        freed.to_string(),
    ));
    drop(dashboard);
    assert_eq!(INDEX_BOUNDARY_CACHE_BYTES.get(), 0);
    common::ledger(&ledger);
}

#[test]
fn one_budget_bounds_a_node_of_2000_streams() {
    const BUDGET: usize = 64 << 10;
    const STREAMS: u128 = 2000;
    let _gauge = GAUGE.lock().unwrap_or_else(PoisonError::into_inner);
    let node = Deployment::build(&Spec::node(2).engine_cfg(ServerConfig {
        cache_bytes: BUDGET,
        ..ServerConfig::default()
    }));
    let call = |request| match node.call(request) {
        Response::Error(e) => panic!("{e}"),
        reply => reply,
    };
    // 32 chunks a stream, chunk `c`'s digest four words of `c`, a second
    // apart; each stream is read over chunks [5, 30) three times.
    for stream in 1..=STREAMS {
        call(Request::CreateStream {
            stream,
            t0: 0,
            delta_ms: 1000,
            digest_width: 4,
        });
        let chunk = |c: u64| {
            let mut bytes = Vec::new();
            EncryptedChunk::encode_parts(stream, c, &[c; 4], b"x", &mut bytes);
            bytes
        };
        let chunks = (0..32).map(chunk).collect();
        call(Request::InsertBatch { chunks });
    }
    let (hits, misses) = (INDEX_NODE_CACHE_HITS.get(), INDEX_NODE_CACHE_MISSES.get());
    let mut charged = Vec::new();
    for stream in 1..=STREAMS {
        for _ in 0..3 {
            let streams = vec![stream];
            let reply = call(Request::GetStatRange {
                streams,
                ts_s: 5000,
                ts_e: 30_000,
            });
            let Response::Stat(reply) = reply else {
                panic!("{reply:?}");
            };
            assert_eq!(reply.agg, [(5..30).sum::<u64>(); 4]);
        }
        if stream % 500 == 0 {
            charged.push(INDEX_BOUNDARY_CACHE_BYTES.get());
        }
    }
    let (hits, misses) = (
        INDEX_NODE_CACHE_HITS.get() - hits,
        INDEX_NODE_CACHE_MISSES.get() - misses,
    );
    println!("boundary cache, node: {charged:?} B charged at 500, 1 000, 1 500 and 2 000 streams");
    assert!(charged.iter().all(|&c| c <= BUDGET as u64), "{charged:?}");
    common::ledger(&[
        (
            "boundary_cache.node.hit_share".into(),
            format!("{:.4}", hits as f64 / (hits + misses) as f64),
        ),
        (
            "boundary_cache.node.charged_bytes".into(),
            charged[3].to_string(),
        ),
    ]);
}
