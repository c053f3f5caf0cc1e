//! Deterministic traffic of the index's boundary cache (ROADMAP aim 1(c):
//! gate the counts that don't jitter), beside `index_node_shape.rs`. A
//! statistical query reads at most two running sums, and the cache keeps
//! those queries read again, within targets that grow, up to its budget,
//! only as queries read again what it evicted. What share of the lookups
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
//!   budget is a single stripe. Its windows are misaligned in time, but each covers
//!   whole chunks `[lo, hi)`, and those are what the index is asked.
//!
//! Counts only, read from `TreeStats`: the hit share and the bytes charged
//! are rows of the root `BENCH_ledger.json`, compared exactly
//! (`TC_BLESS=1` rewrites them); CI copies them to the job summary. So are
//! the bytes the dashboard replay frees, as the binary's counting allocator
//! (`tests/common`) sees them: a cache that moved what it holds would free
//! the old copy, and the allocator may keep it. The process gauge
//! `timecrypt_index_boundary_cache_bytes` holds what the one live index is
//! charged, and nothing once it is dropped; so does
//! `timecrypt_index_boundary_cache_target_bytes` of its targets.
//!
//! Beside the shapes, the node's bound: one `ShardNode` of two shards, one
//! cache of 64 KiB for both engines, and 2 000 streams each read in the same
//! window three times. Its charge, the gauge's, stays within the budget
//! however many streams are read (`boundary_cache.node.*` rows). And the
//! shape `steady_mix` runs: 32 `steady` streams on one node under the
//! benchmark's 64 MiB, each grown from 512 to 677 chunks in turn
//! (`boundary_cache.steady_node.*`); and the read stage `fleet_ingest`
//! runs: its 64 readable streams on one node, each window over a group of
//! eight (`boundary_cache.fleet_node.*`).

use common::history::Rng;
use common::{Deployment, Spec};
use std::sync::{Arc, Mutex, PoisonError};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::index::{AggTree, TreeConfig};
use timecrypt::server::ServerConfig;
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt_obs::counters::{
    INDEX_BOUNDARY_CACHE_BYTES, INDEX_BOUNDARY_CACHE_TARGET_BYTES, INDEX_NODE_CACHE_HITS,
    INDEX_NODE_CACHE_MISSES,
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
    let (len, mut rng) = (tree.len(), Rng(seed));
    for _ in 0..queries {
        let lo = rng.below(len - 1);
        query(tree, lo, lo + 2 + rng.below(len - lo - 1));
    }
}

/// The shape's ledger rows: the share of lookups served, and the bytes
/// charged at the end, which the process gauge holds.
fn rows(shape: &str, tree: &AggTree<Vec<u64>>) -> Vec<(String, String)> {
    let stats = tree.stats().unwrap();
    assert_eq!(
        INDEX_BOUNDARY_CACHE_BYTES.get(),
        stats.cache_used_bytes as u64
    );
    assert!(INDEX_BOUNDARY_CACHE_BYTES.get() <= INDEX_BOUNDARY_CACHE_TARGET_BYTES.get());
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
    assert_eq!(INDEX_BOUNDARY_CACHE_TARGET_BYTES.get(), 0);
    common::ledger(&ledger);
}

/// A node of two shards, one cache of `cache_bytes` for both engines.
fn node(cache_bytes: usize) -> Deployment {
    Deployment::build(&Spec::node(2).engine_cfg(ServerConfig {
        cache_bytes,
        ..ServerConfig::default()
    }))
}

/// `node`'s reply to `request`, which must not be an error.
fn call(node: &Deployment, request: Request) -> Response {
    match node.call(request) {
        Response::Error(e) => panic!("{e:?}"),
        reply => reply,
    }
}

/// Creates `stream`, a chunk a second, with digests of `width` words.
fn create(node: &Deployment, stream: u128, width: u32) {
    call(
        node,
        Request::CreateStream {
            stream,
            t0: 0,
            delta_ms: 1000,
            digest_width: width,
        },
    );
}

/// Appends `chunks` to `stream`, chunk `c`'s digest `width` words of `c`.
fn insert(node: &Deployment, stream: u128, chunks: std::ops::Range<u64>, width: usize) {
    let chunk = |c: u64| {
        let mut bytes = Vec::new();
        EncryptedChunk::encode_parts(stream, c, &vec![c; width], b"x", &mut bytes);
        bytes
    };
    let chunks = chunks.map(chunk).collect();
    call(node, Request::InsertBatch { chunks });
}

/// Queries chunks `[lo, hi)` of `stream` and checks the reply.
fn stat(node: &Deployment, stream: u128, lo: u64, hi: u64, width: usize) {
    stat_of(node, vec![stream], lo, hi, width);
}

/// Queries chunks `[lo, hi)` of `streams` together and checks the reply.
fn stat_of(node: &Deployment, streams: Vec<u128>, lo: u64, hi: u64, width: usize) {
    let n = streams.len() as u64;
    let reply = call(
        node,
        Request::GetStatRange {
            streams,
            ts_s: lo as i64 * 1000,
            ts_e: hi as i64 * 1000,
        },
    );
    let Response::Stat(reply) = reply else {
        panic!("{reply:?}");
    };
    assert_eq!(reply.agg, vec![n * (lo..hi).sum::<u64>(); width]);
}

/// The node's ledger rows: the share of the lookups since `from` (hits,
/// misses) served, and `charged` bytes.
fn node_rows(shape: &str, from: (u64, u64), charged: u64) -> Vec<(String, String)> {
    let (hits, misses) = (
        INDEX_NODE_CACHE_HITS.get() - from.0,
        INDEX_NODE_CACHE_MISSES.get() - from.1,
    );
    println!(
        "boundary cache, {shape}: {hits} of {} lookups hit, {charged} B charged",
        hits + misses
    );
    let row = |name: &str| format!("boundary_cache.{shape}.{name}");
    vec![
        (
            row("hit_share"),
            format!("{:.4}", hits as f64 / (hits + misses) as f64),
        ),
        (row("charged_bytes"), charged.to_string()),
    ]
}

fn lookups() -> (u64, u64) {
    (INDEX_NODE_CACHE_HITS.get(), INDEX_NODE_CACHE_MISSES.get())
}

#[test]
fn one_budget_bounds_a_node_of_2000_streams() {
    const BUDGET: usize = 64 << 10;
    const STREAMS: u128 = 2000;
    let _gauge = GAUGE.lock().unwrap_or_else(PoisonError::into_inner);
    let node = node(BUDGET);
    // 32 chunks a stream, chunk `c`'s digest four words of `c`, a second
    // apart; each stream is read over chunks [5, 30) three times.
    for stream in 1..=STREAMS {
        create(&node, stream, 4);
        insert(&node, stream, 0..32, 4);
    }
    let from = lookups();
    let mut charged = Vec::new();
    for stream in 1..=STREAMS {
        for _ in 0..3 {
            stat(&node, stream, 5, 30, 4);
        }
        if stream % 500 == 0 {
            charged.push(INDEX_BOUNDARY_CACHE_BYTES.get());
        }
    }
    println!("boundary cache, node: {charged:?} B charged at 500, 1 000, 1 500 and 2 000 streams");
    assert!(charged.iter().all(|&c| c <= BUDGET as u64), "{charged:?}");
    common::ledger(&node_rows("node", from, charged[3]));
}

/// `steady_mix`'s shape on the node it runs on: 32 streams of 512 chunks
/// of 19 words under the benchmark's 64 MiB, grown in turn, each append
/// followed by the four windows `[q·len/5, len)`.
#[test]
fn steady_streams_share_a_node() {
    const STREAMS: u128 = 32;
    let _gauge = GAUGE.lock().unwrap_or_else(PoisonError::into_inner);
    let node = node(64 << 20);
    for stream in 1..=STREAMS {
        create(&node, stream, 19);
        insert(&node, stream, 0..512, 19);
    }
    let from = lookups();
    for len in 513..=677 {
        for stream in 1..=STREAMS {
            insert(&node, stream, len - 1..len, 19);
            for q in 0..4 {
                stat(&node, stream, q * len / 5, len, 19);
            }
        }
    }
    let charged = INDEX_BOUNDARY_CACHE_BYTES.get();
    assert!(charged <= INDEX_BOUNDARY_CACHE_TARGET_BYTES.get());
    common::ledger(&node_rows("steady_node", from, charged));
}

/// `fleet_ingest`'s read stage on the node it runs on: the 64 streams its
/// consumers read, 180 chunks of four words each, under the benchmark's
/// 64 MiB. Two consumers in turn ask 9 600 windows each, every window of
/// one of the consumer's four groups of eight streams.
#[test]
fn fleet_streams_share_a_node() {
    const STREAMS: u128 = 64;
    const CHUNKS: u64 = 180;
    let _gauge = GAUGE.lock().unwrap_or_else(PoisonError::into_inner);
    let node = node(64 << 20);
    for stream in 1..=STREAMS {
        create(&node, stream, 4);
        insert(&node, stream, 0..CHUNKS, 4);
    }
    let from = lookups();
    let mut rng = Rng(17);
    for _ in 0..9600 {
        for consumer in 0..2 {
            let group = 4 * consumer + rng.next() as u128 % 4;
            let lo = rng.below(CHUNKS - 1);
            let hi = lo + 2 + rng.below(CHUNKS - lo - 1);
            stat_of(&node, (8 * group + 1..=8 * group + 8).collect(), lo, hi, 4);
        }
    }
    let charged = INDEX_BOUNDARY_CACHE_BYTES.get();
    assert!(charged <= INDEX_BOUNDARY_CACHE_TARGET_BYTES.get());
    common::ledger(&node_rows("fleet_node", from, charged));
}
