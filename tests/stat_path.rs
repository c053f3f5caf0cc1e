//! Deterministic guard for the shape of the statistical query path, beside
//! `ingest_path.rs`: a scatter-gather leg is one exchange and one fold.
//!
//! * a coordinator sends each remote shard's leg as one frame, whatever
//!   its length and whether or not its windows are empty — two shards on
//!   one node are two frames for an 8-stream query, one shard's 300-stream
//!   leg is one;
//! * a scrape (`stats()`) asks each node once, however many shards it
//!   hosts or replicates — one frame for two shards on one node, one per
//!   node for two crosswise R=2 nodes;
//! * a coordinator probes a pooled node connection before each exchange
//!   of a batch, which it may not send twice, and before no leg of a
//!   query, which it may — one probe per shard for an 8-stream
//!   `InsertBatch` on two shards of one node, none for the query.
//!
//! That every tier answers `GetStatRange` with the same bytes, errors and
//! their precedence included, is `placement_equivalence.rs`'s.
//!
//! The frame counts are `stat_path.frames.*` rows of the root
//! `BENCH_ledger.json`, read from each node's frame count in the
//! deployment, and the probe counts `stat_path.probes.*` rows, read from
//! the process's `timecrypt_pool_probes_total`; CI copies them to the job
//! summary.

use common::{Deployment, Spec};
use std::sync::{Mutex, MutexGuard, PoisonError};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::ServerError;
use timecrypt::service::ShardRouter;
use timecrypt_obs::counters::POOL_PROBES;

mod common;

/// The tests of this binary, one at a time: each mutates through a pool,
/// and one reads the process's probe counter.
fn serial() -> MutexGuard<'static, ()> {
    static PROBES: Mutex<()> = Mutex::new(());
    PROBES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What `f` returns, and the pooled connections probed meanwhile.
fn probed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = POOL_PROBES.get();
    let out = f();
    (out, POOL_PROBES.get() - before)
}

/// Chunk `index` of `stream`, its digest `width` words of `value`: the
/// server neither decrypts nor checks digests.
fn chunk(stream: u128, index: u64, width: usize, value: u64) -> EncryptedChunk {
    EncryptedChunk {
        stream,
        index,
        digest_ct: vec![value; width],
        payload: vec![index as u8; 3],
    }
}

/// `d`'s reply to a query of `streams` over the first chunk interval, and
/// the frames node 0 received while it answered.
fn counted(d: &Deployment, streams: &[u128]) -> (Result<usize, String>, u64) {
    let before = d.frames(0);
    let reply = d.service().get_stat_range(streams, 0, 10_000);
    let reply = reply.map(|r| r.parts.len()).map_err(|e| e.to_string());
    (reply, d.frames(0) - before)
}

/// A `stat_path.frames.<what>` ledger row.
fn row(what: &str, frames: u64) -> (String, String) {
    (format!("stat_path.frames.{what}"), frames.to_string())
}

#[test]
fn a_query_is_one_frame_per_shard_two_shards_on_one_node() {
    let _serial = serial();
    let d = Deployment::build(&Spec::remote(2, 1, 1));
    let svc = d.service();
    let router = ShardRouter::new(2);
    let on = |shard| (0..).filter(move |&id| router.shard_of(id) == shard);
    let streams: Vec<u128> = on(0).take(4).chain(on(1).take(4)).collect();
    for &id in &streams {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    // Every window empty: each leg stops at its first stream, and the
    // reply carries the width the query's precedence needs.
    let empty = Err(ServerError::EmptyRange.to_string());
    assert_eq!(counted(&d, &streams), (empty, 2));
    let chunks = streams
        .iter()
        .map(|&id| chunk(id, 0, 2, id as u64))
        .collect();
    let (verdicts, batch_probes) = probed(|| svc.submit_batch(chunks));
    assert!(verdicts.iter().all(Result::is_ok));
    let ((reply, exchanges), query_probes) = probed(|| counted(&d, &streams));
    assert_eq!(reply, Ok(8));
    let probes = |what: &str, n: u64| (format!("stat_path.probes.{what}"), n.to_string());
    common::ledger(&[
        row("query8.two_shards_one_node", exchanges),
        probes("insert_batch8.two_shards_one_node", batch_probes),
        probes("query8.two_shards_one_node", query_probes),
    ]);
}

/// `d.service().stats()`'s count of each shard's streams, and the frames
/// each of `d`'s `nodes` received while it was taken.
fn scraped(d: &Deployment, nodes: usize) -> (Vec<u64>, Vec<u64>) {
    let before: Vec<u64> = (0..nodes).map(|n| d.frames(n)).collect();
    let streams = d
        .service()
        .stats()
        .shards
        .iter()
        .map(|s| s.streams)
        .collect();
    let after = (0..nodes).map(|n| d.frames(n));
    (streams, after.zip(before).map(|(a, b)| a - b).collect())
}

#[test]
fn a_scrape_is_one_frame_per_node_two_shards_on_one_node() {
    let _serial = serial();
    let router = ShardRouter::new(2);
    let on = |shard| (0..).find(|&id| router.shard_of(id) == shard).unwrap();
    // One node hosting both shards, then R=2 crosswise: each node is one
    // shard's primary and the other's backup, and is asked once.
    let mut rows = Vec::new();
    for (what, nodes, replicas) in [("two_shards_one_node", 1, 1), ("crosswise_r2", 2, 2)] {
        let d = Deployment::build(&Spec::remote(2, nodes, replicas));
        for id in [on(0), on(1)] {
            d.service().create_stream(id, 0, 10_000, 2).unwrap();
        }
        let (streams, exchanges) = scraped(&d, nodes);
        assert_eq!(streams, vec![1, 1]);
        for (n, frames) in exchanges.into_iter().enumerate() {
            rows.push(row(&format!("scrape.{what}.node{n}"), frames));
        }
    }
    common::ledger(&rows);
}

#[test]
fn a_300_stream_leg_is_one_frame() {
    let _serial = serial();
    const N: u128 = 300;
    let d = Deployment::build(&Spec::remote(1, 1, 1));
    let svc = d.service();
    let all: Vec<u128> = (0..N).collect();
    for &id in &all {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let empty = Err(ServerError::EmptyRange.to_string());
    assert_eq!(counted(&d, &all), (empty, 1));
    let chunks = all.iter().map(|&id| chunk(id, 0, 2, 1)).collect();
    assert!(svc.submit_batch(chunks).iter().all(Result::is_ok));
    assert_eq!(counted(&d, &all), (Ok(N as usize), 1));
}
