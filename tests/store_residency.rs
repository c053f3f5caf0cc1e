//! Deterministic residency guard for the log store (ROADMAP item 6, aim
//! 1(c): gate the counts that don't jitter), next to
//! `write_amplification.rs`. `LogKv` keeps keys and record locations in
//! RAM, never values: its index footprint must not depend on how large the
//! stored values are, and callers that only enumerate keys must not pull a
//! single value byte out of the log. Counts only — no RSS read.
//!
//! One record per chunk (PR 19) halved what there is to index — a chunk is
//! one `il/` key, no longer that and a `c/` key — and the keys of a stream
//! count up, so they are indexed as one run of record locations, not as
//! B-tree entries (`tests/index_ram.rs` holds `index_bytes` to what the
//! allocator counts): 8 320 keys and a modelled 694 144 B for this ingest
//! once, 4 224 keys and under 24 B each now.
//!
//! Above the log, a written stream no query has read holds its directory
//! entry and its running sum: the boundary cache is filled by queries, not
//! by appends. The binary's counting allocator (`tests/common`) measures
//! that per stream; the guard prints "resident bytes per written stream",
//! which CI copies to the job summary.

use std::path::PathBuf;
use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::service::{ServiceConfig, ShardedService};
use timecrypt::store::{LogKv, LogStats};
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::transport::Handler;

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const WIDTH: usize = 4;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "timecrypt-residency-{}-{name}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A sealed chunk shaped like `points` points at 4 B each (the benchmark's
/// 500-point chunks compress to ≈ 1.6 KB).
fn chunk(stream: u128, index: u64, points: usize) -> EncryptedChunk {
    EncryptedChunk {
        stream,
        index,
        digest_ct: vec![index; WIDTH],
        payload: vec![stream as u8; 4 * points],
    }
}

fn service(log: &Arc<LogKv>) -> ShardedService {
    let cfg = ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    };
    ShardedService::open(log.clone(), cfg).unwrap()
}

/// 64 streams × 64 chunks, a batch holding one chunk of every stream, so
/// every chunk is its own run and its own store commit.
fn ingest(points: usize) -> LogStats {
    const STREAMS: u128 = 64;
    const CHUNKS: u64 = 64;
    let path = tmp(&format!("ingest-{points}"));
    let log = Arc::new(LogKv::open(&path).unwrap());
    let svc = service(&log);
    for stream in 0..STREAMS {
        svc.create_stream(stream, 0, 10_000, WIDTH as u32).unwrap();
    }
    for index in 0..CHUNKS {
        let batch = (0..STREAMS).map(|s| chunk(s, index, points)).collect();
        assert!(svc.submit_batch(batch).iter().all(Result::is_ok));
    }
    drop(svc);
    let stats = log.stats();
    assert_eq!(stats.log_bytes, std::fs::metadata(&path).unwrap().len());
    // Every record is written once: ingest supersedes nothing.
    assert_eq!(stats.dead_bytes, 0, "{points} points/chunk");
    std::fs::remove_file(path).unwrap();
    stats
}

#[test]
fn index_footprint_is_independent_of_value_size() {
    let (small, large) = (ingest(50), ingest(500));
    assert_eq!(small.live_keys, large.live_keys);
    assert_eq!(small.index_bytes, large.index_bytes);
    // Per stream: its meta record and one record per chunk.
    assert_eq!(small.live_keys, 64 * (1 + 64));
    // The chunks are a run of 12-byte locations with a quarter's slack at
    // most; the meta record is an ordinary entry.
    assert!(small.index_bytes < 24 * small.live_keys, "{small:?}");
    assert_eq!(small.dead_bytes, large.dead_bytes);
    // Ten times the points is several times the log, and the same index.
    assert!(large.log_bytes > 4 * small.log_bytes, "{small:?} {large:?}");
    assert!(large.index_bytes * 4 < large.log_bytes, "{large:?}");
}

/// The fleet workload's shape through one engine over a `LogKv`: 256
/// streams × 175 six-point chunks of four-wide digests, 16 streams a batch,
/// one chunk each. Per stream, what the engine and the log then hold: the
/// directory entry, the running sum and the log's run of record locations —
/// no cached sum, since only a query's read fills the boundary cache.
#[test]
fn a_written_stream_holds_its_running_sum_and_its_record_locations() {
    const STREAMS: u128 = 256;
    const CHUNKS: u64 = 175;
    let path = tmp("written");
    let log = Arc::new(LogKv::open(&path).unwrap());
    let start = common::live();
    let engine = TimeCryptServer::open(log, ServerConfig::default()).unwrap();
    for stream in 0..STREAMS {
        engine
            .create_stream(stream, 0, 10_000, WIDTH as u32)
            .unwrap();
    }
    for index in 0..CHUNKS {
        for first in (0..STREAMS).step_by(16) {
            let batch: Vec<_> = (first..first + 16)
                .map(|s| chunk(s, index, 6).to_bytes())
                .collect();
            let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
            assert!(engine.insert_bytes_run(&views).iter().all(Result::is_ok));
        }
    }
    let per_stream = (common::live() - start) / STREAMS as isize;
    println!("resident bytes per written stream: {per_stream}");
    // At least the run of 12-byte locations: the count sees the log.
    let floor = 12 * CHUNKS as isize;
    assert!(
        per_stream <= 6_000 && per_stream >= floor,
        "{per_stream} B per written stream"
    );
    drop(engine);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn deleting_a_stream_reads_no_value_bytes() {
    const CHUNKS: u64 = 1000;
    let path = tmp("delete");
    let log = Arc::new(LogKv::open(&path).unwrap());
    let svc = service(&log);
    svc.create_stream(7, 0, 10_000, WIDTH as u32).unwrap();
    for base in (0..CHUNKS).step_by(50) {
        let batch = (base..base + 50).map(|i| chunk(7, i, 50)).collect();
        assert!(svc.submit_batch(batch).iter().all(Result::is_ok));
    }
    let live = log.len();
    assert_eq!(live as u64, 1 + CHUNKS, "meta, chunks");
    let before = svc.kv().counters();
    assert!(matches!(
        svc.handle(Request::DeleteStream { stream: 7 }),
        Response::Ok
    ));
    let after = svc.kv().counters();
    assert_eq!(log.len(), 0, "every record of the stream is gone");
    // One delete per record the stream holds, and none for a record it
    // does not (it has no attestation).
    assert_eq!(after.deletes - before.deletes, live as u64);
    assert_eq!(
        (
            after.gets - before.gets,
            after.bytes_read - before.bytes_read
        ),
        (0, 0),
        "a delete enumerates keys; it must not fetch what it deletes"
    );
    drop(svc);
    std::fs::remove_file(path).unwrap();
}
