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
//! that per stream, a row of the root `BENCH_ledger.json` compared exactly
//! (`TC_BLESS=1` rewrites it); CI copies the row to the job summary.

use common::{Deployment, Spec};
use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{LogKv, LogStats, MemKv};
use timecrypt::wire::messages::{Request, Response};

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const WIDTH: usize = 4;

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

/// 64 streams × 64 chunks, a batch holding one chunk of every stream, so
/// every chunk is its own run and its own store commit.
fn ingest(points: usize) -> LogStats {
    const STREAMS: u128 = 64;
    const CHUNKS: u64 = 64;
    let d = Deployment::build(&Spec::coordinator(2).on_disk());
    let svc = d.service();
    for stream in 0..STREAMS {
        svc.create_stream(stream, 0, 10_000, WIDTH as u32).unwrap();
    }
    for index in 0..CHUNKS {
        let batch = (0..STREAMS).map(|s| chunk(s, index, points)).collect();
        assert!(svc.submit_batch(batch).iter().all(Result::is_ok));
    }
    drop(svc);
    let stats = d.log(0).stats();
    assert_eq!(stats.log_bytes, std::fs::metadata(d.path(0)).unwrap().len());
    // Every record is written once: ingest supersedes nothing.
    assert_eq!(stats.dead_bytes, 0, "{points} points/chunk");
    stats
}

#[test]
fn index_footprint_is_independent_of_value_size() {
    let (small, large) = (ingest(50), ingest(500));
    assert_eq!(small.live_keys, large.live_keys);
    assert_eq!(small.index_bytes, large.index_bytes);
    // Per stream: its meta record and one record per chunk.
    assert_eq!(small.live_keys, 64 * (1 + 64));
    // The chunks are a run of block-coded locations, a few bytes each; the
    // meta record is an ordinary entry.
    assert!(small.index_bytes < 24 * small.live_keys, "{small:?}");
    assert_eq!(small.dead_bytes, large.dead_bytes);
    // Ten times the points is several times the log, and the same index.
    assert!(large.log_bytes > 4 * small.log_bytes, "{small:?} {large:?}");
    assert!(large.index_bytes * 4 < large.log_bytes, "{large:?}");
}

/// The fleet workload's shape through one engine over a `LogKv`: 256
/// streams × 175 six-point chunks of four-wide digests, 16 streams a batch,
/// one chunk each. Per stream, what the engine and the log then hold: the
/// directory entry, its length and last running sum, its ingest state and
/// the log's run of block-coded record locations — no cached sum, since
/// only a query's read fills the boundary cache.
#[test]
fn a_written_stream_holds_its_running_sum_and_its_record_locations() {
    const STREAMS: u128 = 256;
    const CHUNKS: u64 = 175;
    // The engine's open is part of what is counted, its log's is not: the
    // engine is opened by hand.
    let path = common::TempPath::new("written.log");
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
    // At least the run of record locations, a gap byte and a length byte
    // per chunk: the count sees the log.
    let floor = 2 * CHUNKS as isize;
    assert!(per_stream >= floor, "{per_stream} B per written stream");
    common::ledger(&[(
        "store_residency.fleet.resident_bytes_per_written_stream".into(),
        per_stream.to_string(),
    )]);
}

/// A resident stream's touch, counted: 64 streams of 4 chunks, each read
/// once so every one is resident, then 10 000 `stream_stat` calls round
/// robin over the whole of each stream, the benchmark's uncapped engine.
/// The row is the allocator calls a call makes, its query's and its touch's.
#[test]
fn a_resident_stat_allocates_only_for_its_query() {
    const STREAMS: u128 = 64;
    const CALLS: u64 = 10_000;
    let engine = TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap();
    for stream in 0..STREAMS {
        engine
            .create_stream(stream, 0, 10_000, WIDTH as u32)
            .unwrap();
        for index in 0..4 {
            engine.insert(&chunk(stream, index, 6)).unwrap();
        }
        engine.stream_stat(stream, 0, 40_000).unwrap();
    }
    let (calls, ()) = common::calls_of(|| {
        for call in 0..CALLS {
            let stat = engine.stream_stat(call as u128 % STREAMS, 0, 40_000);
            assert!(stat.unwrap().1.is_some());
        }
    });
    common::ledger(&[(
        "store_residency.resident_stat.allocations_per_call".into(),
        format!("{:.4}", calls as f64 / CALLS as f64),
    )]);
}

#[test]
fn deleting_a_stream_reads_no_value_bytes() {
    const CHUNKS: u64 = 1000;
    let d = Deployment::build(&Spec::coordinator(2).on_disk());
    let (svc, log) = (d.service(), d.log(0));
    svc.create_stream(7, 0, 10_000, WIDTH as u32).unwrap();
    for base in (0..CHUNKS).step_by(50) {
        let batch = (base..base + 50).map(|i| chunk(7, i, 50)).collect();
        assert!(svc.submit_batch(batch).iter().all(Result::is_ok));
    }
    let live = log.len();
    assert_eq!(live as u64, 1 + CHUNKS, "meta, chunks");
    let before = d.meter(0).counters();
    assert!(matches!(
        d.call(Request::DeleteStream { stream: 7 }),
        Response::Ok
    ));
    let after = d.meter(0).counters();
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
}
