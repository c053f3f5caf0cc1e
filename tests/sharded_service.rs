//! Integration tests for the sharded service tier: concurrent producers
//! across shards, per-stream ordering under the batched ingest pipeline,
//! and byte-identical equivalence with the single-engine path.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::client::{BatchingProducer, InProc, Transport};
use timecrypt::core::heac::decrypt_range_sum;
use timecrypt::core::StreamKeyMaterial;
use timecrypt::crypto::{PrgKind, SecureRandom};
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::service::{ServiceConfig, ShardedService};
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::transport::Handler;

fn keys(id: u128) -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(id, [(id as u8).wrapping_add(3); 16], 22, PrgKind::Aes).unwrap()
}

fn stream_cfg(id: u128) -> StreamConfig {
    StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, 10_000)
    }
}

fn sealed(id: u128, index: u64, value: i64) -> EncryptedChunk {
    let mut rng = SecureRandom::from_seed_insecure(1000 + index);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(index as i64 * 10_000, value)],
    }
    .seal(&stream_cfg(id), &keys(id), &mut rng)
    .unwrap()
}

/// Many concurrent producers, one stream each, batched ingest: every chunk
/// must land, in order, on the right shard.
#[test]
fn concurrent_producers_preserve_per_stream_order() {
    const STREAMS: u128 = 16;
    const CHUNKS: u64 = 40;
    let svc = Arc::new(
        ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    for id in 0..STREAMS {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let handles: Vec<_> = (0..STREAMS)
        .map(|id| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                // Ship in small batches so batches from different threads
                // interleave inside every shard queue.
                for base in (0..CHUNKS).step_by(5) {
                    let batch: Vec<EncryptedChunk> = (base..base + 5)
                        .map(|i| sealed(id, i, (id as i64) * 100 + i as i64))
                        .collect();
                    for (i, r) in svc.submit_batch(batch).into_iter().enumerate() {
                        assert!(
                            r.is_ok(),
                            "stream {id} chunk {} rejected: {r:?}",
                            base + i as u64
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every stream has all chunks, and the aggregates decrypt correctly —
    // which can only hold if each stream's chunks arrived in index order.
    for id in 0..STREAMS {
        match svc.handle(Request::StreamInfo { stream: id }) {
            Response::Info(info) => assert_eq!(info.len, CHUNKS, "stream {id}"),
            other => panic!("unexpected {other:?}"),
        }
        let reply = svc
            .get_stat_range(&[id], 0, (CHUNKS as i64) * 10_000)
            .unwrap();
        let dec = decrypt_range_sum(&keys(id).tree, 0, CHUNKS, &reply.agg).unwrap();
        let expect: i64 = (0..CHUNKS as i64).map(|i| (id as i64) * 100 + i).sum();
        assert_eq!(dec[0] as i64, expect, "stream {id} sum");
        assert_eq!(dec[1], CHUNKS, "stream {id} count");
    }
    // All shards participated.
    let stats = svc.stats();
    assert_eq!(stats.shards.len(), 4);
    for shard in &stats.shards {
        assert!(shard.ingested_chunks > 0, "idle shard: {stats:?}");
    }
    assert_eq!(
        stats.shards.iter().map(|s| s.ingested_chunks).sum::<u64>(),
        STREAMS as u64 * CHUNKS
    );
}

/// The sharded service and a single engine, fed the same workload, must
/// produce byte-identical wire replies for every query — including errors.
#[test]
fn sharded_replies_match_single_engine_byte_for_byte() {
    const STREAMS: u128 = 9;
    const CHUNKS: u64 = 12;
    let single = TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap();
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 3,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Identical workload to both deployments (same chunk bytes: sealing is
    // deterministic given the same seed/key material).
    for id in 0..STREAMS {
        single.create_stream(id, 0, 10_000, 2).unwrap();
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    for id in 0..STREAMS {
        let chunks: Vec<EncryptedChunk> = (0..CHUNKS)
            .map(|i| sealed(id, i, (id as i64) * 7 + i as i64))
            .collect();
        for c in &chunks {
            single.insert(c).unwrap();
        }
        for r in svc.submit_batch(chunks) {
            r.unwrap();
        }
    }

    let all: Vec<u128> = (0..STREAMS).collect();
    let queries = vec![
        // Multi-stream scatter-gather across all shards.
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 0,
            ts_e: 120_000,
        },
        // Reversed order must reproduce reversed parts.
        Request::GetStatRange {
            streams: all.iter().rev().copied().collect(),
            ts_s: 0,
            ts_e: 120_000,
        },
        // Partial window.
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 15_000,
            ts_e: 95_000,
        },
        // Single stream.
        Request::GetStatRange {
            streams: vec![4],
            ts_s: 0,
            ts_e: 50_000,
        },
        // Raw range.
        Request::GetRange {
            stream: 5,
            ts_s: 0,
            ts_e: 70_000,
        },
        Request::StreamInfo { stream: 2 },
        // Error paths must match too.
        Request::GetStatRange {
            streams: vec![3, 99],
            ts_s: 0,
            ts_e: 120_000,
        },
        Request::GetStatRange {
            streams: vec![],
            ts_s: 0,
            ts_e: 120_000,
        },
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 0,
            ts_e: 1,
        },
        Request::StreamInfo { stream: 77 },
        Request::Ping,
    ];
    for q in queries {
        let a = single.handle(q.clone()).encode();
        let b = svc.handle(q.clone()).encode();
        assert_eq!(a, b, "reply mismatch for {q:?}");
    }
}

/// The batched wire path (`InsertBatch`) reports per-chunk errors with
/// batch positions, on both deployments identically.
#[test]
fn insert_batch_error_positions_match_single_engine() {
    let single = TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap();
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for engine_like in [&single as &dyn Handler, &svc as &dyn Handler] {
        engine_like.handle(Request::CreateStream {
            stream: 1,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        });
        engine_like.handle(Request::CreateStream {
            stream: 2,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        });
    }
    let batch = Request::InsertBatch {
        chunks: vec![
            sealed(1, 0, 5).to_bytes(),
            vec![0xde, 0xad], // malformed
            sealed(2, 0, 6).to_bytes(),
            sealed(1, 3, 9).to_bytes(), // out of order
            sealed(9, 0, 1).to_bytes(), // unknown stream
        ],
    };
    let a = single.handle(batch.clone());
    let b = svc.handle(batch);
    assert_eq!(
        a.encode(),
        b.encode(),
        "batch replies differ: {a:?} vs {b:?}"
    );
    match a {
        Response::Batch { errors } => {
            assert_eq!(errors.len(), 3);
            assert_eq!(errors[0].0, 1);
            assert_eq!(errors[1].0, 3);
            assert_eq!(errors[2].0, 4);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// End-to-end through the client: a `BatchingProducer` over the in-process
/// handler transport, then a consumer-style decrypt of a scatter-gather
/// aggregate.
#[test]
fn batching_producer_roundtrip_through_service() {
    let svc = Arc::new(
        ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let id = 42u128;
    svc.create_stream(id, 0, 10_000, 2).unwrap();
    let mut transport = InProc::new(svc.clone());
    let mut producer = BatchingProducer::new(
        stream_cfg(id),
        keys(id),
        SecureRandom::from_seed_insecure(5),
        4,
    );
    // 100 points at 1 Hz over Δ=10 s chunks → 10 full chunks.
    for i in 0..100i64 {
        producer
            .push(&mut transport, DataPoint::new(i * 1000, i))
            .unwrap();
    }
    producer.flush(&mut transport).unwrap();
    assert_eq!(producer.chunks_sent(), 10);
    assert!(producer.batches_sent() >= 3);
    let reply = match transport.call(&Request::GetStatRange {
        streams: vec![id],
        ts_s: 0,
        ts_e: 100_000,
    }) {
        Ok(Response::Stat(s)) => s,
        other => panic!("unexpected {other:?}"),
    };
    let dec = decrypt_range_sum(&keys(id).tree, 0, 10, &reply.agg).unwrap();
    assert_eq!(dec[0] as i64, (0..100i64).sum::<i64>());
    assert_eq!(dec[1], 100);
}

/// `Request::Stats` over the wire handler reports shard occupancy and the
/// metered store's traffic.
#[test]
fn stats_request_reports_service_state() {
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for id in 0..6u128 {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        svc.insert(&sealed(id, 0, 1)).unwrap();
    }
    match svc.handle(Request::Stats) {
        Response::ServiceStats(stats) => {
            assert_eq!(stats.shards.len(), 2);
            assert_eq!(stats.shards.iter().map(|s| s.streams).sum::<u64>(), 6);
            assert_eq!(
                stats.shards.iter().map(|s| s.ingested_chunks).sum::<u64>(),
                6
            );
            assert!(stats.store_puts > 0);
            assert!(
                stats
                    .shards
                    .iter()
                    .map(|s| s.ingest_hist_us.iter().sum::<u64>())
                    .sum::<u64>()
                    >= 6,
                "latency histogram populated"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // Single engines refuse the probe.
    let single = TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap();
    assert!(matches!(single.handle(Request::Stats), Response::Error(_)));
}
