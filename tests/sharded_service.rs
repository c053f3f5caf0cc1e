//! Integration tests for the sharded service tier: concurrent producers
//! across shards, per-stream ordering under the batched ingest pipeline,
//! a producer's round trip and the stats probe. Byte-identical equivalence
//! with the single-engine path is `placement_equivalence.rs`'s.

use common::{keys, sealed, stream_cfg, Deployment, Spec};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::DataPoint;
use timecrypt::client::{BatchingProducer, InProc, Transport};
use timecrypt::core::heac::decrypt_range_sum;
use timecrypt::crypto::SecureRandom;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::transport::Handler;

mod common;

/// Many concurrent producers, one stream each, batched ingest: every chunk
/// must land, in order, on the right shard.
#[test]
fn concurrent_producers_preserve_per_stream_order() {
    const STREAMS: u128 = 16;
    const CHUNKS: u64 = 40;
    let svc = Deployment::build(&Spec::coordinator(4)).service();
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

/// End-to-end through the client: a `BatchingProducer` over the in-process
/// handler transport, then a consumer-style decrypt of a scatter-gather
/// aggregate.
#[test]
fn batching_producer_roundtrip_through_service() {
    let svc = Deployment::build(&Spec::coordinator(2)).service();
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
    let svc = Deployment::build(&Spec::coordinator(2)).service();
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
    let single = Deployment::build(&Spec::engine()).engine();
    assert!(matches!(single.handle(Request::Stats), Response::Error(_)));
}
