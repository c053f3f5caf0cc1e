//! Integration tests for the sharded service tier: concurrent producers
//! across shards, per-stream ordering under the batched ingest pipeline,
//! and the stats probe. Byte-identical equivalence with the single-engine
//! path is `placement_equivalence.rs`'s; the batching producer's round
//! trip is `multi_node_cluster.rs`'s.

use common::{keys, sealed, Deployment, Spec};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::core::heac::decrypt_range_sum;
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
