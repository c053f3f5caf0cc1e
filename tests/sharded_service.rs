//! Integration tests for the sharded service tier: concurrent producers
//! across shards, per-stream ordering under the batched ingest pipeline,
//! and the stats probe. Byte-identical equivalence with the single-engine
//! path is `placement_equivalence.rs`'s; the batching producer's round
//! trip is `multi_node_cluster.rs`'s.

use common::{keys, sealed, Deployment, Fault, Spec};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::core::heac::decrypt_range_sum;
use timecrypt::faults::{FaultPlan, FileCall, FileFault, FileRule, Trigger};
use timecrypt::store::StoreCounters;
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
/// store's own traffic counters.
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

/// A node's `Stats` store fields are its log's own counters after every
/// kind of store call, with a `FaultyFile` under the log too: a call whose
/// read the file fails is counted all the same.
#[test]
fn node_stats_are_its_logs_counters() {
    let quiet = Spec::node(2).fault(Fault::File(FaultPlan::quiet()));
    for spec in [Spec::node(2), quiet] {
        let (d, faulty) = (Deployment::build(&spec), !spec.faults.is_empty());
        // Every fifth read fails once the node is open (a node that failed
        // to open would count nothing).
        if faulty {
            d.faulty(0)
                .set_plan(FaultPlan::quiet().with_file_rule(FileRule {
                    call: FileCall::ReadAt,
                    when: Trigger::EveryNth(5),
                    fault: FileFault::Error,
                }));
        }
        for stream in 0..6u128 {
            let (t0, delta_ms, digest_width) = (0, 10_000, 2);
            d.call(Request::CreateStream {
                stream,
                t0,
                delta_ms,
                digest_width,
            });
            for index in 0..3 {
                let chunk = sealed(stream, index, 1).to_bytes();
                d.call(Request::Insert { chunk });
            }
        }
        let (ts_s, ts_e) = (0, 30_000);
        for stream in 0..6u128 {
            let streams = vec![stream];
            d.call(Request::GetStatRange {
                streams,
                ts_s,
                ts_e,
            });
            d.call(Request::GetRange { stream, ts_s, ts_e });
        }
        d.call(Request::DeleteStream { stream: 0 });
        let (stats, log) = (d.node(0).stats(), d.log(0).counters());
        let reported = StoreCounters {
            gets: stats.store_gets,
            puts: stats.store_puts,
            deletes: stats.store_deletes,
            scans: stats.store_scans,
            bytes_read: stats.store_bytes_read,
            bytes_written: stats.store_bytes_written,
        };
        assert_eq!(reported, log);
        let kinds = [log.gets, log.puts, log.deletes, log.scans, log.bytes_read];
        assert!(kinds.iter().all(|&n| n > 0), "{log:?}");
        if faulty {
            assert!(d.faulty(0).injected_total() > 0, "no read failed");
        }
    }
}
