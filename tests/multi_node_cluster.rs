//! End-to-end multi-node cluster tests: a coordinator scatter-gathering
//! over shard nodes on loopback TCP must produce replies byte-identical
//! to the single-process sharded service (which is itself byte-identical
//! to a single engine), including error paths — and must keep doing so
//! after the primary node of a replicated shard is killed.

use common::{dial_fast, keys, same_replies, sealed, stream_cfg, Deployment, Spec};
use std::sync::Arc;
use std::time::Duration;
use timecrypt::chunk::DataPoint;
use timecrypt::client::{BatchingProducer, InProc, Transport};
use timecrypt::core::heac::decrypt_range_sum;
use timecrypt::crypto::SecureRandom;
use timecrypt::service::{ServiceConfig, ShardSpec, ShardedService};
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::pool::PoolConfig;
use timecrypt::wire::transport::Handler;

mod common;

const TOTAL_SHARDS: usize = 2;

/// Feeds each of `tiers` `streams` streams of `chunks` chunks, chunk `i`
/// of stream `id` holding `id · k + i`.
fn feed(tiers: [&ShardedService; 2], streams: u128, chunks: u64, k: i64) {
    for svc in tiers {
        for id in 0..streams {
            svc.create_stream(id, 0, 10_000, 2).unwrap();
            let run = (0..chunks).map(|i| sealed(id, i, id as i64 * k + i as i64));
            assert!(svc.submit_batch(run.collect()).iter().all(Result::is_ok));
        }
    }
}

/// The query battery both deployments must answer identically — happy
/// paths and error paths.
fn query_battery(streams: u128, chunks: u64) -> Vec<Request> {
    let all: Vec<u128> = (0..streams).collect();
    let window = chunks as i64 * 10_000;
    vec![
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: all.iter().rev().copied().collect(),
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 15_000,
            ts_e: window - 15_000,
        },
        Request::GetStatRange {
            streams: vec![3],
            ts_s: 0,
            ts_e: window / 2,
        },
        Request::GetRange {
            stream: 5,
            ts_s: 0,
            ts_e: window,
        },
        Request::StreamInfo { stream: 2 },
        // Error paths.
        Request::GetStatRange {
            streams: vec![3, 99],
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: vec![],
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: all,
            ts_s: 0,
            ts_e: 1,
        },
        Request::StreamInfo { stream: 77 },
        Request::Ping,
    ]
}

/// A 2-node replicated cluster and a single-process service, fed the same
/// workload, answer the battery byte-identically — before *and after* one
/// node is killed (reads fail over to the surviving replicas).
#[test]
fn two_node_cluster_replies_match_single_process_even_after_killing_a_node() {
    const STREAMS: u128 = 8;
    const CHUNKS: u64 = 10;

    // Single-process reference deployment.
    let reference = Deployment::build(&Spec::coordinator(TOTAL_SHARDS)).service();

    // Cluster: shard 0 primary on node A (backup B), shard 1 primary on
    // node B (backup A).
    let d = Deployment::build(&Spec::remote(TOTAL_SHARDS, 2, 2).service(dial_fast(3)));
    let cluster = d.service();

    // Identical workload to both (sealing is deterministic per seed/key).
    feed([&reference, &cluster], STREAMS, CHUNKS, 3);

    same_replies(
        &*reference,
        &*cluster,
        query_battery(STREAMS, CHUNKS),
        "healthy",
    );

    // Kill node A: every shard still has a live replica (shard 0's backup,
    // shard 1's primary — both on node B).
    d.kill(0);

    let battery = query_battery(STREAMS, CHUNKS);
    same_replies(&*reference, &*cluster, battery, "after node kill");
    let stats = cluster.stats();
    assert!(
        stats.shards.iter().map(|s| s.failovers).sum::<u64>() > 0,
        "failovers recorded: {stats:?}"
    );
}

/// Replication metrics are exact, not merely non-zero: a backup outage
/// ticks `replica_errors` once per *primary-accepted* write (chunks the
/// primary itself rejected never diverged the replicas), and a primary
/// outage ticks `failovers` once per backup-served read — including the
/// stream-count probe behind `stats()`. Promotion is disabled so the
/// counters keep advancing deterministically.
#[test]
fn replication_metrics_are_exact_under_induced_outages() {
    let replicated_cluster = || {
        // One replicated shard: every stream lands on it, so expected
        // counter values follow directly from the ops.
        let d = Deployment::build(&Spec::remote(1, 2, 2).service(dial_fast(0)));
        let svc = d.service();
        svc.create_stream(1, 0, 10_000, 2).unwrap();
        svc.insert(&sealed(1, 0, 3)).unwrap();
        svc.insert(&sealed(1, 1, 4)).unwrap();
        let snap = svc.stats();
        assert_eq!(snap.shards[0].failovers, 0, "healthy cluster: {snap:?}");
        assert_eq!(
            snap.shards[0].replica_errors, 0,
            "healthy cluster: {snap:?}"
        );
        assert!(snap.shards[0].in_sync, "{snap:?}");
        (d, svc)
    };

    // Backup outage: writes keep landing on the primary; every
    // primary-accepted write counts one replica error, rejected writes
    // count none, and reads never fail over.
    let (d, svc) = replicated_cluster();
    d.kill(1);
    svc.insert(&sealed(1, 2, 5)).unwrap(); // accepted → +1
    let err = svc.insert(&sealed(1, 9, 6)); // out of order → rejected → +0
    assert!(err.is_err());
    svc.insert(&sealed(1, 3, 7)).unwrap(); // accepted → +1
    svc.get_stat_range(&[1], 0, 40_000).unwrap(); // primary-served → +0
    let snap = svc.stats();
    assert_eq!(
        snap.shards[0].replica_errors, 2,
        "exactly the two primary-accepted writes diverged: {snap:?}"
    );
    assert_eq!(snap.shards[0].failovers, 0, "no read failed over: {snap:?}");
    assert!(
        !snap.shards[0].in_sync,
        "a backup that missed an acknowledged write is demoted: {snap:?}"
    );
    drop((svc, d));

    // Primary outage: every read (scatter-gather leg or stream-count
    // probe) fails over and is counted; the backup is never written, so
    // `replica_errors` stays put while writes fail cleanly.
    let (d, svc) = replicated_cluster();
    d.kill(0);
    for _ in 0..3 {
        svc.get_stat_range(&[1], 0, 20_000).unwrap(); // backup-served → +1 each
    }
    assert!(
        svc.insert(&sealed(1, 2, 5)).is_err(),
        "writes need the primary"
    );
    let snap = svc.stats();
    assert_eq!(
        snap.shards[0].failovers, 4,
        "3 failover queries + the stats() stream-count probe itself: {snap:?}"
    );
    assert_eq!(
        snap.shards[0].replica_errors, 0,
        "an untouched backup never drifts: {snap:?}"
    );
    assert_eq!(snap.shards[0].promotions, 0, "promotion disabled: {snap:?}");
    assert!(
        snap.shards[0].in_sync,
        "the backup stays in sync — it missed nothing acknowledged: {snap:?}"
    );
}

/// Mixed placement — one local shard, one remote — behaves exactly like
/// the all-local service for the same workload, and the batched wire
/// ingest path reports identical per-chunk error positions.
#[test]
fn mixed_local_remote_topology_matches_all_local() {
    const STREAMS: u128 = 6;
    const CHUNKS: u64 = 8;
    let all_local = Deployment::build(&Spec::coordinator(TOTAL_SHARDS)).service();
    // A node of both shards serving the second, beside the coordinator's own.
    let node = Deployment::build(&Spec::node(TOTAL_SHARDS));
    let mixed = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![
                ShardSpec::local(),
                ShardSpec::remote(node.serve().to_string()),
            ],
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    feed([&all_local, &mixed], STREAMS, CHUNKS, 5);
    same_replies(&*all_local, &mixed, query_battery(STREAMS, CHUNKS), "mixed");

    // Batched wire path with mixed verdicts: positions + strings must
    // match wherever each chunk's shard runs.
    let batch = Request::InsertBatch {
        chunks: vec![
            sealed(1, CHUNKS, 1).to_bytes(),
            vec![0xde, 0xad],                    // malformed
            sealed(2, CHUNKS + 3, 1).to_bytes(), // out of order
            sealed(99, 0, 1).to_bytes(),         // unknown stream
            sealed(3, CHUNKS, 1).to_bytes(),
        ],
    };
    let a = all_local.handle(batch.clone());
    let b = mixed.handle(batch);
    assert_eq!(
        a.encode(),
        b.encode(),
        "batch verdicts differ: {a:?} vs {b:?}"
    );
}

/// The client stack (BatchingProducer + consumer-style decrypt) works
/// unchanged against a cluster coordinator: ingest crosses the wire to
/// the owning node, the aggregate decrypts to the right closed form.
#[test]
fn batching_producer_roundtrip_through_cluster() {
    let d = Deployment::build(&Spec::remote(TOTAL_SHARDS, 2, 1));
    let svc = d.service();
    let id = 42u128;
    svc.create_stream(id, 0, 10_000, 2).unwrap();
    let mut transport = InProc::new(svc.clone());
    let mut producer = BatchingProducer::new(
        stream_cfg(id),
        keys(id),
        SecureRandom::from_seed_insecure(5),
        4,
    );
    for i in 0..100i64 {
        producer
            .push(&mut transport, DataPoint::new(i * 1000, i))
            .unwrap();
    }
    producer.flush(&mut transport).unwrap();
    assert_eq!(producer.chunks_sent(), 10);
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

/// A node restart with a persistent store recovers its shards' streams;
/// the coordinator's pooled connections reconnect (with backoff) and keep
/// serving without being rebuilt.
#[test]
fn node_restart_recovers_and_coordinator_reconnects() {
    let d = Deployment::build(&Spec::remote(1, 1, 1).on_disk().service(ServiceConfig {
        pool: PoolConfig {
            connect_attempts: 8,
            backoff: Duration::from_millis(2),
            ..Default::default()
        },
        ..ServiceConfig::default()
    }));
    let svc = d.service();
    svc.create_stream(1, 0, 10_000, 2).unwrap();
    svc.insert(&sealed(1, 0, 11)).unwrap();
    let before = svc.get_stat_range(&[1], 0, 10_000).unwrap();

    // Restart the node on the same address, recovering from the log.
    d.restart(0);

    let after = svc.get_stat_range(&[1], 0, 10_000).unwrap();
    assert_eq!(before, after, "recovered node serves identical data");
    // Ingest resumes where the stream left off.
    svc.insert(&sealed(1, 1, 12)).unwrap();
    match svc.handle(Request::StreamInfo { stream: 1 }) {
        Response::Info(i) => assert_eq!(i.len, 2),
        other => panic!("unexpected {other:?}"),
    }
}
