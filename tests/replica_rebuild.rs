//! End-to-end replica rebuild + automatic promotion: the full R=2 loop.
//!
//! A replicated shard's primary is killed mid-traffic. The coordinator
//! must (1) keep answering every query byte-identically (failover, then
//! automatic promotion of the write-mirrored backup) and lose no
//! acknowledged write, (2) accept a freshly attached replacement replica
//! and rebuild it from the survivor over the chunked `ExportStream`
//! protocol, and (3) survive a *second* primary death by promoting the
//! rebuilt replica — proving the rebuilt node answers reads with the
//! same bytes as a never-failed single-process deployment. A second test
//! rebuilds a replica while a writer appends, and fails over to it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::server::ServerConfig;
use timecrypt::service::{
    BackendSpec, NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService,
};
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::transport::{Handler, Server};

const STREAMS: [u128; 2] = [1, 2];
const BASE_CHUNKS: u64 = 5;

fn stream_cfg(id: u128) -> StreamConfig {
    StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, 10_000)
    }
}

fn sealed(id: u128, index: u64, value: i64) -> EncryptedChunk {
    let keys = timecrypt::core::StreamKeyMaterial::with_params(
        id,
        [(id as u8).wrapping_add(3); 16],
        22,
        timecrypt::crypto::PrgKind::Aes,
    )
    .unwrap();
    let mut rng = timecrypt::crypto::SecureRandom::from_seed_insecure(400 + index);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(index as i64 * 10_000, value)],
    }
    .seal(&stream_cfg(id), &keys, &mut rng)
    .unwrap()
}

/// A node hosting the cluster's single shard over its own store.
fn spawn_node() -> (Server, String) {
    let node = ShardNode::open(
        Arc::new(MemKv::new()),
        NodeConfig {
            total_shards: 1,
            hosted: vec![0],
            engine: ServerConfig::default(),
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

/// Inserts with retries: an acknowledged write is one that returned `Ok`.
/// During the promotion window writes fail un-acknowledged; the retries
/// must succeed once the backup is promoted.
fn insert_acked(svc: &ShardedService, chunk: &EncryptedChunk) {
    for _ in 0..500 {
        if svc.insert(chunk).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("write was never acknowledged — promotion did not restore write availability");
}

/// The read battery both deployments must answer with identical bytes.
fn battery(chunks: u64) -> Vec<Request> {
    let window = chunks as i64 * 10_000;
    vec![
        Request::GetStatRange {
            streams: STREAMS.to_vec(),
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: vec![2, 1],
            ts_s: 5_000,
            ts_e: window - 5_000,
        },
        Request::GetRange {
            stream: 1,
            ts_s: 0,
            ts_e: window,
        },
        Request::StreamInfo { stream: 2 },
        Request::GetStatRange {
            streams: vec![1, 99],
            ts_s: 0,
            ts_e: window,
        },
    ]
}

fn assert_identical(reference: &ShardedService, cluster: &ShardedService, chunks: u64, when: &str) {
    for q in battery(chunks) {
        let a = reference.handle(q.clone()).encode();
        let b = cluster.handle(q.clone()).encode();
        assert_eq!(a, b, "{when}: reply mismatch for {q:?}");
    }
}

#[test]
fn primary_death_promotes_then_replacement_rebuilds_and_survives_second_death() {
    // Never-failed single-process reference: the byte-identity oracle.
    let reference = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let (node_a, addr_a) = spawn_node();
    let (node_b, addr_b) = spawn_node();
    let cluster = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![ShardSpec::remote(&addr_a).with_backup(&addr_b)],
            pool: timecrypt::wire::pool::PoolConfig {
                connect_attempts: 2,
                backoff: Duration::from_millis(1),
                ..Default::default()
            },
            promote_after: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Phase 0: identical base workload to both deployments.
    for &id in &STREAMS {
        reference.create_stream(id, 0, 10_000, 2).unwrap();
        cluster.create_stream(id, 0, 10_000, 2).unwrap();
        for i in 0..BASE_CHUNKS {
            let c = sealed(id, i, (id as i64) * 7 + i as i64);
            reference.insert(&c).unwrap();
            cluster.insert(&c).unwrap();
        }
    }
    assert_identical(&reference, &cluster, BASE_CHUNKS, "healthy cluster");
    let prefix_reply = cluster
        .get_stat_range(&STREAMS, 0, BASE_CHUNKS as i64 * 10_000)
        .unwrap();

    // Phase 1: kill the primary mid-traffic. A query thread hammers the
    // stable prefix window the whole time — ZERO of its queries may fail
    // or change bytes (failover covers the gap, promotion closes it) —
    // while the main thread keeps writing; every write is retried until
    // acknowledged, and promotion must restore write availability.
    let mut node_a = node_a;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let queries_run = scope.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let reply = cluster
                    .get_stat_range(&STREAMS, 0, BASE_CHUNKS as i64 * 10_000)
                    .expect("queries must never fail during failover/promotion");
                assert_eq!(reply, prefix_reply, "failover reply changed bytes");
                n += 1;
            }
            n
        });
        node_a.shutdown();
        for i in BASE_CHUNKS..2 * BASE_CHUNKS {
            for &id in &STREAMS {
                insert_acked(&cluster, &sealed(id, i, (id as i64) * 7 + i as i64));
            }
        }
        stop.store(true, Ordering::Relaxed);
        assert!(queries_run.join().unwrap() > 0, "query thread never ran");
    });
    drop(node_a);

    // Every acknowledged write is durable on the promoted primary.
    for &id in &STREAMS {
        for i in BASE_CHUNKS..2 * BASE_CHUNKS {
            reference
                .insert(&sealed(id, i, (id as i64) * 7 + i as i64))
                .unwrap();
        }
        match cluster.handle(Request::StreamInfo { stream: id }) {
            Response::Info(info) => {
                assert_eq!(info.len, 2 * BASE_CHUNKS, "no acknowledged write lost")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_identical(&reference, &cluster, 2 * BASE_CHUNKS, "after promotion");
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].promotions, 1, "{snap:?}");
    assert!(snap.shards[0].failovers > 0, "{snap:?}");
    assert!(
        !snap.shards[0].in_sync,
        "promoted shard runs un-replicated until a replacement arrives: {snap:?}"
    );

    // Phase 2: attach a replacement replica; the call rebuilds it from the
    // survivor (chunked ExportStream pages), verifies chunk counts, and
    // re-arms mirroring before it returns.
    let (_node_c, addr_c) = spawn_node();
    cluster
        .attach_replica(0, BackendSpec::Remote(addr_c))
        .unwrap();
    let snap = cluster.stats();
    assert_eq!(
        snap.shards[0].rebuild_chunks_copied,
        STREAMS.len() as u64 * 2 * BASE_CHUNKS,
        "every chunk of every stream copied exactly once: {snap:?}"
    );

    // With the replica in sync, mirrored writes keep it in lock-step:
    // `replica_errors` must stop advancing.
    let drift_before = snap.shards[0].replica_errors;
    for &id in &STREAMS {
        let c = sealed(id, 2 * BASE_CHUNKS, 41 + id as i64);
        cluster.insert(&c).unwrap();
        reference.insert(&c).unwrap();
    }
    let snap = cluster.stats();
    assert_eq!(
        snap.shards[0].replica_errors, drift_before,
        "an in-sync replica does not drift: {snap:?}"
    );

    // Phase 3: kill the promoted primary too. Reads fail over to the
    // REBUILT replica and promote it — the rebuilt node answers with the
    // same bytes as the never-failed reference.
    let mut node_b = node_b;
    node_b.shutdown();
    drop(node_b);
    assert_identical(
        &reference,
        &cluster,
        2 * BASE_CHUNKS + 1,
        "rebuilt replica serving",
    );
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].promotions, 2, "second promotion: {snap:?}");
    // And the rebuilt node accepts writes as the new primary.
    for &id in &STREAMS {
        let c = sealed(id, 2 * BASE_CHUNKS + 1, 43 + id as i64);
        insert_acked(&cluster, &c);
        reference.insert(&c).unwrap();
    }
    assert_identical(
        &reference,
        &cluster,
        2 * BASE_CHUNKS + 2,
        "rebuilt replica as primary",
    );
}

/// A coordinator over one remote shard per topology entry, dialing fast.
fn open_cluster(spec: ShardSpec) -> ShardedService {
    let cfg = ServiceConfig {
        topology: vec![spec],
        pool: timecrypt::wire::pool::PoolConfig {
            connect_attempts: 2,
            backoff: Duration::from_millis(1),
            ..Default::default()
        },
        promote_after: 2,
        ..ServiceConfig::default()
    };
    ShardedService::open(Arc::new(MemKv::new()), cfg).unwrap()
}

#[test]
fn a_rebuild_racing_live_writes_converges() {
    // Eight streams hold a base load; a writer appends 50 runs of four
    // chunks (run k to stream k % 8) while the main thread attaches and
    // rebuilds a replica. Copy and mirroring race on every stream.
    const IDS: u128 = 8;
    const BASE: u64 = 16;
    const RUNS: u64 = 50;
    const RUN: u64 = 4;
    let value = |id: u128, i: u64| (id as i64) * 11 + i as i64;
    let reference = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let (node_a, addr_a) = spawn_node();
    let cluster = open_cluster(ShardSpec::remote(&addr_a));
    for id in 1..=IDS {
        cluster.create_stream(id, 0, 10_000, 2).unwrap();
        let base = (0..BASE).map(|i| sealed(id, i, value(id, i))).collect();
        assert!(cluster.submit_batch(base).iter().all(Result::is_ok));
    }
    let mut next = [BASE; IDS as usize];
    let runs: Vec<Vec<EncryptedChunk>> = (0..RUNS)
        .map(|k| {
            let id = (k as u128 % IDS) + 1;
            let first = next[id as usize - 1];
            next[id as usize - 1] += RUN;
            (first..first + RUN)
                .map(|i| sealed(id, i, value(id, i)))
                .collect()
        })
        .collect();
    let (_node_b, addr_b) = spawn_node();
    let start = Barrier::new(2);
    let attached = std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for run in runs {
                assert!(cluster.submit_batch(run).iter().all(Result::is_ok));
            }
        });
        start.wait();
        cluster.attach_replica(0, BackendSpec::Remote(addr_b))
    });
    attached.expect("the rebuild converged");
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].replica_errors, 0, "{snap:?}");
    assert!(snap.shards[0].in_sync, "{snap:?}");

    // The never-failed reference holds the same chunks.
    for id in 1..=IDS {
        reference.create_stream(id, 0, 10_000, 2).unwrap();
        let all = (0..next[id as usize - 1]).map(|i| sealed(id, i, value(id, i)));
        assert!(reference
            .submit_batch(all.collect())
            .iter()
            .all(Result::is_ok));
    }
    // Kill the primary: the rebuilt replica answers, and is promoted.
    let mut node_a = node_a;
    node_a.shutdown();
    drop(node_a);
    for id in 1..=IDS {
        let window = next[id as usize - 1] as i64 * 10_000;
        for q in [
            Request::StreamInfo { stream: id },
            Request::GetRange {
                stream: id,
                ts_s: 0,
                ts_e: window,
            },
            Request::GetStatRange {
                streams: vec![id],
                ts_s: 0,
                ts_e: window,
            },
        ] {
            let want = reference.handle(q.clone()).encode();
            assert_eq!(cluster.handle(q.clone()).encode(), want, "{q:?}");
        }
    }
    assert_eq!(cluster.stats().shards[0].promotions, 1);
}
