//! Scale end-to-end: a replicated 2-node cluster whose engines hold a
//! bounded resident LRU must answer byte-identically to an uncapped
//! single-process deployment while storing far more streams than the cap
//! admits into RAM — including across primary failover and a paged
//! `ExportStream` / `ImportStream` replica rebuild.
//!
//! Sized for `cargo test` by default; crank it to the paper-scale run
//! with `TC_MANY_E2E_STREAMS=100000 TC_MANY_E2E_CAP=1000` (minutes, not
//! CI material).

use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::server::ServerConfig;
use timecrypt::service::{
    BackendSpec, NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService,
};
use timecrypt::store::MemKv;
use timecrypt::wire::messages::Request;
use timecrypt::wire::transport::{Handler, Server};

const DELTA_MS: u64 = 10_000;
/// Every `HOT_EVERY`-th stream gets chunks; the rest exist only in the
/// directory — the shape lazy hydration is for.
const HOT_EVERY: u128 = 25;
/// Chunks per hot stream: three sealed level-1 nodes and an 8-entry open
/// one at the default arity 64, so every rehydration the LRU churn forces
/// reads back a real spine — tail records and sealed siblings — not a
/// three-record stream.
const CHUNKS: u64 = 200;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn sealed(id: u128, index: u64, value: i64) -> EncryptedChunk {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, DELTA_MS)
    };
    let keys = timecrypt::core::StreamKeyMaterial::with_params(
        id,
        [(id as u8).wrapping_add(9); 16],
        22,
        timecrypt::crypto::PrgKind::Aes,
    )
    .unwrap();
    let mut rng = timecrypt::crypto::SecureRandom::from_seed_insecure(id as u64 ^ (index << 32));
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(index as i64 * DELTA_MS as i64, value)],
    }
    .seal(&cfg, &keys, &mut rng)
    .unwrap()
}

/// A node hosting the cluster's single shard with a bounded resident LRU.
fn spawn_capped_node(cap: usize) -> (Server, String) {
    let node = ShardNode::open(
        Arc::new(MemKv::new()),
        NodeConfig {
            total_shards: 1,
            hosted: vec![0],
            engine: ServerConfig {
                max_resident_streams: Some(cap),
                ..ServerConfig::default()
            },
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

/// Queries spanning hot, cold, and absent streams — enough distinct hot
/// streams to force LRU churn under a small cap.
fn battery(n: u128) -> Vec<Request> {
    let window = CHUNKS as i64 * DELTA_MS as i64;
    let hot: Vec<u128> = (1..=n).filter(|s| s % HOT_EVERY == 0).collect();
    let mut reqs = vec![
        Request::GetStatRange {
            streams: hot.clone(),
            ts_s: 0,
            ts_e: window,
        },
        // A cold (never-ingested) stream and an absent one mixed in.
        Request::GetStatRange {
            streams: vec![1, hot[0], n + 7],
            ts_s: 0,
            ts_e: window,
        },
        Request::GetRange {
            stream: hot[hot.len() / 2],
            ts_s: 0,
            ts_e: window,
        },
        Request::StreamInfo { stream: hot[0] },
        Request::StreamInfo { stream: 3 },
    ];
    for &s in hot.iter().take(8) {
        reqs.push(Request::GetStatRange {
            streams: vec![s],
            ts_s: DELTA_MS as i64 / 2,
            ts_e: window - DELTA_MS as i64 / 2,
        });
    }
    reqs
}

fn assert_identical(reference: &ShardedService, cluster: &ShardedService, n: u128, when: &str) {
    for q in battery(n) {
        let a = reference.handle(q.clone()).encode();
        let b = cluster.handle(q.clone()).encode();
        assert_eq!(a, b, "{when}: reply mismatch for {q:?}");
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn capped_cluster_matches_uncapped_reference_across_failover_and_rebuild() {
    let n = env_usize("TC_MANY_E2E_STREAMS", 400) as u128;
    let cap = env_usize("TC_MANY_E2E_CAP", 12);

    // Uncapped, never-failed, single-process reference: the oracle.
    let reference = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let (node_a, addr_a) = spawn_capped_node(cap);
    let (_node_b, addr_b) = spawn_capped_node(cap);
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

    // Directory-heavy workload: n streams, chunks only on every 25th.
    let mut ingested = 0u64;
    for id in 1..=n {
        reference.create_stream(id, 0, DELTA_MS, 2).unwrap();
        cluster.create_stream(id, 0, DELTA_MS, 2).unwrap();
        if id % HOT_EVERY == 0 {
            for i in 0..CHUNKS {
                let c = sealed(id, i, id as i64 + i as i64);
                reference.insert(&c).unwrap();
                cluster.insert(&c).unwrap();
                ingested += 1;
            }
        }
    }
    assert_identical(&reference, &cluster, n, "healthy capped cluster");

    // The cap held while the battery churned far more streams than fit.
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].streams, n as u64, "{snap:?}");
    assert!(
        snap.shards[0].resident_streams <= cap as u64,
        "resident exceeded the cap: {snap:?}"
    );
    assert!(
        snap.shards[0].hydrations >= snap.shards[0].resident_streams,
        "{snap:?}"
    );
    assert!(
        snap.shards[0].evictions > 0,
        "the battery should overflow a cap of {cap}: {snap:?}"
    );

    // Kill the primary: reads fail over to the capped backup and must
    // stay byte-identical; promotion restores writes.
    let mut node_a = node_a;
    node_a.shutdown();
    drop(node_a);
    assert_identical(&reference, &cluster, n, "after primary death");
    wait_for("promotion", || cluster.stats().shards[0].promotions == 1);

    // Rebuild a replacement (also capped) from the survivor's records —
    // the export must not be confused by most streams being cold on the
    // survivor, nor the import by most being cold on the replacement.
    let (_node_c, addr_c) = spawn_capped_node(cap);
    cluster
        .attach_replica(0, BackendSpec::Remote(addr_c))
        .unwrap();
    let snap = cluster.stats();
    assert_eq!(
        snap.shards[0].rebuild_chunks_copied, ingested,
        "every chunk copied exactly once: {snap:?}"
    );
    assert_identical(&reference, &cluster, n, "after rebuild");
    let snap = cluster.stats();
    assert!(
        snap.shards[0].resident_streams <= cap as u64,
        "cap violated after failover + rebuild: {snap:?}"
    );
}
