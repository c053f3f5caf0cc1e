//! Multi-node deployment: a coordinator scatter-gathering over two shard
//! nodes, with replication and failover.
//!
//! Topology (everything on loopback here; in production each node is its
//! own process/machine started with the `timecrypt-node` binary):
//!
//! ```text
//!                    clients (wire Request/Response)
//!                        │
//!                        ▼
//!              coordinator  (ShardedService, topology = remote)
//!               shard 0 ──── primary node A, backup node B
//!               shard 1 ──── primary node B, backup node A
//!                        │ pooled TCP: one frame per shard's leg
//!                        │ (GetStatLeg) or batch (InsertBatch)
//!              ┌─────────┴──────────┐
//!              ▼                    ▼
//!          node A                node B
//!        (hosts shards         (hosts shards
//!         0 and 1 over          0 and 1 over
//!         its own store)        its own store)
//! ```
//!
//! Every shard's primary lives on one node and its backup on the other,
//! so either node can die and every shard keeps answering reads. Failure
//! behavior: mutations go primary-then-backup (a dead primary fails the
//! write — no split brain), reads fail over to the backup and tick the
//! shard's `failovers` counter in `Request::Stats`; after
//! `ServiceConfig::promote_after` consecutive primary failures the
//! backup is promoted and write availability returns (see
//! `tests/replica_rebuild.rs` for the full rebuild loop).
//!
//! ```sh
//! cargo run --example multi_node_cluster
//! ```

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::core::heac::decrypt_range_sum;
use timecrypt::core::StreamKeyMaterial;
use timecrypt::crypto::{PrgKind, SecureRandom};
use timecrypt::server::ServerConfig;
use timecrypt::service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt::store::MemKv;
use timecrypt::wire::transport::Server as TcpServer;

const TOTAL_SHARDS: usize = 2;
const STREAMS: u128 = 8;
const CHUNKS: u64 = 20;

fn keys(id: u128) -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(id, [id as u8 ^ 0x42; 16], 20, PrgKind::Aes).unwrap()
}

fn sealed(id: u128, index: u64) -> EncryptedChunk {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, 10_000)
    };
    let mut rng = SecureRandom::from_seed_insecure(index);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(
            index as i64 * 10_000,
            id as i64 + index as i64,
        )],
    }
    .seal(&cfg, &keys(id), &mut rng)
    .unwrap()
}

/// Boots one node hosting *all* shards over its own store (so it can act
/// as primary for some and backup for the rest).
fn spawn_node(name: &str) -> (TcpServer, String) {
    let node = ShardNode::open(
        Arc::new(MemKv::new()),
        NodeConfig {
            total_shards: TOTAL_SHARDS,
            hosted: (0..TOTAL_SHARDS).collect(),
            engine: ServerConfig::default(),
        },
    )
    .unwrap();
    let server = TcpServer::bind("127.0.0.1:0", Arc::new(node)).unwrap();
    let addr = server.addr().to_string();
    println!("node {name} listening on {addr} (shards 0..{TOTAL_SHARDS})");
    (server, addr)
}

fn main() {
    // ── Boot the cluster ────────────────────────────────────────────────
    let (node_a, addr_a) = spawn_node("A");
    let (_node_b, addr_b) = spawn_node("B");
    // Interleave primaries across nodes; each shard's backup is the other
    // node. The coordinator's own store is unused here (all-remote).
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![
                ShardSpec::remote(&addr_a).with_backup(&addr_b),
                ShardSpec::remote(&addr_b).with_backup(&addr_a),
            ],
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // ── Ingest through the coordinator (batched, replicated) ────────────
    for id in 0..STREAMS {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        let results = svc.submit_batch((0..CHUNKS).map(|i| sealed(id, i)).collect());
        assert!(results.iter().all(|r| r.is_ok()));
    }
    println!(
        "ingested {} chunks across {} streams",
        STREAMS as u64 * CHUNKS,
        STREAMS
    );

    // ── Scatter-gather query + client-side decrypt ──────────────────────
    let all: Vec<u128> = (0..STREAMS).collect();
    let window = CHUNKS as i64 * 10_000;
    let reply = svc.get_stat_range(&all, 0, window).unwrap();
    let mut agg = reply.agg.clone();
    for id in &all {
        agg = decrypt_range_sum(&keys(*id).tree, 0, CHUNKS, &agg).unwrap();
    }
    let expect: i64 = (0..STREAMS as i64)
        .map(|id| (0..CHUNKS as i64).map(|i| id + i).sum::<i64>())
        .sum();
    println!(
        "cluster-wide sum {} (expected {expect}), count {}",
        agg[0], agg[1]
    );
    assert_eq!(agg[0] as i64, expect);
    assert_eq!(agg[1], STREAMS as u64 * CHUNKS);

    // ── Kill node A; reads fail over to node B ──────────────────────────
    println!("killing node A ...");
    let mut node_a = node_a;
    node_a.shutdown();
    drop(node_a);
    let after = svc.get_stat_range(&all, 0, window).unwrap();
    assert_eq!(after, reply, "backup replicas serve identical data");
    let stats = svc.stats();
    let failovers: u64 = stats.shards.iter().map(|s| s.failovers).sum();
    println!("node A down — replies unchanged, {failovers} failover(s) recorded");

    // Writes to a shard whose primary died fail at first (no split
    // brain) — but each failure is a strike, and once a shard reaches
    // `promote_after` consecutive strikes its write-mirrored backup is
    // promoted to primary, restoring write availability automatically.
    // Retry per chunk (never resubmitting an acknowledged one: the
    // engine's strict next-index check would reject the duplicate).
    let mut attempts = 0u32;
    for id in 0..STREAMS {
        let chunk = sealed(id, CHUNKS);
        loop {
            attempts += 1;
            if svc.insert(&chunk).is_ok() {
                break;
            }
            assert!(
                attempts < 100,
                "promotion never restored write availability"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    let stats = svc.stats();
    let promotions: u64 = stats.shards.iter().map(|s| s.promotions).sum();
    println!(
        "writes restored after {attempts} attempt(s) — {promotions} backup(s) promoted to primary"
    );
    assert!(promotions > 0, "the dead primary's backup was promoted");
    // The promoted shards keep answering the original query identically
    // (the backup mirrored every acknowledged write), now extended by
    // the post-promotion batch.
    let extended = svc
        .get_stat_range(&all, 0, (CHUNKS as i64 + 1) * 10_000)
        .unwrap();
    assert_eq!(extended.parts.len(), STREAMS as usize);
    println!("post-promotion queries served by the promoted primaries");
}
