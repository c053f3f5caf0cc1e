//! Failover and rebuild of a replicated shard on loopback TCP.
//!
//! One shard, primary + backup nodes (R=2), each over its own `MemKv`. The
//! primary is killed mid-ingest: `promotion_ms` is the wall time until a
//! write is acknowledged again (strike accumulation + automatic backup
//! promotion), `rebuild_ms` is the `attach_replica` call, which returns
//! once the replacement is in sync (every stream's records copied from the
//! survivor), and `post_rebuild_query_ops_s` is scatter-gather throughput
//! back at R=2.
//!
//! No arguments. One JSON object on stdout; exits non-zero if promotion
//! does not complete within a minute, the rebuild gives up, or a
//! post-rebuild reply differs from a single engine's over the same chunks.
//! Timings are printed, never compared.

use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt_bench::workload::presealed;
use timecrypt_server::{ServerConfig, TimeCryptServer};
use timecrypt_service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt_store::MemKv;
use timecrypt_wire::messages::StatReply;
use timecrypt_wire::pool::PoolConfig;
use timecrypt_wire::transport::Server;

const STREAMS: usize = 32;
const CHUNKS: usize = 64;
const QUERY_THREADS: usize = 8;
const QUERIES: usize = 200;
/// Streams per scatter-gather query.
const GROUP: usize = 8;
const WINDOW: i64 = CHUNKS as i64 * 10_000;
const GIVE_UP: Duration = Duration::from_secs(60);

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

/// The `GROUP` consecutive stream ids (wrapping) starting at `first`.
fn group(first: usize) -> Vec<u128> {
    (0..GROUP)
        .map(|i| ((first + i) % STREAMS) as u128)
        .collect()
}

fn main() {
    let workload = presealed(STREAMS, CHUNKS as u64);
    // What every post-rebuild query must return: a single engine's reply
    // over the same chunks (the service's replies are byte-identical).
    let expected: Vec<StatReply> = {
        let engine =
            TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap();
        for (id, chunks) in workload.iter().enumerate() {
            engine.create_stream(id as u128, 0, 10_000, 2).unwrap();
            for chunk in chunks {
                engine.insert(chunk).unwrap();
            }
        }
        (0..STREAMS)
            .map(|first| engine.get_stat_range(&group(first), 0, WINDOW).unwrap())
            .collect()
    };

    let (mut node_a, addr_a) = spawn_node();
    let (_node_b, addr_b) = spawn_node();
    let svc = ShardedService::open(
        Arc::new(MemKv::new()), // coordinator-local store unused: the shard is remote
        ServiceConfig {
            topology: vec![ShardSpec::remote(addr_a).with_backup(addr_b)],
            pool: PoolConfig {
                connect_attempts: 2,
                backoff: Duration::from_millis(1),
                ..PoolConfig::default()
            },
            promote_after: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for id in 0..STREAMS as u128 {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    // First half of every stream lands while both replicas are healthy.
    let half = CHUNKS / 2;
    for chunks in &workload {
        for r in svc.submit_batch(chunks[..half].to_vec()) {
            r.unwrap();
        }
    }
    // Kill the primary mid-ingest; keep writing until a write is
    // acknowledged again — that wall time is the promotion latency.
    node_a.shutdown();
    drop(node_a);
    let t = Instant::now();
    while svc.insert(&workload[0][half]).is_err() {
        assert!(
            t.elapsed() < GIVE_UP,
            "promotion never restored write availability"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let promotion_ms = t.elapsed().as_secs_f64() * 1e3;
    for (id, chunks) in workload.iter().enumerate() {
        let rest = if id == 0 { half + 1 } else { half };
        for r in svc.submit_batch(chunks[rest..].to_vec()) {
            r.unwrap();
        }
    }
    // Attach a replacement: the call returns with it rebuilt.
    let (_node_c, addr_c) = spawn_node();
    let t = Instant::now();
    svc.attach_replica(0, addr_c).unwrap();
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let rebuild_chunks_copied = svc.stats().shards[0].rebuild_chunks_copied;
    // Query throughput with the shard back at R=2.
    let t = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..QUERY_THREADS {
            let (svc, expected) = (&svc, &expected);
            scope.spawn(move || {
                for q in (p..QUERIES).step_by(QUERY_THREADS) {
                    let first = q % STREAMS;
                    let reply = svc.get_stat_range(&group(first), 0, WINDOW).unwrap();
                    assert_eq!(reply, expected[first], "wrong reply for group {first}");
                }
            });
        }
    });
    let post_rebuild_query_ops_s = QUERIES as f64 / t.elapsed().as_secs_f64();
    println!(
        "{{\"bench\":\"failover_rebuild\",\"streams\":{STREAMS},\"chunks_per_stream\":{CHUNKS},\"query_threads\":{QUERY_THREADS},\"promotion_ms\":{promotion_ms:.1},\"rebuild_ms\":{rebuild_ms:.1},\"rebuild_chunks_copied\":{rebuild_chunks_copied},\"queries\":{QUERIES},\"post_rebuild_query_ops_s\":{post_rebuild_query_ops_s:.0}}}"
    );
}
