//! End-to-end trace propagation over a loopback multi-node cluster.
//!
//! The coordinator and nodes run in one process here, so they share the
//! observability crate's process-global flight recorder — the tests mint
//! a fresh random trace root per request and filter the ring by that
//! trace id, which keeps them independent of each other and of anything
//! else the test binary logs concurrently.

use std::sync::Arc;
use timecrypt_chunk::serialize::EncryptedChunk;
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_obs::trace::{self, TraceContext};
use timecrypt_server::ServerConfig;
use timecrypt_service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt_store::MemKv;
use timecrypt_wire::transport::Server;

fn keys(id: u128) -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap()
}

fn sealed_chunk(id: u128, index: u64, value: i64) -> EncryptedChunk {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, 10_000)
    };
    let mut rng = SecureRandom::from_seed_insecure(9);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new(index as i64 * 10_000, value)],
    }
    .seal(&cfg, &keys(id), &mut rng)
    .unwrap()
}

fn spawn_node(total: usize, hosted: Vec<usize>) -> (Server, String) {
    let node = ShardNode::open(
        Arc::new(MemKv::new()),
        NodeConfig {
            total_shards: total,
            hosted,
            engine: ServerConfig::default(),
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

/// Node-side `serve` span events recorded under `trace_id`: one per
/// request frame a node handled with that trace attached.
fn serve_spans(trace_id: u128) -> Vec<timecrypt_obs::Event> {
    timecrypt_obs::log::dump()
        .into_iter()
        .filter(|e| {
            e.target == "wire"
                && e.msg.starts_with("span serve")
                && e.trace.is_some_and(|t| t.trace_id == trace_id)
        })
        .collect()
}

/// One scatter-gather query across two remote nodes: every leg's
/// node-side span must carry the coordinator's trace id.
#[test]
fn scatter_gather_legs_share_the_coordinator_trace_id() {
    let (_na, addr_a) = spawn_node(2, vec![0]);
    let (_nb, addr_b) = spawn_node(2, vec![1]);
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![ShardSpec::remote(addr_a), ShardSpec::remote(addr_b)],
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    // Enough streams that both shards own some with overwhelming
    // probability (stream → shard is a stable hash).
    let streams: Vec<u128> = (0..16).collect();
    for &id in &streams {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        for r in svc.submit_batch(vec![sealed_chunk(id, 0, 7), sealed_chunk(id, 1, 8)]) {
            r.unwrap();
        }
    }

    let ctx = TraceContext::new_root();
    let reply = {
        let _g = trace::set_current(Some(ctx));
        svc.get_stat_range(&streams, 0, 2 * 10_000).unwrap()
    };
    assert_eq!(reply.parts.len(), streams.len());

    let spans = serve_spans(ctx.trace_id);
    // Two shards on two nodes ⇒ at least one served frame per node, all
    // under the one trace id (the filter); distinct span ids show the
    // legs were separately minted children, not one reused span.
    assert!(
        spans.len() >= 2,
        "expected >=2 node-side serve spans, got {}",
        spans.len()
    );
    let mut span_ids: Vec<u64> = spans.iter().map(|e| e.trace.unwrap().span_id).collect();
    span_ids.sort_unstable();
    span_ids.dedup();
    assert!(
        span_ids.len() >= 2,
        "scatter-gather legs must carry distinct child spans"
    );
}

/// A replicated write (primary + mirror on separate nodes) leaves one
/// node-side span per replica, both under the submitter's trace id.
#[test]
fn replicated_write_mirrors_the_trace_id() {
    let (_na, addr_a) = spawn_node(1, vec![0]);
    let (_nb, addr_b) = spawn_node(1, vec![0]);
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![ShardSpec::remote(addr_a).with_backup(addr_b)],
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    svc.create_stream(5, 0, 10_000, 2).unwrap();

    let ctx = TraceContext::new_root();
    {
        let _g = trace::set_current(Some(ctx));
        svc.insert(&sealed_chunk(5, 0, 3)).unwrap();
    }

    let spans = serve_spans(ctx.trace_id);
    assert!(
        spans.len() >= 2,
        "primary and mirror writes must both record the trace, got {} span(s)",
        spans.len()
    );
}
