//! Deterministic guard for the shape of the statistical query path, beside
//! `ingest_path.rs`: a scatter-gather leg is one exchange and one fold.
//!
//! * a coordinator sends each remote shard's leg as one frame, whatever
//!   its length and whether or not its windows are empty — two shards on
//!   one node are two frames for an 8-stream query (the line this prints
//!   is what CI copies to the job summary), one shard's 300-stream leg is
//!   one;
//! * a scrape (`stats()`) asks each node once, however many shards it
//!   hosts or replicates — one frame for two shards on one node (printed
//!   and copied the same way);
//! * one engine, a shard node, an in-process coordinator and a remote one
//!   answer `GetStatRange` over the same store with the same bytes,
//!   errors and their precedence included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, ServerError, TimeCryptServer};
use timecrypt::service::{
    NodeConfig, ServiceConfig, ShardNode, ShardRouter, ShardSpec, ShardedService,
};
use timecrypt::store::{KvStore, MemKv};
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::transport::{Handler, Server};

/// A real node that counts the frames it is sent.
struct CountingNode {
    node: Arc<ShardNode>,
    frames: Arc<AtomicU64>,
}

impl Handler for CountingNode {
    fn handle(&self, req: Request) -> Response {
        self.node.handle(req)
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        self.frames.fetch_add(1, Ordering::SeqCst);
        self.node.handle_frame(body)
    }
}

fn node(store: Arc<dyn KvStore>, shards: usize) -> Arc<ShardNode> {
    let cfg = NodeConfig {
        total_shards: shards,
        hosted: (0..shards).collect(),
        engine: ServerConfig::default(),
    };
    Arc::new(ShardNode::open(store, cfg).unwrap())
}

/// A node hosting all `shards` over its own store, behind a frame counter,
/// and its address.
fn counting_node(shards: usize) -> (Server, Arc<AtomicU64>, String) {
    let frames = Arc::new(AtomicU64::new(0));
    let counting = CountingNode {
        node: node(Arc::new(MemKv::new()), shards),
        frames: frames.clone(),
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(counting)).unwrap();
    let addr = server.addr().to_string();
    (server, frames, addr)
}

fn coordinator(topology: Vec<ShardSpec>) -> ShardedService {
    let cfg = ServiceConfig {
        topology,
        ..ServiceConfig::default()
    };
    ShardedService::open(Arc::new(MemKv::new()), cfg).unwrap()
}

/// A counting node hosting all `shards`, and a coordinator that reaches
/// every shard on it.
fn one_node(shards: usize) -> (Server, Arc<AtomicU64>, ShardedService) {
    let (server, frames, addr) = counting_node(shards);
    let svc = coordinator(vec![ShardSpec::remote(addr); shards]);
    (server, frames, svc)
}

/// Chunk `index` of `stream`, its digest `width` words of `value`: the
/// server neither decrypts nor checks digests.
fn chunk(stream: u128, index: u64, width: usize, value: u64) -> EncryptedChunk {
    EncryptedChunk {
        stream,
        index,
        digest_ct: vec![value; width],
        payload: vec![index as u8; 3],
    }
}

/// `svc`'s reply to a query of `streams` over the first chunk interval,
/// and the frames the node received while it answered.
fn counted(
    svc: &ShardedService,
    frames: &AtomicU64,
    streams: &[u128],
) -> (Result<usize, String>, u64) {
    let before = frames.load(Ordering::SeqCst);
    let reply = svc.get_stat_range(streams, 0, 10_000);
    let reply = reply.map(|r| r.parts.len()).map_err(|e| e.to_string());
    (reply, frames.load(Ordering::SeqCst) - before)
}

#[test]
fn a_query_is_one_frame_per_shard_two_shards_on_one_node() {
    let (_node, frames, svc) = one_node(2);
    let router = ShardRouter::new(2);
    let on = |shard| (0..).filter(move |&id| router.shard_of(id) == shard);
    let streams: Vec<u128> = on(0).take(4).chain(on(1).take(4)).collect();
    for &id in &streams {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    // Every window empty: each leg stops at its first stream, and the
    // reply carries the width the query's precedence needs.
    let empty = Err(ServerError::EmptyRange.to_string());
    assert_eq!(counted(&svc, &frames, &streams), (empty, 2));
    for &id in &streams {
        svc.insert(&chunk(id, 0, 2, id as u64)).unwrap();
    }
    let (reply, exchanges) = counted(&svc, &frames, &streams);
    println!("node exchanges per 8-stream query, two shards on one node: {exchanges}");
    assert_eq!((reply, exchanges), (Ok(8), 2));
}

/// `svc.stats()`'s count of each shard's streams, and the frames each of
/// `nodes` received while it was taken.
fn scraped(svc: &ShardedService, nodes: &[&AtomicU64]) -> (Vec<u64>, Vec<u64>) {
    let before: Vec<u64> = nodes.iter().map(|n| n.load(Ordering::SeqCst)).collect();
    let streams = svc.stats().shards.iter().map(|s| s.streams).collect();
    let after = nodes.iter().map(|n| n.load(Ordering::SeqCst));
    (streams, after.zip(before).map(|(a, b)| a - b).collect())
}

#[test]
fn a_scrape_is_one_frame_per_node_two_shards_on_one_node() {
    let (_node, frames, svc) = one_node(2);
    let router = ShardRouter::new(2);
    let on = |shard| (0..).find(|&id| router.shard_of(id) == shard).unwrap();
    for id in [on(0), on(1)] {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let (streams, exchanges) = scraped(&svc, &[&frames]);
    println!(
        "node exchanges per scrape, two shards on one node: {}",
        exchanges[0]
    );
    assert_eq!((streams, exchanges), (vec![1, 1], vec![1]));
    // R=2 crosswise: each node is one shard's primary and the other's
    // backup, and is asked once.
    let (_a, frames_a, addr_a) = counting_node(2);
    let (_b, frames_b, addr_b) = counting_node(2);
    let svc = coordinator(vec![
        ShardSpec::remote(&addr_a).with_backup(&addr_b),
        ShardSpec::remote(&addr_b).with_backup(&addr_a),
    ]);
    for id in [on(0), on(1)] {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let (streams, exchanges) = scraped(&svc, &[&frames_a, &frames_b]);
    assert_eq!((streams, exchanges), (vec![1, 1], vec![1, 1]));
}

#[test]
fn a_300_stream_leg_is_one_frame() {
    const N: u128 = 300;
    let (_node, frames, svc) = one_node(1);
    let all: Vec<u128> = (0..N).collect();
    for &id in &all {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let empty = Err(ServerError::EmptyRange.to_string());
    assert_eq!(counted(&svc, &frames, &all), (empty, 1));
    let chunks = all.iter().map(|&id| chunk(id, 0, 2, 1)).collect();
    assert!(svc.submit_batch(chunks).iter().all(Result::is_ok));
    assert_eq!(counted(&svc, &frames, &all), (Ok(N as usize), 1));
}

#[test]
fn every_tier_answers_get_stat_range_with_the_same_bytes() {
    let store: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let engine = TimeCryptServer::open(store.clone(), ServerConfig::default()).unwrap();
    let router = ShardRouter::new(2);
    let mut on = [0, 1].map(|shard| (1..).filter(move |&id| router.shard_of(id) == shard));
    let mut next = |shard: usize| on[shard].next().unwrap();
    // Width 2 with data on both shards, width 3 with data, both widths
    // empty, and never registered.
    let (a, b, c) = (next(0), next(1), next(1));
    let (e, f) = (next(0), next(1));
    let (u0, u1) = (next(0), next(1));
    for (id, width, chunks) in [(a, 2, 3), (b, 2, 3), (c, 3, 3), (e, 2, 0), (f, 3, 0)] {
        engine.create_stream(id, 0, 10_000, width).unwrap();
        for index in 0..chunks {
            let value = ((id as u64) << 8) | index;
            engine
                .insert(&chunk(id, index, width as usize, value))
                .unwrap();
        }
    }
    // The other tiers over the same store.
    let node = node(store.clone(), 2);
    let local = ShardedService::open(
        store,
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", node.clone()).unwrap();
    let addr = server.addr().to_string();
    let remote = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![ShardSpec::remote(addr); 2],
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let tiers: [(&str, &dyn Handler); 4] = [
        ("engine", &engine),
        ("node", &*node),
        ("in-process coordinator", &local),
        ("remote coordinator", &remote),
    ];
    let ok = |parts| Ok::<usize, String>(parts);
    let err = |e: ServerError| Err::<usize, String>(e.to_string());
    let incompatible = || err(ServerError::IncompatibleStreams);
    let empty = || err(ServerError::EmptyRange);
    let table = [
        (vec![a, b], (0, 30_000), ok(2)),
        (vec![b, a], (10_000, 25_000), ok(2)),
        (vec![a, a, b, a], (0, 30_000), ok(4)),
        (vec![a, u0], (0, 30_000), err(ServerError::NoSuchStream(u0))),
        (vec![u1, a], (0, 30_000), err(ServerError::NoSuchStream(u1))),
        (vec![a, e], (0, 30_000), empty()),
        (vec![e, a], (0, 30_000), empty()),
        (vec![a, c], (0, 30_000), incompatible()),
        (vec![c, a], (0, 30_000), incompatible()),
        (vec![a, f], (0, 30_000), incompatible()),
        (vec![f, a], (0, 30_000), empty()),
        (vec![a, b, c, e], (0, 30_000), incompatible()),
        (vec![a, e, c], (0, 30_000), empty()),
        // Shard 1's leg fails at its first stream, after shard 0's first.
        (
            vec![a, u1, b],
            (0, 30_000),
            err(ServerError::NoSuchStream(u1)),
        ),
        (vec![a, f, c], (0, 30_000), incompatible()),
        (vec![e, u1], (0, 30_000), empty()),
        (vec![a, b], (0, 5_000), empty()),
        (vec![], (0, 30_000), empty()),
    ];
    for (streams, (ts_s, ts_e), want) in table {
        let req = Request::GetStatRange {
            streams: streams.clone(),
            ts_s,
            ts_e,
        };
        let replies = tiers.map(|(tier, handler)| (tier, handler.handle(req.clone())));
        let got = match &replies[0].1 {
            Response::Stat(reply) => Ok(reply.parts.len()),
            Response::Error(e) => Err(e.clone()),
            other => panic!("{streams:?}: {other:?}"),
        };
        assert_eq!(got, want, "{streams:?} [{ts_s}, {ts_e})");
        for (tier, reply) in &replies[1..] {
            assert_eq!(
                reply.encode(),
                replies[0].1.encode(),
                "{tier} on {streams:?} [{ts_s}, {ts_e}): {reply:?}"
            );
        }
    }
}
