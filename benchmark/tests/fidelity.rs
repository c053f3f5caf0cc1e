//! Wrapper fidelity: replies through `Spanned<H>`, `TimedKv` and
//! `TimedTransport` are byte-identical to the bare handler, store and
//! transport, on both handler entry points, so tracing can never change the
//! path it measures.

use std::sync::Arc;
use timecrypt_benchmark::gen::{Shape, StreamData};
use timecrypt_benchmark::rng::Rng;
use timecrypt_benchmark::spans::{self, Layer, Spanned, TimedKv, TimedTransport};
use timecrypt_chunk::serialize::ChunkSealer;
use timecrypt_chunk::PlainChunk;
use timecrypt_client::{InProc, Transport};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::SecureRandom;
use timecrypt_server::ServerConfig;
use timecrypt_service::{NodeConfig, ServiceConfig, ShardNode, ShardedService};
use timecrypt_store::{KvStore, MemKv};
use timecrypt_wire::messages::Request;
use timecrypt_wire::transport::Handler;

const STREAM: u128 = 77;

/// `CreateStream`, then `Insert`, `InsertBatch`, `GetStatRange`, `GetRange`
/// — plus a rejected upload and a malformed window, so error replies are
/// compared too.
fn requests() -> Vec<Request> {
    let data = StreamData::generate(STREAM, Shape::mhealth(50), 20, &mut Rng::new(4, 0));
    let keys = StreamKeyMaterial::new(STREAM, [9; 16]).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(1);
    let mut sealer = ChunkSealer::new(&data.cfg, &keys);
    let sealed: Vec<Vec<u8>> = (0..data.chunks)
        .map(|c| {
            let chunk = PlainChunk {
                stream: STREAM,
                index: c,
                points: data.points(c).collect(),
            };
            sealer.seal(&chunk, &mut rng).unwrap().to_bytes()
        })
        .collect();
    vec![
        Request::CreateStream {
            stream: STREAM,
            t0: 0,
            delta_ms: data.shape.delta_ms,
            digest_width: data.shape.width() as u32,
        },
        Request::Insert {
            chunk: sealed[0].clone(),
        },
        Request::InsertBatch {
            chunks: sealed[1..17].to_vec(),
        },
        // Out of order: chunk 19 while 17 is next.
        Request::Insert {
            chunk: sealed[19].clone(),
        },
        Request::GetStatRange {
            streams: vec![STREAM],
            ts_s: data.chunk_start(2) - 7,
            ts_e: data.chunk_start(15) + 7,
        },
        Request::GetStatRange {
            streams: vec![STREAM],
            ts_s: 5,
            ts_e: 5,
        },
        Request::GetRange {
            stream: STREAM,
            ts_s: data.chunk_start(3),
            ts_e: data.chunk_start(9),
        },
    ]
}

fn node(kv: Arc<dyn KvStore>) -> ShardNode {
    ShardNode::open(
        kv,
        NodeConfig {
            total_shards: 2,
            hosted: vec![0, 1],
            engine: ServerConfig::default(),
        },
    )
    .unwrap()
}

fn coordinator() -> ShardedService {
    ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap()
}

/// Replies of `bare` and `wrapped` to the same request sequence, entered
/// through `handle` or through `handle_frame`.
fn assert_same_replies(bare: &dyn Handler, wrapped: &dyn Handler, frames: bool) {
    for (i, req) in requests().into_iter().enumerate() {
        let (a, b) = if frames {
            let body = req.encode();
            (bare.handle_frame(&body), wrapped.handle_frame(&body))
        } else {
            (bare.handle(req.clone()), wrapped.handle(req))
        };
        assert_eq!(a.encode(), b.encode(), "request {i} (frames: {frames})");
    }
}

#[test]
fn wrappers_never_change_replies() {
    spans::set_enabled(true);

    for frames in [false, true] {
        // Node handler over a timed store, against the bare node.
        let bare = node(Arc::new(MemKv::new()));
        let wrapped = Spanned::new(node(Arc::new(TimedKv::new(MemKv::new()))), Layer::Node);
        assert_same_replies(&bare, &wrapped, frames);

        // Coordinator handler.
        let bare = coordinator();
        let wrapped = Spanned::new(coordinator(), Layer::Coord);
        assert_same_replies(&bare, &wrapped, frames);
    }

    // The store itself.
    let (bare, timed) = (MemKv::new(), TimedKv::new(MemKv::new()));
    for kv in [&bare as &dyn KvStore, &timed] {
        kv.put(b"s/1/a", b"one").unwrap();
        kv.put(b"s/1/b", b"").unwrap();
        kv.put(b"t/2", &[0, 255, 7]).unwrap();
        kv.delete(b"s/1/b").unwrap();
        kv.delete(b"absent").unwrap();
    }
    for key in [&b"s/1/a"[..], b"s/1/b", b"t/2", b"absent"] {
        assert_eq!(bare.get(key).unwrap(), timed.get(key).unwrap());
    }
    let sorted = |kv: &dyn KvStore| {
        let mut pairs = kv.scan_prefix(b"s/").unwrap();
        pairs.sort();
        pairs
    };
    assert_eq!(sorted(&bare), sorted(&timed));

    // The client's transport (in process, so both sides see the same
    // handler state).
    let mut bare = InProc::new(Arc::new(node(Arc::new(MemKv::new()))));
    let mut timed = TimedTransport::new(InProc::new(Arc::new(node(Arc::new(MemKv::new())))));
    for (i, req) in requests().iter().enumerate() {
        let (a, b) = (bare.call(req), timed.call(req));
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a.encode(), b.encode(), "request {i}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "request {i}"),
            (a, b) => panic!("request {i}: {a:?} vs {b:?}"),
        }
    }
    // 1 + 16 accepted uploads, the out-of-order one not counted.
    assert_eq!(timed.uploaded_chunks(), 17);

    // And the wrappers did record while doing so.
    spans::set_enabled(false);
    let recorded = spans::drain();
    for layer in [Layer::Transport, Layer::Coord, Layer::Node, Layer::Store] {
        assert!(
            recorded.iter().any(|s| s.layer == layer),
            "no {layer:?} span"
        );
    }
    assert!(recorded.iter().all(|s| s.end_ns >= s.start_ns));
}
