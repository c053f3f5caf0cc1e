//! The single request dispatch of the three handlers (engine, shard node,
//! coordinator), driven from both `Handler` entry points, and the
//! byte-verbatim ingest path behind the coordinator.
//!
//! `handle` (owned `Request`) and `handle_frame` (frame bytes) are
//! adapters into one dispatch per handler, so a request script must get
//! identical encoded replies and leave identical stores whichever way it
//! enters — ingest (accepted and every rejection), live records, queries,
//! the replica-rebuild probes, stats and undecodable frames alike.

use std::sync::Arc;
use timecrypt_chunk::serialize::{EncryptedChunk, SealedRecord};
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_server::{keys, ServerConfig, ServerError, TimeCryptServer};
use timecrypt_service::{
    NodeConfig, ServiceConfig, ShardNode, ShardRouter, ShardSpec, ShardedService,
};
use timecrypt_store::{KvStore, MemKv};
use timecrypt_wire::messages::{Request, Response, ShardStatsWire};
use timecrypt_wire::transport::{Handler, Server};

const DELTA_MS: u64 = 10_000;

fn keys(id: u128) -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap()
}

fn sealed(id: u128, index: u64) -> EncryptedChunk {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "m", 0, DELTA_MS)
    };
    let mut rng = SecureRandom::from_seed_insecure(40 + index);
    PlainChunk {
        stream: id,
        index,
        points: vec![DataPoint::new((index * DELTA_MS) as i64, index as i64)],
    }
    .seal(&cfg, &keys(id), &mut rng)
    .unwrap()
}

fn live_record(id: u128, chunk: u64) -> Vec<u8> {
    let mut rng = SecureRandom::from_seed_insecure(77);
    let point = DataPoint::new((chunk * DELTA_MS) as i64, 1);
    SealedRecord::seal(id, chunk, 0, point, &keys(id).tree, &mut rng)
        .unwrap()
        .to_bytes()
}

fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut all = kv.scan_prefix(b"").unwrap();
    all.sort();
    all
}

/// The first `n` stream ids (from 1) owned by `shard` of `total`.
fn streams_on_shard(total: usize, shard: usize, n: usize) -> Vec<u128> {
    let router = ShardRouter::new(total);
    (1..10_000u128)
        .filter(|&id| router.shard_of(id) == shard)
        .take(n)
        .collect()
}

/// The shared script. `mine` gets created; `unknown` and `foreign` never
/// are — a shard node is opened so that it does not host `foreign`.
/// `shard` is the one owning `mine`.
fn script(mine: u128, unknown: u128, foreign: u128, shard: u32) -> Vec<Request> {
    vec![
        Request::CreateStream {
            stream: mine,
            t0: 0,
            delta_ms: DELTA_MS,
            digest_width: 2,
        },
        Request::Insert {
            chunk: sealed(mine, 0).to_bytes(),
        },
        Request::Insert { chunk: vec![9, 9] }, // malformed
        Request::InsertBatch {
            chunks: vec![
                sealed(mine, 1).to_bytes(),
                sealed(mine, 9).to_bytes(), // out of order
                vec![1, 2, 3],              // malformed
                sealed(unknown, 0).to_bytes(),
                sealed(foreign, 0).to_bytes(),
                sealed(mine, 2).to_bytes(),
            ],
        },
        Request::InsertLive {
            record: live_record(mine, 5),
        },
        Request::InsertLive {
            record: vec![1, 2, 3], // malformed, too short to route
        },
        Request::InsertLive {
            record: vec![7; 40], // malformed, routable
        },
        Request::InsertLive {
            record: live_record(mine, 0), // stale: chunk 0 is finalized
        },
        Request::GetStatRange {
            streams: vec![mine],
            ts_s: 0,
            ts_e: 3 * DELTA_MS as i64,
        },
        Request::StreamInfo { stream: mine },
        Request::StreamInfo { stream: unknown },
        Request::Ping,
        Request::ListStreams { shard },
        Request::ListStreams { shard: 9 }, // no such shard
        Request::ExportStream {
            stream: mine,
            after: keys::leaf(mine, 0).to_vec(),
        },
        Request::ExportStream {
            stream: foreign,
            after: vec![],
        },
        Request::ImportStream {
            stream: mine,
            after: vec![],
            records: vec![(keys::attestation(mine), vec![1])],
            done: false,
        },
        Request::Stats,
    ]
}

/// `resp` without what differs between two runs of one script: a stats
/// snapshot's latency histograms.
fn timeless(mut resp: Response) -> Response {
    if let Response::ServiceStats(stats) = &mut resp {
        for shard in &mut stats.shards {
            shard.ingest_hist_us.clear();
            shard.query_hist_us.clear();
        }
    }
    resp
}

/// Runs `script` through `handle` of one instance and `handle_frame` of
/// its twin, asserting identical encoded replies; returns the replies.
fn drive<H: Handler>(via_handle: &H, via_frame: &H, script: Vec<Request>) -> Vec<Response> {
    let mut replies = Vec::new();
    for req in script {
        let from_frame = timeless(via_frame.handle_frame(&req.encode()));
        let from_owned = timeless(via_handle.handle(req.clone()));
        assert_eq!(
            from_frame.encode(),
            from_owned.encode(),
            "replies diverge for {req:?}"
        );
        replies.push(from_owned);
    }
    // An undecodable frame renders as the transport's default does.
    let default = Handler::handle_frame(&|_req: Request| Response::Pong, &[200]);
    for handler in [via_handle, via_frame] {
        assert_eq!(handler.handle_frame(&[200]).encode(), default.encode());
    }
    replies
}

/// What every handler must answer to the script, up to the rendering of
/// the `foreign` entries (`foreign_error`), of shard 9 (`no_shard_9`:
/// an engine lists its streams whatever the shard), of the import
/// (`imported`: its page, no chunk, written, or the coordinator's
/// refusal) and of `Stats` (`stats_shards`: the shards reported, `None` on
/// a bare engine).
fn assert_expected(
    replies: &[Response],
    foreign_error: &str,
    no_shard_9: Option<&str>,
    imported: bool,
    stats_shards: Option<&[u32]>,
) {
    let error = |e: ServerError| Response::Error(e.to_string());
    assert_eq!(replies[0], Response::Ok, "create");
    assert_eq!(replies[1], Response::Ok, "insert");
    assert_eq!(replies[2], error(ServerError::BadChunk));
    let Response::Batch { errors } = &replies[3] else {
        panic!("expected a batch verdict, got {:?}", replies[3]);
    };
    let out_of_order = ServerError::OutOfOrderChunk {
        expected: 2,
        got: 9,
    };
    assert_eq!(errors.len(), 4, "{errors:?}");
    assert_eq!(errors[0], (1, out_of_order.to_string()));
    assert_eq!(errors[1], (2, ServerError::BadChunk.to_string()));
    assert_eq!(errors[2].0, 3);
    assert!(errors[2].1.contains("no such stream"), "{errors:?}");
    assert_eq!(errors[3].0, 4);
    assert!(errors[3].1.contains(foreign_error), "{errors:?}");
    assert_eq!(replies[4], Response::Ok, "live record");
    assert_eq!(replies[5], error(ServerError::BadRecord));
    assert_eq!(replies[6], error(ServerError::BadRecord));
    assert_eq!(
        replies[7],
        error(ServerError::StaleLiveRecord { chunk: 0, next: 3 })
    );
    match &replies[8] {
        Response::Stat(stat) => assert_eq!(stat.parts.len(), 1),
        other => panic!("expected a stat reply, got {other:?}"),
    }
    match &replies[9] {
        Response::Info(info) => assert_eq!(info.len, 3),
        other => panic!("expected stream info, got {other:?}"),
    }
    assert!(matches!(&replies[10], Response::Error(e) if e.contains("no such stream")));
    assert_eq!(replies[11], Response::Pong);
    let listed = |reply: &Response| -> Vec<u128> {
        match reply {
            Response::StreamList(streams) => streams.clone(),
            other => panic!("expected a stream list, got {other:?}"),
        }
    };
    let Response::Info(mine) = &replies[9] else {
        unreachable!("checked above");
    };
    let hosted = vec![mine.stream];
    assert_eq!(listed(&replies[12]), hosted);
    match no_shard_9 {
        Some(error) => assert!(
            matches!(&replies[13], Response::Error(e) if e.contains(error)),
            "{:?}",
            replies[13]
        ),
        None => assert_eq!(listed(&replies[13]), hosted),
    }
    match &replies[14] {
        // Chunks 1 and 2, then the registration record.
        Response::StreamChunks { records, done } => assert_eq!((records.len(), *done), (3, true)),
        other => panic!("expected an export page, got {other:?}"),
    }
    // An engine holds no record of a stream it never registered; a node
    // does not host the foreign one.
    match &replies[15] {
        Response::Error(e) => assert!(e.contains("not hosted") && e.contains(foreign_error)),
        other => assert_eq!(
            other,
            &Response::StreamChunks {
                records: vec![],
                done: true
            }
        ),
    }
    // A page of raw records skips ingest's checks: no client writes one
    // through the coordinator.
    let refused = error(ServerError::Unavailable(
        "request has no handler at this tier",
    ));
    let written = Response::Imported(0);
    assert_eq!(replies[16], if imported { written } else { refused });
    match (&replies[17], stats_shards) {
        (Response::ServiceStats(stats), Some(shards)) => {
            let reported: Vec<u32> = stats.shards.iter().map(|s| s.shard).collect();
            assert_eq!(reported, shards);
            let total = |f: fn(&ShardStatsWire) -> u64| stats.shards.iter().map(f).sum::<u64>();
            assert_eq!(total(|s| s.streams), 1);
            assert_eq!(total(|s| s.ingested_chunks), 3);
            assert!(stats.store_puts > 0 && stats.store_bytes_written > 0);
        }
        (Response::Error(e), None) => assert!(e.contains("single-engine"), "{e}"),
        (other, _) => panic!("unexpected stats reply {other:?}"),
    }
}

#[test]
fn engine_answers_identically_from_both_entry_points() {
    let stores = [Arc::new(MemKv::new()), Arc::new(MemKv::new())];
    let [a, b] = stores
        .clone()
        .map(|kv| TimeCryptServer::open(kv, ServerConfig::default()).unwrap());
    let replies = drive(&a, &b, script(1, 2, 3, 0));
    assert_expected(&replies, "no such stream", None, true, None);
    assert_eq!(dump(&*stores[0]), dump(&*stores[1]));
}

#[test]
fn shard_node_answers_identically_from_both_entry_points() {
    let stores = [Arc::new(MemKv::new()), Arc::new(MemKv::new())];
    let [a, b] = stores.clone().map(|kv| {
        let cfg = NodeConfig {
            total_shards: 2,
            hosted: vec![0],
            engine: ServerConfig::default(),
        };
        ShardNode::open(kv, cfg).unwrap()
    });
    let hosted = streams_on_shard(2, 0, 2);
    let foreign = streams_on_shard(2, 1, 1)[0];
    let replies = drive(&a, &b, script(hosted[0], hosted[1], foreign, 0));
    assert_expected(
        &replies,
        "not hosted on this node",
        Some("not hosted on this node"),
        true,
        Some(&[0]),
    );
    assert_eq!(dump(&*stores[0]), dump(&*stores[1]));
}

#[test]
fn coordinator_answers_identically_from_both_entry_points() {
    let stores = [Arc::new(MemKv::new()), Arc::new(MemKv::new())];
    let [a, b] = stores.clone().map(|kv| {
        let cfg = ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        };
        ShardedService::open(kv, cfg).unwrap()
    });
    let shard = ShardRouter::new(2).shard_of(1) as u32;
    let replies = drive(&a, &b, script(1, 2, 3, shard));
    assert_expected(
        &replies,
        "no such stream",
        Some("no such shard"),
        false,
        Some(&[0, 1]),
    );
    assert_eq!(dump(&*stores[0]), dump(&*stores[1]));
}

/// A two-shard cluster behind one coordinator: both shards in-process over
/// one store, or each on its own loopback node. Returns the coordinator,
/// the stores holding the shards' data, and the node servers to keep alive.
fn cluster(remote: bool) -> (ShardedService, Vec<Arc<MemKv>>, Vec<Server>) {
    if !remote {
        let kv = Arc::new(MemKv::new());
        let cfg = ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        };
        return (
            ShardedService::open(kv.clone(), cfg).unwrap(),
            vec![kv],
            vec![],
        );
    }
    let mut stores = Vec::new();
    let mut servers = Vec::new();
    let mut topology = Vec::new();
    for shard in 0..2 {
        let kv = Arc::new(MemKv::new());
        let cfg = NodeConfig {
            total_shards: 2,
            hosted: vec![shard],
            engine: ServerConfig::default(),
        };
        let node = ShardNode::open(kv.clone(), cfg).unwrap();
        let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
        topology.push(ShardSpec::remote(server.addr().to_string()));
        stores.push(kv);
        servers.push(server);
    }
    let cfg = ServiceConfig {
        topology,
        ..ServiceConfig::default()
    };
    let svc = ShardedService::open(Arc::new(MemKv::new()), cfg).unwrap();
    (svc, stores, servers)
}

/// The coordinator forwards the bytes it received: what the store holds
/// as a chunk's one record is exactly what the client put in the
/// `InsertBatch` frame past the chunk's position (which the key carries),
/// the digest summed into the stream's running sum, a raw read returns the
/// frame's bytes whole, and `submit_batch` of the
/// same chunks — serialized once on entry — joins the same path, down to
/// identical stores and verdicts.
#[test]
fn coordinator_stores_the_frames_chunk_bytes_verbatim() {
    for remote in [false, true] {
        let (by_wire, wire_stores, _wire_nodes) = cluster(remote);
        let (by_call, call_stores, _call_nodes) = cluster(remote);
        let streams: Vec<u128> = (1..=4).collect();
        for svc in [&by_wire, &by_call] {
            for &id in &streams {
                svc.create_stream(id, 0, DELTA_MS, 2).unwrap();
            }
        }
        // Three chunks per stream, streams interleaved; then an
        // out-of-order chunk and one of a stream nobody created.
        let mut batch: Vec<EncryptedChunk> = (0..3)
            .flat_map(|index| streams.iter().map(move |&id| sealed(id, index)))
            .collect();
        let accepted = batch.len();
        batch.push(sealed(1, 7));
        batch.push(sealed(9, 0));
        let sent: Vec<Vec<u8>> = batch.iter().map(EncryptedChunk::to_bytes).collect();

        let frame = Request::InsertBatch {
            chunks: sent.clone(),
        }
        .encode();
        let Response::Batch { errors } = by_wire.handle_frame(&frame) else {
            panic!("expected a batch verdict (remote={remote})");
        };
        let call_errors: Vec<(u32, String)> = by_call
            .submit_batch(batch)
            .into_iter()
            .enumerate()
            .filter_map(|(i, v)| v.err().map(|e| (i as u32, e.to_string())))
            .collect();
        assert_eq!(errors, call_errors, "verdicts (remote={remote})");
        assert_eq!(
            errors.iter().map(|(i, _)| *i as usize).collect::<Vec<_>>(),
            vec![accepted, accepted + 1]
        );

        let mut stored: Vec<Vec<u8>> = wire_stores
            .iter()
            .flat_map(|kv| kv.scan_prefix(keys::LEAF).unwrap())
            .map(|(_, value)| value)
            .collect();
        stored.sort();
        // Each record is the chunk's bytes with its stream's running sum
        // in place of its digest.
        let mut sums = std::collections::HashMap::new();
        let running = |bytes: &Vec<u8>| {
            let chunk = EncryptedChunk::from_bytes(bytes).unwrap();
            let sum: &mut Vec<u64> = sums.entry(chunk.stream).or_insert_with(|| vec![0; 2]);
            sum.iter_mut()
                .zip(&chunk.digest_ct)
                .for_each(|(s, d)| *s = s.wrapping_add(*d));
            let record = EncryptedChunk {
                digest_ct: sum.clone(),
                ..chunk
            };
            record.to_bytes()[EncryptedChunk::POSITION_LEN..].to_vec()
        };
        let mut expected: Vec<Vec<u8>> = sent[..accepted].iter().map(running).collect();
        expected.sort();
        assert_eq!(stored, expected, "stored values (remote={remote})");
        for kv in &wire_stores {
            assert!(kv.scan_prefix(b"c/").unwrap().is_empty(), "no second copy");
        }
        for &stream in &streams {
            let (ts_s, ts_e) = (0, 3 * DELTA_MS as i64);
            let Response::Chunks(read) = by_wire.handle(Request::GetRange { stream, ts_s, ts_e })
            else {
                panic!("expected chunks (remote={remote})");
            };
            let of_stream = |bytes: &&Vec<u8>| bytes[..16] == stream.to_le_bytes();
            let sent: Vec<_> = sent[..accepted].iter().filter(of_stream).collect();
            assert_eq!(read.iter().collect::<Vec<_>>(), sent, "raw read");
        }
        for (wire, call) in wire_stores.iter().zip(&call_stores) {
            assert_eq!(dump(&**wire), dump(&**call), "stores (remote={remote})");
        }
    }
}
