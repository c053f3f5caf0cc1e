//! The single request dispatch of the three handlers (engine, shard node,
//! coordinator), driven from both `Handler` entry points.
//!
//! `handle` (owned `Request`) and `handle_frame` (frame bytes) are
//! adapters into one dispatch per handler, so a request script must get
//! identical encoded replies and leave identical stores whichever way it
//! enters. The root `tests/placement_equivalence.rs` drives every request
//! kind a client sends through both, on every tier; the script here holds
//! the kinds whose replies differ by tier, which it cannot compare there:
//! the replica-rebuild probes, a stat leg and stats.

use std::sync::Arc;
use timecrypt_chunk::serialize::EncryptedChunk;
use timecrypt_server::{keys, ServerConfig, ServerError, TimeCryptServer};
use timecrypt_service::{NodeConfig, ServiceConfig, ShardNode, ShardRouter, ShardedService};
use timecrypt_store::{KvStore, MemKv};
use timecrypt_wire::messages::{Refusal, RefusalKind, Request, Response, ShardStatsWire};
use timecrypt_wire::transport::Handler;

const DELTA_MS: u64 = 10_000;

/// Chunk `index` of `id`: the server neither decrypts nor checks digests.
fn sealed(id: u128, index: u64) -> EncryptedChunk {
    EncryptedChunk {
        stream: id,
        index,
        digest_ct: vec![index; 2],
        payload: vec![index as u8; 3],
    }
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

/// The requests whose replies differ by tier, after a stream `mine` of
/// three chunks and a chunk of `foreign` (never created; a node is opened
/// so that it does not host it): a shard's list (`shard`, then one no tier
/// has), a page of `mine` and one of `foreign`, an import page, the stats
/// and a stat leg.
fn script(mine: u128, foreign: u128, shard: u32) -> Vec<Request> {
    vec![
        Request::CreateStream {
            stream: mine,
            t0: 0,
            delta_ms: DELTA_MS,
            digest_width: 2,
        },
        Request::InsertBatch {
            chunks: [0, 1, 2]
                .map(|index| sealed(mine, index))
                .into_iter()
                .chain([sealed(foreign, 0)])
                .map(|chunk| chunk.to_bytes())
                .collect(),
        },
        Request::ListStreams { shard },
        Request::ListStreams { shard: 9 },
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
        Request::GetStatLeg {
            streams: vec![mine],
            ts_s: 0,
            ts_e: 3 * DELTA_MS as i64,
        },
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
    replies
}

/// What every handler must answer to the script, up to the refusal of
/// the `foreign` chunk and page (`foreign_error`, where the handler refuses
/// them; else the chunk is of no such stream), of shard 9 (`no_shard_9`:
/// an engine lists its streams whatever the shard), of the import
/// (`imported`: its page, no chunk, written, or the coordinator's refusal)
/// and of `Stats` (`stats_shards`: the shards reported, `None` on a bare
/// engine).
fn assert_expected(
    replies: &[Response],
    (mine, foreign): (u128, u128),
    foreign_error: Option<Refusal>,
    no_shard_9: Option<Refusal>,
    imported: bool,
    stats_shards: Option<&[u32]>,
) {
    assert_eq!(replies[0], Response::Ok, "create");
    let Response::Batch { errors } = &replies[1] else {
        panic!("expected a batch verdict, got {:?}", replies[1]);
    };
    let unhosted =
        (foreign_error.clone()).unwrap_or_else(|| ServerError::NoSuchStream(foreign).into());
    assert_eq!(errors, &[(3, unhosted)]);
    let listed = |reply: &Response| -> Vec<u128> {
        match reply {
            Response::StreamList(streams) => streams.clone(),
            other => panic!("expected a stream list, got {other:?}"),
        }
    };
    assert_eq!(listed(&replies[2]), vec![mine]);
    match no_shard_9 {
        Some(error) => assert_eq!(replies[3], Response::Error(error)),
        None => assert_eq!(listed(&replies[3]), vec![mine]),
    }
    match &replies[4] {
        // Chunks 1 and 2, then the registration record.
        Response::StreamChunks { records, done } => assert_eq!((records.len(), *done), (3, true)),
        other => panic!("expected an export page, got {other:?}"),
    }
    // An engine holds no record of a stream it never registered; a node
    // does not host the foreign one.
    match (&replies[5], foreign_error) {
        (Response::Error(e), Some(error)) => assert_eq!(e, &error),
        (other, _) => assert_eq!(
            other,
            &Response::StreamChunks {
                records: vec![],
                done: true
            }
        ),
    }
    // A page of raw records skips ingest's checks: no client writes one
    // through the coordinator.
    let refused =
        Response::Error(ServerError::Unavailable("request has no handler at this tier").into());
    let written = Response::Imported(0);
    assert_eq!(replies[6], if imported { written } else { refused });
    match (&replies[7], stats_shards) {
        (Response::ServiceStats(stats), Some(shards)) => {
            let reported: Vec<u32> = stats.shards.iter().map(|s| s.shard).collect();
            assert_eq!(reported, shards);
            let total = |f: fn(&ShardStatsWire) -> u64| stats.shards.iter().map(f).sum::<u64>();
            assert_eq!(total(|s| s.streams), 1);
            assert_eq!(total(|s| s.ingested_chunks), 3);
            assert!(stats.store_puts > 0 && stats.store_bytes_written > 0);
        }
        (Response::Error(e), None) => assert_eq!(e.kind, RefusalKind::Unavailable, "{e:?}"),
        (other, _) => panic!("unexpected stats reply {other:?}"),
    }
}

#[test]
fn engine_answers_tier_specific_requests_alike_from_both_entry_points() {
    let stores = [Arc::new(MemKv::new()), Arc::new(MemKv::new())];
    let [a, b] = stores
        .clone()
        .map(|kv| TimeCryptServer::open(kv, ServerConfig::default()).unwrap());
    let replies = drive(&a, &b, script(1, 3, 0));
    assert_expected(&replies, (1, 3), None, None, true, None);
    assert_eq!(dump(&*stores[0]), dump(&*stores[1]));
}

#[test]
fn shard_node_answers_tier_specific_requests_alike_from_both_entry_points() {
    let stores = [Arc::new(MemKv::new()), Arc::new(MemKv::new())];
    let [a, b] = stores.clone().map(|kv| {
        let cfg = NodeConfig {
            total_shards: 2,
            hosted: vec![0],
            engine: ServerConfig::default(),
        };
        ShardNode::open(kv, cfg).unwrap()
    });
    let mine = streams_on_shard(2, 0, 1)[0];
    let foreign = streams_on_shard(2, 1, 1)[0];
    let replies = drive(&a, &b, script(mine, foreign, 0));
    let not_hosted = ServerError::Unavailable("stream's shard is not hosted on this node");
    let not_hosted = Some(Refusal::from(not_hosted));
    let ids = (mine, foreign);
    assert_expected(
        &replies,
        ids,
        not_hosted.clone(),
        not_hosted,
        true,
        Some(&[0]),
    );
    assert_eq!(dump(&*stores[0]), dump(&*stores[1]));
}

#[test]
fn coordinator_answers_tier_specific_requests_alike_from_both_entry_points() {
    let stores = [Arc::new(MemKv::new()), Arc::new(MemKv::new())];
    let [a, b] = stores.clone().map(|kv| {
        let cfg = ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        };
        ShardedService::open(kv, cfg).unwrap()
    });
    let shard = ShardRouter::new(2).shard_of(1) as u32;
    let replies = drive(&a, &b, script(1, 3, shard));
    let no_shard = Some(ServerError::Unavailable("no such shard").into());
    assert_expected(&replies, (1, 3), None, no_shard, false, Some(&[0, 1]));
    assert_eq!(dump(&*stores[0]), dump(&*stores[1]));
}
