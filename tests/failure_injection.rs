//! Failure-injection integration tests: the system must fail *closed* under
//! tampering, corruption, and protocol misuse.

use std::sync::Arc;
use timecrypt::chunk::serialize::{EncryptedChunk, SealedRecord};
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProcess, Producer, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::faults::{FaultPlan, FaultyKv, OpKind, StoreFault, StoreRule, Trigger};
use timecrypt::index::keys;
use timecrypt::server::keystore::KeyStore;
use timecrypt::server::{ServerConfig, ServerError, TimeCryptServer};
use timecrypt::service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt::store::{KvStore, MemKv};
use timecrypt::wire::messages::StatReply;
use timecrypt::wire::transport::{Handler, Server};
use timecrypt::wire::{Request, Response};

fn setup() -> (Arc<TimeCryptServer>, InProcess, StreamConfig, DataOwner) {
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let t = InProcess::new(server.clone());
    let cfg = StreamConfig::new(11, "m", 0, 10_000);
    let owner = DataOwner::with_height(
        cfg.clone(),
        [4u8; 16],
        20,
        SecureRandom::from_seed_insecure(1),
    );
    (server, t, cfg, owner)
}

fn ingest(t: &mut InProcess, cfg: &StreamConfig, owner: &DataOwner, secs: i64) {
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    for s in 0..secs {
        p.push(t, DataPoint::new(s * 1000, s)).unwrap();
    }
    p.flush(t).unwrap();
}

#[test]
fn tampered_chunk_payload_detected_at_open() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    ingest(&mut t, &cfg, &owner, 30);

    // A curious server (or on-path attacker) flips a byte in a stored chunk.
    let chunks = server.get_range(11, 0, 30_000).unwrap();
    let mut victim = EncryptedChunk::from_bytes(&chunks[0]).unwrap();
    let last = victim.payload.len() - 1;
    victim.payload[last] ^= 0x01;
    // GCM refuses at the client.
    assert!(victim
        .open_payload(&owner.provision_producer().tree)
        .is_err());
}

#[test]
fn replayed_chunk_under_wrong_index_detected() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    ingest(&mut t, &cfg, &owner, 30);
    let chunks = server.get_range(11, 0, 30_000).unwrap();
    // Server swaps chunk 0's payload into chunk 1's position.
    let forged = EncryptedChunk {
        index: 1,
        ..EncryptedChunk::from_bytes(&chunks[0]).unwrap()
    };
    assert!(forged
        .open_payload(&owner.provision_producer().tree)
        .is_err());
}

#[test]
fn malformed_insert_rejected_cleanly() {
    let (_server, mut t, _cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    let resp = t.call(&Request::Insert {
        chunk: vec![1, 2, 3],
    });
    assert!(resp.is_err(), "garbage chunk must be rejected");
    // Server still alive.
    assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
}

#[test]
fn out_of_order_insert_rejected_stream_intact() {
    let (_server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    ingest(&mut t, &cfg, &owner, 20);
    // Replay an old chunk index.
    let km = owner.provision_producer();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let dup = timecrypt::chunk::PlainChunk {
        stream: 11,
        index: 0,
        points: vec![],
    }
    .seal(&cfg, &km, &mut rng)
    .unwrap();
    assert!(t
        .call(&Request::Insert {
            chunk: dup.to_bytes()
        })
        .is_err());
    // Index unharmed: totals still correct.
    let mut rng = SecureRandom::from_seed_insecure(10);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 20_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    assert_eq!(
        c.stat_query(&mut t, cfg.id, 0, 20_000).unwrap().count,
        Some(20)
    );
}

#[test]
fn corrupted_grant_blob_fails_closed() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    ingest(&mut t, &cfg, &owner, 10);
    let mut rng = SecureRandom::from_seed_insecure(11);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 10_000)
        .unwrap();
    // The server corrupts the stored grant.
    let blobs = server.keystore().get_grants(11, "c").unwrap();
    let mut bad = blobs[0].clone();
    let last = bad.len() - 1;
    bad[last] ^= 1;
    server.keystore().revoke_grants(11, "c").unwrap();
    server.keystore().put_grant(11, "c", &bad).unwrap();
    assert!(c.sync_grants(&mut t, cfg.id).is_err(), "ECIES must reject");
}

#[test]
fn corrupted_envelope_fails_closed() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    ingest(&mut t, &cfg, &owner, 120);
    let mut rng = SecureRandom::from_seed_insecure(12);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_resolution_access(&mut t, "c", c.public_key(), 0, 120_000, 6)
        .unwrap();
    // Corrupt one stored envelope before the consumer syncs.
    let envs = server.keystore().get_envelopes(11, 6, 0, 10).unwrap();
    let (idx, mut blob) = envs[0].clone();
    blob[0] ^= 1;
    server
        .keystore()
        .put_envelopes(11, 6, &[(idx, blob)])
        .unwrap();
    assert!(
        c.sync_grants(&mut t, cfg.id).is_err(),
        "AEAD must reject the envelope"
    );
}

#[test]
fn queries_on_unknown_or_empty_streams_are_clean_errors() {
    let (_server, mut t, _cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    // Unknown stream.
    assert!(t
        .call(&Request::GetStatRange {
            streams: vec![999],
            ts_s: 0,
            ts_e: 1000
        })
        .is_err());
    // Known but empty stream.
    assert!(t
        .call(&Request::GetStatRange {
            streams: vec![11],
            ts_s: 0,
            ts_e: 1000
        })
        .is_err());
    // Inverted time range.
    assert!(t
        .call(&Request::GetRange {
            stream: 11,
            ts_s: 10,
            ts_e: 5
        })
        .is_err());
}

/// Every windowed read divides by a stream's chunk interval: a zero one is
/// refused at registration — the same message from an engine and through
/// a coordinator, where it is an answer, not a fault: no strike, no
/// failover — and a stored one is skipped at open like any malformed
/// record. The reads after it are clean errors.
#[test]
fn a_zero_chunk_interval_is_refused_at_every_tier() {
    let reads = || {
        [
            Request::GetStatRange {
                streams: vec![7],
                ts_s: 0,
                ts_e: 20_000,
            },
            Request::GetRange {
                stream: 7,
                ts_s: 0,
                ts_e: 20_000,
            },
            Request::GetLive {
                stream: 7,
                ts_s: 0,
                ts_e: 20_000,
            },
        ]
    };
    let unknown = Response::Error(ServerError::NoSuchStream(7).to_string());
    let store: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let engine = TimeCryptServer::open(store.clone(), ServerConfig::default()).unwrap();
    let refused = engine.create_stream(7, 0, 0, 2).unwrap_err().to_string();
    assert!(refused.contains("chunk interval"), "{refused}");
    // A record an older build wrote: t0, Δ = 0, width.
    let meta = [
        &0i64.to_le_bytes()[..],
        &0u64.to_le_bytes(),
        &2u32.to_le_bytes(),
    ]
    .concat();
    let key = keys::meta(7);
    store.put(&key, &meta).unwrap();
    let reopened = TimeCryptServer::open(store, ServerConfig::default()).unwrap();
    for req in reads() {
        assert_eq!(reopened.handle(req), unknown);
    }

    // Over the wire, on a replicated shard that one strike would promote.
    let node = || {
        let cfg = NodeConfig {
            total_shards: 1,
            hosted: vec![0],
            engine: ServerConfig::default(),
        };
        let node = ShardNode::open(Arc::new(MemKv::new()), cfg).unwrap();
        Server::bind("127.0.0.1:0", Arc::new(node)).unwrap()
    };
    let (primary, backup) = (node(), node());
    let svc = ShardedService::open(
        Arc::new(MemKv::new()),
        ServiceConfig {
            topology: vec![ShardSpec::remote(primary.addr().to_string())
                .with_backup(backup.addr().to_string())],
            promote_after: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let err = svc.create_stream(7, 0, 0, 2).unwrap_err();
    assert_eq!(err.to_string(), refused);
    for req in reads() {
        assert_eq!(svc.handle(req), unknown);
    }
    let shard = &svc.stats().shards[0];
    assert_eq!(
        (shard.failovers, shard.promotions, shard.replica_errors),
        (0, 0, 0),
        "{shard:?}"
    );
    assert!(shard.in_sync, "{shard:?}");
}

/// Window arithmetic is exact at the ends of the timestamp range: the
/// distance from a negative `t0` to `i64::MAX` does not fit an `i64`.
#[test]
fn windows_reaching_the_ends_of_time_are_exact() {
    let (server, ..) = setup();
    server.create_stream(5, -10_000, 10_000, 2).unwrap();
    for index in 0..2u64 {
        let chunk = EncryptedChunk {
            stream: 5,
            index,
            digest_ct: vec![index + 1; 2],
            payload: vec![index as u8],
        };
        server.insert(&chunk).unwrap();
    }
    let live = SealedRecord {
        stream: 5,
        chunk: 2,
        seq: 0,
        payload: vec![9; 4],
    };
    server.insert_live(&live).unwrap();
    let (min, max) = (i64::MIN, i64::MAX);
    let stat = |ts_s, ts_e| {
        server.handle(Request::GetStatRange {
            streams: vec![5],
            ts_s,
            ts_e,
        })
    };
    let reply = StatReply {
        parts: vec![(5, 0, 2)],
        agg: vec![3, 3],
    };
    assert_eq!(stat(min, max), Response::Stat(reply));
    let empty = Response::Error(ServerError::EmptyRange.to_string());
    assert_eq!(stat(max - 1, max), empty);
    assert_eq!(stat(min, min + 1), empty);
    let range = |ts_s, ts_e| {
        server.handle(Request::GetRange {
            stream: 5,
            ts_s,
            ts_e,
        })
    };
    match range(min, max) {
        Response::Chunks(chunks) => assert_eq!(chunks.len(), 2),
        other => panic!("{other:?}"),
    }
    assert_eq!(range(max - 1, max), Response::Chunks(vec![]));
    assert_eq!(range(min, min + 1), empty);
    let live_in = |ts_s, ts_e| {
        server.handle(Request::GetLive {
            stream: 5,
            ts_s,
            ts_e,
        })
    };
    assert_eq!(live_in(min, max), Response::Records(vec![live.to_bytes()]));
    assert_eq!(live_in(max - 1, max), Response::Records(vec![]));
    assert_eq!(live_in(min, min + 1), Response::Records(vec![]));
}

#[test]
fn stat_query_with_zero_streams_rejected() {
    let (_server, mut t, _cfg, _owner) = setup();
    assert!(t
        .call(&Request::GetStatRange {
            streams: vec![],
            ts_s: 0,
            ts_e: 1000
        })
        .is_err());
}

/// A `MemKv` behind a `FaultyKv` whose `nth` op from now, if it is an `op`
/// under `prefix`, fails.
fn fail_nth(kv: &FaultyKv<MemKv>, op: OpKind, prefix: &[u8], nth: u64) {
    kv.set_plan(FaultPlan::quiet().with_store_rule(StoreRule {
        op: Some(op),
        key_prefix: prefix.to_vec(),
        when: Trigger::Nth(kv.ops_total() + nth),
        fault: StoreFault::Error,
    }));
}

#[test]
fn faulted_put_envelopes_leaves_nothing_behind() {
    let envs: Vec<(u64, Vec<u8>)> = (0..4u64).map(|i| (i, vec![i as u8; 3])).collect();
    let mut faulted = 0;
    // Fail the k-th store write the call issues, for every k it could reach.
    for k in 0..envs.len() as u64 {
        let kv = FaultyKv::new(MemKv::new(), FaultPlan::quiet());
        let ks = KeyStore::new(&kv);
        ks.put_envelopes(11, 6, &[(9, vec![9])]).unwrap();
        fail_nth(&kv, OpKind::Put, b"e/", k);
        let result = ks.put_envelopes(11, 6, &envs);
        kv.set_plan(FaultPlan::quiet());
        let held = ks.get_envelopes(11, 6, 0, 16).unwrap();
        match result {
            Err(_) => {
                faulted += 1;
                assert_eq!(
                    held,
                    [(9, vec![9])],
                    "write {k} failed: nothing of the call"
                );
            }
            Ok(()) => assert_eq!(held.len(), envs.len() + 1, "write {k}"),
        }
    }
    assert!(faulted > 0, "the plan never reached the call");
}

#[test]
fn faulted_revoke_grants_leaves_every_grant_in_place() {
    let grants = [&b"g0"[..], b"g1", b"g2"];
    let mut faulted = 0;
    // Op 0 of the call is its key scan; the writes follow.
    for k in 1..=grants.len() as u64 {
        let kv = FaultyKv::new(MemKv::new(), FaultPlan::quiet());
        let ks = KeyStore::new(&kv);
        for blob in grants {
            ks.put_grant(11, "c", blob).unwrap();
        }
        fail_nth(&kv, OpKind::Delete, b"g/", k);
        let result = ks.revoke_grants(11, "c");
        kv.set_plan(FaultPlan::quiet());
        let held = ks.get_grants(11, "c").unwrap();
        match result {
            Err(_) => {
                faulted += 1;
                assert_eq!(held, grants, "write {k} failed: nothing revoked");
            }
            Ok(n) => assert_eq!((n, held.len()), (grants.len(), 0), "write {k}"),
        }
    }
    assert!(faulted > 0, "the plan never reached the call");
}
