//! Failure-injection integration tests: the system must fail *closed* under
//! tampering, corruption, and protocol misuse.

use common::{Deployment, Fault, Spec};
use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::faults::{FaultPlan, FaultyKv, OpKind, StoreFault, StoreRule, Trigger};
use timecrypt::index::keys;
use timecrypt::server::{ServerError, TimeCryptServer};
use timecrypt::service::ServiceConfig;
use timecrypt::store::KvStore;
use timecrypt::wire::transport::Handler;
use timecrypt::wire::{Request, Response};

mod common;

/// An engine, and stream 11 created on it by its owner.
fn setup() -> (
    Arc<TimeCryptServer>,
    impl Transport,
    StreamConfig,
    DataOwner,
) {
    let server = Deployment::build(&Spec::engine()).engine();
    let mut t = InProc::new(server.clone());
    let cfg = StreamConfig::new(11, "m", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [4u8; 16],
        20,
        SecureRandom::from_seed_insecure(1),
    );
    owner.create_stream(&mut t).unwrap();
    (server, t, cfg, owner)
}

fn ingest(t: &mut impl Transport, cfg: &StreamConfig, owner: &DataOwner, secs: i64) {
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
    let (server, mut t, cfg, owner) = setup();
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
    let (server, mut t, cfg, owner) = setup();
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
    let (_server, mut t, ..) = setup();
    let resp = t.call(&Request::Insert {
        chunk: vec![1, 2, 3],
    });
    assert!(resp.is_err(), "garbage chunk must be rejected");
    // Server still alive.
    assert_eq!(t.call(&Request::Ping).unwrap(), Response::Pong);
}

/// A sealed chunk replayed at an old index is refused. (What the index
/// answers after a refused replay, `placement_equivalence.rs`'s model
/// predicts.)
#[test]
fn out_of_order_insert_rejected_stream_intact() {
    let (_server, mut t, cfg, owner) = setup();
    ingest(&mut t, &cfg, &owner, 20);
    let km = owner.provision_producer();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let dup = timecrypt::chunk::PlainChunk {
        stream: 11,
        index: 0,
        points: vec![],
    }
    .seal(&cfg, &km, &mut rng)
    .unwrap();
    let chunk = dup.to_bytes();
    assert!(t.call(&Request::Insert { chunk }).is_err());
}

#[test]
fn corrupted_grant_blob_fails_closed() {
    let (server, mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 10);
    let mut rng = SecureRandom::from_seed_insecure(11);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 10_000)
        .unwrap();
    // The server corrupts the stored grant.
    let blobs = server.get_grants(11, "c").unwrap();
    let mut bad = blobs[0].clone();
    let last = bad.len() - 1;
    bad[last] ^= 1;
    server.revoke_grants(11, "c").unwrap();
    server.put_grant(11, "c", &bad).unwrap();
    assert!(c.sync_grants(&mut t, cfg.id).is_err(), "ECIES must reject");
}

#[test]
fn corrupted_envelope_fails_closed() {
    let (server, mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 120);
    let mut rng = SecureRandom::from_seed_insecure(12);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_resolution_access(&mut t, "c", c.public_key(), 0, 120_000, 6)
        .unwrap();
    // Corrupt one stored envelope before the consumer syncs.
    let envs = server.get_envelopes(11, 6, 0, 10).unwrap();
    let (idx, mut blob) = envs[0].clone();
    blob[0] ^= 1;
    server.put_envelopes(11, 6, &[(idx, blob)]).unwrap();
    assert!(
        c.sync_grants(&mut t, cfg.id).is_err(),
        "AEAD must reject the envelope"
    );
}

/// Every windowed read divides by a stream's chunk interval: a zero one is
/// refused at registration, and a stored one (written before the refusal)
/// is skipped at open like any malformed record, so the reads after it are
/// clean errors. A coordinator takes the refusal as an answer, not a
/// fault: no strike, no failover. (`placement_equivalence.rs` compares the
/// refusal and the reads after it on every tier.)
#[test]
fn a_zero_chunk_interval_is_refused_at_every_tier() {
    let reads = [
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
    ];
    let d = Deployment::build(&Spec::engine());
    assert!(d.engine().create_stream(7, 0, 0, 2).is_err());
    let meta = [0i64.to_le_bytes(), 0u64.to_le_bytes()].concat();
    d.meter(0)
        .put(&keys::meta(7), &[&meta[..], &2u32.to_le_bytes()].concat())
        .unwrap();
    d.restart(0);
    let unknown = Response::Error(ServerError::NoSuchStream(7).to_string());
    for req in reads.clone() {
        assert_eq!(d.call(req), unknown);
    }

    let cfg = ServiceConfig {
        promote_after: 1,
        ..ServiceConfig::default()
    };
    let cluster = Deployment::build(&Spec::remote(1, 2, 2).service(cfg));
    let svc = cluster.service();
    assert!(svc.create_stream(7, 0, 0, 2).is_err());
    reads.into_iter().for_each(|req| _ = svc.handle(req));
    let shard = &svc.stats().shards[0];
    let strikes = (shard.failovers, shard.promotions, shard.replica_errors);
    assert_eq!((strikes, shard.in_sync), ((0, 0, 0), true), "{shard:?}");
}

/// An engine over a quiet `FaultyKv`, and the `FaultyKv`.
fn faulty_engine() -> (Arc<FaultyKv<Arc<dyn KvStore>>>, Arc<TimeCryptServer>) {
    let d = Deployment::build(&Spec::engine().fault(Fault::Store(FaultPlan::quiet())));
    (d.faulty(0), d.engine())
}

/// Sets `kv` to fail its `nth` op from now, if it is an `op` under `prefix`.
fn fail_nth(kv: &FaultyKv<Arc<dyn KvStore>>, op: OpKind, prefix: &[u8], nth: u64) {
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
        let (kv, ks) = faulty_engine();
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
        let (kv, ks) = faulty_engine();
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
