//! Failure-injection integration tests: the system must fail *closed* under
//! tampering, corruption, and protocol misuse.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProcess, Producer, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;
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
