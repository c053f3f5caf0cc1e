//! Real-time upload mode (§4.6): chunking bounds ingest latency by Δ; the
//! paper removes it by "instantly uploading encrypted data records in
//! real-time to the datastore and dropping the encrypted records once the
//! corresponding chunk is stored". These tests cover the whole path:
//! producer `push_live` → server live buffer → consumer `get_range_live`,
//! and the supersede-on-chunk-finalize behaviour.

use common::{Deployment, Spec};
use std::sync::Arc;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::TimeCryptServer;

mod common;

fn setup() -> (
    Arc<TimeCryptServer>,
    impl Transport,
    StreamConfig,
    DataOwner,
) {
    let server = Deployment::build(&Spec::engine()).engine();
    let transport = InProc::new(server.clone());
    let cfg = StreamConfig::new(5, "hr", 0, 10_000);
    let owner = DataOwner::with_height(
        cfg.clone(),
        [9u8; 16],
        24,
        SecureRandom::from_seed_insecure(1),
    );
    (server, transport, cfg, owner)
}

fn consumer(
    t: &mut impl Transport,
    owner: &mut DataOwner,
    cfg: &StreamConfig,
    until: i64,
) -> Consumer {
    let mut rng = SecureRandom::from_seed_insecure(33);
    let mut c = Consumer::new("alice", &mut rng);
    owner
        .grant_access(t, "alice", c.public_key(), 0, until)
        .unwrap();
    c.sync_grants(t, cfg.id).unwrap();
    c
}

#[test]
fn live_points_visible_before_chunk_closes() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );

    // Push 5 points, all inside chunk 0 ([0, 10 s)): no chunk has closed.
    for s in 0..5 {
        p.push_live(&mut t, DataPoint::new(s * 1000, 100 + s))
            .unwrap();
    }
    assert_eq!(p.chunks_sent(), 0, "chunk 0 still open");
    assert_eq!(p.records_sent(), 5);
    assert_eq!(server.live_len(cfg.id), 5);

    // Plain get_range sees nothing (no finalized chunk)…
    let mut c = consumer(&mut t, &mut owner, &cfg, 100_000);
    assert_eq!(c.get_range(&mut t, cfg.id, 0, 10_000).unwrap(), vec![]);
    // …but the live-merging read sees every point immediately.
    let pts = c.get_range_live(&mut t, cfg.id, 0, 10_000).unwrap();
    assert_eq!(
        pts,
        (0..5)
            .map(|s| DataPoint::new(s * 1000, 100 + s))
            .collect::<Vec<_>>()
    );
}

#[test]
fn finalized_chunk_supersedes_live_records() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );

    // 10 s of data pushes chunk 0 out; its live records must be dropped.
    for s in 0..11 {
        p.push_live(&mut t, DataPoint::new(s * 1000, s)).unwrap();
    }
    assert_eq!(p.chunks_sent(), 1);
    assert_eq!(
        server.live_len(cfg.id),
        1,
        "only chunk 1's single record remains"
    );

    // The merged view over both chunks is complete, without duplicates.
    let mut c = consumer(&mut t, &mut owner, &cfg, 100_000);
    let pts = c.get_range_live(&mut t, cfg.id, 0, 20_000).unwrap();
    assert_eq!(
        pts,
        (0..11)
            .map(|s| DataPoint::new(s * 1000, s))
            .collect::<Vec<_>>()
    );

    // Statistical queries still work over the finalized chunk.
    let s = c.stat_query(&mut t, cfg.id, 0, 10_000).unwrap();
    assert_eq!(s.count, Some(10));
    assert_eq!(s.sum, Some((0..10).sum::<i64>()));
}

#[test]
fn live_records_respect_access_control() {
    let (_server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    // Live records in chunk 3 ([30 s, 40 s)).
    for s in 30..33 {
        p.push_live(&mut t, DataPoint::new(s * 1000, s)).unwrap();
    }

    // Mallory's grant covers only [0, 20 s): chunk 3's key is out of scope.
    let mut rng = SecureRandom::from_seed_insecure(44);
    let mut mallory = Consumer::new("mallory", &mut rng);
    owner
        .grant_access(&mut t, "mallory", mallory.public_key(), 0, 20_000)
        .unwrap();
    mallory.sync_grants(&mut t, cfg.id).unwrap();
    assert!(
        mallory
            .get_range_live(&mut t, cfg.id, 30_000, 40_000)
            .is_err(),
        "records outside the granted window must not decrypt"
    );

    // A consumer granted through 40 s decrypts them fine.
    let mut alice = consumer(&mut t, &mut owner, &cfg, 40_000);
    let pts = alice
        .get_range_live(&mut t, cfg.id, 30_000, 40_000)
        .unwrap();
    assert_eq!(pts.len(), 3);
}

#[test]
fn stale_and_malformed_live_records_rejected() {
    use timecrypt::chunk::SealedRecord;
    use timecrypt::wire::messages::{Request, Response};
    let (_server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    // Finalize chunk 0.
    for s in 0..11 {
        p.push(&mut t, DataPoint::new(s * 1000, s)).unwrap();
    }

    // A live record for the already-finalized chunk 0 is stale.
    let keys = owner.provision_producer();
    let mut rng = SecureRandom::from_seed_insecure(5);
    let stale =
        SealedRecord::seal(cfg.id, 0, 0, DataPoint::new(500, 1), &keys.tree, &mut rng).unwrap();
    use timecrypt::client::Transport;
    assert!(t
        .call(&Request::InsertLive {
            record: stale.to_bytes()
        })
        .is_err());

    // Garbage bytes are a clean error, not a panic.
    match t.call(&Request::InsertLive {
        record: vec![1, 2, 3],
    }) {
        Err(_) => {}
        Ok(Response::Ok) => panic!("garbage record accepted"),
        Ok(_) => {}
    }

    // Live query on an unknown stream errors.
    assert!(t
        .call(&Request::GetLive {
            stream: 999,
            ts_s: 0,
            ts_e: 10
        })
        .is_err());
}

#[test]
fn deleting_stream_clears_live_buffer() {
    let (server, mut t, cfg, mut owner) = setup();
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    for s in 0..3 {
        p.push_live(&mut t, DataPoint::new(s * 1000, s)).unwrap();
    }
    assert_eq!(server.live_len(cfg.id), 3);
    owner.delete_stream(&mut t).unwrap();
    assert_eq!(server.live_len(cfg.id), 0);
}
