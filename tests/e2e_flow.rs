//! End-to-end integration: owner → producer → server → consumer, spanning
//! every crate through the public facade.

use common::{Deployment, Spec};
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer, Transport};
use timecrypt::crypto::SecureRandom;

mod common;

/// An engine, and stream 1 created on it by its owner.
fn setup() -> (impl Transport, StreamConfig, DataOwner) {
    let server = Deployment::build(&Spec::engine()).engine();
    let mut transport = InProc::new(server);
    let cfg = StreamConfig::new(1, "hr", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [7u8; 16],
        24,
        SecureRandom::from_seed_insecure(1),
    );
    owner.create_stream(&mut transport).unwrap();
    (transport, cfg, owner)
}

/// Ingests `seconds` of 1 Hz data with value = second index.
fn ingest(t: &mut impl Transport, cfg: &StreamConfig, owner: &DataOwner, seconds: i64) {
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    for s in 0..seconds {
        p.push(t, DataPoint::new(s * 1000, s)).unwrap();
    }
    p.flush(t).unwrap();
}

/// Consumer `name`, granted `[0, end)` of `owner`'s stream and synced.
fn reader(
    t: &mut impl Transport,
    owner: &mut DataOwner,
    name: &str,
    seed: u64,
    end: i64,
) -> Consumer {
    let mut c = Consumer::new(name, &mut SecureRandom::from_seed_insecure(seed));
    owner.grant_access(t, name, c.public_key(), 0, end).unwrap();
    c.sync_grants(t, owner.config().id).unwrap();
    c
}

#[test]
fn full_lifecycle_statistics_match_ground_truth() {
    let (mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 600);

    let mut alice = reader(&mut t, &mut owner, "alice", 3, 600_000);

    // Whole range.
    let s = alice.stat_query(&mut t, cfg.id, 0, 600_000).unwrap();
    assert_eq!(s.count, Some(600));
    assert_eq!(s.sum, Some((0..600).sum::<i64>()));
    let mean = (0..600).sum::<i64>() as f64 / 600.0;
    assert!((s.mean().unwrap() - mean).abs() < 1e-9);
    // Variance of 0..=599 (population).
    let var = (0..600).map(|v| (v as f64 - mean).powi(2)).sum::<f64>() / 600.0;
    assert!((s.variance().unwrap() - var).abs() < 1e-6);

    // Sub-window aligned to chunks: [100 s, 300 s).
    let s = alice.stat_query(&mut t, cfg.id, 100_000, 300_000).unwrap();
    assert_eq!(s.count, Some(200));
    assert_eq!(s.sum, Some((100..300).sum::<i64>()));

    // Raw retrieval matches and is time-filtered.
    let pts = alice.get_range(&mut t, cfg.id, 95_000, 105_000).unwrap();
    assert_eq!(pts.len(), 10);
    assert_eq!(pts[0], DataPoint::new(95_000, 95));
    assert_eq!(pts[9], DataPoint::new(104_000, 104));
}

#[test]
fn min_max_via_histogram() {
    let (mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 600);
    let mut c = reader(&mut t, &mut owner, "c", 4, 600_000);
    let s = c.stat_query(&mut t, cfg.id, 0, 600_000).unwrap();
    let h = s.histogram.unwrap();
    // Values 0..600: standard schema bins are [64i, 64(i+1)); min bin is
    // [min, 64), max bin holds 576..600.
    let ((_, min_hi), min_count) = h.min_bin().unwrap();
    assert_eq!(min_hi, 64);
    assert_eq!(min_count, 64); // values 0..64
    let ((max_lo, _), max_count) = h.max_bin().unwrap();
    assert_eq!(max_lo, 576);
    assert_eq!(max_count, 24); // values 576..600
    assert_eq!(h.total(), 600);
}

#[test]
fn unsynced_consumer_cannot_query() {
    let (mut t, cfg, owner) = setup();
    ingest(&mut t, &cfg, &owner, 60);
    let mut rng = SecureRandom::from_seed_insecure(5);
    let mut mallory = Consumer::new("mallory", &mut rng);
    // No grant: sync finds nothing, query fails locally.
    assert_eq!(mallory.sync_grants(&mut t, cfg.id).unwrap(), 0);
    assert!(mallory.stat_query(&mut t, cfg.id, 0, 60_000).is_err());
}

#[test]
fn grant_is_sealed_to_the_right_principal() {
    let (mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 60);
    let mut rng = SecureRandom::from_seed_insecure(6);
    let alice = Consumer::new("alice", &mut rng);
    // Grant stored under Alice's *name* but sealed to Alice's *key*.
    owner
        .grant_access(&mut t, "alice", alice.public_key(), 0, 60_000)
        .unwrap();
    // Mallory impersonates the name but lacks the private key.
    let mut mallory = Consumer::new("alice", &mut rng);
    assert!(
        mallory.sync_grants(&mut t, cfg.id).is_err(),
        "ECIES must reject"
    );
}

#[test]
fn producer_stream_continuity_across_gaps() {
    let (mut t, cfg, mut owner) = setup();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(7),
    );
    // Data, then a 50 s silence, then more data: empty chunks fill the gap.
    p.push(&mut t, DataPoint::new(0, 5)).unwrap();
    p.push(&mut t, DataPoint::new(60_000, 7)).unwrap();
    p.flush(&mut t).unwrap();
    assert_eq!(p.chunks_sent(), 7); // chunks 0..=6

    let mut c = reader(&mut t, &mut owner, "c", 8, 70_000);
    let s = c.stat_query(&mut t, cfg.id, 0, 70_000).unwrap();
    assert_eq!(s.count, Some(2));
    assert_eq!(s.sum, Some(12));
}

#[test]
fn multi_stream_query_needs_all_grants() {
    let (mut t, cfg1, mut o1) = setup();
    let cfg2 = StreamConfig::new(2, "b", 0, 10_000);
    let rng = SecureRandom::from_seed_insecure(2);
    let mut o2 = DataOwner::with_height(cfg2.clone(), [2u8; 16], 20, rng);
    o2.create_stream(&mut t).unwrap();
    ingest(&mut t, &cfg1, &o1, 100);
    ingest(&mut t, &cfg2, &o2, 100);

    let mut rng = SecureRandom::from_seed_insecure(9);
    let mut c = Consumer::new("c", &mut rng);
    o1.grant_access(&mut t, "c", c.public_key(), 0, 100_000)
        .unwrap();
    c.sync_grants(&mut t, 1).unwrap();

    // Only one grant: the combined ciphertext cannot be decrypted.
    assert!(c.stat_query_multi(&mut t, &[1, 2], 0, 100_000).is_err());

    // With both grants the inter-stream sum decrypts.
    o2.grant_access(&mut t, "c", c.public_key(), 0, 100_000)
        .unwrap();
    c.sync_grants(&mut t, 2).unwrap();
    let s = c.stat_query_multi(&mut t, &[1, 2], 0, 100_000).unwrap();
    assert_eq!(s.count, Some(200));
    assert_eq!(s.sum, Some(2 * (0..100).sum::<i64>()));
}

#[test]
fn delete_range_keeps_statistics_drops_raw() {
    let (mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 600);
    let mut c = reader(&mut t, &mut owner, "c", 11, 600_000);

    // Age out the first 5 minutes of raw payloads.
    owner.delete_range(&mut t, 0, 300_000).unwrap();

    // Statistics over the decayed window are fully preserved (Table 1 (7):
    // "while maintaining per-chunk digest").
    let s = c.stat_query(&mut t, cfg.id, 0, 300_000).unwrap();
    assert_eq!(s.count, Some(300));
    assert_eq!(s.sum, Some((0..300).sum::<i64>()));

    // Raw reads of the decayed window come back empty; fresh raw data is
    // untouched.
    assert_eq!(c.get_range(&mut t, cfg.id, 0, 300_000).unwrap(), vec![]);
    let fresh = c.get_range(&mut t, cfg.id, 300_000, 600_000).unwrap();
    assert_eq!(fresh.len(), 300);
    assert_eq!(fresh[0], DataPoint::new(300_000, 300));
}

#[test]
fn rollup_preserves_coarse_queries() {
    let (mut t, cfg, mut owner) = setup();
    ingest(&mut t, &cfg, &owner, 1000);
    owner.rollup(&mut t, 500_000, 2).unwrap();
    let mut c = reader(&mut t, &mut owner, "c", 10, 1_000_000);
    let s = c.stat_query(&mut t, cfg.id, 0, 1_000_000).unwrap();
    assert_eq!(s.count, Some(1000));
}
