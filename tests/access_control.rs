//! Integration tests for the cryptographic access-control semantics
//! (paper §4.3, §4.4, Table 1 (8)–(10)).

use common::{Deployment, Spec};
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer, Transport};
use timecrypt::crypto::SecureRandom;

mod common;

const MIN: i64 = 60_000;

fn setup(seconds: i64) -> (impl Transport, StreamConfig, DataOwner) {
    let server = Deployment::build(&Spec::engine()).engine();
    let mut t = InProc::new(server);
    let cfg = StreamConfig::new(9, "hr", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [3u8; 16],
        24,
        SecureRandom::from_seed_insecure(1),
    );
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    for s in 0..seconds {
        p.push(&mut t, DataPoint::new(s * 1000, 60 + (s % 30)))
            .unwrap();
    }
    p.flush(&mut t).unwrap();
    (t, cfg, owner)
}

#[test]
fn time_scope_is_enforced_on_both_ends() {
    let (mut t, cfg, mut owner) = setup(30 * 60);
    let mut rng = SecureRandom::from_seed_insecure(3);
    let mut c = Consumer::new("c", &mut rng);
    // Grant minutes [10, 20).
    owner
        .grant_access(&mut t, "c", c.public_key(), 10 * MIN, 20 * MIN)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // Inside: works at every alignment within the window.
    assert!(c.stat_query(&mut t, cfg.id, 10 * MIN, 20 * MIN).is_ok());
    assert!(c.stat_query(&mut t, cfg.id, 12 * MIN, 13 * MIN).is_ok());
    assert!(c
        .stat_query(&mut t, cfg.id, 10 * MIN, 10 * MIN + 10_000)
        .is_ok());
    // Straddling or outside: the boundary key is underivable.
    assert!(c.stat_query(&mut t, cfg.id, 9 * MIN, 11 * MIN).is_err());
    assert!(c.stat_query(&mut t, cfg.id, 19 * MIN, 21 * MIN).is_err());
    assert!(c.stat_query(&mut t, cfg.id, 0, 5 * MIN).is_err());
    // Raw access likewise.
    assert!(c.get_range(&mut t, cfg.id, 10 * MIN, 11 * MIN).is_ok());
    assert!(c.get_range(&mut t, cfg.id, 9 * MIN, 11 * MIN).is_err());
}

#[test]
fn resolution_restriction_blocks_finer_queries() {
    let (mut t, cfg, mut owner) = setup(30 * 60);
    let mut rng = SecureRandom::from_seed_insecure(4);
    let mut c = Consumer::new("c", &mut rng);
    // Per-minute resolution (6 × 10 s chunks) over the first 20 minutes.
    owner
        .grant_resolution_access(&mut t, "c", c.public_key(), 0, 20 * MIN, 6)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // Minute-aligned windows work, at any multiple of a minute.
    let s = c.stat_query(&mut t, cfg.id, 0, MIN).unwrap();
    assert_eq!(s.count, Some(60));
    assert!(c.stat_query(&mut t, cfg.id, 5 * MIN, 15 * MIN).is_ok());
    // Chunk-level (10 s) queries are cryptographically impossible.
    assert!(c.stat_query(&mut t, cfg.id, 0, 10_000).is_err());
    // Shifted minute windows too (would allow differencing attacks).
    assert!(c.stat_query(&mut t, cfg.id, 10_000, MIN + 10_000).is_err());
    // Raw data is entirely out of reach.
    assert!(c.get_range(&mut t, cfg.id, 0, MIN).is_err());
}

#[test]
fn mixed_grants_compose() {
    // Doctor: minute-level everywhere, full resolution during one session.
    let (mut t, cfg, mut owner) = setup(30 * 60);
    let mut rng = SecureRandom::from_seed_insecure(5);
    let mut c = Consumer::new("doc", &mut rng);
    owner
        .grant_resolution_access(&mut t, "doc", c.public_key(), 0, 30 * MIN, 6)
        .unwrap();
    owner
        .grant_access(&mut t, "doc", c.public_key(), 10 * MIN, 12 * MIN)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // Minute-level works anywhere.
    assert!(c.stat_query(&mut t, cfg.id, 25 * MIN, 26 * MIN).is_ok());
    // Chunk-level works only inside the session window.
    assert!(c
        .stat_query(&mut t, cfg.id, 10 * MIN, 10 * MIN + 10_000)
        .is_ok());
    assert!(c
        .stat_query(&mut t, cfg.id, 20 * MIN, 20 * MIN + 10_000)
        .is_err());
}

#[test]
fn two_principals_isolated() {
    let (mut t, cfg, mut owner) = setup(10 * 60);
    let mut rng = SecureRandom::from_seed_insecure(6);
    let mut a = Consumer::new("a", &mut rng);
    let mut b = Consumer::new("b", &mut rng);
    owner
        .grant_access(&mut t, "a", a.public_key(), 0, 5 * MIN)
        .unwrap();
    owner
        .grant_access(&mut t, "b", b.public_key(), 5 * MIN, 10 * MIN)
        .unwrap();
    a.sync_grants(&mut t, cfg.id).unwrap();
    b.sync_grants(&mut t, cfg.id).unwrap();
    assert!(a.stat_query(&mut t, cfg.id, 0, 5 * MIN).is_ok());
    assert!(a.stat_query(&mut t, cfg.id, 5 * MIN, 10 * MIN).is_err());
    assert!(b.stat_query(&mut t, cfg.id, 5 * MIN, 10 * MIN).is_ok());
    assert!(b.stat_query(&mut t, cfg.id, 0, 5 * MIN).is_err());
}

/// A principal's grants are its own, whatever another's name holds:
/// `alice` is served none of `alice/x`'s, and revoking `alice` leaves them.
#[test]
fn a_principal_named_by_anothers_prefix_holds_none_of_its_grants() {
    let server = Deployment::build(&Spec::engine()).engine();
    server.put_grant(7, "alice/x", b"x").unwrap();
    server.put_grant(7, "alice", b"a").unwrap();
    assert_eq!(server.get_grants(7, "alice").unwrap(), [b"a"]);
    assert_eq!(server.revoke_grants(7, "alice").unwrap(), 1);
    assert_eq!(server.get_grants(7, "alice/x").unwrap(), [b"x"]);
}

#[test]
fn revocation_removes_grants_and_preserves_old_access() {
    let (mut t, cfg, mut owner) = setup(10 * 60);
    let mut rng = SecureRandom::from_seed_insecure(7);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 5 * MIN)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // Revoke. The key store forgets the principal...
    owner.revoke(&mut t, "c").unwrap();
    let mut fresh = Consumer::new("c", &mut rng);
    assert_eq!(fresh.sync_grants(&mut t, cfg.id).unwrap(), 0);
    // ...but already-downloaded key material still opens old data
    // (the paper's explicit caveat, §3.3) —
    assert!(c.stat_query(&mut t, cfg.id, 0, 5 * MIN).is_ok());
    // — while anything beyond the old scope stays impossible.
    assert!(c.stat_query(&mut t, cfg.id, 5 * MIN, 6 * MIN).is_err());
}

#[test]
fn open_subscription_extension() {
    let (mut t, cfg, mut owner) = setup(10 * 60);
    let mut rng = SecureRandom::from_seed_insecure(8);
    let mut c = Consumer::new("c", &mut rng);
    // Initial resolution grant for the first 5 minutes.
    owner
        .grant_resolution_access(&mut t, "c", c.public_key(), 0, 5 * MIN, 6)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    assert!(c.stat_query(&mut t, cfg.id, 0, MIN).is_ok());
    assert!(c.stat_query(&mut t, cfg.id, 6 * MIN, 7 * MIN).is_err());
    // The owner extends the subscription (GrantOpenAccess semantics): a new
    // grant with a later upper bound; the consumer syncs again.
    owner
        .grant_resolution_access(&mut t, "c", c.public_key(), 0, 10 * MIN, 6)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    assert!(c.stat_query(&mut t, cfg.id, 6 * MIN, 7 * MIN).is_ok());
}

#[test]
fn lower_resolutions_of_a_grant_still_work() {
    // A per-minute principal can still take hourly means: lower resolution
    // = aligned superset (the paper: "or lower resolutions").
    let (mut t, cfg, mut owner) = setup(20 * 60);
    let mut rng = SecureRandom::from_seed_insecure(9);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_resolution_access(&mut t, "c", c.public_key(), 0, 20 * MIN, 6)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // 10-minute window = 60 chunks, boundaries at minute marks: decryptable.
    let s = c.stat_query(&mut t, cfg.id, 0, 10 * MIN).unwrap();
    assert_eq!(s.count, Some(600));
}
