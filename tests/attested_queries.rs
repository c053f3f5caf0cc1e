//! Server-integrated verified queries (integrity extension, §3.3) through
//! the full client/server/wire stack: producer attests, server proves,
//! consumer verifies-then-decrypts — over the in-process transport and the
//! real TCP transport, plus persistence of the ledger across restarts.

use common::{Deployment, Spec};
use std::sync::Arc;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{ClientFault, Consumer, DataOwner, InProc, Producer, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::index::keys;
use timecrypt::pk::SigningKey;
use timecrypt::server::TimeCryptServer;
use timecrypt::wire::messages::{Request, Response};

mod common;

/// An engine over a store in memory, and a transport to it.
fn setup() -> (Arc<TimeCryptServer>, InProc<TimeCryptServer>) {
    let server = Deployment::build(&Spec::engine()).engine();
    (server.clone(), InProc::new(server))
}

fn owner_for(cfg: &StreamConfig, seed: u64) -> DataOwner {
    DataOwner::with_height(
        cfg.clone(),
        [7u8; 16],
        24,
        SecureRandom::from_seed_insecure(seed),
    )
}

/// Producer with attestation enabled pushes `seconds` points at 1 Hz and
/// publishes one attestation at the end.
fn ingest_attested(
    t: &mut impl Transport,
    cfg: &StreamConfig,
    owner: &DataOwner,
    key: SigningKey,
    seconds: i64,
) -> Producer {
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    )
    .with_attester(key);
    for s in 0..seconds {
        p.push(t, DataPoint::new(s * 1000, s)).unwrap();
    }
    p.flush(t).unwrap();
    p.attest(t).unwrap();
    p
}

#[test]
fn verified_query_end_to_end_in_process() {
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(1, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let attest_key = SigningKey::generate(&mut rng);
    let vk = attest_key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, attest_key, 600);

    let mut alice = Consumer::new("alice", &mut rng);
    owner
        .grant_access(&mut t, "alice", alice.public_key(), 0, 600_000)
        .unwrap();
    alice.sync_grants(&mut t, cfg.id).unwrap();

    // Verified aggregate equals the plain statistical query.
    let verified = alice
        .verified_stat_query(&mut t, cfg.id, &vk, 100_000, 300_000)
        .unwrap();
    let plain = alice.stat_query(&mut t, cfg.id, 100_000, 300_000).unwrap();
    assert_eq!(verified.sum, plain.sum);
    assert_eq!(verified.count, Some(200));
    assert_eq!(verified.sum, Some((100..300).sum::<i64>()));

    // The wrong verifying key is rejected before decryption.
    let other = SigningKey::generate(&mut rng).verifying_key();
    let err = alice
        .verified_stat_query(&mut t, cfg.id, &other, 0, 100_000)
        .unwrap_err();
    assert!(err.to_string().contains("integrity"), "{err}");
}

#[test]
fn chunks_after_last_attestation_are_not_provable_yet() {
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(2, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    let mut p = ingest_attested(&mut t, &cfg, &owner, key, 100);

    // Upload 100 more seconds WITHOUT a new attestation.
    for s in 100..200 {
        p.push(&mut t, DataPoint::new(s * 1000, s)).unwrap();
    }
    p.flush(&mut t).unwrap();

    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 200_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();

    // A verified query over the full 200 s is clamped to the attested 100 s.
    let verified = c
        .verified_stat_query(&mut t, cfg.id, &vk, 0, 200_000)
        .unwrap();
    assert_eq!(verified.count, Some(100));

    // After a fresh attestation the full range verifies.
    p.attest(&mut t).unwrap();
    let verified = c
        .verified_stat_query(&mut t, cfg.id, &vk, 0, 200_000)
        .unwrap();
    assert_eq!(verified.count, Some(200));
    assert_eq!(verified.sum, Some((0..200).sum::<i64>()));
}

#[test]
fn attestation_epoch_regression_rejected_by_server() {
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(3, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);

    // Two attestations from a standalone ledger: epoch 0 then epoch 1.
    let mut ledger = timecrypt::integrity::StreamLedger::new(cfg.id);
    ledger.append([1u8; 32], vec![1, 2]).unwrap();
    let a0 = ledger.attest(&key, &mut rng);
    let a1 = ledger.attest(&key, &mut rng);

    t.call(&Request::PutAttestation {
        stream: cfg.id,
        attestation: a1.encode(),
    })
    .unwrap();
    // Replaying the older epoch must fail (a rollback attack on consumers).
    assert!(t
        .call(&Request::PutAttestation {
            stream: cfg.id,
            attestation: a0.encode()
        })
        .is_err());
    // Garbage attestations are rejected cleanly.
    assert!(t
        .call(&Request::PutAttestation {
            stream: cfg.id,
            attestation: vec![1, 2, 3]
        })
        .is_err());
    // Attestation for a different stream id is rejected.
    let mut foreign = timecrypt::integrity::StreamLedger::new(999);
    foreign.append([1u8; 32], vec![1]).unwrap();
    let af = foreign.attest(&key, &mut rng);
    assert!(t
        .call(&Request::PutAttestation {
            stream: cfg.id,
            attestation: af.encode()
        })
        .is_err());
}

#[test]
fn no_attestation_is_a_clean_error() {
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(4, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    match t.call(&Request::GetRangeProof {
        stream: cfg.id,
        ts_s: 0,
        ts_e: 1000,
    }) {
        Err(e) => assert!(e.to_string().contains("attestation"), "{e}"),
        Ok(Response::Attested { .. }) => panic!("proof without attestation"),
        Ok(_) => {}
    }
}

#[test]
fn ledger_and_attestation_survive_server_restart() {
    let d = Deployment::build(&Spec::engine().on_disk());
    let cfg = StreamConfig::new(5, "hr", 0, 10_000);
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();

    let mut owner = owner_for(&cfg, 1);
    {
        let mut t = InProc::new(d.engine());
        owner.create_stream(&mut t).unwrap();
        ingest_attested(&mut t, &cfg, &owner, key, 300);
    }

    // Reopen over the same log: ledger rebuilt from persisted leaves.
    d.restart(0);
    let mut t = InProc::new(d.engine());
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 300_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    let verified = c
        .verified_stat_query(&mut t, cfg.id, &vk, 0, 300_000)
        .unwrap();
    assert_eq!(verified.count, Some(300));
    assert_eq!(verified.sum, Some((0..300).sum::<i64>()));
}

#[test]
fn verified_raw_read_matches_plain_read() {
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(7, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, key, 300);

    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 300_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();

    let plain = c.get_range(&mut t, cfg.id, 45_000, 155_000).unwrap();
    let verified = c
        .verified_get_range(&mut t, cfg.id, &vk, 45_000, 155_000)
        .unwrap();
    assert_eq!(verified, plain);
    assert_eq!(verified.len(), 110);
    assert_eq!(verified[0], DataPoint::new(45_000, 45));
}

#[test]
fn verified_raw_read_detects_chunk_substitution() {
    let (server, mut t) = setup();
    let cfg = StreamConfig::new(8, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, key, 100);

    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 100_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // A first verified read succeeds — and leaves the server's ledger
    // cache filled from the honest records.
    let honest = c.verified_get_range(&mut t, cfg.id, &vk, 0, 100_000);
    assert_eq!(honest.unwrap().len(), 100);

    // The storage layer (or a compromised server) replays chunk 2's record
    // — the chunk is its level-0 record, digest and payload — under chunk
    // 3's key. The verified read refuses it either way: against the cached
    // ledger the returned bytes miss the attested commitment; against a
    // ledger rebuilt from the forged record (after an eviction) the proof
    // misses the attested root.
    let kv = server.kv();
    let (key2, key3) = (keys::leaf(cfg.id, 2), keys::leaf(cfg.id, 3));
    let chunk2 = kv.get(&key2).unwrap().expect("chunk 2 exists");
    kv.put(&key3, &chunk2).unwrap();
    assert!(kv.scan_prefix(b"c/").unwrap().is_empty());

    let err = c
        .verified_get_range(&mut t, cfg.id, &vk, 0, 100_000)
        .unwrap_err();
    assert!(err.to_string().contains("commitment"), "{err}");
    assert_eq!(server.evict_idle_streams(), 1);
    let err = c
        .verified_get_range(&mut t, cfg.id, &vk, 0, 100_000)
        .unwrap_err();
    assert!(err.to_string().contains("integrity check failed"), "{err}");
}

/// A server that answers a verified read with its genuine reply for the
/// first 100 s, whatever was asked.
struct Backwards<'a>(&'a mut InProc<TimeCryptServer>);

impl Transport for Backwards<'_> {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        match *req {
            Request::GetVerifiedRange { stream, .. } => self.0.call(&Request::GetVerifiedRange {
                stream,
                ts_s: 0,
                ts_e: 100_000,
            }),
            _ => self.0.call(req),
        }
    }
}

#[test]
fn a_backwards_range_proof_is_an_error_not_a_panic() {
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(4, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, key, 100);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 100_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    // Asked past the 10 attested chunks, the consumer's window [15, 20)
    // clamps to the backwards [15, 10): refused, whatever the reply.
    let reply = c.verified_get_range(&mut Backwards(&mut t), cfg.id, &vk, 150_000, 200_000);
    assert!(reply.is_err(), "{reply:?}");
    assert!(c
        .verified_get_range(&mut t, cfg.id, &vk, 0, 100_000)
        .is_ok());
}

/// A server that proves a window one chunk (Δ = 10 s) shorter than the one
/// asked for: it moves the start of every proof request one Δ later.
struct Later<'a>(&'a mut InProc<TimeCryptServer>);

impl Transport for Later<'_> {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        let later = match *req {
            Request::GetRangeProof { stream, ts_s, ts_e } => Request::GetRangeProof {
                stream,
                ts_s: ts_s + 10_000,
                ts_e,
            },
            Request::GetVerifiedRange { stream, ts_s, ts_e } => Request::GetVerifiedRange {
                stream,
                ts_s: ts_s + 10_000,
                ts_e,
            },
            _ => req.clone(),
        };
        self.0.call(&later)
    }
}

#[test]
fn a_proof_one_chunk_short_answers_the_asked_window_or_is_refused() {
    // The consumer takes its window from its own request, never from the
    // server: a proof of a narrower window either proves the asked one (a
    // leaf outside the server's window is still the asked window's leaf)
    // or fails, and a raw read missing a chunk is refused.
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(14, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, key, 600);
    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 600_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();

    let (ts_s, ts_e) = (100_000, 300_000);
    if let Ok(stat) = c.verified_stat_query(&mut Later(&mut t), cfg.id, &vk, ts_s, ts_e) {
        assert_eq!(stat.count, Some(200), "the asked window's count");
        assert_eq!(stat.sum, Some((100..300).sum::<i64>()));
    }
    if let Ok(points) = c.verified_get_range(&mut Later(&mut t), cfg.id, &vk, ts_s, ts_e) {
        assert_eq!(points.len(), 200, "every point of the asked window");
    }
}

#[test]
fn verified_raw_read_fails_after_payload_decay() {
    // delete_range keeps digests (Table 1 (7)) — statistical queries still
    // verify, but raw completeness is honestly reported as unprovable.
    let (_, mut t) = setup();
    let cfg = StreamConfig::new(9, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, key, 100);

    t.call(&Request::DeleteRange {
        stream: cfg.id,
        ts_s: 20_000,
        ts_e: 40_000,
    })
    .unwrap();

    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 100_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();

    // Verified aggregate over the decayed window still works (digests live
    // in the index and the ledger).
    let s = c
        .verified_stat_query(&mut t, cfg.id, &vk, 0, 100_000)
        .unwrap();
    assert_eq!(s.count, Some(100));
    // Verified raw read over it reports the gap instead of silently
    // returning fewer points (which is what the plain get_range does).
    assert!(c
        .verified_get_range(&mut t, cfg.id, &vk, 0, 100_000)
        .is_err());
    let plain = c.get_range(&mut t, cfg.id, 0, 100_000).unwrap();
    assert_eq!(plain.len(), 80, "plain read silently misses 20 s of data");
}

#[test]
fn verified_query_over_tcp() {
    use timecrypt::wire::Client;
    let d = Deployment::build(&Spec::engine());
    let addr = d.serve();

    let mut t = Client::connect(addr).unwrap();
    let cfg = StreamConfig::new(6, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    ingest_attested(&mut t, &cfg, &owner, key, 120);

    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, 120_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    let verified = c
        .verified_stat_query(&mut t, cfg.id, &vk, 0, 120_000)
        .unwrap();
    assert_eq!(verified.count, Some(120));
}

/// The three attested replies over `[lo_s, hi_s)` seconds: attestation,
/// range proof, verified raw range.
fn attested_replies(t: &mut impl Transport, stream: u128, lo_s: i64, hi_s: i64) -> Vec<Response> {
    let (ts_s, ts_e) = (lo_s * 1000, hi_s * 1000);
    [
        Request::GetAttestation { stream },
        Request::GetRangeProof { stream, ts_s, ts_e },
        Request::GetVerifiedRange { stream, ts_s, ts_e },
    ]
    .iter()
    .map(|req| t.call(req).unwrap())
    .collect()
}

#[test]
fn evicting_between_every_request_changes_no_attested_reply() {
    use timecrypt::integrity::{verify_attested_range, RangeProof, RootAttestation};
    // Two engines fed the same bytes. `kept` never evicts: its ledger is
    // caught up by the first proof and topped up by later ones with what
    // ingest added in between. `churned` drops the stream before every
    // request: each proof rebuilds the ledger from the level-0 records.
    // Attestation, proof and verified-range replies must be the same
    // bytes — and the proofs must verify against the owner's signed root.
    let (_, mut kept) = setup();
    let (churned_server, mut churned) = setup();
    let cfg = StreamConfig::new(11, "hr", 0, 10_000);
    let key = SigningKey::generate(&mut SecureRandom::from_seed_insecure(9));
    let producer = |t: &mut InProc<TimeCryptServer>| {
        let mut owner = owner_for(&cfg, 1);
        owner.create_stream(t).unwrap();
        let rng = SecureRandom::from_seed_insecure(2);
        Producer::new(cfg.clone(), owner.provision_producer(), rng).with_attester(key.clone())
    };
    let (mut p_kept, mut p_churned) = (producer(&mut kept), producer(&mut churned));
    // 70 chunks per run: every run crosses a sealed level-1 node.
    for (run, attest) in [(0, true), (1, true), (2, false), (3, true)] {
        for (p, t) in [(&mut p_kept, &mut kept), (&mut p_churned, &mut churned)] {
            for s in run * 700..(run + 1) * 700 {
                p.push(t, DataPoint::new(s * 1000, s)).unwrap();
            }
            p.flush(t).unwrap();
            if attest {
                p.attest(t).unwrap();
            }
        }
        // Attested: what the last attesting run had uploaded.
        let attested = if attest { run + 1 } else { run } * 700;
        for (lo_s, hi_s) in [(0, attested), (35, 95), (attested - 25, (run + 1) * 700)] {
            churned_server.evict_idle_streams();
            let replies = attested_replies(&mut churned, cfg.id, lo_s, hi_s);
            let at = format!("run {run}, [{lo_s}s, {hi_s}s)");
            assert_eq!(
                replies,
                attested_replies(&mut kept, cfg.id, lo_s, hi_s),
                "{at}"
            );
            let Response::Attested { attestation, proof } = &replies[1] else {
                panic!("{at}: {:?}", replies[1]);
            };
            let att = RootAttestation::decode(attestation).unwrap();
            let proof = RangeProof::decode(proof).unwrap();
            assert_eq!(att.size, attested as u64 / 10, "{at}");
            // The window the consumer works out: whole chunks, clamped.
            let (lo, hi) = cfg.grid().unwrap().within(lo_s * 1000, hi_s * 1000);
            let (lo, hi) = (lo as usize, hi.min(att.size) as usize);
            verify_attested_range(cfg.id, &att, &key.verifying_key(), &proof, lo, hi)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
        }
    }
}

#[test]
fn an_attestation_ahead_of_the_stored_stream_is_refused_before_any_read() {
    // The owner attested 12 chunks; this server holds 10 (a lagging
    // replica, a truncated store). Both proof builders refuse with the
    // same explicit error, having read nothing but the attestation.
    let d = Deployment::build(&Spec::engine());
    let (server, kv) = (d.engine(), d.log(0));
    let mut t = InProc::new(server.clone());
    let cfg = StreamConfig::new(12, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    ingest_attested(&mut t, &cfg, &owner, key.clone(), 100);
    let mut ahead = timecrypt::integrity::StreamLedger::new(cfg.id);
    for i in 0..12u8 {
        ahead.append([i; 32], vec![0; 3]).unwrap();
    }
    ahead.attest(&key, &mut rng);
    let att = ahead.attest(&key, &mut rng);
    assert_eq!((att.size, att.epoch), (12, 1));
    server.put_attestation(cfg.id, &att.encode()).unwrap();

    let before = kv.counters();
    let proof = server.get_range_proof(cfg.id, 0, 50_000).unwrap_err();
    let range = server.get_verified_range(cfg.id, 0, 50_000).unwrap_err();
    let after = kv.counters();
    let expected = "integrity: attestation covers chunks this server does not hold";
    assert_eq!(proof.to_string(), expected);
    assert_eq!(range.to_string(), expected);
    assert_eq!(
        (after.gets - before.gets, after.scans - before.scans),
        (2, 0),
        "one attestation read per request, nothing else"
    );
}

#[test]
fn a_damaged_level0_record_fails_the_ledger_catch_up_as_corrupt_node() {
    use timecrypt::index::IndexError;
    use timecrypt::server::ServerError;
    // Batches are atomic, so a missing or mangled `il/` record is
    // corruption, not a crash state. Chunk 5 of 70 lies under a sealed
    // level-1 node and is no length probe: hydration and statistical
    // queries never read it; the ledger catch-up does, and reports it.
    let (server, mut t) = setup();
    let cfg = StreamConfig::new(13, "hr", 0, 10_000);
    let mut owner = owner_for(&cfg, 1);
    owner.create_stream(&mut t).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(9);
    let key = SigningKey::generate(&mut rng);
    ingest_attested(&mut t, &cfg, &owner, key, 700);
    let leaf5 = keys::leaf(cfg.id, 5);
    let kv = server.kv();
    let record = kv.get(&leaf5).unwrap().expect("chunk 5's level-0 record");
    // `sum ‖ kind ‖ payload`, the sum the stream's width: the record cut
    // before its kind byte, cut inside its sum, and a record of another
    // width in the same form (a zero word of its sum where the kind lies).
    let width = server.stream_info(cfg.id).unwrap().digest_width as usize;
    let mut other_width = vec![0; 8 * (width + 1)];
    other_width.extend_from_slice(&record[8 * width..]);
    for damaged in [
        None,
        Some(&record[..8 * width]),
        Some(&record[..3]),
        Some(&other_width[..]),
    ] {
        match damaged {
            Some(bytes) => kv.put(&leaf5, bytes).unwrap(),
            None => kv.delete(&leaf5).unwrap(),
        }
        for evict_first in [false, true] {
            if evict_first {
                server.evict_idle_streams();
            }
            assert!(server.get_stat_range(&[cfg.id], 0, 700_000).is_ok());
            for err in [
                server.get_range_proof(cfg.id, 0, 700_000).unwrap_err(),
                server.get_verified_range(cfg.id, 0, 700_000).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        ServerError::Index(IndexError::CorruptNode { level: 0, index: 5 })
                    ),
                    "{damaged:?}: {err}"
                );
            }
        }
    }
    // Restored, the same engine proves: the failed catch-ups left a valid
    // ledger prefix behind.
    kv.put(&leaf5, &record).unwrap();
    assert!(server.get_range_proof(cfg.id, 0, 700_000).is_ok());
}
