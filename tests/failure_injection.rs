//! Failure-injection integration tests: the system must fail *closed* under
//! tampering, corruption, and protocol misuse.

use common::{sealed, Deployment, Fault, Faulty, Spec};
use std::sync::{Arc, Mutex, MutexGuard};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{
    BatchingProducer, ClientFault, Consumer, DataOwner, InProc, Producer, Transport,
};
use timecrypt::crypto::SecureRandom;
use timecrypt::faults::{FaultPlan, FileCall, FileFault, FileRule, Trigger};
use timecrypt::index::keys;
use timecrypt::server::{ServerError, TimeCryptServer};
use timecrypt::service::ServiceConfig;
use timecrypt::store::{KvStore, LogFile};
use timecrypt::wire::transport::Handler;
use timecrypt::wire::{Refusal, RefusalKind, Request, Response};
use timecrypt_obs::counters::STORE_READ_ONLY;

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
    d.log(0)
        .put(&keys::meta(7), &[&meta[..], &2u32.to_le_bytes()].concat())
        .unwrap();
    d.restart(0);
    let unknown = Response::Error(ServerError::NoSuchStream(7).into());
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

/// Held by the tests that fail appends: `timecrypt_store_read_only` counts
/// the read-only logs of the whole process.
fn faulting() -> MutexGuard<'static, ()> {
    static FAULTING: Mutex<()> = Mutex::new(());
    FAULTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets `file` to inject `fault` at its `k`-th append from now (0-based).
fn fault_append(file: &Faulty, k: u64, fault: FileFault) {
    file.set_plan(FaultPlan::quiet().with_file_rule(FileRule {
        call: FileCall::Append,
        when: Trigger::Nth(file.calls(FileCall::Append) + k),
        fault,
    }));
}

/// Stream 11 with 70 chunks (a run of 64 seals a level-1 node), a grant
/// and a level of envelopes: the history every write below runs on.
fn history() -> Vec<Request> {
    let chunks = |r: std::ops::Range<u64>| r.map(|i| sealed(11, i, i as i64).to_bytes()).collect();
    vec![
        Request::CreateStream {
            stream: 11,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        },
        Request::InsertBatch {
            chunks: chunks(0..64),
        },
        Request::InsertBatch {
            chunks: chunks(64..70),
        },
        Request::PutGrant {
            stream: 11,
            principal: "c".into(),
            blob: b"g0".to_vec(),
        },
        Request::PutGrant {
            stream: 11,
            principal: "c".into(),
            blob: b"g1".to_vec(),
        },
        Request::PutEnvelopes {
            stream: 11,
            resolution: 6,
            envelopes: vec![(9, vec![9])],
        },
    ]
}

/// One of each engine call that writes.
fn writes() -> Vec<Request> {
    let chunks = (70..86)
        .map(|i| sealed(11, i, i as i64).to_bytes())
        .collect();
    vec![
        Request::PutEnvelopes {
            stream: 11,
            resolution: 6,
            envelopes: (0..4u64).map(|i| (i, vec![i as u8; 3])).collect(),
        },
        Request::RevokeGrants {
            stream: 11,
            principal: "c".into(),
        },
        Request::PutGrant {
            stream: 11,
            principal: "d".into(),
            blob: b"g2".to_vec(),
        },
        Request::InsertBatch { chunks },
        Request::DeleteRange {
            stream: 11,
            ts_s: 0,
            ts_e: 300_000,
        },
        Request::Rollup {
            stream: 11,
            before_ts: 640_000,
            keep_level: 2,
        },
        Request::DeleteStream { stream: 11 },
        Request::CreateStream {
            stream: 12,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        },
    ]
}

/// What the engine answers about everything `history` and `writes` touch,
/// and what its log holds, as bytes.
fn holds(d: &Deployment) -> Vec<Vec<u8>> {
    let (ts_s, ts_e) = (0, 1_000_000);
    let reads = [
        Request::GetStatRange {
            streams: vec![11],
            ts_s,
            ts_e,
        },
        Request::GetStatRange {
            streams: vec![11],
            ts_s: 10_000,
            ts_e: 20_000,
        },
        Request::GetRange {
            stream: 11,
            ts_s,
            ts_e,
        },
        Request::StreamInfo { stream: 11 },
        Request::StreamInfo { stream: 12 },
        Request::GetGrants {
            stream: 11,
            principal: "c".into(),
        },
        Request::GetGrants {
            stream: 11,
            principal: "d".into(),
        },
        Request::GetEnvelopes {
            stream: 11,
            resolution: 6,
            lo: 0,
            hi: 16,
        },
    ];
    let mut held: Vec<_> = reads.map(|q| d.call(q).encode()).into();
    let mut log = d.log(0).scan_prefix(b"").unwrap();
    log.sort();
    held.extend(log.into_iter().map(|(k, v)| [k, v].concat()));
    held
}

fn refused(reply: &Response) -> bool {
    match reply {
        Response::Error(_) => true,
        Response::Batch { errors } => !errors.is_empty(),
        _ => false,
    }
}

fn run(d: &Deployment, requests: Vec<Request>) {
    for q in requests {
        assert!(!refused(&d.call(q.clone())), "{q:?}");
    }
}

/// Fails the k-th append of `write` on `history`, for every k the call
/// reaches, with an error and with a short append: the call fails, and the
/// engine and its log hold none of it, also reopened over the file (which
/// cuts what a short append left); `none_of_it` checks the same of the
/// faulted engine in the call's own terms. A call no fault reached holds
/// all of it, as on an engine that never faulted. Returns the (fault, k)
/// points checked.
fn sweep(write: &Request, none_of_it: impl Fn(&Deployment)) -> u64 {
    let _faulting = faulting();
    let tag = write.encode()[0];
    let name = Request::TAGS.iter().find(|(t, _)| *t == tag).unwrap().1;
    let clean = Deployment::build(&Spec::engine());
    run(
        &clean,
        history().into_iter().chain([write.clone()]).collect(),
    );
    let all = holds(&clean);
    let mut checked = 0;
    for fault in [FileFault::Error, FileFault::ShortAppend] {
        for k in 0.. {
            let d = Deployment::build(&Spec::engine().fault(Fault::File(FaultPlan::quiet())));
            run(&d, history());
            let (file, none) = (d.faulty(0), holds(&d));
            let injected = file.injected_total();
            fault_append(&file, k, fault);
            let reply = d.call(write.clone());
            file.set_plan(FaultPlan::quiet());
            if file.injected_total() == injected {
                assert!(!refused(&reply), "{name}: {reply:?}");
                assert!(holds(&d) == all, "{name}: all of it");
                break;
            }
            assert!(
                refused(&reply),
                "{name}, {fault:?} at append {k}: {reply:?}"
            );
            assert!(
                holds(&d) == none,
                "{name}, {fault:?} at append {k}: none of it"
            );
            none_of_it(&d);
            d.restart(0);
            assert!(
                holds(&d) == none,
                "{name}, {fault:?} at append {k}: reopened"
            );
            none_of_it(&d);
            checked += 1;
        }
    }
    checked
}

/// Every engine call that writes, swept as above.
#[test]
fn a_failed_append_leaves_all_of_an_engine_call_or_none() {
    let checked: u64 = writes().iter().map(|w| sweep(w, |_| ())).sum();
    common::ledger(&[(
        "failure_injection.append_faults_checked".into(),
        checked.to_string(),
    )]);
}

/// A `PutEnvelopes` whose append fails stores none of its envelopes: the
/// level holds the one envelope `history` put there.
#[test]
fn faulted_put_envelopes_leaves_nothing_behind() {
    let write = Request::PutEnvelopes {
        stream: 11,
        resolution: 6,
        envelopes: (0..4u64).map(|i| (i, vec![i as u8; 3])).collect(),
    };
    let held = |d: &Deployment| {
        let get = Request::GetEnvelopes {
            stream: 11,
            resolution: 6,
            lo: 0,
            hi: 16,
        };
        assert_eq!(d.call(get), Response::Envelopes(vec![(9, vec![9])]));
    };
    assert!(sweep(&write, held) > 0, "the plan never reached the call");
}

/// A `RevokeGrants` whose append fails revokes nothing: both of the
/// principal's grants are still in place.
#[test]
fn faulted_revoke_grants_leaves_every_grant_in_place() {
    let write = Request::RevokeGrants {
        stream: 11,
        principal: "c".into(),
    };
    let held = |d: &Deployment| {
        let get = Request::GetGrants {
            stream: 11,
            principal: "c".into(),
        };
        let grants = vec![b"g0".to_vec(), b"g1".to_vec()];
        assert_eq!(d.call(get), Response::Blobs(grants));
    };
    assert!(sweep(&write, held) > 0, "the plan never reached the call");
}

/// A full disk, end to end. A short append (a seeded prefix of the batch,
/// then `ENOSPC`) fails a client's ingest run; the log turns read-only, and
/// says so on `/metrics`, so later writes are refused with its error, and
/// every read answers as before the run. A restart opens the log over the
/// file again: the torn tail is cut, every acked chunk is there and nothing
/// of the run, the log writes again, and the client's retry of the run
/// lands.
#[test]
fn a_full_disk_fails_the_run_and_a_restart_takes_the_retry() {
    let _faulting = faulting();
    /// A client's transport to whatever runs on the deployment now.
    struct Through<'a>(&'a Deployment);
    impl Transport for Through<'_> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            match self.0.call(req.clone()) {
                Response::Error(e) => Err(ClientFault::Refused(e)),
                other => Ok(other),
            }
        }
    }
    let cfg = StreamConfig::new(11, "m", 0, 10_000);
    let upload = |d: &Deployment, secs: std::ops::Range<i64>| {
        let mut t = Through(d);
        let rng = SecureRandom::from_seed_insecure;
        let mut owner = DataOwner::with_height(cfg.clone(), [4; 16], 20, rng(1));
        owner.create_stream(&mut t).unwrap();
        let mut p = BatchingProducer::new(cfg.clone(), owner.provision_producer(), rng(2), 16);
        for s in secs.clone() {
            p.push(&mut t, DataPoint::new(s * 1000, s)).unwrap();
        }
        p.flush(&mut t).unwrap();
        p
    };
    let battery = |d: &Deployment| -> Vec<Vec<u8>> {
        let reads = [
            Request::GetStatRange {
                streams: vec![11],
                ts_s: 0,
                ts_e: 320_000,
            },
            Request::GetRange {
                stream: 11,
                ts_s: 0,
                ts_e: 320_000,
            },
            Request::StreamInfo { stream: 11 },
        ];
        reads.map(|q| d.call(q).encode()).into()
    };
    let clean = Deployment::build(&Spec::engine());
    let mut p = upload(&clean, 0..160);
    let mut t = Through(&clean);
    (160..320).for_each(|s| p.push(&mut t, DataPoint::new(s * 1000, s)).unwrap());
    p.flush(&mut t).unwrap();
    let want = battery(&clean);

    let d = Deployment::build(&Spec::engine().fault(Fault::File(FaultPlan::quiet())));
    let mut p = upload(&d, 0..160);
    let (file, acked) = (d.faulty(0), battery(&d));
    let acked_len = d.log(0).stats().log_bytes;
    fault_append(&file, 0, FileFault::ShortAppend);
    let mut t = Through(&d);
    // Chunks 16..32: one `InsertBatch`, sent by the flush.
    (160..320).for_each(|s| p.push(&mut t, DataPoint::new(s * 1000, s)).unwrap());
    assert_eq!(STORE_READ_ONLY.get(), 0);
    p.flush(&mut t).unwrap_err();
    assert_eq!(file.injected_total(), 1);
    assert!(d.log(0).stats().read_only);
    assert_eq!(
        STORE_READ_ONLY.get(),
        1,
        "the gauge counts the read-only log"
    );
    assert!(file.truncate(u64::MAX).unwrap() > acked_len, "a torn tail");
    let create = Request::CreateStream {
        stream: 12,
        t0: 0,
        delta_ms: 10_000,
        digest_width: 2,
    };
    match d.call(create) {
        // The reason is the rendering a read-only log's error always had.
        Response::Error(e) => assert_eq!(
            e,
            Refusal::new(
                RefusalKind::ReadOnly,
                "storage: storage I/O error: read-only after a failed write"
            )
        ),
        other => panic!("a write after the full disk: {other:?}"),
    }
    assert_eq!(battery(&d), acked, "reads answer as before the run");

    d.restart(0);
    assert_eq!(STORE_READ_ONLY.get(), 0, "the reopened log writes");
    assert_eq!(
        file.truncate(u64::MAX).unwrap(),
        acked_len,
        "the tail is cut"
    );
    assert_eq!(d.log(0).stats().log_bytes, acked_len);
    assert_eq!(battery(&d), acked, "every acked chunk, none of the run");
    p.flush(&mut Through(&d)).unwrap();
    assert_eq!(battery(&d), want, "the retry lands");
}
