//! End-to-end replica rebuild + automatic promotion: the full R=2 loop.
//!
//! A replicated shard's primary is killed mid-traffic. The coordinator
//! must (1) keep answering every query byte-identically (failover, then
//! automatic promotion of the write-mirrored backup) and lose no
//! acknowledged write, (2) accept a freshly attached replacement replica
//! and rebuild it from the survivor over `ExportStream` / `ImportStream`
//! pages, and (3) survive a *second* primary death by promoting the
//! rebuilt replica — proving the rebuilt node answers reads with the
//! same bytes as a never-failed single-process deployment. A second test
//! rebuilds a replica while a writer appends, puts grants, envelopes and
//! an attestation and deletes a range, and fails over to it; a third
//! rebuilds one under a writer that never pauses, from before the attach
//! until after it returned.

use common::{dial_fast, same_replies, sealed, Deployment, Spec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::crypto::SecureRandom;
use timecrypt::integrity::{chunk_commitment, StreamLedger};
use timecrypt::pk::SigningKey;
use timecrypt::service::ShardedService;
use timecrypt::store::KvStore;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::transport::Handler;

mod common;

const STREAMS: [u128; 2] = [1, 2];
const BASE_CHUNKS: u64 = 5;

/// The cluster's single shard on `nodes` nodes, `replicas` of them
/// holding it, under a coordinator that dials fast and promotes after two
/// strikes.
fn cluster(nodes: usize, replicas: usize) -> Deployment {
    Deployment::build(&Spec::remote(1, nodes, replicas).service(dial_fast(2)))
}

/// The never-failed single-process reference: the byte-identity oracle.
fn reference() -> Deployment {
    Deployment::build(&Spec::coordinator(1))
}

/// Inserts with retries: an acknowledged write is one that returned `Ok`.
/// During the promotion window writes fail un-acknowledged; the retries
/// must succeed once the backup is promoted.
fn insert_acked(svc: &ShardedService, chunk: &EncryptedChunk) {
    for _ in 0..500 {
        if svc.insert(chunk).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("write was never acknowledged — promotion did not restore write availability");
}

/// The read battery both deployments must answer with identical bytes.
fn battery(chunks: u64) -> Vec<Request> {
    let window = chunks as i64 * 10_000;
    vec![
        Request::GetStatRange {
            streams: STREAMS.to_vec(),
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: vec![2, 1],
            ts_s: 5_000,
            ts_e: window - 5_000,
        },
        Request::GetRange {
            stream: 1,
            ts_s: 0,
            ts_e: window,
        },
        Request::StreamInfo { stream: 2 },
        Request::GetStatRange {
            streams: vec![1, 99],
            ts_s: 0,
            ts_e: window,
        },
    ]
}

#[test]
fn primary_death_promotes_then_replacement_rebuilds_and_survives_second_death() {
    let (reference, d) = (reference().service(), cluster(2, 2));
    let cluster = d.service();

    // Phase 0: identical base workload to both deployments.
    for &id in &STREAMS {
        reference.create_stream(id, 0, 10_000, 2).unwrap();
        cluster.create_stream(id, 0, 10_000, 2).unwrap();
        for i in 0..BASE_CHUNKS {
            let c = sealed(id, i, (id as i64) * 7 + i as i64);
            reference.insert(&c).unwrap();
            cluster.insert(&c).unwrap();
        }
    }
    same_replies(
        &*reference,
        &*cluster,
        battery(BASE_CHUNKS),
        "healthy cluster",
    );
    let prefix_reply = cluster
        .get_stat_range(&STREAMS, 0, BASE_CHUNKS as i64 * 10_000)
        .unwrap();

    // Phase 1: kill the primary mid-traffic. A query thread hammers the
    // stable prefix window the whole time — ZERO of its queries may fail
    // or change bytes (failover covers the gap, promotion closes it) —
    // while the main thread keeps writing; every write is retried until
    // acknowledged, and promotion must restore write availability.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let queries_run = scope.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let reply = cluster
                    .get_stat_range(&STREAMS, 0, BASE_CHUNKS as i64 * 10_000)
                    .expect("queries must never fail during failover/promotion");
                assert_eq!(reply, prefix_reply, "failover reply changed bytes");
                n += 1;
            }
            n
        });
        d.kill(0);
        for i in BASE_CHUNKS..2 * BASE_CHUNKS {
            for &id in &STREAMS {
                insert_acked(&cluster, &sealed(id, i, (id as i64) * 7 + i as i64));
            }
        }
        stop.store(true, Ordering::Relaxed);
        assert!(queries_run.join().unwrap() > 0, "query thread never ran");
    });

    // Every acknowledged write is durable on the promoted primary.
    for &id in &STREAMS {
        for i in BASE_CHUNKS..2 * BASE_CHUNKS {
            reference
                .insert(&sealed(id, i, (id as i64) * 7 + i as i64))
                .unwrap();
        }
        match cluster.handle(Request::StreamInfo { stream: id }) {
            Response::Info(info) => {
                assert_eq!(info.len, 2 * BASE_CHUNKS, "no acknowledged write lost")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    same_replies(
        &*reference,
        &*cluster,
        battery(2 * BASE_CHUNKS),
        "after promotion",
    );
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].promotions, 1, "{snap:?}");
    assert!(snap.shards[0].failovers > 0, "{snap:?}");
    assert!(
        !snap.shards[0].in_sync,
        "promoted shard runs un-replicated until a replacement arrives: {snap:?}"
    );

    // Phase 2: attach a replacement replica; the call sweeps the
    // survivor's records into it (ExportStream / ImportStream pages) until
    // a sweep of each stream finds them there, and re-arms mirroring
    // before it returns.
    let node_c = d.add_node(0);
    cluster.attach_replica(0, d.addr(node_c)).unwrap();
    let snap = cluster.stats();
    assert_eq!(
        snap.shards[0].rebuild_chunks_copied,
        STREAMS.len() as u64 * 2 * BASE_CHUNKS,
        "every chunk of every stream copied exactly once: {snap:?}"
    );

    // With the replica in sync, mirrored writes keep it in lock-step:
    // `replica_errors` must stop advancing.
    let drift_before = snap.shards[0].replica_errors;
    for &id in &STREAMS {
        let c = sealed(id, 2 * BASE_CHUNKS, 41 + id as i64);
        cluster.insert(&c).unwrap();
        reference.insert(&c).unwrap();
    }
    let snap = cluster.stats();
    assert_eq!(
        snap.shards[0].replica_errors, drift_before,
        "an in-sync replica does not drift: {snap:?}"
    );

    // Phase 3: kill the promoted primary too. Reads fail over to the
    // REBUILT replica and promote it — the rebuilt node answers with the
    // same bytes as the never-failed reference.
    d.kill(1);
    same_replies(
        &*reference,
        &*cluster,
        battery(2 * BASE_CHUNKS + 1),
        "rebuilt replica serving",
    );
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].promotions, 2, "second promotion: {snap:?}");
    // And the rebuilt node accepts writes as the new primary.
    for &id in &STREAMS {
        let c = sealed(id, 2 * BASE_CHUNKS + 1, 43 + id as i64);
        insert_acked(&cluster, &c);
        reference.insert(&c).unwrap();
    }
    same_replies(
        &*reference,
        &*cluster,
        battery(2 * BASE_CHUNKS + 2),
        "rebuilt replica as primary",
    );
}

#[test]
fn a_rebuild_racing_live_writes_converges() {
    // Eight streams hold a base load; a writer appends 50 runs of four
    // chunks (run k to stream k % 8), and between them puts a grant,
    // envelopes and an attestation and stubs a range, while the main
    // thread attaches and rebuilds a replica. Copy and mirroring race on
    // every stream.
    const IDS: u128 = 8;
    const BASE: u64 = 16;
    const RUNS: u64 = 50;
    const RUN: u64 = 4;
    let value = |id: u128, i: u64| (id as i64) * 11 + i as i64;
    let (reference, d) = (reference().service(), cluster(1, 1));
    let cluster = d.service();
    for id in 1..=IDS {
        cluster.create_stream(id, 0, 10_000, 2).unwrap();
        let base = (0..BASE).map(|i| sealed(id, i, value(id, i))).collect();
        assert!(cluster.submit_batch(base).iter().all(Result::is_ok));
    }
    let mut next = [BASE; IDS as usize];
    let runs: Vec<Vec<EncryptedChunk>> = (0..RUNS)
        .map(|k| {
            let id = (k as u128 % IDS) + 1;
            let first = next[id as usize - 1];
            next[id as usize - 1] += RUN;
            (first..first + RUN)
                .map(|i| sealed(id, i, value(id, i)))
                .collect()
        })
        .collect();
    // The rest of the write vocabulary, one request every twelve runs.
    let mut ledger = StreamLedger::new(1);
    for i in 0..BASE {
        let chunk = sealed(1, i, value(1, i));
        let commitment = chunk_commitment(&chunk.to_bytes());
        ledger.append(commitment, chunk.digest_ct).unwrap();
    }
    let mut rng = SecureRandom::from_seed_insecure(5);
    let owner = SigningKey::generate(&mut rng);
    let extras = [
        Request::PutGrant {
            stream: 3,
            principal: "bob".into(),
            blob: vec![7; 3],
        },
        Request::PutEnvelopes {
            stream: 4,
            resolution: 4,
            envelopes: vec![(0, vec![9; 4]), (1, vec![8])],
        },
        Request::PutAttestation {
            stream: 1,
            attestation: ledger.attest(&owner, &mut rng).encode(),
        },
        Request::DeleteRange {
            stream: 2,
            ts_s: 20_000,
            ts_e: 40_000,
        },
    ];
    let node_b = d.add_node(0);
    let start = Barrier::new(2);
    let attached = std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for (k, run) in runs.into_iter().enumerate() {
                if k % 12 == 6 {
                    assert_eq!(cluster.handle(extras[k / 12].clone()), Response::Ok);
                }
                assert!(cluster.submit_batch(run).iter().all(Result::is_ok));
            }
        });
        start.wait();
        cluster.attach_replica(0, d.addr(node_b))
    });
    attached.expect("the rebuild converged");
    let snap = cluster.stats();
    assert_eq!(snap.shards[0].replica_errors, 0, "{snap:?}");
    assert!(snap.shards[0].in_sync, "{snap:?}");

    // The never-failed reference holds the same chunks.
    for id in 1..=IDS {
        reference.create_stream(id, 0, 10_000, 2).unwrap();
        let all = (0..next[id as usize - 1]).map(|i| sealed(id, i, value(id, i)));
        assert!(reference
            .submit_batch(all.collect())
            .iter()
            .all(Result::is_ok));
    }
    for extra in &extras {
        assert_eq!(reference.handle(extra.clone()), Response::Ok);
    }
    // Kill the primary: the rebuilt replica answers, and is promoted.
    d.kill(0);
    for id in 1..=IDS {
        let window = next[id as usize - 1] as i64 * 10_000;
        let reads = [
            Request::StreamInfo { stream: id },
            Request::GetRange {
                stream: id,
                ts_s: 0,
                ts_e: window,
            },
            Request::GetStatRange {
                streams: vec![id],
                ts_s: 0,
                ts_e: window,
            },
        ];
        same_replies(&*reference, &*cluster, reads, "rebuilt replica");
    }
    let vocabulary = [
        Request::GetGrants {
            stream: 3,
            principal: "bob".into(),
        },
        Request::GetEnvelopes {
            stream: 4,
            resolution: 4,
            lo: 0,
            hi: 9,
        },
        Request::GetAttestation { stream: 1 },
        Request::GetRangeProof {
            stream: 1,
            ts_s: 0,
            ts_e: BASE as i64 * 10_000,
        },
        Request::GetRange {
            stream: 2,
            ts_s: 0,
            ts_e: 60_000,
        },
    ];
    for q in vocabulary {
        let want = reference.handle(q.clone());
        assert!(!matches!(want, Response::Error(_)), "{q:?}: {want:?}");
        assert_eq!(cluster.handle(q.clone()).encode(), want.encode(), "{q:?}");
    }
    assert_eq!(cluster.stats().shards[0].promotions, 1);
}

/// Every record `kv` holds, in key order.
fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut all = kv.scan_prefix(b"").unwrap();
    all.sort_unstable();
    all
}

/// Attaches a replica to a shard of `streams` streams of `chunks` chunks
/// while a writer appends one chunk to each of up to 16 streams per batch,
/// round-robin, from before the call until well after it returned. Once
/// the writer stopped, the replica's store must be the survivor's, byte
/// for byte. Returns what the rebuild took, as a printable line.
fn rebuild_under_a_writer(streams: u128, chunks: u64) -> String {
    let d = cluster(1, 1);
    let (cluster, survivor) = (d.service(), d.log(0));
    let replica = d.add_node(0);
    let replica_kv = d.log(replica);
    let value = |id: u128, i: u64| (id as i64) * 13 + i as i64;
    for id in 0..streams {
        cluster.create_stream(id, 0, 10_000, 2).unwrap();
        let base = (0..chunks).map(|i| sealed(id, i, value(id, i))).collect();
        assert!(cluster.submit_batch(base).iter().all(Result::is_ok));
    }
    let batch = streams.min(16);
    let (written, stop) = (AtomicU64::new(0), AtomicBool::new(false));
    let wait_for = |n: u64| {
        while written.load(Ordering::SeqCst) < n {
            std::thread::yield_now();
        }
    };
    let stored = |kv: &dyn KvStore| -> usize { dump(kv).iter().map(|(_, v)| v.len()).sum() };
    let line = std::thread::scope(|scope| {
        scope.spawn(|| {
            let (mut next, mut at) = (vec![chunks; streams as usize], 0);
            while !stop.load(Ordering::SeqCst) {
                let run: Vec<_> = (0..batch)
                    .map(|_| {
                        let (id, i) = (at, next[at as usize]);
                        (next[at as usize], at) = (i + 1, (at + 1) % streams);
                        sealed(id, i, value(id, i))
                    })
                    .collect();
                assert!(cluster.submit_batch(run).iter().all(Result::is_ok));
                written.fetch_add(batch as u64, Ordering::SeqCst);
            }
        });
        wait_for(batch as u64);
        let (begun, before) = (Instant::now(), written.load(Ordering::SeqCst));
        let read = survivor.counters().bytes_read;
        let attached = cluster.attach_replica(0, d.addr(replica));
        let (ms, read) = (begun.elapsed(), survivor.counters().bytes_read - read);
        let during = written.load(Ordering::SeqCst) - before;
        let held = stored(&*survivor);
        let (after, from) = (Instant::now(), written.load(Ordering::SeqCst));
        if attached.is_ok() {
            wait_for(from + 8 * streams.max(16) as u64);
        }
        let rate = |n: u64, t: Duration| n as f64 / t.as_secs_f64();
        let later = rate(written.load(Ordering::SeqCst) - from, after.elapsed());
        stop.store(true, Ordering::SeqCst);
        attached.expect("the rebuild armed");
        format!(
            "rebuild under a writer that never pauses, {streams} streams × {chunks} chunks: \
             {} pass(es), {:.1} ms, {read} B read on the survivor for {held} B stored \
             ({:.2}×), writer {:.0} chunks/s during it, {later:.0} after",
            d.frames_of(replica, "ListStreams"),
            ms.as_secs_f64() * 1e3,
            read as f64 / held as f64,
            rate(during, ms),
        )
    });
    let snap = cluster.stats();
    assert!(snap.shards[0].in_sync, "{snap:?}");
    assert_eq!(snap.shards[0].replica_errors, 0, "{snap:?}");
    assert!(dump(&*survivor) == dump(&*replica_kv), "the stores differ");
    line
}

#[test]
fn a_rebuild_under_a_writer_that_never_pauses_arms() {
    println!("{}", rebuild_under_a_writer(8, 16));
}

/// The same at the scales a rebuild's cost depends on — many streams, and
/// few long ones. Local runs only: `cargo test --release --test
/// replica_rebuild -- --ignored --nocapture`.
#[test]
#[ignore]
fn a_rebuild_under_a_writer_that_never_pauses_at_scale() {
    for (streams, chunks) in [(2_000, 64), (8, 25_000)] {
        println!("{}", rebuild_under_a_writer(streams, chunks));
    }
}
