//! Chaos capstone: the whole robustness story under one roof.
//!
//! Three scenarios:
//!
//! 1. **Seeded cluster chaos** — a replicated 2-node cluster whose log
//!    files *and* network paths run a seeded randomized [`FaultPlan`]
//!    during ingest: read errors and append and sync delays at the file
//!    (no append or sync error: it turns a node's log read-only until the
//!    node restarts, and the storm restarts none), dropped and delayed
//!    frames on the wire. Writers retry until acked (treating an
//!    out-of-order rejection after an ambiguous timeout as "already
//!    applied"). Once
//!    the storm quiets, the cluster must answer a query battery
//!    *byte-identically* to a fault-free single-process reference fed
//!    the same chunks — zero acked writes lost, zero duplicated — and
//!    recovery must complete within a bounded window.
//!
//! 2. **kill -9 mid-append** — a child process appends to an
//!    `Fsync`-durability [`LogKv`], fsyncing an ack file *after* each
//!    acknowledged put. The parent SIGKILLs it mid-write, replays the
//!    log, and asserts every acked record survived. It then flips one
//!    byte mid-file and asserts recovery refuses with a
//!    [`StoreError::CorruptAt`] naming the damaged offset (valid data
//!    follows the flip, so silently resuming would drop history).
//!
//! 3. **Node killed mid-batch** — a shard node over a [`LogKv`] dies
//!    while a stream's ingest run is being appended: its log ends inside
//!    the run's batch, at any byte. The restarted node holds every acked
//!    chunk and nothing of the un-acked run, and the client's retry of
//!    the run lands.
//!
//! The first two accept env knobs for soak runs:
//!
//! ```text
//! TC_CHAOS_SEED=1234 TC_CHAOS_ITERS=50 \
//!     cargo test --release --test chaos seeded_cluster -- --nocapture
//! ```
//!
//! is the documented 50-iteration soak (each iteration derives its plan
//! from `seed + iteration`, so any failure is reproducible by pinning
//! `TC_CHAOS_SEED` to the printed value).

use common::{dial_fast, same_replies, sealed, Deployment, Fault, Spec, TempPath};
use std::time::{Duration, Instant};
use timecrypt::faults::FaultPlan;
use timecrypt::store::log::Durability;
use timecrypt::store::{KvStore, LogKv, StoreError};
use timecrypt::wire::messages::{Refusal, RefusalKind, Request};

mod common;

const TOTAL_SHARDS: usize = 2;
const STREAMS: u128 = 5;
const CHUNKS: u64 = 6;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Happy paths, partial ranges, and error paths — both deployments must
/// answer every one of these byte-identically.
fn query_battery() -> Vec<Request> {
    let all: Vec<u128> = (0..STREAMS).collect();
    let window = CHUNKS as i64 * 10_000;
    vec![
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: all.iter().rev().copied().collect(),
            ts_s: 0,
            ts_e: window,
        },
        Request::GetStatRange {
            streams: all.clone(),
            ts_s: 15_000,
            ts_e: window - 15_000,
        },
        Request::GetStatRange {
            streams: vec![2],
            ts_s: 0,
            ts_e: window / 2,
        },
        Request::GetRange {
            stream: 3,
            ts_s: 0,
            ts_e: window,
        },
        Request::StreamInfo { stream: 1 },
        Request::GetStatRange {
            streams: vec![2, 99],
            ts_s: 0,
            ts_e: window,
        },
        Request::StreamInfo { stream: 77 },
        Request::Ping,
    ]
}

/// One iteration of the cluster chaos scenario; returns the total number
/// of file-level faults actually injected (so the soak can prove the
/// storm was not vacuous).
fn chaos_iteration(seed: u64) -> u64 {
    // Fault-free single-process reference: the ground truth for what the
    // cluster must converge to.
    let reference = Deployment::build(&Spec::coordinator(TOTAL_SHARDS)).service();

    // Two nodes over fault-injectable log files, each reached through a
    // fault-injecting TCP proxy, both quiet until the storm.
    // Promotion is exercised by tests/timeout_promotion.rs; here it stays
    // off so a backup that drifted during the storm can never be promoted
    // over the primary holding the acked data.
    let mut cfg = dial_fast(0);
    cfg.pool.io_timeout = Duration::from_millis(250);
    let quiet = FaultPlan::quiet;
    let spec = Spec::remote(TOTAL_SHARDS, 2, 2)
        .fault(Fault::File(quiet()))
        .fault(Fault::Proxy(0, quiet()))
        .fault(Fault::Proxy(1, quiet()))
        .service(cfg);
    let d = Deployment::build(&spec);
    let cluster = d.service();
    let (file_a, file_b) = (d.faulty(0), d.faulty(1));
    let (proxy_a, proxy_b) = (d.proxy(0), d.proxy(1));

    // Streams are created before the storm; the storm covers ingest.
    for id in 0..STREAMS {
        reference.create_stream(id, 0, 10_000, 2).unwrap();
        cluster.create_stream(id, 0, 10_000, 2).unwrap();
    }

    // Storm on: every file call and every wire frame may fault, per a
    // plan derived deterministically from the seed.
    file_a.set_plan(FaultPlan::randomized(seed));
    file_b.set_plan(FaultPlan::randomized(seed ^ 0xb));
    proxy_a.set_plan(FaultPlan::randomized(seed ^ 0xc));
    proxy_b.set_plan(FaultPlan::randomized(seed ^ 0xd));

    // Ingest under fire, round-robin across streams, retrying each chunk
    // until acked. An out-of-order rejection here means an earlier
    // "ambiguous" attempt actually landed — the write is applied, and the
    // strict next-index check is what proves it was applied exactly once.
    for index in 0..CHUNKS {
        for id in 0..STREAMS {
            let chunk = sealed(id, index, id as i64 * 31 + index as i64 * 7);
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                match cluster.insert(&chunk).map_err(Refusal::from) {
                    Ok(()) => break,
                    Err(e) if e.kind == RefusalKind::Conflict => break,
                    Err(e) => assert!(
                        attempts < 200,
                        "seed {seed}: chunk ({id},{index}) never acked: {e:?}"
                    ),
                }
            }
            // The reference applies each chunk exactly once, at ack time.
            reference.insert(&chunk).unwrap();
        }
    }
    let injected = file_a.injected_total() + file_b.injected_total();

    // Storm off; the cluster must now converge to the reference within a
    // bounded window and answer the battery byte-identically.
    file_a.set_plan(FaultPlan::quiet());
    file_b.set_plan(FaultPlan::quiet());
    proxy_a.set_plan(FaultPlan::quiet());
    proxy_b.set_plan(FaultPlan::quiet());

    let recovery = Instant::now();
    let after = format!("seed {seed}: after the storm");
    same_replies(&*reference, &*cluster, query_battery(), &after);
    assert!(
        recovery.elapsed() < Duration::from_secs(30),
        "seed {seed}: recovery battery took {:?}",
        recovery.elapsed()
    );
    injected
}

/// Seeded, repeatable cluster chaos. `TC_CHAOS_SEED` pins the base seed,
/// `TC_CHAOS_ITERS` the iteration count (each iteration uses
/// `seed + i`); defaults keep CI fast. See the module docs for the
/// 50-iteration soak command.
#[test]
fn seeded_cluster_chaos_preserves_acked_writes_and_reply_identity() {
    let seed = env_u64("TC_CHAOS_SEED", 0xC0FFEE);
    let iters = env_u64("TC_CHAOS_ITERS", 2);
    let mut injected_total = 0u64;
    for i in 0..iters {
        let iter_seed = seed + i;
        println!("chaos iteration {i}: seed {iter_seed}");
        injected_total += chaos_iteration(iter_seed);
    }
    assert!(
        injected_total > 0,
        "the storm must actually inject file faults (seed {seed}, {iters} iters)"
    );
}

// ---------------------------------------------------------------------------
// kill -9 durability
// ---------------------------------------------------------------------------

/// Deterministic payload for record `i` — the parent recomputes this to
/// verify recovered values, not just key presence.
fn chaos_value(i: u64) -> Vec<u8> {
    (0..32u8)
        .map(|b| b.wrapping_mul(7).wrapping_add(i as u8))
        .collect()
}

/// Child mode for the kill -9 scenario: appends records to an
/// `Fsync`-durability log forever, fsyncing a line into the ack file
/// *after* each put returns. Because `Durability::Fsync` means "put
/// returned ⇒ record is on disk", every complete ack line names a record
/// that must survive any crash. No-ops (and passes) when run as a normal
/// test — the parent spawns it with the env vars set and then SIGKILLs it.
#[test]
fn chaos_child_writer() {
    let (Ok(log), Ok(ack)) = (std::env::var("TC_CHAOS_LOG"), std::env::var("TC_CHAOS_ACK")) else {
        return;
    };
    use std::io::Write;
    let kv = LogKv::open_with(&log, Durability::Fsync).unwrap();
    let mut ack_f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ack)
        .unwrap();
    for i in 0u64.. {
        let key = format!("k{i:06}");
        kv.put(key.as_bytes(), &chaos_value(i)).unwrap();
        writeln!(ack_f, "{i}").unwrap();
        ack_f.sync_all().unwrap();
    }
}

/// SIGKILL a child mid-append, replay the log, and assert the durability
/// contract: every record whose ack line is complete was recovered with
/// its exact value. Then flip one byte inside the *first* record (so
/// valid records follow the damage) and assert recovery hard-fails with
/// `CorruptAt` naming the offset instead of silently dropping history.
#[test]
fn kill9_mid_append_preserves_acked_records_and_flags_corruption() {
    let (log, ack) = (TempPath::new("kill9.log"), TempPath::new("kill9.ack"));

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["chaos_child_writer", "--exact", "--nocapture"])
        .env("TC_CHAOS_LOG", log.as_ref())
        .env("TC_CHAOS_ACK", ack.as_ref())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Let the writer make real progress (two fsyncs per record), then
    // kill it without warning. `Child::kill` is SIGKILL on Unix — no
    // destructors, no flush, exactly the crash we claim to survive.
    let started = Instant::now();
    let acked_lines = loop {
        let text = std::fs::read_to_string(&ack).unwrap_or_default();
        let complete = text.matches('\n').count();
        if complete >= 20 {
            break complete;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "child wrote only {complete} acked records in 30s"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    // Acked = complete lines only; a torn final line was never acked.
    let text = std::fs::read_to_string(&ack).unwrap();
    let acked: Vec<u64> = text
        .split_inclusive('\n')
        .filter(|l| l.ends_with('\n'))
        .map(|l| l.trim().parse().unwrap())
        .collect();
    assert!(acked.len() >= acked_lines.min(20));

    // Replay. A torn tail (the record being appended at kill time) is
    // allowed and truncated; every acked record must be intact.
    let kv = LogKv::open_with(&log, Durability::Flush).unwrap();
    for &i in &acked {
        let key = format!("k{i:06}");
        assert_eq!(
            kv.get(key.as_bytes()).unwrap(),
            Some(chaos_value(i)),
            "acked record {i} lost or mangled after kill -9"
        );
    }
    drop(kv);

    // Mid-file corruption is not a torn tail: flip a byte inside the
    // first record — valid records follow, so recovery must refuse with
    // the damage offset rather than resume and silently drop them.
    let mut bytes = std::fs::read(&log).unwrap();
    assert!(bytes.len() > 128, "log too short to corrupt mid-file");
    bytes[20] ^= 0xff; // 8-byte magic + 12 bytes into record 0, inside its value
    std::fs::write(&log, &bytes).unwrap();
    match LogKv::open_with(&log, Durability::Flush) {
        Err(StoreError::CorruptAt { offset, .. }) => {
            assert_eq!(offset, 8, "damage is in the first record after the magic");
        }
        Ok(_) => panic!("recovery accepted a mid-file corrupted log"),
        Err(other) => panic!("expected CorruptAt, got: {other}"),
    }
}

// ---------------------------------------------------------------------------
// node killed mid-batch
// ---------------------------------------------------------------------------

/// One stream's run as the `InsertBatch` a coordinator sends; `Ok` when
/// every chunk was accepted.
fn insert_run(node: &Deployment, id: u128, chunks: std::ops::Range<u64>) -> Result<(), String> {
    let chunks = chunks.map(|i| sealed(id, i, i as i64).to_bytes()).collect();
    match node.call(Request::InsertBatch { chunks }) {
        timecrypt::wire::Response::Batch { errors } if errors.is_empty() => Ok(()),
        other => Err(format!("{other:?}")),
    }
}

#[test]
fn node_killed_mid_batch_keeps_acked_chunks_drops_the_run_and_takes_the_retry() {
    // A node process over a log: both shards, like `timecrypt-node`.
    let node = Deployment::build(&Spec::node(TOTAL_SHARDS).on_disk());
    let path = node.path(0);
    // Streams 1 and 2 are acked history; stream 1's second run (chunks
    // 70..86, sealing nothing; the first sealed a level-1 node) is the one
    // in flight when the node dies.
    let battery = |node: &Deployment| -> Vec<Vec<u8>> {
        let window = 100 * 10_000;
        let stat = |streams: Vec<u128>| Request::GetStatRange {
            streams,
            ts_s: 0,
            ts_e: window,
        };
        let range = |stream| Request::GetRange {
            stream,
            ts_s: 0,
            ts_e: window,
        };
        let info = |stream| Request::StreamInfo { stream };
        [
            stat(vec![1]),
            stat(vec![2, 1]),
            range(1),
            range(2),
            info(1),
            info(2),
        ]
        .map(|q| node.call(q).encode())
        .into()
    };
    for id in [1, 2] {
        let create = Request::CreateStream {
            stream: id,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        };
        assert_eq!(node.call(create), timecrypt::wire::Response::Ok);
    }
    insert_run(&node, 1, 0..70).unwrap();
    insert_run(&node, 2, 0..5).unwrap();
    let log = node.log(0);
    let (acked_len, acked_keys) = (log.stats().log_bytes, log.len());
    let acked_replies = battery(&node);
    insert_run(&node, 1, 70..86).unwrap();
    let full_replies = battery(&node);
    drop(log);
    node.kill(0);
    let full = std::fs::read(&path).unwrap();
    assert!(
        full.len() as u64 > acked_len + 16 * 60,
        "the run is in the log"
    );
    // Kill points: every byte of the batch's first two records, then a
    // stride through the rest, and the byte before its end.
    let cuts = (acked_len + 1..acked_len + 400)
        .chain((acked_len + 400..full.len() as u64).step_by(37))
        .chain([full.len() as u64 - 1]);
    for cut in cuts {
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        node.restart(0);
        let log = node.log(0);
        assert_eq!(
            log.stats().log_bytes,
            acked_len,
            "cut {cut}: the batch is gone whole"
        );
        assert_eq!(log.len(), acked_keys, "cut {cut}");
        assert_eq!(battery(&node), acked_replies, "cut {cut}: acked history");
        insert_run(&node, 1, 70..86).unwrap_or_else(|e| panic!("cut {cut}: retry: {e}"));
        assert_eq!(battery(&node), full_replies, "cut {cut}: after the retry");
        drop(log);
        node.kill(0);
        assert_eq!(std::fs::read(&path).unwrap(), full, "cut {cut}: same log");
    }
}
