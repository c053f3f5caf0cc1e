//! Deterministic write-amplification guard (ROADMAP aim 1(c): gate the
//! counters that don't jitter). An ingest must cost the store what the byte
//! model of one record per chunk says: per chunk its level-0 record — the
//! chunk itself, without the position its key carries — plus one sealed
//! node per k chunks per level, all of a stream's run in one commit. In a
//! `LogKv` each record adds ≈ 10 B of frame: flags, sequence byte, value
//! length, the run number and tail that name its key (one or two bytes
//! each) and the CRC. A key is spelled out (28 B and its length) only
//! where its head had no run when the record's batch started: a stream's
//! first batch of chunks — its first two in the fleet shape, of one chunk
//! each — and its first two nodes of a level.
//!
//! **Fleet-shaped**: many streams, one small chunk per stream per batch, so
//! nothing amortises across a batch. In values, per 119 B chunk: 95 (the
//! record: 4 + 8·4 digest, 4 + 55 payload) + 2308/64 (a full level-1 node,
//! 4 + 64·36, once per 64 chunks) = 131.1 B; in the log, 105 + 2318/64 ≈
//! 141.2 B per chunk, 1.19 per user byte (the benchmark's `fleet_ingest`,
//! whose streams mostly end between seals, sits near 1.11). Records that
//! spell their keys out (14 B of frame + 28, ≈ 173.7 log bytes per chunk,
//! where this guard stood before records named their run) break the log
//! ceiling; a second record per chunk (the payload copy this model no
//! longer has: +119 B of values) breaks the put ceiling and both byte
//! ceilings; rewriting a partial index node per append (≈ 1.3 KB per chunk
//! on this load) blows them several times over.
//!
//! **Dashboard-shaped**: 19-wide digests and a stream's 16 chunks per
//! batch, so most records name a run their own batch extends. Per 284 B
//! chunk: 260 (4 + 8·19 digest, 4 + 100 payload) + 9988/64 (4 + 64·156)
//! = 416.1 value bytes; in the log ≈ 271 + 9998/64 ≈ 427.2, plus the
//! spelled-out first batch of each stream (≈ 0.9 B per chunk over 512).
//! Naming only the runs as the batch found them, not as it extends them
//! (15 of 16 records spelled out, ≈ 454), or no run at all (≈ 458.7)
//! breaks that ceiling.
//!
//! The guard prints its measured log bytes per user byte for both shapes;
//! CI copies the lines to the job summary.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{Durability, KvStore, LogKv, MeteredKv};

/// The fleet shape: 119 B sealed, the benchmark's DevOps chunk — 32 B
/// header, 4 digest words, 55 B payload.
const WIDTH: usize = 4;
const PAYLOAD: usize = 55;

/// What an ingest cost the store.
struct Cost {
    chunks: u64,
    /// Puts and value bytes, as `MeteredKv` counts them.
    puts: u64,
    bytes: u64,
    log_bytes: u64,
    user_bytes: u64,
}

impl Cost {
    fn report(&self, shape: &str) {
        println!(
            "write amplification ({shape}): {:.3} log bytes per user byte, {:.1} B per chunk",
            self.log_bytes as f64 / self.user_bytes as f64,
            self.log_bytes as f64 / self.chunks as f64
        );
    }
}

/// Ingests `per_stream` chunks — `width`-wide digests, `payload`-byte
/// payloads — into each of `streams` streams, `turn` consecutive chunks of
/// every stream per `insert_bytes_run` (one store batch per stream).
fn ingest(
    name: &str,
    streams: u128,
    per_stream: u64,
    turn: u64,
    width: usize,
    payload: usize,
) -> Cost {
    let path = std::env::temp_dir().join(format!("tc-write-amp-{name}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // `Flush`, the benchmark's durability: another test in this binary
    // counts the process's fsyncs.
    let log = Arc::new(LogKv::open_with(&path, Durability::Flush).unwrap());
    let kv = Arc::new(MeteredKv::new(log.clone()));
    let server = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
    for stream in 0..streams {
        server
            .create_stream(stream, 0, 60_000, width as u32)
            .unwrap();
    }
    let (before, log_before) = (kv.counters(), log.stats().log_bytes);
    let mut user_bytes = 0u64;
    for first in (0..per_stream).step_by(turn as usize) {
        let batch: Vec<Vec<u8>> = (0..streams)
            .flat_map(|stream| {
                (first..first + turn).map(move |index| {
                    EncryptedChunk {
                        stream,
                        index,
                        digest_ct: vec![index; width],
                        payload: vec![stream as u8; payload],
                    }
                    .to_bytes()
                })
            })
            .collect();
        user_bytes += batch.iter().map(|c| c.len() as u64).sum::<u64>();
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        assert!(server.insert_bytes_run(&views).iter().all(Result::is_ok));
    }
    let after = kv.counters();
    // Nothing stores a chunk a second time.
    assert!(kv.scan_keys(b"c/").unwrap().is_empty());
    let cost = Cost {
        chunks: streams as u64 * per_stream,
        puts: after.puts - before.puts,
        bytes: after.bytes_written - before.bytes_written,
        log_bytes: log.stats().log_bytes - log_before,
        user_bytes,
    };
    drop(server);
    std::fs::remove_file(path).unwrap();
    cost
}

#[test]
fn fleet_ingest_store_writes_stay_under_the_byte_model() {
    // 200 chunks per stream at the default arity 64: three level-1 seals.
    let cost = ingest("fleet", 8, 200, 1, WIDTH, PAYLOAD);
    cost.report("fleet-shaped ingest, 119 B chunks");
    let Cost {
        chunks,
        puts,
        bytes,
        log_bytes,
        user_bytes,
    } = cost;
    assert_eq!(user_bytes, chunks * 119);
    // Puts: 1 per chunk + 1/64 sealed level-1 nodes (+ 1/4096 level-2).
    assert!(
        puts * 4096 <= chunks * (4096 + 64 + 1),
        "{puts} puts for {chunks} chunks"
    );
    // Value bytes per chunk (`MeteredKv` counts values): 95 + 36.1 →
    // ceiling 132, i.e. under 1.11× the user bytes.
    assert!(
        bytes <= chunks * 132,
        "{bytes} B written for {chunks} chunks ({} per chunk)",
        bytes / chunks
    );
    // Log bytes per chunk: 105 + 36.2 → ceiling 142.
    assert!(
        log_bytes <= chunks * 142,
        "{log_bytes} log bytes for {chunks} chunks"
    );
}

#[test]
fn dashboard_ingest_store_writes_stay_under_the_byte_model() {
    // 512 chunks per stream, 16 a batch: 32 batches and eight level-1 seals.
    let cost = ingest("dashboard", 4, 512, 16, 19, 100);
    cost.report("dashboard-shaped ingest, 284 B chunks, 16 a batch");
    let Cost {
        chunks,
        puts,
        bytes,
        log_bytes,
        user_bytes,
    } = cost;
    assert_eq!(user_bytes, chunks * 284);
    assert!(
        puts * 4096 <= chunks * (4096 + 64 + 1),
        "{puts} puts for {chunks} chunks"
    );
    // Value bytes per chunk: 260 + 156.1 → ceiling 417.
    assert!(
        bytes <= chunks * 417,
        "{bytes} B written for {chunks} chunks ({} per chunk)",
        bytes / chunks
    );
    // Log bytes per chunk: ≈ 271 + 156.2, + 0.9 for each stream's first
    // batch → ceiling 430.
    assert!(
        log_bytes <= chunks * 430,
        "{log_bytes} log bytes for {chunks} chunks"
    );
}

/// The deployed durability (`timecrypt-node` defaults to `Fsync`): one
/// stream's 16-chunk upload is one commit, so it waits for one fsync —
/// not one per record (17 of them: 16 level-0 records and the level-1
/// node the run seals). The other test in this binary never fsyncs, so the
/// process-wide counter moves only here.
#[test]
fn an_ingest_run_under_fsync_waits_for_one_fsync() {
    let path = std::env::temp_dir().join(format!("tc-run-fsync-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let log = Arc::new(LogKv::open_with(&path, Durability::Fsync).unwrap());
    let server = TimeCryptServer::open(log.clone(), ServerConfig::default()).unwrap();
    server.create_stream(1, 0, 60_000, WIDTH as u32).unwrap();
    let run = |chunks: std::ops::Range<u64>| {
        let batch: Vec<Vec<u8>> = chunks
            .map(|index| {
                EncryptedChunk {
                    stream: 1,
                    index,
                    digest_ct: vec![index; WIDTH],
                    payload: vec![1; PAYLOAD],
                }
                .to_bytes()
            })
            .collect();
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        assert!(server.insert_bytes_run(&views).iter().all(Result::is_ok));
    };
    run(0..48);
    let (fsyncs, keys) = (timecrypt_obs::counters::FSYNCS.get(), log.len());
    run(48..64);
    assert_eq!(log.len() - keys, 17);
    assert_eq!(timecrypt_obs::counters::FSYNCS.get() - fsyncs, 1);
    drop(server);
    std::fs::remove_file(path).unwrap();
}
