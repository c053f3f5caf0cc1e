//! Deterministic write-amplification guard (ROADMAP aim 1(c): gate the
//! counters that don't jitter). A fleet-shaped ingest — many streams, one
//! small chunk per stream per batch, so nothing amortises across a batch —
//! must cost the store what the byte model of one record per chunk says:
//! per chunk its level-0 record — the chunk itself, without the position
//! its key carries — plus one sealed node per k chunks per level, all of a
//! run in one commit. In values, per 119 B chunk: 95 (the record: 4 + 8·4
//! digest, 4 + 55 payload) + 2308/64 (a full level-1 node, 4 + 64·36, once
//! per 64 chunks) = 131.1 B; in a `LogKv`, add per record 14 B of frame
//! and the 28 B key: 137 + 2350/64 ≈ 173.7 log bytes per
//! chunk, 1.46 per user byte (the benchmark's `fleet_ingest`, whose
//! streams mostly end between seals, sits near 1.38). A second record per
//! chunk (the payload copy this model no longer has: +119 B of values, +160
//! log bytes) breaks the put ceiling and both byte ceilings; rewriting a
//! partial index node per append (the pre-seal-only behaviour: ≈ 1.3 KB per
//! chunk on this load) blows them several times over.
//!
//! Re-pinned in PR 19 from two records per chunk (223.1 value bytes,
//! ≈ 296.8 log bytes, 2.49 per user byte). The guard prints its measured
//! log bytes per user byte; CI copies that line to the job summary.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{Durability, KvStore, LogKv, MeteredKv};

const STREAMS: u128 = 8;
/// 200 chunks per stream at the default arity 64: three level-1 seals.
const CHUNKS: u64 = 200;
const WIDTH: usize = 4;
/// 119 B sealed, the benchmark's DevOps chunk: 32 B header, 4 digest
/// words, 55 B payload.
const PAYLOAD: usize = 55;

#[test]
fn fleet_ingest_store_writes_stay_under_the_byte_model() {
    let path = std::env::temp_dir().join(format!("tc-write-amp-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // `Flush`, the benchmark's durability: the other test in this binary
    // counts the process's fsyncs.
    let log = Arc::new(LogKv::open_with(&path, Durability::Flush).unwrap());
    let kv = Arc::new(MeteredKv::new(log.clone()));
    let server = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
    for stream in 0..STREAMS {
        server
            .create_stream(stream, 0, 60_000, WIDTH as u32)
            .unwrap();
    }
    let (before, log_before) = (kv.counters(), log.stats().log_bytes);
    let mut user_bytes = 0u64;
    for index in 0..CHUNKS {
        let batch: Vec<Vec<u8>> = (0..STREAMS)
            .map(|stream| {
                EncryptedChunk {
                    stream,
                    index,
                    digest_ct: vec![index; WIDTH],
                    payload: vec![stream as u8; PAYLOAD],
                }
                .to_bytes()
            })
            .collect();
        user_bytes += batch.iter().map(|c| c.len() as u64).sum::<u64>();
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        assert!(server.insert_bytes_run(&views).iter().all(Result::is_ok));
    }
    let after = kv.counters();
    let chunks = STREAMS as u64 * CHUNKS;
    let (puts, bytes) = (
        after.puts - before.puts,
        after.bytes_written - before.bytes_written,
    );
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
    // Log bytes per chunk: 137 + 36.7 → ceiling 174.
    let log_bytes = log.stats().log_bytes - log_before;
    println!(
        "write amplification (fleet-shaped ingest, 119 B chunks): {:.3} log bytes per user byte, \
         {:.1} B per chunk",
        log_bytes as f64 / user_bytes as f64,
        log_bytes as f64 / chunks as f64
    );
    assert!(
        log_bytes <= chunks * 174,
        "{log_bytes} log bytes for {chunks} chunks"
    );
    // Nothing stores a chunk a second time.
    assert!(kv.scan_keys(b"c/").unwrap().is_empty());
    drop(server);
    std::fs::remove_file(path).unwrap();
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
