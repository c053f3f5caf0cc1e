//! Deterministic write-amplification guard (ROADMAP aim 1(c): gate the
//! counters that don't jitter). A fleet-shaped ingest — many streams, one
//! small chunk per stream per batch, so nothing amortises across a batch —
//! must cost the store what the byte model of the write-once index says:
//! per chunk one payload and one level-0 record, plus one sealed node per
//! k chunks per level — all of a run in one commit. In values, per 119 B
//! chunk: 119 (payload) + 68 (level-0 record: 4 + 8·4 digest, 32
//! commitment) + 2308/64 (a full level-1 node, 4 + 64·36, once per 64
//! chunks) = 223.1 B; in a `LogKv`, add per record 14 B of frame and the
//! key (27 + 28 B), ≈ 296.8 log bytes per chunk. A third record per chunk
//! (the stream-length record this model no longer has: +8 B of values,
//! +41 log bytes) breaks the put ceiling; rewriting a partial index node
//! per append (the pre-seal-only behaviour: ≈ 1.3 KB per chunk on this
//! load) blows both several times over.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{Durability, LogKv, MemKv, MeteredKv};

const STREAMS: u128 = 8;
/// 200 chunks per stream at the default arity 64: three level-1 seals.
const CHUNKS: u64 = 200;
const WIDTH: usize = 4;
/// 119 B sealed, the benchmark's DevOps chunk: 32 B header, 4 digest
/// words, 55 B payload.
const PAYLOAD: usize = 55;

#[test]
fn fleet_ingest_store_writes_stay_under_the_byte_model() {
    let kv = Arc::new(MeteredKv::new(Arc::new(MemKv::new())));
    let server = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
    for stream in 0..STREAMS {
        server
            .create_stream(stream, 0, 60_000, WIDTH as u32)
            .unwrap();
    }
    let before = kv.counters();
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

    // Puts: 2 per chunk + 1/64 sealed level-1 nodes (+ 1/4096 level-2).
    assert!(
        puts * 4096 <= chunks * (2 * 4096 + 64 + 1),
        "{puts} puts for {chunks} chunks"
    );
    // Value bytes per chunk (`MeteredKv` counts values): 119 + 68 + 36.1
    // → ceiling 224, i.e. under 2× the user bytes.
    assert!(
        bytes <= chunks * 224,
        "{bytes} B written for {chunks} chunks ({} per chunk)",
        bytes / chunks
    );
    assert!(bytes < 2 * user_bytes);
}

/// The deployed durability (`timecrypt-node` defaults to `Fsync`): one
/// stream's 16-chunk upload is one commit, so it waits for one fsync —
/// not one per record (33 of them: 16 payloads, 16 level-0 records and
/// the level-1 node the run seals). The other test in this binary never
/// fsyncs, so the process-wide counter moves only here.
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
    let (fsyncs, keys) = (timecrypt_obs::counters::fsyncs_total(), log.len());
    run(48..64);
    assert_eq!(log.len() - keys, 33);
    assert_eq!(timecrypt_obs::counters::fsyncs_total() - fsyncs, 1);
    drop(server);
    std::fs::remove_file(path).unwrap();
}
