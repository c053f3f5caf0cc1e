//! Deterministic write-amplification guard (ROADMAP aim 1(c): gate the
//! counters that don't jitter). A fleet-shaped ingest — many streams, one
//! small chunk per stream per batch, so nothing amortises across a batch —
//! must cost the store what the byte model of the write-once index says:
//! per chunk one payload, one level-0 record and one length record, plus
//! one sealed node per k chunks per level. Rewriting a partial index node
//! per append (the pre-seal-only behaviour: ≈ 1.3 KB and 4 puts per chunk
//! on this load) blows both ceilings several times over.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{MemKv, MeteredKv};

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

    // Puts: 3 per chunk + 1/64 sealed level-1 nodes (+ 1/4096 level-2).
    assert!(
        puts * 4096 <= chunks * (3 * 4096 + 64 + 1),
        "{puts} puts for {chunks} chunks"
    );
    // Value bytes per chunk (`MeteredKv` counts values): payload 119,
    // level-0 record 4 + 8·4 + 32 = 68, length record 8, and 1/64 of a
    // full level-1 node (4 + 64·36 = 2308): 195 + 36.1 → ceiling 232,
    // i.e. under 2× the user bytes.
    assert!(
        bytes <= chunks * 232,
        "{bytes} B written for {chunks} chunks ({} per chunk)",
        bytes / chunks
    );
    assert!(bytes < 2 * user_bytes);
}
