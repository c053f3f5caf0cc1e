//! Concurrency tests for the hydration seam: single-flight (N threads
//! slamming one cold stream open it from the store exactly once) and
//! evict-vs-read races (a reader holding the stream's `Arc` survives
//! eviction and answers exactly).

use std::sync::{Arc, Barrier};
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_server::{ServerConfig, TimeCryptServer};
use timecrypt_store::{KvStore, MemKv};

const DELTA_MS: u64 = 10_000;

fn ingest(engine: &TimeCryptServer, stream: u128, chunks: u64) {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(stream, "m", 0, DELTA_MS)
    };
    let km = StreamKeyMaterial::with_params(stream, [stream as u8; 16], 20, PrgKind::Aes).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(stream as u64);
    engine.create_stream(stream, 0, DELTA_MS, 2).unwrap();
    for index in 0..chunks {
        let sealed = PlainChunk {
            stream,
            index,
            points: vec![DataPoint::new(
                index as i64 * DELTA_MS as i64,
                index as i64 + 1,
            )],
        }
        .seal(&cfg, &km, &mut rng)
        .unwrap();
        engine.insert(&sealed).unwrap();
    }
}

#[test]
fn concurrent_cold_touch_opens_the_stream_once() {
    // Seed a store, then reopen it cold, counting its calls. A query
    // over the whole 6-chunk stream is answered from the running sum, so
    // every store read is hydration's: the length probes (key scans) and
    // the last level-0 record (a get).
    let base: Arc<dyn KvStore> = Arc::new(MemKv::new());
    {
        let seeder = TimeCryptServer::open(base.clone(), ServerConfig::default()).unwrap();
        ingest(&seeder, 1, 6);
    }
    let engine = Arc::new(
        TimeCryptServer::open(
            base.clone(),
            ServerConfig {
                max_resident_streams: Some(4),
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    let before = base.counters();
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let replies: Vec<_> = (0..threads)
        .map(|_| {
            let engine = engine.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                engine.stream_stat(1, 0, 6 * DELTA_MS as i64).unwrap()
            })
        })
        .collect();
    let replies: Vec<_> = replies.into_iter().map(|t| t.join().unwrap()).collect();
    for r in &replies[1..] {
        assert_eq!(r, &replies[0], "racing cold reads diverged");
    }
    let raced = base.counters();
    let residency = engine.residency();
    assert_eq!(residency.hydrations, 1, "exactly one hydration counted");
    assert_eq!(residency.resident, 1);
    // The race read exactly what one cold touch alone reads.
    assert_eq!(engine.evict_idle_streams(), 1);
    engine.stream_stat(1, 0, 6 * DELTA_MS as i64).unwrap();
    let alone = base.counters();
    assert_eq!(raced.gets - before.gets, 1);
    assert_eq!(
        (raced.gets - before.gets, raced.scans - before.scans),
        (alone.gets - raced.gets, alone.scans - raced.scans),
        "one open for {threads} racing cold touches"
    );
}

#[test]
fn reader_holding_the_stream_survives_eviction() {
    // One thread hammers queries on stream 1 while another alternates
    // touching stream 2 (displacing 1 from the cap-1 LRU) and force
    // sweeping. Every reply must stay exact: a reader that grabbed the
    // stream's Arc before an eviction finishes against it unharmed, and
    // the next touch rehydrates.
    let engine = Arc::new(
        TimeCryptServer::open(
            Arc::new(MemKv::new()),
            ServerConfig {
                max_resident_streams: Some(1),
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    ingest(&engine, 1, 4);
    ingest(&engine, 2, 4);
    let expected = engine.stream_stat(1, 0, 4 * DELTA_MS as i64).unwrap();
    let expected_other = engine.stream_stat(2, 0, 4 * DELTA_MS as i64).unwrap();
    let iterations = 400;
    let reader = {
        let engine = engine.clone();
        let expected = expected.clone();
        std::thread::spawn(move || {
            for i in 0..iterations {
                let got = engine.stream_stat(1, 0, 4 * DELTA_MS as i64).unwrap();
                assert_eq!(got, expected, "reader saw a wrong reply at iteration {i}");
            }
        })
    };
    let evictor = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for i in 0..iterations {
                let got = engine.stream_stat(2, 0, 4 * DELTA_MS as i64).unwrap();
                assert_eq!(got, expected_other, "evictor saw a wrong reply at {i}");
                engine.evict_idle_streams();
            }
        })
    };
    reader.join().unwrap();
    evictor.join().unwrap();
    let residency = engine.residency();
    assert!(
        residency.evictions > 0,
        "the race never evicted anything — sweep not exercised"
    );
    assert!(residency.resident <= 1, "cap of 1 violated");
}
