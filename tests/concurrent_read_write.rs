//! End-to-end read/write concurrency: statistical queries must not
//! serialize behind the stream's write lock (its stripe), and every reply must be
//! exact for the chunk prefix it observed — under both the bare engine
//! and the sharded service.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::core::heac::decrypt_range_sum;
use timecrypt::core::StreamKeyMaterial;
use timecrypt::crypto::{PrgKind, SecureRandom};
use timecrypt::server::{ServerConfig, ServerError, TimeCryptServer};
use timecrypt::service::{ServiceConfig, ShardedService};
use timecrypt::store::MemKv;

const DELTA_MS: u64 = 10_000;

fn keys(id: u128) -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(id, [(id as u8).wrapping_add(7); 16], 22, PrgKind::Aes).unwrap()
}

fn stream_cfg(id: u128) -> StreamConfig {
    StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(id, "rw", 0, DELTA_MS)
    }
}

/// Seals chunks `0..n` of `stream`, chunk `c` holding one point of value
/// `c` — so the sum over `[0, hi)` has the closed form `hi·(hi−1)/2` and
/// the count is `hi`.
fn sealed_prefix(id: u128, n: u64) -> Vec<EncryptedChunk> {
    let cfg = stream_cfg(id);
    let km = keys(id);
    let mut rng = SecureRandom::from_seed_insecure(500 + id as u64);
    (0..n)
        .map(|c| {
            PlainChunk {
                stream: id,
                index: c,
                points: vec![DataPoint::new(c as i64 * DELTA_MS as i64, c as i64)],
            }
            .seal(&cfg, &km, &mut rng)
            .unwrap()
        })
        .collect()
}

/// Asserts one statistical reply is internally exact: whatever prefix
/// `[0, hi)` it reports, the decrypted sum and count must match the
/// closed form for exactly that prefix. A torn `len` read or a partially
/// published index node cannot pass this for every reply.
fn assert_reply_exact(id: u128, reply: &timecrypt::wire::messages::StatReply) -> u64 {
    assert_eq!(reply.parts.len(), 1);
    let (sid, lo, hi) = reply.parts[0];
    assert_eq!((sid, lo), (id, 0));
    let dec = decrypt_range_sum(&keys(id).tree, lo, hi, &reply.agg).unwrap();
    assert_eq!(dec[0], (0..hi).sum::<u64>(), "sum for [0,{hi})");
    assert_eq!(dec[1], hi, "count for [0,{hi})");
    hi
}

#[test]
fn engine_readers_stay_exact_and_monotone_during_ingest() {
    const N: u64 = 400;
    const READERS: usize = 4;
    let server = Arc::new(
        TimeCryptServer::open(
            Arc::new(MemKv::new()),
            ServerConfig {
                arity: 8,
                // Small cache: readers also take the store miss path.
                cache_bytes: 8 * 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    server.create_stream(1, 0, DELTA_MS, 2).unwrap();
    let chunks = sealed_prefix(1, N);
    let done = Arc::new(AtomicBool::new(false));
    let replies = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        {
            let server = server.clone();
            let done = done.clone();
            scope.spawn(move || {
                for c in &chunks {
                    server.insert(c).unwrap();
                }
                done.store(true, Ordering::Release);
            });
        }
        for _ in 0..READERS {
            let server = server.clone();
            let done = done.clone();
            let replies = replies.clone();
            scope.spawn(move || {
                // Each reader's observed prefix must also be monotone:
                // lengths published by ingest never appear to go backwards.
                let mut last_hi = 0u64;
                loop {
                    let stop = done.load(Ordering::Acquire);
                    match server.get_stat_range(&[1], 0, N as i64 * DELTA_MS as i64) {
                        Ok(reply) => {
                            let hi = assert_reply_exact(1, &reply);
                            assert!(hi >= last_hi, "length went backwards: {last_hi} -> {hi}");
                            last_hi = hi;
                            replies.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServerError::EmptyRange) => {}
                        Err(e) => panic!("reader failed: {e}"),
                    }
                    if stop {
                        break;
                    }
                }
                assert_eq!(last_hi, N, "final read sees the whole stream");
            });
        }
    });
    assert!(
        replies.load(Ordering::Relaxed) > 0,
        "readers produced no full replies"
    );
}

#[test]
fn service_readers_stay_exact_during_batched_ingest() {
    // The same hammer through the sharded tier: one shard (so the hot
    // stream and the queries share an engine), ingest flowing through the
    // shard's worker queue.
    const N: u64 = 300;
    let svc = Arc::new(
        ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    svc.create_stream(1, 0, DELTA_MS, 2).unwrap();
    let chunks = sealed_prefix(1, N);
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let svc = svc.clone();
            let done = done.clone();
            scope.spawn(move || {
                for window in chunks.chunks(16) {
                    for r in svc.submit_batch(window.to_vec()) {
                        r.unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            });
        }
        for _ in 0..3 {
            let svc = svc.clone();
            let done = done.clone();
            scope.spawn(move || {
                let mut exact = 0u64;
                loop {
                    let stop = done.load(Ordering::Acquire);
                    match svc.get_stat_range(&[1], 0, N as i64 * DELTA_MS as i64) {
                        Ok(reply) => {
                            assert_reply_exact(1, &reply);
                            exact += 1;
                        }
                        Err(ServerError::EmptyRange) => {}
                        Err(e) => panic!("reader failed: {e}"),
                    }
                    if stop {
                        break;
                    }
                }
                assert!(exact > 0, "reader never saw a full reply");
            });
        }
    });
    // Metrics stayed coherent under concurrency: one latency sample per
    // sub-query.
    let snap = svc.stats();
    for shard in &snap.shards {
        assert_eq!(shard.queries, shard.query_hist_us.iter().sum::<u64>());
    }
}
