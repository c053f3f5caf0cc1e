//! The lazy-hydration experiment: open time and steady-state query
//! throughput of a bounded-residency engine as the stored stream count
//! grows far past the resident cap.
//!
//! An engine is opened over a `MemKv` holding `N` registered streams, only
//! [`HOT`] of which carry chunks. Open is one directory scan (`open_ms`
//! scales with the directory, not with per-stream tree state) and resident
//! RAM is bounded at [`CAP`] streams; the query loop (working set inside
//! the cap) then compares the capped engine against an uncapped one over
//! the same store — LRU bookkeeping must be noise once the working set is
//! resident.
//!
//! The one argument is the comma-separated sweep of `N` (default
//! `10000,100000,1000000`; CI passes `2000`). One JSON object per `N` on
//! stdout; exits non-zero if a reply differs from the seeding engine's or
//! the cap is exceeded. Timings are printed, never compared.

use std::sync::Arc;
use std::time::Instant;
use timecrypt_bench::workload::presealed;
use timecrypt_server::{ServerConfig, StreamStat, TimeCryptServer};
use timecrypt_store::{KvStore, MemKv};

/// Resident-stream LRU cap of the capped engine.
const CAP: usize = 1024;
/// Streams that carry chunks and are queried round-robin.
const HOT: usize = 32;
const HOT_CHUNKS: u64 = 4;
/// Timed queries per engine.
const QUERIES: usize = 200_000;
const WINDOW: i64 = HOT_CHUNKS as i64 * 10_000;

/// Hydrates the hot set (checking every reply), then times the query loop.
fn query_ops_s(engine: &TimeCryptServer, expected: &[StreamStat]) -> f64 {
    for (id, want) in expected.iter().enumerate() {
        let got = engine.stream_stat(id as u128, 0, WINDOW).unwrap();
        assert_eq!(&got, want, "wrong reply for stream {id}");
    }
    let t = Instant::now();
    for q in 0..QUERIES {
        let id = (q % expected.len()) as u128;
        std::hint::black_box(engine.stream_stat(id, 0, WINDOW).unwrap());
    }
    QUERIES as f64 / t.elapsed().as_secs_f64()
}

fn run(n: usize) {
    let hot = HOT.min(n);
    let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let expected: Vec<StreamStat> = {
        let seeder = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
        for id in 0..n as u128 {
            seeder.create_stream(id, 0, 10_000, 2).unwrap();
        }
        for chunk in presealed(hot, HOT_CHUNKS).iter().flatten() {
            seeder.insert(chunk).unwrap();
        }
        (0..hot as u128)
            .map(|id| seeder.stream_stat(id, 0, WINDOW).unwrap())
            .collect()
    };
    let t = Instant::now();
    let capped = TimeCryptServer::open(
        kv.clone(),
        ServerConfig {
            max_resident_streams: Some(CAP),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(capped.stream_count(), n);
    assert_eq!(
        capped.residency().resident,
        0,
        "open must not hydrate anything"
    );
    let capped_ops_s = query_ops_s(&capped, &expected);
    let resident_max = capped.residency().resident;
    assert!(
        resident_max <= CAP as u64,
        "resident {resident_max} exceeded cap {CAP}"
    );
    let uncapped = TimeCryptServer::open(kv, ServerConfig::default()).unwrap();
    let uncapped_ops_s = query_ops_s(&uncapped, &expected);
    println!(
        "{{\"bench\":\"many_streams\",\"streams\":{n},\"cap\":{CAP},\"hot\":{hot},\"queries\":{QUERIES},\"open_ms\":{open_ms:.1},\"resident_max\":{resident_max},\"capped_ops_s\":{capped_ops_s:.0},\"uncapped_ops_s\":{uncapped_ops_s:.0}}}"
    );
}

fn main() {
    let sweep = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "10000,100000,1000000".into());
    for n in sweep.split(',') {
        let n: usize = n.trim().parse().expect("stream counts: N[,N...]");
        assert!(n > 0, "stream count must be positive");
        eprintln!("many-streams: seeding {n} streams (cap {CAP}) ...");
        run(n);
    }
}
