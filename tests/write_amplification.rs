//! Deterministic write-amplification guard (ROADMAP aim 1(c): gate the
//! counters that don't jitter). An ingest must cost the store what the byte
//! model of one record per chunk says: per chunk its level-0 record — the
//! chunk itself, without the position its key carries, its digest swapped
//! for the stream's running sum of the same length — and nothing else, all
//! of a stream's run in one commit. In a `LogKv` each record adds ≈ 10 B of
//! frame: flags, sequence byte, value length, the run number and tail that
//! name its key (one or two bytes each) and the CRC. A key is spelled out
//! (28 B and its length) only where its head had no run when the record's
//! batch started: a stream's first batch of chunks — its first two in the
//! fleet shape, of one chunk each.
//!
//! **Fleet-shaped**: many streams, one small chunk per stream per batch, so
//! nothing amortises across a batch. Per 119 B chunk: 95 value bytes (the
//! record: 4 + 8·4 sum, 4 + 55 payload); in the log ≈ 105, 0.88 per user
//! byte. A sealed 64-ary node beside them (2 308 B per 64 chunks, the
//! layout before running sums) made it 1.17.
//!
//! **Dashboard-shaped**: 19-wide digests and a stream's 16 chunks per
//! batch, so most records name a run their own batch extends. Per 284 B
//! chunk: 260 value bytes (4 + 8·19 sum, 4 + 100 payload); in the log
//! ≈ 271, plus the spelled-out first batch of each stream (≈ 0.9 B per
//! chunk over 512): 0.96 per user byte, where the nodes (9 988 B per 64
//! chunks) made it 1.51.
//!
//! Each shape then answers 64 statistical queries over all its streams
//! from a freshly opened engine, with the benchmark workload's per-stream
//! index cache (64 MiB fleet, 64 KiB dashboard).
//!
//! The figures are rows of the root `BENCH_ledger.json` — log bytes per
//! user byte, and store gets and get bytes per statistical query — compared
//! exactly; `TC_BLESS=1` rewrites the rows instead, and a change that moves
//! one commits the file. The guard prints its rows; CI copies them to the
//! job summary.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{Durability, KvStore, LogKv, MeteredKv};

/// The fleet shape: 119 B sealed, the benchmark's DevOps chunk — 32 B
/// header, 4 digest words, 55 B payload.
const WIDTH: usize = 4;
const PAYLOAD: usize = 55;
const DELTA_MS: u64 = 60_000;
const QUERIES: u64 = 64;

/// Checks `rows` against `BENCH_ledger.json` exactly, or with `TC_BLESS`
/// set writes them into it; prints each row.
fn ledger(rows: &[(String, String)]) {
    // The tests of this binary share the file.
    static FILE: Mutex<()> = Mutex::new(());
    let _file = FILE.lock().unwrap();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ledger.json");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let row = |line: &str| {
        let (name, value) = line.trim().trim_end_matches(',').split_once(": ")?;
        Some((name.trim_matches('"').to_string(), value.to_string()))
    };
    let mut committed: BTreeMap<String, String> = text.lines().filter_map(row).collect();
    let measured: Vec<_> = rows.iter().map(|(n, v)| format!("{n}: {v}")).collect();
    measured.iter().for_each(|row| println!("ledger row {row}"));
    if std::env::var_os("TC_BLESS").is_some() {
        committed.extend(rows.iter().cloned());
        let lines = committed.iter().map(|(n, v)| format!("  \"{n}\": {v}"));
        let lines: Vec<_> = lines.collect();
        std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n"))).unwrap();
        return;
    }
    let held = rows
        .iter()
        .map(|(n, _)| format!("{n}: {}", committed.get(n).map_or("-", String::as_str)));
    let held: Vec<_> = held.collect();
    assert_eq!(
        held, measured,
        "committed, measured (TC_BLESS=1 rewrites the file)"
    );
}

/// Ingests `per_stream` chunks — `width`-wide digests, `payload`-byte
/// payloads — into each of `streams` streams, `turn` consecutive chunks of
/// every stream per `insert_bytes_run` (one store batch per stream), then
/// queries them through an engine opened on the store with `cache_bytes`.
/// Returns the puts per chunk, the ingest's value bytes, and the ledger
/// rows of `shape`.
fn measure(
    shape: &str,
    (streams, per_stream, turn): (u128, u64, u64),
    (width, payload): (usize, usize),
    cache_bytes: usize,
) -> (f64, u64, Vec<(String, String)>) {
    let path =
        std::env::temp_dir().join(format!("tc-write-amp-{shape}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // `Flush`, the benchmark's durability: another test in this binary
    // counts the process's fsyncs.
    let log = Arc::new(LogKv::open_with(&path, Durability::Flush).unwrap());
    let kv = Arc::new(MeteredKv::new(log.clone()));
    let server = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
    for stream in 0..streams {
        server
            .create_stream(stream, 0, DELTA_MS, width as u32)
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
    let log_bytes = log.stats().log_bytes - log_before;
    // Nothing stores a chunk a second time.
    assert!(kv.scan_keys(b"c/").unwrap().is_empty());
    drop(server);
    let cfg = ServerConfig {
        cache_bytes,
        ..ServerConfig::default()
    };
    let server = TimeCryptServer::open(kv.clone(), cfg).unwrap();
    let all: Vec<u128> = (0..streams).collect();
    let (mut x, reads) = (0x9E37_79B9_7F4A_7C15u64, kv.counters());
    for _ in 0..QUERIES {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let lo = (x >> 33) % (per_stream - 1);
        let hi = lo + 2 + (x >> 17) % (per_stream - lo - 1);
        let (ts_s, ts_e) = ((lo * DELTA_MS) as i64, (hi * DELTA_MS) as i64);
        let reply = server.get_stat_range(&all, ts_s, ts_e).unwrap();
        let sum = (lo..hi).sum::<u64>().wrapping_mul(streams as u64);
        assert_eq!(reply.agg, vec![sum; width], "[{lo}, {hi})");
    }
    let read = kv.counters();
    drop(server);
    std::fs::remove_file(path).unwrap();
    let chunks = streams as u64 * per_stream;
    let per_query = |n: u64| format!("{:.2}", n as f64 / QUERIES as f64);
    let rows = [
        (
            "store_bytes_per_user_byte",
            format!("{:.4}", log_bytes as f64 / user_bytes as f64),
        ),
        ("store.gets_per_op.stat", per_query(read.gets - reads.gets)),
        (
            "store.get_bytes_per_op.stat",
            per_query(read.bytes_read - reads.bytes_read),
        ),
    ];
    let rows = rows.map(|(name, value)| (format!("write_amplification.{shape}.{name}"), value));
    let puts = (after.puts - before.puts) as f64 / chunks as f64;
    (
        puts,
        after.bytes_written - before.bytes_written,
        rows.to_vec(),
    )
}

#[test]
fn fleet_ingest_store_writes_stay_under_the_byte_model() {
    let (puts, bytes, rows) = measure("fleet", (8, 200, 1), (WIDTH, PAYLOAD), 64 << 20);
    // One put of the record's 95 value bytes per chunk (`MeteredKv`).
    assert_eq!((puts, bytes), (1.0, 8 * 200 * 95));
    ledger(&rows);
}

#[test]
fn dashboard_ingest_store_writes_stay_under_the_byte_model() {
    // 512 chunks per stream, 16 a batch: 32 batches.
    let (puts, bytes, rows) = measure("dashboard", (4, 512, 16), (19, 100), 64 << 10);
    assert_eq!((puts, bytes), (1.0, 4 * 512 * 260));
    ledger(&rows);
}

/// The deployed durability (`timecrypt-node` defaults to `Fsync`): one
/// stream's 16-chunk upload is one commit, so it waits for one fsync —
/// not one per record (16 of them, the level-0 records). The other test in
/// this binary never fsyncs, so the
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
    assert_eq!(log.len() - keys, 16);
    assert_eq!(timecrypt_obs::counters::FSYNCS.get() - fsyncs, 1);
    drop(server);
    std::fs::remove_file(path).unwrap();
}
