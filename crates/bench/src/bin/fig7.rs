//! Fig. 7: end-to-end ingest & statistical-query throughput and latency for
//! Plaintext / TimeCrypt / EC-ElGamal / Paillier, plus the tiny-cache
//! variant.
//!
//! The paper drives 1200 streams from 100 client threads at a 4:1
//! read:write ratio against an AWS m5.2xlarge. This harness runs the same
//! pipeline scaled to one machine and a bounded duration: N worker threads,
//! each owning a set of streams, performing four statistical queries after
//! each chunk ingest (the paper's mix). Strawman schemes run with far fewer
//! operations — they are orders of magnitude slower, which is the result.
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin fig7                       # mhealth
//! cargo run -p timecrypt-bench --release --bin fig7 -- --workload devops  # §6.3
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use timecrypt_bench::baselines::{
    Column, EcElGamal, ElGamalDigest, Paillier, PaillierDigest, RangeSums,
};
use timecrypt_bench::workload::{DevOpsWorkload, MHealthWorkload};
use timecrypt_core::heac::{decrypt_range_sum, HeacEncryptor};
use timecrypt_core::TreeKd;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_index::AggTree;

struct Totals {
    records: AtomicU64,
    queries: AtomicU64,
    ingest_ns: AtomicU64,
    query_ns: AtomicU64,
}

/// Drives `threads` workers for `chunks_per_stream` chunks each over
/// `streams_per_thread` streams; 4 statistical queries per chunk ingest.
#[allow(clippy::too_many_arguments)]
fn drive<I: RangeSums + 'static>(
    label: &str,
    threads: usize,
    streams_per_thread: usize,
    chunks_per_stream: u64,
    records_per_chunk: u64,
    cache_bytes: usize,
    digest_for: impl Fn(u64, u64) -> Vec<u64> + Send + Sync + 'static,
    make: impl Fn(&[u64], u64) -> I::Sum + Send + Sync + 'static,
    post: impl Fn(I::Sum, u64, u64) + Send + Sync + 'static,
) {
    let totals = Arc::new(Totals {
        records: AtomicU64::new(0),
        queries: AtomicU64::new(0),
        ingest_ns: AtomicU64::new(0),
        query_ns: AtomicU64::new(0),
    });
    let digest_for = Arc::new(digest_for);
    let make = Arc::new(make);
    let post = Arc::new(post);
    // Pre-generate the plaintext digests so workload synthesis stays out of
    // the timed path (the paper's load generator likewise prepares batches).
    let prepared: Arc<Vec<Vec<Vec<u64>>>> = Arc::new(
        (0..threads * streams_per_thread)
            .map(|sid| {
                (0..chunks_per_stream)
                    .map(|c| digest_for(sid as u64, c))
                    .collect()
            })
            .collect(),
    );
    let wall = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let totals = totals.clone();
            let prepared = prepared.clone();
            let make = make.clone();
            let post = post.clone();
            std::thread::spawn(move || {
                // Each stream gets its own index over a shared-nothing store
                // (the paper's streams are independent Cassandra rows).
                let mut trees: Vec<I> = (0..streams_per_thread)
                    .map(|_| I::open(cache_bytes))
                    .collect();
                for chunk in 0..chunks_per_stream {
                    for (s, tree) in trees.iter_mut().enumerate() {
                        let sid = t * streams_per_thread + s;
                        let plain = &prepared[sid][chunk as usize];
                        let t0 = Instant::now();
                        tree.append(make(plain, chunk));
                        totals
                            .ingest_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        totals
                            .records
                            .fetch_add(records_per_chunk, Ordering::Relaxed);
                        // 4:1 read:write — four queries per ingest.
                        let len = chunk + 1;
                        for q in 0..4u64 {
                            let lo = (q * len / 5).min(len - 1);
                            let t0 = Instant::now();
                            let d = tree.query(lo, len);
                            post(d, lo, len);
                            totals
                                .query_ns
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            totals.queries.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = wall.elapsed();
    let records = totals.records.load(Ordering::Relaxed);
    let queries = totals.queries.load(Ordering::Relaxed);
    let chunks = threads as u64 * streams_per_thread as u64 * chunks_per_stream;
    println!(
        "{:<22} {:>12.0} {:>12.0} {:>12.2} {:>12.2}",
        label,
        records as f64 / elapsed.as_secs_f64(),
        queries as f64 / elapsed.as_secs_f64(),
        totals.ingest_ns.load(Ordering::Relaxed) as f64 / chunks as f64 / 1_000_000.0,
        totals.query_ns.load(Ordering::Relaxed) as f64 / queries.max(1) as f64 / 1_000_000.0,
    );
}

fn main() {
    let devops = std::env::args().any(|a| a == "devops")
        || std::env::args().any(|a| a == "--workload=devops");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);

    // Workload shape: mhealth = 500 records/chunk; devops = 6 records/chunk.
    let (records_per_chunk, _digest_width, chunks, streams) = if devops {
        (6u64, 4usize, 400u64, 4usize)
    } else {
        (500u64, 2usize, 400u64, 4usize)
    };
    // Pre-generate one plaintext digest series per stream id via the
    // workload generators (values differ per chunk; shape per workload).
    let digest_for = move |sid: u64, chunk: u64| -> Vec<u64> {
        // Deterministic digest derived from the workload generators.
        if devops {
            let mut w = DevOpsWorkload::paper(sid);
            let pts = w.chunk_points(chunk);
            let sum: u64 = pts.iter().map(|p| p.value as u64).sum();
            vec![sum, pts.len() as u64, 0, 0]
        } else {
            let mut w = MHealthWorkload::paper(sid);
            let pts = w.chunk_points(chunk);
            let sum: u64 = pts.iter().map(|p| p.value as u64).sum();
            vec![sum, pts.len() as u64]
        }
    };

    println!(
        "=== Fig. 7 ({}): E2E throughput & latency, {} threads x {} streams x {} chunks ===\n",
        if devops { "DevOps" } else { "mhealth" },
        threads,
        streams,
        chunks
    );
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "config", "ingest rec/s", "query ops/s", "ins lat(ms)", "qry lat(ms)"
    );

    // ── Plaintext ────────────────────────────────────────────────────────
    drive::<AggTree>(
        "Plaintext",
        threads,
        streams,
        chunks,
        records_per_chunk,
        64 << 20,
        digest_for,
        |plain, _| plain.to_vec(),
        |d, _, _| {
            std::hint::black_box(d[0]);
        },
    );

    // ── TimeCrypt ────────────────────────────────────────────────────────
    let kd = Arc::new(TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap());
    let kd2 = kd.clone();
    drive::<AggTree>(
        "TimeCrypt",
        threads,
        streams,
        chunks,
        records_per_chunk,
        64 << 20,
        digest_for,
        move |plain, chunk| {
            HeacEncryptor::new(&kd)
                .encrypt_digest(chunk, plain)
                .unwrap()
        },
        move |d, lo, hi| {
            std::hint::black_box(decrypt_range_sum(kd2.as_ref(), lo, hi, &d).unwrap());
        },
    );

    // ── TimeCrypt, 1 MB index cache (Fig. 7c "S" variant) ───────────────
    let kd = Arc::new(TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap());
    let kd2 = kd.clone();
    drive::<AggTree>(
        "TimeCrypt (1MB cache)",
        threads,
        streams,
        chunks,
        records_per_chunk,
        1 << 20,
        digest_for,
        move |plain, chunk| {
            HeacEncryptor::new(&kd)
                .encrypt_digest(chunk, plain)
                .unwrap()
        },
        move |d, lo, hi| {
            std::hint::black_box(decrypt_range_sum(kd2.as_ref(), lo, hi, &d).unwrap());
        },
    );

    // ── Strawman (heavily scaled down: the slowdown IS the result) ──────
    let mut rng = SecureRandom::from_seed_insecure(1);
    println!("  generating Paillier-3072 keypair...");
    let paillier = Arc::new(Paillier::generate(3072, &mut rng));
    let pp = paillier.clone();
    drive::<Column<_>>(
        "Paillier (scaled)",
        1,
        1,
        40,
        records_per_chunk,
        64 << 20,
        digest_for,
        move |_plain, chunk| {
            let mut rng = SecureRandom::from_seed_insecure(chunk);
            PaillierDigest(vec![paillier.public.encrypt(chunk, &mut rng)])
        },
        move |d, _, _| {
            std::hint::black_box(pp.decrypt(&d.0[0]));
        },
    );

    let elgamal = Arc::new(EcElGamal::generate(1 << 20, &mut rng));
    let eg = elgamal.clone();
    drive::<Column<_>>(
        "EC-ElGamal (scaled)",
        1,
        1,
        40,
        records_per_chunk,
        64 << 20,
        digest_for,
        move |_plain, chunk| {
            let mut rng = SecureRandom::from_seed_insecure(chunk);
            ElGamalDigest(vec![elgamal.encrypt(chunk % 100, &mut rng)])
        },
        move |d, _, _| {
            std::hint::black_box(eg.decrypt(&d.0[0]));
        },
    );

    println!("\nPaper shape check: TimeCrypt within ~2% of plaintext on both");
    println!("metrics (paper: 1.8% mhealth, 0.75% DevOps); the small cache hurts");
    println!("both equally; strawman throughput is orders of magnitude lower.");
}
