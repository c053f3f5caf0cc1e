//! Fig. 8: latency of statistical queries over one month of mhealth data at
//! granularities from one minute to one month, plaintext vs TimeCrypt.
//!
//! One month at Δ = 10 s is 259,200 chunks (the paper's 121 M records at
//! 50 Hz). A "view at granularity g" fetches one aggregate per g-bucket
//! across the whole month: 40,320 aggregates at minute granularity — where
//! the paper sees the largest TimeCrypt overhead (1.51x, dominated by
//! 40,320 individual decryptions) — down to a single aggregate for the
//! month (1.01x).
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin fig8
//! ```

use std::sync::Arc;
use std::time::Instant;
use timecrypt_bench::measure::format_duration;
use timecrypt_core::heac::{decrypt_range_sum, HeacEncryptor};
use timecrypt_core::TreeKd;
use timecrypt_crypto::PrgKind;
use timecrypt_index::{AggTree, TreeConfig};
use timecrypt_store::MemKv;

const CHUNKS_PER_MIN: u64 = 6; // Δ = 10 s
const MONTH_MINUTES: u64 = 28 * 24 * 60; // 40320, as in the paper
const MONTH_CHUNKS: u64 = MONTH_MINUTES * CHUNKS_PER_MIN; // 241,920

fn build(encrypted: bool, kd: &TreeKd) -> AggTree<Vec<u64>> {
    let tree: AggTree<Vec<u64>> = AggTree::open(
        Arc::new(MemKv::new()),
        1,
        TreeConfig {
            cache_bytes: 1 << 30,
        },
    )
    .unwrap();
    let enc = HeacEncryptor::new(kd);
    for i in 0..MONTH_CHUNKS {
        // sum, count for 500 points/chunk.
        let digest = vec![(70 * 500 + i % 997), 500];
        let d = if encrypted {
            enc.encrypt_digest(i, &digest).unwrap()
        } else {
            digest
        };
        tree.append(d).unwrap();
    }
    tree
}

/// Fetches the full month view at `bucket_chunks` granularity, decrypting
/// each aggregate when `kd` is provided.
fn view(tree: &AggTree<Vec<u64>>, bucket_chunks: u64, kd: Option<&TreeKd>) -> std::time::Duration {
    let start = Instant::now();
    let mut lo = 0u64;
    while lo < MONTH_CHUNKS {
        let hi = (lo + bucket_chunks).min(MONTH_CHUNKS);
        let d = tree.query(lo, hi).unwrap();
        match kd {
            Some(kd) => {
                std::hint::black_box(decrypt_range_sum(kd, lo, hi, &d).unwrap());
            }
            None => {
                std::hint::black_box(&d);
            }
        }
        lo = hi;
    }
    start.elapsed()
}

fn main() {
    println!("=== Fig. 8: one-month view latency by granularity (28 days, Δ=10s, {MONTH_CHUNKS} chunks) ===\n");
    let kd = TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap();
    println!("building plaintext index ({MONTH_CHUNKS} chunks)...");
    let plain = build(false, &kd);
    println!("building TimeCrypt index...");
    let tc = build(true, &kd);

    let granularities: &[(&str, u64)] = &[
        ("minute", CHUNKS_PER_MIN),
        ("hour", CHUNKS_PER_MIN * 60),
        ("day", CHUNKS_PER_MIN * 60 * 24),
        ("week", CHUNKS_PER_MIN * 60 * 24 * 7),
        ("month", MONTH_CHUNKS),
    ];

    println!(
        "\n{:<8} {:>10} {:>14} {:>14} {:>9}",
        "gran", "aggregates", "Plaintext", "TimeCrypt", "overhead"
    );
    for &(name, bucket) in granularities {
        let aggs = MONTH_CHUNKS.div_ceil(bucket);
        let tp = view(&plain, bucket, None);
        let tt = view(&tc, bucket, Some(&kd));
        println!(
            "{:<8} {:>10} {:>14} {:>14} {:>8.2}x",
            name,
            aggs,
            format_duration(tp),
            format_duration(tt),
            tt.as_secs_f64() / tp.as_secs_f64(),
        );
    }

    println!("\nPaper shape check: overhead is largest at minute granularity");
    println!("(many per-aggregate decryptions; paper 1.51x) and approaches 1.0x");
    println!("at month granularity (a single decryption; paper 1.01x).");
}
