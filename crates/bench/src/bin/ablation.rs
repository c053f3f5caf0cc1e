//! Ablation studies for TimeCrypt's design choices (paper §4.2.2, §4.5, §7).
//!
//! 1. **Key canceling** — HEAC decryption with the `k_i − k_{i+1}` encoding
//!    (two key derivations per range) vs the naive Castelluccia scheme
//!    (one key derivation *per aggregated chunk*), the paper's §4.2.2
//!    motivation.
//! 2. **Digest width** — cost of supporting richer statistics (sum-only vs
//!    the default sum/count/sumsq/histogram schema).
//! 3. **Strided aggregation** (§7 "Performance") — HEAC is optimized for
//!    contiguous ranges; aggregating every second chunk forfeits key
//!    canceling and decryption grows linearly with the number of segments.
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin ablation
//! ```

use timecrypt_bench::measure::{format_duration, time_avg};
use timecrypt_core::heac::{decrypt_range_sum, ElementKeys, HeacEncryptor};
use timecrypt_core::TreeKd;
use timecrypt_crypto::{fold_u64, PrgKind};

fn main() {
    // ── 1. Key canceling vs naive Castelluccia ───────────────────────────
    println!("=== Ablation 1: key canceling (§4.2.2) ===\n");
    let kd = TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap();
    let enc = HeacEncryptor::new(&kd);
    for range in [100u64, 1_000, 10_000] {
        let mut agg = vec![0u64];
        for i in 0..range {
            let ct = enc.encrypt_digest(i, &[i]).unwrap();
            agg[0] = agg[0].wrapping_add(ct[0]);
        }
        // TimeCrypt: two boundary derivations, independent of range length.
        let tc = time_avg(2_000, || {
            std::hint::black_box(decrypt_range_sum(&kd, 0, range, &agg).unwrap());
        });
        // Naive Castelluccia: derive and add every chunk key in the range.
        let naive = time_avg(20, || {
            let mut key_sum = 0u64;
            for i in 0..range {
                let leaf = kd.leaf(i).unwrap();
                key_sum = key_sum.wrapping_add(fold_u64(&leaf));
            }
            std::hint::black_box(agg[0].wrapping_sub(key_sum));
        });
        println!(
            "  range {:>6} chunks: key-canceling {:>10}   naive {:>12}   ({:>6.0}x)",
            range,
            format_duration(tc),
            format_duration(naive),
            naive.as_nanos() as f64 / tc.as_nanos().max(1) as f64
        );
    }
    println!("\nExpected: key-canceling is constant; naive grows linearly — the");
    println!("gap is why HEAC decryption is independent of aggregation size.\n");

    // ── 2. Digest width ──────────────────────────────────────────────────
    println!("=== Ablation 2: digest width (statistics richness) ===\n");
    for (label, width) in [
        ("sum only", 1usize),
        ("sum+count", 2),
        ("standard (19)", 19),
        ("wide (64)", 64),
    ] {
        let digest: Vec<u64> = (0..width as u64).collect();
        let t_enc = time_avg(10_000, || {
            std::hint::black_box(enc.encrypt_digest(5, &digest).unwrap());
        });
        let keys = ElementKeys::new(&kd.leaf(5).unwrap());
        let t_keys = time_avg(10_000, || {
            std::hint::black_box(keys.keys(width));
        });
        println!(
            "  {:<14} encrypt {:>10}   element keys {:>10}",
            label,
            format_duration(t_enc),
            format_duration(t_keys)
        );
    }
    println!("\nExpected: cost grows linearly with width but stays µs-class even");
    println!("for wide digests — one AES block per element after the two leaf");
    println!("derivations are paid.\n");

    // ── 3. Strided aggregation (§7 limitation) ───────────────────────────
    println!("=== Ablation 3: contiguous vs strided aggregation (§7) ===\n");
    println!(
        "{:>8} {:>18} {:>18} {:>8}",
        "chunks", "contiguous dec", "every-2nd dec", "ratio"
    );
    for range in [64u64, 256, 1_024, 4_096] {
        // Contiguous [0, range): one telescoped sum, two boundary keys.
        let mut contiguous = vec![0u64];
        for i in 0..range {
            let ct = enc.encrypt_digest(i, &[i]).unwrap();
            contiguous[0] = contiguous[0].wrapping_add(ct[0]);
        }
        let t_cont = time_avg(2_000, || {
            std::hint::black_box(decrypt_range_sum(&kd, 0, range, &contiguous).unwrap());
        });

        // Strided: sum of every second chunk = range/2 single-chunk segments,
        // each needing its own boundary-key pair (no inner keys cancel).
        let mut strided = vec![0u64];
        for i in (0..range).step_by(2) {
            let ct = enc.encrypt_digest(i, &[i]).unwrap();
            strided[0] = strided[0].wrapping_add(ct[0]);
        }
        let t_strided = time_avg(50, || {
            let mut m = strided.clone();
            for i in (0..range).step_by(2) {
                let k_i = ElementKeys::new(&kd.leaf(i).unwrap());
                let k_next = ElementKeys::new(&kd.leaf(i + 1).unwrap());
                m[0] = m[0].wrapping_sub(k_i.key(0)).wrapping_add(k_next.key(0));
            }
            std::hint::black_box(m);
        });
        println!(
            "{:>8} {:>18} {:>18} {:>7.0}x",
            range,
            format_duration(t_cont),
            format_duration(t_strided),
            t_strided.as_nanos() as f64 / t_cont.as_nanos().max(1) as f64
        );
    }
    println!("\nExpected: contiguous decryption is flat; the strided pattern grows");
    println!("linearly with the number of disjoint segments — the limitation the");
    println!("paper states in §7 (\"suffers from alternative patterns, such as");
    println!("aggregating every second data chunk\").\n");
}
