//! §6.2 access-control comparison: TimeCrypt's tree derivation + dual key
//! regression vs the ABE (Sieve-style) cost model.
//!
//! TimeCrypt numbers are measured; ABE numbers replay the paper's published
//! constants (53 ms/chunk grant, 13 ms/chunk decrypt at 80-bit security
//! with one attribute), as the paper's own comparison does; the reason is
//! in `baselines/abe.rs`.
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin access_control
//! ```

use timecrypt_bench::baselines::abe::AbeCostModel;
use timecrypt_bench::measure::{format_duration, time_avg};
use timecrypt_core::dualkr::chain_walk;
use timecrypt_core::heac::{decrypt_range_sum, HeacEncryptor};
use timecrypt_core::TreeKd;
use timecrypt_crypto::PrgKind;

fn main() {
    println!("=== §6.2: crypto-enforced access control, TimeCrypt vs ABE ===\n");

    // ── TimeCrypt: key derivation in a 2^30-key tree (log n PRG calls) ──
    let kd = TreeKd::new([3u8; 16], 30, PrgKind::Aes).unwrap();
    let derive = time_avg(20_000, || {
        std::hint::black_box(kd.leaf((1 << 30) - 1).unwrap());
    });
    println!(
        "TimeCrypt tree derivation (2^30 keys, cold): {}",
        format_duration(derive)
    );
    println!("  paper: 2.5 µs");

    // ── Dual key regression: O(√n) chain walk for n = 2^30 ─────────────
    let steps = 1u64 << 15; // √(2^30) = 32768
    let seed = [9u8; 32];
    let kr_walk = time_avg(50, || {
        std::hint::black_box(chain_walk(&seed, steps));
    });
    println!(
        "Dual key regression derivation (√(2^30) = {steps} hash steps): {}",
        format_duration(kr_walk)
    );
    println!("  paper: 2.7 ms");

    // ── TimeCrypt chunk decryption: one add + one sub ───────────────────
    let enc = HeacEncryptor::new(&kd);
    let ct = enc.encrypt_digest(1000, &[42]).unwrap();
    // Boundary keys derived once (amortized over a shared segment), as in
    // the paper's "one addition and one subtraction" accounting.
    let keys_a = timecrypt_core::heac::ElementKeys::new(&kd.leaf(1000).unwrap());
    let keys_b = timecrypt_core::heac::ElementKeys::new(&kd.leaf(1001).unwrap());
    let (ka, kb) = (keys_a.key(0), keys_b.key(0));
    let mut out = 0u64;
    let dec_hot = time_avg(10_000_000, || {
        out = ct[0].wrapping_sub(ka).wrapping_add(kb);
    });
    std::hint::black_box(out);
    println!(
        "TimeCrypt per-chunk decryption (keys in hand): {}",
        format_duration(dec_hot)
    );
    println!("  paper: ~2 ns");
    let dec_cold = time_avg(20_000, || {
        std::hint::black_box(decrypt_range_sum(&kd, 1000, 1001, &ct).unwrap());
    });
    println!(
        "TimeCrypt per-range decryption (incl. key derivation): {}",
        format_duration(dec_cold)
    );

    // ── ABE model ────────────────────────────────────────────────────────
    let abe = AbeCostModel::default();
    println!("\nABE (published constants, 80-bit, 1 attribute):");
    println!(
        "  grant per chunk:   {}",
        format_duration(abe.grant_per_chunk)
    );
    println!(
        "  decrypt per chunk: {}",
        format_duration(abe.decrypt_per_chunk)
    );

    // ── Scenario: share one day of 10 s chunks (8640 chunks) ────────────
    let chunks = 8640u64;
    println!("\nScenario: grant + read one day of Δ=10 s data ({chunks} chunks):");
    let tc_grant = derive * 2; // a range grant = O(log n) tokens ≈ 2 derivations
    println!(
        "  TimeCrypt grant (token cover): {}   ABE grant: {}",
        format_duration(tc_grant),
        format_duration(abe.grant_cost(chunks, 1)),
    );
    println!(
        "  TimeCrypt decrypt (range):     {}   ABE decrypt: {}",
        format_duration(dec_cold),
        format_duration(abe.decrypt_cost(chunks)),
    );

    println!("\nPaper shape check: TimeCrypt grants/decrypts in µs–ms where ABE");
    println!("needs minutes per day of chunks — 4+ orders of magnitude apart.");
}
