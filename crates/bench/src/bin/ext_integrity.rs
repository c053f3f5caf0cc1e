//! Extension experiment: cost of the Verena-style integrity layer (§3.3).
//!
//! Not a paper table — the paper explicitly scopes integrity out and points
//! to Verena; this harness quantifies what the extension costs on top of
//! TimeCrypt so the trade-off is concrete:
//!
//! 1. proof generation/verification scaling with tree size (fixed range),
//! 2. proof scaling with range size (fixed tree),
//! 3. attestation sign/verify (ECDSA P-256),
//! 4. end-to-end: verified statistical query vs the base query.
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin ext_integrity
//! ```

use std::sync::Arc;
use std::time::Instant;
use timecrypt_bench::measure::{format_duration, time_avg};
use timecrypt_chunk::{DataPoint, StreamConfig};
use timecrypt_client::{Consumer, DataOwner, InProc, Producer};
use timecrypt_crypto::SecureRandom;
use timecrypt_integrity::{chunk_commitment, SumLeaf, SumTree};
use timecrypt_pk::SigningKey;
use timecrypt_server::{ServerConfig, TimeCryptServer};
use timecrypt_store::MemKv;

const WIDTH: usize = 19; // standard digest schema width

fn tree_of(n: usize) -> SumTree {
    let mut t = SumTree::new();
    for i in 0..n as u64 {
        t.push(SumLeaf {
            commitment: chunk_commitment(&i.to_le_bytes()),
            sum: (0..WIDTH as u64).map(|j| i * 31 + j).collect(),
        })
        .unwrap();
    }
    t
}

fn main() {
    // ── 1. Scaling with tree size ────────────────────────────────────────
    println!("=== 1. Proof cost vs tree size (range = 1k chunks, width {WIDTH}) ===\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "chunks", "prove", "verify", "proof bytes"
    );
    for log_n in [10usize, 12, 14, 16] {
        let n = 1 << log_n;
        let tree = tree_of(n);
        let root = tree.root();
        let (lo, hi) = (n / 4, n / 4 + 1_000.min(n / 2));
        let prove = time_avg(50, || {
            std::hint::black_box(tree.range_proof(lo, hi, n, false).unwrap());
        });
        let proof = tree.range_proof(lo, hi, n, false).unwrap();
        let verify = time_avg(200, || {
            std::hint::black_box(proof.verify(&root, n, lo, hi).unwrap());
        });
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            n,
            format_duration(prove),
            format_duration(verify),
            proof.encode().len()
        );
    }
    println!("\nExpected: prove is O(n) on an uncached tree (the server can cache");
    println!("interior nodes); verify and proof size are O(log n) — the consumer-");
    println!("side cost is what matters and it stays microseconds/KBs.\n");

    // ── 2. Scaling with range size ───────────────────────────────────────
    println!("=== 2. Proof cost vs range size (tree = 64k chunks) ===\n");
    let n = 1 << 16;
    let tree = tree_of(n);
    let root = tree.root();
    println!("{:>10} {:>12} {:>12}", "range", "verify", "proof bytes");
    for log_r in [0usize, 4, 8, 12, 15] {
        let r = 1 << log_r;
        let proof = tree.range_proof(0, r, n, false).unwrap();
        let verify = time_avg(200, || {
            std::hint::black_box(proof.verify(&root, n, 0, r).unwrap());
        });
        println!(
            "{:>10} {:>12} {:>12}",
            r,
            format_duration(verify),
            proof.encode().len()
        );
    }
    println!("\nExpected: near-flat — the canonical cover of any aligned range is");
    println!("O(log n) nodes regardless of its length.\n");

    // ── 3. Attestation costs ─────────────────────────────────────────────
    println!("=== 3. Root attestation (ECDSA P-256 over SHA-256) ===\n");
    let mut rng = SecureRandom::from_seed_insecure(7);
    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    let sign = time_avg(20, || {
        let mut r = SecureRandom::from_seed_insecure(9);
        std::hint::black_box(key.sign(b"timecrypt.root.v1", &mut r));
    });
    let sig = key.sign(b"timecrypt.root.v1", &mut rng);
    let verify = time_avg(20, || {
        std::hint::black_box(vk.verify(b"timecrypt.root.v1", &sig));
    });
    println!(
        "  sign {}   verify {}   (once per attestation epoch, not per query)\n",
        format_duration(sign),
        format_duration(verify)
    );

    // ── 4. End-to-end overhead ───────────────────────────────────────────
    println!("=== 4. E2E: verified_stat_query vs stat_query (4k chunks) ===\n");
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut t = InProc::new(server);
    let cfg = StreamConfig::new(1, "hr", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [7u8; 16],
        24,
        SecureRandom::from_seed_insecure(1),
    );
    owner.create_stream(&mut t).unwrap();
    let mut p = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    )
    .with_attester(key);
    let chunks = 4_096i64;
    let start = Instant::now();
    for c in 0..chunks {
        p.push(&mut t, DataPoint::new(c * 10_000, c)).unwrap();
    }
    p.flush(&mut t).unwrap();
    p.attest(&mut t).unwrap();
    println!(
        "  ingest {} chunks with ledger mirroring: {:?}",
        chunks,
        start.elapsed()
    );

    let mut c = Consumer::new("c", &mut rng);
    owner
        .grant_access(&mut t, "c", c.public_key(), 0, chunks * 10_000)
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    let (ts_s, ts_e) = (1_000 * 10_000, 3_000 * 10_000);
    let base = time_avg(200, || {
        std::hint::black_box(c.stat_query(&mut t, cfg.id, ts_s, ts_e).unwrap());
    });
    let verified = time_avg(200, || {
        std::hint::black_box(
            c.verified_stat_query(&mut t, cfg.id, &vk, ts_s, ts_e)
                .unwrap(),
        );
    });
    println!(
        "  stat_query {}   verified_stat_query {}   ({:.1}x)",
        format_duration(base),
        format_duration(verified),
        verified.as_nanos() as f64 / base.as_nanos().max(1) as f64
    );
    println!("\nExpected: the verified path adds one ECDSA verify + one O(log n)");
    println!("proof check per query — integrity costs milliseconds, not the");
    println!("orders-of-magnitude of the Paillier/EC-ElGamal strawman.");
}
