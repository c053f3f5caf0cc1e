//! Fig. 6: key-derivation cost vs keystream size for the three PRG
//! instantiations (software AES, SHA-256, AES-NI).
//!
//! A single key derivation in a tree with n = 2^h keys costs h PRG calls
//! (one walk from the root). The paper sweeps 2^5 … 2^60 keys and finds
//! AES-NI fastest (2.5 µs at 2^30), SHA-256 in the middle, software AES
//! slowest (its SHA-256 ran in software; on a CPU with SHA extensions ours
//! does not, and the column header says which path ran). That from-root
//! series is the paper's curve and stays as is; the last column is what a
//! producer pays per key when it consumes the keystream in order through a
//! `LeafCursor` (AES-NI): flat in h, under two PRG calls per key.
//!
//! ```sh
//! cargo run -p timecrypt-bench --release --bin fig6
//! ```

use timecrypt_bench::measure::time_avg;
use timecrypt_core::{LeafCursor, TreeKd};
use timecrypt_crypto::{PrgKind, Sha256};

fn main() {
    let prgs = [PrgKind::AesSoftware, PrgKind::Sha256, PrgKind::Aes];
    println!("=== Fig. 6: single key derivation cost vs number of keys 2^h ===\n");
    print!("{:>4}", "h");
    let sha_ni = Sha256::new().is_hardware();
    for p in prgs {
        let label = match p {
            PrgKind::Sha256 if sha_ni => "SHA256 (NI)",
            PrgKind::Sha256 => "SHA256 (sw)",
            _ => p.label(),
        };
        print!(" {:>12}", label);
    }
    println!(" {:>12}", "sequential");
    for h in (5..=60).step_by(5) {
        print!("{:>4}", h);
        for prg in prgs {
            let tree = TreeKd::new([3u8; 16], h, prg).unwrap();
            // Derive a leaf deep in the tree (max index keeps all h levels).
            let leaf = (1u64 << h) - 1;
            let iters = match prg {
                PrgKind::AesSoftware => 2_000,
                _ => 20_000,
            };
            let t = time_avg(iters, || {
                std::hint::black_box(tree.leaf(leaf).unwrap());
            });
            print!(" {:>10.2}µs", t.as_nanos() as f64 / 1000.0);
        }
        // In-order consumption (a small tree wraps around to leaf 0).
        let tree = TreeKd::new([3u8; 16], h, PrgKind::Aes).unwrap();
        let (mut cursor, mut leaf) = (LeafCursor::new(), 0u64);
        let t = time_avg(20_000, || {
            leaf = (leaf + 1) % tree.num_leaves();
            std::hint::black_box(cursor.leaf(&tree, leaf).unwrap());
        });
        println!(" {:>10.2}µs", t.as_nanos() as f64 / 1000.0);
    }
    println!("\nPaper shape check: cost grows linearly in h (log n); ordering");
    println!("AES (software) > SHA256 > AES-NI at every height. The sequential column");
    println!("(AES-NI through a LeafCursor, keys taken in order) is flat in h.");
    if sha_ni {
        println!("NOTE: the SHA256 column ran on this CPU's SHA extensions (the paper's had none)");
        println!("and sits at or below AES-NI; on the portable path it is the middle series.");
    }
    if !std::arch::is_x86_feature_detected!("aes") {
        println!("NOTE: this CPU lacks AES-NI; the AES-NI column fell back to software.");
    }
}
