//! Criterion microbenchmarks over every hot primitive: statistically robust
//! backing for the table/figure harness binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use timecrypt_bench::baselines::{EcElGamal, Paillier};
use timecrypt_chunk::compress::{compress, decompress};
use timecrypt_chunk::DataPoint;
use timecrypt_core::dualkr::chain_walk;
use timecrypt_core::heac::{add_assign, decrypt_range_sum, HeacEncryptor};
use timecrypt_core::TreeKd;
use timecrypt_crypto::{AesGcm128, PrgKind, SecureRandom, Sha256};
use timecrypt_index::{AggTree, TreeConfig};
use timecrypt_store::MemKv;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xabu8; 1024];
    g.bench_function("sha256_1k", |b| {
        b.iter(|| {
            let mut h = Sha256::new();
            h.update(&data);
            std::hint::black_box(h.finalize())
        })
    });
    let gcm = AesGcm128::new(&[7u8; 16]);
    let nonce = [1u8; 12];
    let payload = vec![0x55u8; 4096];
    g.bench_function("aes_gcm_seal_4k", |b| {
        b.iter(|| std::hint::black_box(gcm.seal(&nonce, b"", &payload)))
    });
    g.finish();
}

fn bench_heac(c: &mut Criterion) {
    let mut g = c.benchmark_group("heac");
    let kd = TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap();
    let enc = HeacEncryptor::new(&kd);
    g.bench_function("tree_derive_2e30", |b| {
        b.iter(|| std::hint::black_box(kd.leaf((1 << 30) - 1).unwrap()))
    });
    g.bench_function("encrypt_digest_w19", |b| {
        let digest = vec![7u64; 19];
        b.iter(|| std::hint::black_box(enc.encrypt_digest(12345, &digest).unwrap()))
    });
    let ct = enc.encrypt_digest(12345, &[7u64; 19]).unwrap();
    g.bench_function("decrypt_range_w19", |b| {
        b.iter(|| std::hint::black_box(decrypt_range_sum(&kd, 12345, 12346, &ct).unwrap()))
    });
    g.bench_function("hom_add_w19", |b| {
        let mut acc = vec![0u64; 19];
        b.iter(|| add_assign(&mut acc, &ct))
    });
    g.bench_function("dualkr_sqrt_2e30", |b| {
        let seed = [9u8; 32];
        b.iter(|| std::hint::black_box(chain_walk(&seed, 1 << 15)))
    });
    g.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("index");
    g.sample_size(20);
    let tree: AggTree<Vec<u64>> =
        AggTree::open(Arc::new(MemKv::new()), 1, TreeConfig::default()).unwrap();
    for i in 0..100_000u64 {
        tree.append(vec![i, 1]).unwrap();
    }
    g.bench_function("query_worst_case_100k", |b| {
        b.iter(|| std::hint::black_box(tree.query(1, 99_999).unwrap()))
    });
    g.bench_function("query_aligned_100k", |b| {
        b.iter(|| std::hint::black_box(tree.query(0, 65_536).unwrap()))
    });
    g.bench_function("append", |b| {
        let kv = Arc::new(MemKv::new());
        let t: AggTree<Vec<u64>> = AggTree::open(kv, 2, TreeConfig::default()).unwrap();
        b.iter(|| t.append(vec![1, 1]).unwrap())
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress");
    let points: Vec<DataPoint> = (0..500)
        .map(|i| DataPoint::new(i * 20, 70 + (i % 7)))
        .collect();
    g.bench_function("delta_500pts", |b| {
        b.iter(|| std::hint::black_box(compress(&points)))
    });
    let enc = compress(&points);
    g.bench_function("delta_decode", |b| {
        b.iter(|| std::hint::black_box(decompress(&enc).unwrap()))
    });
    g.finish();
}

fn bench_integrity(c: &mut Criterion) {
    use timecrypt_integrity::{chunk_commitment, SumLeaf, SumTree};
    use timecrypt_pk::SigningKey;
    let mut g = c.benchmark_group("integrity");
    g.sample_size(20);

    // Authenticated aggregation tree over 2^14 chunks, width-19 digests.
    let n = 1 << 14;
    let mut tree = SumTree::new();
    for i in 0..n as u64 {
        tree.push(SumLeaf {
            commitment: chunk_commitment(&i.to_le_bytes()),
            sum: (0..19u64).map(|j| i * 31 + j).collect(),
        })
        .unwrap();
    }
    let root = tree.root();
    g.bench_function("sumtree_prove_range_16k", |b| {
        b.iter(|| std::hint::black_box(tree.range_proof(1000, 9000, n).unwrap()))
    });
    let proof = tree.range_proof(1000, 9000, n).unwrap();
    g.bench_function("sumtree_verify_range_16k", |b| {
        b.iter(|| std::hint::black_box(proof.verify(&root).unwrap()))
    });

    let mut rng = SecureRandom::from_seed_insecure(3);
    let key = SigningKey::generate(&mut rng);
    g.bench_function("ecdsa_p256_sign", |b| {
        b.iter_batched(
            || SecureRandom::from_seed_insecure(9),
            |mut r| std::hint::black_box(key.sign(b"root attestation", &mut r)),
            BatchSize::SmallInput,
        )
    });
    let sig = key.sign(b"root attestation", &mut rng);
    let vk = key.verifying_key();
    g.bench_function("ecdsa_p256_verify", |b| {
        b.iter(|| std::hint::black_box(vk.verify(b"root attestation", &sig)))
    });
    g.finish();
}

fn bench_live_records(c: &mut Criterion) {
    use timecrypt_chunk::SealedRecord;
    let mut g = c.benchmark_group("live");
    let kd = TreeKd::new([7u8; 16], 30, PrgKind::Aes).unwrap();
    g.bench_function("record_seal", |b| {
        b.iter_batched(
            || SecureRandom::from_seed_insecure(4),
            |mut r| {
                std::hint::black_box(
                    SealedRecord::seal(1, 5, 0, DataPoint::new(50_000, 72), &kd, &mut r).unwrap(),
                )
            },
            BatchSize::SmallInput,
        )
    });
    let mut rng = SecureRandom::from_seed_insecure(4);
    let rec = SealedRecord::seal(1, 5, 0, DataPoint::new(50_000, 72), &kd, &mut rng).unwrap();
    g.bench_function("record_open", |b| {
        b.iter(|| std::hint::black_box(rec.open(&kd).unwrap()))
    });
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baselines");
    g.sample_size(10);
    let mut rng = SecureRandom::from_seed_insecure(1);
    let paillier = Paillier::generate(1024, &mut rng);
    g.bench_function("paillier1024_encrypt", |b| {
        b.iter_batched(
            || SecureRandom::from_seed_insecure(7),
            |mut r| std::hint::black_box(paillier.public.encrypt(42, &mut r)),
            BatchSize::SmallInput,
        )
    });
    let ct = paillier.public.encrypt(42, &mut rng);
    g.bench_function("paillier1024_add", |b| {
        b.iter(|| std::hint::black_box(paillier.public.add(&ct, &ct)))
    });
    let elgamal = EcElGamal::generate(1 << 16, &mut rng);
    g.bench_function("ecelgamal_encrypt", |b| {
        b.iter_batched(
            || SecureRandom::from_seed_insecure(7),
            |mut r| std::hint::black_box(elgamal.encrypt(42, &mut r)),
            BatchSize::SmallInput,
        )
    });
    let ect = elgamal.encrypt(42, &mut rng);
    g.bench_function("ecelgamal_add", |b| {
        b.iter(|| std::hint::black_box(EcElGamal::add(&ect, &ect)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_heac,
    bench_index,
    bench_compression,
    bench_baselines,
    bench_integrity,
    bench_live_records
);
criterion_main!(benches);
