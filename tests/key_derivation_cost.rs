//! Deterministic key-derivation guard (ROADMAP aim 1: gate the counters
//! that don't jitter), next to `write_amplification.rs` and
//! `hydration_cost.rs`. Ingest consumes the time-encoded keystream (§4.3)
//! strictly in order — chunk `i` needs leaves `i` and `i + 1` of the
//! stream's key tree — so whoever seals or opens consecutive chunks keeps
//! its place in the tree (`LeafCursor`) and pays for the edges that differ
//! from the last leaf, not for a walk from the root. Counted in PRG
//! invocations (one AES key schedule + block each), at the deployed tree
//! height 30.
//!
//! Before the cursor (PR 20), with a sealer built per chunk: 60 calls per
//! sealed chunk (two walks) through either producer, 6 000 for 100
//! real-time points of one chunk (two walks per point), twelve walks for a
//! range read of six chunks. Element keys are counted the same way, in AES
//! blocks (`ChunkSealer::prf_blocks`): 19 per chunk sealed in order since
//! PR 28, 38 before it and for any other order. Both counts per sealed
//! chunk are rows of the root `BENCH_ledger.json`.

use common::{Deployment, Spec};
use timecrypt::chunk::{ChunkSealer, DataPoint, PlainChunk, StreamConfig};
use timecrypt::client::{BatchingProducer, Consumer, DataOwner, InProc, Producer, Transport};
use timecrypt::core::StreamKeyMaterial;
use timecrypt::crypto::SecureRandom;

mod common;

const HEIGHT: u64 = 30;
const DELTA_MS: i64 = 10_000;
const CHUNKS: u64 = 4096;

fn setup(stream: u128) -> (impl Transport, StreamConfig, DataOwner) {
    let server = Deployment::build(&Spec::engine()).engine();
    let mut transport = InProc::new(server);
    let cfg = StreamConfig::new(stream, "m", 0, DELTA_MS as u64);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        [stream as u8; 16],
        HEIGHT as u8,
        SecureRandom::from_seed_insecure(1),
    );
    owner.create_stream(&mut transport).unwrap();
    (transport, cfg, owner)
}

/// One point in each of chunks `range`.
fn points(range: std::ops::Range<u64>) -> impl Iterator<Item = DataPoint> {
    range.map(|c| DataPoint::new(c as i64 * DELTA_MS, c as i64))
}

/// The cumulative `(PRG calls, element-key blocks)` of a producer after
/// one point in each of chunks `0..=2n` has closed chunks `0..2n`, taken
/// at `n` and at `2n`.
fn halves(mut push: impl FnMut(DataPoint) -> (u64, u64)) -> [(u64, u64); 2] {
    let mut upto = |range| points(range).map(&mut push).last().unwrap();
    [upto(0..CHUNKS / 2 + 1), upto(CHUNKS / 2 + 1..CHUNKS + 1)]
}

/// Key derivation per chunk sealed in order, through each producer, and
/// the sealed payload bytes of a chunk of 6 and of 500 fixed points: rows
/// of the root `BENCH_ledger.json`. This test asserts only that the cost
/// does not grow with the stream: the second half of the chunks costs no
/// more than the first. The two `sequential_chunks_*` tests below hold the
/// per-chunk bounds.
#[test]
fn in_order_sealing_costs_the_same_per_chunk_at_any_length() {
    let (mut t, cfg, owner) = setup(1);
    let rng = || SecureRandom::from_seed_insecure(2);
    let mut single = Producer::new(cfg.clone(), owner.provision_producer(), rng());
    let (mut t2, cfg2, owner2) = setup(2);
    let mut batching = BatchingProducer::new(cfg2, owner2.provision_producer(), rng(), 16);
    let mut rows = Vec::new();
    for (name, [half, full]) in [
        (
            "producer",
            halves(|p| {
                single.push(&mut t, p).unwrap();
                (single.prg_calls(), single.prf_blocks())
            }),
        ),
        (
            "batching_producer",
            halves(|p| {
                batching.push(&mut t2, p).unwrap();
                (batching.prg_calls(), batching.prf_blocks())
            }),
        ),
    ] {
        assert!(
            full.0 - half.0 <= half.0 && full.1 - half.1 <= half.1,
            "{name}"
        );
        for (row, total) in [("prg_calls", full.0), ("prf_blocks", full.1)] {
            let per_chunk = format!("{:.3}", total as f64 / CHUNKS as f64);
            rows.push((
                format!("key_derivation_cost.{name}.{row}_per_chunk"),
                per_chunk,
            ));
        }
    }
    assert_eq!(
        (single.chunks_sent(), batching.chunks_sent()),
        (CHUNKS, CHUNKS)
    );
    let mut sealer = ChunkSealer::new(&cfg, &StreamKeyMaterial::new(1, [1; 16]).unwrap());
    for n in [6, 500] {
        let points = (0..n).map(|i| DataPoint::new(i * 20, 70 + i % 7)).collect();
        let chunk = PlainChunk {
            stream: 1,
            index: 0,
            points,
        };
        let sealed = sealer.seal(&chunk, &mut rng()).unwrap();
        let row = format!("key_derivation_cost.sealed_payload_bytes.p{n}");
        rows.push((row, sealed.payload.len().to_string()));
    }
    common::ledger(&rows);
}

#[test]
fn sequential_chunks_cost_about_two_prg_calls_each() {
    let (mut t, cfg, owner) = setup(1);
    let mut single = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    // The second point closes chunk 0: one walk to leaf 0, one edge to 1.
    for p in points(0..2) {
        single.push(&mut t, p).unwrap();
    }
    assert_eq!(single.chunks_sent(), 1);
    assert!(single.prg_calls() <= HEIGHT + 2, "{}", single.prg_calls());
    for p in points(2..CHUNKS + 1) {
        single.push(&mut t, p).unwrap();
    }
    assert_eq!(single.chunks_sent(), CHUNKS);
    let per_chunk = single.prg_calls() as f64 / CHUNKS as f64;
    assert!(
        per_chunk <= 2.1,
        "Producer: {per_chunk} PRG calls per chunk"
    );

    let (mut t, cfg, owner) = setup(2);
    let mut batching = BatchingProducer::new(
        cfg,
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
        16,
    );
    for p in points(0..CHUNKS) {
        batching.push(&mut t, p).unwrap();
    }
    batching.flush(&mut t).unwrap();
    assert_eq!(batching.chunks_sent(), CHUNKS);
    let per_chunk_batched = batching.prg_calls() as f64 / CHUNKS as f64;
    assert!(
        per_chunk_batched <= 2.1,
        "BatchingProducer: {per_chunk_batched} PRG calls per chunk"
    );
    println!(
        "PRG calls per sealed chunk: {per_chunk:.3} through Producer, {per_chunk_batched:.3} \
         through BatchingProducer ({CHUNKS} sequential chunks, tree height {HEIGHT}; two walks \
         from the root are {})",
        2 * HEIGHT
    );
}

/// The digest keys of chunk `i` are `k_i − k_{i+1}`, each a PRF keyed by
/// one leaf (one AES key schedule, one block per digest element). A sealer
/// carries the evaluated `k_{i+1}` into chunk `i + 1`, so in ingest order a
/// chunk expands one leaf, not two.
#[test]
fn sequential_chunks_cost_one_element_key_expansion_each() {
    let cfg = StreamConfig::new(6, "m", 0, DELTA_MS as u64);
    let width = cfg.schema.width() as u64;
    assert_eq!(width, 19, "the standard digest");
    let keys = StreamKeyMaterial::new(6, [6; 16]).unwrap();
    let mut sealer = ChunkSealer::new(&cfg, &keys);
    let mut rng = SecureRandom::from_seed_insecure(4);
    for index in 0..CHUNKS {
        let chunk = PlainChunk {
            stream: 6,
            index,
            points: points(index..index + 1).collect(),
        };
        sealer.seal(&chunk, &mut rng).unwrap();
        // Every expansion evaluates exactly `width` blocks, so the block
        // count is the key-schedule count: two for the first chunk, one
        // for each chunk after it.
        assert_eq!(sealer.prf_blocks(), (index + 2) * width, "chunk {index}");
    }
    println!(
        "element-key blocks per sealed chunk: {:.3} ({CHUNKS} sequential chunks, digest width \
         {width}; one AES key schedule each; both boundaries expanded are {})",
        sealer.prf_blocks() as f64 / CHUNKS as f64,
        2 * width
    );
}

#[test]
fn live_points_of_one_chunk_share_one_key_derivation() {
    let (mut t, cfg, owner) = setup(3);
    let mut p = Producer::new(
        cfg,
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
    );
    // 100 points inside chunk 0, then 100 inside chunk 1 (the first of
    // which also closes and seals chunk 0).
    for (chunk, budget) in [(0i64, 240), (1, 240)] {
        let before = p.prg_calls();
        for k in 0..100 {
            p.push_live(&mut t, DataPoint::new(chunk * DELTA_MS + k * 50, k))
                .unwrap();
        }
        let spent = p.prg_calls() - before;
        assert!(spent <= budget, "chunk {chunk}: {spent} PRG calls");
    }
    assert_eq!(p.records_sent(), 200);
    assert_eq!(p.chunks_sent(), 1);
}

#[test]
fn range_read_of_six_chunks_costs_under_two_walks() {
    let (mut t, cfg, mut owner) = setup(4);
    let mut p = BatchingProducer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_seed_insecure(2),
        16,
    );
    for point in points(0..200) {
        p.push(&mut t, point).unwrap();
    }
    p.flush(&mut t).unwrap();
    // A full-history grant: half the keystream under one token, so a
    // derivation from it is a walk of HEIGHT − 1 edges.
    let mut c = Consumer::new("reader", &mut SecureRandom::from_seed_insecure(3));
    owner
        .grant_access(
            &mut t,
            "reader",
            c.public_key(),
            0,
            DELTA_MS << (HEIGHT - 1),
        )
        .unwrap();
    c.sync_grants(&mut t, cfg.id).unwrap();
    assert_eq!(c.prg_calls(), 0);
    let got = c
        .get_range(&mut t, cfg.id, 100 * DELTA_MS, 106 * DELTA_MS)
        .unwrap();
    assert_eq!(got, points(100..106).collect::<Vec<_>>());
    let spent = c.prg_calls();
    assert!(spent <= 2 * HEIGHT, "six chunks: {spent} PRG calls");
    // The same window again starts one short step back from where the
    // first read ended.
    c.get_range(&mut t, cfg.id, 100 * DELTA_MS, 106 * DELTA_MS)
        .unwrap();
    assert!(c.prg_calls() - spent <= HEIGHT, "{}", c.prg_calls() - spent);
}

#[test]
fn out_of_order_sealing_never_costs_more_than_two_walks() {
    let cfg = StreamConfig::new(5, "m", 0, DELTA_MS as u64);
    let keys = StreamKeyMaterial::new(5, [5; 16]).unwrap();
    let mut sealer = ChunkSealer::new(&cfg, &keys);
    let mut rng = SecureRandom::from_seed_insecure(4);
    let mut index = 0x2545_f491u64;
    for _ in 0..256 {
        index = index
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let chunk = PlainChunk {
            stream: 5,
            index: index >> (64 - HEIGHT) & !1,
            points: Vec::new(),
        };
        let before = (sealer.prg_calls(), sealer.prf_blocks());
        sealer.seal(&chunk, &mut rng).unwrap();
        let spent = sealer.prg_calls() - before.0;
        assert!(spent <= 2 * HEIGHT, "chunk {}: {spent} calls", chunk.index);
        let blocks = sealer.prf_blocks() - before.1;
        assert!(blocks <= 2 * 19, "chunk {}: {blocks} blocks", chunk.index);
    }
}
