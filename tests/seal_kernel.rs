//! The one chunk sealing kernel (`seal_with` in `chunk/src/serialize.rs`),
//! held to the bytes and the primitives it replaced.
//!
//! - `tests/golden/sealed_chunks.txt` holds the wire bytes
//!   (`EncryptedChunk::to_bytes`) of nine chunks: 6, 50 and 500 points at
//!   indices 0, 1 and 2^20 − 3 of a height-20 tree, one sealer and one
//!   seeded RNG across all nine, so they are sealed in order, after a jump
//!   forward and after a jump back. The file was first written by the
//!   composition of separate primitives that sealing was before it became
//!   one kernel; a stored chunk's bytes do not change with the code that
//!   seals it. It was rewritten once, for the block payload codec (codec
//!   byte 2): every chunk's position, width, digest words and nonce are
//!   those first bytes, and only its payload length, ciphertext and tag
//!   changed.
//! - A generated check seals random chunks on every backend and compares
//!   each with a composition of the public primitives written here:
//!   `TreeKd::leaf`, `ElementKeys`, `sha256`, `AesGcm128`.
//! - A producer's allocator calls per chunk, and a consumer's per chunk
//!   opened, are rows of the root `BENCH_ledger.json`.

use common::history::Rng;
use timecrypt::chunk::compress::compress;
use timecrypt::chunk::{
    ChunkSealer, DataPoint, DigestOp, DigestSchema, EncryptedChunk, PlainChunk, StreamConfig,
};
use timecrypt::client::{BatchingProducer, ClientFault, Producer, Transport};
use timecrypt::core::{CoreError, ElementKeys, StreamKeyMaterial, TreeKd};
use timecrypt::crypto::{sha256, AesGcm128, Dispatch, PrgKind, SecureRandom};
use timecrypt::wire::messages::{Request, Response};

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

const DELTA: i64 = 10_000;
const SIZES: [usize; 3] = [6, 50, 500];
const INDICES: [u64; 3] = [0, 1, (1 << 20) - 3];

fn golden_keys() -> StreamKeyMaterial {
    StreamKeyMaterial::with_params(7, [0x5a; 16], 20, PrgKind::Aes).unwrap()
}

/// `n` points spread over chunk `index`'s window, their values across
/// every bin of the standard histogram and below it.
fn points(index: u64, n: usize) -> Vec<DataPoint> {
    (0..n as i64)
        .map(|k| {
            let ts = index as i64 * DELTA + k * DELTA / n as i64;
            DataPoint::new(ts, (k * 389 + index as i64 * 7) % 1_200 - 100)
        })
        .collect()
}

/// The golden chunks, `(points, index, wire bytes)`, in sealing order.
fn golden() -> Vec<(usize, u64, Vec<u8>)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sealed_chunks.txt"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let hex = |s: &str| {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect::<Vec<u8>>()
    };
    let golden: Vec<_> = text
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            (
                fields[0].parse().unwrap(),
                fields[1].parse().unwrap(),
                hex(fields[2]),
            )
        })
        .collect();
    let order = SIZES.iter().flat_map(|&n| INDICES.map(|i| (n, i)));
    assert!(golden.iter().map(|g| (g.0, g.1)).eq(order), "{path}");
    golden
}

#[test]
fn sealed_chunks_are_the_golden_bytes() {
    let (cfg, keys) = (
        StreamConfig::new(7, "golden", 0, DELTA as u64),
        golden_keys(),
    );
    for dispatch in Dispatch::all() {
        let mut sealer = ChunkSealer::with_dispatch(&cfg, &keys, dispatch);
        let mut wire = ChunkSealer::with_dispatch(&cfg, &keys, dispatch);
        let rng = || SecureRandom::from_seed_insecure(2020);
        let (mut rng, mut wire_rng, mut one_shot_rng) = (rng(), rng(), rng());
        for (n, index, bytes) in golden() {
            let chunk = PlainChunk {
                stream: 7,
                index,
                points: points(index, n),
            };
            let at = format!("{n} points, chunk {index}, {dispatch:?}");
            let sealed = sealer.seal(&chunk, &mut rng).unwrap();
            assert!(sealed.to_bytes() == bytes, "{at}");
            let mut out = vec![0xaa];
            wire.seal_into(&chunk, &mut wire_rng, &mut out).unwrap();
            assert!(out[0] == 0xaa && out[1..] == bytes, "seal_into, {at}");
            let one_shot = chunk.seal(&cfg, &keys, &mut one_shot_rng).unwrap();
            assert!(one_shot.to_bytes() == bytes, "one-shot, {at}");
        }
    }
}

/// A digest schema of width `width`: sums, counts and sums of squares in
/// a drawn order, then one histogram for the rest, its bounds ascending
/// (binary search) or not (scan) and with repeats.
fn schema(rng: &mut Rng, width: usize) -> DigestSchema {
    let mut ops = Vec::new();
    let mut left = width;
    while left > 0 && rng.below(3) > 0 {
        ops.push(
            [DigestOp::Sum, DigestOp::Count, DigestOp::SumSquares][rng.below(3) as usize].clone(),
        );
        left -= 1;
    }
    if left > 0 {
        let mut bounds: Vec<i64> = (1..left).map(|_| rng.below(2_000) as i64 - 500).collect();
        if rng.below(3) > 0 {
            bounds.sort();
        }
        ops.push(DigestOp::Histogram { bounds });
    }
    let schema = DigestSchema::new(ops);
    assert_eq!(schema.width(), width);
    schema
}

/// The plaintext digest, statistic by statistic, point by point.
fn digest(schema: &DigestSchema, points: &[DataPoint]) -> Vec<u64> {
    let mut out = Vec::new();
    for op in schema.ops() {
        let values = points.iter().map(|p| p.value);
        match op {
            DigestOp::Sum => out.push(values.fold(0u64, |a, v| a.wrapping_add(v as u64))),
            DigestOp::Count => out.push(points.len() as u64),
            DigestOp::SumSquares => {
                out.push(values.fold(0u64, |a, v| a.wrapping_add(v.wrapping_mul(v) as u64)))
            }
            DigestOp::Histogram { bounds } => {
                let mut bins = vec![0u64; bounds.len() + 1];
                for v in values {
                    bins[bounds.iter().position(|&b| v < b).unwrap_or(bounds.len())] += 1;
                }
                out.extend(bins);
            }
        }
    }
    out
}

/// Chunk `chunk` sealed by composing the public primitives: the boundary
/// leaves walked from the root, each element key one `ElementKeys` block,
/// the payload key a SHA-256 of both leaves, the payload an `AesGcm128`
/// built for it. Draws the nonce only once both leaves exist.
fn oracle(
    cfg: &StreamConfig,
    tree: &TreeKd,
    chunk: &PlainChunk,
    rng: &mut SecureRandom,
) -> Result<Vec<u8>, CoreError> {
    let (l0, l1) = (tree.leaf(chunk.index)?, tree.leaf(chunk.index + 1)?);
    let (k0, k1) = (ElementKeys::new(&l0), ElementKeys::new(&l1));
    let ct: Vec<u64> = (digest(&cfg.schema, &chunk.points).into_iter().enumerate())
        .map(|(j, m)| {
            m.wrapping_add(k0.key(j as u32))
                .wrapping_sub(k1.key(j as u32))
        })
        .collect();
    let key: [u8; 16] = sha256(&[&l0[..], &l1, b"tc-payload"].concat())[..16]
        .try_into()
        .unwrap();
    let mut nonce = [0u8; 12];
    rng.fill(&mut nonce);
    let aad = [&chunk.stream.to_be_bytes()[..], &chunk.index.to_be_bytes()].concat();
    let mut payload = nonce.to_vec();
    payload.extend(AesGcm128::new(&key).seal(&nonce, &aad, &compress(&chunk.points)));
    let mut out = Vec::new();
    EncryptedChunk::encode_parts(chunk.stream, chunk.index, &ct, &payload, &mut out);
    Ok(out)
}

/// Mostly a few points, one case in four up to 1 000; timestamps and
/// values small, large or at the ends of `i64`.
fn draw_points(rng: &mut Rng, index: u64) -> Vec<DataPoint> {
    let n = match rng.below(4) {
        0 => rng.below(1_001),
        _ => rng.below(20),
    };
    let mut ts = index as i64 * DELTA;
    (0..n)
        .map(|_| {
            ts = ts.wrapping_add(rng.below(3_000) as i64);
            let value = match rng.below(8) {
                0 => rng.pick(&[i64::MIN, i64::MAX, -1, 0]),
                1 => rng.next() as i64,
                _ => rng.below(2_400) as i64 - 600,
            };
            DataPoint::new(ts, value)
        })
        .collect()
}

/// The next index a sealer is asked for: the next one, a gap, one back,
/// a jump back, a repeat, or the tree's last leaf (which has no right
/// neighbour, so the seal is refused).
fn next_index(rng: &mut Rng, last: u64, leaves: u64) -> u64 {
    match rng.below(8) {
        0..=2 => last + 1,
        3 => last + 2 + rng.below(30),
        4 => last.saturating_sub(1),
        5 => rng.below(leaves),
        6 => last,
        _ => leaves - 1,
    }
    .min(leaves - 1)
}

#[test]
fn the_kernel_seals_what_the_public_primitives_compose() {
    const CASES: u64 = 120;
    let (mut sealed, mut refused, mut points) = (0, 0, 0);
    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let width = match seed {
            0..=70 => seed as usize,
            _ => rng.below(71) as usize,
        };
        let prg = rng.pick(&[PrgKind::Aes, PrgKind::Aes, PrgKind::Aes, PrgKind::Sha256]);
        let height = 3 + rng.below(18) as u8;
        let keys = StreamKeyMaterial::with_params(9, [seed as u8; 16], height, prg).unwrap();
        let cfg = StreamConfig {
            schema: schema(&mut rng, width),
            ..StreamConfig::new(9, "kernel", 0, DELTA as u64)
        };
        let leaves = keys.tree.num_leaves();
        let sealer = |dispatch| ChunkSealer::with_dispatch(&cfg, &keys, dispatch);
        let mut sealers: Vec<_> = Dispatch::all().map(sealer).collect();
        let streams = || SecureRandom::from_seed_insecure(seed);
        let mut rngs: Vec<_> = sealers.iter().map(|_| streams()).collect();
        let mut oracle_rng = streams();
        let mut index = rng.below(leaves);
        for step in 0..8 {
            index = next_index(&mut rng, index, leaves);
            let chunk = PlainChunk {
                stream: 9,
                index,
                points: draw_points(&mut rng, index),
            };
            let at = format!("seed {seed}, step {step}: chunk {index}, width {width}, {prg:?}");
            let expected = oracle(&cfg, &keys.tree, &chunk, &mut oracle_rng);
            for (k, (sealer, rng)) in sealers.iter_mut().zip(&mut rngs).enumerate() {
                // Each kernel alternates its two outputs.
                let got = if (step + k) % 2 == 0 {
                    sealer.seal(&chunk, rng).map(|c| c.to_bytes())
                } else {
                    let mut out = Vec::new();
                    sealer.seal_into(&chunk, rng, &mut out).map(|()| out)
                };
                match (&expected, got) {
                    (Ok(expected), Ok(got)) => assert!(got == *expected, "{at}, kernel {k}"),
                    (Err(e), Err(got)) => assert_eq!(got.to_string(), format!("key error: {e}")),
                    (expected, got) => panic!("{at}, kernel {k}: {expected:?} vs {got:?}"),
                }
            }
            sealed += expected.is_ok() as u32;
            refused += expected.is_err() as u32;
            points += chunk.points.len();
        }
        let costs = sealers.iter().map(|s| (s.prg_calls(), s.prf_blocks()));
        assert!(
            costs.clone().all(|c| Some(c) == costs.clone().next()),
            "seed {seed}"
        );
    }
    assert!(
        refused > 0 && points > 20_000,
        "{sealed} sealed, {refused} refused, {points} points"
    );
}

/// Answers every request at once, allocating nothing: a producer's own
/// allocations are all that is counted.
struct NoServer;

impl Transport for NoServer {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        Ok(match req {
            Request::InsertBatch { .. } => Response::Batch { errors: Vec::new() },
            _ => Response::Ok,
        })
    }
}

/// Allocator calls per chunk a producer makes, from the first point of a
/// chunk to the shipped bytes: the builder's points, the sealed bytes and,
/// batched, the batch's list of chunks (the list of chunks a point
/// completes is the producer's own, kept).
/// Counted over 64 chunks of `n` points after 16 to warm the queue.
#[test]
fn producers_allocate_a_few_calls_per_chunk() {
    let cfg = StreamConfig::new(3, "alloc", 0, DELTA as u64);
    let keys = StreamKeyMaterial::new(3, [3; 16]).unwrap();
    let feed = |push: &mut dyn FnMut(DataPoint), chunks: std::ops::Range<i64>, n: i64| {
        for c in chunks {
            for k in 0..n {
                push(DataPoint::new(c * DELTA + k * (DELTA / n), k % 90));
            }
        }
    };
    let mut rows = Vec::new();
    for n in [6, 50, 500] {
        let rng = || SecureRandom::from_seed_insecure(4);
        let mut single = Producer::new(cfg.clone(), keys.clone(), rng());
        let mut batching = BatchingProducer::new(cfg.clone(), keys.clone(), rng(), 16);
        let mut per_chunk = |name: &str, push: &mut dyn FnMut(DataPoint)| {
            feed(push, 0..16, n);
            let (calls, ()) = common::calls_of(|| feed(push, 16..80, n));
            let row = format!("seal_kernel.{name}.allocations_per_chunk.p{n}");
            rows.push((row, format!("{:.3}", calls as f64 / 64.0)));
        };
        per_chunk("producer", &mut |p| single.push(&mut NoServer, p).unwrap());
        per_chunk("batching_producer", &mut |p| {
            batching.push(&mut NoServer, p).unwrap()
        });
        assert_eq!((single.chunks_sent(), batching.chunks_sent()), (79, 64));
    }
    common::ledger(&rows);
}

/// Allocator calls per chunk a consumer's `open_payload` makes, over the
/// golden chunks of 6 and 500 points: the GCM plaintext and the decoded
/// points. One row a size: every backend must count the same.
#[test]
fn consumers_allocate_a_few_calls_per_open() {
    let (tree, mut rows) = (golden_keys().tree, Vec::new());
    for n in [6, 500] {
        let chunks = golden().into_iter().filter(|g| g.0 == n);
        let chunks: Vec<_> = chunks
            .map(|g| EncryptedChunk::from_bytes(&g.2).unwrap())
            .collect();
        for d in Dispatch::all() {
            let open = |c: &EncryptedChunk| c.open_payload_on(d, &tree).unwrap().len();
            let (calls, points) = common::calls_of(|| chunks.iter().map(open).sum::<usize>());
            assert_eq!(points, 3 * n, "{d:?}");
            let row = format!("seal_kernel.consumer.allocations_per_open.p{n}");
            rows.push((row, format!("{:.3}", calls as f64 / 3.0)));
        }
    }
    rows.dedup();
    common::ledger(&rows);
}
