//! Property-based tests for the chunk layer: payload encoding, digests, sealing.

use proptest::prelude::*;
use timecrypt_chunk::compress::{compress, decompress, BLOCK};
use timecrypt_chunk::schema::{DigestOp, DigestSchema};
use timecrypt_chunk::serialize::{ChunkSealer, EncryptedChunk, PlainChunk};
use timecrypt_chunk::{DataPoint, StreamConfig};
use timecrypt_core::heac::ElementKeys;
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};

fn arb_points(max: usize) -> impl Strategy<Value = Vec<DataPoint>> {
    proptest::collection::vec((any::<i64>(), any::<i64>()), 0..max).prop_map(|v| {
        v.into_iter()
            .map(|(ts, value)| DataPoint { ts, value })
            .collect()
    })
}

/// Series as sensors write them: a steady step with a jump now and then,
/// values walking a few units with an outlier now and then.
fn arb_series(max: usize) -> impl Strategy<Value = Vec<DataPoint>> {
    let moves = proptest::collection::vec((-3i64..4, 0u8..32), 0..max);
    (any::<i64>(), 1i64..100_000, moves).prop_map(|(start, step, moves)| {
        let (mut ts, mut value) = (start, 0i64);
        let point = |(walk, rare): (i64, u8)| {
            ts = ts.wrapping_add(if rare == 0 { step << 20 } else { step });
            value = value.wrapping_add(if rare == 1 { walk << 40 } else { walk });
            DataPoint { ts, value }
        };
        moves.into_iter().map(point).collect()
    })
}

/// The encoding the block codec replaced (codec byte 1): the point count,
/// then per point the zigzag varints of its timestamp's and its value's
/// difference from the previous point's. The reference for its sizes.
fn varint_per_delta(points: &[DataPoint]) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let zigzag = |v: i64| ((v << 1) ^ (v >> 63)) as u64;
    let mut out = vec![1];
    put(&mut out, points.len() as u64);
    let mut prev = DataPoint { ts: 0, value: 0 };
    for p in points {
        put(&mut out, zigzag(p.ts.wrapping_sub(prev.ts)));
        put(&mut out, zigzag(p.value.wrapping_sub(prev.value)));
        prev = *p;
    }
    out
}

proptest! {
    /// The block codec is never more than one header byte a block of each
    /// stream larger than a varint a delta, and round-trips what it codes.
    #[test]
    fn payload_is_at_most_a_byte_a_block_past_varints(
        points in prop_oneof![arb_points(300), arb_series(300)],
    ) {
        let blocks = points.len().saturating_sub(1).div_ceil(BLOCK);
        let enc = compress(&points);
        prop_assert!(enc.len() <= varint_per_delta(&points).len() + 2 * blocks);
        prop_assert_eq!(decompress(&enc).unwrap(), points);
    }

    /// Delta coding round-trips arbitrary (even hostile) point vectors.
    #[test]
    fn payload_roundtrips(points in arb_points(200)) {
        prop_assert_eq!(decompress(&compress(&points)).unwrap(), points);
    }

    /// Decompression never panics on arbitrary bytes — it returns Ok or Err.
    #[test]
    fn decompress_handles_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decompress(&bytes);
    }

    /// Digest additivity for arbitrary splits: digest(a ++ b) = digest(a) +
    /// digest(b) element-wise mod 2^64 — the invariant HEAC aggregation
    /// relies on.
    #[test]
    fn digest_additivity(points in arb_points(100), split in 0usize..100) {
        let schema = DigestSchema::new(vec![
            DigestOp::Sum,
            DigestOp::Count,
            DigestOp::SumSquares,
            DigestOp::Histogram { bounds: vec![-1000, 0, 1000] },
        ]);
        let split = split.min(points.len());
        let (a, b) = points.split_at(split);
        let da = schema.compute(a);
        let db = schema.compute(b);
        let dall = schema.compute(&points);
        let sum: Vec<u64> = da.iter().zip(db.iter()).map(|(x, y)| x.wrapping_add(*y)).collect();
        prop_assert_eq!(sum, dall);
    }

    /// Histogram counts always total the point count, whatever the bounds.
    #[test]
    fn histogram_total_is_count(
        points in arb_points(100),
        mut bounds in proptest::collection::vec(any::<i64>(), 1..8),
    ) {
        bounds.sort_unstable();
        bounds.dedup();
        let schema = DigestSchema::new(vec![DigestOp::Histogram { bounds }]);
        let d = schema.compute(&points);
        let h = schema.interpret(&d).histogram.unwrap();
        prop_assert_eq!(h.total(), points.len() as u64);
    }

    /// Chunk seal/open round-trips arbitrary in-chunk payloads, and the
    /// serialized byte form round-trips too.
    #[test]
    fn seal_open_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..100), idx in 0u64..500) {
        let cfg = StreamConfig::new(3, "m", 0, 10_000);
        let keys = StreamKeyMaterial::with_params(3, [8u8; 16], 16, PrgKind::Aes).unwrap();
        let mut rng = SecureRandom::from_seed_insecure(idx);
        let points: Vec<DataPoint> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| DataPoint::new(idx as i64 * 10_000 + i as i64, v))
            .collect();
        let chunk = PlainChunk { stream: 3, index: idx, points: points.clone() };
        let sealed = chunk.seal(&cfg, &keys, &mut rng).unwrap();
        prop_assert_eq!(sealed.open_payload(&keys.tree).unwrap(), points);
        let bytes = sealed.to_bytes();
        prop_assert_eq!(EncryptedChunk::from_bytes(&bytes).unwrap(), sealed);
    }

    /// One sealer driven in any order — forward, repeating an index,
    /// backward, across gaps, at the last sealable chunk, at the last leaf
    /// (refused: it has no upper boundary) and past the tree — is
    /// byte-identical to [`PlainChunk::seal`] on the same RNG stream, and
    /// its digest is `m + k_i − k_{i+1}` by the one-block PRF reference.
    /// Element keys cost one expansion after the chunk just before, two
    /// otherwise, none for a refusal.
    #[test]
    fn sealer_in_any_order_matches_plain_seal(
        seed in any::<u8>(),
        wide in any::<bool>(),
        raw in proptest::collection::vec((0u8..8, any::<u64>()), 1..32),
    ) {
        const LEAVES: u64 = 16;
        let mut cfg = StreamConfig::new(9, "m", 0, 10_000);
        if wide {
            // 43 elements: past the 32-block batch of the element-key PRF.
            cfg.schema = DigestSchema::new(vec![
                DigestOp::Sum,
                DigestOp::Count,
                DigestOp::Histogram { bounds: (0..40).collect() },
            ]);
        }
        let width = cfg.schema.width() as u64;
        let keys = StreamKeyMaterial::with_params(9, [seed; 16], 4, PrgKind::Aes).unwrap();
        let mut sealer = ChunkSealer::new(&cfg, &keys);
        let mut rng_a = SecureRandom::from_seed_insecure(u64::from(seed));
        let mut rng_b = SecureRandom::from_seed_insecure(u64::from(seed));
        let mut at = raw[0].1 % LEAVES;
        let mut sealed_last = None;
        for &(kind, v) in &raw {
            at = match kind {
                0 | 1 => at + 1,
                2 => at.saturating_sub(1),
                3 => at,
                4 => v % LEAVES,
                5 => LEAVES - 2,
                6 => LEAVES - 1,
                _ => LEAVES + v % 3,
            };
            let points = (0..at % 5)
                .map(|k| DataPoint::new(at as i64 * 10_000 + k as i64, (v % 50) as i64))
                .collect();
            let chunk = PlainChunk { stream: 9, index: at, points };
            let before = sealer.prf_blocks();
            let got = sealer.seal(&chunk, &mut rng_b);
            let spent = sealer.prf_blocks() - before;
            if at >= LEAVES - 1 {
                prop_assert!(got.is_err() && chunk.seal(&cfg, &keys, &mut rng_a).is_err());
                prop_assert_eq!(spent, 0);
                at = at.min(LEAVES - 1);
                continue;
            }
            let (got, one_shot) = (got.unwrap(), chunk.seal(&cfg, &keys, &mut rng_a).unwrap());
            prop_assert_eq!(got.to_bytes(), one_shot.to_bytes(), "chunk {}", at);
            let k_i = ElementKeys::new(&keys.tree.leaf(at).unwrap());
            let k_next = ElementKeys::new(&keys.tree.leaf(at + 1).unwrap());
            let plain = cfg.schema.compute(&chunk.points);
            for (j, (c, m)) in got.digest_ct.iter().zip(&plain).enumerate() {
                let j = j as u32;
                prop_assert_eq!(*c, m.wrapping_add(k_i.key(j)).wrapping_sub(k_next.key(j)));
            }
            let expansions = if at > 0 && sealed_last == Some(at - 1) { 1 } else { 2 };
            prop_assert_eq!(spent, expansions * width, "chunk {} after {:?}", at, sealed_last);
            sealed_last = Some(at);
        }
    }

    /// Chunk parsing never panics on garbage.
    #[test]
    fn chunk_from_bytes_handles_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = EncryptedChunk::from_bytes(&bytes);
    }
}
