//! Input generation and the plaintext reference oracle.
//!
//! Every stream's points are generated once, during set-up, from the
//! benchmark's own PRNG and kept as one byte per value (timestamps are
//! regular), so the timed loops only hand ready-made points to the program.
//! Beside the values the generator keeps what the program must reproduce:
//! per-chunk prefix sums of every digest slot (sum, count, sum of squares,
//! histogram bins — computed here, not by the product's `DigestSchema`) and
//! a checksum of each chunk's points. Every statistical reply and every
//! range read in every workload is compared against them.

use crate::rng::Rng;
use timecrypt_chunk::{DataPoint, DigestOp, DigestSchema, StatSummary, StreamConfig};

/// What a stream's chunks look like.
#[derive(Clone, Debug)]
pub struct Shape {
    pub points_per_chunk: usize,
    pub delta_ms: u64,
    /// Inner histogram boundaries (ascending).
    pub hist_bounds: Vec<i64>,
    pub sum_squares: bool,
    kind: Kind,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Vital-sign-like bounded random walk in 40..=200.
    Walk,
    /// Utilisation plateau per chunk with ±5 jitter in 0..=100.
    Plateau,
}

impl Shape {
    /// The paper's mhealth stream: Δ = 10 s, the standard 19-slot digest
    /// (sum, count, sum of squares, 16-bin histogram). The paper samples at
    /// 50 Hz (500 points per chunk); read-heavy workloads use fewer points
    /// per chunk to load more chunks in the same set-up time.
    pub fn mhealth(points_per_chunk: usize) -> Shape {
        Shape {
            points_per_chunk,
            delta_ms: 10_000,
            hist_bounds: (1..16).map(|i| i * 64).collect(),
            sum_squares: true,
            kind: Kind::Walk,
        }
    }

    /// The paper's DevOps stream: one reading per 10 s, Δ = 60 s (6 points
    /// per chunk), sum + count + a two-bin histogram split at 50 %.
    pub fn devops() -> Shape {
        Shape {
            points_per_chunk: 6,
            delta_ms: 60_000,
            hist_bounds: vec![50],
            sum_squares: false,
            kind: Kind::Plateau,
        }
    }

    /// Digest slots per chunk.
    pub fn width(&self) -> usize {
        2 + self.sum_squares as usize + self.hist_bounds.len() + 1
    }

    /// The product-side schema with the same layout as the oracle's slots.
    pub fn schema(&self) -> DigestSchema {
        let mut ops = vec![DigestOp::Sum, DigestOp::Count];
        if self.sum_squares {
            ops.push(DigestOp::SumSquares);
        }
        ops.push(DigestOp::Histogram {
            bounds: self.hist_bounds.clone(),
        });
        DigestSchema::new(ops)
    }

    fn period_ms(&self) -> i64 {
        (self.delta_ms / self.points_per_chunk as u64) as i64
    }
}

/// One stream's pre-generated inputs and its reference answers.
pub struct StreamData {
    pub cfg: StreamConfig,
    pub shape: Shape,
    pub chunks: u64,
    values: Vec<u8>,
    /// `(chunks + 1) × width` prefix sums of the per-chunk digests.
    prefix: Vec<u64>,
    checksums: Vec<u64>,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

fn point_checksum(points: impl Iterator<Item = DataPoint>) -> u64 {
    points.fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        mix(mix(h, p.ts as u64), p.value as u64)
    })
}

impl StreamData {
    /// Generates `chunks` chunks of stream `id` from `rng`.
    pub fn generate(id: u128, shape: Shape, chunks: u64, rng: &mut Rng) -> StreamData {
        let ppc = shape.points_per_chunk;
        let width = shape.width();
        let mut values = Vec::with_capacity(chunks as usize * ppc);
        let mut prefix = vec![0u64; (chunks as usize + 1) * width];
        let mut walk = 60 + rng.below(40) as i64;
        for c in 0..chunks as usize {
            let plateau = 5 + rng.below(90) as i64;
            let (head, tail) = prefix.split_at_mut((c + 1) * width);
            let prev = &head[c * width..];
            let cur = &mut tail[..width];
            cur.copy_from_slice(prev);
            for _ in 0..ppc {
                let v = match shape.kind {
                    Kind::Walk => {
                        walk = (walk + rng.below(5) as i64 - 2).clamp(40, 200);
                        walk
                    }
                    Kind::Plateau => (plateau + rng.below(11) as i64 - 5).clamp(0, 100),
                };
                values.push(v as u8);
                cur[0] = cur[0].wrapping_add(v as u64);
                cur[1] += 1;
                let mut slot = 2;
                if shape.sum_squares {
                    cur[2] = cur[2].wrapping_add((v * v) as u64);
                    slot = 3;
                }
                let bin = shape
                    .hist_bounds
                    .iter()
                    .position(|&b| v < b)
                    .unwrap_or(shape.hist_bounds.len());
                cur[slot + bin] += 1;
            }
        }
        let cfg = StreamConfig {
            schema: shape.schema(),
            ..StreamConfig::new(id, "bench", 0, shape.delta_ms)
        };
        let mut data = StreamData {
            cfg,
            shape,
            chunks,
            values,
            prefix,
            checksums: Vec::new(),
        };
        data.checksums = (0..chunks)
            .map(|c| point_checksum(data.points(c)))
            .collect();
        data
    }

    /// The points of chunk `chunk`, in timestamp order.
    pub fn points(&self, chunk: u64) -> impl Iterator<Item = DataPoint> + '_ {
        let ppc = self.shape.points_per_chunk;
        let base = chunk as i64 * self.shape.delta_ms as i64;
        let period = self.shape.period_ms();
        self.values[chunk as usize * ppc..(chunk as usize + 1) * ppc]
            .iter()
            .enumerate()
            .map(move |(i, &v)| DataPoint::new(base + i as i64 * period, v as i64))
    }

    /// Start of chunk `chunk`'s window in stream time.
    pub fn chunk_start(&self, chunk: u64) -> i64 {
        chunk as i64 * self.shape.delta_ms as i64
    }

    /// Adds the reference digest of chunks `lo..hi` into `acc`.
    pub fn add_expected(&self, lo: u64, hi: u64, acc: &mut [u64]) {
        let w = self.shape.width();
        let (a, b) = (lo as usize * w, hi as usize * w);
        for (k, slot) in acc.iter_mut().enumerate() {
            *slot = slot.wrapping_add(self.prefix[b + k].wrapping_sub(self.prefix[a + k]));
        }
    }

    /// Whether `got` is exactly the reference digest `expected` (as built by
    /// [`add_expected`](Self::add_expected) over streams of this shape).
    pub fn summary_matches(&self, expected: &[u64], got: &StatSummary) -> bool {
        let mut slot = 2;
        let mut ok = got.sum == Some(expected[0] as i64) && got.count == Some(expected[1]);
        if self.shape.sum_squares {
            ok &= got.sum_squares == Some(expected[2] as i64);
            slot = 3;
        }
        ok && got
            .histogram
            .as_ref()
            .is_some_and(|h| h.bounds == self.shape.hist_bounds && h.counts == expected[slot..])
    }

    /// Whether `got` is exactly the points of chunks `lo..hi`, in order.
    pub fn points_match(&self, lo: u64, hi: u64, got: &[DataPoint]) -> bool {
        let ppc = self.shape.points_per_chunk;
        got.len() == (hi - lo) as usize * ppc
            && got
                .chunks_exact(ppc)
                .zip(lo..hi)
                .all(|(pts, c)| point_checksum(pts.iter().copied()) == self.checksums[c as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_layout_agrees_with_the_product_schema_on_one_chunk() {
        // The oracle computes its slots itself; this only pins that the slot
        // *order* is the one `Shape::schema` hands to the product.
        for shape in [Shape::mhealth(50), Shape::devops()] {
            let d = StreamData::generate(9, shape, 3, &mut Rng::new(1, 1));
            let pts: Vec<DataPoint> = d.points(1).collect();
            let mut acc = vec![0u64; d.shape.width()];
            d.add_expected(1, 2, &mut acc);
            assert_eq!(d.cfg.schema.compute(&pts), acc);
            assert!(d.summary_matches(&acc, &d.cfg.schema.interpret(&acc)));
            acc[0] += 1;
            assert!(!d.summary_matches(&acc, &d.cfg.schema.interpret(&d.cfg.schema.compute(&pts))));
        }
    }

    #[test]
    fn points_stay_in_their_chunk_and_checksums_catch_changes() {
        let d = StreamData::generate(9, Shape::mhealth(500), 4, &mut Rng::new(2, 0));
        for c in 0..4 {
            assert!(d.points(c).all(|p| d.cfg.chunk_of(p.ts) == Some(c)));
        }
        let mut got: Vec<DataPoint> = d.points(1).chain(d.points(2)).collect();
        assert!(d.points_match(1, 3, &got));
        assert!(!d.points_match(0, 2, &got));
        got[700].value += 1;
        assert!(!d.points_match(1, 3, &got));
    }
}
