//! Digest schema: the statistics a stream's chunks carry (paper §4.5).
//!
//! Each chunk digest is a vector of u64 values encrypted element-wise with
//! HEAC. The layout is fixed per stream at creation time ("the content of a
//! digest is pre-configured based on the statistical queries to be supported
//! per stream", §4.1). TimeCrypt supports by default:
//!
//! * **SUM / COUNT / MEAN** — linear; digest stores sum and count; mean is
//!   computed client-side after decryption.
//! * **VAR / STDEV** — quadratic; digest stores the sum of squares.
//! * **HISTOGRAM** — per-bin counts for fixed bin boundaries.
//! * **MIN / MAX** — recovered from the histogram (lowest/highest non-empty
//!   bin), including the frequency count, without order-revealing
//!   encryption leakage (§4.5).

use crate::model::DataPoint;

/// One statistic family in a digest layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestOp {
    /// Sum of values (1 slot).
    Sum,
    /// Number of points (1 slot).
    Count,
    /// Sum of squared values, wrapping mod 2^64 (1 slot).
    SumSquares,
    /// Per-bin counts: `bounds` are the inner boundaries of `bounds.len()+1`
    /// bins; value `v` falls into the first bin `b` with `v < bounds[b]`,
    /// else the last bin (`bounds.len()` slots + 1).
    Histogram {
        /// Ascending inner bin boundaries.
        bounds: Vec<i64>,
    },
}

impl DigestOp {
    /// Number of u64 digest slots this op occupies.
    pub fn width(&self) -> usize {
        match self {
            DigestOp::Sum | DigestOp::Count | DigestOp::SumSquares => 1,
            DigestOp::Histogram { bounds } => bounds.len() + 1,
        }
    }
}

/// The full digest layout for a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestSchema {
    ops: Vec<DigestOp>,
    width: usize,
}

impl DigestSchema {
    /// Builds a schema from an op list.
    pub fn new(ops: Vec<DigestOp>) -> Self {
        let width = ops.iter().map(DigestOp::width).sum();
        DigestSchema { ops, width }
    }

    /// The paper's default query set: sum, count, sum-of-squares, and a
    /// 16-bin histogram spanning a generic sensor range.
    pub fn standard() -> Self {
        let bounds: Vec<i64> = (1..16).map(|i| i * 64).collect();
        DigestSchema::new(vec![
            DigestOp::Sum,
            DigestOp::Count,
            DigestOp::SumSquares,
            DigestOp::Histogram { bounds },
        ])
    }

    /// Minimal sum-only schema (used for Table 2 / Fig. 5 microbenchmarks,
    /// where "the index supports one statistical operation (i.e., sum) for
    /// isolated overhead quantification", §6.1).
    pub fn sum_only() -> Self {
        DigestSchema::new(vec![DigestOp::Sum])
    }

    /// Sum + count (enough for MEAN).
    pub fn sum_count() -> Self {
        DigestSchema::new(vec![DigestOp::Sum, DigestOp::Count])
    }

    /// Total u64 slots per digest.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The op layout.
    pub fn ops(&self) -> &[DigestOp] {
        &self.ops
    }

    /// Computes the plaintext digest of a chunk's points. All arithmetic is
    /// wrapping mod 2^64 to match the HEAC plaintext space.
    pub fn compute(&self, points: &[DataPoint]) -> Vec<u64> {
        let mut out = vec![0u64; self.width];
        self.compute_into(points, &mut out);
        out
    }

    /// [`compute`](Self::compute) into `out` (`width` words): one pass over
    /// the points per statistic.
    pub fn compute_into(&self, points: &[DataPoint], out: &mut [u64]) {
        out.fill(0);
        let mut off = 0usize;
        for op in &self.ops {
            match op {
                DigestOp::Sum => {
                    out[off] = points
                        .iter()
                        .fold(0u64, |a, p| a.wrapping_add(p.value as u64));
                }
                DigestOp::Count => {
                    out[off] = points.len() as u64;
                }
                DigestOp::SumSquares => {
                    out[off] = points.iter().fold(0u64, |a, p| {
                        a.wrapping_add((p.value.wrapping_mul(p.value)) as u64)
                    });
                }
                DigestOp::Histogram { bounds } => {
                    for p in points {
                        let bin = bounds
                            .iter()
                            .position(|&b| p.value < b)
                            .unwrap_or(bounds.len());
                        out[off + bin] = out[off + bin].wrapping_add(1);
                    }
                }
            }
            off += op.width();
        }
    }

    /// Interprets a decrypted aggregate digest.
    pub fn interpret(&self, digest: &[u64]) -> StatSummary {
        let mut s = StatSummary::default();
        let mut off = 0usize;
        for op in &self.ops {
            match op {
                DigestOp::Sum => s.sum = Some(digest[off] as i64),
                DigestOp::Count => s.count = Some(digest[off]),
                DigestOp::SumSquares => s.sum_squares = Some(digest[off] as i64),
                DigestOp::Histogram { bounds } => {
                    s.histogram = Some(Histogram {
                        bounds: bounds.clone(),
                        counts: digest[off..off + bounds.len() + 1].to_vec(),
                    });
                }
            }
            off += op.width();
        }
        s
    }
}

/// A decoded histogram: inner boundaries + per-bin counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Ascending inner bin boundaries.
    pub bounds: Vec<i64>,
    /// Count per bin (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Half-open value range `[lo, hi)` of bin `b`, with open ends at the
    /// extremes represented as `i64::MIN` / `i64::MAX`.
    pub fn bin_range(&self, b: usize) -> (i64, i64) {
        let lo = if b == 0 { i64::MIN } else { self.bounds[b - 1] };
        let hi = if b == self.bounds.len() {
            i64::MAX
        } else {
            self.bounds[b]
        };
        (lo, hi)
    }

    /// Lowest non-empty bin: the MIN estimate `(range, frequency)` (§4.5).
    pub fn min_bin(&self) -> Option<((i64, i64), u64)> {
        self.counts
            .iter()
            .position(|&c| c > 0)
            .map(|b| (self.bin_range(b), self.counts[b]))
    }

    /// Highest non-empty bin: the MAX estimate `(range, frequency)`.
    pub fn max_bin(&self) -> Option<((i64, i64), u64)> {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|b| (self.bin_range(b), self.counts[b]))
    }

    /// Total number of points in the histogram.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of points at or above `threshold` (e.g. "percentage of
    /// machines with higher than 50% utilization", §6.3). `threshold` must
    /// be one of the bin boundaries for an exact answer.
    pub fn fraction_at_or_above(&self, threshold: i64) -> Option<f64> {
        let b = self.bounds.iter().position(|&x| x == threshold)? + 1;
        let total = self.total();
        if total == 0 {
            return Some(0.0);
        }
        let above: u64 = self.counts[b..].iter().sum();
        Some(above as f64 / total as f64)
    }
}

/// Client-side interpretation of a decrypted aggregate (§4.5): the raw
/// aggregation-based values plus the derived statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSummary {
    /// Aggregate sum (two's-complement i64).
    pub sum: Option<i64>,
    /// Number of points aggregated.
    pub count: Option<u64>,
    /// Aggregate sum of squares.
    pub sum_squares: Option<i64>,
    /// Aggregate histogram.
    pub histogram: Option<Histogram>,
}

impl StatSummary {
    /// MEAN = SUM / COUNT.
    pub fn mean(&self) -> Option<f64> {
        match (self.sum, self.count) {
            (Some(s), Some(c)) if c > 0 => Some(s as f64 / c as f64),
            _ => None,
        }
    }

    /// Population variance = E\[X²\] − E\[X\]².
    pub fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        let sq = self.sum_squares? as f64;
        let c = self.count? as f64;
        Some((sq / c - mean * mean).max(0.0))
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(values: &[i64]) -> Vec<DataPoint> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| DataPoint::new(i as i64, v))
            .collect()
    }

    #[test]
    fn widths() {
        assert_eq!(DigestSchema::sum_only().width(), 1);
        assert_eq!(DigestSchema::sum_count().width(), 2);
        assert_eq!(DigestSchema::standard().width(), 3 + 16);
        assert_eq!(
            DigestOp::Histogram {
                bounds: vec![0, 10]
            }
            .width(),
            3
        );
    }

    #[test]
    fn sum_count_digest() {
        let schema = DigestSchema::sum_count();
        let d = schema.compute(&pts(&[10, 20, 30]));
        assert_eq!(d, vec![60, 3]);
        let s = schema.interpret(&d);
        assert_eq!(s.sum, Some(60));
        assert_eq!(s.count, Some(3));
        assert_eq!(s.mean(), Some(20.0));
    }

    #[test]
    fn negative_values_sum() {
        let schema = DigestSchema::sum_only();
        let d = schema.compute(&pts(&[-5, 3, -10]));
        let s = schema.interpret(&d);
        assert_eq!(s.sum, Some(-12));
    }

    #[test]
    fn variance_matches_definition() {
        let schema = DigestSchema::new(vec![DigestOp::Sum, DigestOp::Count, DigestOp::SumSquares]);
        let values = [2i64, 4, 4, 4, 5, 5, 7, 9];
        let d = schema.compute(&pts(&values));
        let s = schema.interpret(&d);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.variance(), Some(4.0));
        assert_eq!(s.stddev(), Some(2.0));
    }

    #[test]
    fn histogram_binning() {
        let schema = DigestSchema::new(vec![DigestOp::Histogram {
            bounds: vec![0, 10, 20],
        }]);
        // Bins: (-inf,0), [0,10), [10,20), [20,inf)
        let d = schema.compute(&pts(&[-1, 0, 5, 9, 10, 25, 100]));
        assert_eq!(d, vec![1, 3, 1, 2]);
        let s = schema.interpret(&d);
        let h = s.histogram.unwrap();
        assert_eq!(h.min_bin().unwrap(), ((i64::MIN, 0), 1));
        assert_eq!(h.max_bin().unwrap(), ((20, i64::MAX), 2));
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_fraction_above() {
        let schema = DigestSchema::new(vec![DigestOp::Histogram { bounds: vec![50] }]);
        // DevOps query: % of readings >= 50.
        let d = schema.compute(&pts(&[10, 40, 50, 80, 99]));
        let h = schema.interpret(&d).histogram.unwrap();
        assert_eq!(h.fraction_at_or_above(50), Some(0.6));
        assert_eq!(h.fraction_at_or_above(49), None, "not a boundary");
    }

    #[test]
    fn empty_chunk_digest_is_zero() {
        let schema = DigestSchema::standard();
        let d = schema.compute(&[]);
        assert!(d.iter().all(|&x| x == 0));
        let s = schema.interpret(&d);
        assert_eq!(s.count, Some(0));
        assert_eq!(s.mean(), None);
        assert_eq!(s.histogram.unwrap().min_bin(), None);
    }

    #[test]
    fn digests_are_additive() {
        // The whole design rests on digest(a ++ b) = digest(a) + digest(b).
        let schema = DigestSchema::standard();
        let a = pts(&[1, 2, 3, 400, -7]);
        let b = pts(&[10, 20, 1000]);
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        let da = schema.compute(&a);
        let db = schema.compute(&b);
        let dab = schema.compute(&ab);
        let summed: Vec<u64> = da
            .iter()
            .zip(db.iter())
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        assert_eq!(summed, dab);
    }
}
