//! Prometheus text-format (exposition format 0.0.4) rendering, the log₂
//! latency histogram the service tier records into, and percentile
//! derivation from its buckets.

use crate::counters::Counter;
use std::fmt::Write;
use std::time::Duration;

/// Number of log₂ buckets a full latency histogram carries: bucket `i`
/// counts samples in `[2^(i-1), 2^i)` microseconds (bucket 0 is
/// sub-microsecond), so the top bucket is open-ended at `2^28` µs
/// (~4.5 min). Snapshots may arrive shorter (trailing zero buckets are
/// trimmed on the wire).
pub const LOG2_BUCKETS: usize = 30;

/// What a family's samples mean to a scraper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only grows; the name ends in `_total`.
    Counter,
    /// A current value.
    Gauge,
    /// Quantiles, by the `quantile` label convention.
    Summary,
}

/// One metric family: what its `# HELP` / `# TYPE` preamble says.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The family name, part of the scrape interface.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The `# TYPE`.
    pub kind: Kind,
}

/// Builder for one exposition-format page.
///
/// ```
/// use timecrypt_obs::prom::{Family, Kind, PromText};
///
/// let mut page = PromText::new();
/// page.header(&Family { name: "up_total", help: "Example counter.", kind: Kind::Counter });
/// page.sample("up_total", &[("shard", "0")], 3.0);
/// let text = page.finish();
/// assert!(text.contains("up_total{shard=\"0\"} 3"));
/// ```
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emits the `# HELP` / `# TYPE` preamble of a metric family.
    pub fn header(&mut self, family: &Family) {
        let kind = match family.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        };
        let Family { name, help, .. } = family;
        // Writing into a `String` cannot fail.
        let _ = writeln!(self.buf, "# HELP {name} {help}\n# TYPE {name} {kind}");
    }

    /// Emits one sample line with optional labels. Label values are
    /// escaped per the exposition format (`\`, `"`, newline).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                self.buf.push_str(k);
                self.buf.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.buf.push_str("\\\\"),
                        '"' => self.buf.push_str("\\\""),
                        '\n' => self.buf.push_str("\\n"),
                        c => self.buf.push(c),
                    }
                }
                self.buf.push('"');
            }
            self.buf.push('}');
        }
        self.buf.push(' ');
        // Integral values print without a trailing `.0` (Rust's `{}` for
        // f64 already does this), non-finite per the format's spelling.
        if value.is_nan() {
            self.buf.push_str("NaN");
        } else if value.is_infinite() {
            self.buf.push_str(if value > 0.0 { "+Inf" } else { "-Inf" });
        } else {
            self.buf.push_str(&format!("{value}"));
        }
        self.buf.push('\n');
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Lower bound (µs) of log₂ bucket `i`.
fn bucket_lo(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (1u64 << (i - 1)) as f64
    }
}

/// Upper bound (µs) of log₂ bucket `i`.
fn bucket_hi(i: usize) -> f64 {
    (1u64 << i) as f64
}

/// The `q`-quantile (`0 < q <= 1`), in microseconds, of a log₂ bucketed
/// histogram (see [`LOG2_BUCKETS`] for the bucket layout; `buckets` may
/// be trailing-trimmed). Linear interpolation within the covering
/// bucket; the open-ended top bucket of a full histogram reports its
/// lower bound (`2^28` µs) — the histogram cannot resolve beyond it.
/// Returns 0 for an empty histogram.
pub fn quantile_log2(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let next = cum + count as f64;
        if next >= target {
            if i + 1 >= LOG2_BUCKETS {
                return bucket_lo(i); // open-ended top bucket: saturate
            }
            let frac = ((target - cum) / count as f64).clamp(0.0, 1.0);
            let (lo, hi) = (bucket_lo(i), bucket_hi(i));
            return lo + frac * (hi - lo);
        }
        cum = next;
    }
    // q == 1.0 lands here only via float round-off; report the last
    // populated bucket's upper bound (or lower bound when saturated).
    let last = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    if last + 1 >= LOG2_BUCKETS {
        bucket_lo(last)
    } else {
        bucket_hi(last)
    }
}

/// The quantiles a latency summary reports: `quantile` label and rank.
pub const QUANTILES: [(&str, f64); 3] = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];

/// The log₂ bucket a sample of `us` microseconds falls in.
pub fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
}

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Default)]
pub struct LatencyHist {
    buckets: [Counter; LOG2_BUCKETS],
}

impl LatencyHist {
    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        self.buckets[bucket_of(d.as_micros() as u64)].inc();
    }

    /// Snapshot, trimmed of trailing empty buckets.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.buckets.iter().map(Counter::get).collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p50_p95_p99(buckets: &[u64]) -> [f64; 3] {
        QUANTILES.map(|(_, q)| quantile_log2(buckets, q))
    }

    fn hist(samples: &[u64]) -> Vec<u64> {
        let mut buckets = vec![0u64; LOG2_BUCKETS];
        for &s in samples {
            buckets[bucket_of(s)] += 1;
        }
        buckets
    }

    /// Exact reference: the q-quantile under the same definition
    /// (smallest prefix covering q·total, linearly interpolated within
    /// the covering bucket) computed directly from sorted samples'
    /// bucket membership.
    fn exact_quantile(samples: &[u64], q: f64) -> f64 {
        quantile_log2(&hist(samples), q)
    }

    #[test]
    fn empty_histogram_is_zero() {
        assert_eq!(quantile_log2(&[], 0.5), 0.0);
        assert_eq!(quantile_log2(&[0, 0, 0], 0.99), 0.0);
    }

    #[test]
    fn single_bucket_interpolates_linearly() {
        // 100 samples, all in bucket 3 = [4, 8) µs.
        let mut buckets = vec![0u64; 8];
        buckets[3] = 100;
        // p50: 4 + 0.5 * 4 = 6; p95: 4 + 0.95 * 4 = 7.8
        assert_eq!(quantile_log2(&buckets, 0.50), 6.0);
        assert!((quantile_log2(&buckets, 0.95) - 7.8).abs() < 1e-9);
        assert!((quantile_log2(&buckets, 0.99) - 7.96).abs() < 1e-9);
    }

    #[test]
    fn known_sample_set_pins_p50_p95_p99() {
        // 90 fast ops in [16,32) µs, 9 in [256,512) µs, 1 in [4096,8192).
        let mut samples = vec![20u64; 90];
        samples.extend_from_slice(&[300; 9]);
        samples.push(5000);
        let buckets = hist(&samples);
        // p50: target 50 of 90 in bucket 5 = [16,32): 16 + (50/90)*16
        let p50 = 16.0 + (50.0 / 90.0) * 16.0;
        // p95: target 95; cum 90 before bucket 9 = [256,512): 256 + (5/9)*256
        let p95 = 256.0 + (5.0 / 9.0) * 256.0;
        // p99: target 99; same bucket: 256 + (9/9)*256 = 512
        let p99 = 512.0;
        let got = p50_p95_p99(&buckets);
        assert!((got[0] - p50).abs() < 1e-9, "p50 {} vs {}", got[0], p50);
        assert!((got[1] - p95).abs() < 1e-9, "p95 {} vs {}", got[1], p95);
        assert!((got[2] - p99).abs() < 1e-9, "p99 {} vs {}", got[2], p99);
    }

    #[test]
    fn trailing_trimmed_snapshot_matches_full_width() {
        // The wire trims trailing zero buckets; quantiles must not care.
        let full = hist(&[1, 1, 3, 3, 10, 100]);
        let trimmed: Vec<u64> = {
            let last = full.iter().rposition(|&c| c > 0).unwrap();
            full[..=last].to_vec()
        };
        assert!(trimmed.len() < full.len());
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(quantile_log2(&full, q), quantile_log2(&trimmed, q));
        }
    }

    #[test]
    fn top_bucket_saturates_at_its_lower_bound() {
        // Samples beyond the histogram's range all land in the open-ended
        // top bucket; any quantile inside it reports the 2^28 µs floor
        // rather than inventing an upper bound.
        let buckets = hist(&[u64::MAX, u64::MAX, 1 << 40]);
        assert_eq!(quantile_log2(&buckets, 0.5), (1u64 << 28) as f64);
        assert_eq!(quantile_log2(&buckets, 0.99), (1u64 << 28) as f64);
        // Mixed: fast ops plus one stuck op — p50 stays in the fast
        // bucket, p99 saturates.
        let mixed = hist(&[10, 10, 10, 10, 10, 10, 10, 10, 10, u64::MAX]);
        assert!(quantile_log2(&mixed, 0.5) < 16.0);
        assert_eq!(quantile_log2(&mixed, 0.99), (1u64 << 28) as f64);
    }

    #[test]
    fn quantile_one_is_the_max_bucket_bound() {
        let samples = [3u64, 7, 100];
        assert_eq!(exact_quantile(&samples, 1.0), 128.0); // [64,128) hi
    }

    #[test]
    fn bucket_of_is_log2_of_the_microseconds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), LOG2_BUCKETS - 1);
    }

    #[test]
    fn histogram_buckets_by_log2_us() {
        let h = LatencyHist::default();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 1
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(1000)); // bucket 10
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[2], 1);
        assert_eq!(snap[10], 1);
        assert_eq!(snap.len(), 11, "trailing zeros trimmed");
    }

    #[test]
    fn recorded_samples_produce_exact_percentiles() {
        // End to end: record a known sample set, trim-snapshot it (the
        // wire form), and pin the derived percentiles against hand
        // computation. 90 samples in [16,32) µs, 10 in [256,512) µs.
        let h = LatencyHist::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(20));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(300));
        }
        let [p50, p95, p99] = p50_p95_p99(&h.snapshot());
        assert!((p50 - (16.0 + (50.0 / 90.0) * 16.0)).abs() < 1e-9, "{p50}");
        assert!((p95 - (256.0 + 0.5 * 256.0)).abs() < 1e-9, "{p95}");
        assert!((p99 - (256.0 + 0.9 * 256.0)).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn prom_text_escapes_and_formats() {
        let mut page = PromText::new();
        page.header(&Family {
            name: "x_total",
            help: "Help text.",
            kind: Kind::Counter,
        });
        page.sample("x_total", &[("name", "a\"b\\c")], 1.0);
        page.sample("x_total", &[], 2.5);
        let text = page.finish();
        assert!(text.contains("# HELP x_total Help text.\n"));
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total{name=\"a\\\"b\\\\c\"} 1\n"));
        assert!(text.contains("x_total 2.5\n"));
    }
}
