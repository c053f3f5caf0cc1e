//! Workload generators for the end-to-end experiments (§6 setup).
//!
//! * **mhealth** — a health-monitoring wearable reporting 12 metrics at
//!   50 Hz with Δ = 10 s chunks (≤ 500 points per chunk per metric).
//! * **DevOps** — a TSBS-style CPU monitoring fleet: 10 metrics × 100
//!   hosts, one reading per 10 s, Δ = 60 s chunks (6 records per chunk).
//! * **pre-sealed** — one-point chunks sealed ahead of time for the two
//!   cluster phases, which measure the serving tier, not the client CPU.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timecrypt_chunk::serialize::EncryptedChunk;
use timecrypt_chunk::{ChunkSealer, DataPoint, DigestOp, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};

/// `chunks` sealed one-point chunks (sum/count digests, Δ = 10 s) for each
/// of streams `0..streams`. Deterministic: the same arguments seal the
/// same bytes.
pub fn presealed(streams: usize, chunks: u64) -> Vec<Vec<EncryptedChunk>> {
    (0..streams as u128)
        .map(|id| {
            let cfg = StreamConfig {
                schema: DigestSchema::sum_count(),
                ..StreamConfig::new(id, "bench", 0, 10_000)
            };
            let keys =
                StreamKeyMaterial::with_params(id, [(id as u8) ^ 0x5a; 16], 22, PrgKind::Aes)
                    .unwrap();
            let mut rng = SecureRandom::from_seed_insecure(id as u64);
            // Amortized sealer: sequential chunks share boundary-leaf
            // derivations (byte-identical to one-shot `seal`).
            let mut sealer = ChunkSealer::new(&cfg, &keys);
            (0..chunks)
                .map(|i| {
                    let points = vec![DataPoint::new(i as i64 * 10_000, i as i64)];
                    let plain = PlainChunk {
                        stream: id,
                        index: i,
                        points,
                    };
                    sealer.seal(&plain, &mut rng).unwrap()
                })
                .collect()
        })
        .collect()
}

/// mhealth generator: `metrics` streams at `rate_hz`, Δ = 10 s.
pub struct MHealthWorkload {
    rng: StdRng,
    /// Number of metrics per device (paper: 12).
    pub metrics: u32,
    /// Sampling rate (paper: 50 Hz).
    pub rate_hz: u32,
    /// Chunk interval (paper: 10 s).
    pub delta_ms: u64,
}

impl MHealthWorkload {
    /// The paper's configuration.
    pub fn paper(seed: u64) -> Self {
        MHealthWorkload {
            rng: StdRng::seed_from_u64(seed),
            metrics: 12,
            rate_hz: 50,
            delta_ms: 10_000,
        }
    }

    /// Stream configuration for metric `m` of device `device`.
    pub fn stream_config(&self, device: u64, m: u32) -> StreamConfig {
        let id = ((device as u128) << 32) | m as u128 | 1 << 100;
        StreamConfig {
            source: format!("device-{device}"),
            ..StreamConfig::new(id, format!("metric-{m}"), 0, self.delta_ms)
        }
    }

    /// Generates the points of chunk `chunk` for one stream: a plausible
    /// vital-sign walk (heart-rate-like around 70 with bounded wander).
    pub fn chunk_points(&mut self, chunk: u64) -> Vec<DataPoint> {
        let n = (self.rate_hz as u64 * self.delta_ms / 1000) as usize;
        let period_ms = 1000 / self.rate_hz as i64;
        let base_ts = chunk as i64 * self.delta_ms as i64;
        let mut v = 70i64 + self.rng.gen_range(-10i64..10);
        (0..n)
            .map(|i| {
                v = (v + self.rng.gen_range(-2i64..=2)).clamp(40, 200);
                DataPoint::new(base_ts + i as i64 * period_ms, v)
            })
            .collect()
    }
}

/// DevOps generator: CPU utilization per host, TSBS-style.
pub struct DevOpsWorkload {
    rng: StdRng,
    /// Hosts (paper: 100).
    pub hosts: u32,
    /// Metrics per host (paper: 10).
    pub metrics: u32,
    /// Reading interval (paper: 10 s).
    pub rate_ms: u64,
    /// Chunk interval (paper: 60 s → 6 records per chunk).
    pub delta_ms: u64,
}

impl DevOpsWorkload {
    /// The paper's configuration.
    pub fn paper(seed: u64) -> Self {
        DevOpsWorkload {
            rng: StdRng::seed_from_u64(seed),
            hosts: 100,
            metrics: 10,
            rate_ms: 10_000,
            delta_ms: 60_000,
        }
    }

    /// Stream configuration for `(host, metric)`. The schema includes a
    /// histogram with a 50% boundary so the paper's "percentage of machines
    /// above 50% utilization" query is answerable.
    pub fn stream_config(&self, host: u32, m: u32) -> StreamConfig {
        let id = ((host as u128) << 32) | m as u128 | 1 << 101;
        let schema = DigestSchema::new(vec![
            DigestOp::Sum,
            DigestOp::Count,
            DigestOp::Histogram { bounds: vec![50] },
        ]);
        StreamConfig {
            source: format!("host-{host}"),
            schema,
            ..StreamConfig::new(id, format!("cpu-{m}"), 0, self.delta_ms)
        }
    }

    /// Points of chunk `chunk` for one stream: utilization 0..100 with load
    /// plateaus.
    pub fn chunk_points(&mut self, chunk: u64) -> Vec<DataPoint> {
        let n = (self.delta_ms / self.rate_ms) as usize;
        let base_ts = chunk as i64 * self.delta_ms as i64;
        let plateau = self.rng.gen_range(5i64..95);
        (0..n)
            .map(|i| {
                let v = (plateau + self.rng.gen_range(-5i64..=5)).clamp(0, 100);
                DataPoint::new(base_ts + (i as u64 * self.rate_ms) as i64, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mhealth_chunk_shape() {
        let mut w = MHealthWorkload::paper(1);
        let pts = w.chunk_points(0);
        assert_eq!(pts.len(), 500, "50 Hz × 10 s");
        assert!(pts.iter().all(|p| (40..=200).contains(&p.value)));
        assert!(pts.windows(2).all(|ab| ab[0].ts < ab[1].ts));
        let cfg = w.stream_config(3, 7);
        assert_eq!(cfg.delta_ms, 10_000);
        // Points of chunk 2 land in chunk 2.
        let pts2 = w.chunk_points(2);
        assert!(pts2.iter().all(|p| cfg.chunk_of(p.ts) == Some(2)));
    }

    #[test]
    fn devops_chunk_shape() {
        let mut w = DevOpsWorkload::paper(2);
        let pts = w.chunk_points(0);
        assert_eq!(pts.len(), 6, "6 records per chunk");
        assert!(pts.iter().all(|p| (0..=100).contains(&p.value)));
        let cfg = w.stream_config(1, 1);
        assert_eq!(cfg.schema.width(), 1 + 1 + 2);
    }

    #[test]
    fn stream_ids_unique() {
        let mh = MHealthWorkload::paper(0);
        let dv = DevOpsWorkload::paper(0);
        let a = mh.stream_config(1, 2).id;
        let b = mh.stream_config(2, 1).id;
        let c = dv.stream_config(1, 2).id;
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = MHealthWorkload::paper(9);
        let mut b = MHealthWorkload::paper(9);
        assert_eq!(a.chunk_points(0), b.chunk_points(0));
    }
}
