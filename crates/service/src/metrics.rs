//! Per-shard service metrics: counters, queue depths, latency histograms.
//!
//! Everything is relaxed atomics — the ingest hot path pays two
//! `fetch_add`s per chunk. Snapshots are not cross-counter consistent,
//! which is fine for monitoring.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use timecrypt_server::TimeCryptServer;
use timecrypt_store::StoreCounters;
use timecrypt_wire::messages::{ServiceStatsWire, ShardStatsWire};

/// Number of log₂ microsecond buckets: bucket `i` counts latencies in
/// `[2^(i-1), 2^i)` µs (bucket 0 is sub-microsecond), so the top bucket
/// absorbs everything from ~4.5 minutes up.
pub const HIST_BUCKETS: usize = 30;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Default)]
pub struct LatencyHist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LatencyHist {
    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros() as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot, trimmed of trailing empty buckets.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }
}

/// A shard's stream occupancy: how many streams it hosts, how many are
/// hydrated into RAM right now, and the lifetime hydration/eviction
/// counters. Owned by the engines (see
/// `timecrypt_server::TimeCryptServer::residency`), so snapshots take it
/// as an argument rather than tracking it here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Streams hosted by the shard (the directory size).
    pub streams: u64,
    /// Streams currently hydrated and resident in RAM.
    pub resident_streams: u64,
    /// Cold-touch hydrations performed since the engine opened.
    pub hydrations: u64,
    /// Resident streams evicted since the engine opened.
    pub evictions: u64,
}

impl ShardOccupancy {
    /// The occupancy of the shard `engine` serves.
    pub(crate) fn of(engine: &TimeCryptServer) -> Self {
        let residency = engine.residency();
        ShardOccupancy {
            streams: engine.stream_count() as u64,
            resident_streams: residency.resident,
            hydrations: residency.hydrations,
            evictions: residency.evictions,
        }
    }
}

/// A stats snapshot holding a metered store's traffic counters and no
/// shards yet: what a coordinator or node starts its `Stats` reply from.
pub(crate) fn store_stats(store: StoreCounters) -> ServiceStatsWire {
    ServiceStatsWire {
        store_gets: store.gets,
        store_puts: store.puts,
        store_deletes: store.deletes,
        store_scans: store.scans,
        store_bytes_read: store.bytes_read,
        store_bytes_written: store.bytes_written,
        ..ServiceStatsWire::default()
    }
}

/// One shard's counters. Counters track *backend operations performed by
/// this process*: a coordinator with a backup replica performs (and
/// counts) one primary write plus one mirror write per chunk, and a shard
/// node counts only what it hosts.
#[derive(Default)]
pub struct ShardMetrics {
    /// Chunks accepted by the engine.
    pub ingested_chunks: AtomicU64,
    /// Chunks the engine rejected (out-of-order, width mismatch, ...).
    pub ingest_errors: AtomicU64,
    /// Per-stream statistical sub-queries served.
    pub queries: AtomicU64,
    /// Sub-queries that errored.
    pub query_errors: AtomicU64,
    /// Jobs currently queued for the shard's ingest worker.
    pub queue_depth: AtomicU64,
    /// Reads served by the backup replica after the primary was
    /// unreachable (replicated deployments only).
    pub failovers: AtomicU64,
    /// Backup-replica operations that failed or returned a verdict
    /// diverging from the primary's (replicated deployments only). Growth
    /// means the replicas are drifting and the backup needs rebuilding.
    pub replica_errors: AtomicU64,
    /// Backups promoted to primary after the primary stayed unreachable
    /// for [`crate::ServiceConfig::promote_after`] consecutive failures.
    pub promotions: AtomicU64,
    /// Replica rebuilds completed (copy verified, mirroring re-armed).
    pub rebuilds: AtomicU64,
    /// Chunks copied survivor → replacement by rebuild workers.
    pub rebuild_chunks_copied: AtomicU64,
    /// Whether a backup replica is attached *and* in sync (maintained by
    /// [`crate::backend::ShardReplicas`]; false while rebuilding or
    /// without replication).
    pub in_sync: AtomicBool,
    /// Ingest latency (engine insert call, or remote batch exchange).
    pub ingest_latency: LatencyHist,
    /// Query latency (per-shard scatter-gather leg).
    pub query_latency: LatencyHist,
}

impl ShardMetrics {
    pub(crate) fn snapshot(&self, shard: u32, occ: ShardOccupancy) -> ShardStatsWire {
        ShardStatsWire {
            shard,
            streams: occ.streams,
            ingested_chunks: self.ingested_chunks.load(Ordering::Relaxed),
            ingest_errors: self.ingest_errors.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            replica_errors: self.replica_errors.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            rebuild_chunks_copied: self.rebuild_chunks_copied.load(Ordering::Relaxed),
            in_sync: self.in_sync.load(Ordering::Relaxed),
            ingest_hist_us: self.ingest_latency.snapshot(),
            query_hist_us: self.query_latency.snapshot(),
            resident_streams: occ.resident_streams,
            hydrations: occ.hydrations,
            evictions: occ.evictions,
        }
    }
}

/// All shards' metrics. One instance per [`crate::ShardedService`], shared
/// with the ingest workers.
pub struct ServiceMetrics {
    shards: Vec<ShardMetrics>,
}

impl ServiceMetrics {
    /// Metrics for `n` shards.
    pub fn new(n: usize) -> Self {
        ServiceMetrics {
            shards: (0..n).map(|_| ShardMetrics::default()).collect(),
        }
    }

    /// Shard `i`'s counters.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Wire snapshot. `occupancy[i]` is shard `i`'s current stream
    /// occupancy (owned by the engines, so passed in).
    pub fn snapshot(&self, occupancy: &[ShardOccupancy]) -> ServiceStatsWire {
        ServiceStatsWire {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, m)| m.snapshot(i as u32, occupancy.get(i).copied().unwrap_or_default()))
                .collect(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bucketing_agrees_with_the_exposition_layer() {
        // The metrics exposition derives p50/p95/p99 from these buckets
        // with `timecrypt_obs::prom` — its bucketing rule must match
        // `record`'s exactly, or the reported percentiles silently skew.
        assert_eq!(HIST_BUCKETS, timecrypt_obs::prom::LOG2_BUCKETS);
        for us in [0u64, 1, 2, 3, 4, 7, 8, 1000, 1 << 20, u64::MAX >> 1] {
            let h = LatencyHist::default();
            h.record(Duration::from_micros(us));
            let snap = h.snapshot();
            assert_eq!(
                snap.len() - 1,
                timecrypt_obs::prom::bucket_of(us),
                "bucket mismatch for {us}us"
            );
        }
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
        let snap = h.snapshot();
        let [p50, p95, p99] = timecrypt_obs::prom::p50_p95_p99(&snap);
        assert!((p50 - (16.0 + (50.0 / 90.0) * 16.0)).abs() < 1e-9, "{p50}");
        assert!((p95 - (256.0 + 0.5 * 256.0)).abs() < 1e-9, "{p95}");
        assert!((p99 - (256.0 + 0.9 * 256.0)).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn snapshot_reports_all_shards() {
        let m = ServiceMetrics::new(3);
        m.shard(1).ingested_chunks.fetch_add(5, Ordering::Relaxed);
        let occ = |streams, resident_streams| ShardOccupancy {
            streams,
            resident_streams,
            hydrations: resident_streams,
            evictions: 0,
        };
        let snap = m.snapshot(&[occ(2, 1), occ(4, 3), occ(0, 0)]);
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(snap.shards[1].ingested_chunks, 5);
        assert_eq!(snap.shards[1].streams, 4);
        assert_eq!(snap.shards[1].resident_streams, 3);
        assert_eq!(snap.shards[1].hydrations, 3);
        assert_eq!(snap.shards[2].shard, 2);
    }
}
