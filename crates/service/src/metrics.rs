//! Per-shard service metrics: counters, in-flight depths, latency histograms.
//!
//! Every field is a `timecrypt_obs` [`Counter`], [`Gauge`] or
//! [`LatencyHist`] — relaxed atomics; the ingest hot path pays two bumps
//! per chunk. A snapshot copies them into the `ShardStatsWire` fields of
//! the same names, which declare the `/metrics` families
//! (`timecrypt_wire::messages`). Snapshots are not cross-counter
//! consistent, which is fine for monitoring.

use std::time::Duration;
use timecrypt_obs::counters::{Counter, Gauge};
use timecrypt_obs::prom::LatencyHist;
use timecrypt_server::{ServerError, StatLeg, TimeCryptServer};
use timecrypt_store::StoreCounters;
use timecrypt_wire::messages::{ServiceStatsWire, ShardStatsWire};

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
        shards: Vec::new(),
        store_gets: store.gets,
        store_puts: store.puts,
        store_deletes: store.deletes,
        store_scans: store.scans,
        store_bytes_read: store.bytes_read,
        store_bytes_written: store.bytes_written,
    }
}

/// One shard's counters. Counters track *backend operations performed by
/// this process*: a coordinator with a backup replica performs (and
/// counts) one primary write plus one mirror write per chunk, and a shard
/// node counts only what it hosts.
#[derive(Default)]
pub struct ShardMetrics {
    /// Chunks accepted by the engine.
    pub ingested_chunks: Counter,
    /// Chunks the engine rejected (out-of-order, width mismatch, ...).
    pub ingest_errors: Counter,
    /// Per-stream statistical sub-queries served.
    pub queries: Counter,
    /// Sub-queries that errored.
    pub query_errors: Counter,
    /// Chunks submitted to the shard and not yet answered.
    pub queue_depth: Gauge,
    /// Reads served by the backup replica after the primary was
    /// unreachable (replicated deployments only).
    pub failovers: Counter,
    /// Backup-replica operations that failed or returned a verdict
    /// diverging from the primary's (replicated deployments only). Growth
    /// means the replicas are drifting and the backup needs rebuilding.
    pub replica_errors: Counter,
    /// Backups promoted to primary after the primary stayed unreachable
    /// for [`crate::ServiceConfig::promote_after`] consecutive failures.
    pub promotions: Counter,
    /// Replica rebuilds completed (copy verified, mirroring re-armed).
    pub rebuilds: Counter,
    /// Chunks copied survivor → replacement by rebuild workers.
    pub rebuild_chunks_copied: Counter,
    /// Whether a backup replica is attached *and* in sync (maintained by
    /// [`crate::backend::ShardReplicas`]; false while rebuilding or
    /// without replication).
    pub in_sync: Gauge,
    /// Ingest latency (engine insert call, or remote batch exchange).
    pub ingest_latency: LatencyHist,
    /// Query latency (per-shard scatter-gather leg).
    pub query_latency: LatencyHist,
}

impl ShardMetrics {
    /// Records one ingest run: its wall time is sampled once per chunk
    /// (histogram totals and the `ingested_chunks` / `ingest_errors`
    /// counters stay in agreement), counters tick per verdict.
    pub(crate) fn record_run(&self, elapsed: Duration, verdicts: &[Result<(), ServerError>]) {
        for v in verdicts {
            self.ingest_latency.record(elapsed);
            match v {
                Ok(()) => self.ingested_chunks.inc(),
                Err(_) => self.ingest_errors.inc(),
            }
        }
    }

    /// Records one remote leg the same way: its exchange time sampled once
    /// per stream the node answered for, one error if one stopped the leg.
    pub(crate) fn record_leg(&self, elapsed: Duration, leg: &StatLeg) {
        let answered = leg.parts.len() + usize::from(leg.stop.is_some());
        (0..answered).for_each(|_| self.query_latency.record(elapsed));
        self.queries.add(answered as u64);
        self.query_errors
            .add(matches!(leg.stop, Some(Err(_))).into());
    }

    pub(crate) fn snapshot(&self, shard: u32, occ: ShardOccupancy) -> ShardStatsWire {
        ShardStatsWire {
            shard,
            streams: occ.streams,
            ingested_chunks: self.ingested_chunks.get(),
            ingest_errors: self.ingest_errors.get(),
            queries: self.queries.get(),
            query_errors: self.query_errors.get(),
            queue_depth: self.queue_depth.get(),
            failovers: self.failovers.get(),
            replica_errors: self.replica_errors.get(),
            promotions: self.promotions.get(),
            rebuilds: self.rebuilds.get(),
            rebuild_chunks_copied: self.rebuild_chunks_copied.get(),
            in_sync: self.in_sync.get() != 0,
            ingest_hist_us: self.ingest_latency.snapshot(),
            query_hist_us: self.query_latency.snapshot(),
            resident_streams: occ.resident_streams,
            hydrations: occ.hydrations,
            evictions: occ.evictions,
        }
    }
}

/// All shards' metrics. One instance per [`crate::ShardedService`], shared
/// with its backends.
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
    fn snapshot_reports_all_shards() {
        let m = ServiceMetrics::new(3);
        m.shard(1).ingested_chunks.add(5);
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
