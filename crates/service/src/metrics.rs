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
use timecrypt_server::{ServerError, StatLeg};
use timecrypt_wire::messages::ShardStatsWire;

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
    /// Replica rebuilds completed (every stream copied, mirroring re-armed).
    pub rebuilds: Counter,
    /// Chunks (decay stubs included) rebuilds wrote to a replica.
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

    /// The shard's wire entry: these counters, and the engine-owned
    /// figures of `occ` — its engine's occupancy, or its node's report of
    /// it (`streams`, `resident_streams`, `hydrations`, `evictions`).
    pub(crate) fn snapshot(&self, shard: u32, occ: &ShardStatsWire) -> ShardStatsWire {
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
}
