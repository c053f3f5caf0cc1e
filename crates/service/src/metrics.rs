//! Per-shard service metrics: the [`ShardMetrics`] cells generated from
//! `ShardStatsWire`'s rows (`timecrypt_wire::messages`), which also name
//! their `/metrics` families. A tier holds one per cluster shard, as an
//! `Arc<[ShardMetrics]>` indexed by shard id and shared with its backends;
//! the ingest hot path pays two bumps per chunk.
//!
//! The cells track *backend operations performed by this process*: a
//! coordinator with a backup replica performs (and counts) one primary
//! write plus one mirror write per chunk, and a shard node counts only
//! what it hosts.

use std::time::Duration;
use timecrypt_server::{ServerError, StatLeg};
pub use timecrypt_wire::messages::ShardMetrics;

/// Records in `m` one ingest run that `took`: sampled once per chunk
/// (histogram totals and the `ingested_chunks` / `ingest_errors` counters
/// stay in agreement), counters tick per verdict.
pub(crate) fn record_run(m: &ShardMetrics, took: Duration, verdicts: &[Result<(), ServerError>]) {
    for v in verdicts {
        m.ingest_hist_us.record(took);
        match v {
            Ok(()) => m.ingested_chunks.inc(),
            Err(_) => m.ingest_errors.inc(),
        }
    }
}

/// Records in `m` one remote leg the same way: the exchange time sampled
/// once per stream the node answered for, one error if one stopped the leg.
pub(crate) fn record_leg(m: &ShardMetrics, took: Duration, leg: &StatLeg) {
    let answered = leg.parts.len() + usize::from(leg.stop.is_some());
    (0..answered).for_each(|_| m.query_hist_us.record(took));
    m.queries.add(answered as u64);
    m.query_errors.add(matches!(leg.stop, Some(Err(_))).into());
}
