//! Process-global robustness counters.
//!
//! Two events cut across crate boundaries and matter to operators chasing
//! a durability or availability incident: **I/O deadline expiries** (the
//! wire layer gave up on a peer — feeds the strike → promotion machinery)
//! and **fsync batches** (the log made a group of acked writes power-loss
//! durable). Both are recorded here as process-wide atomics so the store
//! and wire crates can bump them without a metrics registry dependency,
//! and the `/metrics` exposition renders them as
//! `timecrypt_timeouts_total` / `timecrypt_fsyncs_total`; next to the
//! fsyncs, `timecrypt_store_batches_total` counts the log's commits, so
//! the two give fsyncs per commit. `timecrypt_ledger_leaves_loaded_total`
//! counts the level-0 records the engine read back to build integrity
//! ledgers for proof requests and `timecrypt_ledger_bytes_loaded_total`
//! their bytes (a record is the whole chunk, so a catch-up reads and
//! hashes bodies) — who is paying for proofs, and whether a plain query
//! ever rebuilt a ledger (it must not). The log store's
//! **footprint** (file length, live keys, index bytes, dead bytes) takes
//! the same road as four gauges, `timecrypt_store_*`: last writer wins, so
//! they describe the one `LogKv` a node process runs.
//!
//! Like `timecrypt_uptime_seconds`, these are per-process: a node reports
//! its own fsyncs, a coordinator its own timeouts.

use std::sync::atomic::{AtomicU64, Ordering};

static TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static FSYNCS: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static LEDGER_LEAVES: AtomicU64 = AtomicU64::new(0);
static LEDGER_BYTES: AtomicU64 = AtomicU64::new(0);
static STORE_FOOTPRINT: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];

/// Records one I/O deadline expiry (socket read/write timed out).
pub fn timeout_recorded() {
    TIMEOUTS.fetch_add(1, Ordering::Relaxed);
}

/// Total I/O deadline expiries observed by this process.
pub fn timeouts_total() -> u64 {
    TIMEOUTS.load(Ordering::Relaxed)
}

/// Records the crash-safe log's footprint after a mutation, as
/// `[log_bytes, live_keys, index_bytes, dead_bytes]`: file length, keys
/// with a value, estimated index bytes, bytes a compaction would reclaim.
pub fn store_footprint_recorded(footprint: [u64; 4]) {
    for (i, v) in footprint.into_iter().enumerate() {
        STORE_FOOTPRINT[i].store(v, Ordering::Relaxed);
    }
}

/// The last recorded `[log_bytes, live_keys, index_bytes, dead_bytes]`.
pub fn store_footprint() -> [u64; 4] {
    [0, 1, 2, 3].map(|i| STORE_FOOTPRINT[i].load(Ordering::Relaxed))
}

/// Records one fsync system call issued by the crash-safe log.
pub fn fsync_recorded() {
    FSYNCS.fetch_add(1, Ordering::Relaxed);
}

/// Total fsyncs issued by this process.
pub fn fsyncs_total() -> u64 {
    FSYNCS.load(Ordering::Relaxed)
}

/// Records one level-0 record of `bytes` bytes read back into a stream's
/// integrity ledger by a proof request's catch-up.
pub fn ledger_leaf_loaded(bytes: usize) {
    LEDGER_LEAVES.fetch_add(1, Ordering::Relaxed);
    LEDGER_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Total ledger leaves loaded by this process: what proofs have cost in
/// index reads. It stays flat under ingest and plain queries.
pub fn ledger_leaves_loaded_total() -> u64 {
    LEDGER_LEAVES.load(Ordering::Relaxed)
}

/// Total bytes of the level-0 records behind
/// [`ledger_leaves_loaded_total`]: what proofs have cost in store reads
/// and hashing.
pub fn ledger_bytes_loaded_total() -> u64 {
    LEDGER_BYTES.load(Ordering::Relaxed)
}

/// Records one commit of the crash-safe log: a write batch, a single put
/// or delete being a batch of one.
pub fn store_batch_recorded() {
    BATCHES.fetch_add(1, Ordering::Relaxed);
}

/// Total log commits by this process; `fsyncs_total / store_batches_total`
/// is the fsyncs a commit costs under group commit.
pub fn store_batches_total() -> u64 {
    BATCHES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let t0 = timeouts_total();
        let f0 = fsyncs_total();
        let b0 = store_batches_total();
        let (l0, lb0) = (ledger_leaves_loaded_total(), ledger_bytes_loaded_total());
        store_batch_recorded();
        ledger_leaf_loaded(95);
        assert!(store_batches_total() > b0);
        assert!(ledger_leaves_loaded_total() > l0);
        assert!(ledger_bytes_loaded_total() >= lb0 + 95);
        timeout_recorded();
        fsync_recorded();
        fsync_recorded();
        assert!(timeouts_total() > t0);
        assert!(fsyncs_total() >= f0 + 2);
    }
}
