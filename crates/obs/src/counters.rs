//! Counters, gauges, and the table of this process's metric families.
//!
//! A statistic is a [`Counter`] (a [`Gauge`] when it is set or moves both
//! ways): one relaxed atomic whose API takes no `Ordering`, bumped through
//! a field or a `static`, never looked up by name. The statistics that cut
//! across crate boundaries are `static`s declared by the [`PROCESS`] table,
//! which the `/metrics` page renders its process scope from: one row is the
//! handle, the family name, its kind and its help, so the store and wire
//! crates bump a handle without a metrics registry dependency and nothing
//! else spells the name. They are per process, like uptime and RSS: a node
//! reports its own fsyncs, a coordinator its own timeouts.

use crate::prom::{Family, Kind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A statistic: a count of events, or a current value.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

/// A [`Counter`] that is [`set`](Counter::set), or moves both ways.
pub type Gauge = Counter;

impl Counter {
    /// A statistic at zero.
    pub const fn new() -> Self {
        Counter {
            cell: AtomicU64::new(0),
        }
    }

    /// Counts one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events, or raises the value by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the value by `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites the value (`true` is 1).
    #[inline]
    pub fn set(&self, v: impl Into<u64>) {
        self.cell.store(v.into(), Ordering::Relaxed);
    }

    /// The count so far, or the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Declares the process scope of `/metrics`, in page order: first the
/// families a function computes at scrape time, then the ones a `static`
/// handle counts. A handle's type is its family's kind and its help is its
/// documentation, with what the declaration adds.
macro_rules! process_families {
    (
        $( fn $read:ident = $fkind:ident $fname:literal $fhelp:literal; )*
        $( $(#[$doc:meta])* static $handle:ident: $kind:ident = $name:literal $help:literal; )*
    ) => {
        $( #[doc = $help] $(#[$doc])* pub static $handle: $kind = $kind::new(); )*

        /// Every process-scope family with the function that reads its
        /// current value.
        pub static PROCESS: &[(Family, fn() -> f64)] = &[
            $( (Family { name: $fname, help: $fhelp, kind: Kind::$fkind }, $read), )*
            $( (Family { name: $name, help: $help, kind: Kind::$kind }, || $handle.get() as f64), )*
        ];
    };
}

process_families! {
    fn uptime_seconds = Gauge "timecrypt_uptime_seconds"
        "Seconds since the exposition layer first rendered.";
    fn resident_bytes = Gauge "timecrypt_resident_memory_bytes"
        "Resident set size (0 where /proc is unavailable).";
    static DROPPED_EVENTS: Counter = "timecrypt_obs_dropped_events_total"
        "Flight-recorder events dropped under contention.";
    /// The wire layer gave up on a peer: feeds the strike → promotion
    /// machinery.
    static TIMEOUTS: Counter = "timecrypt_timeouts_total"
        "I/O deadlines expired (socket timeouts and query-budget hits).";
    /// A mutation's cost beside a read's: reads are never probed.
    static POOL_PROBES: Counter = "timecrypt_pool_probes_total"
        "Pooled node connections peeked at checkout, before a request that may not be sent \
         again (a mutation) was written to them.";
    static FSYNCS: Counter = "timecrypt_fsyncs_total"
        "fsync/fdatasync calls issued by Fsync-durability stores.";
    static STORE_BATCHES: Counter = "timecrypt_store_batches_total"
        "Log store commits (write batches; a lone put or delete is a batch of one). \
         fsyncs over batches is the fsyncs a commit costs.";
    /// Who pays for proofs, and whether a plain query ever rebuilt a ledger
    /// (it must not).
    static LEDGER_LEAVES: Counter = "timecrypt_ledger_leaves_loaded_total"
        "Level-0 index records read back into integrity ledgers by proof requests. \
         Flat under ingest and plain queries.";
    static LEDGER_BYTES: Counter = "timecrypt_ledger_bytes_loaded_total"
        "Bytes of the level-0 records (whole chunks) proof requests read back and hashed \
         into integrity ledgers: what proofs cost the store.";
    /// Only a query's store read fills the boundary cache, and only its
    /// second of a sum, so the two say what filling on read costs: a miss
    /// is one store get. (The families keep the names of the index nodes
    /// the cache once held.)
    static INDEX_NODE_CACHE_HITS: Counter = "timecrypt_index_node_cache_hits_total"
        "Lookups of a boundary running sum that queries found in the boundary cache, one \
         per node, shared by its engines under one budget. A sum is admitted by its second \
         store read.";
    static INDEX_NODE_CACHE_MISSES: Counter = "timecrypt_index_node_cache_misses_total"
        "Lookups of a boundary running sum that queries did not find in the boundary cache \
         and read from the store: a sum's first and second reads, and a re-read of one the \
         cache evicted.";
    /// Moved by each admission and eviction of a cache, and by the drop of
    /// a node, which drops its cache.
    static INDEX_BOUNDARY_CACHE_BYTES: Gauge = "timecrypt_index_boundary_cache_bytes"
        "Heap bytes charged to the process's boundary caches, one per node, summed: cached \
         running sums, a bit per chunk read, the ghosts of evicted blocks, and the stripes \
         and tables that find them, each stripe within its target.";
    /// Moved by a stripe's first read and by each read of a sum the stripe
    /// evicted, and by the drop of a node, which drops its cache.
    static INDEX_BOUNDARY_CACHE_TARGET_BYTES: Gauge = "timecrypt_index_boundary_cache_target_bytes"
        "Bytes the process's boundary caches may be charged before CLOCK evicts, summed over \
         their stripes: each stripe's target starts at a floor and grows, up to its share of \
         its node's budget, by a sum's bytes whenever a query reads again from the store a \
         sum the stripe evicted.";
    /// Dead over log bytes is the share of the files a compaction would
    /// reclaim. The five store gauges sum over the logs the process has
    /// open — a node's one `LogKv`, and every in-memory `MemKv` beside it —
    /// and a log withdraws its share when it is dropped.
    static STORE_LOG_BYTES: Gauge = "timecrypt_store_log_bytes"
        "Length of the process's open store logs, buffered appends included, summed.";
    static STORE_LIVE_KEYS: Gauge = "timecrypt_store_live_keys"
        "Keys with a live value in the process's open store logs, summed.";
    static STORE_INDEX_BYTES: Gauge = "timecrypt_store_index_bytes"
        "Resident bytes of the open store logs' indexes, summed: a run of counting keys \
         its block-coded locations (about 2 to 4 B per key) + constant, any other key \
         its bytes + constant.";
    static STORE_DEAD_BYTES: Gauge = "timecrypt_store_dead_bytes"
        "Bytes of the open store logs held by superseded, deleted and delete records, summed.";
    static STORE_READ_ONLY: Gauge = "timecrypt_store_read_only"
        "Open store logs that a failed append or sync turned read-only until they are reopened.";
}

static START: OnceLock<Instant> = OnceLock::new();

/// The instant `timecrypt_uptime_seconds` counts from, latched by the first
/// call: a `/metrics` listener calls it when it binds, a caller that only
/// renders pages latches it at its first render.
pub fn process_start() -> Instant {
    *START.get_or_init(Instant::now)
}

fn uptime_seconds() -> f64 {
    process_start().elapsed().as_secs_f64()
}

/// Resident set size in bytes, from the `VmRSS` line (kB) of
/// `/proc/self/status`; 0 where that interface is unavailable.
fn resident_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|line| {
        let kb = line.strip_prefix("VmRSS:")?.trim().strip_suffix("kB")?;
        kb.trim().parse::<u64>().ok()
    });
    (kb.unwrap_or(0) * 1024) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_sum_exactly() {
        let (counter, gauge) = (Counter::new(), Gauge::new());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        counter.inc();
                        gauge.add(3);
                        gauge.sub(2);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 40_000);
        assert_eq!(gauge.get(), 40_000);
        gauge.set(true);
        assert_eq!(gauge.get(), 1);
    }

    #[test]
    fn a_static_handle_and_its_table_row_are_one_counter() {
        let row = |name: &str| {
            let (_, read) = PROCESS.iter().find(|(f, _)| f.name == name).unwrap();
            read()
        };
        let before = row("timecrypt_fsyncs_total");
        FSYNCS.add(2);
        assert!(row("timecrypt_fsyncs_total") >= before + 2.0);
        STORE_LIVE_KEYS.set(7u64);
        assert_eq!(row("timecrypt_store_live_keys"), 7.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn resident_memory_is_whole_kilobytes() {
        let rss = resident_bytes() as u64;
        assert!(rss > 0);
        assert_eq!(rss % 1024, 0);
    }
}
