//! Prometheus exposition over service metrics snapshots.
//!
//! Renders a [`ServiceStatsWire`] snapshot — the same structure served
//! over the wire by `Request::Stats` — as Prometheus text format 0.0.4,
//! and wires it to the observability crate's minimal HTTP listener so
//! both the coordinator and `timecrypt-node` can expose a `/metrics`
//! endpoint with one call. Latency quantiles (p50/p95/p99) are derived
//! from the log₂ latency histograms the shards already maintain; no new
//! per-request accounting is introduced by scraping.

use std::sync::{Arc, OnceLock};
use std::time::Instant;
use timecrypt_obs::prom::{p50_p95_p99, PromText};
use timecrypt_obs::HttpServer;
use timecrypt_wire::messages::ServiceStatsWire;

/// Process start, latched on first use so `timecrypt_uptime_seconds`
/// measures from the first render rather than requiring explicit init.
static START: OnceLock<Instant> = OnceLock::new();

/// Resident set size in bytes from `/proc/self/statm`, or 0 where that
/// interface is unavailable. Pages are assumed 4 KiB (the Linux
/// default); exact page size is not worth a libc dependency here.
fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<u64>().ok())
        })
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// Emits one per-shard counter family: header once, one sample per
/// shard, values picked by `pick`.
fn shard_counter(
    page: &mut PromText,
    stats: &ServiceStatsWire,
    name: &str,
    help: &str,
    kind: &str,
    pick: impl Fn(&timecrypt_wire::messages::ShardStatsWire) -> f64,
) {
    page.header(name, help, kind);
    for shard in &stats.shards {
        let label = shard.shard.to_string();
        page.sample(name, &[("shard", &label)], pick(shard));
    }
}

/// Emits one latency summary family (`quantile` label convention) from
/// per-shard log₂ histograms, in seconds: one series per shard plus an
/// aggregate over all shards labeled `shard="all"`.
fn latency_summary(
    page: &mut PromText,
    stats: &ServiceStatsWire,
    name: &str,
    help: &str,
    pick: impl Fn(&timecrypt_wire::messages::ShardStatsWire) -> &Vec<u64>,
) {
    page.header(name, help, "summary");
    let mut total: Vec<u64> = Vec::new();
    for shard in &stats.shards {
        let hist = pick(shard);
        if hist.len() > total.len() {
            total.resize(hist.len(), 0);
        }
        for (t, &c) in total.iter_mut().zip(hist.iter()) {
            *t += c;
        }
        let label = shard.shard.to_string();
        let [p50, p95, p99] = p50_p95_p99(hist);
        for (q, us) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            page.sample(name, &[("shard", &label), ("quantile", q)], us / 1e6);
        }
    }
    let [p50, p95, p99] = p50_p95_p99(&total);
    for (q, us) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
        page.sample(name, &[("shard", "all"), ("quantile", q)], us / 1e6);
    }
}

/// Renders one stats snapshot as a Prometheus text-format page,
/// including process gauges (uptime, resident memory) and the flight
/// recorder's dropped-event counter. Metric names are part of the
/// scrape interface — CI greps for them — so treat them as stable.
pub fn render_stats(stats: &ServiceStatsWire) -> String {
    let start = *START.get_or_init(Instant::now);
    let mut page = PromText::new();

    shard_counter(
        &mut page,
        stats,
        "timecrypt_shard_streams",
        "Streams owned by each shard.",
        "gauge",
        |s| s.streams as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_ingested_chunks_total",
        "Chunks ingested since service start.",
        "counter",
        |s| s.ingested_chunks as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_ingest_errors_total",
        "Ingest attempts rejected by the engine.",
        "counter",
        |s| s.ingest_errors as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_queries_total",
        "Statistical sub-queries served.",
        "counter",
        |s| s.queries as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_query_errors_total",
        "Sub-queries that returned an error.",
        "counter",
        |s| s.query_errors as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_ingest_queue_depth",
        "Jobs waiting in each shard's ingest queue.",
        "gauge",
        |s| s.queue_depth as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_failovers_total",
        "Reads served by the backup after a primary failure.",
        "counter",
        |s| s.failovers as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_replica_errors_total",
        "Backup operations that failed or diverged from the primary.",
        "counter",
        |s| s.replica_errors as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_promotions_total",
        "Backups promoted to primary.",
        "counter",
        |s| s.promotions as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_rebuilds_total",
        "Replica rebuilds completed.",
        "counter",
        |s| s.rebuilds as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_replica_in_sync",
        "1 if an in-sync backup replica is attached.",
        "gauge",
        |s| if s.in_sync { 1.0 } else { 0.0 },
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_resident_streams",
        "Streams currently hydrated into RAM on each shard.",
        "gauge",
        |s| s.resident_streams as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_hydrations_total",
        "Cold-touch stream hydrations since the engine opened.",
        "counter",
        |s| s.hydrations as f64,
    );
    shard_counter(
        &mut page,
        stats,
        "timecrypt_evictions_total",
        "Resident streams evicted since the engine opened.",
        "counter",
        |s| s.evictions as f64,
    );

    latency_summary(
        &mut page,
        stats,
        "timecrypt_ingest_latency_seconds",
        "Per-chunk ingest latency quantiles.",
        |s| &s.ingest_hist_us,
    );
    latency_summary(
        &mut page,
        stats,
        "timecrypt_query_latency_seconds",
        "Per-sub-query latency quantiles.",
        |s| &s.query_hist_us,
    );

    page.header(
        "timecrypt_store_ops_total",
        "KV operations observed by the metered store.",
        "counter",
    );
    for (op, v) in [
        ("get", stats.store_gets),
        ("put", stats.store_puts),
        ("delete", stats.store_deletes),
        ("scan", stats.store_scans),
    ] {
        page.sample("timecrypt_store_ops_total", &[("op", op)], v as f64);
    }
    page.header(
        "timecrypt_store_bytes_total",
        "Bytes moved through the metered store.",
        "counter",
    );
    for (dir, v) in [
        ("read", stats.store_bytes_read),
        ("written", stats.store_bytes_written),
    ] {
        page.sample("timecrypt_store_bytes_total", &[("dir", dir)], v as f64);
    }

    page.header(
        "timecrypt_uptime_seconds",
        "Seconds since the exposition layer first rendered.",
        "gauge",
    );
    page.sample(
        "timecrypt_uptime_seconds",
        &[],
        start.elapsed().as_secs_f64(),
    );
    page.header(
        "timecrypt_resident_memory_bytes",
        "Resident set size (0 where /proc is unavailable).",
        "gauge",
    );
    page.sample(
        "timecrypt_resident_memory_bytes",
        &[],
        resident_bytes() as f64,
    );
    page.header(
        "timecrypt_obs_dropped_events_total",
        "Flight-recorder events dropped under contention.",
        "counter",
    );
    page.sample(
        "timecrypt_obs_dropped_events_total",
        &[],
        timecrypt_obs::log::dropped_events() as f64,
    );
    // Process-local robustness counters (like uptime/rss, these describe
    // this process, not the cluster — each node exposes its own).
    page.header(
        "timecrypt_timeouts_total",
        "I/O deadlines expired (socket timeouts and query-budget hits).",
        "counter",
    );
    page.sample(
        "timecrypt_timeouts_total",
        &[],
        timecrypt_obs::counters::timeouts_total() as f64,
    );
    page.header(
        "timecrypt_fsyncs_total",
        "fsync/fdatasync calls issued by Fsync-durability stores.",
        "counter",
    );
    page.sample(
        "timecrypt_fsyncs_total",
        &[],
        timecrypt_obs::counters::fsyncs_total() as f64,
    );
    page.header(
        "timecrypt_store_batches_total",
        "Log store commits (write batches; a lone put or delete is a batch of one). \
         fsyncs over batches is the fsyncs a commit costs.",
        "counter",
    );
    page.sample(
        "timecrypt_store_batches_total",
        &[],
        timecrypt_obs::counters::store_batches_total() as f64,
    );
    page.header(
        "timecrypt_ledger_leaves_loaded_total",
        "Level-0 index records read back into integrity ledgers by proof requests. \
         Flat under ingest and plain queries.",
        "counter",
    );
    page.sample(
        "timecrypt_ledger_leaves_loaded_total",
        &[],
        timecrypt_obs::counters::ledger_leaves_loaded_total() as f64,
    );
    page.header(
        "timecrypt_ledger_bytes_loaded_total",
        "Bytes of the level-0 records (whole chunks) proof requests read back and hashed \
         into integrity ledgers: what proofs cost the store.",
        "counter",
    );
    page.sample(
        "timecrypt_ledger_bytes_loaded_total",
        &[],
        timecrypt_obs::counters::ledger_bytes_loaded_total() as f64,
    );
    // The log store's footprint; dead / log bytes is the share of the file
    // a compaction would reclaim. All zero in a process without a `LogKv`.
    let footprint = timecrypt_obs::counters::store_footprint();
    for ((name, help), v) in [
        (
            "timecrypt_store_log_bytes",
            "Length of the store's log file, buffered appends included.",
        ),
        (
            "timecrypt_store_live_keys",
            "Keys with a live value in the log store.",
        ),
        (
            "timecrypt_store_index_bytes",
            "Resident bytes of the log store's index: 12 per slot of a run, key + constant otherwise.",
        ),
        (
            "timecrypt_store_dead_bytes",
            "Log bytes held by superseded, deleted and delete records.",
        ),
    ]
    .into_iter()
    .zip(footprint)
    {
        page.header(name, help, "gauge");
        page.sample(name, &[], v as f64);
    }

    page.finish()
}

/// Binds `addr` (port 0 for ephemeral) and serves `/metrics` rendered
/// from `stats()` on every scrape (plus the flight recorder on
/// `/events`). `stats` is invoked per scrape on the listener's handler
/// thread — pass the service's `stats()` snapshot, which is cheap and
/// lock-light. The listener stops when the returned server is dropped.
pub fn serve_stats<F>(addr: &str, stats: F) -> std::io::Result<HttpServer>
where
    F: Fn() -> ServiceStatsWire + Send + Sync + 'static,
{
    HttpServer::bind(addr, Arc::new(move || render_stats(&stats())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_wire::messages::ShardStatsWire;

    fn sample_stats() -> ServiceStatsWire {
        let mut hist = vec![0u64; 8];
        hist[4] = 10; // [8, 16) µs
        ServiceStatsWire {
            shards: vec![ShardStatsWire {
                shard: 0,
                streams: 3,
                ingested_chunks: 100,
                ingest_errors: 1,
                queries: 50,
                query_errors: 0,
                queue_depth: 2,
                failovers: 0,
                replica_errors: 0,
                promotions: 0,
                rebuilds: 0,
                rebuild_chunks_copied: 0,
                in_sync: true,
                ingest_hist_us: hist.clone(),
                query_hist_us: hist,
                resident_streams: 2,
                hydrations: 5,
                evictions: 3,
            }],
            store_gets: 7,
            store_puts: 8,
            store_deletes: 0,
            store_scans: 1,
            store_bytes_read: 4096,
            store_bytes_written: 8192,
        }
    }

    #[test]
    fn renders_expected_families() {
        let text = render_stats(&sample_stats());
        for name in [
            "timecrypt_shard_streams",
            "timecrypt_ingested_chunks_total",
            "timecrypt_queries_total",
            "timecrypt_resident_streams",
            "timecrypt_hydrations_total",
            "timecrypt_evictions_total",
            "timecrypt_ingest_latency_seconds",
            "timecrypt_query_latency_seconds",
            "timecrypt_store_ops_total",
            "timecrypt_store_bytes_total",
            "timecrypt_uptime_seconds",
            "timecrypt_resident_memory_bytes",
            "timecrypt_obs_dropped_events_total",
            "timecrypt_timeouts_total",
            "timecrypt_fsyncs_total",
            "timecrypt_store_batches_total",
            "timecrypt_ledger_leaves_loaded_total",
            "timecrypt_ledger_bytes_loaded_total",
            "timecrypt_store_log_bytes",
            "timecrypt_store_live_keys",
            "timecrypt_store_index_bytes",
            "timecrypt_store_dead_bytes",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name}")),
                "missing family {name} in:\n{text}"
            );
        }
        assert!(text.contains("timecrypt_store_ops_total{op=\"put\"} 8"));
        assert!(text.contains("timecrypt_store_bytes_total{dir=\"read\"} 4096"));
        assert!(text.contains("quantile=\"0.95\""));
        assert!(text.contains("shard=\"all\""));
    }

    #[test]
    fn well_formed_exposition_lines() {
        // Every non-comment line is `name{labels} value` with a finite
        // numeric value — the shape a Prometheus scraper requires.
        let text = render_stats(&sample_stats());
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                series.starts_with("timecrypt_"),
                "unexpected metric name: {line}"
            );
            let v: f64 = value.parse().expect("value parses as f64");
            assert!(v.is_finite(), "non-finite value in: {line}");
        }
    }

    #[test]
    fn scrape_roundtrip_over_http() {
        use std::io::{Read, Write};
        let server = serve_stats("127.0.0.1:0", sample_stats).unwrap();
        let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 200 OK"));
        assert!(reply.contains("timecrypt_store_ops_total{op=\"get\"} 7"));
    }
}
