//! Prometheus exposition over service metrics snapshots.
//!
//! Renders a [`ServiceStatsWire`] snapshot — the same structure served
//! over the wire by `Request::Stats` — as Prometheus text format 0.0.4,
//! and wires it to the observability crate's minimal HTTP listener so
//! both the coordinator and `timecrypt-node` can expose a `/metrics`
//! endpoint with one call. No family is named here: the page is a loop
//! over the rows the snapshot's fields declare
//! (`ShardStatsWire::ROWS`, `ServiceStatsWire::ROWS`) and over this
//! process's table (`timecrypt_obs::counters::PROCESS`), so a metric
//! added to either is on the page. Latency quantiles (p50/p95/p99) are
//! derived from the log₂ latency histograms the shards already maintain;
//! no new per-request accounting is introduced by scraping.

use std::sync::Arc;
use timecrypt_obs::counters::{process_start, PROCESS};
use timecrypt_obs::prom::{quantile_log2, Kind, PromText, QUANTILES};
use timecrypt_obs::HttpServer;
use timecrypt_wire::messages::{ServiceStatsWire, ShardStatsWire, StatValue};

/// Emits one field's samples: a number is one sample, a histogram its
/// three quantiles in seconds (`quantile` label convention).
fn samples(page: &mut PromText, name: &str, labels: &[(&str, &str)], value: StatValue<'_>) {
    match value {
        StatValue::Num(v) => page.sample(name, labels, v),
        StatValue::Hist(hist) => {
            for (quantile, q) in QUANTILES {
                let labels = [labels, &[("quantile", quantile)]].concat();
                page.sample(name, &labels, quantile_log2(hist, q) / 1e6);
            }
        }
    }
}

/// Renders one stats snapshot as a Prometheus text-format page: the
/// per-shard families (one series per shard; the latency summaries come
/// last and carry an aggregate over all shards labeled `shard="all"`),
/// the store traffic, then this process's own families (uptime, resident
/// memory, the cross-crate counters — each node exposes its own). Metric
/// names are part of the scrape interface, so treat them as stable;
/// `tests/golden/metrics.txt` pins the page.
pub fn render_stats(stats: &ServiceStatsWire) -> String {
    let mut page = PromText::new();

    // Field order, but the latency summaries after every scalar family.
    let rows = ShardStatsWire::ROWS.iter();
    let mut rows: Vec<_> = rows.filter_map(|row| Some((row.family?, row))).collect();
    rows.sort_by_key(|(family, _)| family.kind == Kind::Summary);
    for (family, row) in rows {
        page.header(&family);
        let mut all = ShardStatsWire::default();
        for shard in &stats.shards {
            (row.merge)(&mut all, shard);
            let labels = [("shard", &*shard.shard.to_string())];
            samples(&mut page, family.name, &labels, (row.get)(shard));
        }
        if family.kind == Kind::Summary {
            samples(&mut page, family.name, &[("shard", "all")], (row.get)(&all));
        }
    }

    let mut name = "";
    for row in ServiceStatsWire::ROWS {
        if let Some(family) = &row.family {
            page.header(family);
            name = family.name;
        }
        samples(&mut page, name, row.label, (row.get)(stats));
    }

    for (family, read) in PROCESS {
        page.header(family);
        page.sample(family.name, &[], read());
    }

    page.finish()
}

/// Binds `addr` (port 0 for ephemeral) and serves `/metrics` rendered
/// from `stats()` on every scrape (plus the flight recorder on
/// `/events`). `stats` is invoked per scrape on the listener's handler
/// thread — pass the service's `stats()` snapshot, which is cheap and
/// lock-light. `timecrypt_uptime_seconds` counts from this call (or from
/// the process's first one). The listener stops when the returned server
/// is dropped.
pub fn serve_stats<F>(addr: &str, stats: F) -> std::io::Result<HttpServer>
where
    F: Fn() -> ServiceStatsWire + Send + Sync + 'static,
{
    process_start();
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
    fn scrape_roundtrip_over_http_and_uptime_counts_from_the_bind() {
        use std::io::{Read, Write};
        let server = serve_stats("127.0.0.1:0", sample_stats).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 200 OK"));
        assert!(reply.contains("timecrypt_store_ops_total{op=\"get\"} 7"));
        // The node was up for the 30 ms before its first scrape.
        let uptime = reply
            .lines()
            .find_map(|l| l.strip_prefix("timecrypt_uptime_seconds "));
        assert!(
            uptime.unwrap().parse::<f64>().unwrap() >= 0.03,
            "{uptime:?}"
        );
    }
}
