//! Pins the `/metrics` page: a fixed snapshot rendered by
//! `timecrypt::service::render_stats` must equal `tests/golden/metrics.txt`
//! line for line — every `# HELP` / `# TYPE` line and every sample. The
//! process-scope samples (the ones without labels: uptime, RSS, this
//! process's counters) keep their names and lose their values, which no
//! fixed input decides. The golden file is the one list of family names
//! outside the metric tables; CI's scrape smoke reads it too.
//!
//! After adding or changing a family, regenerate it:
//! `cargo test --test metrics_exposition -- --ignored bless`.

use timecrypt::service::render_stats;
use timecrypt::wire::messages::{ServiceStatsWire, ShardStatsWire};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.txt");

/// Two shards, every field a different non-zero value where it can be.
fn snapshot() -> ServiceStatsWire {
    let shard = |shard: u32, k: u64| ShardStatsWire {
        shard,
        streams: 3 * k,
        ingested_chunks: 100 * k,
        ingest_errors: k,
        queries: 50 * k,
        query_errors: 2 * k,
        queue_depth: 4 * k,
        failovers: 5 * k,
        replica_errors: 6 * k,
        promotions: 7 * k,
        rebuilds: 8 * k,
        rebuild_chunks_copied: 9 * k,
        in_sync: shard == 0,
        // Shard 0: 90 ingests in [16, 32) µs and 10 in [256, 512) µs; shard 3
        // one bucket slower, so the `shard="all"` series differs from both.
        ingest_hist_us: [vec![0; 4 + k as usize], vec![90, 0, 0, 0, 10 * k]].concat(),
        query_hist_us: [vec![0; 6 + k as usize], vec![40, 0, 0, 0, 0, 2 * k]].concat(),
        resident_streams: 2 * k,
        hydrations: 11 * k,
        evictions: 12 * k,
    };
    ServiceStatsWire {
        shards: vec![shard(0, 1), shard(3, 2)],
        store_gets: 7,
        store_puts: 8,
        store_deletes: 9,
        store_scans: 10,
        store_bytes_read: 4096,
        store_bytes_written: 8192,
    }
}

/// The rendered page with the value of every unlabelled sample masked.
fn masked_page() -> String {
    let page = render_stats(&snapshot());
    let mask = |line: &str| match line.split_once(' ') {
        Some((name, _)) if !line.starts_with('#') && !name.contains('{') => format!("{name} *\n"),
        _ => format!("{line}\n"),
    };
    page.lines().map(mask).collect()
}

#[test]
fn page_matches_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/metrics.txt is committed");
    let page = masked_page();
    for (i, (got, want)) in page.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of the page differs from the golden file",
            i + 1
        );
    }
    assert_eq!(
        page.lines().count(),
        golden.lines().count(),
        "page and golden file differ in length"
    );
}

#[test]
fn family_names_are_unique_and_well_formed() {
    let page = masked_page();
    let mut seen = std::collections::HashSet::new();
    for line in page.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let (name, kind) = line.split_once(' ').expect("`# TYPE name kind`");
        assert!(seen.insert(name), "family {name} is declared twice");
        let tail = name
            .strip_prefix("timecrypt_")
            .unwrap_or_else(|| panic!("{name}: no prefix"));
        let legal = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        assert!(
            !tail.is_empty() && tail.chars().all(legal),
            "{name}: illegal character"
        );
        assert!(
            ["counter", "gauge", "summary"].contains(&kind),
            "{name}: kind {kind}"
        );
        assert_eq!(
            kind == "counter",
            name.ends_with("_total"),
            "{name}: `_total` is for counters"
        );
    }
    assert!(seen.len() >= 30, "only {} families rendered", seen.len());
}

#[test]
#[ignore = "rewrites tests/golden/metrics.txt; run it after adding or changing a family"]
fn bless() {
    std::fs::write(GOLDEN, masked_page()).expect("write the golden file");
}
