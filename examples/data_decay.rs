//! Data decay and retention (§4.5, Table 1 (3) and (7)).
//!
//! "As time series data ages, it is often aggregated into lower resolutions
//! for long-term retention." This example walks a retention policy over an
//! encrypted stream:
//!
//! 1. `DeleteRange` drops aged raw chunk payloads **while keeping their
//!    digests** — statistical history survives raw-data deletion,
//! 2. `Rollup` ages out fine index levels for old data — coarse
//!    statistics stay queryable,
//! 3. fresh data remains fully readable at raw resolution.
//!
//! The server performs all of this on ciphertext: it never learns what it
//! is decaying.
//!
//! ```sh
//! cargo run --example data_decay
//! ```

use std::sync::Arc;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProcess, Producer};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;

fn main() {
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut t = InProcess::new(server.clone());

    // A week of power-meter readings, Δ = 60 s, one reading per 10 s.
    let cfg = StreamConfig::new(0xDECA, "power_w", 0, 60_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        SecureRandom::from_entropy().seed128(),
        30,
        SecureRandom::from_entropy(),
    );
    owner.create_stream(&mut t).unwrap();
    let mut meter = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_entropy(),
    );
    let week_ms = 7 * 24 * 3_600_000i64;
    for ts in (0..week_ms).step_by(10_000) {
        let watts = 200 + ((ts / 3_600_000) % 24 - 12).abs() * 30; // daily curve
        meter.push(&mut t, DataPoint::new(ts, watts)).unwrap();
    }
    meter.flush(&mut t).unwrap();
    println!(
        "ingested one week: {} encrypted chunks",
        meter.chunks_sent()
    );

    let mut rng = SecureRandom::from_entropy();
    let mut dashboard = Consumer::new("dashboard", &mut rng);
    owner
        .grant_access(&mut t, "dashboard", dashboard.public_key(), 0, week_ms)
        .unwrap();
    dashboard.sync_grants(&mut t, cfg.id).unwrap();

    let day1_stats = dashboard
        .stat_query(&mut t, cfg.id, 0, 24 * 3_600_000)
        .unwrap();
    let day1_raw = dashboard.get_range(&mut t, cfg.id, 0, 3_600_000).unwrap();
    println!(
        "before decay:  day-1 mean = {:.1} W, first-hour raw points = {}",
        day1_stats.mean().unwrap(),
        day1_raw.len()
    );

    // ── Retention policy: raw data older than 2 days is deleted ─────────
    let cutoff = 2 * 24 * 3_600_000i64;
    let before = kv_bytes(&server);
    owner.delete_range(&mut t, 0, week_ms - cutoff).unwrap();
    // …and the index decays to coarse levels for the same period.
    owner.rollup(&mut t, week_ms - cutoff, 1).unwrap();
    let after = kv_bytes(&server);
    println!(
        "decay applied: store shrank {:.1} MB -> {:.1} MB",
        before as f64 / 1e6,
        after as f64 / 1e6
    );

    // Statistics over the decayed period are intact (digests were kept)…
    let s = dashboard
        .stat_query(&mut t, cfg.id, 0, 24 * 3_600_000)
        .unwrap();
    println!(
        "after decay:   day-1 mean = {:.1} W (statistical history preserved)",
        s.mean().unwrap()
    );
    // …raw reads of the decayed period return nothing…
    let old_raw = dashboard.get_range(&mut t, cfg.id, 0, 3_600_000).unwrap();
    println!(
        "after decay:   first-hour raw points = {} (aged out)",
        old_raw.len()
    );
    // …and fresh data is still fully readable.
    let fresh = dashboard
        .get_range(&mut t, cfg.id, week_ms - 3_600_000, week_ms)
        .unwrap();
    println!("fresh data:    last-hour raw points = {}", fresh.len());
}

/// Rough store footprint: sum of key+value lengths.
fn kv_bytes(server: &TimeCryptServer) -> usize {
    server
        .kv()
        .scan_prefix(b"")
        .unwrap()
        .iter()
        .map(|(k, v)| k.len() + v.len())
        .sum()
}
