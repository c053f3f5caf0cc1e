//! Real-time monitoring dashboard (§4.6 client-side batching).
//!
//! Chunking bounds how quickly a reader sees new data: with Δ = 10 s a
//! freshly-measured heart-rate sample is invisible for up to 10 seconds.
//! The paper's fix: "instantly uploading encrypted data records in
//! real-time to the datastore and dropping the encrypted records once the
//! corresponding chunk is stored". This example plays a live dashboard
//! refreshing mid-chunk: the plain chunked read lags, the live-merging read
//! does not — and the server never sees a plaintext value in either path.
//!
//! ```sh
//! cargo run --example realtime_dashboard
//! ```

use std::sync::Arc;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;

fn main() {
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut transport = InProc::new(server.clone());

    // ICU bedside monitor: Δ = 10 s chunks, 1 Hz samples.
    let cfg = StreamConfig::new(0xBED, "spo2", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        SecureRandom::from_entropy().seed128(),
        30,
        SecureRandom::from_entropy(),
    );
    owner.create_stream(&mut transport).unwrap();
    let mut monitor = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_entropy(),
    );

    // The nurse's station dashboard, granted the whole shift.
    let mut rng = SecureRandom::from_entropy();
    let mut dashboard = Consumer::new("nurse-station", &mut rng);
    owner
        .grant_access(
            &mut transport,
            "nurse-station",
            dashboard.public_key(),
            0,
            8 * 3_600_000,
        )
        .unwrap();
    dashboard.sync_grants(&mut transport, cfg.id).unwrap();

    // Simulated timeline: the monitor measures once per second; the
    // dashboard refreshes every 4 s. (Simulated clock — no sleeping.)
    println!("t(s)   chunked view        live view");
    println!("----   ------------        ---------");
    for sec in 0..24i64 {
        let spo2 = 97 - (sec % 5).min(2); // a plausible wobble
        monitor
            .push_live(&mut transport, DataPoint::new(sec * 1000, spo2))
            .unwrap();

        if sec % 4 == 3 {
            let now = (sec + 1) * 1000;
            let chunked = dashboard.get_range(&mut transport, cfg.id, 0, now).unwrap();
            let live = dashboard
                .get_range_live(&mut transport, cfg.id, 0, now)
                .unwrap();
            let last = |pts: &[DataPoint]| {
                pts.last()
                    .map(|p| format!("{} @ {:>2}s", p.value, p.ts / 1000))
                    .unwrap_or_else(|| "—".into())
            };
            println!(
                "{:>3}    {:<7} ({:>2} pts)    {:<7} ({:>2} pts)",
                sec + 1,
                last(&chunked),
                chunked.len(),
                last(&live),
                live.len(),
            );
        }
    }
    println!();
    println!(
        "buffered live records on server: {}",
        server.live_len(cfg.id)
    );
    println!("chunks finalized: {}", monitor.chunks_sent());
    println!();
    println!("The chunked view is empty until the first 10 s chunk closes and");
    println!("then always trails the measurement; the live view tracks every");
    println!("sample the second it is produced — still end-to-end encrypted.");
}
