//! Quickstart: the complete TimeCrypt flow in one file.
//!
//! A data owner creates an encrypted stream, a producer device uploads
//! sensor data, and a consumer (granted access to a time window) runs
//! statistical queries the server computes entirely over ciphertext.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;

fn main() {
    // ── Server side (untrusted): engine over a KV store ────────────────
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut transport = InProc::new(server.clone());

    // ── Data owner: create the stream and hold the master key ──────────
    // Heart-rate stream: epoch t0 = 0 ms, Δ = 10 s chunks.
    let cfg = StreamConfig::new(0xCAFE, "heart_rate", 0, 10_000);
    let mut owner = DataOwner::with_height(
        cfg.clone(),
        SecureRandom::from_entropy().seed128(),
        30, // one billion keys, the paper's setting
        SecureRandom::from_entropy(),
    );
    owner.create_stream(&mut transport).unwrap();

    // ── Producer: a wearable pushing one sample per second ─────────────
    let mut producer = Producer::new(
        cfg.clone(),
        owner.provision_producer(),
        SecureRandom::from_entropy(),
    );
    for sec in 0..600 {
        // 10 minutes of data: a gentle sine around 72 bpm.
        let bpm = 72.0 + 8.0 * (sec as f64 / 60.0).sin();
        producer
            .push(&mut transport, DataPoint::new(sec * 1000, bpm as i64))
            .unwrap();
    }
    producer.flush(&mut transport).unwrap();
    println!(
        "producer uploaded {} encrypted chunks",
        producer.chunks_sent()
    );

    // ── Consumer: a doctor granted the first 5 minutes only ────────────
    let mut rng = SecureRandom::from_entropy();
    let mut doctor = Consumer::new("dr-alice", &mut rng);
    owner
        .grant_access(&mut transport, "dr-alice", doctor.public_key(), 0, 300_000)
        .unwrap();
    doctor.sync_grants(&mut transport, cfg.id).unwrap();

    // Statistical query over the first 5 minutes — the server sums HEAC
    // ciphertexts; only the doctor can decrypt the result.
    let summary = doctor
        .stat_query(&mut transport, cfg.id, 0, 300_000)
        .unwrap();
    println!(
        "first 5 min:  count={}  mean={:.1} bpm  stddev={:.2}",
        summary.count.unwrap(),
        summary.mean().unwrap(),
        summary.stddev().unwrap(),
    );

    // Raw data access within the grant.
    let points = doctor.get_range(&mut transport, cfg.id, 0, 30_000).unwrap();
    println!("raw retrieval: {} points from the first 30 s", points.len());

    // Outside the granted window the decryption key simply does not exist:
    // the full 10 minutes of data needs a boundary key past the grant.
    let out_of_scope = doctor.stat_query(&mut transport, cfg.id, 0, 600_000);
    println!("query past the grant: {}", out_of_scope.unwrap_err());
}
