//! mHealth sharing: the paper's §1/§4.4 running scenario.
//!
//! Alice's wearable streams her heart rate. She shares it at *different
//! granularities* with different principals:
//!
//! * her **doctor** gets per-minute aggregates (6× the 10 s chunk interval)
//!   for the whole month,
//! * her **trainer** gets full-resolution access but *only during the
//!   workout hour*,
//! * her **insurer** gets hourly aggregates.
//!
//! Each restriction is enforced by key material, not server policy — the
//! server only ever sees ciphertext.
//!
//! ```sh
//! cargo run --example mhealth_sharing
//! ```

use std::sync::Arc;
use timecrypt::chunk::{DataPoint, StreamConfig};
use timecrypt::client::{Consumer, DataOwner, InProc, Producer};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;

const MIN: i64 = 60_000;
const HOUR: i64 = 60 * MIN;

fn main() {
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut t = InProc::new(server.clone());

    // Alice's heart-rate stream: Δ = 10 s.
    let cfg = StreamConfig::new(0xA11CE, "heart_rate", 0, 10_000);
    let mut alice = DataOwner::with_height(
        cfg.clone(),
        SecureRandom::from_entropy().seed128(),
        24,
        SecureRandom::from_entropy(),
    );
    alice.create_stream(&mut t).unwrap();

    // Simulate 3 hours of wearable data at 1 Hz. The workout is hour 2,
    // where the heart rate climbs.
    let mut producer = Producer::new(
        cfg.clone(),
        alice.provision_producer(),
        SecureRandom::from_entropy(),
    );
    for sec in 0..(3 * 3600) {
        let ts = sec * 1000;
        let hour = ts / HOUR;
        let bpm = match hour {
            1 => 120 + (sec % 40) - 20, // workout
            _ => 70 + (sec % 10) - 5,   // rest
        };
        producer.push(&mut t, DataPoint::new(ts, bpm)).unwrap();
    }
    producer.flush(&mut t).unwrap();

    let mut rng = SecureRandom::from_entropy();

    // ── Doctor: per-minute resolution (6 chunks), all three hours ──────
    let mut doctor = Consumer::new("doctor", &mut rng);
    alice
        .grant_resolution_access(&mut t, "doctor", doctor.public_key(), 0, 3 * HOUR, 6)
        .unwrap();
    doctor.sync_grants(&mut t, cfg.id).unwrap();
    let s = doctor.stat_query(&mut t, cfg.id, 0, MIN).unwrap();
    println!("doctor, minute 0 mean: {:.1} bpm", s.mean().unwrap());
    let s = doctor.stat_query(&mut t, cfg.id, HOUR, HOUR + MIN).unwrap();
    println!(
        "doctor, first workout minute mean: {:.1} bpm",
        s.mean().unwrap()
    );
    // But a single 10 s chunk is *cryptographically* out of reach:
    let denied = doctor.stat_query(&mut t, cfg.id, 0, 10_000);
    println!("doctor at 10 s granularity: {}", denied.unwrap_err());

    // ── Trainer: full resolution, workout hour only ─────────────────────
    let mut trainer = Consumer::new("trainer", &mut rng);
    alice
        .grant_access(&mut t, "trainer", trainer.public_key(), HOUR, 2 * HOUR)
        .unwrap();
    trainer.sync_grants(&mut t, cfg.id).unwrap();
    let s = trainer
        .stat_query(&mut t, cfg.id, HOUR, HOUR + 10_000)
        .unwrap();
    println!(
        "trainer, one 10 s chunk in the workout: mean {:.1} bpm",
        s.mean().unwrap()
    );
    let denied = trainer.stat_query(&mut t, cfg.id, 0, MIN);
    println!("trainer outside the workout hour: {}", denied.unwrap_err());

    // ── Insurer: hourly aggregates only (360 chunks) ────────────────────
    let mut insurer = Consumer::new("insurer", &mut rng);
    alice
        .grant_resolution_access(&mut t, "insurer", insurer.public_key(), 0, 3 * HOUR, 360)
        .unwrap();
    insurer.sync_grants(&mut t, cfg.id).unwrap();
    for h in 0..3 {
        let s = insurer
            .stat_query(&mut t, cfg.id, h * HOUR, (h + 1) * HOUR)
            .unwrap();
        println!("insurer, hour {h} mean: {:.1} bpm", s.mean().unwrap());
    }
    let denied = insurer.stat_query(&mut t, cfg.id, 0, MIN);
    println!("insurer at minute granularity: {}", denied.unwrap_err());

    // ── Revocation: Alice drops the trainer ─────────────────────────────
    alice.revoke(&mut t, "trainer").unwrap();
    let mut trainer_later = Consumer::new("trainer", &mut rng);
    let got = trainer_later.sync_grants(&mut t, cfg.id).unwrap();
    println!("trainer grants after revocation: {got}");
}
