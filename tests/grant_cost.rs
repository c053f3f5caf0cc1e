//! Deterministic guard for what sharing costs (ROADMAP aim 1: gate the
//! counts that don't jitter), beside `key_derivation_cost.rs` and
//! `index_ram.rs`. A grant is one ECIES seal on the owner's side and one
//! open on the principal's (§3.2, Table 1 (8)); an attestation is one
//! ECDSA signature and one verification (§3.3). All four stand on
//! `pk/p256.rs`, whose field elements are four limbs on the stack: a
//! scalar multiplication allocates for the `BigUint`s at its boundary and
//! for nothing in between — the field operations, point `double` / `add`
//! and the window loop `mul_sum` allocate nothing. So the four counts are
//! pinned where they are: one allocation inside the field arithmetic is
//! thousands per operation, one in `mul_sum` one more than the pin.
//!
//! Before the fixed-limb curve every field add, sub and mul returned a
//! fresh `Vec<u64>`: 67 941 allocations for one seal (two scalar
//! multiplications), 100 930 for a grant and its sync.
//!
//! Counts only. The binary's global allocator (`tests/common`) keeps, per
//! thread, how many times it was asked for memory. The guard prints its
//! "allocations per …" lines and, for the record, the median time of each
//! operation (printed, never asserted); CI copies both to the job summary.

use std::sync::Arc;
use std::time::Instant;
use timecrypt::chunk::StreamConfig;
use timecrypt::client::{Consumer, DataOwner, InProcess};
use timecrypt::crypto::SecureRandom;
use timecrypt::pk::ecies::{self, EciesKeypair};
use timecrypt::pk::SigningKey;
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::MemKv;

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// Runs `op` 21 times: the allocations of the first run after a warm-up
/// (the count repeats exactly) and the median time of the other twenty.
fn measure<R>(what: &str, ceiling: u64, mut op: impl FnMut() -> R) -> R {
    op(); // lazily built state (the curve constants) is not the operation's
    let before = common::calls();
    let mut out = op();
    let allocs = common::calls() - before;
    let mut micros: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            out = op();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    micros.sort_by(f64::total_cmp);
    println!(
        "allocations per {what}: {allocs} (median of 20: {:.0} us)",
        (micros[9] + micros[10]) / 2.0
    );
    assert!(
        allocs <= ceiling,
        "{what}: {allocs} allocations, ceiling {ceiling}"
    );
    out
}

#[test]
fn public_key_operations_allocate_at_their_boundary_only() {
    let mut rng = SecureRandom::from_seed_insecure(23);
    let principal = EciesKeypair::generate(&mut rng);
    let grant = [7u8; 256];
    let blob = measure("ecies::seal of a 256-byte grant", 29, || {
        ecies::seal(&principal.public, &grant, &mut rng)
    });
    let opened = measure("EciesKeypair::open", 11, || principal.open(&blob).unwrap());
    assert_eq!(opened, grant);

    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    let msg = [9u8; 120];
    let sig = measure("SigningKey::sign", 16, || key.sign(&msg, &mut rng));
    assert!(measure("VerifyingKey::verify", 4, || vk.verify(&msg, &sig)));
}

#[test]
fn a_grant_and_its_sync_allocate_a_few_hundred_times() {
    let server =
        Arc::new(TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap());
    let mut t = InProcess::new(server);
    let cfg = StreamConfig::new(1, "m", 0, 10_000);
    let mut owner = DataOwner::new(cfg.clone(), SecureRandom::from_seed_insecure(1));
    owner.create_stream(&mut t).unwrap();
    let mut consumer = Consumer::new("c", &mut SecureRandom::from_seed_insecure(2));
    // Revoking first makes every run the same pair: one stored grant, one
    // opened. The revocation's own few allocations are part of the count.
    measure("grant_access + sync_grants pair", 256, || {
        owner.revoke(&mut t, "c").unwrap();
        owner
            .grant_access(&mut t, "c", consumer.public_key(), 0, 3_600_000)
            .unwrap();
        assert_eq!(consumer.sync_grants(&mut t, cfg.id).unwrap(), 1);
    });
}
