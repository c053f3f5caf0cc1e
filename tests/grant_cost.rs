//! Deterministic guard for what sharing costs (ROADMAP aim 1: gate the
//! counts that don't jitter), beside `key_derivation_cost.rs` and
//! `index_ram.rs`. A grant is one ECIES seal on the owner's side and one
//! open on the principal's (§3.2, Table 1 (8)); an attestation is one
//! ECDSA signature and one verification (§3.3). All four stand on
//! `pk/p256.rs`, four stack limbs end to end: points, scalars and
//! signatures are fixed-width values, so a scalar multiplication allocates
//! nothing — neither the field operations, point `double` / `add` and the
//! window loop `mul_sum`, nor the conversions at its boundary. Signing and
//! verifying allocate nothing at all; a seal allocates for its blob and an
//! open for its plaintext, each with the key derivation's point encoding.
//! The five counts are rows of the root `BENCH_ledger.json`, compared
//! exactly (`TC_BLESS=1` rewrites them): one allocation inside the curve
//! is thousands per operation.
//!
//! Before the fixed-limb curve every field add, sub and mul returned a
//! fresh `Vec<u64>`: 67 941 allocations for one seal (two scalar
//! multiplications), 100 930 for a grant and its sync.
//!
//! Counts only. The binary's global allocator (`tests/common`) keeps, per
//! thread, how many times it was asked for memory. The guard prints its
//! "allocations per …" lines and, for the record, the median time of each
//! operation (printed, never asserted); CI copies both to the job summary.

use common::{Deployment, Spec};
use std::time::Instant;
use timecrypt::chunk::StreamConfig;
use timecrypt::client::{Consumer, DataOwner, InProc};
use timecrypt::crypto::SecureRandom;
use timecrypt::pk::ecies::{self, EciesKeypair};
use timecrypt::pk::SigningKey;

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// Runs `op` 21 times: the allocations of the first run after a warm-up
/// (the count repeats exactly), as the ledger row `grant_cost.{row}`, and
/// the median time of the other twenty, printed.
fn measure<R>(rows: &mut Vec<(String, String)>, row: &str, mut op: impl FnMut() -> R) -> R {
    op(); // lazily built state is not the operation's
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
        "allocations per {row}: {allocs} (median of 20: {:.0} us)",
        (micros[9] + micros[10]) / 2.0
    );
    rows.push((format!("grant_cost.{row}.allocations"), allocs.to_string()));
    out
}

#[test]
fn public_key_operations_allocate_at_their_boundary_only() {
    let mut rng = SecureRandom::from_seed_insecure(23);
    let principal = EciesKeypair::generate(&mut rng);
    let grant = [7u8; 256];
    let mut rows = Vec::new();
    let blob = measure(&mut rows, "ecies_seal_256b", || {
        ecies::seal(&principal.public, &grant, &mut rng)
    });
    let opened = measure(&mut rows, "ecies_open", || principal.open(&blob).unwrap());
    assert_eq!(opened, grant);

    let key = SigningKey::generate(&mut rng);
    let vk = key.verifying_key();
    let msg = [9u8; 120];
    let sig = measure(&mut rows, "ecdsa_sign", || key.sign(&msg, &mut rng));
    assert!(measure(&mut rows, "ecdsa_verify", || vk.verify(&msg, &sig)));
    common::ledger(&rows);
}

#[test]
fn a_grant_and_its_sync_allocate_a_few_hundred_times() {
    let server = Deployment::build(&Spec::engine()).engine();
    let mut t = InProc::new(server);
    let cfg = StreamConfig::new(1, "m", 0, 10_000);
    let mut owner = DataOwner::new(cfg.clone(), SecureRandom::from_seed_insecure(1));
    owner.create_stream(&mut t).unwrap();
    let mut consumer = Consumer::new("c", &mut SecureRandom::from_seed_insecure(2));
    // Revoking first makes every run the same pair: one stored grant, one
    // opened. The revocation's own few allocations are part of the count.
    let mut rows = Vec::new();
    measure(&mut rows, "grant_and_sync", || {
        owner.revoke(&mut t, "c").unwrap();
        owner
            .grant_access(&mut t, "c", consumer.public_key(), 0, 3_600_000)
            .unwrap();
        assert_eq!(consumer.sync_grants(&mut t, cfg.id).unwrap(), 1);
    });
    common::ledger(&rows);
}
