//! Verified queries: the Verena-style integrity extension (paper §3.3).
//!
//! Base TimeCrypt keeps data confidential but trusts the server to return
//! *complete and correct* aggregates. This example layers the
//! `timecrypt-integrity` crate on top of the encrypted chunk pipeline:
//!
//! 1. the producer seals chunks (HEAC digests + AES-GCM payloads) and the
//!    owner mirrors them into a signed ledger,
//! 2. the server maintains the same authenticated aggregation tree and
//!    answers range queries with O(log n) proofs,
//! 3. the consumer verifies each aggregate against the owner-signed root
//!    *before* decrypting it — a lying server is caught red-handed.
//!
//! ```sh
//! cargo run --example verified_queries
//! ```

use timecrypt::chunk::{DataPoint, DigestOp, PlainChunk, StreamConfig};
use timecrypt::core::{decrypt_range_sum, StreamKeyMaterial};
use timecrypt::crypto::SecureRandom;
use timecrypt::integrity::{chunk_commitment, verify_attested_range, StreamLedger};
use timecrypt::pk::SigningKey;

const STREAM: u128 = 0xBEEF;
const DELTA_MS: u64 = 10_000;

fn main() {
    let cfg = StreamConfig::new(STREAM, "glucose", 0, DELTA_MS);
    let mut rng = SecureRandom::from_entropy();
    let keys = StreamKeyMaterial::with_params(
        STREAM,
        SecureRandom::from_entropy().seed128(),
        30,
        Default::default(),
    )
    .unwrap();

    // The owner's attestation key; its public half goes to consumers via the
    // identity provider (Keybase in the paper's model).
    let owner_key = SigningKey::generate(&mut rng);

    // ── Upload 24 h of data: producer seals, owner + server track ledgers ──
    let mut owner_ledger = StreamLedger::new(STREAM);
    let mut server_ledger = StreamLedger::new(STREAM);
    let mut server_chunks = Vec::new();
    let chunks_per_day = 24 * 3600 * 1000 / DELTA_MS;
    for i in 0..chunks_per_day {
        let points: Vec<DataPoint> = (0..10)
            .map(|p| {
                let t = (i * DELTA_MS) as i64 + p * 1000;
                DataPoint::new(t, 90 + ((t / 1000) % 30)) // mg/dL wobble
            })
            .collect();
        let sealed = PlainChunk {
            stream: STREAM,
            index: i,
            points,
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap();
        let commitment = chunk_commitment(&sealed.to_bytes());
        owner_ledger
            .append(commitment, sealed.digest_ct.clone())
            .unwrap();
        server_ledger
            .append(commitment, sealed.digest_ct.clone())
            .unwrap();
        server_chunks.push(sealed);
    }
    // Owner publishes a signed root covering the whole day.
    let attestation = owner_ledger.attest(&owner_key, &mut rng);
    println!(
        "owner attested {} chunks (epoch {}, root {})",
        attestation.size,
        attestation.epoch,
        hex(&attestation.root[..8]),
    );

    // ── Consumer: verified morning average (06:00–12:00) ──────────────────
    let vk = owner_key.verifying_key();
    let (lo, hi) = (6 * 360usize, 12 * 360usize); // chunk indices at Δ = 10 s
    let proof = server_ledger
        .prove_range(lo, hi, attestation.size as usize, false)
        .unwrap();
    // The consumer verifies the window it asked for, not one the server names.
    let verified_ct = verify_attested_range(STREAM, &attestation, &vk, &proof, lo, hi).unwrap();
    println!("range proof for chunks [{lo},{hi}) verified against the signed root");

    // Only now decrypt (here with the owner's own keys; a consumer would use
    // its granted token set — integrity and access control are independent).
    let plain = decrypt_range_sum(&keys.tree, lo as u64, hi as u64, &verified_ct).unwrap();
    let sum_at = |op: DigestOp| {
        cfg.schema
            .ops()
            .iter()
            .position(|o| *o == op)
            .map(|i| plain[i])
            .unwrap()
    };
    let (sum, count) = (sum_at(DigestOp::Sum) as i64, sum_at(DigestOp::Count));
    println!(
        "verified morning stats: count={count}  mean={:.1} mg/dL",
        sum as f64 / count as f64
    );

    // ── A lying server: drops one chunk and re-proves ─────────────────────
    let mut cheating = StreamLedger::new(STREAM);
    for (i, sealed) in server_chunks.iter().enumerate() {
        if i == 2500 {
            continue; // silently drop one chunk from the morning
        }
        cheating
            .append(
                chunk_commitment(&sealed.to_bytes()),
                sealed.digest_ct.clone(),
            )
            .unwrap();
    }
    // The cheater is one chunk short of the attested size; pad with a replay
    // to match, then try to prove.
    let last = server_chunks.last().unwrap();
    cheating
        .append(chunk_commitment(&last.to_bytes()), last.digest_ct.clone())
        .unwrap();
    let forged = cheating
        .prove_range(lo, hi, attestation.size as usize, false)
        .unwrap();
    match verify_attested_range(STREAM, &attestation, &vk, &forged, lo, hi) {
        Err(e) => println!("cheating server caught: {e}"),
        Ok(_) => unreachable!("a forged history must not verify"),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
