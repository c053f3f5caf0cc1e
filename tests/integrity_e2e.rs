//! End-to-end integrity extension (paper §3.3): HEAC-encrypted chunks +
//! authenticated aggregation proofs + signed root attestations.
//!
//! The base system trusts the server for completeness/correctness of
//! results; these tests show the Verena-style extension closing that gap
//! while everything stays encrypted: the verified aggregate is a HEAC
//! ciphertext the consumer then decrypts with its boundary keys.

use timecrypt::chunk::{DataPoint, EncryptedChunk, PlainChunk, StreamConfig};
use timecrypt::core::{decrypt_range_sum, StreamKeyMaterial};
use timecrypt::crypto::SecureRandom;
use timecrypt::integrity::{chunk_commitment, verify_attested_range, AttestError, StreamLedger};
use timecrypt::pk::SigningKey;

const STREAM: u128 = 77;
const CHUNKS: u64 = 40;
const PTS_PER_CHUNK: i64 = 10;

struct World {
    cfg: StreamConfig,
    keys: StreamKeyMaterial,
    owner_ledger: StreamLedger,
    server_ledger: StreamLedger,
    owner_key: SigningKey,
    rng: SecureRandom,
    chunks: Vec<EncryptedChunk>,
}

/// A ledger of `chunks`, as the server builds it on upload.
fn ledger_of<'a>(chunks: impl IntoIterator<Item = &'a EncryptedChunk>) -> StreamLedger {
    let mut ledger = StreamLedger::new(STREAM);
    for chunk in chunks {
        let commitment = chunk_commitment(&chunk.to_bytes());
        ledger.append(commitment, chunk.digest_ct.clone()).unwrap();
    }
    ledger
}

/// Producer seals CHUNKS chunks (value = global point index); owner and
/// server ledgers both track them, as in the real upload path.
fn build_world() -> World {
    let cfg = StreamConfig::new(STREAM, "hr", 0, 10_000);
    let keys = StreamKeyMaterial::with_params(STREAM, [3u8; 16], 24, Default::default()).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(99);
    let owner_key = SigningKey::generate(&mut rng);
    let chunks: Vec<_> = (0..CHUNKS)
        .map(|i| {
            let points = (0..PTS_PER_CHUNK).map(|p| {
                let global = i as i64 * PTS_PER_CHUNK + p;
                DataPoint::new(i as i64 * 10_000 + p * 1_000, global)
            });
            let points = points.collect();
            let plain = PlainChunk {
                stream: STREAM,
                index: i,
                points,
            };
            plain.seal(&cfg, &keys, &mut rng).unwrap()
        })
        .collect();
    World {
        cfg,
        keys,
        owner_ledger: ledger_of(&chunks),
        server_ledger: ledger_of(&chunks),
        owner_key,
        rng,
        chunks,
    }
}

fn expected_sum(lo: u64, hi: u64) -> i64 {
    (lo as i64 * PTS_PER_CHUNK..hi as i64 * PTS_PER_CHUNK).sum()
}

#[test]
fn verified_aggregate_decrypts_to_ground_truth() {
    let mut w = build_world();
    let att = w.owner_ledger.attest(&w.owner_key, &mut w.rng);
    let vk = w.owner_key.verifying_key();

    for (lo, hi) in [(0u64, CHUNKS), (3, 17), (39, 40), (0, 1)] {
        let proof = w
            .server_ledger
            .prove_range(lo as usize, hi as usize, att.size as usize)
            .unwrap();
        // Consumer: authenticate first, then decrypt the proven ciphertext.
        let agg_ct = verify_attested_range(STREAM, &att, &vk, &proof).unwrap();
        let plain = decrypt_range_sum(&w.keys.tree, lo, hi, &agg_ct).unwrap();
        // Element order follows the stream's digest schema; element 0 is Sum,
        // element 1 is Count in the standard schema.
        let sum_idx = w
            .cfg
            .schema
            .ops()
            .iter()
            .position(|op| matches!(op, timecrypt::chunk::DigestOp::Sum))
            .unwrap();
        assert_eq!(plain[sum_idx] as i64, expected_sum(lo, hi), "[{lo},{hi})");
    }
}

#[test]
fn server_substituting_a_digest_is_caught_before_decryption() {
    let mut w = build_world();
    let att = w.owner_ledger.attest(&w.owner_key, &mut w.rng);
    // The server replays chunk 5 in place of chunk 6 (a replay the base
    // system would silently aggregate), in a cheating ledger.
    let replayed = (0..CHUNKS as usize).map(|i| &w.chunks[if i == 6 { 5 } else { i }]);
    let cheat = ledger_of(replayed);
    let forged = cheat
        .prove_range(0, CHUNKS as usize, att.size as usize)
        .unwrap();
    let vk = w.owner_key.verifying_key();
    assert!(matches!(
        verify_attested_range(STREAM, &att, &vk, &forged),
        Err(AttestError::Proof(_))
    ));
}

#[test]
fn integrity_composes_with_access_control() {
    // A consumer with only a *partial* token range can still verify the
    // whole-stream proof (integrity needs no secrets) but can only decrypt
    // aggregates inside its granted range — the two layers are independent.
    let mut w = build_world();
    let att = w.owner_ledger.attest(&w.owner_key, &mut w.rng);
    let vk = w.owner_key.verifying_key();

    // Grant covering chunks [8, 16): tokens for leaves 8..=16.
    let tokens = w.keys.tree.token_set(8, 17).unwrap();

    // In-range verified aggregate decrypts.
    let proof = w
        .server_ledger
        .prove_range(8, 16, att.size as usize)
        .unwrap();
    let ct = verify_attested_range(STREAM, &att, &vk, &proof).unwrap();
    let plain = decrypt_range_sum(&tokens, 8, 16, &ct).unwrap();
    assert_eq!(plain[0] as i64, expected_sum(8, 16));

    // Out-of-range aggregate verifies but cannot be decrypted.
    let proof = w
        .server_ledger
        .prove_range(0, 8, att.size as usize)
        .unwrap();
    let ct = verify_attested_range(STREAM, &att, &vk, &proof).unwrap();
    assert!(decrypt_range_sum(&tokens, 0, 8, &ct).is_err());
}
