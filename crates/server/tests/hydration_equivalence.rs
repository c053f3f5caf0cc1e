//! Equivalence battery for lazy hydration: a capped engine (resident
//! LRU of 1 — every touch of a second stream evicts the first) must be
//! observationally identical to an uncapped one. Arbitrary interleavings
//! of insert / query / delete-range / evict over several streams are
//! driven through the wire `Handler`, and every reply is compared
//! byte-for-byte; at the end the two KV stores must be byte-identical
//! too, so hydration and eviction leave no residue in persistent state.

use proptest::prelude::*;
use std::sync::Arc;
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_server::{ServerConfig, TimeCryptServer};
use timecrypt_store::{KvStore, MemKv};
use timecrypt_wire::messages::Request;
use timecrypt_wire::transport::Handler;

const STREAMS: [u128; 3] = [1, 2, 3];
const DELTA_MS: u64 = 10_000;

/// One step of the interleaving. Stream and timestamps are small indices
/// mapped onto the fixed stream set / chunk grid by the driver.
#[derive(Debug, Clone)]
enum Op {
    /// Seal and insert the next in-order chunk of stream `STREAMS[s]`.
    Insert { s: usize, value: i64 },
    /// Statistical range query over a subset of streams.
    Stat { mask: usize, lo: usize, hi: usize },
    /// Raw chunk range query on one stream.
    Range { s: usize, lo: usize, hi: usize },
    /// Delete a chunk-aligned range on one stream.
    Delete { s: usize, lo: usize, hi: usize },
    /// Force-evict everything idle from both engines.
    Evict,
    /// Stream metadata probe (hydration-free path).
    Info { s: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, -50i64..50).prop_map(|(s, value)| Op::Insert { s, value }),
        (1usize..8, 0usize..6, 0usize..6).prop_map(|(mask, lo, hi)| Op::Stat { mask, lo, hi }),
        (0usize..3, 0usize..6, 0usize..6).prop_map(|(s, lo, hi)| Op::Range { s, lo, hi }),
        (0usize..3, 0usize..6, 0usize..6).prop_map(|(s, lo, hi)| Op::Delete { s, lo, hi }),
        Just(Op::Evict),
        (0usize..3).prop_map(|s| Op::Info { s }),
    ]
}

fn seal(stream: u128, index: u64, value: i64) -> Vec<u8> {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(stream, "m", 0, DELTA_MS)
    };
    let km = StreamKeyMaterial::with_params(stream, [stream as u8; 16], 20, PrgKind::Aes).unwrap();
    // Deterministic nonce stream per (stream, index) so both engines
    // receive the same ciphertext bytes.
    let mut rng = SecureRandom::from_seed_insecure(stream as u64 * 1000 + index);
    PlainChunk {
        stream,
        index,
        points: vec![DataPoint::new(index as i64 * DELTA_MS as i64, value)],
    }
    .seal(&cfg, &km, &mut rng)
    .unwrap()
    .to_bytes()
}

fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut all = kv.scan_prefix(b"").unwrap();
    all.sort();
    all
}

/// Applies `ops` to a capped and an uncapped engine, asserting
/// byte-identical replies throughout and byte-identical stores at the
/// end. With `evict_every_op`, the capped engine is additionally swept
/// after every single step, so each next touch is a cold rehydration.
fn run_equivalence(ops: &[Op], evict_every_op: bool) {
    let kv_capped: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let kv_uncapped: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let cfg = ServerConfig::default();
    let capped = TimeCryptServer::open(
        kv_capped.clone(),
        ServerConfig {
            max_resident_streams: Some(1),
            ..cfg.clone()
        },
    )
    .unwrap();
    let uncapped = TimeCryptServer::open(kv_uncapped.clone(), cfg).unwrap();
    for engine in [&capped, &uncapped] {
        for &s in &STREAMS {
            engine.create_stream(s, 0, DELTA_MS, 2).unwrap();
        }
    }
    let mut next_index = [0u64; 3];
    let ts = |i: usize| i as i64 * DELTA_MS as i64;
    for (step, op) in ops.iter().enumerate() {
        let req = match *op {
            Op::Insert { s, value } => {
                let chunk = seal(STREAMS[s], next_index[s], value);
                next_index[s] += 1;
                Some(Request::Insert { chunk })
            }
            Op::Stat { mask, lo, hi } => Some(Request::GetStatRange {
                streams: STREAMS
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &s)| s)
                    .collect(),
                ts_s: ts(lo.min(hi)),
                ts_e: ts(lo.max(hi) + 1),
            }),
            Op::Range { s, lo, hi } => Some(Request::GetRange {
                stream: STREAMS[s],
                ts_s: ts(lo.min(hi)),
                ts_e: ts(lo.max(hi) + 1),
            }),
            Op::Delete { s, lo, hi } => Some(Request::DeleteRange {
                stream: STREAMS[s],
                ts_s: ts(lo.min(hi)),
                ts_e: ts(lo.max(hi) + 1),
            }),
            Op::Info { s } => Some(Request::StreamInfo { stream: STREAMS[s] }),
            Op::Evict => {
                capped.evict_idle_streams();
                uncapped.evict_idle_streams();
                None
            }
        };
        if let Some(req) = req {
            let a = capped.handle(req.clone()).encode();
            let b = uncapped.handle(req).encode();
            assert_eq!(a, b, "reply diverged at step {step} ({op:?})");
        }
        if evict_every_op {
            capped.evict_idle_streams();
        }
    }
    assert_eq!(
        dump(kv_capped.as_ref()),
        dump(kv_uncapped.as_ref()),
        "stores diverged after {} ops",
        ops.len()
    );
    let residency = capped.residency();
    assert!(
        residency.resident <= 1,
        "cap of 1 violated: {} resident",
        residency.resident
    );
}

proptest! {
    /// Capped (LRU of 1) vs uncapped: byte-identical replies and stores
    /// for arbitrary op interleavings.
    #[test]
    fn capped_engine_is_observationally_identical(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        run_equivalence(&ops, false);
    }

    /// Same battery, but the capped engine is force-evicted after every
    /// op — every touch is a cold rehydration from the store.
    #[test]
    fn forced_eviction_then_rehydrate_is_identical(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        run_equivalence(&ops, true);
    }
}
