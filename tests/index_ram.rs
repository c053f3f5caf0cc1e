//! Deterministic RAM guard for the log store's index (ROADMAP aim 1(c):
//! gate the counts that don't jitter), beside `write_amplification.rs` and
//! `store_residency.rs`. `LogKv`'s index is the one structure in a node
//! whose size follows the history stored, so what a stored key costs in RAM
//! is the node's scaling limit. Keys that count up under a shared head —
//! every high-volume key this system writes — must cost a record location
//! each, block-coded in two to four bytes (≈ 3 B a key at the dashboard
//! shape, ≈ 6.6 B at the fleet shape, with the blocks' padding and the
//! runs' heads), not a B-tree entry with its own heap-allocated key
//! (≈ 129 B); keys that do not must cost no more than that entry did; and
//! deletes must give the memory back. `LogStats::index_bytes` has to say
//! what the allocator says.
//!
//! Counts only — no RSS read. The binary's global allocator keeps, per
//! thread, the bytes live as glibc's malloc sets them aside (an 8-byte
//! header, 16-byte granules, 32 at least), so a 28-byte key counts as the
//! 48 it occupies. What a key of the dashboard and fleet shapes costs, as
//! the allocator counts it and as `index_bytes` says, are rows of the root
//! `BENCH_ledger.json`, compared exactly (`TC_BLESS=1` rewrites them); CI
//! copies them to the job summary.

use std::collections::BTreeMap;
use timecrypt::index::keys::{head, leaf, LEAF};
use timecrypt::store::{KvStore, LogKv, WriteOp};

mod common;

use common::{live, TempPath};

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// An empty store and the live bytes it starts from.
fn store(name: &str) -> (LogKv, TempPath, isize) {
    let path = TempPath::new(&format!("{name}.log"));
    let kv = LogKv::open(&path).unwrap();
    (kv, path, live())
}

/// `heads` streams × `per_head` chunks, `turn` consecutive chunks of one
/// stream per commit, the streams taking turns.
fn ingest(kv: &LogKv, heads: u128, per_head: u64, turn: u64) {
    for base in (0..per_head).step_by(turn as usize) {
        for stream in 0..heads {
            let keys: Vec<_> = (base..per_head.min(base + turn))
                .map(|i| leaf(stream, i))
                .collect();
            let ops: Vec<_> = keys
                .iter()
                .map(|key| WriteOp::Put { key, value: b"v" })
                .collect();
            kv.write_batch(&ops).unwrap();
        }
    }
}

/// Ingests a shape, holds it to a location per key, writes its rows, and
/// hands the store on with the live bytes it started from.
fn counting_keys_cost_a_location(
    shape: &str,
    heads: u128,
    per_head: u64,
    turn: u64,
) -> (LogKv, isize) {
    let (kv, _path, start) = store(shape);
    ingest(&kv, heads, per_head, turn);
    let keys = heads as u64 * per_head;
    assert_eq!(kv.len() as u64, keys);
    let (held, said) = ((live() - start) as f64, kv.stats().index_bytes as f64);
    assert!(
        held <= 32.0 * keys as f64,
        "{shape}: {held} B for {keys} keys"
    );
    let per_key = |bytes: f64| format!("{:.2}", bytes / keys as f64);
    let row = |name: &str| format!("index_ram.{shape}.{name}_per_live_key");
    common::ledger(&[
        (row("allocator_bytes"), per_key(held)),
        (row("index_bytes"), per_key(said)),
    ]);
    (kv, start)
}

#[test]
fn dashboard_shape_and_what_deletion_gives_back() {
    let (heads, per_head) = (32, 4560);
    let (kv, start) = counting_keys_cost_a_location("dashboard", heads, per_head, 16);
    let full = live() - start;
    // Every key of every head: the runs go, and their heads with them.
    for stream in 0..heads {
        let held = kv.scan_keys(&head(LEAF, stream)).unwrap();
        let ops: Vec<_> = held.iter().map(|key| WriteOp::Delete { key }).collect();
        kv.write_batch(&ops).unwrap();
    }
    assert_eq!(kv.len(), 0);
    assert_eq!(kv.stats().index_bytes, 0);
    let held = live() - start;
    assert!(held < full / 100, "{held} B held of {full}");
}

#[test]
fn fleet_shape() {
    counting_keys_cost_a_location("fleet", 1024, 175, 1);
}

/// The map every key used to live in, as the yardstick: what `keys`,
/// inserted in this order, cost in it on this allocator.
fn in_the_old_map(keys: &[[u8; 28]]) -> isize {
    let start = live();
    let mut map: BTreeMap<Vec<u8>, (u64, u32)> = BTreeMap::new();
    for key in keys {
        map.insert(key.to_vec(), (8, 1));
    }
    live() - start
}

/// Puts `keys` one by one; returns the bytes the store then holds.
fn held_after(name: &str, keys: &[[u8; 28]]) -> (isize, u64) {
    let (kv, path, start) = store(name);
    for key in keys {
        kv.put(key, b"v").unwrap();
    }
    assert_eq!(kv.len(), keys.len());
    drop(path);
    (live() - start, kv.stats().index_bytes)
}

#[test]
fn keys_that_do_not_count_cost_what_they_always_did() {
    const N: u64 = 100_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Random heads and tails; then one key under each of N heads, the
    // tails counting up across heads, which makes no two keys neighbours.
    let random: Vec<_> = (0..N)
        .map(|_| leaf(u128::from(next()) << 64 | u128::from(next()), next()))
        .collect();
    let singletons: Vec<_> = (0..N).map(|i| leaf(u128::from(i), i)).collect();
    // And the shortest run there is, two keys, under each of N / 2 heads.
    let pairs: Vec<_> = (0..N).map(|i| leaf(u128::from(i / 2), i % 2)).collect();
    let shapes = [
        ("random", random),
        ("singletons", singletons),
        ("pairs", pairs),
    ];
    for (name, keys) in shapes {
        let (held, said) = held_after(name, &keys);
        let old = in_the_old_map(&keys);
        println!(
            "index bytes per live key, {name} ({N} keys): allocator {:.1}, index_bytes {:.1}, \
             the old map {:.1}",
            held as f64 / N as f64,
            said as f64 / N as f64,
            old as f64 / N as f64
        );
        assert!(held <= old, "{name}: {held} B against {old}");
        let off = (said as f64 - held as f64).abs();
        assert!(
            off <= 0.15 * held as f64,
            "{name}: {said} said, {held} held"
        );
    }
}

#[test]
fn both_ends_of_the_tail_space_allocate_next_to_nothing() {
    let keys = [leaf(7, 0), leaf(7, u64::MAX)];
    let (held, _) = held_after("ends", &keys);
    assert!(held < 1024, "{held} B for two keys");
    // And in the order that wraps: MAX is no predecessor of 0.
    let (held, _) = held_after("ends-wrapped", &[keys[1], keys[0]]);
    assert!(held < 1024, "{held} B for two keys");
}
