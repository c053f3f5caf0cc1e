//! Model test of `LogKv`'s index: whatever mix of runs and side-map
//! entries a history leaves behind, the store answers like a
//! `BTreeMap<Vec<u8>, Vec<u8>>` — live, after a reopen (replay rebuilds the
//! index), after `compact()`, and after `compact()` and a reopen — and
//! replay and compaction rebuild the index the live store holds, to the
//! byte of `stats()`. Since a record may name its key by the number of its
//! head's run, steps also create a run inside one batch and write more of
//! its keys there, and empty a run by deletes before starting it again.
//!
//! The key alphabet is built to collide: keys too short to have a tail, an
//! empty head, one head that is a proper prefix of another, and under each
//! head tails that count up, count down, repeat, leave gaps, sit at both
//! ends of `u64` and differ in their high bytes, so that a scan prefix can
//! end inside a tail.

use proptest::prelude::*;
use std::collections::BTreeMap;
use timecrypt_store::{KvStore, LogKv, WriteOp};

const HEADS: [&[u8]; 5] = [b"", b"h", b"hh", b"h\0", b"il/stream/"];
const SHORT: [&[u8]; 4] = [b"", b"h", b"hh", b"hh\0\0\0\0\0"];

/// Tail `i` of the alphabet: 0..12 dense, then the corners.
fn tail(i: u8) -> u64 {
    match i {
        0..=11 => u64::from(i),
        12 => u64::MAX,
        13 => u64::MAX - 1,
        14 => u64::MAX - 2,
        15 => 1 << 56,
        16 => (1 << 56) + 1,
        17 => (1 << 56) + 2,
        18 => 0x0100,
        _ => 0x0101,
    }
}

fn key(head: usize, t: u8) -> Vec<u8> {
    match HEADS.get(head) {
        Some(h) => [h, &tail(t).to_be_bytes()[..]].concat(),
        None => SHORT[t as usize % SHORT.len()].to_vec(),
    }
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn under(model: &Model, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let hits = model.iter().filter(|(k, _)| k.starts_with(prefix));
    hits.map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Every key of the alphabet, every prefix of each, `len` and `stats`.
fn assert_same(kv: &LogKv, model: &Model, when: &str) {
    assert_eq!(kv.len(), model.len(), "{when}: len");
    assert_eq!(kv.stats().live_keys, model.len() as u64, "{when}");
    for head in 0..=HEADS.len() {
        for t in 0..20 {
            let key = key(head, t);
            assert_eq!(
                kv.get(&key).unwrap(),
                model.get(&key).cloned(),
                "{when}: get {key:?}"
            );
            for cut in 0..=key.len() {
                let prefix = &key[..cut];
                let mut pairs = kv.scan_prefix(prefix).unwrap();
                pairs.sort();
                assert_eq!(
                    pairs,
                    under(model, prefix),
                    "{when}: scan_prefix {prefix:?}"
                );
                let mut keys = kv.scan_keys(prefix).unwrap();
                keys.sort();
                let want: Vec<_> = pairs.into_iter().map(|(k, _)| k).collect();
                assert_eq!(keys, want, "{when}: scan_keys {prefix:?}");
            }
        }
    }
}

/// One generated step: what to do, under which head (`HEADS.len()` = a
/// short key), from which tail, how many keys, with what value.
type Step = (u8, usize, u8, u8, Vec<u8>);

fn apply(kv: &LogKv, model: &mut Model, (kind, head, t, n, value): &Step) {
    // A stretch of the alphabet: ascending, or descending for odd `n`.
    let stretch = |n: u8| {
        let tails = (0..n).map(move |i| if n % 2 == 1 { t + n - 1 - i } else { t + i });
        tails.map(|t| key(*head, t % 20)).collect::<Vec<_>>()
    };
    match kind {
        0..=2 => {
            let key = key(*head, *t);
            kv.put(&key, value).unwrap();
            model.insert(key, value.clone());
        }
        3 => {
            let key = key(*head, *t);
            kv.delete(&key).unwrap();
            model.remove(&key);
        }
        4 | 5 => {
            let keys = stretch(*n);
            let ops: Vec<_> = keys.iter().map(|key| WriteOp::Put { key, value }).collect();
            kv.write_batch(&ops).unwrap();
            model.extend(keys.into_iter().map(|k| (k, value.clone())));
        }
        6 => {
            let keys = stretch(*n);
            let ops: Vec<_> = keys.iter().map(|key| WriteOp::Delete { key }).collect();
            kv.write_batch(&ops).unwrap();
            keys.iter().for_each(|k| drop(model.remove(k)));
        }
        7 => {
            // A batch that puts, deletes and puts one key again.
            let key = key(*head, *t);
            let put = WriteOp::Put { key: &key, value };
            kv.write_batch(&[put, WriteOp::Delete { key: &key }, put])
                .unwrap();
            model.insert(key, value.clone());
        }
        _ => {
            // Empties the head, so its run goes; then one batch starts a
            // run there again and writes more keys of it, which the log
            // must spell out, and a put of the next key names the new run.
            let all: Vec<_> = (0..20).map(|t| key(*head, t)).collect();
            let ops: Vec<_> = all.iter().map(|key| WriteOp::Delete { key }).collect();
            kv.write_batch(&ops).unwrap();
            all.iter().for_each(|k| drop(model.remove(k)));
            let keys: Vec<_> = (0..n + 2).map(|i| key(*head, (t + i) % 20)).collect();
            let (last, first) = keys.split_last().unwrap();
            let ops: Vec<_> = first
                .iter()
                .map(|key| WriteOp::Put { key, value })
                .collect();
            kv.write_batch(&ops).unwrap();
            kv.put(last, value).unwrap();
            model.extend(keys.into_iter().map(|k| (k, value.clone())));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn the_index_answers_like_an_ordered_map(
        steps in proptest::collection::vec(
            (0u8..9, 0usize..HEADS.len() + 1, 0u8..20, 1u8..9,
             proptest::collection::vec(any::<u8>(), 0..6)),
            1..60,
        ),
        case in any::<u64>(),
    ) {
        let path = std::env::temp_dir()
            .join(format!("tc-index-model-{}-{case:x}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut model = Model::new();
        let kv = LogKv::open(&path).unwrap();
        for (i, step) in steps.iter().enumerate() {
            apply(&kv, &mut model, step);
            let touched = key(step.1, step.2);
            prop_assert_eq!(kv.get(&touched).unwrap(), model.get(&touched).cloned(), "step {}", i);
            prop_assert_eq!(kv.len(), model.len(), "step {}", i);
        }
        assert_same(&kv, &model, "live");
        let stats = kv.stats();
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        prop_assert_eq!(kv.stats(), stats, "replay builds the identical index");
        assert_same(&kv, &model, "reopened");
        kv.compact().unwrap();
        prop_assert_eq!(kv.stats().dead_bytes, 0);
        assert_same(&kv, &model, "compacted");
        // Compaction leaves the index that replaying its output builds.
        let copy = path.with_extension("copy");
        std::fs::copy(&path, &copy).unwrap();
        prop_assert_eq!(LogKv::open(&copy).unwrap().stats(), kv.stats(), "compacted");
        // More history on top of the rewritten log, then replay of both.
        for step in steps.iter().take(10) {
            apply(&kv, &mut model, step);
        }
        assert_same(&kv, &model, "compacted and written to");
        let stats = kv.stats();
        drop(kv);
        let kv = LogKv::open(&path).unwrap();
        prop_assert_eq!(kv.stats(), stats, "replay of the compacted log written to");
        assert_same(&kv, &model, "compacted and reopened");
        // A compacted log is a function of its index, and compaction leaves
        // the index replaying it builds: compacting the store again and a
        // copy of its compacted log opened afresh writes the same bytes.
        kv.compact().unwrap();
        std::fs::copy(&path, &copy).unwrap();
        let replayed = LogKv::open(&copy).unwrap();
        kv.compact().unwrap();
        replayed.compact().unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&copy).unwrap());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&copy).unwrap();
    }
}
