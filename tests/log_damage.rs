//! `LogKv::open` over damaged bytes (ROADMAP 10(b), the store's slice): a
//! seeded sweep of 600 logs, each one log with one to three of its bytes
//! changed. The log holds runs of several blocks, side keys, deletes and a
//! compacted generation with batches appended after it. Opening a damaged
//! copy returns `Ok` or `CorruptAt` and never panics; an `Ok` store answers
//! like the model as it stood before the batch that holds the first damaged
//! byte — a torn tail is cut there, and damage before a valid batch is
//! `CorruptAt`.

use common::TempPath;
use std::collections::BTreeMap;
use timecrypt::store::{KvStore, LogKv, StoreError, WriteOp};

mod common;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn counting(stream: u8, tail: u64) -> Vec<u8> {
    [&b"il/"[..], &[stream], &tail.to_be_bytes()].concat()
}

/// Applies `ops` to the store and the model, one batch.
fn write(kv: &LogKv, model: &mut Model, ops: &[(Vec<u8>, Option<Vec<u8>>)]) {
    let batch: Vec<_> = ops
        .iter()
        .map(|(key, value)| match value {
            Some(value) => WriteOp::Put { key, value },
            None => WriteOp::Delete { key },
        })
        .collect();
    kv.write_batch(&batch).unwrap();
    for (key, value) in ops {
        match value {
            Some(value) => model.insert(key.clone(), value.clone()),
            None => model.remove(key),
        };
    }
}

/// The log's bytes, and after the compaction and after each batch
/// appended since, where the log ends and what it holds.
fn history() -> (Vec<u8>, Vec<(u64, Model)>) {
    let path = TempPath::new("history.log");
    let kv = LogKv::open(&path).unwrap();
    let mut model = Model::new();
    let put = |key: Vec<u8>, fill: u8| (key, Some(vec![fill; 1 + fill as usize % 5]));
    // Two streams of 70 counting keys — three blocks each — 16 a batch,
    // taking turns, with a side key per batch.
    for base in (0..70).step_by(16) {
        for stream in 0..2 {
            let mut ops: Vec<_> = (base..70.min(base + 16))
                .map(|t| put(counting(stream, t), t as u8))
                .collect();
            ops.push(put(format!("s/{stream}/{base}").into_bytes(), stream));
            write(&kv, &mut model, &ops);
        }
    }
    // Holes in the middle, a front trimmed past a block, a side key gone.
    let deletes = (20..30).chain(0..40).map(|t| (counting(0, t), None));
    let mut ops: Vec<_> = deletes.collect();
    ops.push((b"s/1/16".to_vec(), None));
    write(&kv, &mut model, &ops);
    kv.compact().unwrap();
    let mut marks = vec![(kv.stats().log_bytes, model.clone())];
    // Then batches on top of the compacted generation.
    let batches = [
        (70..90).map(|t| put(counting(1, t), 3)).collect(),
        vec![put(counting(0, 50), 9), (counting(1, 69), None)],
        (66..69).rev().map(|t| (counting(1, t), None)).collect(),
        vec![put(b"side".to_vec(), 4)],
        (40..70).map(|t| (counting(0, t), None)).collect(),
        // A last record large enough that damage often lands in it alone:
        // a torn tail, which opens.
        vec![(b"last".to_vec(), Some(vec![7; 600]))],
    ];
    for ops in batches {
        write(&kv, &mut model, &ops);
        marks.push((kv.stats().log_bytes, model.clone()));
    }
    drop(kv);
    let bytes = std::fs::read(&path).unwrap();
    (bytes, marks)
}

#[test]
fn a_damaged_log_opens_as_the_batches_before_the_damage_or_is_corrupt_at() {
    let (bytes, marks) = history();
    let path = TempPath::new("case.log");
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let (mut opened, mut corrupt) = (0, 0);
    for case in 0..600 {
        let mut damaged = bytes.clone();
        let mut hits: Vec<usize> = (0..1 + next() % 3)
            .map(|_| (next() % bytes.len() as u64) as usize)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        for &at in &hits {
            damaged[at] ^= 1 + (next() % 255) as u8;
        }
        let first = hits[0] as u64;
        std::fs::write(&path, &damaged).unwrap();
        match LogKv::open(&path) {
            Ok(kv) => {
                opened += 1;
                let Some((_, model)) = marks.iter().rev().find(|(end, _)| *end <= first) else {
                    panic!("case {case}: opened though byte {first} of the compacted generation changed");
                };
                assert_eq!(kv.len(), model.len(), "case {case}: damage at {hits:?}");
                let mut held = kv.scan_prefix(b"").unwrap();
                held.sort();
                let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                assert_eq!(held, want, "case {case}: damage at {hits:?}");
            }
            Err(StoreError::CorruptAt { .. }) => corrupt += 1,
            Err(e) => panic!("case {case}: damage at {hits:?}: {e}"),
        }
    }
    println!("damaged logs: {opened} opened, {corrupt} CorruptAt");
    assert!(
        opened > 0 && corrupt > 0,
        "{opened} opened, {corrupt} corrupt"
    );
}
