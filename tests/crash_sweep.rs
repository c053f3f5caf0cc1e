//! Crash recovery by generation (the method of ALICE, Pillai et al., OSDI
//! 2014, and CrashMonkey, Mohan et al., OSDI 2018): every state a crash can
//! leave a store's log in, under the traffic the engine serves.
//!
//! Each history of `common::history` runs on an engine and on a two-shard
//! node over a recorded file (`File::Recording`, `Durability::Fsync`), one
//! file for the log's life. What the log asked of its file gives the
//! states a crash can leave ([`states`]): each synced prefix; each append
//! dropped, or torn at each record boundary inside it and at two seeded
//! offsets; and three whole logs the file held, a seeded byte flipped in
//! each. Each is opened, and the tier over it:
//! - **Open:** a state fails exactly when a flip lies before its last
//!   record, as `CorruptAt` at the record it flipped, the file untouched; a
//!   flip in the last record is a torn tail.
//! - **Log after recovery:** it holds the whole batches before the cut or
//!   the flip and no byte more, so each batch synced before its ack is
//!   there; and what a clean open of them holds, so each is whole or absent.
//! - **Replies:** each stream answers byte for byte as the tier did after
//!   the last step acked before the crash or after the step in flight. The
//!   live buffer, volatile by design (§4.6), is not asked.
//! - **After recovery:** two batches, the second naming the run of keys the
//!   first starts, survive a second open, which truncates nothing.
//!
//! A failing history is shrunk and printed with its seed, tier and state;
//! the tallies are `crash_sweep.*` rows of the root `BENCH_ledger.json`.

use common::history::{checked, kind, pool, principal, Rng, Step, EXCLUDED, PRINCIPALS};
use common::{Call, Deployment, File, Recording, Spec};
use std::collections::{BTreeSet, HashSet};
use std::ops::Range;
use timecrypt::store::{Durability, KvPairs, KvStore, LogKv, StoreError, WriteOp};
use timecrypt::wire::messages::Request;

mod common;

/// Histories the tier-1 run sweeps.
const HISTORIES: u64 = 100;
/// The bytes of the magic every log opens with, `TCLOG4\r\n`.
const MAGIC: usize = 8;

/// A state a crash can leave: the first `cut` bytes of `image`, a whole
/// log, the byte at `flip.0` xored with `flip.1`; left after the log made
/// `calls` calls of its file.
#[derive(Clone, Debug)]
struct State {
    image: Vec<u8>,
    cut: usize,
    flip: Option<(usize, u8)>,
    calls: usize,
}

impl State {
    fn bytes(&self) -> Vec<u8> {
        let mut bytes = self.image[..self.cut].to_vec();
        if let Some((at, bits)) = self.flip {
            bytes[at] ^= bits;
        }
        bytes
    }

    /// The length the log opens at: the whole batches before the cut and
    /// the flip, or a fresh log's magic if the cut tore that.
    fn kept(&self) -> usize {
        let upto = self.flip.map_or(self.cut, |(at, _)| at);
        let ends = ends(&self.image).into_iter().filter(|(_, closes)| *closes);
        let ends = ends.map(|(end, _)| end).filter(|&end| end <= upto);
        ends.max().unwrap_or(MAGIC)
    }

    /// Whether the log opens: unflipped, or flipped in its last record, a
    /// torn tail; a flip anywhere else has valid records after it.
    fn opens(&self) -> bool {
        let last = ends(&self.image).iter().rev().nth(1).map_or(MAGIC, |r| r.0);
        self.flip.is_none_or(|(at, _)| at >= last)
    }
}

/// Where each record of the whole log `image` ends, and whether it closes
/// its batch. A record is `flags | seq | value length | key | value |
/// crc32`, its key `length | bytes` or, under flag `0x40`, `run | tail`,
/// each length, run and tail a varint; under flag `0x80` the batch goes on.
fn ends(image: &[u8]) -> Vec<(usize, bool)> {
    let varint = |at: &mut usize| {
        let len = image[*at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
        *at += len;
        let bytes = image[*at - len..*at].iter().rev();
        bytes.fold(0, |n, b| n << 7 | usize::from(b & 0x7F))
    };
    let (mut at, mut ends) = (MAGIC, Vec::new());
    while at < image.len() {
        let flags = image[at];
        at += 2;
        let value = varint(&mut at);
        let key = varint(&mut at);
        if flags & 0x40 == 0 {
            at += key;
        } else {
            varint(&mut at);
        }
        at += value + 4;
        ends.push((at, flags & 0x80 == 0));
    }
    ends
}

/// The states a crash can leave the file that received `calls` in, its
/// seeded cuts and flips drawn from `rng`.
fn states(calls: &[Call], rng: &mut Rng) -> Vec<State> {
    let (mut file, mut states) = (Vec::new(), Vec::new());
    let mut state = |image: &Vec<u8>, cut, calls| {
        let (image, flip) = (image.clone(), None);
        states.push(State {
            image,
            cut,
            flip,
            calls,
        });
    };
    for (i, call) in calls.iter().enumerate() {
        match call {
            Call::Append(bytes) => {
                let image = [&file[..], bytes].concat();
                let inside = ends(&image).into_iter().map(|(end, _)| end);
                let inside = inside.filter(|&end| end > file.len() && end < image.len());
                let seeded = [0, 1].map(|_| file.len() + rng.below(bytes.len() as u64) as usize);
                let cuts: BTreeSet<_> = inside.chain(seeded).chain([file.len()]).collect();
                cuts.into_iter().for_each(|cut| state(&image, cut, i));
                file = image;
            }
            Call::Sync => state(&file, file.len(), i + 1),
        }
    }
    for _ in 0..3 {
        let state = states[rng.below(states.len() as u64) as usize].clone();
        let cut = state.image.len();
        let flip = Some((rng.below(cut as u64) as usize, 1 + rng.below(255) as u8));
        states.push(State { cut, flip, ..state });
    }
    let mut seen = HashSet::new();
    states.retain(|state| seen.insert(state.bytes()));
    states
}

/// Each pool stream's replies, encoded, to the reads that name it.
type Replies = Vec<Vec<Vec<u8>>>;

fn replies(d: &Deployment) -> Replies {
    let reads = |stream| {
        let (ts_s, ts_e, streams) = (i64::MIN, i64::MAX, vec![stream]);
        let grants = PRINCIPALS.map(principal);
        let grants = grants.map(|principal| Request::GetGrants { stream, principal });
        let envelopes = [1, 64, u64::MAX].map(|resolution| Request::GetEnvelopes {
            stream,
            resolution,
            lo: 0,
            hi: u64::MAX,
        });
        let reads = [
            Request::StreamInfo { stream },
            Request::GetRange { stream, ts_s, ts_e },
            Request::GetStatRange {
                streams,
                ts_s,
                ts_e,
            },
            Request::GetAttestation { stream },
        ];
        reads.into_iter().chain(grants).chain(envelopes)
    };
    let replies = |stream| reads(stream).map(|q| d.call(q).encode()).collect();
    pool().into_iter().map(replies).collect()
}

/// The tier of `spec` over `file`.
fn over(spec: &Spec, file: &Recording) -> Deployment {
    let mut spec = spec.clone();
    spec.file = File::Recording(file.clone());
    Deployment::build(&spec)
}

/// Every record of `kv`, in key order.
fn dump(kv: &(impl KvStore + ?Sized)) -> Result<KvPairs, String> {
    let mut records = kv.scan_prefix(b"").map_err(|e| e.to_string())?;
    records.sort();
    Ok(records)
}

/// Opens `state`, then the tier of `spec` over a fresh copy (its replay
/// sees the damage too), and checks them against what the tier answered
/// after its open and each step: `marks`, the calls made and the replies.
/// Counts the state, whether it is damaged and opened, and synced batches.
fn check(spec: &Spec, state: &State, marks: &[(usize, Replies)]) -> Result<[u64; 4], String> {
    let file = Recording::holding(state.bytes());
    let kept = match (LogKv::over(file.clone(), Durability::Fsync), state.flip) {
        (Ok(_), _) if state.opens() => state.kept(),
        (Ok(_), _) => return Err("the log opens over valid records after its damage".into()),
        (Err(StoreError::CorruptAt { offset, .. }), Some((at, _))) if !state.opens() => {
            let ends = ends(&state.image).into_iter().map(|(end, _)| end);
            let record = ends.chain([MAGIC]).filter(|&end| end <= at).max();
            let record = record.unwrap_or(0) as u64;
            return match offset == record && file.bytes() == state.bytes() {
                true => Ok([1, 1, 0, 0]),
                false => Err(format!("corrupt at {offset}, not {record}, or changed")),
            };
        }
        (Err(e), _) => return Err(format!("the log does not open: {e}")),
    };
    let file = Recording::holding(state.bytes());
    let d = over(spec, &file);
    let len = file.bytes().len();
    if len != kept {
        return Err(format!("the log keeps {len} bytes, not {kept}"));
    }
    let clean = Recording::holding(state.image[..kept].to_vec());
    let clean = LogKv::over(clean, Durability::Fsync).map_err(|e| e.to_string())?;
    if dump(&*d.log(0))? != dump(&clean)? {
        return Err("the log holds other records than its whole batches".into());
    }
    if state.flip.is_none() {
        let acked = marks.iter().rposition(|(calls, _)| *calls <= state.calls);
        let acked = acked.unwrap_or(0);
        let then = &marks[acked..marks.len().min(acked + 2)];
        for (k, now) in replies(&d).iter().enumerate() {
            if !then.iter().any(|(_, then)| then[k] == *now) {
                let stream = pool()[k];
                let why = format!("stream {stream} answers as after no step from {acked}");
                return Err(why);
            }
        }
    }
    let key = |tail: u64| [&b"~crash/"[..], &tail.to_be_bytes()].concat();
    let (k0, k1, k2) = (key(0), key(1), key(2));
    let put = |key| WriteOp::Put { key, value: b"v" };
    let log = d.log(0);
    let written = log.write_batch(&[put(&k0), put(&k1)]);
    let written = written.and_then(|()| log.write_batch(&[put(&k2), WriteOp::Delete { key: &k0 }]));
    written.map_err(|e| format!("a write after recovery failed: {e}"))?;
    let (held, len) = (dump(&*log)?, file.bytes().len());
    drop((log, d));
    let again = LogKv::over(file.clone(), Durability::Fsync);
    let again = again.map_err(|e| format!("the second open failed: {e}"))?;
    if file.bytes().len() != len || dump(&again)? != held {
        return Err("the second open lost what was written after recovery".into());
    }
    let damaged = u64::from(state.flip.is_some());
    let closed = ends(&state.image).into_iter().filter(|(_, closes)| *closes);
    let synced = closed.filter(|&(end, _)| end <= kept).count() as u64;
    Ok([1, damaged, damaged, synced * (1 - damaged)])
}

/// Sweeps every crash state of `steps` on both tiers; sums what [`check`]
/// counts.
fn sweep(seed: u64, steps: &[Step]) -> Result<[u64; 4], String> {
    let mut tally = [0; 4];
    for (tier, spec) in [("engine", Spec::engine()), ("2-shard node", Spec::node(2))] {
        let file = Recording::default();
        let d = over(&spec, &file);
        let mut marks = vec![(file.calls().len(), replies(&d))];
        for step in steps {
            match step {
                Step::Call(req) => _ = d.call(req.clone()),
                Step::Frame(body) => _ = d.call_frame(body),
                Step::Restart => d.restart(0),
            }
            marks.push((file.calls().len(), replies(&d)));
        }
        for state in states(&file.calls(), &mut Rng(seed)) {
            let counts = check(&spec, &state, &marks);
            let counts = counts.map_err(|why| format!("{tier}, {state:?}: {why}"))?;
            tally.iter_mut().zip(counts).for_each(|(n, add)| *n += add);
        }
    }
    Ok(tally)
}

/// Sweeps the histories of `seeds`: the sum of what [`sweep`] counts, and
/// the request kinds the histories drew.
fn histories(seeds: Range<u64>) -> ([u64; 4], BTreeSet<&'static str>) {
    let (mut tally, mut kinds) = ([0; 4], BTreeSet::new());
    for seed in seeds {
        let (steps, swept) = checked(seed, |steps| sweep(seed, steps));
        tally.iter_mut().zip(swept).for_each(|(n, add)| *n += add);
        kinds.extend(steps.iter().filter_map(|step| match step {
            Step::Call(req) => Some(kind(req)),
            _ => None,
        }));
    }
    (tally, kinds)
}

/// The `crash_sweep.*` rows of `histories` histories and their tally.
fn rows(histories: u64, [states, damaged, _, synced]: [u64; 4]) -> Vec<(String, String)> {
    let rows = [
        ("histories", histories),
        ("states", states),
        ("damaged_states", damaged),
        ("synced_batches_checked", synced),
    ];
    rows.map(|(what, n)| (format!("crash_sweep.{what}"), n.to_string()))
        .to_vec()
}

#[test]
fn every_crash_state_of_generated_histories_recovers_whole_batches() {
    let (tally, kinds) = histories(0..HISTORIES);
    let every = Request::TAGS.iter().map(|(_, kind)| *kind);
    let drawn: BTreeSet<_> = every.filter(|kind| !EXCLUDED.contains(kind)).collect();
    assert_eq!(kinds, drawn, "every request kind but the excluded");
    let [_, damaged, opened, _] = tally;
    println!("damaged logs: {opened} opened, the rest CorruptAt");
    assert!(0 < opened && opened < damaged, "both outcomes of damage");
    common::ledger(&rows(HISTORIES, tally));
}

#[test]
#[ignore = "10³ histories: run it in release (CI does)"]
fn a_thousand_more_histories_recover_whole_batches() {
    const MORE: u64 = 1_000;
    let (tally, _) = histories(HISTORIES..HISTORIES + MORE);
    for (name, value) in rows(MORE, tally) {
        println!("sweep row {name}: {value}");
    }
}
