//! One record per chunk: the chunk *is* its level-0 index record —
//! `il/<stream>/<index>` → what the server cannot re-derive of the chunk:
//! the stream's running sum in place of its digest, a kind byte, the
//! payload, `sum[8·w] ‖ 0x01 ‖ payload` (the position is the key's, the
//! width the stream's, the payload's length the record's) — until
//! `delete_range` turns the record into its stub, `sum ‖ 0x02 ‖
//! commitment[32]`. A chunk's own digest is its sum less the one before.
//! Pinned
//! here: every raw reader hands back exactly the ingested bytes and the
//! commitment proofs rest on is the one the owner computed over them; the
//! stub keeps digests, statistics and proofs as they were; `delete_range`
//! counts what it stubbed, once; and the one
//! decoder of both forms refuses everything else as `CorruptNode` at
//! level 0 (ROADMAP 9(b) decode audit).

use common::{Deployment, Spec};
use proptest::prelude::*;
use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::crypto::SecureRandom;
use timecrypt::index::{keys, IndexError};
use timecrypt::integrity::{
    chunk_commitment, verify_attested_range, verify_attested_range_open, RangeProof,
    RootAttestation, StreamLedger,
};
use timecrypt::pk::SigningKey;
use timecrypt::server::{ServerError, TimeCryptServer, EXPORT_PAGE_BYTES};
use timecrypt::store::KvStore;
use timecrypt::wire::messages::{Refusal, Request, Response};
use timecrypt::wire::transport::Handler;

mod common;

const DELTA_MS: u64 = 10_000;

fn ts(chunk: u64) -> i64 {
    (chunk * DELTA_MS) as i64
}

/// The level-0 records a whole-stream export carries, in chunk order.
fn exported_leaves(server: &TimeCryptServer, stream: u128) -> Vec<(Vec<u8>, Vec<u8>)> {
    let (records, done) = server
        .export_stream(stream, &[], EXPORT_PAGE_BYTES)
        .unwrap();
    assert!(done, "one page");
    let leaf = |(key, _): &(Vec<u8>, Vec<u8>)| key.starts_with(keys::LEAF);
    records.into_iter().filter(leaf).collect()
}

/// The records a stream of chunks `sent` is stored as, in chunk order:
/// the stream's running sum through each, its words alone, then the kind
/// byte of a chunk and the chunk's payload.
fn stored_forms(sent: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut sum: Option<Vec<u64>> = None;
    let stored = |bytes: &Vec<u8>| {
        let chunk = EncryptedChunk::from_bytes(bytes).unwrap();
        let sum = sum.get_or_insert_with(|| vec![0; chunk.digest_ct.len()]);
        let words = sum.iter_mut().zip(&chunk.digest_ct);
        words.for_each(|(s, d)| *s = s.wrapping_add(*d));
        let mut record: Vec<u8> = sum.iter().flat_map(|w| w.to_le_bytes()).collect();
        record.push(0x01);
        record.extend_from_slice(&chunk.payload);
        record
    };
    sent.iter().map(stored).collect()
}

/// Chunk `index`'s record as the store holds it, under its key.
fn stored(kv: &dyn KvStore, stream: u128, index: u64) -> (Vec<u8>, Vec<u8>) {
    let key = keys::leaf(stream, index).to_vec();
    let record = kv.get(&key).unwrap().unwrap();
    (key, record)
}

/// A stream of `payloads.len()` chunks of digest width `width`, ingested
/// as one run and attested by its owner: the engine, the bytes it was
/// handed, and the owner's key.
struct Attested {
    server: Arc<TimeCryptServer>,
    stream: u128,
    sent: Vec<Vec<u8>>,
    key: SigningKey,
}

fn attested(d: &Deployment, stream: u128, width: usize, payloads: &[Vec<u8>]) -> Attested {
    let server = d.engine();
    server
        .create_stream(stream, 0, DELTA_MS, width as u32)
        .unwrap();
    let mut rng = SecureRandom::from_seed_insecure(width as u64 + 1);
    let key = SigningKey::generate(&mut rng);
    let mut owner = StreamLedger::new(stream);
    let mut sent = Vec::new();
    for (index, payload) in (0u64..).zip(payloads) {
        let chunk = EncryptedChunk {
            stream,
            index,
            digest_ct: (0..width as u64)
                .map(|w| (index + 1).wrapping_mul(w + 3))
                .collect(),
            payload: payload.clone(),
        };
        sent.push(chunk.to_bytes());
        owner
            .append(chunk_commitment(&sent[index as usize]), chunk.digest_ct)
            .unwrap();
    }
    let views: Vec<&[u8]> = sent.iter().map(Vec::as_slice).collect();
    assert!(server.insert_bytes_run(&views).iter().all(Result::is_ok));
    let attestation = owner.attest(&key, &mut rng);
    server
        .put_attestation(stream, &attestation.encode())
        .unwrap();
    Attested {
        server,
        stream,
        sent,
        key,
    }
}

impl Attested {
    fn n(&self) -> u64 {
        self.sent.len() as u64
    }

    /// `GetRange` over chunks `[lo, hi)` as the wire returns it.
    fn read(&self, lo: u64, hi: u64) -> Result<Vec<Vec<u8>>, Refusal> {
        let (stream, ts_s, ts_e) = (self.stream, ts(lo), ts(hi));
        match self.server.handle(Request::GetRange { stream, ts_s, ts_e }) {
            Response::Chunks(chunks) => Ok(chunks),
            Response::Error(e) => Err(e),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The plain range proof over `[lo, hi)`, as its bytes; verified.
    fn proof(&self, lo: u64, hi: u64) -> (Vec<u8>, Vec<u8>) {
        let (att, proof) = self
            .server
            .get_range_proof(self.stream, ts(lo), ts(hi))
            .unwrap();
        let (a, p) = (
            RootAttestation::decode(&att).unwrap(),
            RangeProof::decode(&proof).unwrap(),
        );
        let (vk, window) = (self.key.verifying_key(), (lo as usize, hi as usize));
        verify_attested_range(self.stream, &a, &vk, &p, window.0, window.1).unwrap();
        (att, proof)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any width, any payload length — the 32-byte payload that makes a
    /// full record exactly stub-sized included — any stream, every index:
    /// all three raw readers return the ingested bytes, the verified read's
    /// authenticated commitments are `chunk_commitment(ingested)`, and the
    /// store holds a record per chunk. Then a `delete_range` stubs a
    /// sub-range, and nothing but raw reads of it notices.
    #[test]
    fn raw_readers_return_the_ingested_bytes(
        stream in any::<u128>(),
        width in 0usize..=32,
        lens in proptest::collection::vec(prop_oneof![0usize..=2048, Just(32usize)], 1..6),
        fill in any::<u8>(),
        cut in (0u64..6, 0u64..6),
    ) {
        let payloads: Vec<Vec<u8>> = (0u8..)
            .zip(&lens)
            .map(|(i, &len)| (0..len).map(|b| fill ^ i ^ b as u8).collect())
            .collect();
        let d = Deployment::build(&Spec::engine());
        let (a, kv) = (attested(&d, stream, width, &payloads), d.log(0));
        let n = a.n();

        let forms = stored_forms(&a.sent);
        for (index, form) in (0u64..).zip(&forms) {
            let record = kv.get(&keys::leaf(stream, index)).unwrap().unwrap();
            prop_assert_eq!(&record, form);
        }
        prop_assert_eq!(&a.read(0, n).unwrap(), &a.sent);
        let leaves = (0..n).map(|i| keys::leaf(stream, i).to_vec()).zip(forms.clone());
        prop_assert_eq!(exported_leaves(&a.server, stream), leaves.collect::<Vec<_>>());
        let (att, proof, chunks) = a.server.get_verified_range(stream, 0, ts(n)).unwrap();
        prop_assert_eq!(&chunks, &a.sent);
        let leaves = verify_attested_range_open(
            stream,
            &RootAttestation::decode(&att).unwrap(),
            &a.key.verifying_key(),
            &RangeProof::decode(&proof).unwrap(),
            0,
            n as usize,
        )
        .unwrap();
        for (leaf, sent) in leaves.iter().zip(&a.sent) {
            prop_assert_eq!(leaf.commitment, chunk_commitment(sent));
        }

        // Stub `[lo, hi)`, counted once.
        let (lo, hi) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
        let stat = a.server.get_stat_range(&[stream], 0, ts(n)).unwrap();
        let proofs = (a.proof(0, n), a.proof(lo.min(n - 1), n));
        let stubbed = a.server.delete_range(stream, ts(lo), ts(hi)).unwrap();
        prop_assert_eq!(stubbed as u64, hi - lo);
        for index in lo..hi {
            let stub = kv.get(&keys::leaf(stream, index)).unwrap().unwrap();
            let mut expected = forms[index as usize][..8 * width].to_vec();
            expected.push(0x02);
            expected.extend_from_slice(&chunk_commitment(&a.sent[index as usize]));
            prop_assert_eq!(stub, expected);
        }
        // Raw reads skip or refuse the stubs, an export carries them ...
        let kept: Vec<Vec<u8>> = (0..n)
            .filter(|i| !(lo..hi).contains(i))
            .map(|i| a.sent[i as usize].clone())
            .collect();
        prop_assert_eq!(&a.read(0, n).unwrap(), &kept);
        let records: Vec<_> = (0..n).map(|i| stored(kv.as_ref(), stream, i)).collect();
        prop_assert_eq!(exported_leaves(&a.server, stream), records);
        match a.server.get_verified_range(stream, 0, ts(n)) {
            Ok((_, _, chunks)) => prop_assert_eq!((&chunks, lo), (&a.sent, hi)),
            Err(e) => {
                prop_assert!(lo < hi);
                prop_assert_eq!(
                    e.to_string(),
                    "integrity: chunk payload deleted; raw completeness unprovable"
                );
            }
        }
        // ... and statistics and proofs are what they were, byte for byte,
        // from the ledger built off full records and, after an eviction,
        // from one rebuilt off the stubs' kept commitments.
        for evict in [false, true] {
            if evict {
                prop_assert_eq!(a.server.evict_idle_streams(), 1);
            }
            prop_assert_eq!(&a.server.get_stat_range(&[stream], 0, ts(n)).unwrap(), &stat);
            prop_assert_eq!(&(a.proof(0, n), a.proof(lo.min(n - 1), n)), &proofs);
        }
    }

    /// Arbitrary bytes where a level-0 record should be: mutations of a
    /// full record whose payload is 32 bytes, of the stub beside it — the
    /// same length, told apart by the kind byte alone — and of chunk 1 in
    /// the form records had before they dropped the two length prefixes
    /// (truncated, extended, a prefix's worth of bytes overwritten, the
    /// kind byte set, a byte flipped), and plain noise. What is neither
    /// form is `CorruptNode` at level 0 for every reader — no panic; what
    /// is a form reads as one.
    #[test]
    fn the_record_decoder_refuses_what_is_neither_form(
        base in 0usize..4,
        mutation in 0usize..6,
        at in any::<usize>(),
        value in any::<u32>(),
        noise in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let d = Deployment::build(&Spec::engine());
        let payloads = vec![vec![7u8; 5], vec![8u8; 32], vec![9u8; 40]];
        let (a, kv) = (attested(&d, 77, 3, &payloads), d.log(0));
        a.server.delete_range(77, ts(2), ts(3)).unwrap();
        // Chunk 1 takes the damage: a full record, the stub, the old form
        // or noise.
        let mut record = match base {
            0 => kv.get(&keys::leaf(77, 1)).unwrap().unwrap(),
            1 => kv.get(&keys::leaf(77, 2)).unwrap().unwrap(),
            2 => old_form(&stored(kv.as_ref(), 77, 1).1, 3),
            _ => noise.clone(),
        };
        match mutation {
            0 => record.truncate(at % (record.len() + 1)),
            1 => record.extend_from_slice(&noise),
            2 if record.len() >= 4 => record[..4].copy_from_slice(&value.to_le_bytes()),
            3 if record.len() >= 32 => record[28..32].copy_from_slice(&value.to_le_bytes()),
            4 if record.len() > 24 => record[24] = value as u8,
            5 if !record.is_empty() => {
                let at = at % record.len();
                record[at] ^= 1 + (value % 255) as u8;
            }
            _ => {}
        }
        kv.put(&keys::leaf(77, 1), &record).unwrap();

        // The stream's width is 3: a sum of 24 bytes, then the kind.
        let full = record.get(24) == Some(&0x01);
        let stub = record.get(24) == Some(&0x02) && record.len() == 24 + 1 + 32;
        let readable = full || stub;
        let corrupt = |e: &ServerError| {
            matches!(e, ServerError::Index(IndexError::CorruptNode { level: 0, index: 1 }))
        };
        match a.server.get_range(77, 0, ts(3)) {
            Ok(chunks) if full => {
                let before = words(&stored(kv.as_ref(), 77, 0).1[..24]);
                let own = words(&record[..24]).into_iter().zip(before);
                let chunk = EncryptedChunk {
                    stream: 77,
                    index: 1,
                    digest_ct: own.map(|(s, b)| s.wrapping_sub(b)).collect(),
                    payload: record[25..].to_vec(),
                };
                prop_assert_eq!(&chunks[1], &chunk.to_bytes());
            }
            Ok(chunks) => prop_assert!(readable && stub && chunks.len() == 1),
            Err(e) => prop_assert!(!readable && corrupt(&e), "{e}"),
        }
        // An export copies records, whatever they hold.
        prop_assert_eq!(&exported_leaves(&a.server, 77)[1], &stored(kv.as_ref(), 77, 1));
        // So does the ledger catch-up; what it accepts is the server's
        // claim, for the client to verify.
        match a.server.get_range_proof(77, 0, ts(3)) {
            Ok(_) => prop_assert!(readable),
            Err(e) => prop_assert!(!readable && corrupt(&e), "{e}"),
        }
        match a.server.get_verified_range(77, 0, ts(2)) {
            Ok(_) => prop_assert!(readable && full),
            Err(e) if readable => {
                let deleted = "chunk payload deleted; raw completeness unprovable";
                let deleted = matches!(&e, ServerError::Integrity(m) if m == deleted);
                prop_assert!(stub && deleted, "{e}")
            }
            Err(e) => prop_assert!(corrupt(&e), "{e}"),
        }
        // Decay stubs nothing of a range it cannot read all of.
        match a.server.delete_range(77, 0, ts(3)) {
            Ok(stubbed) => prop_assert_eq!(stubbed, 1 + full as usize),
            Err(e) => prop_assert!(!readable && corrupt(&e), "{e}"),
        }
        let chunk0_kept = a.read(0, 1).is_ok_and(|chunks| chunks.len() == 1);
        prop_assert_eq!(chunk0_kept, !readable);
    }
}

/// Little-endian words.
fn words(bytes: &[u8]) -> Vec<u64> {
    let (words, _) = bytes.as_chunks::<8>();
    words.iter().map(|w| u64::from_le_bytes(*w)).collect()
}

/// `record`, a record of a stream of width `width`, in the form records had
/// before they dropped the two length prefixes: `u32 width ‖ sum ‖ u32 pn ‖
/// payload`, or a stub's `… ‖ 0xFFFF_FFFF ‖ commitment[32]`.
fn old_form(record: &[u8], width: usize) -> Vec<u8> {
    let (sum, rest) = record.split_at(8 * width);
    let (kind, body) = rest.split_first().unwrap();
    let pn = match kind {
        0x01 => body.len() as u32,
        _ => u32::MAX,
    };
    [
        &(width as u32).to_le_bytes()[..],
        sum,
        &pn.to_le_bytes(),
        body,
    ]
    .concat()
}

/// A record in the old form is `CorruptNode` where it is read, a full one
/// and a stub: the byte where the kind now lies is the fifth of the old
/// sum's last word, zero for this stream's sums — no kind. (That byte is
/// any byte for large sums; the store's format version, `TCLOG4`, is what
/// refuses a store written in the old form whole.)
#[test]
fn a_record_in_the_old_form_is_corrupt_node() {
    let d = Deployment::build(&Spec::engine());
    let payloads = vec![vec![7u8; 5], vec![8u8; 32], vec![9u8; 40]];
    let (a, kv) = (attested(&d, 77, 3, &payloads), d.log(0));
    a.server.delete_range(77, ts(2), ts(3)).unwrap();
    for index in [1, 2] {
        let (key, record) = stored(kv.as_ref(), 77, index);
        kv.put(&key, &old_form(&record, 3)).unwrap();
        let err = a.server.get_range(77, 0, ts(3)).unwrap_err();
        assert!(
            matches!(err, ServerError::Index(IndexError::CorruptNode { level: 0, index: at }) if at == index),
            "chunk {index}: {err}"
        );
        kv.put(&key, &record).unwrap();
    }
}

/// What the store holds and writes per chunk at one shape — six chunks,
/// four stubbed, then the same `delete_range` again — as rows of
/// `BENCH_ledger.json`: records per chunk beside the stream's meta record
/// and attestation, puts per stubbed chunk, and the second call's puts.
/// (A crash inside the stubbing batch is `tests/crash_sweep.rs`'s.)
#[test]
fn a_delete_range_puts_one_stub_per_chunk_and_nothing_when_repeated() {
    let d = Deployment::build(&Spec::engine());
    let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 20 + i as usize]).collect();
    let (a, log) = (attested(&d, 5, 2, &payloads), d.log(0));
    let puts = log.counters().puts;
    assert_eq!(a.server.delete_range(5, ts(1), ts(5)).unwrap(), 4);
    let stubs = log.counters().puts - puts;
    assert_eq!(a.server.delete_range(5, ts(1), ts(5)).unwrap(), 0);
    let row = |name: &str, n: u64, of: u64| {
        let value = format!("{:.2}", n as f64 / of as f64);
        (format!("one_record.{name}"), value)
    };
    common::ledger(&[
        row("records_per_chunk", log.len() as u64 - 2, 6),
        row("store_puts_per_stubbed_chunk", stubs, 4),
        row(
            "store_puts_per_repeated_delete_range",
            log.counters().puts - puts - stubs,
            1,
        ),
    ]);
}
