//! Deterministic hydration-cost guard (ROADMAP aim 1: gate the counters
//! that don't jitter), next to `write_amplification.rs`. A resident stream
//! is its length and its running sum, not its history: the first touch of
//! a cold stream finds the length by key probes and reads one record, the
//! last, whose running sum answers every query that ends at the stream's
//! end — one get whatever `n`. And the integrity ledger is a cache only
//! proof requests fill: ingest and statistical queries never read a
//! level-0 record back for it.
//!
//! Byte model at digest width 4: a level-0 record is the chunk without its
//! position, its digest the running sum — 36 B, then the body, 4 + payload
//! (48 B with this file's 8 B payloads). A stream's first proof reads —
//! and hashes — every attested record whole: `n` gets, `Σ record bytes`.

use std::sync::Arc;
use timecrypt::chunk::serialize::EncryptedChunk;
use timecrypt::integrity::{
    chunk_commitment, verify_attested_range, RangeProof, RootAttestation, StreamLedger,
};
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::store::{KvStore, MemKv, MeteredKv};

const WIDTH: usize = 4;
const DELTA_MS: u64 = 10_000;
const PAYLOAD: usize = 8;
/// A level-0 record: the encoded digest, then `pn ‖ payload`.
const RECORD: u64 = (4 + 8 * WIDTH + 4 + PAYLOAD) as u64;

fn chunk(stream: u128, index: u64) -> Vec<u8> {
    EncryptedChunk {
        stream,
        index,
        digest_ct: vec![index; WIDTH],
        payload: vec![stream as u8; PAYLOAD],
    }
    .to_bytes()
}

/// Ingests chunks `range` of `stream` in runs of 500.
fn ingest(server: &TimeCryptServer, stream: u128, range: std::ops::Range<u64>) {
    let chunks: Vec<Vec<u8>> = range.map(|index| chunk(stream, index)).collect();
    for run in chunks.chunks(500) {
        let views: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
        assert!(server.insert_bytes_run(&views).iter().all(Result::is_ok));
    }
}

#[test]
fn first_touch_reads_one_record_not_the_history() {
    // The same reads at every length: the length probes (key scans, and
    // one prefix scan for the decay cutoffs) and the last record.
    for n in [10_000u64, 20_000, 40_000] {
        let base: Arc<dyn KvStore> = Arc::new(MemKv::new());
        {
            let seeder = TimeCryptServer::open(base.clone(), ServerConfig::default()).unwrap();
            seeder.create_stream(1, 0, DELTA_MS, WIDTH as u32).unwrap();
            ingest(&seeder, 1, 0..n);
        }
        let metered = Arc::new(MeteredKv::new(base));
        let server = TimeCryptServer::open(metered.clone(), ServerConfig::default()).unwrap();
        let before = metered.counters();
        let reply = server
            .get_stat_range(&[1], 0, (n * DELTA_MS) as i64)
            .unwrap();
        let after = metered.counters();
        assert_eq!(reply.parts, vec![(1, 0, n)]);
        assert_eq!(reply.agg, vec![n * (n - 1) / 2; WIDTH]);
        let (gets, bytes) = (
            after.gets - before.gets,
            after.bytes_read - before.bytes_read,
        );
        assert_eq!((gets, bytes), (1, RECORD), "{n} chunks");
        let probes = after.scans - before.scans;
        assert!(
            probes <= 2 * n.ilog2() as u64 + 3,
            "{n} chunks: {probes} scans"
        );
        // The handle it built answers like one that never closed.
        let (lo, hi) = (n / 3, n - 7);
        let reply = server
            .get_stat_range(&[1], (lo * DELTA_MS) as i64, (hi * DELTA_MS) as i64)
            .unwrap();
        assert_eq!(reply.agg, vec![(lo..hi).sum::<u64>(); WIDTH]);
    }
}

/// The one test in this binary that requests proofs: the counter it reads
/// is per process.
#[test]
fn only_proof_requests_fill_the_ledger_and_eviction_drops_it() {
    let loaded = || timecrypt_obs::counters::LEDGER_LEAVES.get();
    let loaded_bytes = || timecrypt_obs::counters::LEDGER_BYTES.get();
    let kv = Arc::new(MeteredKv::new(Arc::new(MemKv::new())));
    let server = TimeCryptServer::open(
        kv.clone(),
        ServerConfig {
            max_resident_streams: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut rng = timecrypt::crypto::SecureRandom::from_seed_insecure(5);
    let key = timecrypt::pk::SigningKey::generate(&mut rng);
    let mut owner = StreamLedger::new(1);
    // Ingests `range`, mirrors it in the owner's ledger and attests.
    let mut upload = |range: std::ops::Range<u64>| {
        ingest(&server, 1, range.clone());
        for index in range {
            let commitment = chunk_commitment(&chunk(1, index));
            owner.append(commitment, vec![index; WIDTH]).unwrap();
        }
        let att = owner.attest(&key, &mut rng);
        server.put_attestation(1, &att.encode()).unwrap();
    };
    let prove = |lo: u64, hi: u64| -> Vec<u64> {
        let (att, proof) = server
            .get_range_proof(1, (lo * DELTA_MS) as i64, (hi * DELTA_MS) as i64)
            .unwrap();
        let att = RootAttestation::decode(&att).unwrap();
        let proof = RangeProof::decode(&proof).unwrap();
        assert_eq!((proof.lo as u64, proof.hi as u64), (lo, hi));
        verify_attested_range(1, &att, &key.verifying_key(), &proof).unwrap()
    };
    for stream in [1, 2] {
        server
            .create_stream(stream, 0, DELTA_MS, WIDTH as u32)
            .unwrap();
    }
    let (start, start_bytes) = (loaded(), loaded_bytes());

    // Ingest and statistical queries, across an eviction and a
    // rehydration: no ledger.
    upload(0..300);
    ingest(&server, 2, 0..1);
    let stat = |stream, chunks: u64| {
        server
            .get_stat_range(&[stream], 0, (chunks * DELTA_MS) as i64)
            .unwrap()
    };
    assert_eq!(stat(1, 300).agg, vec![(0..300).sum::<u64>(); WIDTH]);
    assert!(server.residency().evictions >= 2, "the cap of 1 churned");
    assert_eq!(loaded() - start, 0);

    // The first proof catches up from zero to the attested size — one get
    // per attested record, whole, next to the attestation's — and the next
    // one finds the ledger there.
    let reads = |f: &dyn Fn()| {
        let before = kv.counters();
        f();
        let after = kv.counters();
        assert_eq!(after.scans, before.scans);
        (
            after.gets - before.gets,
            after.bytes_read - before.bytes_read,
        )
    };
    let attestation = server.get_attestation(1).unwrap().len() as u64;
    let first = reads(&|| assert_eq!(prove(10, 200), vec![(10..200).sum::<u64>(); WIDTH]));
    assert_eq!(first, (1 + 300, attestation + 300 * RECORD));
    assert_eq!(loaded() - start, 300);
    assert_eq!(loaded_bytes() - start_bytes, 300 * RECORD);
    let second = reads(&|| assert_eq!(prove(0, 300), vec![(0..300).sum::<u64>(); WIDTH]));
    assert_eq!(second, (1, attestation));
    assert_eq!(loaded() - start, 300);

    // Ingest does not extend it; the next proof tops up what was added.
    upload(300..350);
    assert_eq!(loaded() - start, 300);
    assert_eq!(prove(290, 350), vec![(290..350).sum::<u64>(); WIDTH]);
    assert_eq!(loaded() - start, 350);

    // Touching stream 2 evicts stream 1 (cap 1) and its ledger with it:
    // the next proof starts from zero again.
    let evictions = server.residency().evictions;
    stat(2, 1);
    assert_eq!(server.residency().evictions, evictions + 1);
    assert_eq!(prove(0, 350), vec![(0..350).sum::<u64>(); WIDTH]);
    assert_eq!(loaded() - start, 700);
    assert_eq!(loaded_bytes() - start_bytes, 700 * RECORD);
}
