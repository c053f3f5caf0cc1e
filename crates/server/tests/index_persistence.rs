//! Engine-level checks of the index persistence: a run is one store
//! commit, so a store fault fails it whole — nothing stored, nothing
//! published — and a retry converges on the clean history; a cold stream's
//! length comes from key probes alone; `delete_stream` leaves no index
//! residue (stored or resident); rollup keeps its contract across a
//! rehydration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_server::{ServerConfig, ServerError, TimeCryptServer};
use timecrypt_store::{KvPairs, KvStore, LogKv, MemKv, MeteredKv, StoreError, WriteOp};

const DELTA_MS: u64 = 10_000;

fn seal(stream: u128, index: u64) -> Vec<u8> {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(stream, "m", 0, DELTA_MS)
    };
    let km = StreamKeyMaterial::with_params(stream, [stream as u8; 16], 20, PrgKind::Aes).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(stream as u64 * 1000 + index);
    PlainChunk {
        stream,
        index,
        points: vec![DataPoint::new(index as i64 * DELTA_MS as i64, index as i64)],
    }
    .seal(&cfg, &km, &mut rng)
    .unwrap()
    .to_bytes()
}

fn engine(kv: Arc<dyn KvStore>, streams: &[u128]) -> TimeCryptServer {
    let server = TimeCryptServer::open(kv, ServerConfig::default()).unwrap();
    for &stream in streams {
        server.create_stream(stream, 0, DELTA_MS, 2).unwrap();
    }
    server
}

type Verdicts = Vec<Result<(), ServerError>>;

fn insert_run(server: &TimeCryptServer, stream: u128, chunks: std::ops::Range<u64>) -> Verdicts {
    let bytes: Vec<Vec<u8>> = chunks.map(|i| seal(stream, i)).collect();
    let views: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
    server.insert_bytes_run(&views)
}

fn all_ok(verdicts: Verdicts) -> bool {
    verdicts.iter().all(Result::is_ok)
}

/// Every `[a, b)` statistical reply over `n` chunks of `stream`.
fn all_stats(server: &TimeCryptServer, stream: u128, n: u64) -> Vec<Vec<u64>> {
    let ts = |i: u64| (i * DELTA_MS) as i64;
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..=n {
            let reply = server.get_stat_range(&[stream], ts(a), ts(b)).unwrap();
            assert_eq!(reply.parts, vec![(stream, a, b)]);
            out.push(reply.agg);
        }
    }
    out
}

fn dump(kv: &dyn KvStore) -> KvPairs {
    let mut all = kv.scan_prefix(b"").unwrap();
    all.sort();
    all
}

/// A [`MemKv`] whose write number `fail_at` (counted from 1; a batch is
/// one write, applied whole or not at all) fails.
#[derive(Default)]
struct FailNthPut {
    inner: MemKv,
    writes: AtomicU64,
    fail_at: AtomicU64,
}

impl KvStore for FailNthPut {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.write_batch(&[WriteOp::Put { key, value }])
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        self.inner.scan_prefix(prefix)
    }
    fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.fail_at.load(Ordering::Relaxed) {
            return Err(StoreError::Corrupt("injected write failure"));
        }
        self.inner.write_batch(ops)
    }
}

#[test]
fn store_fault_fails_the_run_whole_and_retry_converges() {
    let clean_kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let clean = engine(clean_kv.clone(), &[1]);
    assert!(all_ok(insert_run(&clean, 1, 0..9)));
    let want = all_stats(&clean, 1, 9);
    // Chunks 3..9 on top of 0..3 are one commit: six level-0 records (the
    // chunks, each with its running sum). Fail it.
    let kv = Arc::new(FailNthPut::default());
    let server = engine(kv.clone(), &[1]);
    assert!(all_ok(insert_run(&server, 1, 0..3)));
    let before = (all_stats(&server, 1, 3), dump(kv.as_ref()));
    let writes = kv.writes.load(Ordering::Relaxed);
    kv.fail_at.store(writes + 1, Ordering::Relaxed);
    let verdicts = insert_run(&server, 1, 3..9);
    assert!(matches!(verdicts[0], Err(ServerError::Index(_))));
    assert!(verdicts[1..]
        .iter()
        .all(|v| matches!(v, Err(ServerError::Unavailable(_)))));
    assert_eq!(kv.writes.load(Ordering::Relaxed), writes + 1, "one commit");
    // Nothing stored, nothing published — resident or after a cold
    // rehydration.
    assert_eq!(dump(kv.as_ref()), before.1);
    assert_eq!(server.stream_info(1).unwrap().len, 3);
    assert_eq!(all_stats(&server, 1, 3), before.0);
    server.evict_idle_streams();
    assert_eq!(server.stream_info(1).unwrap().len, 3);
    assert_eq!(all_stats(&server, 1, 3), before.0);
    assert!(all_ok(insert_run(&server, 1, 3..9)), "retry");
    assert_eq!(all_stats(&server, 1, 9), want);
    assert_eq!(dump(kv.as_ref()), dump(clean_kv.as_ref()));
}

#[test]
fn cold_stream_length_is_a_few_key_probes() {
    const CHUNKS: u64 = 5_000;
    let path = std::env::temp_dir().join(format!("tc-cold-len-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let metered = Arc::new(MeteredKv::new(Arc::new(LogKv::open(&path).unwrap())));
    let server = engine(metered.clone(), &[1]);
    let chunk = |index| timecrypt_chunk::serialize::EncryptedChunk {
        stream: 1,
        index,
        digest_ct: vec![index, 1],
        payload: vec![7; 40],
    };
    for base in (0..CHUNKS).step_by(500) {
        let bytes: Vec<Vec<u8>> = (base..base + 500).map(|i| chunk(i).to_bytes()).collect();
        let views: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        assert!(all_ok(server.insert_bytes_run(&views)));
    }
    assert_eq!(server.evict_idle_streams(), 1);
    let before = metered.counters();
    assert_eq!(server.stream_info(1).unwrap().len, CHUNKS);
    let after = metered.counters();
    assert_eq!(server.residency().resident, 0, "the length did not hydrate");
    assert_eq!(
        (
            after.gets - before.gets,
            after.bytes_read - before.bytes_read
        ),
        (0, 0)
    );
    let calls = after.scans - before.scans;
    assert!(calls <= 30, "{calls} store calls for one length");
    drop(server);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn delete_stream_leaves_no_index_residue() {
    let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let server = engine(kv.clone(), &[1, 2]);
    let only_stream_2 = {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        assert!(all_ok(insert_run(&engine(kv.clone(), &[2]), 2, 0..7)));
        dump(kv.as_ref())
    };
    assert!(all_ok(insert_run(&server, 1, 0..22)));
    assert!(all_ok(insert_run(&server, 2, 0..7)));
    server.delete_stream(1).unwrap();
    // Level-0 records, payloads and running sums: all gone.
    assert_eq!(dump(kv.as_ref()), only_stream_2);
    // No resident running sum either: the recreated stream starts empty and
    // answers for its new history only.
    server.create_stream(1, 0, DELTA_MS, 2).unwrap();
    assert_eq!(server.stream_info(1).unwrap().len, 0);
    assert!(all_ok(insert_run(&server, 1, 0..5)));
    let fresh = engine(Arc::new(MemKv::new()), &[1]);
    assert!(all_ok(insert_run(&fresh, 1, 0..5)));
    assert_eq!(all_stats(&server, 1, 5), all_stats(&fresh, 1, 5));
}

#[test]
fn rollup_keeps_its_contract_across_rehydration() {
    let server = engine(Arc::new(MemKv::new()), &[1]);
    assert!(all_ok(insert_run(&server, 1, 0..140)));
    let ts = |i: u64| (i * DELTA_MS) as i64;
    let full = server.get_stat_range(&[1], 0, ts(140)).unwrap();
    let coarse = server.get_stat_range(&[1], 0, ts(128)).unwrap();
    // Level 1 before chunk 128: two 64-chunk nodes.
    assert_eq!(server.rollup(1, ts(130), 2).unwrap(), 2);
    for rehydrated in [false, true] {
        if rehydrated {
            server.evict_idle_streams();
        }
        assert_eq!(server.get_stat_range(&[1], 0, ts(140)).unwrap(), full);
        assert_eq!(server.get_stat_range(&[1], 0, ts(128)).unwrap(), coarse);
        assert!(matches!(
            server.get_stat_range(&[1], 0, ts(1)),
            Err(ServerError::RangeDecayed { level: 1, index: 0 })
        ));
        // Past the cutoff, full resolution stays.
        assert!(server.get_stat_range(&[1], ts(129), ts(130)).is_ok());
        assert!(server.get_stat_range(&[1], ts(138), ts(140)).is_ok());
    }
    // The rehydrated stream keeps growing.
    assert!(all_ok(insert_run(&server, 1, 140..160)));
    assert_eq!(
        server.get_stat_range(&[1], 0, ts(160)).unwrap().parts,
        vec![(1, 0, 160)]
    );
}
