//! Engine-level checks of the write-once index persistence: a store fault
//! inside a run publishes nothing and a retry converges on the clean
//! history; `delete_stream` leaves no index residue (stored or resident);
//! rollup keeps its contract on sealed nodes across a rehydration.
//! Arity 4, so short histories cross seal and growth boundaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_server::{ServerConfig, ServerError, TimeCryptServer};
use timecrypt_store::{KvPairs, KvStore, MemKv, StoreError};

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
    let cfg = ServerConfig {
        arity: 4,
        ..ServerConfig::default()
    };
    let server = TimeCryptServer::open(kv, cfg).unwrap();
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

/// A [`MemKv`] whose put number `fail_at` (counted from 1) fails.
#[derive(Default)]
struct FailNthPut {
    inner: MemKv,
    puts: AtomicU64,
    fail_at: AtomicU64,
}

impl KvStore for FailNthPut {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let n = self.puts.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.fail_at.load(Ordering::Relaxed) {
            return Err(StoreError::Corrupt("injected put failure"));
        }
        self.inner.put(key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.delete(key)
    }
    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        self.inner.scan_prefix(prefix)
    }
}

#[test]
fn store_fault_inside_the_index_append_publishes_nothing_and_retry_converges() {
    let clean_kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
    let clean = engine(clean_kv.clone(), &[1]);
    assert!(all_ok(insert_run(&clean, 1, 0..9)));
    let want = all_stats(&clean, 1, 9);
    // Chunks 3..9 on top of 0..3: six payload puts, then the index append
    // (6 level-0 records, sealed nodes (1,0) and (1,1), the length record).
    // Fail each of the append's 9 puts in turn.
    for nth in 7..=15 {
        let kv = Arc::new(FailNthPut::default());
        let server = engine(kv.clone(), &[1]);
        assert!(all_ok(insert_run(&server, 1, 0..3)));
        let before = all_stats(&server, 1, 3);
        kv.fail_at
            .store(kv.puts.load(Ordering::Relaxed) + nth, Ordering::Relaxed);
        let verdicts = insert_run(&server, 1, 3..9);
        assert!(
            matches!(verdicts[0], Err(ServerError::Index(_))),
            "put {nth}"
        );
        assert!(verdicts[1..]
            .iter()
            .all(|v| matches!(v, Err(ServerError::Unavailable(_)))));
        // Nothing published — resident or after a cold rehydration.
        assert_eq!(server.stream_info(1).unwrap().len, 3);
        assert_eq!(all_stats(&server, 1, 3), before);
        server.evict_idle_streams();
        assert_eq!(all_stats(&server, 1, 3), before);
        assert!(all_ok(insert_run(&server, 1, 3..9)), "retry");
        assert_eq!(all_stats(&server, 1, 9), want, "put {nth}");
        assert_eq!(dump(kv.as_ref()), dump(clean_kv.as_ref()), "put {nth}");
    }
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
    // Payloads, level-0 records, sealed nodes, length record: all gone.
    assert_eq!(dump(kv.as_ref()), only_stream_2);
    // No resident frontier either: the recreated stream starts empty and
    // answers for its new history only.
    server.create_stream(1, 0, DELTA_MS, 2).unwrap();
    assert_eq!(server.stream_info(1).unwrap().len, 0);
    assert!(all_ok(insert_run(&server, 1, 0..5)));
    let fresh = engine(Arc::new(MemKv::new()), &[1]);
    assert!(all_ok(insert_run(&fresh, 1, 0..5)));
    assert_eq!(all_stats(&server, 1, 5), all_stats(&fresh, 1, 5));
}

#[test]
fn rollup_keeps_its_contract_on_sealed_nodes_across_rehydration() {
    let server = engine(Arc::new(MemKv::new()), &[1]);
    assert!(all_ok(insert_run(&server, 1, 0..70)));
    let ts = |i: u64| (i * DELTA_MS) as i64;
    let full = server.get_stat_range(&[1], 0, ts(70)).unwrap();
    let coarse = server.get_stat_range(&[1], 0, ts(16)).unwrap();
    assert!(server.rollup(1, ts(32), 2).unwrap() > 0);
    for rehydrated in [false, true] {
        if rehydrated {
            server.evict_idle_streams();
        }
        assert_eq!(server.get_stat_range(&[1], 0, ts(70)).unwrap(), full);
        assert_eq!(server.get_stat_range(&[1], 0, ts(16)).unwrap(), coarse);
        assert!(matches!(
            server.get_stat_range(&[1], 0, ts(1)),
            Err(ServerError::RangeDecayed { level: 1, index: 0 })
        ));
        // Past the cutoff, and in the open frontier, full resolution stays.
        assert!(server.get_stat_range(&[1], ts(33), ts(34)).is_ok());
        assert!(server.get_stat_range(&[1], ts(68), ts(70)).is_ok());
    }
    // The rehydrated stream keeps growing across the next seals.
    assert!(all_ok(insert_run(&server, 1, 70..90)));
    assert_eq!(
        server.get_stat_range(&[1], 0, ts(90)).unwrap().parts,
        vec![(1, 0, 90)]
    );
}
