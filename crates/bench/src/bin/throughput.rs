//! Service-tier throughput as a function of shard count.
//!
//! Ingests `STREAMS × CHUNKS` pre-sealed chunks through the batched ingest
//! pipeline with `PRODUCERS` submitter threads, then fires multi-stream
//! scatter-gather statistical queries, for each shard count in the sweep.
//! Emits one JSON object per configuration on stdout so future PRs have a
//! machine-readable perf trajectory to compare against.
//!
//! The store behind the shards is a [`LatencyKv`] modelling a remote
//! storage tier (the paper's DevOps deployment runs Cassandra on a separate
//! machine, §6): with per-operation storage latency, shard workers overlap
//! their storage waits, so throughput scales with shard count even on a
//! single core. Set `TC_STORE_LAT_US=0` for the co-located (CPU-bound)
//! variant.
//!
//! A second phase measures the **mixed read/write workload** on a *single
//! shard*: one ingest thread hammers a hot stream while `T` query threads
//! fire scatter-gather statistical queries at the same shard, for each `T`
//! in a sweep. Before the read-path lock split, every reader serialized
//! behind the hot stream's ingest lock and `query_ops_s` stayed flat (or
//! sank) with more query threads; with the split it scales.
//!
//! The **remote** phase reruns the ingest+query workload against a
//! real multi-node cluster on loopback TCP: one `ShardNode` process-alike
//! per shard (each over its own latency-modelled store) behind a
//! coordinator with a remote topology. Comparing `service_throughput` and
//! `remote_throughput` rows at the same shard count isolates the wire
//! cost (framing + pipelining + pooled connections) of scaling out.
//!
//! The **failover/rebuild** phase runs a replicated loopback shard
//! (primary + backup nodes, R=2) and kills the primary mid-ingest:
//! promotion latency is the wall time until a write is acknowledged
//! again, rebuild time is `attach_replica` → the replacement verified in
//! sync, and a final query sweep measures throughput once the shard is
//! back at R=2.
//!
//! Env knobs: `TC_SHARDS` (comma list, default `1,2,4,8`), `TC_STREAMS`
//! (default 32), `TC_CHUNKS` (chunks/stream, default 64), `TC_PRODUCERS`
//! (default 8), `TC_BATCH` (chunks/batch, default 16), `TC_QUERIES`
//! (default 200), `TC_STORE_LAT_US` (default 50). Mixed phase:
//! `TC_QUERY_THREADS` (comma list, default `1,2,4,8`), `TC_MIXED_QUERIES`
//! (default 400), `TC_READERS` (intra-shard reader pool, default 4),
//! `TC_MIXED` (`0` skips the phase). Remote phase: `TC_REMOTE` (`0`
//! skips), `TC_REMOTE_SHARDS` (comma list, default `1,4`).
//! Failover/rebuild phase: `TC_FAILOVER` (`0` skips). Faults phase:
//! `TC_FAULTS` (`0` skips), `TC_FAULT_SEED` (default 7) — single-shard
//! workload under seeded store faults (1% errors, 1% of puts stalled
//! 10 ms), retry-until-acked; reported, not gated.
//! Tracing-overhead phase: `TC_TRACING` (`0` skips) — reruns the
//! ingest and query workload with request tracing enabled and reports
//! both. Many-streams phase: `TC_MANY` (`0` skips), `TC_MANY_STREAMS`
//! (comma sweep of stored stream counts, default `10000,100000,1000000`),
//! `TC_MAX_RESIDENT` (resident LRU cap, default 1024), `TC_MANY_HOT`
//! (hot working set, default 32), `TC_MANY_QUERIES` (default 200000).
//! Throughput rows also carry per-op p50/p95/p99 latency
//! percentiles (`ingest_p50_ms`, `query_p99_ms`, ...) derived from the
//! service's log₂ histograms.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt_chunk::serialize::EncryptedChunk;
use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{PrgKind, SecureRandom};
use timecrypt_service::{
    BackendSpec, NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService,
};
use timecrypt_store::{KvStore, LatencyKv, MemKv};
use timecrypt_wire::transport::Server;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Workload {
    /// Per-stream pre-sealed chunks (sealing cost excluded from ingest
    /// numbers — this measures the serving tier, not the client CPU).
    per_stream: Vec<Vec<EncryptedChunk>>,
}

fn build_workload(streams: usize, chunks: u64) -> Workload {
    let per_stream = (0..streams as u128)
        .map(|id| {
            let cfg = StreamConfig {
                schema: DigestSchema::sum_count(),
                ..StreamConfig::new(id, "bench", 0, 10_000)
            };
            let keys =
                StreamKeyMaterial::with_params(id, [(id as u8) ^ 0x5a; 16], 22, PrgKind::Aes)
                    .unwrap();
            let mut rng = SecureRandom::from_seed_insecure(id as u64);
            // Amortized sealer: sequential chunks share boundary-leaf
            // derivations (byte-identical to one-shot `seal`).
            let mut sealer = timecrypt_chunk::ChunkSealer::new(&cfg, &keys);
            (0..chunks)
                .map(|i| {
                    sealer
                        .seal(
                            &PlainChunk {
                                stream: id,
                                index: i,
                                points: vec![DataPoint::new(i as i64 * 10_000, i as i64)],
                            },
                            &mut rng,
                        )
                        .unwrap()
                })
                .collect()
        })
        .collect();
    Workload { per_stream }
}

struct Sample {
    shards: usize,
    ingest_ops_s: f64,
    ingest_wall_ms: f64,
    query_ops_s: f64,
    query_wall_ms: f64,
    /// Per-operation latency percentiles (ms) from the service tier's
    /// log₂ histograms, aggregated across shards.
    ingest_p: [f64; 3],
    query_p: [f64; 3],
}

/// p50/p95/p99 in **milliseconds** of the summed per-shard log₂ latency
/// histograms picked by `pick` from a stats snapshot.
fn latency_percentiles_ms(
    stats: &timecrypt_wire::messages::ServiceStatsWire,
    pick: impl Fn(&timecrypt_wire::messages::ShardStatsWire) -> &Vec<u64>,
) -> [f64; 3] {
    let mut total: Vec<u64> = Vec::new();
    for shard in &stats.shards {
        let hist = pick(shard);
        if hist.len() > total.len() {
            total.resize(hist.len(), 0);
        }
        for (t, &c) in total.iter_mut().zip(hist.iter()) {
            *t += c;
        }
    }
    timecrypt_obs::prom::p50_p95_p99(&total).map(|us| us / 1e3)
}

fn latency_store(store_latency: Duration) -> Arc<dyn KvStore> {
    if store_latency.is_zero() {
        Arc::new(MemKv::new())
    } else {
        Arc::new(LatencyKv::new(MemKv::new(), store_latency))
    }
}

fn run_one(
    workload: &Workload,
    shards: usize,
    producers: usize,
    batch: usize,
    queries: usize,
    store_latency: Duration,
    tracing: bool,
) -> Sample {
    let svc = Arc::new(
        ShardedService::open(
            latency_store(store_latency),
            ServiceConfig {
                shards,
                tracing,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    measure_workload(&svc, workload, shards, producers, batch, queries)
}

/// Boots `shards` loopback nodes (each over its own latency-modelled
/// store) and a coordinator routing every shard to its node. The returned
/// servers must stay alive for the cluster to serve.
fn open_remote_cluster(
    shards: usize,
    store_latency: Duration,
) -> (Vec<Server>, Arc<ShardedService>) {
    let mut servers = Vec::with_capacity(shards);
    let mut topology = Vec::with_capacity(shards);
    for shard in 0..shards {
        let node = ShardNode::open(
            latency_store(store_latency),
            NodeConfig {
                total_shards: shards,
                hosted: vec![shard],
                engine: Default::default(),
            },
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
        topology.push(ShardSpec::remote(server.addr().to_string()));
        servers.push(server);
    }
    let svc = Arc::new(
        ShardedService::open(
            Arc::new(MemKv::new()), // coordinator-local store unused: all shards remote
            ServiceConfig {
                topology,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    (servers, svc)
}

fn run_remote(
    workload: &Workload,
    shards: usize,
    producers: usize,
    batch: usize,
    queries: usize,
    store_latency: Duration,
) -> Sample {
    let (_servers, svc) = open_remote_cluster(shards, store_latency);
    measure_workload(&svc, workload, shards, producers, batch, queries)
}

fn measure_workload(
    svc: &Arc<ShardedService>,
    workload: &Workload,
    shards: usize,
    producers: usize,
    batch: usize,
    queries: usize,
) -> Sample {
    let streams = workload.per_stream.len();
    let chunks = workload
        .per_stream
        .first()
        .map(|v| v.len() as u64)
        .unwrap_or(0);
    for id in 0..streams as u128 {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }

    // Ingest: `producers` threads, each owning a disjoint set of streams,
    // submitting per-stream batches of `batch` chunks.
    let t = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let svc = svc.clone();
            let slices: Vec<&Vec<EncryptedChunk>> = workload
                .per_stream
                .iter()
                .enumerate()
                .filter(|(i, _)| i % producers == p)
                .map(|(_, v)| v)
                .collect();
            scope.spawn(move || {
                for stream_chunks in slices {
                    for window in stream_chunks.chunks(batch) {
                        for r in svc.submit_batch(window.to_vec()) {
                            r.unwrap();
                        }
                    }
                }
            });
        }
    });
    let ingest_wall = t.elapsed();
    let total_chunks = streams as u64 * chunks;

    // Queries: multi-stream scatter-gather over 8-stream groups, full range.
    let all: Vec<u128> = (0..streams as u128).collect();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let svc = svc.clone();
            let all = &all;
            scope.spawn(move || {
                for q in (p..queries).step_by(producers) {
                    let group: Vec<u128> = all
                        .iter()
                        .cycle()
                        .skip(q % streams)
                        .take(8.min(streams))
                        .copied()
                        .collect();
                    svc.get_stat_range(&group, 0, chunks as i64 * 10_000)
                        .unwrap();
                }
            });
        }
    });
    let query_wall = t.elapsed();

    let stats = svc.stats();
    Sample {
        shards,
        ingest_ops_s: total_chunks as f64 / ingest_wall.as_secs_f64(),
        ingest_wall_ms: ingest_wall.as_secs_f64() * 1e3,
        query_ops_s: queries as f64 / query_wall.as_secs_f64(),
        query_wall_ms: query_wall.as_secs_f64() * 1e3,
        ingest_p: latency_percentiles_ms(&stats, |s| &s.ingest_hist_us),
        query_p: latency_percentiles_ms(&stats, |s| &s.query_hist_us),
    }
}

struct MixedSample {
    query_threads: usize,
    query_ops_s: f64,
    query_wall_ms: f64,
    concurrent_ingest_ops_s: f64,
    /// True when the pre-sealed hot-stream backlog ran dry before the
    /// query phase finished — later queries then ran *without* concurrent
    /// ingest, so the contention numbers are understated.
    ingest_exhausted: bool,
}

/// Mixed read/write on one shard: `query_threads` threads fire full-range
/// scatter-gather queries over all streams (one shard ⇒ one leg, split
/// across the intra-shard reader pool) while a single ingest thread
/// appends to the hot stream 0 for the whole query phase. The query window
/// covers only the pre-ingested prefix, so every reply is identical and
/// checkable while ingest keeps extending the stream.
fn run_mixed(
    workload: &Workload,
    hot: &[EncryptedChunk],
    queries: usize,
    query_threads: usize,
    readers: usize,
    store_latency: Duration,
) -> MixedSample {
    let streams = workload.per_stream.len();
    let chunks = workload
        .per_stream
        .first()
        .map(|v| v.len() as u64)
        .unwrap_or(0);
    let svc = Arc::new(
        ShardedService::open(
            latency_store(store_latency),
            ServiceConfig {
                shards: 1,
                query_readers: readers,
                // Tiny *per-stream* index cache, smaller than one query's
                // node working set: queries actually visit the (latency-
                // modelled) store, which is where serialized readers used
                // to pile up behind the stream lock.
                engine: timecrypt_server::ServerConfig {
                    arity: 16,
                    cache_bytes: 256,
                    ..Default::default()
                },
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    for id in 0..streams as u128 {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    for per_stream in &workload.per_stream {
        for window in per_stream.chunks(64) {
            for r in svc.submit_batch(window.to_vec()) {
                r.unwrap();
            }
        }
    }
    let all: Vec<u128> = (0..streams as u128).collect();
    let stop = AtomicBool::new(false);
    let ingested = AtomicU64::new(0);
    let t = Instant::now();
    let mut ingest_wall = Duration::ZERO;
    let mut ingested_during_queries = 0u64;
    std::thread::scope(|scope| {
        {
            let svc = svc.clone();
            let (stop, ingested) = (&stop, &ingested);
            scope.spawn(move || {
                for c in hot {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    svc.insert(c).unwrap();
                    ingested.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut handles = Vec::new();
        for p in 0..query_threads {
            let svc = svc.clone();
            let all = &all;
            handles.push(scope.spawn(move || {
                for _ in (p..queries).step_by(query_threads) {
                    // Interior window [chunk 1, chunk chunks−1): misaligned
                    // with the root node's entry spans, so every sub-query
                    // recurses into level-1 edge nodes — a working set that
                    // thrashes the tiny cache and actually pays store
                    // latency, the regime where readers used to serialize.
                    svc.get_stat_range(all, 10_000, (chunks as i64 - 1) * 10_000)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        ingest_wall = t.elapsed();
        // Snapshot before releasing the ingest thread: inserts completed
        // after this point must not count against the measured wall.
        ingested_during_queries = ingested.load(Ordering::Relaxed);
        stop.store(true, Ordering::Relaxed);
    });
    let query_wall = ingest_wall;
    MixedSample {
        query_threads,
        query_ops_s: queries as f64 / query_wall.as_secs_f64(),
        query_wall_ms: query_wall.as_secs_f64() * 1e3,
        concurrent_ingest_ops_s: ingested_during_queries as f64 / ingest_wall.as_secs_f64(),
        ingest_exhausted: ingested_during_queries >= hot.len() as u64,
    }
}

struct ManyStreamsSample {
    /// Wall time of `TimeCryptServer::open` over the seeded store.
    open_ms: f64,
    /// Resident stream states observed after the capped query run.
    resident_max: u64,
    capped_ops_s: f64,
    uncapped_ops_s: f64,
}

/// The many-streams phase: an engine over a store holding `n` registered
/// streams, only `hot` of which carry chunks. Lazy hydration makes open
/// a single directory scan (`open_ms` must scale with the directory, not
/// the per-stream tree state) and bounds resident RAM at `cap` streams;
/// the steady-state query loop (working set inside the cap) compares a
/// capped engine against an uncapped one over the same store — the LRU
/// bookkeeping must be noise once the working set is resident.
fn run_many_streams(n: usize, cap: usize, hot: usize, queries: usize) -> ManyStreamsSample {
    use timecrypt_server::{ServerConfig, TimeCryptServer};
    const HOT_CHUNKS: u64 = 4;
    let hot = hot.min(n).max(1);
    let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
    {
        let seeder = TimeCryptServer::open(kv.clone(), ServerConfig::default()).unwrap();
        for id in 0..n as u128 {
            seeder.create_stream(id, 0, 10_000, 2).unwrap();
        }
        for per_stream in &build_workload(hot, HOT_CHUNKS).per_stream {
            for c in per_stream {
                seeder.insert(c).unwrap();
            }
        }
    }
    let t = Instant::now();
    let capped = TimeCryptServer::open(
        kv.clone(),
        ServerConfig {
            max_resident_streams: Some(cap),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(capped.stream_count(), n);
    assert_eq!(
        capped.residency().resident,
        0,
        "open must not hydrate anything"
    );
    let window = HOT_CHUNKS as i64 * 10_000;
    let measure = |engine: &TimeCryptServer| {
        for id in 0..hot as u128 {
            engine.stream_stat(id, 0, window).unwrap(); // warm-up / hydrate
        }
        let t = Instant::now();
        for q in 0..queries {
            engine.stream_stat((q % hot) as u128, 0, window).unwrap();
        }
        queries as f64 / t.elapsed().as_secs_f64()
    };
    let capped_ops_s = measure(&capped);
    let resident_max = capped.residency().resident;
    assert!(
        resident_max <= cap as u64,
        "resident {resident_max} exceeded cap {cap}"
    );
    let uncapped = TimeCryptServer::open(kv, ServerConfig::default()).unwrap();
    let uncapped_ops_s = measure(&uncapped);
    ManyStreamsSample {
        open_ms,
        resident_max,
        capped_ops_s,
        uncapped_ops_s,
    }
}

struct FailoverSample {
    /// Kill of the primary → first acknowledged write on the promoted
    /// backup (covers strike accumulation + the internal retry).
    promotion_ms: f64,
    /// `attach_replica` → replica verified in sync.
    rebuild_ms: f64,
    rebuild_chunks_copied: u64,
    /// Scatter-gather ops/s served after the rebuild completed.
    post_rebuild_query_ops_s: f64,
}

/// The failover/rebuild smoke: a replicated loopback shard loses its
/// primary mid-ingest; the bench measures how long automatic promotion
/// takes to restore write availability, how long rebuilding a freshly
/// attached replacement takes, and what query throughput looks like once
/// the shard is back at R=2.
fn run_failover_rebuild(
    workload: &Workload,
    producers: usize,
    queries: usize,
    store_latency: Duration,
) -> FailoverSample {
    let spawn_node = || {
        let node = ShardNode::open(
            latency_store(store_latency),
            NodeConfig {
                total_shards: 1,
                hosted: vec![0],
                engine: Default::default(),
            },
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
        let addr = server.addr().to_string();
        (server, addr)
    };
    let (node_a, addr_a) = spawn_node();
    let (_node_b, addr_b) = spawn_node();
    let svc = Arc::new(
        ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec::remote(addr_a).with_backup(addr_b)],
                pool: timecrypt_wire::pool::PoolConfig {
                    connect_attempts: 2,
                    backoff: Duration::from_millis(1),
                    ..Default::default()
                },
                promote_after: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let streams = workload.per_stream.len();
    for id in 0..streams as u128 {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    // First half of every stream lands while both replicas are healthy.
    let half = workload
        .per_stream
        .first()
        .map(|v| v.len() / 2)
        .unwrap_or(0);
    for per_stream in &workload.per_stream {
        for r in svc.submit_batch(per_stream[..half].to_vec()) {
            r.unwrap();
        }
    }
    // Kill the primary mid-ingest; keep writing until a write is
    // acknowledged again — that wall time is the promotion latency.
    let mut node_a = node_a;
    node_a.shutdown();
    drop(node_a);
    let t = Instant::now();
    let first = &workload.per_stream[0][half];
    while svc.insert(first).is_err() {
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "promotion never restored write availability"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let promotion_ms = t.elapsed().as_secs_f64() * 1e3;
    for (id, per_stream) in workload.per_stream.iter().enumerate() {
        let rest = if id == 0 { half + 1 } else { half };
        for r in svc.submit_batch(per_stream[rest..].to_vec()) {
            r.unwrap();
        }
    }
    // Attach a replacement and wait for the background rebuild.
    let (_node_c, addr_c) = spawn_node();
    let t = Instant::now();
    svc.attach_replica(0, BackendSpec::Remote(addr_c)).unwrap();
    loop {
        let snap = svc.stats();
        if snap.shards[0].rebuilds == 1 && snap.shards[0].in_sync {
            break;
        }
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "replica rebuild did not complete"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let rebuild_chunks_copied = svc.stats().shards[0].rebuild_chunks_copied;
    // Query throughput with the shard back at R=2.
    let all: Vec<u128> = (0..streams as u128).collect();
    let chunks = workload
        .per_stream
        .first()
        .map(|v| v.len() as u64)
        .unwrap_or(0);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let svc = svc.clone();
            let all = &all;
            scope.spawn(move || {
                for q in (p..queries).step_by(producers) {
                    let group: Vec<u128> = all
                        .iter()
                        .cycle()
                        .skip(q % all.len())
                        .take(8.min(all.len()))
                        .copied()
                        .collect();
                    svc.get_stat_range(&group, 0, chunks as i64 * 10_000)
                        .unwrap();
                }
            });
        }
    });
    FailoverSample {
        promotion_ms,
        rebuild_ms,
        rebuild_chunks_copied,
        post_rebuild_query_ops_s: queries as f64 / t.elapsed().as_secs_f64(),
    }
}

struct FaultSample {
    ingest_ops_s: f64,
    query_ops_s: f64,
    injected: u64,
    retries: u64,
}

/// The faults phase: a single-shard service over a store injecting a 1%
/// transient error rate on every op plus a 1% chance of a 10 ms stall per
/// put (a p99-delay model of a compacting/overloaded backend). Ingest
/// retries each chunk until acked; queries retry until answered. The
/// reported throughput is the *cost of the faults* — retries plus stalls
/// — next to the fault-free `service_throughput` rows.
fn run_faults(workload: &Workload, queries: usize, seed: u64) -> FaultSample {
    use timecrypt_faults::{FaultPlan, OpKind, StoreFault, StoreRule, Trigger};
    let plan = FaultPlan {
        seed,
        store_rules: vec![
            StoreRule {
                op: None,
                key_prefix: Vec::new(),
                when: Trigger::PerMillion(10_000), // 1% transient errors
                fault: StoreFault::Error,
            },
            StoreRule {
                op: Some(OpKind::Put),
                key_prefix: Vec::new(),
                when: Trigger::PerMillion(10_000), // 1% of puts stall 10 ms
                fault: StoreFault::Delay(Duration::from_millis(10)),
            },
        ],
        net_rules: Vec::new(),
    };
    let store = timecrypt_faults::faulty(Arc::new(MemKv::new()) as Arc<dyn KvStore>, plan);
    let svc = ShardedService::open(
        store.clone(),
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for id in 0..workload.per_stream.len() as u128 {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
    }
    let mut retries = 0u64;
    let mut chunks_acked = 0u64;
    let ingest_start = Instant::now();
    for (id, chunks) in workload.per_stream.iter().enumerate() {
        for chunk in chunks {
            loop {
                match svc.insert(chunk) {
                    Ok(()) => break,
                    Err(e) => {
                        retries += 1;
                        assert!(
                            retries < 1_000_000,
                            "faults phase: stream {id} never acked: {e}"
                        );
                    }
                }
            }
            chunks_acked += 1;
        }
    }
    let ingest_wall = ingest_start.elapsed();
    let all: Vec<u128> = (0..workload.per_stream.len() as u128).collect();
    let window = workload.per_stream[0].len() as i64 * 10_000;
    let query_start = Instant::now();
    for q in 0..queries {
        loop {
            if svc.get_stat_range(&all, 0, window).is_ok() {
                break;
            }
            retries += 1;
            assert!(
                retries < 1_000_000,
                "faults phase: query {q} never answered"
            );
        }
    }
    let query_wall = query_start.elapsed();
    FaultSample {
        ingest_ops_s: chunks_acked as f64 / ingest_wall.as_secs_f64(),
        query_ops_s: queries as f64 / query_wall.as_secs_f64(),
        injected: store.injected_total(),
        retries,
    }
}

fn main() {
    let shard_sweep: Vec<usize> = std::env::var("TC_SHARDS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let streams = env_usize("TC_STREAMS", 32);
    let chunks = env_usize("TC_CHUNKS", 64) as u64;
    let producers = env_usize("TC_PRODUCERS", 8);
    let batch = env_usize("TC_BATCH", 16);
    let queries = env_usize("TC_QUERIES", 200);
    let store_latency = Duration::from_micros(env_usize("TC_STORE_LAT_US", 50) as u64);

    eprintln!("sealing workload: {streams} streams x {chunks} chunks ...");
    let workload = build_workload(streams, chunks);

    for &shards in &shard_sweep {
        // Warm-up run keeps allocator/page-cache effects out of the sweep.
        let _ = run_one(
            &workload,
            shards,
            producers,
            batch,
            16.min(queries),
            store_latency,
            false,
        );
        let s = run_one(
            &workload,
            shards,
            producers,
            batch,
            queries,
            store_latency,
            false,
        );
        println!(
            "{{\"bench\":\"service_throughput\",\"shards\":{},\"streams\":{},\"chunks_per_stream\":{},\"producers\":{},\"batch\":{},\"ingest_ops_s\":{:.0},\"ingest_wall_ms\":{:.1},\"ingest_p50_ms\":{:.3},\"ingest_p95_ms\":{:.3},\"ingest_p99_ms\":{:.3},\"queries\":{},\"query_ops_s\":{:.0},\"query_wall_ms\":{:.1},\"query_p50_ms\":{:.3},\"query_p95_ms\":{:.3},\"query_p99_ms\":{:.3}}}",
            s.shards,
            streams,
            chunks,
            producers,
            batch,
            s.ingest_ops_s,
            s.ingest_wall_ms,
            s.ingest_p[0],
            s.ingest_p[1],
            s.ingest_p[2],
            queries,
            s.query_ops_s,
            s.query_wall_ms,
            s.query_p[0],
            s.query_p[1],
            s.query_p[2],
        );
    }

    // Tracing-overhead phase: the same single-shard-count workload with
    // request tracing *disabled* (the default) and *enabled*. The `off`
    // run is the one every other phase measures — this row exists so the
    // <2% disabled-cost claim and the enabled cost are both visible in
    // the perf trajectory.
    if env_usize("TC_TRACING", 1) != 0 {
        let shards = shard_sweep.last().copied().unwrap_or(4);
        let off = run_one(
            &workload,
            shards,
            producers,
            batch,
            queries,
            store_latency,
            false,
        );
        let on = run_one(
            &workload,
            shards,
            producers,
            batch,
            queries,
            store_latency,
            true,
        );
        println!(
            "{{\"bench\":\"tracing_overhead\",\"shards\":{},\"streams\":{},\"chunks_per_stream\":{},\"producers\":{},\"batch\":{},\"queries\":{},\"ingest_ops_s\":{:.0},\"query_ops_s\":{:.0},\"traced_ingest_ops_s\":{:.0},\"traced_query_ops_s\":{:.0}}}",
            shards,
            streams,
            chunks,
            producers,
            batch,
            queries,
            off.ingest_ops_s,
            off.query_ops_s,
            on.ingest_ops_s,
            on.query_ops_s,
        );
    }

    // Remote phase: the same workload through a loopback multi-node
    // cluster (one node per shard, each over its own store). The delta
    // against `service_throughput` at equal shard count is the cost of
    // going over the wire.
    if env_usize("TC_REMOTE", 1) != 0 {
        let remote_sweep: Vec<usize> = std::env::var("TC_REMOTE_SHARDS")
            .unwrap_or_else(|_| "1,4".into())
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        for &shards in &remote_sweep {
            let _ = run_remote(
                &workload,
                shards,
                producers,
                batch,
                16.min(queries),
                store_latency,
            );
            let s = run_remote(&workload, shards, producers, batch, queries, store_latency);
            println!(
                "{{\"bench\":\"remote_throughput\",\"shards\":{},\"nodes\":{},\"streams\":{},\"chunks_per_stream\":{},\"producers\":{},\"batch\":{},\"ingest_ops_s\":{:.0},\"ingest_wall_ms\":{:.1},\"ingest_p50_ms\":{:.3},\"ingest_p95_ms\":{:.3},\"ingest_p99_ms\":{:.3},\"queries\":{},\"query_ops_s\":{:.0},\"query_wall_ms\":{:.1},\"query_p50_ms\":{:.3},\"query_p95_ms\":{:.3},\"query_p99_ms\":{:.3}}}",
                s.shards,
                s.shards,
                streams,
                chunks,
                producers,
                batch,
                s.ingest_ops_s,
                s.ingest_wall_ms,
                s.ingest_p[0],
                s.ingest_p[1],
                s.ingest_p[2],
                queries,
                s.query_ops_s,
                s.query_wall_ms,
                s.query_p[0],
                s.query_p[1],
                s.query_p[2],
            );
        }
    }

    // Failover/rebuild phase: a replicated loopback shard loses its
    // primary mid-ingest. Reports promotion latency (write availability
    // restored), replica-rebuild wall time, and post-rebuild query ops/s.
    if env_usize("TC_FAILOVER", 1) != 0 {
        let s = run_failover_rebuild(&workload, producers, queries, store_latency);
        println!(
            "{{\"bench\":\"failover_rebuild\",\"streams\":{},\"chunks_per_stream\":{},\"producers\":{},\"promotion_ms\":{:.1},\"rebuild_ms\":{:.1},\"rebuild_chunks_copied\":{},\"queries\":{},\"post_rebuild_query_ops_s\":{:.0}}}",
            streams,
            chunks,
            producers,
            s.promotion_ms,
            s.rebuild_ms,
            s.rebuild_chunks_copied,
            queries,
            s.post_rebuild_query_ops_s,
        );
    }

    // Faults phase: the single-shard workload under seeded store faults
    // (1% transient errors, 1% of puts stalled 10 ms) with retry-until-
    // acked ingest. Reported, not gated (see compare.rs): the number is
    // the price of the fault model, not a regression signal.
    if env_usize("TC_FAULTS", 1) != 0 {
        let seed = env_usize("TC_FAULT_SEED", 7) as u64;
        let s = run_faults(&workload, queries, seed);
        println!(
            "{{\"bench\":\"faults\",\"streams\":{},\"chunks_per_stream\":{},\"store_err_pm\":10000,\"put_delay_pm\":10000,\"delay_ms\":10,\"queries\":{},\"faulty_ingest_ops_s\":{:.0},\"faulty_query_ops_s\":{:.0},\"injected_faults\":{},\"retries\":{}}}",
            streams,
            chunks,
            queries,
            s.ingest_ops_s,
            s.query_ops_s,
            s.injected,
            s.retries,
        );
    }

    // Many-streams phase: open time and steady-state query throughput of
    // a bounded-residency engine as stored stream counts grow far past
    // the cap — the lazy-hydration claim, measured.
    if env_usize("TC_MANY", 1) != 0 {
        let many_sweep: Vec<usize> = std::env::var("TC_MANY_STREAMS")
            .unwrap_or_else(|_| "10000,100000,1000000".into())
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        let cap = env_usize("TC_MAX_RESIDENT", 1024).max(1);
        let hot = env_usize("TC_MANY_HOT", 32);
        let many_queries = env_usize("TC_MANY_QUERIES", 200_000);
        for &n in &many_sweep {
            eprintln!("many-streams: seeding {n} streams (cap {cap}) ...");
            let s = run_many_streams(n, cap, hot, many_queries);
            println!(
                "{{\"bench\":\"many_streams\",\"streams\":{},\"cap\":{},\"hot\":{},\"queries\":{},\"open_ms\":{:.1},\"resident_max\":{},\"capped_ops_s\":{:.0},\"uncapped_ops_s\":{:.0}}}",
                n,
                cap,
                hot.min(n).max(1),
                many_queries,
                s.open_ms,
                s.resident_max,
                s.capped_ops_s,
                s.uncapped_ops_s,
            );
        }
    }

    // Mixed read/write phase: query ops/s vs query-thread count on ONE
    // shard, with ingest running the whole time. Scaling here is exactly
    // the read-path lock split: before it, all readers serialized behind
    // the hot stream's per-stream lock.
    if env_usize("TC_MIXED", 1) == 0 {
        return;
    }
    if chunks < 3 {
        // The misaligned interior window [chunk 1, chunk chunks−1) needs
        // at least one covered chunk.
        eprintln!("skipping mixed phase: TC_CHUNKS={chunks} < 3");
        return;
    }
    let thread_sweep: Vec<usize> = std::env::var("TC_QUERY_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let mixed_queries = env_usize("TC_MIXED_QUERIES", 400);
    let readers = env_usize("TC_READERS", 4);
    eprintln!("sealing hot-stream ingest backlog for the mixed phase ...");
    let hot: Vec<EncryptedChunk> = {
        let cfg = StreamConfig {
            schema: DigestSchema::sum_count(),
            ..StreamConfig::new(0, "bench", 0, 10_000)
        };
        let keys = StreamKeyMaterial::with_params(0, [0x5a; 16], 22, PrgKind::Aes).unwrap();
        let mut rng = SecureRandom::from_seed_insecure(99);
        let mut sealer = timecrypt_chunk::ChunkSealer::new(&cfg, &keys);
        (chunks..chunks + 20_000)
            .map(|i| {
                sealer
                    .seal(
                        &PlainChunk {
                            stream: 0,
                            index: i,
                            points: vec![DataPoint::new(i as i64 * 10_000, i as i64)],
                        },
                        &mut rng,
                    )
                    .unwrap()
            })
            .collect()
    };
    for &t in &thread_sweep {
        // Warm-up, then the measured run.
        let _ = run_mixed(
            &workload,
            &hot,
            16.min(mixed_queries),
            t,
            readers,
            store_latency,
        );
        let s = run_mixed(&workload, &hot, mixed_queries, t, readers, store_latency);
        if s.ingest_exhausted {
            eprintln!(
                "warning: hot-stream backlog ran dry at {} query threads; \
                 concurrent-ingest pressure understated",
                s.query_threads
            );
        }
        println!(
            "{{\"bench\":\"mixed_rw\",\"shards\":1,\"streams\":{},\"chunks_per_stream\":{},\"readers\":{},\"query_threads\":{},\"queries\":{},\"query_ops_s\":{:.0},\"query_wall_ms\":{:.1},\"concurrent_ingest_ops_s\":{:.0},\"ingest_exhausted\":{}}}",
            streams,
            chunks,
            readers,
            s.query_threads,
            mixed_queries,
            s.query_ops_s,
            s.query_wall_ms,
            s.concurrent_ingest_ops_s,
            s.ingest_exhausted,
        );
    }
}
