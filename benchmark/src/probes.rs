//! Probes: one layer alone. Each calls a layer's public functions directly
//! with a fixed iteration count and reports the median of five repetitions,
//! so a ledger row that moves can be chased without the cluster. Values are
//! the sandbox's (reads come from the OS cache, fsync is the sandbox disk).

use crate::cluster::TempDir;
use crate::gen::{Shape, StreamData};
use crate::rng::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use timecrypt_chunk::serialize::{ChunkSealer, EncryptedChunk};
use timecrypt_chunk::PlainChunk;
use timecrypt_core::heac::{decrypt_range_sum, HeacEncryptor};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::{AesGcm128, SecureRandom};
use timecrypt_index::{AggTree, TreeConfig};
use timecrypt_server::{ServerConfig, TimeCryptServer};
use timecrypt_service::{ServiceConfig, ShardedService};
use timecrypt_store::{Durability, KvStore, LogKv, MemKv};
use timecrypt_wire::messages::{Request, RequestRef, Response};
use timecrypt_wire::transport::Server;
use timecrypt_wire::Client;

const REPETITIONS: usize = 5;

/// Median over [`REPETITIONS`] of `run`, which returns the measured value of
/// one repetition.
fn median_of(mut run: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..REPETITIONS).map(|_| run()).collect();
    values.sort_by(f64::total_cmp);
    values[REPETITIONS / 2]
}

/// Mean time of one of `iterations` calls of `call`, in `unit_ns`
/// nanoseconds (1 = ns, 1000 = µs); median over the repetitions.
fn time_each(iterations: usize, unit_ns: f64, mut call: impl FnMut(usize)) -> f64 {
    median_of(|| {
        let started = Instant::now();
        for i in 0..iterations {
            call(i);
        }
        started.elapsed().as_nanos() as f64 / iterations as f64 / unit_ns
    })
}

fn keys(id: u128) -> StreamKeyMaterial {
    // Height 30 (one billion keys) is the owner default and the paper's
    // evaluation setting.
    StreamKeyMaterial::new(id, [0x42; 16]).expect("valid tree parameters")
}

fn sealed(data: &StreamData, keys: &StreamKeyMaterial) -> Vec<EncryptedChunk> {
    let mut rng = SecureRandom::from_seed_insecure(11);
    let mut sealer = ChunkSealer::new(&data.cfg, keys);
    (0..data.chunks)
        .map(|c| sealer.seal(&plain(data, c), &mut rng).expect("seal"))
        .collect()
}

fn plain(data: &StreamData, chunk: u64) -> PlainChunk {
    PlainChunk {
        stream: data.cfg.id,
        index: chunk,
        points: data.points(chunk).collect(),
    }
}

/// A random chunk window of `len`-chunk history that is not aligned to the
/// index fan-out.
fn window(rng: &mut Rng, len: u64) -> (u64, u64) {
    let lo = rng.below(len - 1);
    (lo, lo + 1 + rng.below(len - lo))
}

/// Runs every probe; `(name, value)` in a fixed order.
pub fn run_all(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = Rng::new(seed, 0x9706e);

    // ── crypto ──
    let gcm = AesGcm128::new(&[7; 16]);
    let block = vec![0xabu8; 4096];
    let nonce = [3u8; 12];
    let mut buf = Vec::with_capacity(4096 + 16);
    out.push((
        "crypto.gcm_seal_4k_ns",
        time_each(2000, 1.0, |_| {
            buf.clear();
            gcm.seal_into(&nonce, b"aad", black_box(&block), &mut buf);
        }),
    ));
    let ct = gcm.seal(&nonce, b"aad", &block);
    out.push((
        "crypto.gcm_open_4k_ns",
        time_each(2000, 1.0, |_| {
            buf.clear();
            gcm.open_into(&nonce, b"aad", black_box(&ct), &mut buf)
                .expect("authentic");
        }),
    ));

    // ── core ──
    let km = keys(1);
    let digest = vec![5u64; 19];
    let enc = HeacEncryptor::new(&km.tree);
    out.push((
        "core.encrypt_digest_w19_ns",
        time_each(4000, 1.0, |i| {
            black_box(
                enc.encrypt_digest(i as u64, black_box(&digest))
                    .expect("in range"),
            );
        }),
    ));
    out.push((
        "core.decrypt_range_w19_ns",
        time_each(2000, 1.0, |i| {
            let (a, b) = (i as u64 * 7, i as u64 * 7 + 1000);
            black_box(decrypt_range_sum(&km.tree, a, b, black_box(&digest)).expect("in range"));
        }),
    ));

    // ── chunk ──
    let mhealth = StreamData::generate(1, Shape::mhealth(500), 256, &mut rng);
    let devops = StreamData::generate(2, Shape::devops(), 1024, &mut rng);
    let mut seal_rng = SecureRandom::from_seed_insecure(5);
    for (name, data) in [
        ("chunk.seal_500pt_us", &mhealth),
        ("chunk.seal_6pt_us", &devops),
    ] {
        let chunks: Vec<PlainChunk> = (0..data.chunks).map(|c| plain(data, c)).collect();
        let km = keys(data.cfg.id);
        out.push((
            name,
            median_of(|| {
                let mut sealer = ChunkSealer::new(&data.cfg, &km);
                let started = Instant::now();
                for chunk in &chunks {
                    black_box(sealer.seal(chunk, &mut seal_rng).expect("seal"));
                }
                started.elapsed().as_nanos() as f64 / chunks.len() as f64 / 1000.0
            }),
        ));
    }
    let sealed_mhealth = sealed(&mhealth, &km);
    out.push((
        "chunk.open_500pt_us",
        time_each(sealed_mhealth.len(), 1000.0, |i| {
            black_box(sealed_mhealth[i].open_payload(&km.tree).expect("open"));
        }),
    ));

    // ── wire ──
    let sealed_devops = sealed(&devops, &keys(2));
    let batch = Request::InsertBatch {
        chunks: sealed_devops[..16]
            .iter()
            .map(EncryptedChunk::to_bytes)
            .collect(),
    };
    let mut frame = Vec::new();
    out.push((
        "wire.encode_batch16_ns",
        time_each(5000, 1.0, |_| {
            frame.clear();
            black_box(&batch).encode_into(&mut frame);
        }),
    ));
    out.push((
        "wire.decode_batch16_ns",
        time_each(5000, 1.0, |_| {
            black_box(RequestRef::decode(black_box(&frame)).expect("well-formed"));
        }),
    ));
    {
        // A handler that does nothing: socket + frame + thread wake floor.
        let server = Server::bind("127.0.0.1:0", Arc::new(|_req: Request| Response::Pong))
            .map_err(|e| format!("probe bind: {e}"))?;
        let mut client =
            Client::connect(server.addr()).map_err(|e| format!("probe connect: {e}"))?;
        let mut ok = true;
        out.push((
            "wire.loopback_ping_us",
            time_each(2000, 1000.0, |_| {
                ok &= matches!(client.call(&Request::Ping), Ok(Response::Pong));
            }),
        ));
        if !ok {
            return Err("loopback ping failed".into());
        }
    }

    // ── index ──
    const INDEX_CHUNKS: u64 = 8192;
    let digests: Vec<Vec<u64>> = (0..INDEX_CHUNKS).map(|c| vec![c; 19]).collect();
    let tree_cfg = |cache_bytes| TreeConfig {
        cache_bytes,
        ..TreeConfig::default()
    };
    let open_tree = |kv: &Arc<MemKv>, cache_bytes| {
        let kv: Arc<dyn KvStore> = kv.clone();
        AggTree::<Vec<u64>>::open(kv, 1, tree_cfg(cache_bytes)).map_err(|e| format!("index: {e}"))
    };
    out.push((
        "index.append_us",
        median_of(|| {
            let tree = open_tree(&Arc::new(MemKv::new()), 64 << 20).expect("empty store");
            let started = Instant::now();
            for d in &digests {
                tree.append(d.clone()).expect("append");
            }
            started.elapsed().as_nanos() as f64 / INDEX_CHUNKS as f64 / 1000.0
        }),
    ));
    let index_kv = Arc::new(MemKv::new());
    out.push((
        "index.append_batch16_us_per_chunk",
        median_of(|| {
            let kv = Arc::new(MemKv::new());
            let tree = open_tree(&kv, 64 << 20).expect("empty store");
            let started = Instant::now();
            for run in digests.chunks(16) {
                tree.append_batch(run).expect("append");
            }
            started.elapsed().as_nanos() as f64 / INDEX_CHUNKS as f64 / 1000.0
        }),
    ));
    {
        let tree = open_tree(&index_kv, 64 << 20)?;
        tree.append_batch(&digests)
            .map_err(|e| format!("index: {e}"))?;
    }
    let windows: Vec<(u64, u64)> = (0..2000).map(|_| window(&mut rng, INDEX_CHUNKS)).collect();
    // 8192 leaves × 19 slots ≈ 1.3 MB of nodes: warm fits the cache, cold is
    // 20× the 64 KiB one.
    for (name, cache_bytes) in [
        ("index.query_warm_us", 64 << 20),
        ("index.query_cold_us", 64 << 10),
    ] {
        let tree = open_tree(&index_kv, cache_bytes)?;
        for &(lo, hi) in &windows {
            tree.query(lo, hi).map_err(|e| format!("index: {e}"))?;
        }
        out.push((
            name,
            time_each(windows.len(), 1000.0, |i| {
                black_box(tree.query(windows[i].0, windows[i].1).expect("query"));
            }),
        ));
        if cache_bytes == 64 << 10 {
            let stats = tree.stats().map_err(|e| format!("index: {e}"))?;
            out.push((
                "index.query_cold_miss_share",
                stats.cache_misses as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
            ));
        }
    }

    // ── server (one engine over MemKv) ──
    let fleet: Vec<Vec<u8>> = sealed_devops.iter().map(EncryptedChunk::to_bytes).collect();
    let width = devops.shape.width() as u32;
    let open_engine = || -> Result<TimeCryptServer, String> {
        let engine = TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default())
            .map_err(|e| format!("engine: {e}"))?;
        engine
            .create_stream(2, 0, devops.shape.delta_ms, width)
            .map_err(|e| format!("engine: {e}"))?;
        Ok(engine)
    };
    let mut ok = true;
    out.push((
        "server.insert_run16_us_per_chunk",
        median_of(|| {
            let engine = open_engine().expect("fresh engine");
            let started = Instant::now();
            for run in fleet.chunks(16) {
                let views: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
                ok &= engine.insert_bytes_run(&views).iter().all(Result::is_ok);
            }
            started.elapsed().as_nanos() as f64 / fleet.len() as f64 / 1000.0
        }),
    ));
    let engine = open_engine()?;
    for run in fleet.chunks(16) {
        let views: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
        ok &= engine.insert_bytes_run(&views).iter().all(Result::is_ok);
    }
    let windows: Vec<(u64, u64)> = (0..2000).map(|_| window(&mut rng, devops.chunks)).collect();
    out.push((
        "server.stat_range_us",
        time_each(windows.len(), 1000.0, |i| {
            let (lo, hi) = windows[i];
            ok &= engine
                .get_stat_range(&[2], devops.chunk_start(lo), devops.chunk_start(hi))
                .is_ok();
        }),
    ));

    // ── service (two local shards, in process: minus the server probes
    //    this is coordinator overhead without sockets) ──
    let fleet_streams: Vec<StreamData> = (0..8)
        .map(|k| StreamData::generate(100 + k, Shape::devops(), 512, &mut rng))
        .collect();
    let fleet_sealed: Vec<Vec<EncryptedChunk>> = fleet_streams
        .iter()
        .map(|d| sealed(d, &keys(d.cfg.id)))
        .collect();
    let open_service = || -> Result<ShardedService, String> {
        let svc = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                shards: crate::cluster::TOTAL_SHARDS,
                ..ServiceConfig::default()
            },
        )
        .map_err(|e| format!("service: {e}"))?;
        for d in &fleet_streams {
            svc.create_stream(d.cfg.id, 0, d.shape.delta_ms, width)
                .map_err(|e| format!("service: {e}"))?;
        }
        Ok(svc)
    };
    let submit_all = |svc: &ShardedService| -> bool {
        let mut ok = true;
        for stream in &fleet_sealed {
            for run in stream.chunks(16) {
                ok &= svc.submit_batch(run.to_vec()).iter().all(Result::is_ok);
            }
        }
        ok
    };
    out.push((
        "service.local_submit_us_per_chunk",
        median_of(|| {
            let svc = open_service().expect("fresh service");
            let started = Instant::now();
            ok &= submit_all(&svc);
            started.elapsed().as_nanos() as f64 / (8 * 512) as f64 / 1000.0
        }),
    ));
    let svc = open_service()?;
    ok &= submit_all(&svc);
    let ids: Vec<u128> = fleet_streams.iter().map(|d| d.cfg.id).collect();
    let windows: Vec<(u64, u64)> = (0..1000).map(|_| window(&mut rng, 512)).collect();
    out.push((
        "service.local_stat8_us",
        time_each(windows.len(), 1000.0, |i| {
            let (lo, hi) = windows[i];
            let d = &fleet_streams[0];
            ok &= svc
                .get_stat_range(&ids, d.chunk_start(lo), d.chunk_start(hi))
                .is_ok();
        }),
    ));
    drop(svc);

    // ── store ──
    let dir = TempDir::create().map_err(|e| format!("temp dir: {e}"))?;
    let value = vec![0x5au8; 10 * 1024];
    for (name, durability, puts) in [
        ("store.logkv_put_10k_buffered_us", Durability::Buffered, 400),
        ("store.logkv_put_10k_flush_us", Durability::Flush, 400),
        ("store.logkv_put_10k_fsync_us", Durability::Fsync, 16),
    ] {
        let mut rep = 0;
        out.push((
            name,
            median_of(|| {
                rep += 1;
                let path = dir.path().join(format!("{name}.{rep}.log"));
                let kv = LogKv::open_with(&path, durability).expect("open log");
                let started = Instant::now();
                for i in 0..puts as u32 {
                    ok &= kv.put(&i.to_be_bytes(), &value).is_ok();
                }
                let each = started.elapsed().as_nanos() as f64 / puts as f64 / 1000.0;
                drop(kv);
                let _ = std::fs::remove_file(&path);
                each
            }),
        ));
    }
    let path = dir.path().join("replay.log");
    let records = 800u32;
    {
        let kv = LogKv::open_with(&path, Durability::Flush).map_err(|e| format!("log: {e}"))?;
        for i in 0..records {
            kv.put(&i.to_be_bytes(), &value)
                .map_err(|e| format!("log: {e}"))?;
        }
        out.push((
            "store.logkv_get_10k_us",
            time_each(2000, 1000.0, |i| {
                ok &= matches!(kv.get(&(i as u32 % records).to_be_bytes()), Ok(Some(_)));
            }),
        ));
    }
    let log_mb = std::fs::metadata(&path)
        .map_err(|e| format!("log: {e}"))?
        .len() as f64
        / 1e6;
    out.push((
        "store.logkv_replay_mb_per_s",
        median_of(|| {
            let started = Instant::now();
            let kv = LogKv::open_with(&path, Durability::Flush).expect("replay");
            ok &= kv.len() == records as usize;
            log_mb / started.elapsed().as_secs_f64()
        }),
    ));
    if !ok {
        return Err("a probe's calls failed".into());
    }
    Ok(out)
}
