//! The four workloads: what each one's inputs are (`Plan`), how the
//! deployment is set up for it (`Rig`), and the loops that drive it.
//!
//! Every workload is a sequence of *stages* run by the generator threads in
//! lock step, followed by the reopen check. A stage is a fixed, pre-generated
//! list of operations per thread — closed loop (next operation when the
//! previous one returns) or open loop (rounds on a fixed schedule). Operation
//! counts are constants times `--seconds`, calibrated so the stages take
//! about `--seconds` at the commit that defined the benchmark; a later commit
//! runs the *same* operations, so data volume, memory and log size stay
//! comparable and only the time changes.
//!
//! An operation kind never appears in two stages of one workload, so "the
//! ingest samples of `dashboard_read`" needs no further qualification.

use crate::cluster::{Cluster, TempDir};
use crate::gen::{Shape, StreamData};
use crate::rng::Rng;
use crate::spans::{self, Layer, TimedTransport};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use timecrypt_client::{BatchingProducer, Consumer, DataOwner, Producer, Transport};
use timecrypt_crypto::SecureRandom;
use timecrypt_service::ShardRouter;
use timecrypt_wire::messages::{Request, Response};
use timecrypt_wire::Client;

/// Chunks per `InsertBatch`.
pub const BATCH: u64 = 16;
/// Generator threads of a measured run. Fixed: the traced run uses one.
pub const THREADS: usize = 2;
/// Consecutive chunks per `get_range`.
const RANGE_CHUNKS: u64 = 6;
/// Streams per multi-stream statistical query.
const GROUP: usize = 8;
/// Streams each generator thread owns (but `fleet_ingest`'s 1024 in all).
const STREAMS_PER_THREAD: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ProducerIngest,
    FleetIngest,
    DashboardRead,
    SteadyMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProducerIngest,
        Workload::FleetIngest,
        Workload::DashboardRead,
        Workload::SteadyMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProducerIngest => "producer_ingest",
            Workload::FleetIngest => "fleet_ingest",
            Workload::DashboardRead => "dashboard_read",
            Workload::SteadyMix => "steady_mix",
        }
    }

    /// One line for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ProducerIngest => "closed loop: producers seal 500-point chunks and upload per-stream batches of 16; client crypto (chunk, crypto, core) dominates, index writes are amortised",
            Workload::FleetIngest => "closed loop: pre-sealed 6-point chunks of 1024 streams, 16 different streams per batch; client crypto is nil, wire, service, index and the store log do the work",
            Workload::DashboardRead => "closed loop, read-only: 8-stream statistical queries and 6-chunk range reads over indexes 10x their cache; index walk, store gets, scatter-gather and chunk open dominate",
            Workload::SteadyMix => "open loop at a fixed rate: one sealed insert then four statistical queries per round on streams that fit the cache; shows queueing and stalls closed loops hide",
        }
    }

    /// The operation kinds whose rate is the workload's gated throughput,
    /// `primary_ops_per_s`: what its main stage is made of.
    pub fn primary(self) -> &'static [OpKind] {
        match self {
            // One sealed (or pre-sealed) and acknowledged `InsertBatch`.
            Workload::ProducerIngest | Workload::FleetIngest => &[OpKind::Ingest],
            // One statistical query or range read, 8 : 1.
            Workload::DashboardRead => &[OpKind::Stat, OpKind::Range],
            // One round: a sealed insert and its four statistical queries.
            Workload::SteadyMix => &[OpKind::Ingest],
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The three operations a user of the system performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// One upload as the workload defines it.
    Ingest = 0,
    /// One `Consumer::stat_query[_multi]` through decrypt.
    Stat = 1,
    /// One `Consumer::get_range` through decrypt.
    Range = 2,
}

pub const OP_KINDS: [OpKind; 3] = [OpKind::Ingest, OpKind::Stat, OpKind::Range];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Ingest => "ingest",
            OpKind::Stat => "stat",
            OpKind::Range => "range",
        }
    }
}

/// One pre-generated operation. Streams are indices into the plan.
#[derive(Clone, Debug)]
enum Op {
    /// Build, seal and upload chunks `from..from + BATCH` of one stream
    /// through its `BatchingProducer` (one `InsertBatch`).
    SealBatch { stream: usize, from: u64 },
    /// Build, seal and upload one chunk through the stream's `Producer`
    /// (one `Insert`).
    SealOne { stream: usize, chunk: u64 },
    /// Upload the thread's next pre-sealed `InsertBatch`.
    Presealed,
    /// Statistical query over chunks `lo..hi` of `streams`, asked for the
    /// time window `[ts_s, ts_e)` that contains exactly those chunks.
    Stat {
        streams: Vec<usize>,
        ids: Vec<u128>,
        ts_s: i64,
        ts_e: i64,
        lo: u64,
        hi: u64,
    },
    /// Raw read of chunks `lo..hi` of one stream.
    Range { stream: usize, lo: u64, hi: u64 },
}

impl Op {
    fn kind(&self) -> OpKind {
        match self {
            Op::SealBatch { .. } | Op::SealOne { .. } | Op::Presealed => OpKind::Ingest,
            Op::Stat { .. } => OpKind::Stat,
            Op::Range { .. } => OpKind::Range,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Upload {
    /// `BatchingProducer`, `BATCH` chunks per round trip.
    Batched,
    /// `Producer`, one chunk per round trip.
    Single,
    /// Sealed during set-up, uploaded as ready-made requests.
    Presealed,
}

struct StreamPlan {
    id: u128,
    shape: Shape,
    upload: Upload,
    /// Chunks loaded during set-up.
    preload: u64,
    /// Chunks the stream holds when the run ends.
    total: u64,
    /// Whether the owning thread's consumer is granted (and reads) it.
    readable: bool,
}

/// Open-loop pacing of a stage.
#[derive(Clone, Copy)]
struct Pacing {
    interval: Duration,
    ops_per_round: usize,
}

struct Stage {
    /// Per thread.
    ops: Vec<Vec<Op>>,
    pacing: Option<Pacing>,
}

/// Everything a run of one workload is made of, derived from the seed.
pub struct Plan {
    pub workload: Workload,
    seed: u64,
    threads: usize,
    cache_bytes: usize,
    streams: Vec<StreamPlan>,
    stages: Vec<Stage>,
}

// ── Calibration constants ────────────────────────────────────────────────
// Operations per generator thread per second of `--seconds`, frozen at the
// commit that defined the benchmark so that a workload's stages together
// take about `--seconds` there (README, "Calibration"). They are inputs, not
// tuning knobs: changing one changes what is measured.

/// `producer_ingest`: `SealBatch` uploads (≈ 0.7 of the time), then the
/// check sweep's statistical queries and range reads (≈ 0.3).
const PRODUCER_BATCHES: f64 = 415.0;
const PRODUCER_SWEEP: (f64, f64) = (1500.0, 500.0);
/// `fleet_ingest`: pre-sealed `InsertBatch` uploads (≈ 0.7), then the sweep.
const FLEET_BATCHES: f64 = 560.0;
const FLEET_SWEEP: (f64, f64) = (960.0, 320.0);
/// `dashboard_read`: live-tail `SealBatch` uploads (≈ 0.2), then the reads,
/// 8 statistical to 1 range (≈ 0.8).
const DASHBOARD_TAIL_BATCHES: f64 = 250.0;
const DASHBOARD_READS: f64 = 1500.0;
/// `steady_mix`: the offered rate in rounds per second per thread — about
/// 45 % of what the closed loop of the same rounds sustains — held for 0.7
/// of the time, then range reads (≈ 0.3).
const STEADY_RATE: f64 = 750.0;
const STEADY_SHARE: f64 = 0.7;
const STEADY_SWEEP_RANGES: f64 = 1200.0;

fn stream_ids(n: usize) -> Vec<u128> {
    // Stream k goes to shard (k / 2) % 2, so each generator thread (which
    // owns every THREADS-th stream) has streams on both shards and every
    // 8-stream group spans both.
    let router = ShardRouter::new(crate::cluster::TOTAL_SHARDS);
    let mut next = 1u128 << 64;
    (0..n)
        .map(|k| {
            while router.shard_of(next) != (k / 2) % 2 {
                next += 1;
            }
            next += 1;
            next - 1
        })
        .collect()
}

/// A window `[ts_s, ts_e)` that is *not* chunk aligned but contains exactly
/// chunks `lo..hi` of a stream with chunk interval `delta_ms`.
fn misaligned(rng: &mut Rng, delta_ms: u64, lo: u64, hi: u64) -> (i64, i64) {
    let d = delta_ms as i64;
    (
        lo as i64 * d - 1 - rng.below(delta_ms - 1) as i64,
        hi as i64 * d + 1 + rng.below(delta_ms - 1) as i64,
    )
}

/// A random chunk window of at least 2 chunks, up to the full history.
fn window(rng: &mut Rng, len: u64) -> (u64, u64) {
    let lo = rng.below(len - 1);
    (lo, lo + 2 + rng.below(len - lo - 1))
}

impl Plan {
    /// The plan of `workload` for `seed`. `seconds` scales the operation
    /// counts, `scale` (1.0 in measured runs, less in smoke runs) the data
    /// loaded during set-up, and `threads` is how many generator threads
    /// share the streams.
    pub fn new(workload: Workload, seed: u64, seconds: f64, threads: usize, scale: f64) -> Plan {
        let mut plan = Plan {
            workload,
            seed,
            threads,
            cache_bytes: 64 << 20,
            streams: Vec::new(),
            stages: Vec::new(),
        };
        let per_thread = |per_s: f64| ((per_s * seconds) as usize).max(1);
        let scaled = |n: u64| ((n as f64 * scale) as u64).max(2 * BATCH) / BATCH * BATCH;
        // Whole passes over a thread's streams, so all end at one length.
        let per_stream = |ops: usize| (ops as u64).div_ceil(STREAMS_PER_THREAD as u64);
        match workload {
            Workload::ProducerIngest => {
                let per_stream = per_stream(per_thread(PRODUCER_BATCHES));
                plan.add_streams(
                    STREAMS_PER_THREAD * threads,
                    Shape::mhealth(500),
                    Upload::Batched,
                    0,
                    per_stream * BATCH,
                    true,
                );
                plan.push_seal_batches(0, per_stream);
                plan.push_read_stage(
                    1,
                    per_thread(PRODUCER_SWEEP.0),
                    per_thread(PRODUCER_SWEEP.1),
                );
            }
            Workload::FleetIngest => {
                let streams = 1024;
                let rounds = (per_thread(FLEET_BATCHES) * BATCH as usize)
                    .div_ceil(streams / threads)
                    .max(RANGE_CHUNKS as usize);
                plan.add_streams(
                    streams,
                    Shape::devops(),
                    Upload::Presealed,
                    0,
                    rounds as u64,
                    false,
                );
                // The consumers read a sample of the fleet; a grant costs
                // two public-key operations, too slow for 1024 in set-up.
                for s in plan.streams.iter_mut().take(4 * GROUP * threads) {
                    s.readable = true;
                }
                let batches = rounds * (streams / threads) / BATCH as usize;
                plan.stages.push(Stage {
                    ops: vec![vec![Op::Presealed; batches]; threads],
                    pacing: None,
                });
                plan.push_read_stage(GROUP, per_thread(FLEET_SWEEP.0), per_thread(FLEET_SWEEP.1));
            }
            Workload::DashboardRead => {
                plan.cache_bytes = 64 << 10;
                let tail = per_stream(per_thread(DASHBOARD_TAIL_BATCHES));
                let preload = scaled(2048);
                plan.add_streams(
                    STREAMS_PER_THREAD * threads,
                    Shape::mhealth(50),
                    Upload::Batched,
                    preload,
                    preload + tail * BATCH,
                    true,
                );
                plan.push_seal_batches(preload, tail);
                let reads = per_thread(DASHBOARD_READS);
                plan.push_read_stage(GROUP, reads - reads / 9, reads / 9);
            }
            Workload::SteadyMix => {
                let per_stream = per_stream(per_thread(STEADY_RATE * STEADY_SHARE));
                let rounds = per_stream as usize * STREAMS_PER_THREAD;
                let preload = scaled(512);
                plan.add_streams(
                    STREAMS_PER_THREAD * threads,
                    Shape::mhealth(500),
                    Upload::Single,
                    preload,
                    preload + per_stream,
                    true,
                );
                let mut ops = Vec::new();
                for t in 0..threads {
                    let mine = plan.owned_by(t);
                    let mut list = Vec::with_capacity(rounds * 5);
                    for r in 0..rounds {
                        let stream = mine[r % mine.len()];
                        let chunk = preload + (r / mine.len()) as u64;
                        list.push(Op::SealOne { stream, chunk });
                        let len = chunk + 1;
                        let d = plan.streams[stream].shape.delta_ms as i64;
                        // The paper's four windows (Fig. 7): [q·len/5, len).
                        for q in 0..4 {
                            let lo = q * len / 5;
                            list.push(Op::Stat {
                                streams: vec![stream],
                                ids: vec![plan.streams[stream].id],
                                ts_s: lo as i64 * d,
                                ts_e: len as i64 * d,
                                lo,
                                hi: len,
                            });
                        }
                    }
                    ops.push(list);
                }
                plan.stages.push(Stage {
                    ops,
                    pacing: Some(Pacing {
                        interval: Duration::from_secs_f64(1.0 / STEADY_RATE),
                        ops_per_round: 5,
                    }),
                });
                plan.push_read_stage(1, 0, per_thread(STEADY_SWEEP_RANGES));
            }
        }
        plan
    }

    fn add_streams(
        &mut self,
        n: usize,
        shape: Shape,
        upload: Upload,
        preload: u64,
        total: u64,
        readable: bool,
    ) {
        self.streams = stream_ids(n)
            .into_iter()
            .map(|id| StreamPlan {
                id,
                shape: shape.clone(),
                upload,
                preload,
                total,
                readable,
            })
            .collect();
    }

    /// Indices of the streams thread `t` owns.
    fn owned_by(&self, t: usize) -> Vec<usize> {
        (t..self.streams.len()).step_by(self.threads).collect()
    }

    /// A closed-loop stage in which every thread uploads `per_stream`
    /// sealed batches to each of its streams in turn, from chunk `first`.
    fn push_seal_batches(&mut self, first: u64, per_stream: u64) {
        let ops = (0..self.threads)
            .map(|t| {
                let mine = self.owned_by(t);
                (0..per_stream)
                    .flat_map(|b| {
                        mine.iter().map(move |&stream| Op::SealBatch {
                            stream,
                            from: first + b * BATCH,
                        })
                    })
                    .collect()
            })
            .collect();
        self.stages.push(Stage { ops, pacing: None });
    }

    /// A closed-loop read stage per thread: `stats` statistical queries over
    /// `group`-stream groups with random misaligned windows and `ranges`
    /// reads of `RANGE_CHUNKS` consecutive chunks, interleaved evenly, over
    /// the streams' final lengths.
    fn push_read_stage(&mut self, group: usize, stats: usize, ranges: usize) {
        let mut ops = Vec::new();
        for t in 0..self.threads {
            let mut rng = Rng::new(self.seed, 0x5ead_0000 + t as u64);
            let readable: Vec<usize> = self
                .owned_by(t)
                .into_iter()
                .filter(|&s| self.streams[s].readable)
                .collect();
            let groups: Vec<&[usize]> = readable.chunks_exact(group).collect();
            let total = stats + ranges;
            let mut list = Vec::with_capacity(total);
            for i in 0..total {
                // Spread the range reads evenly through the statistical ones.
                let is_range = (i + 1) * ranges / total > i * ranges / total;
                if is_range {
                    let stream = readable[rng.below(readable.len() as u64) as usize];
                    let lo = rng.below(self.streams[stream].total - RANGE_CHUNKS + 1);
                    list.push(Op::Range {
                        stream,
                        lo,
                        hi: lo + RANGE_CHUNKS,
                    });
                } else {
                    let streams = groups[rng.below(groups.len() as u64) as usize].to_vec();
                    let plan = &self.streams[streams[0]];
                    let (lo, hi) = window(&mut rng, plan.total);
                    let (ts_s, ts_e) = misaligned(&mut rng, plan.shape.delta_ms, lo, hi);
                    let ids = streams.iter().map(|&s| self.streams[s].id).collect();
                    list.push(Op::Stat {
                        streams,
                        ids,
                        ts_s,
                        ts_e,
                        lo,
                        hi,
                    });
                }
            }
            ops.push(list);
        }
        self.stages.push(Stage { ops, pacing: None });
    }
}

// ── Set-up ───────────────────────────────────────────────────────────────

enum Uploader {
    Batched(BatchingProducer),
    Single(Producer),
    /// Uploaded through the thread's pre-sealed request queue.
    None,
}

/// One generator thread's client-side state.
struct Worker {
    consumer: Consumer,
    /// By stream index; `Uploader::None` for streams of other threads.
    uploaders: Vec<Uploader>,
    presealed: std::vec::IntoIter<Request>,
}

/// A set-up deployment: the cluster over its own temp dir, the generated
/// inputs with their oracle, and each thread's client roles.
pub struct Rig {
    plan: Plan,
    data: Arc<Vec<StreamData>>,
    workers: Vec<Worker>,
    cluster: Option<Cluster>,
    traced: bool,
    /// Sealed chunk bytes acknowledged so far (set-up load included).
    user_bytes: u64,
    // Last, so the log outlives the cluster that writes it.
    dir: TempDir,
}

type Conn = TimedTransport<Client>;

fn upload_chunks(
    uploader: &mut Uploader,
    conn: &mut Conn,
    data: &StreamData,
    chunks: std::ops::Range<u64>,
) -> Result<(), String> {
    match uploader {
        Uploader::Batched(p) => {
            for c in chunks {
                for point in data.points(c) {
                    p.push(conn, point).map_err(|e| e.to_string())?;
                }
            }
            p.flush(conn).map_err(|e| e.to_string())
        }
        Uploader::Single(p) => {
            for c in chunks {
                for point in data.points(c) {
                    p.push(conn, point).map_err(|e| e.to_string())?;
                }
                p.flush(conn).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Uploader::None => Err("stream has no uploader on this thread".into()),
    }
}

impl Rig {
    /// Generates the inputs, starts the deployment over a fresh temp dir,
    /// registers streams and grants, loads the set-up data and pre-seals
    /// what the plan uploads ready-made.
    pub fn set_up(plan: Plan, traced: bool) -> Result<Rig, String> {
        let dir = TempDir::create().map_err(|e| format!("temp dir: {e}"))?;
        let data: Arc<Vec<StreamData>> = Arc::new(
            plan.streams
                .iter()
                .enumerate()
                .map(|(k, s)| {
                    StreamData::generate(
                        s.id,
                        s.shape.clone(),
                        s.total,
                        &mut Rng::new(plan.seed, k as u64),
                    )
                })
                .collect(),
        );
        let cluster = Cluster::open(dir.path(), plan.cache_bytes, traced)?;
        let mut conn = TimedTransport::new(cluster.connect()?);
        let mut keys_rng = Rng::new(plan.seed, 0x6b65_7973);
        let mut workers: Vec<Worker> = (0..plan.threads)
            .map(|t| Worker {
                consumer: Consumer::new(
                    format!("reader-{t}"),
                    &mut SecureRandom::from_seed_insecure(keys_rng.next_u64()),
                ),
                uploaders: Vec::new(),
                presealed: Vec::new().into_iter(),
            })
            .collect();
        let mut presealed: Vec<Vec<Vec<u8>>> = vec![Vec::new(); plan.threads];
        for (k, (s, d)) in plan.streams.iter().zip(data.iter()).enumerate() {
            let owner_thread = k % plan.threads;
            let mut owner = DataOwner::new(
                d.cfg.clone(),
                SecureRandom::from_seed_insecure(keys_rng.next_u64()),
            );
            owner
                .create_stream(&mut conn)
                .map_err(|e| format!("create stream: {e}"))?;
            if s.readable {
                let consumer = &mut workers[owner_thread].consumer;
                owner
                    .grant_access(
                        &mut conn,
                        &consumer.principal.clone(),
                        &consumer.public_key().clone(),
                        0,
                        d.chunk_start(s.total),
                    )
                    .map_err(|e| format!("grant: {e}"))?;
                consumer
                    .sync_grants(&mut conn, s.id)
                    .map_err(|e| format!("sync grants: {e}"))?;
            }
            let keys = owner.provision_producer();
            for (t, w) in workers.iter_mut().enumerate() {
                w.uploaders.push(match s.upload {
                    _ if t != owner_thread => Uploader::None,
                    Upload::Batched => Uploader::Batched(BatchingProducer::new(
                        d.cfg.clone(),
                        keys.clone(),
                        SecureRandom::from_seed_insecure(keys_rng.next_u64()),
                        BATCH as usize,
                    )),
                    Upload::Single => Uploader::Single(Producer::new(
                        d.cfg.clone(),
                        keys.clone(),
                        SecureRandom::from_seed_insecure(keys_rng.next_u64()),
                    )),
                    Upload::Presealed => Uploader::None,
                });
            }
            if s.upload == Upload::Presealed {
                let mut rng = SecureRandom::from_seed_insecure(keys_rng.next_u64());
                let mut sealer = timecrypt_chunk::serialize::ChunkSealer::new(&d.cfg, &keys);
                let out = &mut presealed[owner_thread];
                // Chunk c of the thread's j-th stream is upload number
                // c × (streams per thread) + j: one chunk per stream per Δ.
                let (j, n) = (k / plan.threads, plan.streams.len() / plan.threads);
                out.resize(out.len().max(n * s.total as usize), Vec::new());
                for c in 0..s.total {
                    let chunk = timecrypt_chunk::PlainChunk {
                        stream: s.id,
                        index: c,
                        points: d.points(c).collect(),
                    };
                    out[c as usize * n + j] = sealer
                        .seal(&chunk, &mut rng)
                        .map_err(|e| format!("pre-seal: {e}"))?
                        .to_bytes();
                }
            }
        }
        for (w, chunks) in workers.iter_mut().zip(presealed) {
            let requests: Vec<Request> = chunks
                .chunks(BATCH as usize)
                .map(|b| Request::InsertBatch { chunks: b.to_vec() })
                .collect();
            w.presealed = requests.into_iter();
        }
        drop(conn);
        let mut rig = Rig {
            plan,
            data,
            workers,
            cluster: Some(cluster),
            traced,
            user_bytes: 0,
            dir,
        };
        rig.preload()?;
        Ok(rig)
    }

    /// Loads each stream's set-up chunks through its own uploader, every
    /// thread loading the streams it owns.
    fn preload(&mut self) -> Result<(), String> {
        let cluster = self.cluster.as_ref().expect("cluster is up during set-up");
        let (plan, data) = (&self.plan, &self.data);
        let loaded: Vec<Result<u64, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .enumerate()
                .map(|(t, w)| {
                    scope.spawn(move || {
                        let mut conn = TimedTransport::new(cluster.connect()?);
                        for k in plan.owned_by(t) {
                            let s = &plan.streams[k];
                            if s.preload > 0 {
                                upload_chunks(
                                    &mut w.uploaders[k],
                                    &mut conn,
                                    &data[k],
                                    0..s.preload,
                                )?;
                            }
                        }
                        Ok(conn.uploaded_bytes())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("preload thread panicked".into()))
                })
                .collect()
        });
        for bytes in loaded {
            self.user_bytes += bytes?;
        }
        Ok(())
    }
}

// ── Running ──────────────────────────────────────────────────────────────

/// Latency samples and counts of one operation kind.
#[derive(Default, Clone)]
pub struct KindSamples {
    /// Client-observed latency per operation (open loop: uploads from the
    /// time they were due).
    pub latencies_ns: Vec<u64>,
    /// When each operation ended, from the thread's start of the stage.
    pub ends_ns: Vec<u64>,
    /// Time spent inside the operations, from their actual start.
    pub busy_ns: u64,
    pub failed: u64,
    /// Allocator calls / bytes during the operations (trace binary only).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl KindSamples {
    /// Adds another thread's or stage's samples of the same kind (their
    /// end times no longer share an origin and are left out).
    pub fn absorb(&mut self, other: &KindSamples) {
        self.latencies_ns.extend(&other.latencies_ns);
        self.busy_ns += other.busy_ns;
        self.failed += other.failed;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// What one stage measured.
#[derive(Default)]
pub struct StageResult {
    pub window: Duration,
    /// Per generator thread, per [`OpKind`].
    pub threads: Vec<[KindSamples; 3]>,
    pub chunks_acked: u64,
    /// Open loop: rounds, rounds started more than 1 ms late, and the
    /// offered length of the schedule.
    pub rounds: u64,
    pub late_rounds: u64,
    pub offered: Duration,
}

impl StageResult {
    /// The samples of `kind` of all threads together.
    pub fn pooled(&self, kind: OpKind) -> KindSamples {
        let mut all = KindSamples::default();
        for t in &self.threads {
            all.absorb(&t[kind as usize]);
        }
        all
    }
}

/// What the reopen check measured.
pub struct ReopenResult {
    pub reopen: Duration,
    pub checks: u64,
    pub failed: u64,
}

/// What an operation returned, kept until its timer has stopped.
enum Reply {
    Upload(bool),
    Stat(Option<timecrypt_chunk::StatSummary>),
    Range(Option<Vec<timecrypt_chunk::DataPoint>>),
}

/// Reads the process-wide allocation counters `(calls, bytes)`; installed by
/// the trace binary, absent in the measuring one.
pub static ALLOC_PROBE: std::sync::OnceLock<fn() -> (u64, u64)> = std::sync::OnceLock::new();

struct ThreadOutput {
    start: Instant,
    end: Instant,
    by_kind: [KindSamples; 3],
    chunks_acked: u64,
    uploaded_bytes: u64,
    late_rounds: u64,
}

impl Rig {
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    pub fn stages(&self) -> usize {
        self.plan.stages.len()
    }

    /// Log file bytes per sealed chunk byte acknowledged.
    pub fn store_bytes_per_user_byte(&self) -> f64 {
        let log = self.cluster.as_ref().map_or(0, Cluster::log_bytes);
        log as f64 / self.user_bytes.max(1) as f64
    }

    /// Runs stage `index` on every generator thread.
    pub fn run_stage(&mut self, index: usize) -> Result<StageResult, String> {
        let cluster = self.cluster.as_ref().ok_or("cluster is down")?;
        let stage = &self.plan.stages[index];
        let (plan, data) = (&self.plan, &self.data);
        // Connect before the barrier: a thread that failed to would leave
        // the others waiting at it.
        let conns = (0..plan.threads)
            .map(|_| cluster.connect().map(TimedTransport::new))
            .collect::<Result<Vec<Conn>, _>>()?;

        let barrier = Barrier::new(plan.threads);
        let outputs: Vec<ThreadOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(conns)
                .enumerate()
                .map(|(t, (w, mut conn))| {
                    let (barrier, ops) = (&barrier, &stage.ops[t]);
                    let pacing = stage.pacing;
                    scope.spawn(move || {
                        crate::affinity::pin_current_thread(t);
                        barrier.wait();
                        run_thread(w, &mut conn, plan, data, ops, pacing, t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "generator thread panicked".to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mut result = StageResult::default();
        let start = outputs
            .iter()
            .map(|o| o.start)
            .min()
            .expect("at least one thread");
        let end = outputs
            .iter()
            .map(|o| o.end)
            .max()
            .expect("at least one thread");
        result.window = end - start;
        for o in outputs {
            result.threads.push(o.by_kind);
            result.chunks_acked += o.chunks_acked;
            result.late_rounds += o.late_rounds;
            self.user_bytes += o.uploaded_bytes;
        }
        if let Some(p) = stage.pacing {
            let rounds = stage.ops[0].len() / p.ops_per_round;
            result.rounds = (rounds * plan.threads) as u64;
            result.offered = p.interval * rounds as u32;
        }
        Ok(result)
    }

    /// The reopen check: drops the cluster, reopens it over the same log
    /// (`LogKv` replay → `ShardNode::open`), and times up to the first
    /// correct statistical query. Then, untimed, verifies that every stream
    /// holds every acknowledged chunk and that every readable stream's
    /// full-history statistics match the oracle.
    pub fn reopen(&mut self) -> Result<ReopenResult, String> {
        drop(self.cluster.take());
        let started = Instant::now();
        let cluster = Cluster::open(self.dir.path(), self.plan.cache_bytes, self.traced)?;
        let mut conn = TimedTransport::new(cluster.connect()?);
        let first = self
            .plan
            .streams
            .iter()
            .position(|s| s.readable)
            .ok_or("plan has no readable stream")?;
        let mut result = ReopenResult {
            reopen: Duration::ZERO,
            checks: 0,
            failed: 0,
        };
        let check_stats = |k: usize, workers: &mut [Worker], conn: &mut Conn| -> bool {
            let (s, d) = (&self.plan.streams[k], &self.data[k]);
            let mut expected = vec![0u64; d.shape.width()];
            d.add_expected(0, s.total, &mut expected);
            let got = workers[k % self.plan.threads].consumer.stat_query(
                conn,
                s.id,
                0,
                d.chunk_start(s.total),
            );
            matches!(got, Ok(summary) if d.summary_matches(&expected, &summary))
        };
        let first_ok = check_stats(first, &mut self.workers, &mut conn);
        result.reopen = started.elapsed();
        result.checks += 1;
        result.failed += !first_ok as u64;
        for (k, s) in self.plan.streams.iter().enumerate() {
            result.checks += 1;
            let len = match conn.call(&Request::StreamInfo { stream: s.id }) {
                Ok(Response::Info(info)) => info.len,
                _ => 0,
            };
            // Every chunk of the plan was acknowledged (or already counted
            // as a failed upload); any of them missing now is a lost ack.
            result.failed += s.total.saturating_sub(len);
            if s.readable && k != first {
                result.checks += 1;
                result.failed += !check_stats(k, &mut self.workers, &mut conn) as u64;
            }
        }
        drop(conn);
        self.cluster = Some(cluster);
        Ok(result)
    }
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn run_thread(
    w: &mut Worker,
    conn: &mut Conn,
    plan: &Plan,
    data: &[StreamData],
    ops: &[Op],
    pacing: Option<Pacing>,
    thread: usize,
) -> ThreadOutput {
    let mut out = ThreadOutput {
        start: Instant::now(),
        end: Instant::now(),
        by_kind: Default::default(),
        chunks_acked: 0,
        uploaded_bytes: 0,
        late_rounds: 0,
    };
    for kind in OP_KINDS {
        let n = ops.iter().filter(|op| op.kind() == kind).count();
        out.by_kind[kind as usize].latencies_ns.reserve_exact(n);
        out.by_kind[kind as usize].ends_ns.reserve_exact(n);
    }
    let probe = ALLOC_PROBE.get();
    let mut expected = Vec::new();
    // Threads share the schedule but start half an interval apart.
    let offset = pacing.map_or(Duration::ZERO, |p| {
        p.interval * thread as u32 / plan.threads as u32
    });
    for (i, op) in ops.iter().enumerate() {
        // Open loop: the first operation of a round (its upload) waits for
        // the round's due time and is timed from it, so a stall shows in the
        // latency of what it delayed; a late generator starts at once.
        let timed_from = pacing.filter(|p| i % p.ops_per_round == 0).map(|p| {
            let due = out.start + offset + p.interval * (i / p.ops_per_round) as u32;
            wait_until(due);
            out.late_rounds += (due.elapsed() > Duration::from_millis(1)) as u64;
            due
        });
        let kind = op.kind();
        let allocs_before = probe.map(|p| p());
        let started = Instant::now();
        let span = spans::open(Layer::Op, kind as u8);
        let reply = match op {
            Op::SealBatch { stream, from } => Reply::Upload(
                upload_chunks(&mut w.uploaders[*stream], conn, &data[*stream], *from..*from + BATCH).is_ok(),
            ),
            Op::SealOne { stream, chunk } => Reply::Upload(
                upload_chunks(&mut w.uploaders[*stream], conn, &data[*stream], *chunk..*chunk + 1).is_ok(),
            ),
            Op::Presealed => Reply::Upload(w.presealed.next().is_some_and(|request| {
                matches!(conn.call(&request), Ok(Response::Batch { errors }) if errors.is_empty())
            })),
            Op::Stat { ids, ts_s, ts_e, .. } => Reply::Stat(if let [id] = ids[..] {
                w.consumer.stat_query(conn, id, *ts_s, *ts_e).ok()
            } else {
                w.consumer.stat_query_multi(conn, ids, *ts_s, *ts_e).ok()
            }),
            Op::Range { stream, lo, hi } => {
                let d = &data[*stream];
                Reply::Range(
                    w.consumer
                        .get_range(conn, plan.streams[*stream].id, d.chunk_start(*lo), d.chunk_start(*hi))
                        .ok(),
                )
            }
        };
        drop(span);
        let busy = started.elapsed();
        let k = &mut out.by_kind[kind as usize];
        if let (Some(probe), Some((calls, bytes))) = (probe, allocs_before) {
            let (calls_now, bytes_now) = probe();
            k.allocs += calls_now - calls;
            k.alloc_bytes += bytes_now - bytes;
        }
        k.busy_ns += busy.as_nanos() as u64;
        k.ends_ns
            .push((started + busy - out.start).as_nanos() as u64);
        k.latencies_ns
            .push(timed_from.map_or(busy, |due| due.elapsed()).as_nanos() as u64);
        // Untimed: compare the reply with the plaintext reference.
        let ok = match (op, reply) {
            (_, Reply::Upload(ok)) => ok,
            (
                Op::Stat {
                    streams, lo, hi, ..
                },
                Reply::Stat(Some(summary)),
            ) => {
                expected.clear();
                expected.resize(data[streams[0]].shape.width(), 0);
                for &s in streams {
                    data[s].add_expected(*lo, *hi, &mut expected);
                }
                data[streams[0]].summary_matches(&expected, &summary)
            }
            (Op::Range { stream, lo, hi }, Reply::Range(Some(points))) => {
                data[*stream].points_match(*lo, *hi, &points)
            }
            _ => false,
        };
        k.failed += !ok as u64;
    }
    out.chunks_acked = conn.uploaded_chunks();
    out.end = Instant::now();
    out.uploaded_bytes = conn.uploaded_bytes();
    out
}
