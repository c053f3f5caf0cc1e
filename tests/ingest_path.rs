//! Deterministic guard for the shape of the ingest path (ROADMAP aims 1
//! and 2: gate the counts that don't jitter, one way to do each thing),
//! beside `grant_cost.rs` and `write_amplification.rs`. Batched ingest is
//! what single ingest is — a call on the thread that received the frame:
//!
//! * a coordinator runs no thread of its own, idle, after a query over
//!   all its shards or after a replica rebuild (the census lines this
//!   prints are what CI copies to the job summary), and a quiescent
//!   rebuild reads each of the survivor's records once, in one pass (its
//!   "rebuild traffic" line goes to the job summary too);
//! * the shards one batch touches are written to before any of them is
//!   waited for, so their exchanges overlap;
//! * a batch costs exactly one node call per shard it touches, however
//!   many submitters are at work, and its verdicts come back by batch
//!   position;
//! * the allocations of each tier's `InsertBatch` dispatch and of the
//!   engine's run are ledger rows, no dispatch's growing with the chunks;
//! * a frame's body is allocated as its bytes arrive: a length prefix
//!   claiming the largest frame, then nothing, costs the read-ahead.

use common::{Deployment, Spec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use timecrypt::chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
use timecrypt::core::StreamKeyMaterial;
use timecrypt::crypto::{PrgKind, SecureRandom};
use timecrypt::server::{ServerError, TimeCryptServer};
use timecrypt::service::{ServiceConfig, ShardRouter, ShardSpec, ShardedService};
use timecrypt::store::MemKv;
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::pool::PoolConfig;
use timecrypt::wire::transport::{Handler, Server};

mod common;

#[global_allocator]
static ALLOCATOR: common::Counting = common::Counting;

/// The thread census reads the whole process, so the tests of this binary
/// run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serialized chunk `index` of `stream`, holding `points` points.
fn sealed(stream: u128, index: u64, points: usize) -> Vec<u8> {
    let cfg = StreamConfig {
        schema: DigestSchema::sum_count(),
        ..StreamConfig::new(stream, "m", 0, 10_000)
    };
    let keys =
        StreamKeyMaterial::with_params(stream, [stream as u8; 16], 20, PrgKind::Aes).unwrap();
    let mut rng = SecureRandom::from_seed_insecure(500 + index);
    let t0 = index as i64 * 10_000;
    PlainChunk {
        stream,
        index,
        points: (0..points as i64)
            .map(|i| DataPoint::new(t0 + i, i))
            .collect(),
    }
    .seal(&cfg, &keys, &mut rng)
    .unwrap()
    .to_bytes()
}

/// The lowest stream id that `shards`-way routing gives to `shard`.
fn stream_on(shard: usize, shards: usize) -> u128 {
    let router = ShardRouter::new(shards);
    (0..).find(|&id| router.shard_of(id) == shard).unwrap()
}

/// A coordinator's config whose socket deadline is `io_timeout`.
fn deadline(io_timeout: Duration) -> ServiceConfig {
    ServiceConfig {
        pool: PoolConfig {
            io_timeout,
            ..PoolConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// A coordinator over one listener per address: stubs, not nodes.
fn over_stubs(nodes: &[Server], io_timeout: Duration) -> ShardedService {
    let topology = nodes
        .iter()
        .map(|n| ShardSpec::remote(n.addr().to_string()));
    let cfg = ServiceConfig {
        topology: topology.collect(),
        ..deadline(io_timeout)
    };
    ShardedService::open(Arc::new(MemKv::new()), cfg).unwrap()
}

fn batch_errors(reply: Response) -> Vec<(u32, String)> {
    match reply {
        Response::Batch { errors } => errors,
        other => panic!("unexpected {other:?}"),
    }
}

/// The service's threads by role: it names every thread it starts
/// `tc-<role>-<shard>`.
#[cfg(target_os = "linux")]
fn thread_census() -> BTreeMap<String, usize> {
    let mut census: BTreeMap<String, usize> = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread can exit between the listing and the read.
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm"));
        if let Some(role) = comm.unwrap_or_default().trim().strip_prefix("tc-") {
            let role = role.trim_end_matches(|c: char| c == '-' || c.is_ascii_digit());
            *census.entry(role.to_string()).or_default() += 1;
        }
    }
    census
}

#[test]
#[cfg(target_os = "linux")]
fn an_idle_default_coordinator_runs_no_thread() {
    let _serial = serial();
    let d = Deployment::build(&Spec::coordinator(4));
    let svc = d.service();
    let shards = svc.stats().shards.len();
    let census = thread_census();
    let roles: Vec<String> = census.iter().map(|(r, n)| format!("{n} {r}")).collect();
    println!(
        "thread census of an idle default coordinator ({} shards): {} threads ({})",
        shards,
        census.values().sum::<usize>(),
        roles.join(", ")
    );
    assert!(census.is_empty(), "{census:?}");
    // Nor does a query that every shard has a leg of start one.
    let streams: Vec<u128> = (0..shards).map(|shard| stream_on(shard, shards)).collect();
    for &id in &streams {
        svc.create_stream(id, 0, 10_000, 2).unwrap();
        let stored = batch_errors(svc.handle(Request::InsertBatch {
            chunks: vec![sealed(id, 0, 1)],
        }));
        assert_eq!(stored, vec![]);
    }
    let reply = svc.get_stat_range(&streams, 0, 10_000).unwrap();
    assert_eq!(reply.parts.len(), shards);
    assert!(thread_census().is_empty(), "{:?}", thread_census());
}

#[test]
#[cfg(target_os = "linux")]
fn a_default_coordinator_rebuilds_a_replica_on_the_callers_thread() {
    let _serial = serial();
    let d = Deployment::build(&Spec::coordinator(4));
    let (svc, survivor) = (d.service(), d.meter(0));
    let shards = svc.router().shards();
    let id = stream_on(0, shards);
    svc.create_stream(id, 0, 10_000, 2).unwrap();
    let chunks = (0..4).map(|i| sealed(id, i, 1)).collect();
    assert_eq!(
        batch_errors(svc.handle(Request::InsertBatch { chunks })),
        vec![]
    );
    // A pass lists the replica once.
    let backup = d.add_node(0);
    let before = survivor.counters().bytes_read;
    svc.attach_replica(0, d.addr(backup)).unwrap();
    let read = survivor.counters().bytes_read - before;
    let census = thread_census();
    let snap = svc.stats();
    assert!(snap.shards[0].in_sync, "{snap:?}");
    assert_eq!(snap.shards[0].rebuild_chunks_copied, 4);
    println!(
        "thread census after a replica rebuild: {} threads",
        census.values().sum::<usize>()
    );
    assert!(census.is_empty(), "{census:?}");
    // One sweep of the stream, one read of it; a listing reads none.
    let records = survivor.inner().scan_prefix(b"").unwrap();
    let stored: usize = records.iter().map(|(_, value)| value.len()).sum();
    let (ratio, passes) = (
        read as f64 / stored as f64,
        d.frames_of(backup, "ListStreams"),
    );
    println!(
        "rebuild traffic: {read} B read on the survivor for {stored} B stored ({ratio:.2}×), {passes} pass(es)"
    );
    assert!(
        read as usize <= stored && passes == 1,
        "{ratio:.2}×, {passes} pass(es)"
    );
}

#[test]
fn the_shards_of_one_batch_are_written_before_any_is_waited_for() {
    let _serial = serial();
    // Two stub nodes that answer an `InsertBatch` only once both have one
    // in hand. Shards written in turn never get there: the first waits for
    // a frame the coordinator will not send until the first has answered.
    let both = Arc::new(Barrier::new(2));
    let nodes: Vec<Server> = (0..2)
        .map(|_| {
            let both = both.clone();
            let stub = move |req: Request| match req {
                Request::InsertBatch { .. } => {
                    both.wait();
                    Response::Batch { errors: vec![] }
                }
                _ => Response::Error("stub".into()),
            };
            Server::bind("127.0.0.1:0", Arc::new(stub)).unwrap()
        })
        .collect();
    let io_timeout = Duration::from_secs(3);
    let svc = over_stubs(&nodes, io_timeout);
    let chunks = vec![sealed(stream_on(0, 2), 0, 1), sealed(stream_on(1, 2), 0, 1)];
    let started = Instant::now();
    let errors = batch_errors(svc.handle(Request::InsertBatch { chunks }));
    assert_eq!(errors, vec![], "both shards answered");
    assert!(
        started.elapsed() < io_timeout / 2,
        "took {:?}",
        started.elapsed()
    );
}

/// The next chunk of stream `id`, by the submitter's own count.
fn next_chunk(next: &mut BTreeMap<u128, u64>, id: u128) -> Vec<u8> {
    let index = next.entry(id).or_default();
    *index += 1;
    sealed(id, *index - 1, 1)
}

#[test]
fn a_batch_is_one_node_call_per_shard_it_touches_and_verdicts_keep_their_positions() {
    let _serial = serial();
    const SHARDS: usize = 2;
    const BATCHES: u64 = 500; // per submitter
    let spec = Spec::remote(SHARDS, SHARDS, 1).service(deadline(Duration::from_secs(5)));
    let d = Deployment::build(&spec);
    let svc = d.service();
    let router = ShardRouter::new(SHARDS);
    // Two submitters, sixteen streams each, none shared: a stream has one
    // writer at a time.
    let touched = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2u128)
            .map(|who| {
                let svc = &svc;
                scope.spawn(move || {
                    let streams: Vec<u128> = (who * 16..who * 16 + 16).collect();
                    let mut next: BTreeMap<u128, u64> = BTreeMap::new();
                    for &id in &streams {
                        svc.create_stream(id, 0, 10_000, 2).unwrap();
                    }
                    let mut touched = 0u64;
                    for round in 0..BATCHES {
                        // A device fleet's upload (one chunk of each
                        // stream) in turn with a producer's (sixteen
                        // chunks of one stream).
                        let owners: Vec<u128> = if round % 2 == 0 {
                            streams.clone()
                        } else {
                            vec![streams[round as usize % 16]; 16]
                        };
                        let mut chunks: Vec<Vec<u8>> =
                            owners.iter().map(|&id| next_chunk(&mut next, id)).collect();
                        let mut want = Vec::new();
                        if round % 50 == 7 {
                            // A malformed chunk in the middle and a replayed
                            // one at the end: each is refused where it
                            // stands, the sixteen around them are stored.
                            chunks.insert(5, vec![0xFF; 40]);
                            chunks.push(sealed(owners[0], 0, 1));
                            let replay = ServerError::OutOfOrderChunk {
                                expected: next[&owners[0]],
                                got: 0,
                            };
                            want = vec![
                                (5, ServerError::BadChunk.to_string()),
                                (17, replay.to_string()),
                            ];
                        }
                        let shards: BTreeSet<usize> =
                            owners.iter().map(|&id| router.shard_of(id)).collect();
                        touched += shards.len() as u64;
                        let got = batch_errors(svc.handle(Request::InsertBatch { chunks }));
                        assert_eq!(got, want, "submitter {who}, round {round}");
                    }
                    (touched, next)
                })
            })
            .collect();
        submitters
            .into_iter()
            .map(|s| s.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(
        (0..SHARDS)
            .map(|n| d.frames_of(n, "InsertBatch"))
            .sum::<u64>(),
        touched.iter().map(|(n, _)| n).sum::<u64>(),
        "node InsertBatch calls == shards touched, summed over {} batches",
        2 * BATCHES
    );
    for (id, len) in touched.iter().flat_map(|(_, next)| next) {
        match svc.handle(Request::StreamInfo { stream: *id }) {
            Response::Info(info) => assert_eq!(info.len, *len, "stream {id}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn handling_a_one_shard_insert_batch_frame_allocates_a_constant_number_of_blocks() {
    let _serial = serial();
    // One remote shard on a stub node that accepts everything: what the
    // test's thread allocates is the coordinator's share — decode, route,
    // frame, read the verdicts, reply.
    let stub = |req: Request| match req {
        Request::InsertBatch { .. } => Response::Batch { errors: vec![] },
        _ => Response::Error("stub".into()),
    };
    let node = [Server::bind("127.0.0.1:0", Arc::new(stub)).unwrap()];
    let svc = over_stubs(&node, Duration::from_secs(5));
    let allocations = |chunks: u64, points: usize| {
        let mut frame = Vec::new();
        Request::InsertBatch {
            chunks: (0..chunks).map(|i| sealed(1, i, points)).collect(),
        }
        .encode_into(&mut frame);
        // The first frames dial the node and grow the connection's
        // scratch buffer; neither is a frame's own cost.
        for _ in 0..2 {
            assert_eq!(batch_errors(svc.handle_frame(&frame)), vec![]);
        }
        let (allocs, reply) = common::calls_of(|| svc.handle_frame(&frame));
        assert_eq!(batch_errors(reply), vec![]);
        (allocs, frame.len())
    };
    // The decoded list of chunk slices, the pending exchange with the node,
    // the reply frame read back and its verdict list, whatever the chunks.
    let counts = SIZES.map(|n| allocations(n, 1).0);
    let (larger_chunks, bytes) = allocations(16, 400);
    assert!(bytes > 8 * allocations(16, 1).1);
    assert_eq!(counts, [larger_chunks; 3]);
    common::ledger(&ledger_rows("coordinator_dispatch", counts));
}

const SIZES: [u64; 3] = [4, 16, 128];

/// `ingest_path.<what>.allocations.n<size>` rows, one per [`SIZES`].
fn ledger_rows(what: &str, counts: [u64; 3]) -> Vec<(String, String)> {
    let what = format!("ingest_path.{what}.allocations");
    let row = |(n, c): (u64, u64)| (format!("{what}.n{n}"), c.to_string());
    SIZES.into_iter().zip(counts).map(row).collect()
}

#[test]
fn a_node_and_an_engine_add_a_fixed_number_of_blocks_to_the_run_they_dispatch() {
    let _serial = serial();
    let engine = || Deployment::build(&Spec::engine()).engine();
    let node = Deployment::build(&Spec::node(1)).node(0);
    // Each handler beside an engine that is handed the same runs directly,
    // from the same state: what the handler allocates beyond that engine
    // is its dispatch's.
    let (framed, beside_engine, beside_node) = (engine(), engine(), engine());
    let pairs: [(&dyn Handler, &TimeCryptServer); 2] =
        [(&*framed, &*beside_engine), (&*node, &*beside_node)];
    for (handler, direct) in pairs {
        let create = Request::CreateStream {
            stream: 1,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        };
        assert_eq!(handler.handle(create), Response::Ok);
        direct.create_stream(1, 0, 10_000, 2).unwrap();
    }
    let mut counts = [[0; 3]; 3];
    for (i, first) in [0, 4, 20].into_iter().enumerate() {
        let chunks: Vec<Vec<u8>> = (first..first + SIZES[i]).map(|i| sealed(1, i, 1)).collect();
        let mut frame = Vec::new();
        Request::InsertBatch {
            chunks: chunks.clone(),
        }
        .encode_into(&mut frame);
        let views: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        for (row, (handler, direct)) in pairs.into_iter().enumerate() {
            let (dispatched, reply) = common::calls_of(|| handler.handle_frame(&frame));
            assert_eq!(batch_errors(reply), vec![]);
            let (ran, verdicts) = common::calls_of(|| direct.insert_bytes_run(&views));
            assert!(verdicts.iter().all(Result::is_ok));
            (counts[row][i], counts[2][i]) = (dispatched - ran, ran);
        }
    }
    // Each dispatch: the decoded list of chunk slices, at every size.
    assert_eq!(counts[..2], [[counts[0][0]; 3]; 2]);
    let names = ["engine_dispatch", "node_dispatch", "engine_run"];
    let rows = (names.into_iter().zip(counts)).flat_map(|(n, c)| ledger_rows(n, c));
    common::ledger(&rows.collect::<Vec<_>>());
}

#[test]
fn a_claimed_frame_length_is_allocated_as_its_bytes_arrive() {
    use std::io::Read;
    use timecrypt::wire::frame::{read_frame, FrameError, MAX_FRAME, READ_AHEAD};
    /// The prefix, then EOF; at that read, what the thread holds.
    struct ThenNothing<'a>(&'a [u8], isize, isize);
    impl Read for ThenNothing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                self.2 = self.2.max(common::live() - self.1);
            }
            self.0.read(buf)
        }
    }
    let prefix = (MAX_FRAME as u32).to_le_bytes();
    let mut peer = ThenNothing(&prefix, common::live(), 0);
    let read = read_frame(&mut peer);
    assert!(matches!(read, Err(FrameError::Io(_))), "{read:?}");
    println!("bytes held when a 16 MiB claim met EOF: {}", peer.2);
    assert!(
        peer.2 > 0 && peer.2 as usize <= READ_AHEAD + 64,
        "{} B",
        peer.2
    );
}
