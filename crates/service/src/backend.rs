//! The shard-backend seam: where a shard's requests are executed.
//!
//! The [`crate::ShardRouter`] decides *which* shard owns a stream; a
//! [`ShardBackend`] decides *where* that shard runs. Two implementations:
//!
//! * [`LocalShard`] — an in-process [`TimeCryptServer`] engine (the only
//!   option before multi-node support; still the default).
//! * [`RemoteShard`] — a shard hosted by a `timecrypt-node` process,
//!   reached over the blocking TCP transport through a
//!   [`ClientPool`] (reconnect-with-backoff). Scatter-gather legs are
//!   *pipelined*: a leg's per-stream sub-queries stream onto one
//!   connection with up to `PIPELINE_WINDOW` requests in flight ahead of
//!   the responses being drained — one round trip of latency per leg,
//!   without the buffer-deadlock an unbounded send loop would risk.
//!
//! [`ShardReplicas`] composes one primary backend with an optional backup
//! (replication factor R=2): mutations go primary-then-backup, reads fail
//! over to the backup when the primary is unreachable. Failovers and
//! backup divergence are counted in the shard's
//! [`metrics`](crate::metrics::ShardMetrics).
//!
//! Error contract: every trait method returns
//! `Err(`[`ServerError::Unavailable`]`)` **only** for transport-level
//! failure (the backend cannot be reached at all) — that is the signal
//! [`ShardReplicas`] fails over on. Application-level errors travel inside
//! the `Ok` payload: for remote backends as [`ServerError::Remote`], whose
//! `Display` is the node's message verbatim, so wire replies stay
//! byte-identical between single-process and multi-node deployments.

use crate::fanout::ReaderPool;
use crate::metrics::{ServiceMetrics, ShardMetrics, ShardOccupancy};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;
use timecrypt_chunk::serialize::ChunkRef;
use timecrypt_obs::{trace, TraceContext};
use timecrypt_server::{ServerError, StreamStat, TimeCryptServer};
use timecrypt_wire::messages::{Request, Response, ServiceStatsWire, StreamInfoWire};
use timecrypt_wire::pool::{ClientPool, PoolConfig};

/// One per-stream statistical sub-query outcome.
pub(crate) type StreamStatResult = Result<StreamStat, ServerError>;

/// A scatter-gather leg: `(position in the request, stream id)` pairs, all
/// owned by one shard.
pub(crate) type Leg = [(usize, u128)];

const UNREACHABLE: ServerError = ServerError::Unavailable("shard node unreachable");

/// The verdict for a mutation whose exchange failed at the transport
/// level *after* it may have reached the primary (a timeout or severed
/// connection mid-exchange): the write's fate is unknown, so the service
/// must not blindly retry it — the peer may have applied it, and a
/// duplicate would be acknowledged-then-rejected downstream. Callers
/// that want at-least-once semantics re-submit explicitly and treat the
/// engine's strict next-index rejection as "already applied".
pub(crate) const AMBIGUOUS: ServerError =
    ServerError::Unavailable("mutation outcome unknown: shard unreachable mid-exchange");

/// The reply to a request whose [`Route`](timecrypt_wire::messages::Route)
/// says the serving tier answers it itself, but which the tier has no arm
/// for: a variant added to the protocol without a handler.
pub(crate) const UNROUTED: ServerError =
    ServerError::Unavailable("request has no handler at this tier");

/// Where a shard (or its backup replica) runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendSpec {
    /// In this process, over the coordinator's shared KV store.
    Local,
    /// On a `timecrypt-node` process at `host:port`.
    Remote(String),
}

/// One shard's placement: a primary backend and an optional backup
/// replica (replication factor R=2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Where the shard's primary runs.
    pub primary: BackendSpec,
    /// Optional backup replica. Must be remote: a "local" backup would
    /// share the primary's store and self-corrupt.
    pub backup: Option<BackendSpec>,
}

impl ShardSpec {
    /// An unreplicated in-process shard (the classic deployment).
    pub fn local() -> Self {
        ShardSpec {
            primary: BackendSpec::Local,
            backup: None,
        }
    }

    /// An unreplicated remote shard at `addr` (`host:port`).
    pub fn remote(addr: impl Into<String>) -> Self {
        ShardSpec {
            primary: BackendSpec::Remote(addr.into()),
            backup: None,
        }
    }

    /// Adds a remote backup replica at `addr`.
    pub fn with_backup(mut self, addr: impl Into<String>) -> Self {
        self.backup = Some(BackendSpec::Remote(addr.into()));
        self
    }
}

/// Executes one shard's operations, wherever the shard runs. See the
/// module docs for the error contract.
///
/// Five methods. `call` carries every plain request/reply: stream
/// creation, the rebuild seam's list / export / length probes and the
/// node stats probe are functions over it, written once. The others are
/// what a `call` cannot express: `stat_leg` pipelines a leg on one
/// connection, `insert_batch` frames borrowed chunk bytes, `occupancy`
/// is the one probe a local engine cannot answer as a wire request (it
/// has no `Stats`), and `endpoint` names the node.
pub trait ShardBackend: Send + Sync + 'static {
    /// Dispatches one wire request and returns the shard's reply.
    fn call(&self, req: Request) -> Result<Response, ServerError>;

    /// Executes one scatter-gather leg: a per-stream statistical sub-query
    /// for every `(position, stream)` entry, returned with the positions
    /// so the caller can merge in request order.
    fn stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<(usize, StreamStatResult)>, ServerError>;

    /// Ingests `chunks` — serialized chunk bytes, validated where they
    /// entered the service — in order (per-stream submission order is the
    /// service tier's ordering contract) and reports per-chunk verdicts.
    /// Also the import side of the replica-rebuild seam: exported pages
    /// are applied verbatim, and chunks rejected as out-of-order against
    /// the replica's current length are expected when the copy races live
    /// write-mirroring — the rebuild loop re-reads the length and
    /// converges.
    fn insert_batch(&self, chunks: &[&[u8]]) -> Result<Vec<Result<(), ServerError>>, ServerError>;

    /// Stream occupancy: hosted stream count plus the shard's resident /
    /// hydration / eviction counters.
    fn occupancy(&self) -> Result<ShardOccupancy, ServerError>;

    /// The remote endpoint (`host:port`) this backend dials, `None` for
    /// in-process backends. Lets the coordinator's stats aggregation
    /// dedup per-node probes when one node hosts several shards.
    fn endpoint(&self) -> Option<&str> {
        None
    }
}

/// Full stats snapshot of the node behind `backend`. In-process backends
/// answer `None` (an engine has no service stats): the coordinator reads
/// its own counters directly, and summing them here would double-count.
pub(crate) fn node_stats(backend: &dyn ShardBackend) -> Option<ServiceStatsWire> {
    match backend.call(Request::Stats) {
        Ok(Response::ServiceStats(stats)) => Some(stats),
        _ => None,
    }
}

/// A stream's chunk count on `backend`, `None` when the stream does not
/// exist there (or the backend is unreachable — the caller's pass retries
/// either way).
fn stream_len(backend: &dyn ShardBackend, stream: u128) -> Option<u64> {
    match backend.call(Request::StreamInfo { stream }) {
        Ok(Response::Info(info)) => Some(info.len),
        _ => None,
    }
}

/// Metadata of every stream of `shard` hosted by `backend`, ascending by
/// stream id (the export side of the replica-rebuild seam: the survivor
/// enumerates what a replacement must copy). `None` when unreachable.
fn list_streams(backend: &dyn ShardBackend, shard: usize) -> Option<Vec<StreamInfoWire>> {
    let shard = shard as u32;
    match backend.call(Request::ListStreams { shard }) {
        Ok(Response::StreamList(infos)) => Some(infos),
        _ => None,
    }
}

/// One page of a stream's raw encrypted chunks starting at `from_idx`,
/// sized under the wire frame cap (the export side of the replica-rebuild
/// seam). Empty when nothing is exportable at `from_idx`; `None` when the
/// stream is missing or the backend unreachable.
fn export_page(backend: &dyn ShardBackend, stream: u128, from_idx: u64) -> Option<Vec<Vec<u8>>> {
    match backend.call(Request::ExportStream { stream, from_idx }) {
        Ok(Response::StreamChunks { chunks, .. }) => Some(chunks),
        _ => None,
    }
}

/// Executes one per-stream sub-query with metrics. One latency sample and
/// one `queries` increment per sub-query, so `Request::Stats` histogram
/// totals and counters agree by construction.
pub(crate) fn metered_stat(
    engine: &TimeCryptServer,
    m: &ShardMetrics,
    sid: u128,
    ts_s: i64,
    ts_e: i64,
) -> StreamStatResult {
    let _span = trace::stage("engine.query");
    let t = Instant::now();
    let r = engine.stream_stat(sid, ts_s, ts_e);
    m.query_latency.record(t.elapsed());
    m.queries.fetch_add(1, Ordering::Relaxed);
    if r.is_err() {
        m.query_errors.fetch_add(1, Ordering::Relaxed);
    }
    r
}

/// The in-process backend: a filtered engine over the coordinator's
/// shared store.
pub struct LocalShard {
    engine: Arc<TimeCryptServer>,
    readers: Arc<ReaderPool>,
    metrics: Arc<ServiceMetrics>,
    shard: usize,
}

impl LocalShard {
    pub(crate) fn new(
        engine: Arc<TimeCryptServer>,
        readers: Arc<ReaderPool>,
        metrics: Arc<ServiceMetrics>,
        shard: usize,
    ) -> Self {
        LocalShard {
            engine,
            readers,
            metrics,
            shard,
        }
    }
}

impl ShardBackend for LocalShard {
    fn call(&self, req: Request) -> Result<Response, ServerError> {
        use timecrypt_wire::transport::Handler;
        Ok(self.engine.handle(req))
    }

    /// The engine's read path takes no exclusive stream lock, so the
    /// sub-queries of a large leg are independent: the leg is sliced
    /// across the shared reader pool (the caller keeps the first slice
    /// inline). Small legs (or a zero-reader pool) stay sequential — no
    /// handoff cost.
    fn stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<(usize, StreamStatResult)>, ServerError> {
        let m = self.metrics.shard(self.shard);
        // At most one offloaded slice per reader, and always ≥ 1 sub-query
        // kept inline so the caller makes progress itself.
        let offload_slices = self.readers.len().min(legs.len().saturating_sub(1));
        if offload_slices == 0 {
            return Ok(legs
                .iter()
                .map(|&(pos, sid)| (pos, metered_stat(&self.engine, m, sid, ts_s, ts_e)))
                .collect());
        }
        let per = legs.len().div_ceil(offload_slices + 1);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let mut offloaded = 0usize;
        // Reader threads are shared across requests: each slice carries
        // the submitting request's trace context across the handoff.
        let ctx = trace::current();
        for slice in legs[per..].chunks(per) {
            let engine = self.engine.clone();
            let metrics = self.metrics.clone();
            let shard = self.shard;
            let slice: Vec<(usize, u128)> = slice.to_vec();
            let reply = reply_tx.clone();
            self.readers.exec(Box::new(move || {
                let _trace = trace::set_current(ctx);
                let m = metrics.shard(shard);
                let out: Vec<(usize, StreamStatResult)> = slice
                    .iter()
                    .map(|&(pos, sid)| (pos, metered_stat(&engine, m, sid, ts_s, ts_e)))
                    .collect();
                // A dropped caller just means nobody wants the result.
                let _ = reply.send(out);
            }));
            offloaded += 1;
        }
        drop(reply_tx);
        let mut out: Vec<(usize, StreamStatResult)> = legs[..per]
            .iter()
            .map(|&(pos, sid)| (pos, metered_stat(&self.engine, m, sid, ts_s, ts_e)))
            .collect();
        for _ in 0..offloaded {
            // A closed channel means a slice was lost to a reader panic; the
            // affected positions fall through to the caller's "query leg
            // lost" default instead of stranding anyone. Buffered results are
            // still delivered before `recv` reports disconnection.
            let Ok(slice) = reply_rx.recv() else { break };
            out.extend(slice);
        }
        Ok(out)
    }

    fn insert_batch(&self, chunks: &[&[u8]]) -> Result<Vec<Result<(), ServerError>>, ServerError> {
        let m = self.metrics.shard(self.shard);
        // Each stream's chunks go to the engine as one run (one
        // ingest-lock acquisition and one coalesced index append instead
        // of per-chunk lock/append/store cycles), stored from the input
        // bytes. Panic containment is per stream run: a poisoned stream
        // must not make chunks of *other* streams — possibly already
        // durably committed by their own runs — report failure, or a
        // replica mirror would skip writes the primary actually holds.
        let t = std::time::Instant::now();
        let mut verdicts: Vec<Option<Result<(), ServerError>>> = Vec::new();
        verdicts.resize_with(chunks.len(), || None);
        let mut order: Vec<u128> = Vec::new();
        let mut groups: std::collections::HashMap<u128, (Vec<&[u8]>, Vec<usize>)> =
            std::collections::HashMap::new();
        for (pos, &bytes) in chunks.iter().enumerate() {
            // The grouping key is peeked, not parsed: the engine's run
            // performs the one full validation.
            let Some(stream) = ChunkRef::peek_stream(bytes) else {
                verdicts[pos] = Some(Err(ServerError::BadChunk));
                continue;
            };
            let entry = groups.entry(stream).or_insert_with(|| {
                order.push(stream);
                (Vec::new(), Vec::new())
            });
            entry.0.push(bytes);
            entry.1.push(pos);
        }
        for stream in order {
            // `order` records each stream exactly once, when its group is created.
            let Some((run, positions)) = groups.remove(&stream) else {
                continue;
            };
            let run_verdicts = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.engine.insert_bytes_run(&run)
            }))
            .unwrap_or_else(|_| {
                run.iter()
                    .map(|_| Err(ServerError::Unavailable("shard engine panicked")))
                    .collect()
            });
            for (pos, verdict) in positions.into_iter().zip(run_verdicts) {
                verdicts[pos] = Some(verdict);
            }
        }
        let verdicts: Vec<Result<(), ServerError>> = verdicts
            .into_iter()
            .map(|v| v.unwrap_or(Err(ServerError::Unavailable("chunk received no verdict"))))
            .collect();
        crate::ingest::record_run_metrics(m, t.elapsed(), &verdicts);
        Ok(verdicts)
    }

    fn occupancy(&self) -> Result<ShardOccupancy, ServerError> {
        Ok(ShardOccupancy::of(&self.engine))
    }
}

/// A shard hosted by a `timecrypt-node` process, reached over TCP.
pub struct RemoteShard {
    pool: ClientPool,
    metrics: Arc<ServiceMetrics>,
    shard: usize,
}

impl RemoteShard {
    pub(crate) fn new(
        addr: String,
        pool_cfg: PoolConfig,
        metrics: Arc<ServiceMetrics>,
        shard: usize,
    ) -> Self {
        RemoteShard {
            pool: ClientPool::new(addr, pool_cfg),
            metrics,
            shard,
        }
    }
}

/// The trace context to stamp on the next outgoing request: a child of
/// the caller's current context.
fn trace_ctx() -> Option<TraceContext> {
    trace::current().map(|c| c.child())
}

impl ShardBackend for RemoteShard {
    fn call(&self, req: Request) -> Result<Response, ServerError> {
        let _span = trace::stage("backend.exchange");
        match self.pool.call_traced(trace_ctx(), &req) {
            Ok(resp) => Ok(resp),
            // `ClientPool::call` surfaces `Response::Error` as a client
            // error; re-wrap it — the node answered, the transport is fine.
            Err(timecrypt_wire::transport::ClientError::Server(msg)) => Ok(Response::Error(msg)),
            Err(_) => Err(UNREACHABLE),
        }
    }

    /// Pipelines the whole leg on one pooled connection: every sub-query
    /// is sent before the first response is read, so the leg pays one
    /// round-trip of latency, not one per stream. Streams whose window is
    /// empty need their digest width (the empty/width distinction matters
    /// to the merge fold), which the `Stat` reply cannot carry — a second
    /// pipelined round of `StreamInfo` probes resolves those.
    fn stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<(usize, StreamStatResult)>, ServerError> {
        let _span = trace::stage("backend.exchange");
        match self.try_stat_leg(legs, ts_s, ts_e, false) {
            Ok(out) => Ok(out),
            // The pooled connection was likely stale (node restarted
            // underneath it); sub-queries are idempotent, so retry the
            // whole leg once on a freshly dialed connection.
            Err(_) => self.try_stat_leg(legs, ts_s, ts_e, true),
        }
    }

    fn insert_batch(&self, chunks: &[&[u8]]) -> Result<Vec<Result<(), ServerError>>, ServerError> {
        let _span = trace::stage("backend.exchange");
        let m = self.metrics.shard(self.shard);
        let ctx = trace_ctx();
        let t = Instant::now();
        // Frame assembly is the one payload copy of this hop: each
        // chunk's bytes are appended as received, straight into the
        // connection's scratch buffer (no per-chunk `Vec<u8>`, no owned
        // `Request`), whose capacity is reused across drains on the
        // pooled connection.
        let reply = self.pool.call_with(|buf| {
            if let Some(ctx) = ctx {
                timecrypt_wire::messages::encode_trace_prefix(ctx, buf);
            }
            let mut enc = timecrypt_wire::messages::BatchEncoder::begin(buf);
            for c in chunks {
                enc.append_with(c.len(), |out| out.extend_from_slice(c));
            }
            enc.finish();
        });
        let elapsed = t.elapsed();
        let results: Vec<Result<(), ServerError>> = match reply {
            Ok(Response::Batch { errors }) => {
                let mut results: Vec<Result<(), ServerError>> =
                    chunks.iter().map(|_| Ok(())).collect();
                for (idx, msg) in errors {
                    if let Some(slot) = results.get_mut(idx as usize) {
                        *slot = Err(ServerError::Remote(msg));
                    }
                }
                results
            }
            // The node answered, but not with a batch verdict: fail every
            // chunk with the node's message (transport is still fine).
            Ok(Response::Error(msg)) | Err(timecrypt_wire::transport::ClientError::Server(msg)) => {
                chunks
                    .iter()
                    .map(|_| Err(ServerError::Remote(msg.clone())))
                    .collect()
            }
            Ok(_) => chunks
                .iter()
                .map(|_| Err(ServerError::Unavailable("unexpected remote batch reply")))
                .collect(),
            Err(_) => return Err(UNREACHABLE),
        };
        crate::ingest::record_run_metrics(m, elapsed, &results);
        Ok(results)
    }

    fn occupancy(&self) -> Result<ShardOccupancy, ServerError> {
        match self.call(Request::Stats)? {
            Response::ServiceStats(stats) => Ok(stats
                .shards
                .iter()
                .find(|s| s.shard == self.shard as u32)
                .map(|s| ShardOccupancy {
                    streams: s.streams,
                    resident_streams: s.resident_streams,
                    hydrations: s.hydrations,
                    evictions: s.evictions,
                })
                .unwrap_or_default()),
            _ => Ok(ShardOccupancy::default()),
        }
    }

    fn endpoint(&self) -> Option<&str> {
        Some(self.pool.addr())
    }
}

/// Maximum unanswered pipelined requests per connection. Requests are a
/// few dozen bytes, so a count-bounded window keeps the request direction
/// far below socket-buffer capacity while replies are drained
/// concurrently — the property that makes the strict-FIFO pipeline
/// deadlock-free even for legs of thousands of sub-queries (an unbounded
/// send loop could fill both directions' buffers and wedge coordinator
/// and node against each other).
const PIPELINE_WINDOW: usize = 128;

impl RemoteShard {
    /// One pipelined leg attempt on one connection (pooled or fresh).
    ///
    /// Metrics are published only when the attempt completes: a discarded
    /// attempt (stale connection, mid-leg failure) must not skew the
    /// per-sub-query counter/histogram invariant when the leg is retried
    /// or failed over.
    fn try_stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
        fresh: bool,
    ) -> Result<Vec<(usize, StreamStatResult)>, ServerError> {
        let mut conn = if fresh {
            self.pool.fresh()
        } else {
            self.pool.get()
        }
        .map_err(|_| UNREACHABLE)?;
        let ctx = trace_ctx();
        // The node renders a per-stream empty window as this exact string
        // (both sides run the same code); it is the one app-level "error"
        // that is *not* an error to the merge fold.
        let empty_range = ServerError::EmptyRange.to_string();
        let mut out: Vec<(usize, StreamStatResult)> = Vec::with_capacity(legs.len());
        // Positions (into `out`) that need a follow-up width probe.
        let mut width_probes: Vec<usize> = Vec::new();
        // Per-sub-query send timestamps: FIFO pipelining means response i
        // answers request i, so sampling recv-time − send-time gives each
        // sub-query its true latency (timing only the recv wait would
        // credit every reply behind the first with ~0 µs). Recorded on
        // attempt success.
        let mut send_times = Vec::with_capacity(legs.len());
        let mut samples = Vec::with_capacity(legs.len());
        let mut sent = 0usize;
        while out.len() < legs.len() {
            // Top the window up, then drain one response.
            while sent < legs.len() && sent - out.len() < PIPELINE_WINDOW {
                let (_, sid) = legs[sent];
                send_times.push(Instant::now());
                if conn
                    .client()
                    .send_traced(
                        ctx,
                        &Request::GetStatRange {
                            streams: vec![sid],
                            ts_s,
                            ts_e,
                        },
                    )
                    .is_err()
                {
                    conn.discard();
                    return Err(UNREACHABLE);
                }
                sent += 1;
            }
            let resp = match conn.client().recv() {
                Ok(r) => r,
                Err(_) => {
                    conn.discard();
                    return Err(UNREACHABLE);
                }
            };
            samples.push(send_times[out.len()].elapsed());
            // Responses arrive in send order: this one answers `legs[out.len()]`.
            let (pos, _) = legs[out.len()];
            let result: StreamStatResult = match resp {
                Response::Stat(s) => match (s.parts.as_slice(), s.agg) {
                    ([(_, lo, hi)], agg) => Ok((agg.len() as u32, Some((*lo, *hi, agg)))),
                    _ => Err(ServerError::Unavailable("malformed remote stat reply")),
                },
                Response::Error(msg) if msg == empty_range => {
                    width_probes.push(out.len());
                    // Placeholder until the width probe resolves.
                    Ok((0, None))
                }
                Response::Error(msg) => Err(ServerError::Remote(msg)),
                _ => Err(ServerError::Unavailable("unexpected remote stat reply")),
            };
            out.push((pos, result));
        }
        // Second pipelined round: width probes for empty-window streams,
        // same window discipline.
        let mut probes_sent = 0usize;
        let mut probes_done = 0usize;
        while probes_done < width_probes.len() {
            while probes_sent < width_probes.len() && probes_sent - probes_done < PIPELINE_WINDOW {
                // `out[i]` was produced from `legs[i]` (pushed in leg order).
                let (_, sid) = legs[width_probes[probes_sent]];
                if conn
                    .client()
                    .send_traced(ctx, &Request::StreamInfo { stream: sid })
                    .is_err()
                {
                    conn.discard();
                    return Err(UNREACHABLE);
                }
                probes_sent += 1;
            }
            let resp = match conn.client().recv() {
                Ok(r) => r,
                Err(_) => {
                    conn.discard();
                    return Err(UNREACHABLE);
                }
            };
            out[width_probes[probes_done]].1 = match resp {
                Response::Info(info) => Ok((info.digest_width, None)),
                Response::Error(msg) => Err(ServerError::Remote(msg)),
                _ => Err(ServerError::Unavailable("unexpected remote info reply")),
            };
            probes_done += 1;
        }
        // Attempt completed — publish its metrics: one latency sample and
        // one `queries` tick per sub-query (histogram total == counter).
        let m = self.metrics.shard(self.shard);
        for d in samples {
            m.query_latency.record(d);
        }
        m.queries.fetch_add(legs.len() as u64, Ordering::Relaxed);
        let errors = out.iter().filter(|(_, r)| r.is_err()).count() as u64;
        if errors > 0 {
            m.query_errors.fetch_add(errors, Ordering::Relaxed);
        }
        Ok(out)
    }
}

/// Backup replica health. Write mirroring is armed in *every* state —
/// the replica must not miss writes while it catches up — but only an
/// in-sync backup serves failover reads and is promotion-eligible:
/// both require the replica to hold every acknowledged write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReplicaHealth {
    /// Has mirrored every acknowledged write since it was last verified:
    /// serves failover reads, promotion-eligible. A failed or diverging
    /// mirror write counts drift *and demotes to [`Self::Drifted`]* —
    /// the replica provably no longer matches acknowledged state.
    InSync,
    /// Missed or diverged on at least one acknowledged write: mirror
    /// outcomes keep counting in `replica_errors`, but the replica is
    /// untrusted for reads and promotion until a rebuild
    /// ([`crate::ShardedService::rebuild_replica`]) verifies it again.
    Drifted,
    /// Catching up under a rebuild worker: mirrored-write rejections are
    /// expected (the copy has not reached them yet), not drift.
    Rebuilding,
}

/// A backup replica and its lifecycle state.
#[derive(Clone)]
struct BackupState {
    backend: Arc<dyn ShardBackend>,
    health: ReplicaHealth,
}

/// The current primary/backup assignment of one shard (swapped by
/// promotion, extended by [`ShardReplicas::attach_backup`]).
struct Roles {
    primary: Arc<dyn ShardBackend>,
    backup: Option<BackupState>,
}

/// One shard's replica set: a primary backend plus an optional backup,
/// with a health state machine that closes the R=2 loop.
///
/// * **Mutations** (`write_then_mirror`: `call` of a mutation,
///   `ingest_batch`, `create_stream`) go primary-then-backup. If the
///   primary is unreachable
///   the mutation fails *without* touching the backup — the backup only
///   ever receives writes the primary received, in the same order, which
///   is the invariant that keeps the replicas byte-identical. A backup
///   failure (or a verdict diverging from the primary's) does not fail
///   the operation; it ticks `replica_errors` and *demotes* an in-sync
///   backup to the drifted state — a replica that provably missed an
///   acknowledged write must never be promoted or serve failover reads,
///   or acknowledged data would silently vanish.
/// * **Reads** (`read_with_failover`: `call` of a read, `stat_leg`,
///   `occupancy`) go to the primary and fail over to an *in-sync* backup
///   when the primary is unreachable, ticking `failovers`. A rebuilding
///   or drifted replica never serves reads — it would answer from
///   incomplete data.
/// * **Promotion.** Every primary transport failure counts a strike
///   (any success resets them). At `promote_after` consecutive strikes
///   with an in-sync backup attached, the backup *becomes* the primary:
///   reads and writes flip to it, `promotions` ticks, and the operation
///   that crossed the threshold is retried once against the new primary.
///   Replies stay byte-identical because the backup received every
///   acknowledged write. The shard then runs un-replicated until a
///   replacement is attached.
/// * **Rebuild.** `attach_backup` (driven by
///   [`crate::ShardedService::attach_replica`]) adds a replacement in
///   the rebuilding state; a worker then drives `rebuild_backup`, which
///   copies every hosted stream from the survivor, verifies chunk
///   counts, and flips the replica to in-sync — closing the loop. The
///   same worker re-verifies a drifted replica
///   ([`crate::ShardedService::rebuild_replica`]): strict next-index
///   ingest means a drifted replica is always a *prefix* of its primary,
///   so an in-place copy from its current length converges.
///
/// Per-stream write ordering on the backup follows from the service
/// tier's existing contract: each stream's writes flow through one shard
/// ingest worker (or one synchronous caller), so primary and backup see
/// the same per-stream sequence.
pub struct ShardReplicas {
    shard: usize,
    metrics: Arc<ServiceMetrics>,
    roles: RwLock<Roles>,
    /// Consecutive primary transport failures; reset by any success.
    strikes: AtomicU32,
    /// Strikes required to promote; `0` disables automatic promotion.
    promote_after: u32,
    /// Guards against two rebuild workers copying the same shard at once.
    rebuilding: AtomicBool,
    /// Generation counter of mirrored writes the backup missed (bumped
    /// under the roles lock). The rebuild worker compares it across its
    /// verification pass: a drop in that window means an acknowledged
    /// write may postdate the verified lengths, so the replica must not
    /// be marked in sync yet — another pass picks the write up.
    mirror_drops: AtomicU32,
}

impl ShardReplicas {
    pub(crate) fn new(
        shard: usize,
        metrics: Arc<ServiceMetrics>,
        primary: Arc<dyn ShardBackend>,
        backup: Option<Arc<dyn ShardBackend>>,
        promote_after: u32,
    ) -> Self {
        metrics
            .shard(shard)
            .in_sync
            .store(backup.is_some(), Ordering::Relaxed);
        ShardReplicas {
            shard,
            metrics,
            roles: RwLock::new(Roles {
                primary,
                // A topology-configured backup mirrors from the first
                // write, so it starts in sync.
                backup: backup.map(|backend| BackupState {
                    backend,
                    health: ReplicaHealth::InSync,
                }),
            }),
            strikes: AtomicU32::new(0),
            promote_after,
            rebuilding: AtomicBool::new(false),
            mirror_drops: AtomicU32::new(0),
        }
    }

    /// This shard's metrics (shared with the ingest worker).
    pub(crate) fn metrics(&self) -> &ShardMetrics {
        self.m()
    }

    fn m(&self) -> &ShardMetrics {
        self.metrics.shard(self.shard)
    }

    /// A consistent snapshot of the current role assignment. Operations
    /// run against the snapshot — a concurrent promotion flips *later*
    /// operations, never one in flight.
    fn snapshot(&self) -> (Arc<dyn ShardBackend>, Option<BackupState>) {
        let roles = self.roles.read();
        (roles.primary.clone(), roles.backup.clone())
    }

    /// The current primary alone (mutation paths re-read the backup via
    /// [`Self::mirror_target`] after the primary acknowledged).
    fn primary(&self) -> Arc<dyn ShardBackend> {
        self.roles.read().primary.clone()
    }

    fn note_primary_ok(&self) {
        self.strikes.store(0, Ordering::Relaxed);
    }

    /// Counts one primary transport failure and promotes the in-sync
    /// backup once the strike threshold is reached. Returns `true` when
    /// the caller should retry against a (possibly concurrently) promoted
    /// primary.
    fn note_primary_failure(&self, failed: &Arc<dyn ShardBackend>) -> bool {
        let strikes = {
            // Count under the roles read lock, only against the *current*
            // primary: a stale failure observed before a concurrent
            // promotion must not leak a phantom strike onto the freshly
            // promoted primary (promotion resets the counter while
            // holding the write lock, which this read lock excludes).
            let roles = self.roles.read();
            if !Arc::ptr_eq(&roles.primary, failed) {
                // Already replaced; our operation can retry against the
                // new primary.
                return true;
            }
            self.strikes
                .fetch_add(1, Ordering::Relaxed)
                .saturating_add(1)
        };
        if self.promote_after == 0 || strikes < self.promote_after {
            return false;
        }
        let mut roles = self.roles.write();
        if !Arc::ptr_eq(&roles.primary, failed) {
            return true;
        }
        match roles.backup.take() {
            Some(promoted) if promoted.health == ReplicaHealth::InSync => {
                // The old primary is dropped: it is unreachable, and were
                // it to come back it would be stale — it must be re-added
                // via attach + rebuild, never trusted again.
                roles.primary = promoted.backend;
                self.strikes.store(0, Ordering::Relaxed);
                let m = self.m();
                m.promotions.fetch_add(1, Ordering::Relaxed);
                m.in_sync.store(false, Ordering::Relaxed);
                true
            }
            // No backup, or one that is rebuilding/drifted: nothing safe
            // to promote — put it back untouched.
            other => {
                roles.backup = other;
                false
            }
        }
    }

    /// Accounts a failed or diverging mirror write, deciding against the
    /// backup's health *now*, under the roles lock — not the caller's
    /// pre-operation snapshot, which a concurrent rebuild completion may
    /// have outdated. An in-sync backup is *demoted*: a replica that
    /// provably missed an acknowledged write must not be promoted or
    /// serve reads (acknowledged data would silently vanish) until a
    /// rebuild ([`crate::ShardedService::rebuild_replica`]) re-verifies
    /// it. During a rebuild the rejection is expected (the copy has not
    /// reached this write yet) and only bumps `mirror_drops`, which the
    /// rebuild worker checks before trusting its verification.
    fn note_mirror_drift(&self, drifted: &Arc<dyn ShardBackend>, errors: u64) {
        if errors == 0 {
            return;
        }
        let mut roles = self.roles.write();
        self.mirror_drops.fetch_add(1, Ordering::AcqRel);
        let Some(b) = &mut roles.backup else { return };
        if !Arc::ptr_eq(&b.backend, drifted) {
            return;
        }
        match b.health {
            ReplicaHealth::Rebuilding => {}
            ReplicaHealth::InSync => {
                self.m().replica_errors.fetch_add(errors, Ordering::Relaxed);
                b.health = ReplicaHealth::Drifted;
                self.m().in_sync.store(false, Ordering::Relaxed);
            }
            ReplicaHealth::Drifted => {
                self.m().replica_errors.fetch_add(errors, Ordering::Relaxed);
            }
        }
    }

    /// The backup to mirror a just-acknowledged write to, re-read *after*
    /// the primary call returned: a replica attached (or verified in
    /// sync) while the slow primary call was in flight must still receive
    /// — or be held accountable for — this acknowledged write.
    fn mirror_target(&self) -> Option<BackupState> {
        self.roles.read().backup.clone()
    }

    /// The read policy: the primary answers; when it is unreachable an
    /// *in-sync* backup answers instead (one `failovers` tick), and when
    /// no backup may answer but the failure triggered (or lost the race
    /// to) a promotion, `op` is retried once against the new primary. The
    /// error is the last backend's.
    fn read_with_failover<T>(
        &self,
        op: impl Fn(&dyn ShardBackend) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut retried = false;
        loop {
            let (primary, backup) = self.snapshot();
            let err = match op(&*primary) {
                Ok(out) => {
                    self.note_primary_ok();
                    return Ok(out);
                }
                Err(e) => e,
            };
            // Strikes count on an un-replicated shard too: a replica
            // attached later can be promoted as soon as it is in sync.
            let promoted = self.note_primary_failure(&primary);
            // Only an in-sync backup may answer reads — a rebuilding or
            // drifted replica would answer from incomplete data.
            if let Some(b) = backup.filter(|b| b.health == ReplicaHealth::InSync) {
                self.m().failovers.fetch_add(1, Ordering::Relaxed);
                return op(&*b.backend);
            }
            if promoted && !retried {
                retried = true;
                continue;
            }
            return Err(err);
        }
    }

    /// The write policy: primary first, then the mirror. `missed` counts
    /// the acknowledged writes the backup lacks, given the primary's
    /// outcome and the mirror's (`None`: backup unreachable). Every
    /// mutation takes this path, replicated shard or not: the mirror
    /// target must be re-read *after* the primary acknowledges, so a
    /// backup attached (and even armed) while the call was in flight
    /// still receives — or vetoes the arming of — the acknowledged write.
    /// A snapshot-gated fast path would let an acked mutation bypass a
    /// mid-flight attach.
    ///
    /// An unreachable primary fails the write *without* touching the
    /// backup, which therefore never holds state the primary lacks. At
    /// most two attempts: the retry runs only when the first attempt's
    /// failure triggered (or lost the race to) a promotion — safe, because
    /// the mirror only runs after the primary acknowledged client-side,
    /// so a write whose ack was lost never reached the backup, and strict
    /// next-index ingest rejects any duplicate that somehow did. With no
    /// safe retry target the error is [`AMBIGUOUS`], not the generic
    /// transport error, so callers know the write may have been applied.
    fn write_then_mirror<T>(
        &self,
        op: impl Fn(&dyn ShardBackend) -> Result<T, ServerError>,
        missed: impl Fn(&T, Option<&T>) -> u64,
    ) -> Result<T, ServerError> {
        let mut retried = false;
        loop {
            let primary = self.primary();
            let Ok(out) = op(&*primary) else {
                if self.note_primary_failure(&primary) && !retried {
                    retried = true;
                    continue;
                }
                return Err(AMBIGUOUS);
            };
            self.note_primary_ok();
            if let Some(b) = self.mirror_target() {
                // Unreachable backup or diverging verdict: the operation
                // stands (the primary accepted it), but the replica missed
                // it — `note_mirror_drift` decides against its *current*
                // health whether that is drift or an expected mid-rebuild
                // rejection.
                let mirrored = op(&*b.backend).ok();
                self.note_mirror_drift(&b.backend, missed(&out, mirrored.as_ref()));
            }
            return Ok(out);
        }
    }

    /// Dispatches one wire request under the write policy (mutations; the
    /// mirror must return the primary's reply) or the read policy.
    /// Infallible at this level: an unreachable shard becomes a
    /// `Response::Error`, exactly what a wire client would see.
    pub(crate) fn call(&self, req: Request) -> Response {
        let reply = if req.is_mutation() {
            self.write_then_mirror(
                |b| b.call(req.clone()),
                |resp, mirrored| u64::from(mirrored != Some(resp)),
            )
        } else {
            self.read_with_failover(|b| b.call(req.clone()))
        };
        reply.unwrap_or_else(|e| Response::Error(e.to_string()))
    }

    /// Executes one scatter-gather leg under the read policy (failover is
    /// whole-leg). Infallible: a fully unreachable shard yields
    /// per-position `Unavailable` results for the merge fold.
    pub(crate) fn stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Vec<(usize, StreamStatResult)> {
        self.read_with_failover(|b| b.stat_leg(legs, ts_s, ts_e))
            .unwrap_or_else(|e| {
                legs.iter()
                    .map(|&(pos, _)| (pos, Err(clone_unavailable(&e))))
                    .collect()
            })
    }

    /// Ingests an ordered batch under the write policy. Infallible: an
    /// unreachable primary yields per-chunk [`AMBIGUOUS`] verdicts — the
    /// batch may have been applied (in full or in prefix) before the
    /// transport failed, so callers must not blindly re-submit.
    pub(crate) fn ingest_batch(&self, chunks: &[&[u8]]) -> Vec<Result<(), ServerError>> {
        self.write_then_mirror(
            |b| b.insert_batch(chunks),
            |results, mirrored| match mirrored {
                Some(mirrored) => results
                    .iter()
                    .zip(mirrored)
                    .filter(|(a, b)| a.is_ok() != b.is_ok())
                    .count() as u64,
                // Whole-batch mirror failure: only the chunks the primary
                // *accepted* diverge the replicas — chunks the primary
                // itself rejected never landed on either side.
                None => results.iter().filter(|r| r.is_ok()).count() as u64,
            },
        )
        .unwrap_or_else(|_| {
            self.m()
                .ingest_errors
                .fetch_add(chunks.len() as u64, Ordering::Relaxed);
            chunks.iter().map(|_| Err(AMBIGUOUS)).collect()
        })
    }

    /// Synchronous single-chunk ingest (the unbatched path).
    pub(crate) fn insert(&self, chunk: &[u8]) -> Result<(), ServerError> {
        self.ingest_batch(&[chunk])
            .pop()
            .unwrap_or(Err(UNREACHABLE))
    }

    /// Registers a stream: a [`call`](Self::call) like every other
    /// mutation, with the reply read back into a `Result`. An error —
    /// the engine's own (`stream … already exists`) or an unreachable
    /// shard's — is [`ServerError::Remote`] carrying the message
    /// verbatim, so its `Display` is what a wire client would read
    /// whether the shard is in-process or on a node; the typed variant
    /// does not survive the seam.
    pub(crate) fn create_stream(
        &self,
        stream: u128,
        t0: i64,
        delta_ms: u64,
        digest_width: u32,
    ) -> Result<(), ServerError> {
        match self.call(Request::CreateStream {
            stream,
            t0,
            delta_ms,
            digest_width,
        }) {
            Response::Ok => Ok(()),
            Response::Error(msg) => Err(ServerError::Remote(msg)),
            _ => Err(ServerError::Unavailable("unexpected create-stream reply")),
        }
    }

    /// Stream occupancy of this shard, under the read policy (a
    /// backup-served probe is a failover like any other read). An
    /// unreachable shard reports zeros.
    pub(crate) fn occupancy(&self) -> ShardOccupancy {
        self.read_with_failover(|b| b.occupancy())
            .unwrap_or_default()
    }

    /// Attaches a replacement backup in the rebuilding state: write
    /// mirroring arms immediately (the replica must not miss writes while
    /// it catches up), but the replica serves no reads and is not
    /// promotion-eligible until [`rebuild_backup`](Self::rebuild_backup)
    /// verifies the copy. Errors if a backup is already attached.
    pub(crate) fn attach_backup(&self, backend: Arc<dyn ShardBackend>) -> Result<(), ServerError> {
        let mut roles = self.roles.write();
        if roles.backup.is_some() {
            return Err(ServerError::Unavailable(
                "shard already has a backup replica",
            ));
        }
        roles.backup = Some(BackupState {
            backend,
            health: ReplicaHealth::Rebuilding,
        });
        Ok(())
    }

    /// Marks the attached backup in sync: it now serves failover reads,
    /// divergence counts in `replica_errors`, and it is promotion-eligible.
    ///
    /// The verified lengths are only trustworthy if no mirrored write was
    /// dropped while they were being read — a write acknowledged during
    /// verification whose mirror failed may postdate the verified
    /// lengths. `mirror_drops` is bumped (and checked here) under the
    /// roles write lock, so a drop either lands before this check and
    /// vetoes the arm, or after it — against a replica already marked in
    /// sync, where `note_mirror_drift` demotes it again. Either way no
    /// in-sync replica is missing an acknowledged write. The counter
    /// itself uses AcqRel bumps and Acquire loads so the rebuild worker's
    /// initial `drops_before` read — taken *outside* the lock — is
    /// ordered against the bumps too, rather than leaning on the lock it
    /// doesn't hold.
    fn arm_if_no_drops(&self, drops_before: u32) -> bool {
        let mut roles = self.roles.write();
        if self.mirror_drops.load(Ordering::Acquire) != drops_before {
            return false;
        }
        if let Some(b) = &mut roles.backup {
            b.health = ReplicaHealth::InSync;
            self.m().in_sync.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Transitions the attached backup's health, returning its backend
    /// when a transition happened. Used by the rebuild worker to mark the
    /// replica [`ReplicaHealth::Rebuilding`] while it copies and
    /// [`ReplicaHealth::Drifted`] when it gives up.
    fn set_backup_health(&self, health: ReplicaHealth) -> Option<Arc<dyn ShardBackend>> {
        let mut roles = self.roles.write();
        let b = roles.backup.as_mut()?;
        b.health = health;
        self.m()
            .in_sync
            .store(health == ReplicaHealth::InSync, Ordering::Relaxed);
        Some(b.backend.clone())
    }

    /// Whether a backup replica is currently attached (whatever its
    /// health) — the precondition for re-triggering a rebuild.
    pub(crate) fn has_backup(&self) -> bool {
        self.roles.read().backup.is_some()
    }

    /// Every backend currently attached to this shard (primary first,
    /// then the backup when present). The coordinator's stats
    /// aggregation walks these to find the distinct remote nodes whose
    /// store counters it should fold in.
    pub(crate) fn attached_backends(&self) -> Vec<Arc<dyn ShardBackend>> {
        let roles = self.roles.read();
        let mut out = vec![roles.primary.clone()];
        if let Some(b) = &roles.backup {
            out.push(b.backend.clone());
        }
        out
    }

    /// Copies every hosted stream from the survivor (the current primary)
    /// into the attached backup, verifies chunk counts, and arms
    /// mirroring. Works for a freshly attached replacement *and* for
    /// re-verifying a drifted replica: strict next-index ingest means an
    /// out-of-sync replica is always a prefix of its primary, so copying
    /// from its current length converges. Runs on a rebuild worker
    /// thread; `shutdown` makes it return early (leaving the replica out
    /// of sync) when the service is dropped mid-rebuild. Re-entrant calls
    /// are no-ops while a rebuild of this shard is already running.
    ///
    /// Convergence: mirroring is already armed, so a page import racing a
    /// mirrored write can be rejected by the replica's strict next-index
    /// check — whichever side loses, the loop re-reads the replica's
    /// length and re-pages, and both sides only ever advance the length
    /// by exactly the next chunk. Streams whose old payloads were decayed
    /// by `delete_range` cannot be fully copied; the worker then gives up
    /// after [`REBUILD_MAX_PASSES`] and leaves the replica *drifted*
    /// (visible as `in_sync: false` with `rebuilds` not advancing;
    /// [`crate::ShardedService::rebuild_replica`] retries).
    pub(crate) fn rebuild_backup(&self, shutdown: &AtomicBool) {
        if self.rebuilding.swap(true, Ordering::Acquire) {
            return;
        }
        self.rebuild_locked(shutdown);
        self.rebuilding.store(false, Ordering::Release);
    }

    fn rebuild_locked(&self, shutdown: &AtomicBool) {
        {
            let roles = self.roles.read();
            match &roles.backup {
                None => return,
                Some(b) if b.health == ReplicaHealth::InSync => return,
                Some(_) => {}
            }
        }
        // Pause drift accounting while the copy is in flight: rejections
        // of mirrored writes the copy has not reached yet are expected.
        let Some(replacement) = self.set_backup_health(ReplicaHealth::Rebuilding) else {
            return;
        };
        let survivor = self.roles.read().primary.clone();
        for _pass in 0..REBUILD_MAX_PASSES {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            let Some(streams) = list_streams(&*survivor, self.shard) else {
                // Survivor unreachable: nothing to copy from right now;
                // try again next pass (the dial already backed off).
                continue;
            };
            let drops_before = self.mirror_drops.load(Ordering::Acquire);
            if self.copy_pass(&*survivor, &*replacement, &streams, shutdown)
                && self.verify_pass(&*survivor, &*replacement, &streams)
                && self.arm_if_no_drops(drops_before)
            {
                self.m().rebuilds.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Gave up (decayed payload gap, unreachable peer): the replica is
        // visibly untrusted — mirror failures count as drift again, and a
        // later `rebuild_replica` can retry.
        self.set_backup_health(ReplicaHealth::Drifted);
    }

    /// One copy pass: pages every stream from the survivor into the
    /// replacement until their lengths converge. Returns `false` when any
    /// stream could not be brought up to date.
    fn copy_pass(
        &self,
        survivor: &dyn ShardBackend,
        replacement: &dyn ShardBackend,
        streams: &[StreamInfoWire],
        shutdown: &AtomicBool,
    ) -> bool {
        let mut all_synced = true;
        for info in streams {
            // Mirrored creates may have raced ahead: an existing stream
            // is fine (`StreamExists` / its remote rendering).
            let _ = replacement.call(Request::CreateStream {
                stream: info.stream,
                t0: info.t0,
                delta_ms: info.delta_ms,
                digest_width: info.digest_width,
            });
            loop {
                if shutdown.load(Ordering::Relaxed) {
                    return false;
                }
                let replica_len = stream_len(replacement, info.stream).unwrap_or(0);
                let survivor_len = match stream_len(survivor, info.stream) {
                    Some(n) => n,
                    None => {
                        all_synced = false;
                        break;
                    }
                };
                if replica_len >= survivor_len {
                    break;
                }
                let Some(page) = export_page(survivor, info.stream, replica_len) else {
                    all_synced = false;
                    break;
                };
                if page.is_empty() {
                    // `done` with nothing at this index: the payload was
                    // decayed by delete_range — the exportable prefix ends
                    // short of the survivor's length.
                    all_synced = false;
                    break;
                }
                // The page goes to the replacement as exported; its ingest
                // validates every chunk, so a corrupt one is rejected there
                // and the stuck check below ends the pass.
                let views: Vec<&[u8]> = page.iter().map(Vec::as_slice).collect();
                let copied = replacement.insert_batch(&views).map_or(0, |verdicts| {
                    verdicts.iter().filter(|v| v.is_ok()).count() as u64
                });
                if copied > 0 {
                    self.m()
                        .rebuild_chunks_copied
                        .fetch_add(copied, Ordering::Relaxed);
                } else if stream_len(replacement, info.stream).unwrap_or(0) <= replica_len {
                    // No import landed *and* the mirror did not advance
                    // the replica either: stuck, give this pass up.
                    all_synced = false;
                    break;
                }
            }
        }
        all_synced
    }

    /// Verifies the copy: every survivor stream exists on the replacement
    /// with at least the survivor's chunk count (reading the survivor
    /// first — a mirrored write between the two reads only ever puts the
    /// replica ahead of the snapshot, never behind).
    fn verify_pass(
        &self,
        survivor: &dyn ShardBackend,
        replacement: &dyn ShardBackend,
        streams: &[StreamInfoWire],
    ) -> bool {
        streams.iter().all(|info| {
            let Some(survivor_len) = stream_len(survivor, info.stream) else {
                return false;
            };
            stream_len(replacement, info.stream).is_some_and(|n| n >= survivor_len)
        })
    }
}

/// Copy passes before a rebuild gives up (each pass re-lists streams and
/// re-pages only what is still behind, so passes after the first are
/// cheap). Multiple passes paper over transient survivor dial failures
/// and writes racing the verify read.
const REBUILD_MAX_PASSES: usize = 16;

/// `ServerError` is not `Clone` (it can carry an `io::Error`); transport
/// failures are always the static `Unavailable` case, which is.
pub(crate) fn clone_unavailable(e: &ServerError) -> ServerError {
    match e {
        ServerError::Unavailable(what) => ServerError::Unavailable(what),
        _ => UNREACHABLE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
    use timecrypt_core::StreamKeyMaterial;
    use timecrypt_crypto::{PrgKind, SecureRandom};
    use timecrypt_server::ServerConfig;
    use timecrypt_store::MemKv;
    use timecrypt_wire::transport::Handler;

    /// An in-process backend over its own store whose reachability the
    /// test controls: "down" models the node being unreachable (every
    /// method returns the transport-level `Unavailable`), exactly the
    /// signal the replica state machine keys off.
    struct StubShard {
        engine: Arc<TimeCryptServer>,
        up: AtomicBool,
        /// Runs once, inside the next operation that finds the shard down
        /// — how a test interleaves a state change with an in-flight call.
        while_down: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl StubShard {
        fn new() -> Arc<Self> {
            Arc::new(StubShard {
                engine: Arc::new(
                    TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap(),
                ),
                up: AtomicBool::new(true),
                while_down: parking_lot::Mutex::new(None),
            })
        }

        fn set_up(&self, up: bool) {
            self.up.store(up, Ordering::Relaxed);
        }

        fn ensure_up(&self) -> Result<(), ServerError> {
            if self.up.load(Ordering::Relaxed) {
                return Ok(());
            }
            let hook = self.while_down.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            Err(UNREACHABLE)
        }

        fn create_stream(&self, stream: u128) {
            self.engine.create_stream(stream, 0, 10_000, 2).unwrap();
        }
    }

    impl ShardBackend for StubShard {
        fn call(&self, req: Request) -> Result<Response, ServerError> {
            self.ensure_up()?;
            Ok(self.engine.handle(req))
        }

        fn stat_leg(
            &self,
            legs: &Leg,
            ts_s: i64,
            ts_e: i64,
        ) -> Result<Vec<(usize, StreamStatResult)>, ServerError> {
            self.ensure_up()?;
            Ok(legs
                .iter()
                .map(|&(pos, sid)| (pos, self.engine.stream_stat(sid, ts_s, ts_e)))
                .collect())
        }

        fn insert_batch(
            &self,
            chunks: &[&[u8]],
        ) -> Result<Vec<Result<(), ServerError>>, ServerError> {
            self.ensure_up()?;
            Ok(self.engine.insert_bytes_run(chunks))
        }

        fn occupancy(&self) -> Result<ShardOccupancy, ServerError> {
            self.ensure_up()?;
            Ok(ShardOccupancy::of(&self.engine))
        }
    }

    fn sealed(id: u128, index: u64, value: i64) -> Vec<u8> {
        let cfg = StreamConfig {
            schema: DigestSchema::sum_count(),
            ..StreamConfig::new(id, "m", 0, 10_000)
        };
        let keys = StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap();
        let mut rng = SecureRandom::from_seed_insecure(31 + index);
        PlainChunk {
            stream: id,
            index,
            points: vec![DataPoint::new(index as i64 * 10_000, value)],
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap()
        .to_bytes()
    }

    fn replicas(
        primary: Arc<StubShard>,
        backup: Option<Arc<StubShard>>,
        promote_after: u32,
    ) -> ShardReplicas {
        ShardReplicas::new(
            0,
            Arc::new(ServiceMetrics::new(1)),
            primary,
            backup.map(|b| b as Arc<dyn ShardBackend>),
            promote_after,
        )
    }

    /// Every operation `ShardReplicas` offers, by the policy it runs under.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        ReadCall,
        StatLeg,
        Occupancy,
        MutCall,
        IngestBatch,
        CreateStream,
    }

    const KINDS: [Kind; 6] = [
        Kind::ReadCall,
        Kind::StatLeg,
        Kind::Occupancy,
        Kind::MutCall,
        Kind::IngestBatch,
        Kind::CreateStream,
    ];

    impl Kind {
        fn is_write(self) -> bool {
            matches!(self, Kind::MutCall | Kind::IngestBatch | Kind::CreateStream)
        }

        /// Runs the operation against a [`seeded`] shard; `Err` carries
        /// the rendered error.
        fn run(self, r: &ShardReplicas) -> Result<(), String> {
            let reply = |resp| match resp {
                Response::Ok | Response::Info(_) => Ok(()),
                Response::Error(e) => Err(e),
                other => panic!("unexpected {other:?}"),
            };
            match self {
                Kind::ReadCall => reply(r.call(Request::StreamInfo { stream: 1 })),
                Kind::StatLeg => match r.stat_leg(&[(0, 1)], 0, 10_000).pop().unwrap().1 {
                    Ok(_) => Ok(()),
                    Err(e) => Err(e.to_string()),
                },
                // An unreachable shard reports zeros.
                Kind::Occupancy => match r.occupancy().streams {
                    0 => Err(UNREACHABLE.to_string()),
                    _ => Ok(()),
                },
                Kind::MutCall => reply(r.call(Request::DeleteStream { stream: 2 })),
                Kind::IngestBatch => r.insert(&sealed(1, 1, 6)).map_err(|e| e.to_string()),
                Kind::CreateStream => r.create_stream(3, 0, 10_000, 2).map_err(|e| e.to_string()),
            }
        }
    }

    /// A backend on which every [`Kind`] succeeds: stream 1 holding chunk
    /// 0, and stream 2.
    fn seeded() -> Arc<StubShard> {
        let shard = StubShard::new();
        shard.create_stream(1);
        shard.create_stream(2);
        shard.engine.insert_bytes(&sealed(1, 0, 5)).unwrap();
        shard
    }

    /// A reachable backend that rejects every write [`Kind`] a [`seeded`]
    /// primary accepts: stream 1 lacks chunk 0, stream 2 is missing,
    /// stream 3 already exists.
    fn diverged() -> Arc<StubShard> {
        let shard = StubShard::new();
        shard.create_stream(1);
        shard.create_stream(3);
        shard
    }

    #[derive(Clone, Copy, Debug)]
    enum Script {
        /// No backup, promotion armed: one failure is one strike, no more.
        PrimaryDownBelowThreshold,
        /// The failure crosses the threshold while the backup turns in
        /// sync under the in-flight call: promoted, retried once.
        PrimaryDownPromotes,
        /// Promotion disabled, in-sync backup attached.
        PrimaryDownBackupInSync,
        BackupUnreachableOnMirror,
        BackupRejectsMirror,
        /// First with the primary up (the mirror is armed and rejects),
        /// then with it down (even `promote_after = 1` must not promote).
        BackupStillRebuilding,
    }

    const SCRIPTS: [Script; 6] = [
        Script::PrimaryDownBelowThreshold,
        Script::PrimaryDownPromotes,
        Script::PrimaryDownBackupInSync,
        Script::BackupUnreachableOnMirror,
        Script::BackupRejectsMirror,
        Script::BackupStillRebuilding,
    ];

    #[derive(Debug, PartialEq)]
    struct Outcome {
        served: Result<(), String>,
        failovers: u64,
        promotions: u64,
        replica_errors: u64,
        in_sync: bool,
    }

    impl Script {
        fn play(self, kind: Kind) -> Outcome {
            let primary = seeded();
            let r = match self {
                Script::PrimaryDownBelowThreshold => {
                    primary.set_up(false);
                    Arc::new(replicas(primary, None, 2))
                }
                Script::PrimaryDownPromotes => {
                    let r = Arc::new(replicas(primary.clone(), None, 1));
                    r.attach_backup(seeded()).unwrap();
                    primary.set_up(false);
                    let armed = r.clone();
                    *primary.while_down.lock() = Some(Box::new(move || {
                        assert!(armed.arm_if_no_drops(armed.mirror_drops.load(Ordering::Acquire)));
                    }));
                    r
                }
                Script::PrimaryDownBackupInSync => {
                    primary.set_up(false);
                    Arc::new(replicas(primary, Some(seeded()), 0))
                }
                Script::BackupUnreachableOnMirror => {
                    let backup = seeded();
                    backup.set_up(false);
                    Arc::new(replicas(primary, Some(backup), 1))
                }
                Script::BackupRejectsMirror => Arc::new(replicas(primary, Some(diverged()), 1)),
                Script::BackupStillRebuilding => {
                    let r = Arc::new(replicas(primary.clone(), None, 1));
                    r.attach_backup(diverged()).unwrap();
                    assert_eq!(kind.run(&r), Ok(()), "{kind:?}: primary up");
                    primary.set_up(false);
                    r
                }
            };
            let served = kind.run(&r);
            let m = r.metrics();
            Outcome {
                served,
                failovers: m.failovers.load(Ordering::Relaxed),
                promotions: m.promotions.load(Ordering::Relaxed),
                replica_errors: m.replica_errors.load(Ordering::Relaxed),
                in_sync: m.in_sync.load(Ordering::Relaxed),
            }
        }

        /// What every kind of one policy must report.
        fn expected(self, write: bool) -> Outcome {
            let quiet = |served, in_sync| Outcome {
                served,
                failovers: 0,
                promotions: 0,
                replica_errors: 0,
                in_sync,
            };
            // An unanswered read reports the transport failure; a write
            // whose primary was unreachable is ambiguous, never retried.
            let unserved = Err(if write { AMBIGUOUS } else { UNREACHABLE }.to_string());
            match (self, write) {
                (Script::PrimaryDownBelowThreshold, _) => quiet(unserved, false),
                (Script::PrimaryDownPromotes, _) => Outcome {
                    promotions: 1,
                    ..quiet(Ok(()), false)
                },
                (Script::PrimaryDownBackupInSync, false) => Outcome {
                    failovers: 1,
                    ..quiet(Ok(()), true)
                },
                (Script::PrimaryDownBackupInSync, true) => quiet(unserved, true),
                (Script::BackupUnreachableOnMirror | Script::BackupRejectsMirror, false) => {
                    quiet(Ok(()), true)
                }
                (Script::BackupUnreachableOnMirror | Script::BackupRejectsMirror, true) => {
                    Outcome {
                        replica_errors: 1,
                        ..quiet(Ok(()), false)
                    }
                }
                (Script::BackupStillRebuilding, _) => quiet(unserved, false),
            }
        }
    }

    #[test]
    fn every_operation_kind_follows_its_policy_through_every_script() {
        for script in SCRIPTS {
            for kind in KINDS {
                assert_eq!(
                    script.play(kind),
                    script.expected(kind.is_write()),
                    "{script:?} × {kind:?}"
                );
            }
        }
    }

    #[test]
    fn backup_batch_failure_counts_only_primary_accepted_chunks() {
        // Regression: a whole-batch mirror failure used to tick
        // `replica_errors` once per *submitted* chunk — including chunks
        // the primary itself rejected, which never diverged the replicas.
        let primary = StubShard::new();
        let backup = StubShard::new();
        for b in [&primary, &backup] {
            b.create_stream(1);
        }
        let r = replicas(primary, Some(backup.clone()), 0);
        backup.set_up(false);
        let batch = [sealed(1, 0, 5), sealed(1, 9, 6), sealed(1, 1, 7)];
        let verdicts = r.ingest_batch(&batch.each_ref().map(Vec::as_slice));
        assert!(verdicts[0].is_ok() && verdicts[2].is_ok());
        assert!(verdicts[1].is_err(), "out-of-order chunk rejected");
        assert_eq!(
            r.metrics().replica_errors.load(Ordering::Relaxed),
            2,
            "only the two primary-accepted chunks diverged the replicas"
        );
    }

    #[test]
    fn only_consecutive_strikes_promote() {
        let primary = seeded();
        let r = replicas(primary.clone(), Some(seeded()), 2);
        let leg = [(0usize, 1u128)];
        // One strike, then a recovery: the strike count must restart, so
        // a single later failure cannot promote.
        primary.set_up(false);
        r.stat_leg(&leg, 0, 10_000);
        primary.set_up(true);
        r.stat_leg(&leg, 0, 10_000);
        primary.set_up(false);
        r.stat_leg(&leg, 0, 10_000);
        assert_eq!(
            r.metrics().promotions.load(Ordering::Relaxed),
            0,
            "non-consecutive failures must not promote"
        );
        // The second consecutive strike — a write this time — promotes,
        // and the write is retried against the promoted backup.
        r.insert(&sealed(1, 1, 6)).unwrap();
        assert_eq!(r.metrics().promotions.load(Ordering::Relaxed), 1);
        // The promoted primary answers reads directly; strikes were reset.
        let failovers = r.metrics().failovers.load(Ordering::Relaxed);
        assert!(r.stat_leg(&leg, 0, 20_000)[0].1.is_ok());
        assert_eq!(r.metrics().failovers.load(Ordering::Relaxed), failovers);
        assert_eq!(r.metrics().promotions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rebuild_copies_verifies_and_arms_the_replica() {
        let primary = StubShard::new();
        for id in [1u128, 2] {
            primary.create_stream(id);
            for i in 0..5 {
                primary
                    .engine
                    .insert_bytes(&sealed(id, i, i as i64))
                    .unwrap();
            }
        }
        let r = replicas(primary.clone(), None, 1);
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        r.rebuild_backup(&AtomicBool::new(false));
        let m = r.metrics();
        assert_eq!(m.rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(m.rebuild_chunks_copied.load(Ordering::Relaxed), 10);
        assert!(m.in_sync.load(Ordering::Relaxed));
        assert_eq!(replacement.engine.stream_count(), 2);
        // The rebuilt replica now serves failover reads byte-identically
        // and is promotion-eligible.
        let healthy = r.stat_leg(&[(0, 1)], 0, 50_000);
        primary.set_up(false);
        let failed_over = r.stat_leg(&[(0, 1)], 0, 50_000);
        assert_eq!(format!("{healthy:?}"), format!("{failed_over:?}"));
        assert_eq!(m.failovers.load(Ordering::Relaxed), 1);
        assert_eq!(m.promotions.load(Ordering::Relaxed), 1, "promote_after=1");
    }

    #[test]
    fn attach_rejects_a_second_backup() {
        let r = replicas(StubShard::new(), Some(StubShard::new()), 0);
        assert!(r.attach_backup(StubShard::new()).is_err());
    }

    #[test]
    fn drifted_backup_is_demoted_until_rebuilt() {
        // A backup that misses an acknowledged write is missing data a
        // client was told is durable: it must stop serving failover
        // reads and must never be promoted — until a rebuild re-verifies
        // it against the primary.
        let primary = StubShard::new();
        let backup = StubShard::new();
        for b in [&primary, &backup] {
            b.create_stream(1);
        }
        let r = replicas(primary.clone(), Some(backup.clone()), 1);
        r.insert(&sealed(1, 0, 5)).unwrap();
        assert!(r.metrics().in_sync.load(Ordering::Relaxed));
        // The backup blips for one acknowledged write: drift is counted
        // AND the replica is demoted.
        backup.set_up(false);
        r.insert(&sealed(1, 1, 6)).unwrap();
        assert_eq!(r.metrics().replica_errors.load(Ordering::Relaxed), 1);
        assert!(!r.metrics().in_sync.load(Ordering::Relaxed), "demoted");
        // Back up but still behind: mirrored writes keep counting drift
        // (chunk 2 is rejected — the replica never got chunk 1).
        backup.set_up(true);
        r.insert(&sealed(1, 2, 7)).unwrap();
        assert_eq!(r.metrics().replica_errors.load(Ordering::Relaxed), 2);
        // Even promote_after=1 must not promote the drifted replica, and
        // reads must not fail over to its incomplete data.
        primary.set_up(false);
        assert!(r.stat_leg(&[(0, 1)], 0, 30_000)[0].1.is_err());
        assert_eq!(r.metrics().promotions.load(Ordering::Relaxed), 0);
        assert_eq!(r.metrics().failovers.load(Ordering::Relaxed), 0);
        primary.set_up(true);
        // A rebuild copies the missed chunks in place (a drifted replica
        // is always a prefix of its primary) and re-arms the loop.
        r.rebuild_backup(&AtomicBool::new(false));
        let m = r.metrics();
        assert_eq!(m.rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(m.rebuild_chunks_copied.load(Ordering::Relaxed), 2);
        assert!(m.in_sync.load(Ordering::Relaxed));
        primary.set_up(false);
        assert!(r.stat_leg(&[(0, 1)], 0, 30_000)[0].1.is_ok());
        assert_eq!(m.failovers.load(Ordering::Relaxed), 1);
        assert_eq!(m.promotions.load(Ordering::Relaxed), 1);
    }
}
