//! The sharded service: router + shard backends + metrics.
//!
//! A request runs on the thread that brought it. Ingest, single or
//! batched: a batch is partitioned by shard as slices of the caller's
//! buffer and the shards' exchanges overlap; back-pressure is the
//! submitter waiting for its own verdicts. A statistical query likewise:
//! every shard's leg is begun before any is waited for. A replica rebuild
//! runs on the thread that asked for it. Nothing is queued or handed to
//! another thread; the service starts no thread.

use crate::backend::{
    ingest_runs, Admission, BackendSpec, LocalShard, Pending, RemoteShard, ShardBackend,
    ShardReplicas, ShardSpec, SAME_NODE, UNREACHABLE, UNROUTED,
};
use crate::metrics::ServiceMetrics;
use crate::node::{NodeConfig, ShardNode};
use crate::router::ShardRouter;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt_chunk::serialize::{ChunkRef, EncryptedChunk, SealedRecord};
use timecrypt_obs::trace;
use timecrypt_server::engine::batch_errors;
use timecrypt_server::{ServerConfig, ServerError, StatLeg};
use timecrypt_store::{KvStore, MeteredKv};
use timecrypt_wire::messages::{Request, RequestRef, Response, Route, ServiceStatsWire, StatReply};
use timecrypt_wire::pool::PoolConfig;
use timecrypt_wire::transport::{dispatch_frame, Handler};

/// Service-level tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of engine shards (≥ 1) when [`topology`](Self::topology) is
    /// empty. The paper's evaluation machine uses one engine per core; 4
    /// is a reasonable laptop default.
    pub shards: usize,
    /// Shard placement for multi-node clusters: one [`ShardSpec`] per
    /// shard (the cluster-wide shard count is the vector's length, and
    /// every `timecrypt-node` must agree on it). Empty means `shards`
    /// in-process shards — the classic single-process deployment.
    pub topology: Vec<ShardSpec>,
    /// Connection-pool tuning for remote shards (one pool per remote
    /// backend; reconnect-with-backoff on failure).
    pub pool: PoolConfig,
    /// Consecutive primary transport failures after which a replicated
    /// shard's in-sync backup is automatically *promoted* to primary
    /// (reads and writes flip to it; the shard then runs un-replicated
    /// until a replacement is attached via
    /// [`ShardedService::attach_replica`]). `0` disables automatic
    /// promotion — failover reads still work, writes fail until the
    /// topology is re-pointed by hand.
    pub promote_after: u32,
    /// End-to-end deadline for one scatter-gather statistical query.
    /// A leg is one exchange, each socket operation bounded by
    /// [`PoolConfig::io_timeout`], but the legs are finished in turn and
    /// each may be retried or failed over, so a query could take a multiple
    /// of it; this budget caps the *whole* query, whichever leg is the slow
    /// one: a reply is waited for `min(io_timeout, what is left of the
    /// budget)`. A leg the budget cuts short stops at its first stream with
    /// `Unavailable("query deadline exceeded")` instead of stalling the
    /// caller; its connection is discarded and its shard's primary takes a
    /// strike, as for a socket timeout. A shard whose reply arrived while
    /// another's spent the budget is still read: it answered in time. (A
    /// dial is bounded by `io_timeout`, not by the budget; in-process legs
    /// run to the end.)
    pub query_deadline: Duration,
    /// Per-shard engine configuration (local shards; nodes configure
    /// their own engines).
    pub engine: ServerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            topology: Vec::new(),
            pool: PoolConfig::default(),
            promote_after: 3,
            query_deadline: Duration::from_secs(30),
            engine: ServerConfig::default(),
        }
    }
}

/// A sharded TimeCrypt service over one shared KV store (local shards)
/// and/or remote shard nodes. See ARCHITECTURE.md at the repo root for
/// the full deployment picture; see [`ShardRouter`] for the routing
/// invariants and [`crate::backend`] for backend/replication semantics.
///
/// ```
/// use std::sync::Arc;
/// use timecrypt_service::{ServiceConfig, ShardedService};
/// use timecrypt_store::MemKv;
///
/// let svc = ShardedService::open(
///     Arc::new(MemKv::new()),
///     ServiceConfig { shards: 2, ..ServiceConfig::default() },
/// )
/// .unwrap();
/// svc.create_stream(7, 0, 10_000, 2).unwrap();
/// let stats = svc.stats();
/// assert_eq!(stats.shards.len(), 2);
/// assert_eq!(stats.shards.iter().map(|s| s.streams).sum::<u64>(), 1);
/// ```
pub struct ShardedService {
    router: ShardRouter,
    backends: Vec<ShardReplicas>,
    /// Write admission, one table for every shard's streams.
    admission: Arc<Admission>,
    metrics: Arc<ServiceMetrics>,
    kv: Arc<MeteredKv>,
    /// End-to-end budget for one scatter-gather query (see
    /// [`ServiceConfig::query_deadline`]).
    query_deadline: Duration,
    /// Pool tuning, retained for replicas attached after open.
    pool_cfg: PoolConfig,
}

impl ShardedService {
    /// Opens the service. The shards the topology places in this process
    /// run in one [`ShardNode`] over `kv` (wrapped in a [`MeteredKv`] so
    /// `Request::Stats` can report storage traffic), each engine
    /// recovering only the streams it owns; remote shards get a
    /// connection pool to their node, dialed on first use. No thread is
    /// started.
    pub fn open(kv: Arc<dyn KvStore>, cfg: ServiceConfig) -> Result<Self, ServerError> {
        let specs: Vec<ShardSpec> = if cfg.topology.is_empty() {
            (0..cfg.shards).map(|_| ShardSpec::local()).collect()
        } else {
            cfg.topology.clone()
        };
        if specs.is_empty() {
            return Err(ServerError::Unavailable("shard count must be at least 1"));
        }
        if specs.iter().any(|s| s.backup == Some(BackendSpec::Local)) {
            // Two engines over one store would both own the same streams
            // and corrupt each other's index writes.
            return Err(ServerError::Unavailable(
                "local backup replicas are unsupported; point the backup at its own node",
            ));
        }
        if specs.iter().any(|s| s.backup.as_ref() == Some(&s.primary)) {
            return Err(SAME_NODE);
        }
        let router = ShardRouter::new(specs.len());
        let kv = Arc::new(MeteredKv::new(kv));
        let metrics = Arc::new(ServiceMetrics::new(specs.len()));
        let node = Arc::new(ShardNode::open_over(
            kv.clone(),
            metrics.clone(),
            NodeConfig {
                total_shards: specs.len(),
                hosted: (0..specs.len())
                    .filter(|&shard| specs[shard].primary == BackendSpec::Local)
                    .collect(),
                engine: cfg.engine.clone(),
            },
        )?);
        let open_backend = |spec: &BackendSpec, shard: usize| -> Arc<dyn ShardBackend> {
            match spec {
                BackendSpec::Local => Arc::new(LocalShard::new(node.clone(), shard)),
                BackendSpec::Remote(addr) => Arc::new(RemoteShard::new(
                    addr.clone(),
                    cfg.pool.clone(),
                    metrics.clone(),
                    shard,
                )),
            }
        };
        let admission = Arc::new(Admission::default());
        let backends = (specs.iter().enumerate())
            .map(|(shard, spec)| {
                ShardReplicas::new(
                    shard,
                    metrics.clone(),
                    open_backend(&spec.primary, shard),
                    spec.backup.as_ref().map(|b| open_backend(b, shard)),
                    cfg.promote_after,
                    admission.clone(),
                )
            })
            .collect();
        Ok(ShardedService {
            router,
            backends,
            admission,
            metrics,
            kv,
            query_deadline: cfg.query_deadline,
            pool_cfg: cfg.pool,
        })
    }

    /// Attaches a replacement backup replica to `shard` and rebuilds it,
    /// on the calling thread: the replica receives mirrored writes from
    /// the moment it is attached, and each stream either replica lists is
    /// copied from the survivor (`ExportStream` / `ImportStream` pages) —
    /// a write waits while a stream of its stripe, on any shard, is
    /// copied — until every
    /// stream was and the replica missed no mirrored write since; only then
    /// is the replica marked in sync — it serves failover reads and is
    /// promotion-eligible — and the shard's `rebuilds` counter ticks. A
    /// caller that wants the copy in the background runs this on a thread
    /// of its own.
    ///
    /// `Ok` exactly when the replica is in sync on return. Errors if
    /// `shard` is out of range, the spec is not remote or names the
    /// current primary's node (either would share the primary's store and
    /// self-corrupt), or the shard already has a backup — nothing is
    /// attached then — and when the rebuild gave up: the replica stays
    /// attached and drifted, and [`rebuild_replica`](Self::rebuild_replica)
    /// retries.
    pub fn attach_replica(&self, shard: usize, spec: BackendSpec) -> Result<(), ServerError> {
        let Some(replicas) = self.backends.get(shard) else {
            return Err(ServerError::Unavailable("no such shard"));
        };
        let BackendSpec::Remote(addr) = spec else {
            return Err(ServerError::Unavailable(
                "local backup replicas are unsupported; point the backup at its own node",
            ));
        };
        let backend: Arc<dyn ShardBackend> = Arc::new(RemoteShard::new(
            addr,
            self.pool_cfg.clone(),
            self.metrics.clone(),
            shard,
        ));
        replicas.attach_backup(backend)?;
        replicas.rebuild_backup()
    }

    /// Rebuilds the attached backup of `shard` on the calling thread if it
    /// is not in sync: a rebuild that gave up (a peer unreachable, writes
    /// outpacing the copy) or a replica demoted after drifting on a
    /// mirrored write. `Ok` exactly when the replica is in sync on return.
    /// Errors if the shard does not exist or has no backup, when another
    /// caller's rebuild of the shard is still running, or when this one
    /// gave up.
    pub fn rebuild_replica(&self, shard: usize) -> Result<(), ServerError> {
        let replicas = self
            .backends
            .get(shard)
            .ok_or(ServerError::Unavailable("no such shard"))?;
        replicas.rebuild_backup()
    }

    /// The router (shard-count and assignment probes).
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The replica set owning `stream`.
    fn replicas_for(&self, stream: u128) -> &ShardReplicas {
        &self.backends[self.router.shard_of(stream)]
    }

    /// Registers a stream on its owning shard (replicated when the shard
    /// has a backup) by a `CreateStream` call. An error is
    /// [`ServerError::Remote`] carrying the shard's message verbatim — the
    /// engine's own rendering (`stream … already exists`) wherever it runs.
    pub fn create_stream(
        &self,
        stream: u128,
        t0: i64,
        delta_ms: u64,
        digest_width: u32,
    ) -> Result<(), ServerError> {
        let create = Request::CreateStream {
            stream,
            t0,
            delta_ms,
            digest_width,
        };
        match self.replicas_for(stream).call(create) {
            Response::Ok => Ok(()),
            Response::Error(msg) => Err(ServerError::Remote(msg)),
            _ => Err(ServerError::Unavailable("unexpected create-stream reply")),
        }
    }

    /// Single-chunk ingest: a batch of one. A convenience over the one
    /// ingest path: the chunk is serialized here, once, and travels as
    /// bytes from then on.
    pub fn insert(&self, chunk: &EncryptedChunk) -> Result<(), ServerError> {
        self.insert_bytes(&chunk.to_bytes())
    }

    /// One serialized chunk: a batch of one.
    fn insert_bytes(&self, chunk: &[u8]) -> Result<(), ServerError> {
        let verdict = self.submit_routed(&[chunk]).pop();
        verdict.unwrap_or(Err(ServerError::Unavailable("chunk received no verdict")))
    }

    /// Batched ingest: partitions `chunks` by shard (keeping each stream's
    /// chunks in their submission order), runs the shards' exchanges
    /// overlapped on the calling thread, and returns per-chunk results in
    /// input order. A stream has one writer at a time — the caller's
    /// contract, as for [`insert`](Self::insert). A convenience over the
    /// one ingest path: each chunk is serialized here, once, and joins the
    /// wire `InsertBatch` route as bytes.
    pub fn submit_batch(&self, chunks: Vec<EncryptedChunk>) -> Vec<Result<(), ServerError>> {
        let bytes: Vec<Vec<u8>> = chunks.iter().map(EncryptedChunk::to_bytes).collect();
        let views: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        self.submit_routed(&views)
    }

    /// [`submit_batch`](Self::submit_batch) over the service's ingest
    /// currency, serialized chunks, as slices of the buffer they arrived
    /// in: each is validated (and its route read) through a borrowed
    /// parse — a malformed one is rejected here, at its batch position —
    /// and the received bytes reach the shards verbatim, copied nowhere on
    /// the way.
    fn submit_routed(&self, chunks: &[&[u8]]) -> Vec<Result<(), ServerError>> {
        let route = trace::stage("route");
        let owner = |bytes: &[u8]| ChunkRef::parse(bytes).map(|c| self.router.shard_of(c.stream));
        // A batch of one shard's chunks — every per-stream upload — is
        // that shard's run as it stands.
        if let Some(Ok(shard)) = chunks.first().map(|c| owner(c)) {
            if chunks[1..].iter().all(|c| owner(c).ok() == Some(shard)) {
                drop(route);
                return self.backends[shard].ingest_batch(chunks);
            }
        }
        // Per shard: its chunks in submission order, each with its
        // position in the batch.
        let mut results = Vec::with_capacity(chunks.len());
        let mut by_shard: Vec<(Vec<&[u8]>, Vec<usize>)> = Vec::new();
        by_shard.resize_with(self.router.shards(), Default::default);
        for (idx, &bytes) in chunks.iter().enumerate() {
            results.push(match owner(bytes) {
                Ok(shard) => {
                    by_shard[shard].0.push(bytes);
                    by_shard[shard].1.push(idx);
                    Err(ServerError::Unavailable("chunk received no verdict"))
                }
                Err(_) => Err(ServerError::BadChunk),
            });
        }
        drop(route);
        let touched = || {
            by_shard
                .iter()
                .enumerate()
                .filter(|(_, run)| !run.0.is_empty())
        };
        let runs = touched().map(|(s, run)| (&self.backends[s], &run.0[..]));
        let verdicts = ingest_runs(&self.admission, runs);
        for ((_, run), verdicts) in touched().zip(verdicts) {
            for (&idx, verdict) in run.1.iter().zip(verdicts) {
                results[idx] = verdict;
            }
        }
        results
    }

    /// Scatter-gather statistical query, on the calling thread: every
    /// involved shard's leg is begun — a remote shard's is then one frame
    /// on the wire, and the nodes work in parallel — then the legs are
    /// finished in turn, an in-process leg folded as its turn comes, all
    /// within [`ServiceConfig::query_deadline`]. The legs' outcomes are
    /// folded again in request order and their partial sums added, with
    /// the fold a single engine answers with — so the reply is
    /// byte-identical to
    /// [`timecrypt_server::TimeCryptServer::get_stat_range`] on the same
    /// data, wherever the shards run. A panic in a sub-query unwinds the
    /// caller (behind the TCP transport, that request's connection thread);
    /// the legs it had begun drop their node connections.
    pub fn get_stat_range(
        &self,
        streams: &[u128],
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatReply, ServerError> {
        // The whole-query budget starts before any leg is begun (capped at
        // a year: `Duration::MAX` past now is no `Instant`).
        let deadline = Instant::now() + self.query_deadline.min(Duration::from_secs(365 * 86_400));
        let route = trace::stage("route");
        // Partition `(position, stream)` pairs by owning shard.
        let mut by_shard: Vec<Vec<(usize, u128)>> = vec![Vec::new(); self.router.shards()];
        for (pos, &sid) in streams.iter().enumerate() {
            by_shard[self.router.shard_of(sid)].push((pos, sid));
        }
        drop(route);
        let begun: Vec<_> = (self.backends.iter().zip(&by_shard))
            .map(|(shard, leg)| {
                (!leg.is_empty()).then(|| shard.begin_leg(leg, ts_s, ts_e, deadline))
            })
            .collect();
        // Each shard's outcomes in its leg's order, which is request order.
        let mut outcomes: Vec<_> = (begun.into_iter())
            .map(|finish| finish.map(|finish| finish()).unwrap_or_default())
            .map(StatLeg::into_outcomes)
            .collect();
        let unanswered = || Err(ServerError::Unavailable("sub-query left unanswered"));
        let walk = streams.iter().map(|&sid| {
            let leg = &mut outcomes[self.router.shard_of(sid)];
            leg.next().unwrap_or_else(unanswered)
        });
        StatLeg::fold(walk).into_reply(streams)
    }

    /// Wire metrics snapshot (per-shard counters + storage traffic), on
    /// the calling thread: one `Stats` request is begun on every node an
    /// attached backend runs on — the in-process one included, once — and
    /// each reply is waited for until [`PoolConfig::io_timeout`] after its
    /// own request was begun. The requests go out back to back, so hung
    /// nodes cost one timeout together; a node whose dial hangs costs its
    /// dial on top, but shortens no other node's wait. Each shard's stream
    /// occupancy is its node's report, looked up under the read policy (a
    /// backup-served lookup is a failover); the store counters are every
    /// answering node's, each counted once.
    pub fn stats(&self) -> ServiceStatsWire {
        let io_timeout = self.pool_cfg.io_timeout;
        let mut begun: Vec<(Option<String>, Pending<Response>)> = Vec::new();
        for backend in self.backends.iter().flat_map(|r| r.attached_backends()) {
            let node = backend.endpoint().map(str::to_owned);
            if begun.iter().all(|(n, _)| *n != node) {
                let deadline = io_timeout.and_then(|t| Instant::now().checked_add(t));
                begun.push((node, backend.begin_call(Request::Stats, deadline)));
            }
        }
        let replies: Vec<_> = (begun.into_iter())
            .filter_map(|(node, reply)| match reply() {
                Ok(Response::ServiceStats(stats)) => Some((node, stats)),
                _ => None,
            })
            .collect();
        // Shard `shard`'s entry in the reply of the node `b` runs on.
        let entry = |b: &dyn ShardBackend, shard: usize| {
            let node = replies.iter().find(|(n, _)| n.as_deref() == b.endpoint());
            let (_, stats) = node.ok_or(UNREACHABLE)?;
            let found = stats.shards.iter().find(|s| s.shard == shard as u32);
            Ok(found.cloned().unwrap_or_default())
        };
        // Looked up before the counters are read: the lookups' own
        // failovers are in the snapshot.
        let entries: Vec<_> = (self.backends.iter().enumerate())
            .map(|(i, r)| r.read_with_failover(r.snapshot(), |b| entry(b, i)))
            .map(Result::unwrap_or_default)
            .collect();
        let mut snap = ServiceStatsWire {
            shards: (entries.iter().enumerate())
                .map(|(i, occ)| self.metrics.shard(i).snapshot(i as u32, occ))
                .collect(),
            ..Default::default()
        };
        for (_, stats) in &replies {
            snap.add_store(stats);
        }
        snap
    }

    /// The metered storage handle shared by all local shards.
    pub fn kv(&self) -> &Arc<MeteredKv> {
        &self.kv
    }

    /// Starts a Prometheus `/metrics` listener on `addr` (port 0 for
    /// ephemeral) rendering this coordinator's [`stats`](Self::stats) —
    /// including aggregated remote-node store counters — per scrape.
    /// The listener holds its own `Arc` and stops on drop.
    pub fn serve_metrics(
        self: &Arc<Self>,
        addr: &str,
    ) -> std::io::Result<timecrypt_obs::HttpServer> {
        let svc = self.clone();
        crate::expose::serve_stats(addr, move || svc.stats())
    }

    /// One wire `InsertBatch`: [`submit_routed`](Self::submit_routed) over
    /// the frame's own slices, the failures rendered by batch position.
    fn insert_batch_bytes(&self, chunks: &[&[u8]]) -> Response {
        Response::Batch {
            errors: batch_errors(self.submit_routed(chunks)),
        }
    }

    /// The coordinator's single request dispatch, over the borrowed view
    /// both [`Handler`] entry points produce. This half holds the ingest
    /// arms: chunks are validated and routed on a borrowed parse and the
    /// received bytes are forwarded verbatim; every other variant
    /// continues in [`dispatch_unborrowed`](Self::dispatch_unborrowed).
    fn dispatch(&self, req: RequestRef<'_>) -> Response {
        match req {
            // Straight from the caller's buffer (typed errors rendered at
            // this boundary).
            RequestRef::Insert { chunk } => match self.insert_bytes(chunk) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Error(e.to_string()),
            },
            RequestRef::InsertBatch { chunks } => self.insert_batch_bytes(&chunks),
            // Routing needs only the record's stream id — peek it without
            // a full parse; the owning engine performs the one parse +
            // validation (and rejects what the peek let through).
            RequestRef::InsertLive { record } => match SealedRecord::peek_stream(record) {
                Some(stream) => self.replicas_for(stream).call(Request::InsertLive {
                    // A live record (one point) is forwarded as an owned request.
                    record: record.to_vec(),
                }),
                None => Response::Error(ServerError::BadRecord.to_string()),
            },
            RequestRef::Other(req) => self.dispatch_unborrowed(req),
        }
    }

    /// The arms of [`dispatch`](Self::dispatch) for requests that carry
    /// no bulk payload, by routing key.
    fn dispatch_unborrowed(&self, req: Request) -> Response {
        match req.route() {
            // `RequestRef` carries ingest requests borrowed; one that was
            // wrapped owned re-enters through its view.
            Route::Payload => req.with_ref(|view| self.dispatch(view)),
            // A page of raw records skips ingest's validation: a rebuild
            // sends it to a replica's node, and no client sends one here.
            Route::Stream(_) if matches!(req, Request::ImportStream { .. }) => {
                Response::Error(UNROUTED.to_string())
            }
            // A single-stream request: delegate the whole request to the
            // owning shard's backend, which keeps error strings
            // byte-identical to a single-engine server.
            Route::Stream(stream) => self.replicas_for(stream).call(req),
            // The stream-list probe addresses a shard, not a stream.
            Route::Shard(shard) => match self.backends.get(shard as usize) {
                Some(replicas) => replicas.call(req),
                None => Response::Error(ServerError::Unavailable("no such shard").to_string()),
            },
            // Multi-stream and service-level requests are handled here.
            Route::Service => match req {
                Request::GetStatRange {
                    streams,
                    ts_s,
                    ts_e,
                } => match self.get_stat_range(&streams, ts_s, ts_e) {
                    Ok(reply) => Response::Stat(reply),
                    Err(e) => Response::Error(e.to_string()),
                },
                Request::Stats => Response::ServiceStats(self.stats()),
                Request::Ping => Response::Pong,
                _ => Response::Error(UNROUTED.to_string()),
            },
        }
    }
}

impl Handler for ShardedService {
    fn handle(&self, req: Request) -> Response {
        req.with_ref(|view| self.dispatch(view))
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        dispatch_frame(body, |view| self.dispatch(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
    use timecrypt_core::StreamKeyMaterial;
    use timecrypt_crypto::{PrgKind, SecureRandom};
    use timecrypt_store::{KvPairs, KvStore, MemKv, StoreError, WriteOp};
    use timecrypt_wire::transport::Server;

    fn service(shards: usize) -> ShardedService {
        ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                shards,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    fn keys(id: u128) -> StreamKeyMaterial {
        StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap()
    }

    fn sealed_chunk(id: u128, index: u64, value: i64) -> EncryptedChunk {
        let cfg = StreamConfig {
            schema: DigestSchema::sum_count(),
            ..StreamConfig::new(id, "m", 0, 10_000)
        };
        let mut rng = SecureRandom::from_seed_insecure(9);
        PlainChunk {
            stream: id,
            index,
            points: vec![DataPoint::new(index as i64 * 10_000, value)],
        }
        .seal(&cfg, &keys(id), &mut rng)
        .unwrap()
    }

    /// Binds a node hosting `hosted` of `total` shards over its own store,
    /// returning the TCP server (keep it alive) and its address.
    fn spawn_node(total: usize, hosted: Vec<usize>) -> (Server, String) {
        let node = ShardNode::open(
            Arc::new(MemKv::new()),
            NodeConfig {
                total_shards: total,
                hosted,
                engine: ServerConfig::default(),
            },
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0", Arc::new(node)).unwrap();
        let addr = server.addr().to_string();
        (server, addr)
    }

    #[test]
    fn submit_batch_reaches_each_shard_as_one_run() {
        // One job per (batch, shard): a stream's 40 chunks in one batch
        // are one engine run and so one store commit — never cut in two by
        // the worker's greedy drain. Per run: 40 level-0 records — the
        // chunks, each with its running sum — and nothing else.
        #[derive(Default)]
        struct BatchSizes(MemKv, parking_lot::Mutex<Vec<usize>>);
        impl KvStore for BatchSizes {
            fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
                self.0.get(key)
            }
            fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
                self.0.put(key, value)
            }
            fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
                self.0.delete(key)
            }
            fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
                self.0.scan_prefix(prefix)
            }
            fn write_batch(&self, ops: &[WriteOp<'_>]) -> Result<(), StoreError> {
                self.1.lock().push(ops.len());
                self.0.write_batch(ops)
            }
        }
        let store = Arc::new(BatchSizes::default());
        let cfg = ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        };
        let svc = ShardedService::open(store.clone(), cfg).unwrap();
        svc.create_stream(1, 0, 10_000, 2).unwrap();
        let before = svc.kv().counters().puts;
        for repeat in 0..20u64 {
            let batch = (0..40).map(|i| sealed_chunk(1, repeat * 40 + i, 1));
            assert!(svc.submit_batch(batch.collect()).iter().all(Result::is_ok));
        }
        let want = vec![40; 20];
        assert_eq!(*store.1.lock(), want, "a run is exactly one store batch");
        // The service's meter counts the batches' ops as the puts they are.
        assert_eq!(
            svc.kv().counters().puts - before,
            want.iter().sum::<usize>() as u64
        );
    }

    #[test]
    fn zero_shards_is_an_error_not_a_panic() {
        let err = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                shards: 0,
                ..ServiceConfig::default()
            },
        )
        .err()
        .expect("zero shards must be rejected");
        assert!(matches!(err, ServerError::Unavailable(_)), "{err:?}");
    }

    #[test]
    fn local_backup_replicas_are_rejected() {
        let err = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec {
                    primary: BackendSpec::Local,
                    backup: Some(BackendSpec::Local),
                }],
                ..ServiceConfig::default()
            },
        )
        .err()
        .expect("a local backup would share the primary's store");
        assert!(matches!(err, ServerError::Unavailable(_)), "{err:?}");
    }

    #[test]
    fn a_backup_on_its_primarys_node_is_refused() {
        // One engine over one store: every mirrored write would be a
        // duplicate the node rejects. Refused at open, and when attached —
        // against the primary as it is now, a promoted survivor included.
        let (node_a, addr_a) = spawn_node(1, vec![0]);
        let (_node_b, addr_b) = spawn_node(1, vec![0]);
        let (_node_c, addr_c) = spawn_node(1, vec![0]);
        let open = |spec: ShardSpec| {
            let cfg = ServiceConfig {
                topology: vec![spec],
                promote_after: 1,
                ..ServiceConfig::default()
            };
            ShardedService::open(Arc::new(MemKv::new()), cfg)
        };
        let same_node = ShardSpec::remote(&addr_a).with_backup(&addr_a);
        let err = open(same_node)
            .err()
            .expect("a backup on its primary's node");
        assert_eq!(err.to_string(), SAME_NODE.to_string());
        let svc = open(ShardSpec::remote(&addr_a).with_backup(&addr_b)).unwrap();
        svc.create_stream(1, 0, 10_000, 2).unwrap();
        drop(node_a);
        assert!(matches!(
            svc.handle(Request::StreamInfo { stream: 1 }),
            Response::Info(_)
        ));
        assert_eq!(svc.stats().shards[0].promotions, 1, "b is the primary");
        let err = svc
            .attach_replica(0, BackendSpec::Remote(addr_b))
            .unwrap_err();
        assert_eq!(err.to_string(), SAME_NODE.to_string());
        svc.attach_replica(0, BackendSpec::Remote(addr_c)).unwrap();
    }

    #[test]
    fn batch_ingest_reports_per_chunk_results() {
        let svc = service(3);
        svc.create_stream(1, 0, 10_000, 2).unwrap();
        svc.create_stream(2, 0, 10_000, 2).unwrap();
        let batch = vec![
            sealed_chunk(1, 0, 10),
            sealed_chunk(2, 0, 20),
            sealed_chunk(1, 1, 11),
            sealed_chunk(1, 5, 99), // out of order
            sealed_chunk(3, 0, 1),  // unknown stream
        ];
        let results = svc.submit_batch(batch);
        assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
        assert!(matches!(
            results[3],
            Err(ServerError::OutOfOrderChunk {
                expected: 2,
                got: 5
            })
        ));
        assert!(matches!(results[4], Err(ServerError::NoSuchStream(3))));
    }

    #[test]
    fn scatter_gather_merges_in_request_order() {
        let svc = service(4);
        for id in 1..=6u128 {
            svc.create_stream(id, 0, 10_000, 2).unwrap();
            let results = svc.submit_batch(vec![
                sealed_chunk(id, 0, id as i64),
                sealed_chunk(id, 1, id as i64 * 10),
            ]);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        let order = [4u128, 1, 6, 2, 5, 3];
        let reply = svc.get_stat_range(&order, 0, 20_000).unwrap();
        let expect: Vec<(u128, u64, u64)> = order.iter().map(|&s| (s, 0, 2)).collect();
        assert_eq!(reply.parts, expect);
    }

    #[test]
    fn stats_counts_ingest_per_shard() {
        let svc = service(2);
        for id in 0..8u128 {
            svc.create_stream(id, 0, 10_000, 2).unwrap();
            svc.insert(&sealed_chunk(id, 0, 5)).unwrap();
        }
        let snap = svc.stats();
        assert_eq!(snap.shards.len(), 2);
        let total: u64 = snap.shards.iter().map(|s| s.ingested_chunks).sum();
        assert_eq!(total, 8);
        let streams: u64 = snap.shards.iter().map(|s| s.streams).sum();
        assert_eq!(streams, 8);
        assert!(snap.store_puts > 0, "metered store saw writes");
        assert!(snap.store_bytes_written > 0, "byte traffic surfaced");
    }

    #[test]
    fn stats_aggregate_remote_node_store_counters() {
        // The coordinator's own store is idle (all shards remote), so
        // every store op in its stats must come from probing the nodes —
        // with the replicated pair, both the primary's and the mirror's
        // stores count (distinct endpoints), exactly once each.
        let (_na, addr_a) = spawn_node(1, vec![0]);
        let (_nb, addr_b) = spawn_node(1, vec![0]);
        let svc = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec::remote(addr_a).with_backup(addr_b)],
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        svc.create_stream(7, 0, 10_000, 2).unwrap();
        svc.insert(&sealed_chunk(7, 0, 5)).unwrap();
        let snap = svc.stats();
        // One write mirrored to two nodes: both stores saw puts.
        assert!(snap.store_puts >= 2, "puts={}", snap.store_puts);
        assert!(snap.store_bytes_written > 0);
        // Local-only deployments are unchanged: no remote probe, counters
        // straight from the in-process metered store.
        let local = service(1);
        local.create_stream(1, 0, 10_000, 2).unwrap();
        local.insert(&sealed_chunk(1, 0, 1)).unwrap();
        assert!(local.stats().store_bytes_written > 0);
    }

    #[test]
    fn stats_cover_a_replica_attached_after_open() {
        // Opened all-local, so nothing at `open` said "remote": the node
        // attached later must still be probed for its store counters.
        let node = Arc::new(
            ShardNode::open(
                Arc::new(MemKv::new()),
                NodeConfig {
                    total_shards: 1,
                    hosted: vec![0],
                    engine: ServerConfig::default(),
                },
            )
            .unwrap(),
        );
        let server = Server::bind("127.0.0.1:0", node.clone()).unwrap();
        let svc = service(1);
        svc.create_stream(1, 0, 10_000, 2).unwrap();
        svc.attach_replica(0, BackendSpec::Remote(server.addr().to_string()))
            .unwrap();
        assert!(svc.stats().shards[0].in_sync);
        for index in 0..10 {
            svc.insert(&sealed_chunk(1, index, 1)).unwrap();
        }
        let mirrored = node.stats().store_puts;
        assert!(mirrored >= 10, "the replica stored the mirrored chunks");
        assert_eq!(svc.stats().store_puts, svc.kv().counters().puts + mirrored);
    }

    #[test]
    fn query_latency_samples_agree_with_query_counter() {
        // One latency sample per sub-query: histogram totals and the
        // `queries` counter must agree in Request::Stats, including when
        // sub-queries error.
        let svc = service(2);
        for id in 1..=5u128 {
            svc.create_stream(id, 0, 10_000, 2).unwrap();
            svc.insert(&sealed_chunk(id, 0, id as i64)).unwrap();
        }
        svc.get_stat_range(&[1, 2, 3, 4, 5], 0, 10_000).unwrap();
        svc.get_stat_range(&[2, 4], 0, 10_000).unwrap();
        // Unknown stream: the sub-query errors but is still counted+timed.
        let _ = svc.get_stat_range(&[1, 99], 0, 10_000);
        let snap = svc.stats();
        let mut total = 0u64;
        for shard in &snap.shards {
            assert_eq!(
                shard.queries,
                shard.query_hist_us.iter().sum::<u64>(),
                "shard {}: counter vs histogram",
                shard.shard
            );
            total += shard.queries;
        }
        assert_eq!(total, 9, "5 + 2 + 2 sub-queries");
    }

    #[test]
    fn many_stream_legs_match_single_engine_reply() {
        // Many streams on few shards: the two legs must still produce a
        // reply byte-identical to one engine walking the same store
        // sequentially.
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let svc = ShardedService::open(
            kv.clone(),
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ids: Vec<u128> = (1..=12).collect();
        for &id in &ids {
            svc.create_stream(id, 0, 10_000, 2).unwrap();
            let results = svc.submit_batch(vec![
                sealed_chunk(id, 0, id as i64),
                sealed_chunk(id, 1, 2 * id as i64),
            ]);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        let sharded = svc.get_stat_range(&ids, 0, 20_000).unwrap();
        let single =
            timecrypt_server::TimeCryptServer::open(kv, timecrypt_server::ServerConfig::default())
                .unwrap()
                .get_stat_range(&ids, 0, 20_000)
                .unwrap();
        assert_eq!(sharded, single);
        // Error semantics survive the split too: first bad stream aborts.
        assert!(matches!(
            svc.get_stat_range(&[1, 2, 3, 4, 5, 6, 7, 77], 0, 20_000),
            Err(ServerError::NoSuchStream(77))
        ));
    }

    #[test]
    fn restart_recovers_each_stream_on_exactly_one_shard() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        {
            let svc = ShardedService::open(
                kv.clone(),
                ServiceConfig {
                    shards: 4,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            for id in 0..10u128 {
                svc.create_stream(id, 0, 10_000, 2).unwrap();
                svc.insert(&sealed_chunk(id, 0, 1)).unwrap();
            }
        }
        // Reopen with a different shard count: the shared store re-partitions.
        let svc = ShardedService::open(
            kv,
            ServiceConfig {
                shards: 3,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let recovered: u64 = svc.stats().shards.iter().map(|s| s.streams).sum();
        assert_eq!(recovered, 10, "each stream recovered exactly once");
        for id in 0..10u128 {
            match svc.handle(Request::StreamInfo { stream: id }) {
                Response::Info(i) => assert_eq!(i.len, 1),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn all_remote_topology_round_trips_through_nodes() {
        // 2 shards on 2 nodes, nothing local: ingest (sync + batched),
        // scatter-gather, single-stream delegation, and stats all cross
        // the wire.
        let (_node_a, addr_a) = spawn_node(2, vec![0]);
        let (_node_b, addr_b) = spawn_node(2, vec![1]);
        let svc = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec::remote(addr_a), ShardSpec::remote(addr_b)],
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        for id in 0..6u128 {
            svc.create_stream(id, 0, 10_000, 2).unwrap();
            svc.insert(&sealed_chunk(id, 0, id as i64)).unwrap();
        }
        let results = svc.submit_batch((0..6u128).map(|id| sealed_chunk(id, 1, 1)).collect());
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        let all: Vec<u128> = (0..6).collect();
        let reply = svc.get_stat_range(&all, 0, 20_000).unwrap();
        assert_eq!(
            reply.parts,
            all.iter().map(|&s| (s, 0, 2)).collect::<Vec<_>>()
        );
        // Typed remote error passthrough: unknown stream renders the
        // node's message verbatim.
        let err = svc.get_stat_range(&[0, 99], 0, 20_000).unwrap_err();
        assert_eq!(err.to_string(), ServerError::NoSuchStream(99).to_string());
        // Single-stream delegation.
        match svc.handle(Request::StreamInfo { stream: 3 }) {
            Response::Info(i) => assert_eq!(i.len, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Stats probes the nodes for stream counts.
        let snap = svc.stats();
        assert_eq!(snap.shards.iter().map(|s| s.streams).sum::<u64>(), 6);
        assert_eq!(
            snap.shards.iter().map(|s| s.ingested_chunks).sum::<u64>(),
            12
        );
    }

    #[test]
    fn mixed_widths_with_empty_window_still_abort_incompatible() {
        // Regression for the remote width probe: stream B's window is
        // empty but its width differs from A's — the merge must abort with
        // IncompatibleStreams (what a single engine does), not EmptyRange.
        // Streams 0 and 1 land on different shards of 2 (checked below).
        let (_node_a, addr_a) = spawn_node(2, vec![0]);
        let (_node_b, addr_b) = spawn_node(2, vec![1]);
        let svc = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec::remote(addr_a), ShardSpec::remote(addr_b)],
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let router = ShardRouter::new(2);
        let a = (0..100u128).find(|&id| router.shard_of(id) == 0).unwrap();
        let b = (0..100u128).find(|&id| router.shard_of(id) == 1).unwrap();
        svc.create_stream(a, 0, 10_000, 2).unwrap();
        svc.create_stream(b, 0, 10_000, 3).unwrap(); // wider, never ingested
        svc.insert(&sealed_chunk(a, 0, 1)).unwrap();
        let err = svc.get_stat_range(&[a, b], 0, 10_000).unwrap_err();
        assert_eq!(
            err.to_string(),
            ServerError::IncompatibleStreams.to_string(),
            "width conflict must win over the empty window"
        );
    }

    #[test]
    fn replicated_shard_fails_over_and_promotes() {
        // Shard 0 of 1 on two nodes (primary + backup). Writes mirror to
        // both; killing the primary leaves reads served by the backup,
        // and after `promote_after` consecutive primary failures the
        // backup is promoted — restoring write availability.
        let (node_a, addr_a) = spawn_node(1, vec![0]);
        let (_node_b, addr_b) = spawn_node(1, vec![0]);
        let svc = ShardedService::open(
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec::remote(addr_a).with_backup(addr_b)],
                pool: timecrypt_wire::pool::PoolConfig {
                    connect_attempts: 2,
                    backoff: std::time::Duration::from_millis(1),
                    ..Default::default()
                },
                promote_after: 3,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        svc.create_stream(1, 0, 10_000, 2).unwrap();
        svc.insert(&sealed_chunk(1, 0, 7)).unwrap();
        let healthy = svc.get_stat_range(&[1], 0, 10_000).unwrap();
        assert!(svc.stats().shards[0].in_sync, "backup attached and armed");
        let mut node_a = node_a;
        node_a.shutdown();
        drop(node_a);
        // Reads fail over to the backup and return the same data; each
        // primary failure is a strike toward promotion.
        for _ in 0..2 {
            let after = svc.get_stat_range(&[1], 0, 10_000).unwrap();
            assert_eq!(healthy, after, "backup serves identical data");
        }
        // The third strike promotes the backup and the striking write is
        // retried against it: write availability is restored.
        svc.insert(&sealed_chunk(1, 1, 8)).unwrap();
        let snap = svc.stats();
        assert!(snap.shards[0].failovers > 0, "failovers counted: {snap:?}");
        assert_eq!(snap.shards[0].promotions, 1, "promotion counted: {snap:?}");
        assert!(
            !snap.shards[0].in_sync,
            "promoted shard runs un-replicated until a replacement is attached: {snap:?}"
        );
        // The promoted primary now serves reads directly (no failover)
        // and holds both the mirrored and the post-promotion chunk.
        let failovers_before = snap.shards[0].failovers;
        let reply = svc.get_stat_range(&[1], 0, 20_000).unwrap();
        assert_eq!(reply.parts, vec![(1, 0, 2)]);
        assert_eq!(svc.stats().shards[0].failovers, failovers_before);
    }
}
