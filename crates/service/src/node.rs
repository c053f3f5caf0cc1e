//! A shard node: hosts a subset of the cluster's shards behind the wire
//! protocol — the one place in this crate that opens or owns an engine.
//!
//! A multi-node TimeCrypt cluster is a coordinator (a
//! [`crate::ShardedService`] whose [`crate::ServiceConfig::topology`] maps
//! some shards to `host:port` addresses) plus one `timecrypt-node` process
//! per address. Each node opens one filtered engine per hosted shard over
//! the node's own KV store and answers the same Request/Response protocol
//! a single-process server does — which is what keeps coordinator replies
//! byte-identical however shards are placed. The shards a coordinator
//! keeps in its own process run in a `ShardNode` too, over the
//! coordinator's store, and the node's handle is their backend
//! ([`ShardBackend`] for `Arc<ShardNode>`): it calls the typed operations
//! (`stat_leg`, `ingest`) that the wire dispatch below reaches for the
//! same requests.
//!
//! **Topology invariant:** stream → shard assignment is
//! `ShardRouter::shard_of(stream)` over the *cluster-wide* shard count, so
//! the coordinator and every node must agree on `total_shards`. A request
//! for a stream whose shard is not hosted here answers
//! `service unavailable: stream's shard is not hosted on this node` — it
//! signals a mis-routed coordinator or a total-shards mismatch, never a
//! data error.

use crate::backend::{Leg, Pending, ShardBackend, Verdicts, UNROUTED};
use crate::metrics::{record_run, ShardMetrics};
use crate::router::ShardRouter;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use timecrypt_chunk::serialize::SealedRecord;
use timecrypt_obs::trace;
use timecrypt_server::runs::{ingest_reply, Runs};
use timecrypt_server::{stat, BoundaryCache, ServerConfig, ServerError, StatLeg, TimeCryptServer};
use timecrypt_store::KvStore;
use timecrypt_wire::messages::{
    Request, RequestRef, Response, Route, ServiceStatsWire, ShardStatsWire,
};
use timecrypt_wire::transport::{dispatch_frame, Handler};

const NOT_HOSTED: ServerError =
    ServerError::Unavailable("stream's shard is not hosted on this node");

/// Configuration of one shard node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Cluster-wide shard count — must match the coordinator's.
    pub total_shards: usize,
    /// Shard ids hosted by this node (each `< total_shards`).
    pub hosted: Vec<usize>,
    /// Engine configuration for every hosted shard; its `cache_bytes` is
    /// the budget of the node's one boundary cache, which they share.
    pub engine: ServerConfig,
}

/// A node hosting a subset of the cluster's shards over its own store.
/// Implements [`Handler`], so it drops straight into
/// [`timecrypt_wire::transport::Server`].
pub struct ShardNode {
    router: ShardRouter,
    engines: BTreeMap<usize, Arc<TimeCryptServer>>,
    /// Per-shard counters; a coordinator reads its in-process node's.
    pub(crate) metrics: Arc<[ShardMetrics]>,
    kv: Arc<dyn KvStore>,
}

impl ShardNode {
    /// Opens one filtered engine per hosted shard over `kv`, whose
    /// [`KvStore::counters`] `Request::Stats` reports as the node's storage
    /// traffic, and one boundary cache they share, recovering each shard's
    /// streams from the store.
    pub fn open(kv: Arc<dyn KvStore>, cfg: NodeConfig) -> Result<Self, ServerError> {
        if cfg.total_shards == 0 {
            return Err(ServerError::Unavailable(
                "total shard count must be at least 1",
            ));
        }
        if cfg.hosted.is_empty() {
            return Err(ServerError::Unavailable(
                "a node must host at least one shard",
            ));
        }
        Self::open_hosting(kv, cfg)
    }

    /// [`open`](Self::open), hosting no shard too: how a
    /// [`crate::ShardedService`] hosts its in-process shards (none, for an
    /// all-remote topology).
    pub(crate) fn open_hosting(kv: Arc<dyn KvStore>, cfg: NodeConfig) -> Result<Self, ServerError> {
        let router = ShardRouter::new(cfg.total_shards);
        let cache = Arc::new(BoundaryCache::new(cfg.engine.cache_bytes));
        let mut engines = BTreeMap::new();
        for &shard in &cfg.hosted {
            if shard >= cfg.total_shards {
                return Err(ServerError::Unavailable("hosted shard id out of range"));
            }
            if engines.contains_key(&shard) {
                continue;
            }
            engines.insert(
                shard,
                Arc::new(TimeCryptServer::open_filtered(
                    kv.clone(),
                    cfg.engine.clone(),
                    cache.clone(),
                    |stream| router.shard_of(stream) == shard,
                )?),
            );
        }
        Ok(ShardNode {
            router,
            engines,
            metrics: (0..cfg.total_shards).map(|_| Default::default()).collect(),
            kv,
        })
    }

    /// The shard ids this node hosts, ascending.
    pub fn hosted(&self) -> Vec<usize> {
        self.engines.keys().copied().collect()
    }

    /// The store every hosted engine runs over.
    pub fn kv(&self) -> &Arc<dyn KvStore> {
        &self.kv
    }

    /// The engine owning `stream`, or [`ServerError::Unavailable`] when
    /// the stream's shard lives elsewhere.
    fn engine_for(&self, stream: u128) -> Result<(usize, &Arc<TimeCryptServer>), ServerError> {
        let shard = self.router.shard_of(stream);
        match self.engines.get(&shard) {
            Some(engine) => Ok((shard, engine)),
            None => Err(NOT_HOSTED),
        }
    }

    /// `streams`, all hosted here, folded in request order up to the
    /// first that stops the fold — what a `GetStatLeg` and a whole
    /// `GetStatRange` are answered from. Each stream the fold reads is one
    /// sub-query: one latency sample and one `queries` increment, so
    /// `Request::Stats` histogram totals and counters agree by construction.
    fn stat_leg(&self, streams: &[u128], ts_s: i64, ts_e: i64) -> StatLeg {
        stat::fold(streams.iter().map(|&sid| {
            let (shard, engine) = self.engine_for(sid)?;
            let m = &self.metrics[shard];
            let _span = trace::stage("engine.query");
            let t = Instant::now();
            let r = engine.stream_stat(sid, ts_s, ts_e);
            m.query_hist_us.record(t.elapsed());
            m.queries.inc();
            m.query_errors.add(r.is_err().into());
            r
        }))
    }

    /// The node's one ingest path, over serialized chunk views (any
    /// stream mix, in submission order) — a frame's chunks and the
    /// coordinator's in-process runs alike. The batch is split by owning
    /// shard ([`Runs`]; payloads are never copied, and a batch of one
    /// shard, as every batch a coordinator sends is, is borrowed whole),
    /// each shard's run goes to its engine as one zero-copy batch, and the
    /// verdicts come back typed, in batch order.
    fn ingest(&self, chunks: &[&[u8]]) -> Verdicts {
        let runs = Runs::split(chunks, |chunk| self.router.shard_of(chunk.stream));
        runs.verdicts(runs.iter().map(|(shard, run)| {
            let Some(engine) = self.engines.get(&shard) else {
                return run.iter().map(|_| Err(NOT_HOSTED)).collect();
            };
            let _span = trace::stage("engine.ingest");
            let t = Instant::now();
            let verdicts = engine.insert_bytes_run(run);
            record_run(&self.metrics[shard], t.elapsed(), &verdicts);
            verdicts
        }))
    }

    /// Node metrics snapshot: one entry per *hosted* shard (global shard
    /// ids) with its engine's occupancy, plus the node store's traffic
    /// counters.
    pub fn stats(&self) -> ServiceStatsWire {
        let store = self.kv.counters();
        let mut snap = ServiceStatsWire {
            shards: Vec::new(),
            store_gets: store.gets,
            store_puts: store.puts,
            store_deletes: store.deletes,
            store_scans: store.scans,
            store_bytes_read: store.bytes_read,
            store_bytes_written: store.bytes_written,
        };
        for (&shard, engine) in &self.engines {
            let residency = engine.residency();
            snap.shards.push(ShardStatsWire {
                shard: shard as u32,
                streams: engine.stream_count() as u64,
                resident_streams: residency.resident,
                hydrations: residency.hydrations,
                evictions: residency.evictions,
                ..self.metrics[shard].snapshot()
            });
        }
        snap
    }

    /// Starts a Prometheus `/metrics` listener on `addr` (port 0 for
    /// ephemeral) rendering this node's [`stats`](Self::stats) per
    /// scrape. The listener holds its own `Arc` and stops on drop.
    pub fn serve_metrics(
        self: &std::sync::Arc<Self>,
        addr: &str,
    ) -> std::io::Result<timecrypt_obs::HttpServer> {
        let node = self.clone();
        crate::expose::serve_stats(addr, move || node.stats())
    }
}

impl ShardNode {
    /// The node's single request dispatch, over the borrowed view both
    /// [`Handler`] entry points produce: chunk bytes are stored as borrows
    /// of the caller's buffer (the frame, on the wire path) through
    /// [`ingest`](Self::ingest), a live record goes to its stream's engine
    /// ([`ingest_reply`] renders the reply); every other variant continues
    /// in [`dispatch_unborrowed`](Self::dispatch_unborrowed).
    fn dispatch(&self, req: RequestRef<'_>) -> Response {
        let live = |record: &[u8]| {
            let record = SealedRecord::from_bytes(record).map_err(|_| ServerError::BadRecord)?;
            self.engine_for(record.stream)?.1.insert_live(&record)
        };
        ingest_reply(req, |chunks| self.ingest(chunks), live)
            .unwrap_or_else(|req| self.dispatch_unborrowed(req))
    }

    /// The arms of [`dispatch`](Self::dispatch) for requests that carry
    /// no bulk payload, by routing key.
    fn dispatch_unborrowed(&self, req: Request) -> Response {
        // A request addressed to one hosted engine delegates to that
        // engine's own handler — byte-identical to a single-engine server.
        let delegate = |engine: Result<&Arc<TimeCryptServer>, ServerError>, req| {
            engine.map_or_else(|e| Response::Error(e.into()), |engine| engine.handle(req))
        };
        match req.route() {
            // `RequestRef` carries ingest requests borrowed; one that was
            // wrapped owned re-enters through its view.
            Route::Payload => req.with_ref(|view| self.dispatch(view)),
            Route::Stream(stream) => delegate(self.engine_for(stream).map(|(_, e)| e), req),
            // Replica rebuild: the survivor enumerates one hosted shard.
            Route::Shard(shard) => {
                delegate(self.engines.get(&(shard as usize)).ok_or(NOT_HOSTED), req)
            }
            // A coordinator sends each leg as a `GetStatLeg`; a query whose
            // streams are all hosted here is the same fold, as a reply.
            Route::Service => match req {
                Request::GetStatLeg {
                    streams,
                    ts_s,
                    ts_e,
                } => Response::StatLeg(self.stat_leg(&streams, ts_s, ts_e)),
                Request::GetStatRange {
                    streams,
                    ts_s,
                    ts_e,
                } => stat::reply(self.stat_leg(&streams, ts_s, ts_e), &streams)
                    .map_or_else(|e| Response::Error(e.into()), Response::Stat),
                Request::Stats => Response::ServiceStats(self.stats()),
                Request::Ping => Response::Pong,
                _ => Response::Error(UNROUTED.into()),
            },
        }
    }
}

impl Handler for ShardNode {
    fn handle(&self, req: Request) -> Response {
        req.with_ref(|view| self.dispatch(view))
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        dispatch_frame(body, |view| self.dispatch(view))
    }
}

/// The coordinator's in-process backend: the node itself, called directly
/// instead of over a connection. Each operation is the one the node's wire
/// dispatch reaches for the same request, so a shard behaves the same on
/// either side of the seam.
impl ShardBackend for Arc<ShardNode> {
    /// Runs the request: there is nothing to send.
    fn begin_call(&self, req: Request, _deadline: Option<Instant>) -> Pending<Response> {
        let reply = self.handle(req);
        Box::new(move || Ok(reply))
    }

    /// Nothing to send: the node folds the leg when it is finished, on the
    /// thread that finishes it — which has put the query's remote legs on
    /// the wire by then. Its sub-queries are microseconds and run to the
    /// end: the deadline is not consulted. The engine's read path takes no
    /// exclusive stream lock, so legs of concurrent callers proceed in
    /// parallel even on one hot stream.
    fn begin_leg(
        &self,
        streams: &Leg,
        ts_s: i64,
        ts_e: i64,
        _deadline: Instant,
    ) -> Pending<StatLeg> {
        let (node, streams) = (self.clone(), streams.to_vec());
        Box::new(move || Ok(node.stat_leg(&streams, ts_s, ts_e)))
    }

    /// Runs the batch through the node's one ingest path, its frames'
    /// too: the engine stores from the caller's slices.
    fn begin_batch(&self, chunks: &[&[u8]]) -> Pending<Verdicts> {
        let verdicts = self.ingest(chunks);
        Box::new(move || Ok(verdicts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
    use timecrypt_core::StreamKeyMaterial;
    use timecrypt_crypto::{PrgKind, SecureRandom};
    use timecrypt_store::MemKv;

    fn sealed(id: u128, index: u64, value: i64) -> timecrypt_chunk::serialize::EncryptedChunk {
        let cfg = StreamConfig {
            schema: DigestSchema::sum_count(),
            ..StreamConfig::new(id, "m", 0, 10_000)
        };
        let keys = StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap();
        let mut rng = SecureRandom::from_seed_insecure(7);
        PlainChunk {
            stream: id,
            index,
            points: vec![DataPoint::new(index as i64 * 10_000, value)],
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap()
    }

    /// First stream id (searching from `from`) owned by `shard` of `total`.
    fn stream_on_shard(total: usize, shard: usize, from: u128) -> u128 {
        let router = ShardRouter::new(total);
        (from..from + 10_000)
            .find(|&id| router.shard_of(id) == shard)
            .expect("a stream id mapping to the shard")
    }

    fn node(total: usize, hosted: Vec<usize>) -> ShardNode {
        ShardNode::open(
            Arc::new(MemKv::new()),
            NodeConfig {
                total_shards: total,
                hosted,
                engine: ServerConfig::default(),
            },
        )
        .unwrap()
    }

    #[test]
    fn hosts_only_requested_shards() {
        let n = node(4, vec![1, 3, 1]);
        assert_eq!(n.hosted(), vec![1, 3]);
        assert!(ShardNode::open(
            Arc::new(MemKv::new()),
            NodeConfig {
                total_shards: 2,
                hosted: vec![5],
                engine: ServerConfig::default(),
            }
        )
        .is_err());
        assert!(ShardNode::open(
            Arc::new(MemKv::new()),
            NodeConfig {
                total_shards: 2,
                hosted: vec![],
                engine: ServerConfig::default(),
            }
        )
        .is_err());
    }

    #[test]
    fn routes_hosted_streams_and_rejects_foreign_ones() {
        let n = node(2, vec![0]);
        let mine = stream_on_shard(2, 0, 1);
        let foreign = stream_on_shard(2, 1, 1);
        assert_eq!(
            n.handle(Request::CreateStream {
                stream: mine,
                t0: 0,
                delta_ms: 10_000,
                digest_width: 2
            }),
            Response::Ok
        );
        match n.handle(Request::CreateStream {
            stream: foreign,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        }) {
            Response::Error(refusal) => assert_eq!(refusal, NOT_HOSTED.into()),
            other => panic!("unexpected {other:?}"),
        }
        // Ingest + query on the hosted stream.
        assert_eq!(
            n.handle(Request::Insert {
                chunk: sealed(mine, 0, 5).to_bytes()
            }),
            Response::Ok
        );
        match n.handle(Request::GetStatRange {
            streams: vec![mine],
            ts_s: 0,
            ts_e: 10_000,
        }) {
            Response::Stat(s) => assert_eq!(s.parts, vec![(mine, 0, 1)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_reports_hosted_shards_with_global_ids() {
        let n = node(3, vec![0, 2]);
        let s0 = stream_on_shard(3, 0, 1);
        n.handle(Request::CreateStream {
            stream: s0,
            t0: 0,
            delta_ms: 10_000,
            digest_width: 2,
        });
        n.handle(Request::Insert {
            chunk: sealed(s0, 0, 1).to_bytes(),
        });
        let snap = n.stats();
        assert_eq!(
            snap.shards.iter().map(|s| s.shard).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(snap.shards[0].streams, 1);
        assert_eq!(snap.shards[0].ingested_chunks, 1);
        assert!(snap.store_puts > 0);
    }

    #[test]
    fn recovers_hosted_streams_from_the_store() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let a = stream_on_shard(2, 0, 1);
        let b = stream_on_shard(2, 1, 1);
        {
            let n = ShardNode::open(
                kv.clone(),
                NodeConfig {
                    total_shards: 2,
                    hosted: vec![0, 1],
                    engine: ServerConfig::default(),
                },
            )
            .unwrap();
            for &id in &[a, b] {
                n.handle(Request::CreateStream {
                    stream: id,
                    t0: 0,
                    delta_ms: 10_000,
                    digest_width: 2,
                });
                n.handle(Request::Insert {
                    chunk: sealed(id, 0, 1).to_bytes(),
                });
            }
        }
        // Reopen hosting only shard 0: stream `a` recovers, `b` does not.
        let n = ShardNode::open(
            kv,
            NodeConfig {
                total_shards: 2,
                hosted: vec![0],
                engine: ServerConfig::default(),
            },
        )
        .unwrap();
        match n.handle(Request::StreamInfo { stream: a }) {
            Response::Info(i) => assert_eq!(i.len, 1),
            other => panic!("unexpected {other:?}"),
        }
        match n.handle(Request::StreamInfo { stream: b }) {
            Response::Error(refusal) => assert_eq!(refusal, NOT_HOSTED.into()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
