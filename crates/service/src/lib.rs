//! # timecrypt-service — the sharded concurrent serving tier
//!
//! The paper runs TimeCrypt as stateless server instances in front of a
//! horizontally scalable KV store ("TimeCrypt instances are stateless and
//! therefore horizontally scalable", §3.2; Cassandra in §4.6). A single
//! [`timecrypt_server::TimeCryptServer`] engine serializes each stream's
//! writes behind per-stream locks, but one engine instance still funnels
//! every stream through one stream registry and — more importantly — gives
//! requests no parallelism beyond what the caller's threads provide.
//!
//! This crate is the serving tier in front of the engine:
//!
//! * **Shard router** ([`router`]) — streams are partitioned across N
//!   independent engine shards by a stable hash of the stream id. Each
//!   stream's state (aggregation tree, integrity ledger, live buffer)
//!   lives in exactly one shard, so cross-stream contention disappears.
//! * **Batched ingest** ([`ShardedService::submit_batch`]) — a batch is
//!   partitioned across shards *preserving per-stream submission order*
//!   and each shard's run is written from the submitter's thread, the
//!   shards' exchanges overlapped; a submitter waiting for its own
//!   verdicts is the backpressure when producers outrun the store.
//! * **Scatter-gather queries** ([`ShardedService::get_stat_range`]) —
//!   a multi-stream statistical query is begun on every owning shard as
//!   one leg (a remote shard's is one `GetStatLeg` frame, so the nodes
//!   work in parallel) and gathered, on the caller's thread and inside one
//!   end-to-end budget. Each shard folds its leg with
//!   [`timecrypt_server::stat::fold`] — the fold a single engine
//!   answers with — and the coordinator folds the legs' outcomes in
//!   request order and adds their HEAC partial sums, so replies are
//!   byte-identical to a single-engine deployment on the same workload.
//!   The service starts no thread: requests and replica rebuilds run on
//!   their callers'.
//! * **Intra-shard read parallelism** — the engine's read path takes no
//!   exclusive stream lock (queries run against a published chunk-count
//!   snapshot), so any number of client threads can query a shard — even
//!   one hot stream — concurrently with each other and with its writer.
//! * **Multi-node shard placement** ([`backend`], [`node`]) — the router
//!   decides *which* shard owns a stream
//!   ([`timecrypt_wire::messages::Request::route`] names the routing key
//!   of every request, for the coordinator and the node alike); a
//!   [`backend::ShardBackend`] — four operations, `backend/mod.rs` —
//!   decides *where* that shard runs: in the coordinator's own
//!   [`ShardNode`], whose handle is the in-process backend (`node.rs`), or
//!   on a `timecrypt-node` process reached over the wire protocol
//!   ([`backend::RemoteShard`], `backend/remote.rs`: pooled TCP, every
//!   exchange one frame out and one reply). [`ServiceConfig::topology`]
//!   maps each shard to `local` or `host:port`, optionally with a backup
//!   replica on another node (R=2: writes go primary-then-backup, reads
//!   fail over — one function per policy). Replies stay byte-identical
//!   however shards are placed.
//! * **Replica promotion + rebuild** ([`backend::ShardReplicas`],
//!   `backend/replicas.rs`) — a
//!   primary that stays unreachable for
//!   [`ServiceConfig::promote_after`] consecutive operations has its
//!   in-sync backup *promoted* (reads and writes flip, replies stay
//!   byte-identical); [`ShardedService::attach_replica`] then attaches a
//!   replacement and copies the survivor's records into it stream by
//!   stream (`ExportStream` / `ImportStream` pages), each stream's writes
//!   held off while it is copied, returning once mirroring is re-armed.
//! * **Metrics** ([`metrics`]) — per-shard ingest/query counters, chunks
//!   in flight, failover/replica-drift counters, and log₂ latency
//!   histograms, exposed over the wire through `Request::Stats`.
//!
//! The service implements [`timecrypt_wire::transport::Handler`], so it
//! drops into the TCP transport (or the in-process client transport)
//! anywhere a single engine does. The full deployment architecture
//! (coordinator → nodes → engines → store, with the locking model and
//! replication invariants) is documented in ARCHITECTURE.md at the repo
//! root.
//!
//! ```
//! use std::sync::Arc;
//! use timecrypt_service::{ServiceConfig, ShardedService};
//! use timecrypt_store::MemKv;
//!
//! let svc = ShardedService::open(
//!     Arc::new(MemKv::new()),
//!     ServiceConfig { shards: 4, ..ServiceConfig::default() },
//! )
//! .unwrap();
//! svc.create_stream(7, 0, 10_000, 2).unwrap();
//! assert_eq!(svc.stats().shards.len(), 4);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod backend;
pub mod expose;
pub mod metrics;
pub mod node;
pub mod router;
pub mod service;

pub use backend::{BackendSpec, ShardBackend, ShardSpec};
pub use expose::{render_stats, serve_stats};
pub use metrics::ShardMetrics;
pub use node::{NodeConfig, ShardNode};
pub use router::ShardRouter;
pub use service::{ServiceConfig, ShardedService};
