//! The shard-backend seam: where a shard's requests are executed.
//!
//! The [`crate::ShardRouter`] decides *which* shard owns a stream; a
//! [`ShardBackend`] decides *where* that shard runs. Two implementations:
//!
//! * the coordinator's in-process [`ShardNode`](crate::ShardNode) itself
//!   (its `Arc` handle; `node.rs`), called directly (the default).
//! * [`RemoteShard`] — a shard hosted by a `timecrypt-node` process,
//!   reached over the blocking TCP transport. Every request is one
//!   [`Exchange`](timecrypt_wire::pool::Exchange) of the node's
//!   [`ClientPool`](timecrypt_wire::pool::ClientPool), which owns its
//!   checkout, probe, budget, resend and discard: its frame is written
//!   when it is begun ([`ShardBackend::begin_call`],
//!   [`ShardBackend::begin_leg`], [`ShardBackend::begin_batch`]) and its
//!   one reply read when the [`Pending`] it returns is finished, so a
//!   thread addressing several shards or nodes has every frame on the wire
//!   before it waits for a reply. Nothing here starts a thread.
//!
//! [`ShardReplicas`] composes one primary backend with an optional backup
//! (replication factor R=2): mutations go primary-then-backup, reads fail
//! over to the backup when the primary is unreachable. Failovers and
//! backup divergence are counted in the shard's
//! [`metrics`](crate::metrics::ShardMetrics).
//!
//! Error contract: a `begin_*` never fails; its [`Pending`] returns
//! `Err(`[`ServerError::Unavailable`]`)` **only** for transport-level
//! failure — a checkout, send or reply that failed, or a budget spent —
//! and that is the signal [`ShardReplicas`] fails over on.
//! Application-level errors travel inside the `Ok` payload: a node's
//! refusal as the [`Refusal`](timecrypt_wire::messages::Refusal) it sent,
//! kind and reason, in [`ServerError::Refused`], whose `Display` is the
//! reason verbatim, so wire replies stay byte-identical between
//! single-process and multi-node deployments. A write whose primary failed
//! after it may have arrived is [`ServerError::Ambiguous`]; a refusal's
//! kind is decided once, where `timecrypt-server` maps a `ServerError` to
//! its `Refusal`.

mod remote;
mod replicas;

pub use remote::RemoteShard;
pub use replicas::ShardReplicas;
pub(crate) use replicas::{ingest_runs, Admission, Policy};
pub use timecrypt_server::runs::Verdicts;

use std::time::Instant;
use timecrypt_server::{ServerError, StatLeg};
use timecrypt_wire::messages::{Request, Response};

/// An exchange a backend has begun: called, it reads the answer. It
/// borrows nothing, so other shards' exchanges can be begun first. A
/// remote shard's holds the pool's `Exchange`; an in-process shard's, the
/// answer or the work.
pub type Pending<T> = Box<dyn FnOnce() -> Result<T, ServerError>>;

/// A scatter-gather leg: the ids of a query's streams one shard owns, in
/// request order.
pub(crate) type Leg = [u128];

/// A leg cut short by [`crate::ServiceConfig::query_deadline`]: to the
/// read policy a transport failure like a socket timeout (it strikes).
pub(crate) const DEADLINE: ServerError = ServerError::Unavailable("query deadline exceeded");

pub(crate) const UNREACHABLE: ServerError = ServerError::Unavailable("shard node unreachable");

/// The refusal of a backup on its primary's own node: one engine over one
/// store, so every mirrored write would be a duplicate the node rejects.
pub(crate) const SAME_NODE: ServerError =
    ServerError::Unavailable("a backup replica must run on another node than its primary");

/// The reply to a request whose [`Route`](timecrypt_wire::messages::Route)
/// says the serving tier answers it itself, but which the tier has no arm
/// for: a variant added to the protocol without a handler.
pub(crate) const UNROUTED: ServerError =
    ServerError::Unavailable("request has no handler at this tier");

/// Where a shard's primary runs.
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
    /// The node (`host:port`) of an optional backup replica; not the
    /// primary's own, whose store the primary's engine already owns.
    pub backup: Option<String>,
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
        self.backup = Some(addr.into());
        self
    }
}

/// Executes one shard's operations, wherever the shard runs. See the
/// module docs for the error contract.
///
/// Four operations, three of them a `begin` returning a [`Pending`].
/// `begin_call` carries every plain request/reply: stream creation,
/// single-stream reads, the rebuild seam's list / export / import pages
/// and a scrape's `Stats` are requests over it, and `call` is it begun
/// and finished at once. The others are what an owned request cannot
/// express: `begin_leg` sends a leg and its `Pending` reads the shard's
/// fold of it (in process, that step runs the fold on the thread that
/// takes it), `begin_batch` frames borrowed chunk bytes and its `Pending`
/// returns typed verdicts — with other shards' exchanges between the
/// steps of either — and `endpoint` names the node.
pub trait ShardBackend: Send + Sync + 'static {
    /// Begins one wire request; the [`Pending`] reads the shard's reply.
    /// A remote shard has the frame written when this returns and waits
    /// for no reply past `deadline` (one that arrived by then is still
    /// read; `None`: each socket operation's `io_timeout` only).
    fn begin_call(&self, req: Request, deadline: Option<Instant>) -> Pending<Response>;

    /// Dispatches one wire request and returns the shard's reply.
    fn call(&self, req: Request) -> Result<Response, ServerError> {
        self.begin_call(req, None)()
    }

    /// Begins one scatter-gather leg: the shard's `streams`, in request
    /// order, folded ([`stat::fold`](timecrypt_server::stat::fold)) up to
    /// the first that stops the fold. A remote shard has the leg's one
    /// frame written when this returns, and waits for no reply past
    /// `deadline` (one that arrived by then is still read): the leg fails
    /// `Unavailable("query deadline exceeded")`, a transport-level failure
    /// — the socket timed out.
    fn begin_leg(&self, streams: &Leg, ts_s: i64, ts_e: i64, deadline: Instant)
        -> Pending<StatLeg>;

    /// Hands the shard `chunks` — serialized chunk bytes, validated where
    /// they entered the service — to ingest in order (a stream has one
    /// writer at a time: that, and nothing in this tier, orders a stream's
    /// writes); the [`Pending`] reads the per-chunk verdicts. A remote
    /// shard has the `InsertBatch` frame written when this returns; an
    /// in-process one has run the batch.
    fn begin_batch(&self, chunks: &[&[u8]]) -> Pending<Verdicts>;

    /// The node (`host:port`) this backend dials, `None` for the
    /// coordinator's in-process node. A scrape asks each node once,
    /// however many shards it hosts or replicates.
    fn endpoint(&self) -> Option<&str> {
        None
    }
}
