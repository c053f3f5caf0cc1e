//! The shard-backend seam: where a shard's requests are executed.
//!
//! The [`crate::ShardRouter`] decides *which* shard owns a stream; a
//! [`ShardBackend`] decides *where* that shard runs. Two implementations:
//!
//! * [`LocalShard`] — one shard of the coordinator's in-process
//!   [`ShardNode`](crate::ShardNode), called directly (the default).
//! * [`RemoteShard`] — a shard hosted by a `timecrypt-node` process,
//!   reached over the blocking TCP transport through a
//!   [`ClientPool`](timecrypt_wire::pool::ClientPool)
//!   (reconnect-with-backoff). Every request is one exchange in two steps:
//!   its frame is written when it is begun ([`ShardBackend::begin_call`],
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
//! Application-level errors travel inside the `Ok` payload: for remote
//! backends as [`ServerError::Remote`], whose `Display` is the node's
//! message verbatim, so wire replies stay byte-identical between
//! single-process and multi-node deployments.

mod local;
mod remote;
mod replicas;

pub use local::LocalShard;
pub use remote::RemoteShard;
pub(crate) use replicas::ingest_runs;
pub use replicas::ShardReplicas;

use std::time::Instant;
use timecrypt_server::{ServerError, StatLeg};
use timecrypt_wire::messages::{Request, Response};

/// Per-chunk ingest verdicts of one batch, in the batch's order.
pub type Verdicts = Vec<Result<(), ServerError>>;

/// An exchange a backend has begun: called, it reads the answer. It
/// borrows nothing, so other shards' exchanges can be begun first. A
/// remote shard's holds the node connection the reply is owed on, or the
/// failure that kept the frame from going out; an in-process shard's, the
/// answer or the work.
pub type Pending<T> = Box<dyn FnOnce() -> Result<T, ServerError>>;

/// A scatter-gather leg: `(position in the request, stream id)` pairs, all
/// owned by one shard.
pub(crate) type Leg = [(usize, u128)];

/// A leg cut short by [`crate::ServiceConfig::query_deadline`]: to the
/// read policy a transport failure like a socket timeout (it strikes).
pub(crate) const DEADLINE: ServerError = ServerError::Unavailable("query deadline exceeded");

pub(crate) const UNREACHABLE: ServerError = ServerError::Unavailable("shard node unreachable");

/// The refusal of a backup on its primary's own node: one engine over one
/// store, so every mirrored write would be a duplicate the node rejects.
pub(crate) const SAME_NODE: ServerError =
    ServerError::Unavailable("a backup replica must run on another node than its primary");

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
    /// Optional backup replica. Must be remote and not the primary's own
    /// node: either would share the primary's store and self-corrupt.
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

    /// Begins one scatter-gather leg: the shard's streams, in the order of
    /// their request positions, folded ([`StatLeg::fold`]) up to the first
    /// that stops the fold. A remote shard has the leg's one frame written
    /// when this returns, and waits for no reply past `deadline` (one that
    /// arrived by then is still read): the leg fails `Unavailable("query
    /// deadline exceeded")`, a transport-level failure — the socket timed
    /// out.
    fn begin_leg(&self, legs: &Leg, ts_s: i64, ts_e: i64, deadline: Instant) -> Pending<StatLeg>;

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
