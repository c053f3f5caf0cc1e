//! The in-process backend.

use super::{Leg, Pending, ShardBackend, Verdicts};
use crate::node::ShardNode;
use std::sync::Arc;
use std::time::Instant;
use timecrypt_server::StatLeg;
use timecrypt_wire::messages::{Request, Response};
use timecrypt_wire::transport::Handler;

/// The in-process backend: one shard of the coordinator's own
/// [`ShardNode`], called directly instead of over a connection. Each
/// method is the typed node operation the node's wire dispatch reaches
/// for the same request, so a shard behaves the same on either side of
/// the seam.
pub struct LocalShard {
    node: Arc<ShardNode>,
    shard: usize,
}

impl LocalShard {
    pub(crate) fn new(node: Arc<ShardNode>, shard: usize) -> Self {
        LocalShard { node, shard }
    }
}

impl ShardBackend for LocalShard {
    /// Runs the request: there is nothing to send.
    fn begin_call(&self, req: Request, _deadline: Option<Instant>) -> Pending<Response> {
        let reply = self.node.handle(req);
        Box::new(move || Ok(reply))
    }

    /// Nothing to send: the node folds the leg when it is finished, on the
    /// thread that finishes it — which has put the query's remote legs on
    /// the wire by then. Its sub-queries are microseconds and run to the
    /// end: the deadline is not consulted. The engine's read path takes no
    /// exclusive stream lock, so legs of concurrent callers proceed in
    /// parallel even on one hot stream.
    fn begin_leg(&self, legs: &Leg, ts_s: i64, ts_e: i64, _deadline: Instant) -> Pending<StatLeg> {
        let node = self.node.clone();
        let streams: Vec<u128> = legs.iter().map(|&(_, sid)| sid).collect();
        Box::new(move || Ok(node.stat_leg(&streams, ts_s, ts_e)))
    }

    /// Runs the batch: the engine stores from the caller's slices.
    fn begin_batch(&self, chunks: &[&[u8]]) -> Pending<Verdicts> {
        let verdicts = self.node.insert_run(self.shard, chunks);
        Box::new(move || Ok(verdicts))
    }
}
