//! The in-process backend.

use super::{Leg, PendingBatch, ShardBackend, StreamStatResult};
use crate::metrics::ShardOccupancy;
use crate::node::ShardNode;
use std::sync::Arc;
use timecrypt_server::ServerError;
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
    fn call(&self, req: Request) -> Result<Response, ServerError> {
        Ok(self.node.handle(req))
    }

    /// Sub-queries run in order on the calling thread. The engine's read
    /// path takes no exclusive stream lock, so legs of concurrent callers
    /// proceed in parallel even on one hot stream.
    fn stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<(usize, StreamStatResult)>, ServerError> {
        Ok(legs
            .iter()
            .map(|&(pos, sid)| (pos, self.node.stream_stat(sid, ts_s, ts_e)))
            .collect())
    }

    /// Runs the batch: the engine stores from the caller's slices.
    fn begin_batch(&self, chunks: &[&[u8]]) -> Result<PendingBatch, ServerError> {
        let verdicts = self.node.insert_run(self.shard, chunks);
        Ok(Box::new(move || Ok(verdicts)))
    }

    fn occupancy(&self) -> Result<ShardOccupancy, ServerError> {
        self.node.occupancy(self.shard)
    }
}
