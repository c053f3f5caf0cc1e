//! The backend for a shard hosted by a `timecrypt-node` process: each
//! request is one exchange of the shard's [`ClientPool`], which owns its
//! checkout, probe, budget, retry and discard; this file decodes replies
//! and counts them.

use super::{Leg, Pending, ShardBackend, Verdicts, DEADLINE, UNREACHABLE};
use crate::metrics::{record_leg, record_run, ShardMetrics};
use std::sync::Arc;
use std::time::Instant;
use timecrypt_server::{stat, ServerError, StatLeg};
use timecrypt_wire::messages::{Request, Response};
use timecrypt_wire::pool::{Body, ClientPool, Exchange, Failed};

/// A shard hosted by a `timecrypt-node` process, reached over TCP.
pub struct RemoteShard {
    pub(crate) pool: ClientPool,
    pub(crate) metrics: Arc<[ShardMetrics]>,
    pub(crate) shard: usize,
}

/// An exchange's reply; no reply is a transport-level failure.
fn recv(exchange: Exchange) -> Result<Response, ServerError> {
    exchange.recv().map_err(|e| match e {
        Failed::Deadline => DEADLINE,
        Failed::Unreachable => UNREACHABLE,
    })
}

impl ShardBackend for RemoteShard {
    fn begin_call(&self, req: Request, deadline: Option<Instant>) -> Pending<Response> {
        let exchange = self.pool.send(Body::Request(req), deadline);
        Box::new(move || recv(exchange))
    }

    /// One `GetStatLeg` exchange, so the caller puts other shards' legs on
    /// the wire before it reads this one's reply — the node's fold of the
    /// leg, one frame however many streams it has.
    fn begin_leg(
        &self,
        streams: &Leg,
        ts_s: i64,
        ts_e: i64,
        deadline: Instant,
    ) -> Pending<StatLeg> {
        let started = Instant::now();
        let req = Request::GetStatLeg {
            streams: streams.to_vec(),
            ts_s,
            ts_e,
        };
        let exchange = self.pool.send(Body::Request(req), Some(deadline));
        let (metrics, shard) = (self.metrics.clone(), self.shard);
        Box::new(move || {
            let leg = match recv(exchange)? {
                Response::StatLeg(leg) => leg,
                // The node answered, but not with a fold: its refusal is
                // the leg's first stream's error (the transport is fine).
                Response::Error(refusal) => stat::fold([Err(ServerError::Refused(refusal))]),
                _ => stat::fold([Err(ServerError::Unavailable(
                    "unexpected remote stat reply",
                ))]),
            };
            record_leg(&metrics[shard], started.elapsed(), &leg);
            Ok(leg)
        })
    }

    /// One `InsertBatch` exchange, framed straight from the chunks' bytes
    /// (the one payload copy of this hop) and never sent twice: a reply
    /// that does not arrive leaves the batch's fate unknown.
    fn begin_batch(&self, chunks: &[&[u8]]) -> Pending<Verdicts> {
        let started = Instant::now();
        let exchange = self.pool.send(Body::Batch(chunks), None);
        let (metrics, shard, chunks) = (self.metrics.clone(), self.shard, chunks.len());
        Box::new(move || {
            let reply = recv(exchange)?;
            let mut results: Verdicts = (0..chunks).map(|_| Ok(())).collect();
            match reply {
                Response::Batch { errors } => {
                    for (idx, refusal) in errors {
                        if let Some(slot) = results.get_mut(idx as usize) {
                            *slot = Err(ServerError::Refused(refusal));
                        }
                    }
                }
                // The node answered, but not with a batch verdict: fail
                // every chunk with its refusal (transport is still fine).
                Response::Error(r) => results.fill_with(|| Err(ServerError::Refused(r.clone()))),
                _ => results
                    .fill_with(|| Err(ServerError::Unavailable("unexpected remote batch reply"))),
            }
            record_run(&metrics[shard], started.elapsed(), &results);
            Ok(results)
        })
    }

    fn endpoint(&self) -> Option<&str> {
        Some(self.pool.addr())
    }
}
