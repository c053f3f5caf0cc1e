//! The backend for a shard hosted by a `timecrypt-node` process.

use super::{Leg, Pending, PendingBatch, ShardBackend, Verdicts, DEADLINE, UNREACHABLE};
use crate::metrics::{ServiceMetrics, ShardOccupancy};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt_obs::{trace, TraceContext};
use timecrypt_server::{ServerError, StatLeg};
use timecrypt_wire::messages::{BatchEncoder, Request, Response};
use timecrypt_wire::pool::{ClientPool, PoolConfig, PooledConn};
use timecrypt_wire::transport::ClientError;

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

/// What is left of a budget that runs out at `deadline`, if anything is.
fn left(deadline: Instant) -> Option<Duration> {
    let left = deadline.checked_duration_since(Instant::now());
    left.filter(|left| !left.is_zero())
}

impl ShardBackend for RemoteShard {
    fn call(&self, req: Request) -> Result<Response, ServerError> {
        let _span = trace::stage("backend.exchange");
        match self.pool.call_traced(trace_ctx(), &req) {
            Ok(resp) => Ok(resp),
            // `ClientPool::call` surfaces `Response::Error` as a client
            // error; re-wrap it — the node answered, the transport is fine.
            Err(ClientError::Server(msg)) => Ok(Response::Error(msg)),
            Err(_) => Err(UNREACHABLE),
        }
    }

    /// One `GetStatLeg` exchange: its frame is written here, so the caller
    /// puts other shards' legs on the wire before it reads this one's reply
    /// — the node's fold of the leg, one frame however many streams it has.
    /// A pooled connection may be stale (the node restarted under it); the
    /// leg is a read, so a failed exchange is sent again, once, on a fresh
    /// dial while budget is left.
    fn begin_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
        deadline: Instant,
    ) -> Result<Pending<StatLeg>, ServerError> {
        let span = trace::stage("backend.exchange");
        let started = Instant::now();
        let streams = legs.iter().map(|&(_, sid)| sid).collect();
        let req = Request::GetStatLeg {
            streams,
            ts_s,
            ts_e,
        };
        let (pool, metrics, shard) = (self.pool.clone(), self.metrics.clone(), self.shard);
        let send = move |fresh| {
            left(deadline).ok_or(DEADLINE)?;
            send_frame(&pool, fresh, |buf| req.encode_into(buf))
        };
        let begun = send(false);
        Ok(Box::new(move || {
            let _span = span;
            let mut reply = begun.and_then(|owed| owed.recv(Some(deadline)));
            if reply.is_err() && left(deadline).is_some() {
                reply = send(true).and_then(|owed| owed.recv(Some(deadline)));
            }
            let leg = match reply? {
                Response::StatLeg(leg) => StatLeg::from(leg),
                // The node answered, but not with a fold: its message is
                // the leg's first stream's error (the transport is fine).
                Response::Error(msg) => StatLeg::fold([Err(ServerError::Remote(msg))]),
                _ => StatLeg::fold([Err(ServerError::Unavailable(
                    "unexpected remote stat reply",
                ))]),
            };
            metrics.shard(shard).record_leg(started.elapsed(), &leg);
            Ok(leg)
        }))
    }

    fn begin_batch(&self, chunks: &[&[u8]]) -> Result<PendingBatch, ServerError> {
        let span = trace::stage("backend.exchange");
        let started = Instant::now();
        // Frame assembly is the one payload copy of this hop: each
        // chunk's bytes are appended as received, straight into the
        // connection's scratch buffer (no per-chunk `Vec<u8>`, no owned
        // `Request`), whose capacity is reused across exchanges on the
        // pooled connection.
        let owed = send_frame(&self.pool, false, |buf| {
            let mut enc = BatchEncoder::begin(buf);
            for c in chunks {
                enc.append_with(c.len(), |out| out.extend_from_slice(c));
            }
            enc.finish();
        })?;
        let (metrics, shard, chunks) = (self.metrics.clone(), self.shard, chunks.len());
        Ok(Box::new(move || {
            let _span = span;
            // Never retried: a reply that does not arrive leaves the
            // batch's fate unknown.
            let reply = owed.recv(None)?;
            let mut results: Verdicts = (0..chunks).map(|_| Ok(())).collect();
            match reply {
                Response::Batch { errors } => {
                    for (idx, msg) in errors {
                        if let Some(slot) = results.get_mut(idx as usize) {
                            *slot = Err(ServerError::Remote(msg));
                        }
                    }
                }
                // The node answered, but not with a batch verdict: fail
                // every chunk with its message (transport is still fine).
                Response::Error(msg) => results.fill_with(|| Err(ServerError::Remote(msg.clone()))),
                _ => results
                    .fill_with(|| Err(ServerError::Unavailable("unexpected remote batch reply"))),
            }
            metrics.shard(shard).record_run(started.elapsed(), &results);
            Ok(results)
        }))
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

/// The first half of every split exchange: writes one request frame —
/// `fill` appends the body, behind the trace envelope when the caller is
/// traced — on a connection from `pool` (`fresh`: a new dial, the idle ones
/// dropped), and returns the connection the reply is owed on.
fn send_frame(
    pool: &ClientPool,
    fresh: bool,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<ReplyOwed, ServerError> {
    let conn = if fresh { pool.fresh() } else { pool.get() };
    let mut conn = conn.map_err(|_| UNREACHABLE)?;
    let sent = conn.client().send_with(trace_ctx(), fill);
    // A frame that failed half-written leaves the connection unusable: the
    // owed reply's drop discards it.
    let owed = ReplyOwed(Some(conn));
    sent.map(|()| owed).map_err(|_| UNREACHABLE)
}

/// A node connection with a reply still to be read: dropped like that, it
/// is discarded — in the pool it would answer the next request with it.
struct ReplyOwed(Option<PooledConn>);

impl ReplyOwed {
    /// The second half: reads the reply and gives the connection back to
    /// the pool. With a `deadline` the wait is `min(io_timeout, what is left
    /// of the budget)` — with the budget spent (by another shard's leg,
    /// maybe) that is the transport's minimum: a reply that arrived in time
    /// is read, one that did not is `DEADLINE`.
    fn recv(mut self, deadline: Option<Instant>) -> Result<Response, ServerError> {
        let conn = self.0.as_mut().ok_or(UNREACHABLE)?;
        if let Some(deadline) = deadline {
            let left = left(deadline).unwrap_or_default();
            conn.cap_deadline(left).map_err(|_| UNREACHABLE)?;
        }
        let spent = || deadline.is_some_and(|d| left(d).is_none());
        let reply = conn.client().recv().map_err(|e| match e {
            ClientError::Frame(e) if e.is_timeout() && spent() => DEADLINE,
            _ => UNREACHABLE,
        })?;
        drop(self.0.take());
        Ok(reply)
    }
}

impl Drop for ReplyOwed {
    fn drop(&mut self) {
        if let Some(conn) = self.0.take() {
            conn.discard();
        }
    }
}
