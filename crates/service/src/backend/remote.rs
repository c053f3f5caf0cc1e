//! The backend for a shard hosted by a `timecrypt-node` process.

use super::{Leg, PendingBatch, ShardBackend, StreamStatResult, Verdicts, UNREACHABLE};
use crate::metrics::{ServiceMetrics, ShardOccupancy};
use std::sync::Arc;
use std::time::Instant;
use timecrypt_obs::{trace, TraceContext};
use timecrypt_server::ServerError;
use timecrypt_wire::messages::{Request, Response};
use timecrypt_wire::pool::{ClientPool, PoolConfig, PooledConn};

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

    fn begin_batch(&self, chunks: &[&[u8]]) -> Result<PendingBatch, ServerError> {
        let span = trace::stage("backend.exchange");
        let ctx = trace_ctx();
        let started = Instant::now();
        let mut conn = self.pool.get().map_err(|_| UNREACHABLE)?;
        // Frame assembly is the one payload copy of this hop: each
        // chunk's bytes are appended as received, straight into the
        // connection's scratch buffer (no per-chunk `Vec<u8>`, no owned
        // `Request`), whose capacity is reused across exchanges on the
        // pooled connection.
        let sent = conn.client().send_with(|buf| {
            if let Some(ctx) = ctx {
                timecrypt_wire::messages::encode_trace_prefix(ctx, buf);
            }
            let mut enc = timecrypt_wire::messages::BatchEncoder::begin(buf);
            for c in chunks {
                enc.append_with(c.len(), |out| out.extend_from_slice(c));
            }
            enc.finish();
        });
        if sent.is_err() {
            conn.discard();
            return Err(UNREACHABLE);
        }
        // A reply is now owed on `conn`: read, the connection goes back to
        // the pool; abandoned, it must not.
        let mut owed = ReplyOwed(Some(conn));
        let (metrics, shard, chunks) = (self.metrics.clone(), self.shard, chunks.len());
        Ok(Box::new(move || {
            let _span = span;
            // Never retried: a reply that does not arrive leaves the
            // batch's fate unknown.
            let Some(Ok(reply)) = owed.0.as_mut().map(|c| c.client().recv()) else {
                return Err(UNREACHABLE);
            };
            drop(owed.0.take());
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

/// A node connection with a reply still to be read: dropped like that, it
/// is discarded — in the pool it would answer the next request with it.
struct ReplyOwed(Option<PooledConn>);

impl Drop for ReplyOwed {
    fn drop(&mut self) {
        if let Some(conn) = self.0.take() {
            conn.discard();
        }
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
        m.queries.add(legs.len() as u64);
        let errors = out.iter().filter(|(_, r)| r.is_err()).count() as u64;
        if errors > 0 {
            m.query_errors.add(errors);
        }
        Ok(out)
    }
}
