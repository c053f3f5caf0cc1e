//! The backend for a shard hosted by a `timecrypt-node` process.

use super::{
    Leg, LegResults, Pending, PendingBatch, ShardBackend, StreamStatResult, Verdicts, DEADLINE,
    UNREACHABLE,
};
use crate::metrics::{ServiceMetrics, ShardOccupancy};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt_obs::{trace, TraceContext};
use timecrypt_server::ServerError;
use timecrypt_wire::messages::{Request, Response};
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

    /// Pipelines the whole leg on one pooled connection: a first window of
    /// sub-queries is sent here, before any response is read, so the leg
    /// pays one round trip, not one per stream, and the caller puts other
    /// shards' legs on the wire before it reads this one's replies. Streams
    /// whose window is empty need their digest width (the merge fold tells
    /// empty from width), which the `Stat` reply cannot carry — a second
    /// pipelined round of `StreamInfo` probes resolves those.
    fn begin_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
        deadline: Instant,
    ) -> Result<Pending<LegResults>, ServerError> {
        let span = trace::stage("backend.exchange");
        let mut leg = StatLeg {
            pool: self.pool.clone(),
            metrics: self.metrics.clone(),
            shard: self.shard,
            legs: legs.to_vec(),
            window: (ts_s, ts_e),
            deadline,
            conn: ReplyOwed(None),
            ctx: None,
            timing: Vec::with_capacity(legs.len()),
        };
        let begun = leg.attempt(false);
        Ok(Box::new(move || {
            let _span = span;
            let done = begun.and_then(|()| leg.drain());
            if done.is_ok() || leg.left().is_none() {
                return done;
            }
            // The pooled connection was likely stale (node restarted
            // underneath it); sub-queries are idempotent, so retry the
            // whole leg once on a freshly dialed connection.
            leg.attempt(true).and_then(|()| leg.drain())
        }))
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
            let reply = owed.conn()?.client().recv().map_err(|_| UNREACHABLE)?;
            // Read: the connection goes back to the pool.
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

impl ReplyOwed {
    fn conn(&mut self) -> Result<&mut PooledConn, ServerError> {
        self.0.as_mut().ok_or(UNREACHABLE)
    }
}

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

/// One scatter-gather leg, as the pending half of
/// [`RemoteShard::begin_leg`] holds it: the leg, owned, and the attempt at
/// it in flight on one connection (pooled or fresh). Metrics are published
/// only when an attempt completes: a discarded one (stale connection,
/// mid-leg failure) must not skew the per-sub-query counter/histogram
/// invariant when the leg is retried or failed over.
struct StatLeg {
    pool: ClientPool,
    metrics: Arc<ServiceMetrics>,
    shard: usize,
    legs: Vec<(usize, u128)>,
    window: (i64, i64),
    /// When the query's budget runs out.
    deadline: Instant,
    /// The attempt's connection: the replies are owed on it.
    conn: ReplyOwed,
    ctx: Option<TraceContext>,
    /// When each sub-query sent was sent, and how long its reply took:
    /// response i answers request i (FIFO), and timing only the recv wait
    /// would credit every reply behind the first with ~0 µs.
    timing: Vec<(Instant, Duration)>,
}

impl StatLeg {
    /// What is left of the budget, if anything is.
    fn left(&self) -> Option<Duration> {
        let left = self.deadline.checked_duration_since(Instant::now());
        left.filter(|left| !left.is_zero())
    }

    /// Begins an attempt: checks a connection out (pooled, or freshly
    /// dialed with the idle ones dropped) and writes the first window.
    fn attempt(&mut self, fresh: bool) -> Result<(), ServerError> {
        self.left().ok_or(DEADLINE)?;
        let pool = &self.pool;
        let conn = if fresh { pool.fresh() } else { pool.get() };
        self.conn = ReplyOwed(Some(conn.map_err(|_| UNREACHABLE)?));
        self.ctx = trace_ctx();
        self.timing.clear();
        self.top_up(0)
    }

    fn send(&mut self, req: &Request) -> Result<(), ServerError> {
        let sent = self.conn.conn()?.client().send_traced(self.ctx, req);
        sent.map_err(|_| UNREACHABLE)
    }

    /// The next reply, waited for `min(io_timeout, what is left of the
    /// budget)`. With the budget spent — by another shard's leg, maybe —
    /// that is the transport's minimum: a reply that arrived in time is
    /// read; one that did not is a socket timeout (the transport counts it).
    fn recv(&mut self) -> Result<Response, ServerError> {
        let left = self.left().unwrap_or_default();
        let conn = self.conn.conn()?;
        conn.cap_deadline(left).map_err(|_| UNREACHABLE)?;
        let reply = conn.client().recv();
        reply.map_err(|e| match e {
            ClientError::Frame(e) if e.is_timeout() && self.left().is_none() => DEADLINE,
            _ => UNREACHABLE,
        })
    }

    /// Tops the window up, `answered` sub-queries having been answered.
    fn top_up(&mut self, answered: usize) -> Result<(), ServerError> {
        while self.timing.len() < self.legs.len() && self.timing.len() - answered < PIPELINE_WINDOW
        {
            let (_, sid) = self.legs[self.timing.len()];
            self.timing.push((Instant::now(), Duration::ZERO));
            let (ts_s, ts_e) = self.window;
            let streams = vec![sid];
            self.send(&Request::GetStatRange {
                streams,
                ts_s,
                ts_e,
            })?;
        }
        Ok(())
    }

    /// Reads the attempt's replies, topping the window up as they come;
    /// then the width-probe round.
    fn drain(&mut self) -> Result<LegResults, ServerError> {
        let mut out: LegResults = Vec::with_capacity(self.legs.len());
        // Positions (into `out`) that need a follow-up width probe.
        let mut width_probes: Vec<usize> = Vec::new();
        while out.len() < self.legs.len() {
            self.top_up(out.len())?;
            let resp = self.recv()?;
            let sent = &mut self.timing[out.len()];
            sent.1 = sent.0.elapsed();
            // Responses arrive in send order: this one answers `legs[out.len()]`.
            let (pos, _) = self.legs[out.len()];
            let result: StreamStatResult = match resp {
                Response::Stat(s) => match (s.parts.as_slice(), s.agg) {
                    ([(_, lo, hi)], agg) => Ok((agg.len() as u32, Some((*lo, *hi, agg)))),
                    _ => Err(ServerError::Unavailable("malformed remote stat reply")),
                },
                // The node renders a per-stream empty window as this exact
                // string (both sides run the same code); it is the one
                // app-level "error" that is *not* an error to the merge fold.
                Response::Error(msg) if msg == ServerError::EmptyRange.to_string() => {
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
        let (mut probes_sent, mut probes_done) = (0usize, 0usize);
        while probes_done < width_probes.len() {
            while probes_sent < width_probes.len() && probes_sent - probes_done < PIPELINE_WINDOW {
                // `out[i]` was produced from `legs[i]` (pushed in leg order).
                let (_, stream) = self.legs[width_probes[probes_sent]];
                self.send(&Request::StreamInfo { stream })?;
                probes_sent += 1;
            }
            out[width_probes[probes_done]].1 = match self.recv()? {
                Response::Info(info) => Ok((info.digest_width, None)),
                Response::Error(msg) => Err(ServerError::Remote(msg)),
                _ => Err(ServerError::Unavailable("unexpected remote info reply")),
            };
            probes_done += 1;
        }
        drop(self.conn.0.take());
        // Attempt completed — publish its metrics: one latency sample and
        // one `queries` tick per sub-query (histogram total == counter).
        let m = self.metrics.shard(self.shard);
        for &(_, took) in &self.timing {
            m.query_latency.record(took);
        }
        m.queries.add(self.legs.len() as u64);
        let errors = out.iter().filter(|(_, r)| r.is_err()).count() as u64;
        if errors > 0 {
            m.query_errors.add(errors);
        }
        Ok(out)
    }
}
