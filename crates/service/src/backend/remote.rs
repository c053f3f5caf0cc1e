//! The backend for a shard hosted by a `timecrypt-node` process.

use super::{Leg, Pending, ShardBackend, Verdicts, DEADLINE, UNREACHABLE};
use crate::metrics::ServiceMetrics;
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

    /// The one owned-request exchange: its frame is written here, its
    /// reply read by the returned step. A pooled connection may be stale
    /// (the node restarted under it), so a read whose exchange failed on a
    /// connection it got is sent once more, on a fresh dial, while its
    /// budget lasts; a mutation never is — the node may have applied it —
    /// and a failed dial is final: it already retried with backoff.
    fn exchange(
        &self,
        req: Request,
        deadline: Option<Instant>,
    ) -> impl FnOnce() -> Result<Response, ServerError> + use<> {
        let span = trace::stage("backend.exchange");
        let budget = move || deadline.is_none_or(|d| left(d).is_some());
        let pool = self.pool.clone();
        let checkout = move |fresh| {
            if !budget() {
                return Err(DEADLINE);
            }
            let conn = if fresh { pool.fresh() } else { pool.get() };
            conn.map_err(|_| UNREACHABLE)
        };
        let conn = checkout(false);
        let retry = conn.is_ok() && !req.is_mutation();
        let begun = conn.and_then(|conn| send_frame(conn, |buf| req.encode_into(buf)));
        move || {
            let _span = span;
            let reply = begun.and_then(|owed| owed.recv(deadline));
            match reply {
                Err(_) if retry && budget() => {
                    send_frame(checkout(true)?, |buf| req.encode_into(buf))?.recv(deadline)
                }
                reply => reply,
            }
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
    fn begin_call(&self, req: Request, deadline: Option<Instant>) -> Pending<Response> {
        Box::new(self.exchange(req, deadline))
    }

    /// One `GetStatLeg` exchange, so the caller puts other shards' legs on
    /// the wire before it reads this one's reply — the node's fold of the
    /// leg, one frame however many streams it has.
    fn begin_leg(&self, legs: &Leg, ts_s: i64, ts_e: i64, deadline: Instant) -> Pending<StatLeg> {
        let started = Instant::now();
        let streams = legs.iter().map(|&(_, sid)| sid).collect();
        let req = Request::GetStatLeg {
            streams,
            ts_s,
            ts_e,
        };
        let reply = self.exchange(req, Some(deadline));
        let (metrics, shard) = (self.metrics.clone(), self.shard);
        Box::new(move || {
            let leg = match reply()? {
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
        })
    }

    fn begin_batch(&self, chunks: &[&[u8]]) -> Pending<Verdicts> {
        let span = trace::stage("backend.exchange");
        let started = Instant::now();
        // Frame assembly is the one payload copy of this hop: each
        // chunk's bytes are appended as received, straight into the
        // connection's scratch buffer (no per-chunk `Vec<u8>`, no owned
        // `Request`), whose capacity is reused across exchanges on the
        // pooled connection.
        let conn = self.pool.get().map_err(|_| UNREACHABLE);
        let owed = conn.and_then(|conn| {
            send_frame(conn, |buf| {
                let mut enc = BatchEncoder::begin(buf);
                for c in chunks {
                    enc.append_with(c.len(), |out| out.extend_from_slice(c));
                }
                enc.finish();
            })
        });
        let (metrics, shard, chunks) = (self.metrics.clone(), self.shard, chunks.len());
        Box::new(move || {
            let _span = span;
            // Never retried: a reply that does not arrive leaves the
            // batch's fate unknown.
            let reply = owed?.recv(None)?;
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
        })
    }

    fn endpoint(&self) -> Option<&str> {
        Some(self.pool.addr())
    }
}

/// The first half of every split exchange: writes one request frame —
/// `fill` appends the body, behind the trace envelope when the caller is
/// traced — on `conn`, and returns the connection the reply is owed on.
fn send_frame(
    mut conn: PooledConn,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<ReplyOwed, ServerError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use timecrypt_obs::counters::TIMEOUTS;
    use timecrypt_wire::{read_frame, write_frame};

    /// A peer that counts the connections it accepts and serves each with
    /// `serve` on a thread of its own.
    fn peer(serve: fn(TcpStream)) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = accepted.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                count.fetch_add(1, Ordering::SeqCst);
                let stream = stream.unwrap();
                std::thread::spawn(move || serve(stream));
            }
        });
        (addr, accepted)
    }

    fn shard(addr: String, pool: PoolConfig) -> RemoteShard {
        RemoteShard::new(addr, pool, Arc::new(ServiceMetrics::new(1)), 0)
    }

    fn unreachable(reply: Result<Response, ServerError>) -> bool {
        reply.is_err_and(|e| e.to_string() == UNREACHABLE.to_string())
    }

    #[test]
    fn stale_pooled_connection_recovers_for_reads() {
        // The peer answers the first request on a connection and hangs up
        // on the second — as a node that restarted under a pooled
        // connection: the connection is open at checkout, the exchange on
        // it fails, and a read is sent once more on a freshly dialed one.
        static READ: AtomicUsize = AtomicUsize::new(0);
        let (addr, accepted) = peer(|mut stream| {
            let mut pong = Vec::new();
            Response::Pong.encode_into(&mut pong);
            if read_frame(&mut stream).is_ok() {
                READ.fetch_add(1, Ordering::SeqCst);
                let _ = write_frame(&mut stream, &pong);
            }
            if read_frame(&mut stream).is_ok() {
                READ.fetch_add(1, Ordering::SeqCst);
            }
        });
        let shard = shard(addr, PoolConfig::default());
        assert_eq!(shard.call(Request::Ping).unwrap(), Response::Pong);
        assert_eq!(shard.call(Request::Ping).unwrap(), Response::Pong);
        assert_eq!(accepted.load(Ordering::SeqCst), 2);
        assert_eq!(
            READ.load(Ordering::SeqCst),
            3,
            "the second read went out on the pooled connection, then again"
        );
    }

    #[test]
    fn a_failed_dial_is_not_sent_again() {
        // Nothing listens: each checkout dials twice, one backoff apart. A
        // read whose dial failed is not retried, so it costs one backoff.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr();
        let backoff = Duration::from_millis(250);
        let shard = shard(
            addr.unwrap().to_string(),
            PoolConfig {
                connect_attempts: 2,
                backoff,
                ..PoolConfig::default()
            },
        );
        let start = Instant::now();
        assert!(unreachable(shard.call(Request::Ping)));
        let waited = start.elapsed();
        assert!(waited >= backoff && waited < backoff * 2, "{waited:?}");
    }

    #[test]
    fn mutations_are_not_retried_when_the_exchange_fails() {
        // A peer that takes the request and hangs up without answering:
        // the connection was fine at checkout, the exchange fails in the
        // middle. A mutation must surface that instead of being silently
        // retried (the peer might have applied it); a read is retried once
        // on a fresh connection.
        let (addr, accepted) = peer(|mut stream| {
            let _ = read_frame(&mut stream);
        });
        let shard = shard(addr, PoolConfig::default());
        let req = Request::DeleteStream { stream: 1 };
        assert!(req.is_mutation());
        assert!(
            unreachable(shard.call(req)),
            "a mutation whose reply is lost must fail"
        );
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "sent once");
        assert!(unreachable(shard.call(Request::Ping)));
        assert_eq!(accepted.load(Ordering::SeqCst), 3, "a read is tried twice");
    }

    #[test]
    fn io_timeout_fails_fast_against_hung_peer() {
        let (addr, accepted) = peer(|mut stream| while read_frame(&mut stream).is_ok() {});
        let shard = shard(
            addr,
            PoolConfig {
                io_timeout: Some(Duration::from_millis(30)),
                ..PoolConfig::default()
            },
        );
        let (start, timeouts) = (Instant::now(), TIMEOUTS.get());
        // Ping is a read, so it is sent once more on a fresh connection —
        // which also times out. Two timeouts, then the error surfaces.
        assert!(unreachable(shard.call(Request::Ping)));
        assert!(start.elapsed() < Duration::from_millis(350));
        assert!(TIMEOUTS.get() >= timeouts + 2);
        assert_eq!(accepted.load(Ordering::SeqCst), 2);
        // Timed-out connections must not be returned to the pool: their
        // reply is still in flight and would answer the wrong request. The
        // next exchange dials twice again.
        assert!(unreachable(shard.call(Request::Ping)));
        assert_eq!(accepted.load(Ordering::SeqCst), 4);
    }
}
