//! A blocking client-connection pool with reconnect-and-backoff.
//!
//! One [`ClientPool`] fronts one remote endpoint (in the sharded service
//! tier: one shard node). Callers check a connection out, drive it with
//! [`Client::call`] or the pipelined [`Client::send`]/[`Client::recv`]
//! pair, and return it on drop; a connection that saw a transport error is
//! discarded instead of returned, so one broken socket never poisons later
//! calls. When no pooled connection is available the pool dials the
//! endpoint, retrying with exponential backoff up to
//! [`PoolConfig::connect_attempts`] before reporting the endpoint down.
//!
//! The pool deliberately does **not** retry requests: whether a failed
//! exchange is safe to repeat depends on the request (statistical queries
//! are idempotent, inserts are not — see
//! [`Request::is_mutation`](crate::messages::Request::is_mutation)), so
//! retry policy belongs to the caller.

use crate::messages::Request;
use crate::transport::{Client, ClientError};
use std::sync::Mutex;
use std::time::Duration;

/// Tuning knobs for a [`ClientPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum idle connections retained (checked-out connections are
    /// unbounded — concurrency is governed by the caller's thread count).
    pub max_idle: usize,
    /// Dial attempts per checkout before the endpoint counts as down.
    pub connect_attempts: u32,
    /// Backoff before the second dial attempt; doubles per attempt.
    pub backoff: Duration,
    /// Per-operation socket deadline armed on every checked-out
    /// connection. A send or receive that stalls this long fails with a
    /// timeout ([`FrameError::is_timeout`](crate::frame::FrameError::is_timeout))
    /// instead of hanging the calling thread; the connection is then
    /// discarded. `None` waits forever (the pre-deadline behaviour).
    pub io_timeout: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle: 4,
            connect_attempts: 4,
            backoff: Duration::from_millis(2),
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// A pool of blocking [`Client`] connections to one endpoint.
pub struct ClientPool {
    addr: String,
    cfg: PoolConfig,
    idle: Mutex<Vec<Client>>,
}

impl ClientPool {
    /// A pool dialing `addr` (`host:port`).
    pub fn new(addr: impl Into<String>, cfg: PoolConfig) -> Self {
        ClientPool {
            addr: addr.into(),
            cfg,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The endpoint this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Dials the endpoint, backing off exponentially between attempts.
    fn connect(&self) -> Result<Client, ClientError> {
        let mut backoff = self.cfg.backoff;
        let mut last_err = match Client::connect_with(&self.addr, self.cfg.io_timeout) {
            Ok(c) => return Ok(c),
            Err(e) => e,
        };
        for _ in 1..self.cfg.connect_attempts.max(1) {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
            match Client::connect_with(&self.addr, self.cfg.io_timeout) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Checks a connection out: a pooled one if available, else a fresh
    /// dial (with backoff). The returned guard gives `&mut Client` access
    /// and returns the connection to the pool on drop unless
    /// [`PooledConn::discard`] was called.
    pub fn get(&self) -> Result<PooledConn<'_>, ClientError> {
        // A poisoning panic can only leave the idle vec mid-push/pop,
        // both of which keep it valid — recover rather than propagate.
        let pooled = self
            .idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let mut client = match pooled {
            Some(c) => c,
            None => self.connect()?,
        };
        // Re-arm the configured deadline on every checkout. A caller may
        // have tightened this connection's deadline to its remaining
        // budget before returning it; the next request must start from
        // the full per-operation allowance, not inherit that stale,
        // nearly-expired remainder.
        if client.set_io_timeout(self.cfg.io_timeout).is_err() {
            client = self.connect()?;
        }
        Ok(PooledConn {
            pool: self,
            client: Some(client),
        })
    }

    /// Dials a brand-new connection (with backoff), discarding every idle
    /// pooled connection first. Use after a transport failure: if the
    /// peer restarted, *all* pooled connections to it are stale.
    pub fn fresh(&self) -> Result<PooledConn<'_>, ClientError> {
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        Ok(PooledConn {
            pool: self,
            client: Some(self.connect()?),
        })
    }

    /// One request/response exchange on a pooled connection. Pooled
    /// connections commonly go stale when the peer restarts, so a
    /// transport failure is retried once on a freshly dialed connection —
    /// but only for non-mutating requests, where a peer that secretly
    /// processed the lost exchange changes nothing.
    pub fn call(&self, req: &Request) -> Result<crate::messages::Response, ClientError> {
        self.call_traced(None, req)
    }

    /// [`call`](Self::call) with an optional trace-context envelope on
    /// the request (`None` is byte-identical to `call`). The retry on a
    /// stale connection re-sends with the same context.
    pub fn call_traced(
        &self,
        ctx: Option<timecrypt_obs::TraceContext>,
        req: &Request,
    ) -> Result<crate::messages::Response, ClientError> {
        let exchange = |client: &mut Client| -> Result<crate::messages::Response, ClientError> {
            client.send_traced(ctx, req)?;
            match client.recv()? {
                crate::messages::Response::Error(msg) => Err(ClientError::Server(msg)),
                resp => Ok(resp),
            }
        };
        let mut conn = self.get()?;
        match exchange(conn.client()) {
            Err(ClientError::Frame(_)) if !req.is_mutation() => {
                conn.discard();
                let mut fresh = self.fresh()?;
                let out = exchange(fresh.client());
                if out.is_err() {
                    fresh.discard();
                }
                out
            }
            Err(e) => {
                // Mutation or app error: app errors leave the connection
                // healthy; transport errors poison it.
                if matches!(e, ClientError::Frame(_)) {
                    conn.discard();
                }
                Err(e)
            }
            Ok(resp) => Ok(resp),
        }
    }

    /// One exchange whose request body is written by `fill` directly into
    /// the connection's scratch buffer ([`Client::send_with`]) — the
    /// zero-copy path for bodies assembled from parts, e.g. a
    /// [`BatchEncoder`](crate::messages::BatchEncoder) over serialized
    /// chunks. No stale-connection retry is attempted: the primary user is
    /// batched ingest, a mutation (see the module docs on retry policy).
    /// An app-level `Response::Error` surfaces as [`ClientError::Server`],
    /// matching [`call`](Self::call).
    // lint: deny(alloc)
    pub fn call_with(
        &self,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<crate::messages::Response, ClientError> {
        let mut conn = self.get()?;
        let client = conn.client();
        let result = client.send_with(fill).and_then(|()| client.recv());
        match result {
            Ok(crate::messages::Response::Error(msg)) => Err(ClientError::Server(msg)),
            Ok(resp) => Ok(resp),
            Err(e) => {
                if matches!(e, ClientError::Frame(_)) {
                    conn.discard();
                }
                Err(e)
            }
        }
    }

    fn put_back(&self, client: Client) {
        let mut idle = self
            .idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if idle.len() < self.cfg.max_idle {
            idle.push(client);
        }
    }
}

/// A checked-out pool connection; returns to the pool on drop.
pub struct PooledConn<'a> {
    pool: &'a ClientPool,
    client: Option<Client>,
}

impl PooledConn<'_> {
    /// The underlying connection.
    #[allow(
        clippy::expect_used,
        reason = "`client` is `Some` from construction until drop; `discard` consumes the guard, so no caller can observe `None`"
    )]
    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connection present until drop")
    }

    /// Drops the connection instead of returning it to the pool (call
    /// after any transport-level failure). Consumes the guard: a
    /// discarded connection cannot be touched again.
    pub fn discard(mut self) {
        self.client = None;
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.client.take() {
            self.pool.put_back(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Request, Response};
    use crate::transport::Server;
    use std::sync::Arc;

    fn ping_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| match req {
                Request::Ping => Response::Pong,
                Request::Insert { chunk } => Response::Chunks(vec![chunk]),
                _ => Response::Error("unhandled".into()),
            }),
        )
        .unwrap()
    }

    #[test]
    fn connections_are_reused() {
        let server = ping_server();
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        for _ in 0..10 {
            assert_eq!(pool.call(&Request::Ping).unwrap(), Response::Pong);
        }
        assert_eq!(
            pool.idle.lock().unwrap().len(),
            1,
            "sequential calls share one pooled connection"
        );
    }

    #[test]
    fn idle_cap_is_enforced() {
        let server = ping_server();
        let pool = ClientPool::new(
            server.addr().to_string(),
            PoolConfig {
                max_idle: 2,
                ..PoolConfig::default()
            },
        );
        // Four concurrently checked-out connections...
        let conns: Vec<_> = (0..4).map(|_| pool.get().unwrap()).collect();
        drop(conns);
        // ...but only two retained.
        assert_eq!(pool.idle.lock().unwrap().len(), 2);
    }

    /// A connection whose peer is already gone: it dialed a listener that
    /// was dropped before accepting, so the first exchange on it fails.
    fn dead_client() -> Client {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener);
        client
    }

    #[test]
    fn stale_pooled_connection_recovers_for_reads() {
        // A pooled connection went stale (peer restarted under it): the
        // exchange fails, and for a non-mutating request the pool retries
        // once on a freshly dialed connection to the healthy endpoint.
        let server = ping_server();
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        pool.idle.lock().unwrap().push(dead_client());
        assert_eq!(pool.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn down_endpoint_reports_transport_error() {
        let server = ping_server();
        let addr = server.addr();
        drop(server);
        let pool = ClientPool::new(
            addr.to_string(),
            PoolConfig {
                connect_attempts: 2,
                backoff: Duration::from_millis(1),
                ..PoolConfig::default()
            },
        );
        match pool.call(&Request::Ping) {
            Err(ClientError::Frame(_)) => {}
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    /// A server whose handler stalls `delay` before every reply.
    fn slow_server(delay: Duration) -> Server {
        Server::bind(
            "127.0.0.1:0",
            Arc::new(move |req: Request| {
                std::thread::sleep(delay);
                match req {
                    Request::Ping => Response::Pong,
                    _ => Response::Error("unhandled".into()),
                }
            }),
        )
        .unwrap()
    }

    #[test]
    fn io_timeout_fails_fast_against_hung_peer() {
        let server = slow_server(Duration::from_millis(400));
        let pool = ClientPool::new(
            server.addr().to_string(),
            PoolConfig {
                io_timeout: Some(Duration::from_millis(30)),
                ..PoolConfig::default()
            },
        );
        let start = std::time::Instant::now();
        // Ping is non-mutating, so the pool retries once on a fresh
        // connection — which also times out. Two timeouts, then the error
        // surfaces; well under the 400 ms the handler would make us wait.
        match pool.call(&Request::Ping) {
            Err(ClientError::Frame(e)) => assert!(e.is_timeout(), "got {e:?}"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_millis(350));
        // Timed-out connections must not be returned to the pool: their
        // reply is still in flight and would answer the wrong request.
        assert_eq!(pool.idle.lock().unwrap().len(), 0);
    }

    #[test]
    fn checkout_rearms_full_deadline_on_pooled_connections() {
        let server = slow_server(Duration::from_millis(60));
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        // Simulate a caller that tightened the connection's deadline to
        // its (nearly spent) remaining budget before returning it.
        {
            let mut conn = pool.get().unwrap();
            conn.client()
                .set_io_timeout(Some(Duration::from_millis(1)))
                .unwrap();
        }
        assert_eq!(pool.idle.lock().unwrap().len(), 1);
        // The next checkout must start from the configured 5 s allowance,
        // not the leftover 1 ms — the 60 ms reply then arrives in time.
        assert_eq!(pool.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn mutations_are_not_retried_on_stale_connections() {
        // Same stale-connection setup, but with a mutation: the failure
        // must surface instead of being silently retried (the lost
        // exchange might have been applied by the peer).
        let server = ping_server();
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        pool.idle.lock().unwrap().push(dead_client());
        let req = Request::Insert { chunk: vec![1] };
        assert!(req.is_mutation());
        match pool.call(&req) {
            Err(ClientError::Frame(_)) => {}
            other => panic!("mutation on a dead socket must fail, got {other:?}"),
        }
        // The endpoint itself is healthy: the next call dials fresh.
        assert_eq!(pool.call(&Request::Ping).unwrap(), Response::Pong);
    }
}
