//! A blocking client-connection pool with reconnect-and-backoff.
//!
//! One [`ClientPool`] fronts one remote endpoint (in the sharded service
//! tier: one shard node) and only checks connections out: a caller takes
//! one ([`ClientPool::get`], or [`ClientPool::fresh`] for a new dial),
//! drives it with [`Client::send_with`] / [`Client::recv`], and returns it
//! on drop; a connection that saw a transport error is discarded instead,
//! so one broken socket never poisons later exchanges. A pooled connection
//! that sat idle for [`PROBE_IDLE`] is probed at checkout (a non-blocking
//! peek): one the peer closed meanwhile — a node reaps idle connections —
//! or that holds bytes nobody asked for is dropped before a request is
//! written to it, so the first mutation after a quiet spell is not spent
//! on a dead socket. When no pooled connection is usable the pool dials
//! the endpoint, retrying with exponential backoff up to
//! [`PoolConfig::connect_attempts`] before reporting the endpoint down.
//! It keeps as many idle connections as were ever checked out at once
//! (never fewer than [`PoolConfig::max_idle`]), so concurrent callers reuse
//! their sockets; the peer's idle reaping retires what falls out of use.
//!
//! The pool sends no request, so it retries none: whether a failed
//! exchange is safe to repeat depends on the request (statistical queries
//! are idempotent, inserts are not — see
//! [`Request::is_mutation`](crate::messages::Request::is_mutation)), and
//! that rule lives with the caller that sends it.

use crate::transport::{Client, ClientError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a pooled connection sits idle before a checkout probes it.
/// One used a moment ago was not reaped, and probing every checkout cost
/// a loaded coordinator several percent of its read throughput.
pub const PROBE_IDLE: Duration = Duration::from_millis(10);

/// Tuning knobs for a [`ClientPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Idle connections always retained; more once more than this were
    /// checked out at once (up to that high-water mark). Checked-out
    /// connections are unbounded — the caller's thread count governs.
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

/// A pool of blocking [`Client`] connections to one endpoint; clones share it.
#[derive(Clone)]
pub struct ClientPool {
    /// Shared with every checked-out [`PooledConn`].
    shared: Arc<Shared>,
}

struct Shared {
    addr: String,
    cfg: PoolConfig,
    idle: Mutex<Idle>,
}

#[derive(Default)]
struct Idle {
    /// Each with when it was returned.
    conns: Vec<(Client, Instant)>,
    /// Connections checked out now, and the most that ever were at once.
    out: usize,
    peak: usize,
}

impl Shared {
    fn idle(&self) -> MutexGuard<'_, Idle> {
        // A poisoning panic can only leave the idle list mid-push/pop,
        // both of which keep it valid — recover rather than propagate.
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl ClientPool {
    /// A pool dialing `addr` (`host:port`).
    pub fn new(addr: impl Into<String>, cfg: PoolConfig) -> Self {
        ClientPool {
            shared: Arc::new(Shared {
                addr: addr.into(),
                cfg,
                idle: Mutex::default(),
            }),
        }
    }

    /// The endpoint this pool dials.
    pub fn addr(&self) -> &str {
        &self.shared.addr
    }

    /// Dials the endpoint, backing off exponentially between attempts.
    fn connect(&self) -> Result<Client, ClientError> {
        let Shared { addr, cfg, .. } = &*self.shared;
        let mut backoff = cfg.backoff;
        let mut last_err = match Client::connect_with(addr, cfg.io_timeout) {
            Ok(c) => return Ok(c),
            Err(e) => e,
        };
        for _ in 1..cfg.connect_attempts.max(1) {
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
            match Client::connect_with(addr, cfg.io_timeout) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Checks a connection out: a pooled one if one is usable, else a
    /// fresh dial (with backoff). The returned guard gives `&mut Client`
    /// access and returns the connection to the pool on drop unless
    /// [`PooledConn::discard`] was called.
    pub fn get(&self) -> Result<PooledConn, ClientError> {
        self.check_out(false)
    }

    /// Dials a brand-new connection (with backoff), discarding every idle
    /// pooled connection first. Use after a transport failure: if the
    /// peer restarted, *all* pooled connections to it are stale.
    pub fn fresh(&self) -> Result<PooledConn, ClientError> {
        self.check_out(true)
    }

    fn check_out(&self, fresh: bool) -> Result<PooledConn, ClientError> {
        let pooled = {
            let mut idle = self.shared.idle();
            idle.out += 1;
            idle.peak = idle.peak.max(idle.out);
            if fresh {
                idle.conns.clear();
            }
            idle.conns.pop()
        };
        // From here the guard's drop gives the checkout back, dialed or not.
        let mut conn = PooledConn {
            pool: self.shared.clone(),
            client: None,
        };
        // Probe a connection that sat idle, and re-arm the configured
        // deadline on every checkout: a caller may have tightened this
        // connection's deadline to its remaining budget before returning
        // it; the next request must start from the full per-operation
        // allowance, not inherit that stale, nearly-expired remainder.
        let usable = pooled
            .filter(|(c, since)| since.elapsed() < PROBE_IDLE || c.is_idle_and_open())
            .and_then(|(mut c, _)| {
                c.set_io_timeout(self.shared.cfg.io_timeout)
                    .ok()
                    .map(|()| c)
            });
        conn.client = Some(match usable {
            Some(c) => c,
            None => self.connect()?,
        });
        Ok(conn)
    }
}

/// A checked-out pool connection; returns to the pool on drop. Borrows
/// nothing, so an exchange begun on it can be kept and finished later.
pub struct PooledConn {
    pool: Arc<Shared>,
    client: Option<Client>,
}

impl PooledConn {
    /// The underlying connection.
    #[allow(
        clippy::expect_used,
        reason = "`client` is `Some` from construction until drop; `discard` consumes the guard, so no caller can observe `None`"
    )]
    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connection present until drop")
    }

    /// Caps the deadline the checkout armed at `left`, a caller's remaining
    /// budget (zero: the transport's 1 ms minimum — what has arrived is read).
    pub fn cap_deadline(&mut self, left: Duration) -> Result<(), ClientError> {
        match self.pool.cfg.io_timeout {
            Some(armed) if armed <= left => Ok(()),
            _ => self.client().set_io_timeout(Some(left)),
        }
    }

    /// Drops the connection instead of returning it to the pool (call
    /// after any transport-level failure). Consumes the guard: a
    /// discarded connection cannot be touched again.
    pub fn discard(mut self) {
        self.client = None;
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        // Declared before the guard, so a connection that is not kept
        // closes after the lock is released.
        let client = self.client.take();
        let mut idle = self.pool.idle();
        idle.out -= 1;
        if idle.conns.len() < self.pool.cfg.max_idle.max(idle.peak) {
            idle.conns.extend(client.map(|c| (c, Instant::now())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Request, Response};
    use crate::transport::Server;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// One exchange on a connection checked out of `pool`.
    fn exchange(pool: &ClientPool, req: &Request) -> Result<Response, ClientError> {
        pool.get()?.client().call(req)
    }

    #[test]
    fn connections_are_reused() {
        let server = ping_server();
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        for _ in 0..10 {
            assert_eq!(exchange(&pool, &Request::Ping).unwrap(), Response::Pong);
        }
        assert_eq!(
            pool.shared.idle().conns.len(),
            1,
            "sequential calls share one pooled connection"
        );
    }

    #[test]
    fn idle_cap_is_the_high_water_mark_of_checkouts_with_max_idle_as_floor() {
        let server = ping_server();
        let pool = ClientPool::new(
            server.addr().to_string(),
            PoolConfig {
                max_idle: 2,
                ..PoolConfig::default()
            },
        );
        // One caller at a time never holds more than one connection, and
        // a pool that kept three is trimmed to the floor as they cycle.
        pool.shared
            .idle()
            .conns
            .extend([dead_client(), dead_client()]);
        drop(pool.get().unwrap());
        assert_eq!(pool.shared.idle().conns.len(), 2);
        // Four connections checked out at once are four the callers will
        // want again: all are kept, and a fifth would not be.
        let conns: Vec<_> = (0..4).map(|_| pool.get().unwrap()).collect();
        drop(conns);
        assert_eq!(pool.shared.idle().conns.len(), 4);
        pool.shared.idle().conns.push(dead_client());
        drop(pool.get().unwrap());
        assert_eq!(pool.shared.idle().conns.len(), 4);
    }

    /// A server that answers every frame with `Pong` after `think`, counts
    /// the connections it accepts and, with `idle`, closes one that has
    /// sent nothing for that long — what `timecrypt-node --idle-timeout-ms`
    /// does.
    fn counting_server(
        idle: Option<Duration>,
        think: Duration,
    ) -> (std::net::SocketAddr, Arc<AtomicUsize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = accepted.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                count.fetch_add(1, Ordering::SeqCst);
                stream.set_read_timeout(idle).unwrap();
                std::thread::spawn(move || {
                    let mut pong = Vec::new();
                    Response::Pong.encode_into(&mut pong);
                    while crate::frame::read_frame(&mut stream).is_ok() {
                        std::thread::sleep(think);
                        if crate::frame::write_frame(&mut stream, &pong).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    /// One mutation: a write its caller will not retry.
    fn insert(pool: &ClientPool) -> Result<Response, ClientError> {
        exchange(pool, &Request::Insert { chunk: vec![1] })
    }

    #[test]
    fn a_connection_the_peer_reaped_is_replaced_at_checkout_even_for_a_mutation() {
        let (addr, accepted) = counting_server(Some(Duration::from_millis(40)), Duration::ZERO);
        let pool = ClientPool::new(addr.to_string(), PoolConfig::default());
        assert_eq!(insert(&pool).unwrap(), Response::Pong);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
        // The server closes the idle connection; the pool still holds it.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(pool.shared.idle().conns.len(), 1);
        // A write to the closed socket would succeed and the mutation,
        // never retried, would be lost with the missing reply.
        assert_eq!(insert(&pool).unwrap(), Response::Pong);
        assert_eq!(accepted.load(Ordering::SeqCst), 2, "dialed once more");
    }

    #[test]
    fn concurrent_callers_beyond_max_idle_keep_their_connections() {
        const CALLERS: usize = 12;
        // Rounds, as connection threads serving clients in step produce
        // them: every caller checks out only after all have returned, and
        // the server thinks long enough that all twelve are in flight
        // together.
        let (addr, accepted) = counting_server(None, Duration::from_millis(2));
        let pool = ClientPool::new(addr.to_string(), PoolConfig::default());
        assert!(CALLERS > pool.shared.cfg.max_idle);
        let round = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    for _ in 0..50 {
                        round.wait();
                        assert_eq!(insert(&pool).unwrap(), Response::Pong);
                    }
                });
            }
        });
        let accepted = accepted.load(Ordering::SeqCst);
        assert!(
            accepted <= CALLERS + 2,
            "{accepted} connections for {CALLERS} callers x 50 exchanges"
        );
    }

    /// A just-returned connection whose peer is already gone: it dialed a
    /// listener that was dropped before accepting, so the first exchange
    /// on it fails.
    fn dead_client() -> (Client, Instant) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener);
        (client, Instant::now())
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
        match pool.get() {
            Err(ClientError::Frame(_)) => {}
            Err(other) => panic!("expected transport error, got {other:?}"),
            Ok(_) => panic!("checked out a connection to a down endpoint"),
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
    fn checkout_rearms_full_deadline_on_pooled_connections() {
        let server = slow_server(Duration::from_millis(60));
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        // Simulate a caller that tightened the connection's deadline to
        // its (nearly spent) remaining budget before returning it.
        {
            let mut conn = pool.get().unwrap();
            conn.cap_deadline(Duration::from_millis(1)).unwrap();
        }
        assert_eq!(pool.shared.idle().conns.len(), 1);
        // The next checkout must start from the configured 5 s allowance,
        // not the leftover 1 ms — the 60 ms reply then arrives in time.
        assert_eq!(exchange(&pool, &Request::Ping).unwrap(), Response::Pong);
    }
}
