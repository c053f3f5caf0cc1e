//! A blocking client-connection pool with reconnect-and-backoff.
//!
//! One [`ClientPool`] fronts one remote endpoint (in the sharded service
//! tier: one shard node) and only checks connections out: a caller takes
//! one ([`ClientPool::get`], or [`ClientPool::fresh`] for a new dial),
//! drives it with [`Client::send_with`] / [`Client::recv`], and returns it
//! on drop; a connection that saw a transport error is discarded instead,
//! so one broken socket never poisons later exchanges. A caller about to
//! write a request it may not send again asks for a probe: the pooled
//! connection is peeked without blocking, and one the peer closed — it
//! restarted, or reaped the connection as idle — or that holds bytes
//! nobody asked for is dropped before the request is written to it. A
//! request that may be repeated skips the probe: its caller sends it once
//! more on a fresh dial if the exchange fails. When no pooled connection
//! is usable the pool dials the endpoint, retrying with exponential
//! backoff up to [`PoolConfig::connect_attempts`] before reporting the
//! endpoint down. It keeps as many idle connections as were ever checked
//! out at once (never fewer than [`IDLE_FLOOR`]), so concurrent callers
//! reuse their sockets; the peer's idle reaping retires what falls out of
//! use.
//!
//! The pool sends no request, so it decides neither retry nor probe:
//! whether a failed exchange is safe to repeat depends on the request
//! (statistical queries are idempotent, inserts are not — see
//! [`Request::is_mutation`](crate::messages::Request::is_mutation)), and
//! that rule lives with the caller that sends it.

use crate::transport::{Client, ClientError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use timecrypt_obs::counters::POOL_PROBES;

/// Idle connections a pool always retains; more once more than this were
/// checked out at once (up to that high-water mark). Checked-out
/// connections are unbounded — the caller's thread count governs.
pub const IDLE_FLOOR: usize = 4;

/// Tuning knobs for a [`ClientPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Dial attempts per checkout before the endpoint counts as down.
    pub connect_attempts: u32,
    /// Backoff before the second dial attempt; doubles per attempt.
    pub backoff: Duration,
    /// Per-operation socket deadline armed on every checked-out
    /// connection. A send or receive that stalls this long fails with a
    /// timeout ([`FrameError::is_timeout`](crate::frame::FrameError::is_timeout))
    /// instead of hanging the calling thread; the connection is then
    /// discarded.
    pub io_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            connect_attempts: 4,
            backoff: Duration::from_millis(2),
            io_timeout: Duration::from_secs(5),
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
    conns: Vec<Pooled>,
    /// Connections checked out now, and the most that ever were at once.
    out: usize,
    peak: usize,
}

/// An idle connection, and whether a caller capped its deadline
/// ([`PooledConn::cap_deadline`]) below the configured one.
struct Pooled {
    client: Client,
    capped: bool,
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
        let (mut backoff, io_timeout) = (cfg.backoff, Some(cfg.io_timeout));
        for _ in 1..cfg.connect_attempts.max(1) {
            if let Ok(c) = Client::connect_with(addr, io_timeout) {
                return Ok(c);
            }
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        Client::connect_with(addr, io_timeout)
    }

    /// Checks a connection out: a pooled one if one is usable, else a
    /// fresh dial (with backoff). With `probe` — the request written next
    /// may not be sent again — a pooled connection is probed first, and
    /// one the peer closed is dropped for a dial. The returned guard gives
    /// `&mut Client` access and returns the connection to the pool on drop
    /// unless [`PooledConn::discard`] was called.
    pub fn get(&self, probe: bool) -> Result<PooledConn, ClientError> {
        self.check_out(false, probe)
    }

    /// Dials a brand-new connection (with backoff), discarding every idle
    /// pooled connection first. Use after a transport failure: if the
    /// peer restarted, *all* pooled connections to it are stale.
    pub fn fresh(&self) -> Result<PooledConn, ClientError> {
        self.check_out(true, false)
    }

    fn check_out(&self, fresh: bool, probe: bool) -> Result<PooledConn, ClientError> {
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
            capped: false,
        };
        // Probe when asked, and re-arm the configured deadline on a
        // connection a caller capped to its remaining budget before
        // returning it: the next request must start from the full
        // per-operation allowance, not inherit that stale, nearly-expired
        // remainder. Every other connection still holds the configured
        // deadline, and is handed out without the two syscalls.
        let open = |p: &Pooled| {
            POOL_PROBES.inc();
            p.client.is_idle_and_open()
        };
        let usable = pooled.filter(|p| !probe || open(p)).and_then(|mut p| {
            let io_timeout = Some(self.shared.cfg.io_timeout);
            let armed = !p.capped || p.client.set_io_timeout(io_timeout).is_ok();
            armed.then_some(p.client)
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
    /// Whether [`cap_deadline`](Self::cap_deadline) tightened the deadline.
    capped: bool,
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
        if self.pool.cfg.io_timeout <= left {
            return Ok(());
        }
        self.capped = true;
        self.client().set_io_timeout(Some(left))
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
        if idle.conns.len() < IDLE_FLOOR.max(idle.peak) {
            let capped = self.capped;
            idle.conns
                .extend(client.map(|client| Pooled { client, capped }));
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

    /// One exchange on a connection checked out of `pool`, probed when
    /// `req` is a mutation, as a coordinator checks out.
    fn exchange(pool: &ClientPool, req: &Request) -> Result<Response, ClientError> {
        pool.get(req.is_mutation())?.client().call(req)
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
    fn idle_cap_is_the_high_water_mark_of_checkouts_above_the_floor() {
        let server = ping_server();
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        // One caller at a time never holds more than one connection, and
        // a pool that kept one over the floor is trimmed to it as they
        // cycle.
        let dead = (0..=IDLE_FLOOR).map(|_| dead_client());
        pool.shared.idle().conns.extend(dead);
        drop(pool.get(false).unwrap());
        assert_eq!(pool.shared.idle().conns.len(), IDLE_FLOOR);
        // Connections checked out at once beyond the floor are ones the
        // callers will want again: all are kept, and one more would not be.
        let peak = IDLE_FLOOR + 2;
        let conns: Vec<_> = (0..peak).map(|_| pool.get(false).unwrap()).collect();
        drop(conns);
        assert_eq!(pool.shared.idle().conns.len(), peak);
        pool.shared.idle().conns.push(dead_client());
        drop(pool.get(false).unwrap());
        assert_eq!(pool.shared.idle().conns.len(), peak);
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
    fn a_connection_the_peer_reaped_is_replaced_at_a_mutations_checkout_only() {
        let (addr, accepted) = counting_server(Some(Duration::from_millis(40)), Duration::ZERO);
        let pool = ClientPool::new(addr.to_string(), PoolConfig::default());
        let reaped = || {
            // The server closes the idle connection; the pool still holds it.
            std::thread::sleep(Duration::from_millis(120));
            assert_eq!(pool.shared.idle().conns.len(), 1);
        };
        assert_eq!(insert(&pool).unwrap(), Response::Pong);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
        reaped();
        // A write to the closed socket would succeed and the mutation,
        // never retried, would be lost with the missing reply.
        assert_eq!(insert(&pool).unwrap(), Response::Pong);
        assert_eq!(accepted.load(Ordering::SeqCst), 2, "dialed once more");
        // A read is not probed: its exchange fails on the closed socket,
        // and its caller sends it again on a fresh dial.
        reaped();
        assert!(exchange(&pool, &Request::Ping).is_err());
        assert_eq!(accepted.load(Ordering::SeqCst), 2, "not dialed");
    }

    #[test]
    fn concurrent_callers_beyond_the_idle_floor_keep_their_connections() {
        const CALLERS: usize = 12;
        // Rounds, as connection threads serving clients in step produce
        // them: every caller checks out only after all have returned, and
        // the server thinks long enough that all twelve are in flight
        // together.
        let (addr, accepted) = counting_server(None, Duration::from_millis(2));
        let pool = ClientPool::new(addr.to_string(), PoolConfig::default());
        const { assert!(CALLERS > IDLE_FLOOR) };
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
    fn dead_client() -> Pooled {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener);
        Pooled {
            client,
            capped: false,
        }
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
        match pool.get(false) {
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
            let mut conn = pool.get(false).unwrap();
            conn.cap_deadline(Duration::from_millis(1)).unwrap();
        }
        assert_eq!(pool.shared.idle().conns.len(), 1);
        // The next checkout must start from the configured 5 s allowance,
        // not the leftover 1 ms — the 60 ms reply then arrives in time.
        assert_eq!(exchange(&pool, &Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn checkout_rearms_only_a_connection_whose_deadline_was_capped() {
        let server = ping_server();
        let pool = ClientPool::new(server.addr().to_string(), PoolConfig::default());
        let armed = Some(PoolConfig::default().io_timeout);
        // A deadline set behind the pool's back marks a connection the
        // checkout did not re-arm: it is handed out as it was returned.
        let marked = Some(Duration::from_secs(7));
        pool.get(false)
            .unwrap()
            .client()
            .set_io_timeout(marked)
            .unwrap();
        let mut conn = pool.get(false).unwrap();
        assert_eq!(conn.client().io_timeout(), marked, "no re-arm");
        // A capped one is re-armed at its next checkout, and only that one.
        conn.cap_deadline(Duration::from_millis(3)).unwrap();
        drop(conn);
        let mut conn = pool.get(false).unwrap();
        assert_eq!(conn.client().io_timeout(), armed, "re-armed");
        conn.client().set_io_timeout(marked).unwrap();
        drop(conn);
        assert_eq!(pool.get(false).unwrap().client().io_timeout(), marked);
        assert_eq!(
            pool.shared.idle().conns.len(),
            1,
            "one connection throughout"
        );
    }
}
