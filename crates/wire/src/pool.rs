//! A blocking client-connection pool with reconnect-and-backoff, and the
//! one exchange a caller has with its endpoint.
//!
//! One [`ClientPool`] fronts one endpoint (in the sharded service tier:
//! one shard node). [`ClientPool::send`] checks a connection out and
//! writes a request's frame, behind the caller's trace envelope; the
//! [`Exchange`] it returns reads the reply ([`Exchange::recv`]), so a
//! caller can put frames to several endpoints on the wire before it
//! waits. The exchange keeps the round trip's rules:
//!
//! * A request that may not be sent twice ([`Request::is_mutation`], a
//!   [`Body::Batch`]) is never repeated, and goes out on a probed
//!   connection: one the peer closed (restarted, or reaped as idle) or
//!   that holds bytes nobody asked for is dropped for a dial.
//! * A read is not probed; one whose exchange failed on a connection it
//!   got is sent once more while its budget lasts, on a fresh dial (every
//!   idle connection dropped: if the peer restarted, all are stale). A
//!   failed dial is final: it retried with backoff.
//! * No wait is longer than `min(io_timeout, what is left of the budget)`;
//!   a spent budget leaves the transport's minimum, so a reply that
//!   arrived in time is read and one that did not is [`Failed::Deadline`].
//! * A connection goes back only with its reply read and the configured
//!   deadline re-armed; any other is discarded, lest it answer the next
//!   request with this one's reply.
//!
//! Dials back off exponentially, up to [`PoolConfig::connect_attempts`].
//! The pool keeps as many idle connections as were ever checked out at
//! once (never fewer than [`IDLE_FLOOR`]); the peer's idle reaping retires
//! what falls out of use.

use crate::messages::{BatchEncoder, Request, Response};
use crate::transport::{Client, ClientError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use timecrypt_obs::trace;

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
    /// Per-operation socket deadline armed on every pooled connection. A
    /// send or receive that stalls this long fails with a timeout instead
    /// of hanging the calling thread; the connection is then discarded.
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
    /// Shared with every checked-out connection.
    shared: Arc<Shared>,
}

struct Shared {
    addr: String,
    cfg: PoolConfig,
    idle: Mutex<Idle>,
}

#[derive(Default)]
struct Idle {
    /// Each with its reply read and the configured deadline armed.
    conns: Vec<Client>,
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

/// What an exchange writes.
pub enum Body<'a> {
    /// An owned request.
    Request(Request),
    /// An `InsertBatch` of these serialized chunks, framed straight from
    /// their bytes into the connection's buffer (no owned request, no
    /// per-chunk copy): a mutation.
    Batch(&'a [&'a [u8]]),
}

impl Body<'_> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Body::Request(req) => req.encode_into(out),
            Body::Batch(chunks) => {
                let mut enc = BatchEncoder::begin(out);
                for c in *chunks {
                    enc.append_with(c.len(), |out| out.extend_from_slice(c));
                }
                enc.finish();
            }
        }
    }
}

/// Why an exchange has no reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failed {
    /// The budget ran out: before a checkout, or with the reply still out.
    Deadline,
    /// No connection, or the one the request went out on failed.
    Unreachable,
}

/// Whether a budget that runs out at `deadline` (`None`: no budget) has
/// time left.
fn within(deadline: Option<Instant>) -> bool {
    deadline.is_none_or(|d| Instant::now() < d)
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

    /// Begins one exchange: checks a connection out — probed when `body`
    /// may not be sent twice — and writes its frame. The returned
    /// [`Exchange`] borrows nothing; it waits for no reply past
    /// `deadline` (`None`: each socket operation's `io_timeout` only).
    pub fn send(&self, body: Body<'_>, deadline: Option<Instant>) -> Exchange {
        let span = trace::stage("backend.exchange");
        let once = !matches!(&body, Body::Request(req) if !req.is_mutation());
        let conn = self.check_out(false, once, deadline);
        let resend = conn.is_ok() && !once;
        let sent = conn.and_then(|conn| conn.write(|out| body.encode_into(out)));
        Exchange {
            pool: self.clone(),
            deadline,
            resend: match body {
                Body::Request(req) if resend => Some(req),
                _ => None,
            },
            sent,
            _span: span,
        }
    }

    /// Checks a connection out, unless the budget is spent: a pooled one
    /// if one is usable — with `probe`, one the probe finds open and
    /// quiet — else a dial (with backoff). `fresh` drops every idle
    /// connection first.
    fn check_out(
        &self,
        fresh: bool,
        probe: bool,
        deadline: Option<Instant>,
    ) -> Result<PooledConn, Failed> {
        if !within(deadline) {
            return Err(Failed::Deadline);
        }
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
            reusable: false,
        };
        conn.client = Some(match pooled.filter(|c| !probe || c.is_idle_and_open()) {
            Some(c) => c,
            None => self.connect().map_err(|_| Failed::Unreachable)?,
        });
        Ok(conn)
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
}

/// One request's round trip, begun by [`ClientPool::send`]: its frame on
/// the wire (or why it is not), its reply still to be read.
pub struct Exchange {
    pool: ClientPool,
    deadline: Option<Instant>,
    /// The request, while a failed exchange may send it once more.
    resend: Option<Request>,
    /// The connection the reply is owed on, or why there is none.
    sent: Result<PooledConn, Failed>,
    _span: trace::Span,
}

impl Exchange {
    /// Reads the reply, and sends a read whose exchange failed once more
    /// on a fresh dial while the budget lasts (the module docs' rules).
    pub fn recv(self) -> Result<Response, Failed> {
        let deadline = self.deadline;
        match (self.sent.and_then(|conn| conn.read(deadline)), self.resend) {
            (Err(_), Some(req)) if within(deadline) => {
                let conn = self.pool.check_out(true, false, deadline)?;
                conn.write(|out| req.encode_into(out))?.read(deadline)
            }
            (reply, _) => reply,
        }
    }
}

/// A checked-out connection: back to the pool on drop once its reply is
/// read, discarded otherwise.
struct PooledConn {
    pool: Arc<Shared>,
    /// `Some` once dialed or taken from the pool.
    client: Option<Client>,
    /// Its reply is read and the configured deadline armed.
    reusable: bool,
}

impl PooledConn {
    /// Writes one request frame — `fill` appends the body — behind a child
    /// of the caller's trace context. A frame that failed half-written
    /// leaves the connection unusable: it is discarded.
    fn write(mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<Self, Failed> {
        let client = self.client.as_mut().ok_or(Failed::Unreachable)?;
        let ctx = trace::current().map(|c| c.child());
        client
            .send_with(ctx, fill)
            .map_err(|_| Failed::Unreachable)?;
        Ok(self)
    }

    /// Reads the reply, waiting `min(io_timeout, what is left of the
    /// budget)`. Only a capped deadline costs the two syscalls of a
    /// re-arm: the next request starts from the full allowance.
    fn read(mut self, deadline: Option<Instant>) -> Result<Response, Failed> {
        let io_timeout = self.pool.cfg.io_timeout;
        let client = self.client.as_mut().ok_or(Failed::Unreachable)?;
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let capped = left.filter(|&left| left < io_timeout);
        if capped.is_some() {
            client
                .set_io_timeout(capped)
                .map_err(|_| Failed::Unreachable)?;
        }
        let reply = client.recv().map_err(|e| match e {
            ClientError::Frame(e) if e.is_timeout() && !within(deadline) => Failed::Deadline,
            _ => Failed::Unreachable,
        })?;
        self.reusable = capped.is_none() || client.set_io_timeout(Some(io_timeout)).is_ok();
        Ok(reply)
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        // Declared before the guard, so a connection that is not kept
        // closes after the lock is released.
        let client = self.client.take();
        let mut idle = self.pool.idle();
        idle.out -= 1;
        if self.reusable && idle.conns.len() < IDLE_FLOOR.max(idle.peak) {
            idle.conns.extend(client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::messages::{Refusal, RefusalKind};
    use crate::transport::Server;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use timecrypt_obs::counters::TIMEOUTS;

    fn ping_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| match req {
                Request::Ping => Response::Pong,
                Request::Insert { chunk } => Response::Chunks(vec![chunk]),
                _ => Response::Error(Refusal::new(RefusalKind::BadRequest, "unhandled")),
            }),
        )
        .unwrap()
    }

    fn pool(addr: impl Into<String>) -> ClientPool {
        ClientPool::new(addr, PoolConfig::default())
    }

    /// One exchange of `req` on `pool`, without a budget.
    fn call(pool: &ClientPool, req: Request) -> Result<Response, Failed> {
        pool.send(Body::Request(req), None).recv()
    }

    /// One mutation: a write never sent twice.
    fn insert(pool: &ClientPool) -> Result<Response, Failed> {
        call(pool, Request::Insert { chunk: vec![1] })
    }

    fn idle(pool: &ClientPool) -> usize {
        pool.shared.idle().conns.len()
    }

    #[test]
    fn connections_are_reused() {
        let server = ping_server();
        let pool = pool(server.addr().to_string());
        for _ in 0..10 {
            assert_eq!(call(&pool, Request::Ping), Ok(Response::Pong));
        }
        assert_eq!(
            idle(&pool),
            1,
            "sequential calls share one pooled connection"
        );
    }

    #[test]
    fn idle_cap_is_the_high_water_mark_of_checkouts_above_the_floor() {
        let server = ping_server();
        let pool = pool(server.addr().to_string());
        // One caller at a time never holds more than one connection, and
        // a pool that kept one over the floor is trimmed to it as they
        // cycle (a mutation's probe drops a dead one and dials).
        let dead = (0..=IDLE_FLOOR).map(|_| dead_client());
        pool.shared.idle().conns.extend(dead);
        assert!(insert(&pool).is_ok());
        assert_eq!(idle(&pool), IDLE_FLOOR);
        // Connections checked out at once beyond the floor are ones the
        // callers will want again: all are kept, and one more would not be.
        let peak = IDLE_FLOOR + 2;
        let insert = || Body::Request(Request::Insert { chunk: vec![2] });
        let begun: Vec<_> = (0..peak).map(|_| pool.send(insert(), None)).collect();
        assert!(begun.into_iter().all(|ex| ex.recv().is_ok()));
        assert_eq!(idle(&pool), peak);
        pool.shared.idle().conns.push(dead_client());
        assert!(call(&pool, Request::Insert { chunk: vec![3] }).is_ok());
        assert_eq!(idle(&pool), peak);
    }

    /// A peer that counts the connections it accepts and serves each with
    /// `serve` on a thread of its own.
    fn peer(serve: impl Fn(TcpStream) + Clone + Send + 'static) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = accepted.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                count.fetch_add(1, Ordering::SeqCst);
                let (stream, serve) = (stream.unwrap(), serve.clone());
                std::thread::spawn(move || serve(stream));
            }
        });
        (addr, accepted)
    }

    /// A peer that answers every frame with `Pong` after `think` and, with
    /// `idle`, closes a connection that has sent nothing for that long —
    /// what `timecrypt-node --idle-timeout-ms` does.
    fn pong_peer(idle: Option<Duration>, think: Duration) -> (String, Arc<AtomicUsize>) {
        peer(move |mut stream| {
            stream.set_read_timeout(idle).unwrap();
            let mut pong = Vec::new();
            Response::Pong.encode_into(&mut pong);
            while read_frame(&mut stream).is_ok() {
                std::thread::sleep(think);
                if write_frame(&mut stream, &pong).is_err() {
                    break;
                }
            }
        })
    }

    #[test]
    fn a_connection_the_peer_reaped_is_replaced_at_a_mutations_checkout_only() {
        let (addr, accepted) = pong_peer(Some(Duration::from_millis(40)), Duration::ZERO);
        let pool = pool(addr);
        let reaped = || {
            // The server closes the idle connection; the pool still holds it.
            std::thread::sleep(Duration::from_millis(120));
            assert_eq!(idle(&pool), 1);
        };
        assert_eq!(insert(&pool), Ok(Response::Pong));
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
        reaped();
        // A write to the closed socket would succeed and the mutation,
        // never sent twice, would be lost with the missing reply.
        assert_eq!(insert(&pool), Ok(Response::Pong));
        assert_eq!(accepted.load(Ordering::SeqCst), 2, "dialed once more");
        // A read is not probed: its exchange fails on the closed socket,
        // and it is sent again on a fresh dial, which drops every idle
        // connection — a probe would have dropped the reaped one alone.
        reaped();
        pool.shared.idle().conns.insert(0, dead_client());
        assert_eq!(call(&pool, Request::Ping), Ok(Response::Pong));
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
        assert_eq!(
            idle(&pool),
            1,
            "the dead connection went with the fresh dial"
        );
    }

    #[test]
    fn concurrent_callers_beyond_the_idle_floor_keep_their_connections() {
        const CALLERS: usize = 12;
        // Rounds, as connection threads serving clients in step produce
        // them: every caller checks out only after all have returned, and
        // the server thinks long enough that all twelve are in flight
        // together.
        let (addr, accepted) = pong_peer(None, Duration::from_millis(2));
        let pool = pool(addr);
        const { assert!(CALLERS > IDLE_FLOOR) };
        let round = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    for _ in 0..50 {
                        round.wait();
                        assert_eq!(insert(&pool), Ok(Response::Pong));
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

    /// A connection whose peer is already gone: it dialed a listener that
    /// was dropped before accepting, so the first exchange on it fails.
    fn dead_client() -> Client {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener);
        client
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
        assert_eq!(call(&pool, Request::Ping), Err(Failed::Unreachable));
        assert_eq!(idle(&pool), 0);
    }

    #[test]
    fn a_spent_budget_checks_nothing_out() {
        let server = ping_server();
        let pool = pool(server.addr().to_string());
        let spent = Some(Instant::now());
        let reply = pool.send(Body::Request(Request::Ping), spent).recv();
        assert_eq!(reply, Err(Failed::Deadline));
        assert_eq!(pool.shared.idle().peak, 0, "never checked out");
    }

    #[test]
    fn a_capped_deadline_is_rearmed_before_the_connection_goes_back() {
        // A server whose handler stalls 60 ms before every reply.
        let delay = Duration::from_millis(60);
        let handler = move |_: Request| {
            std::thread::sleep(delay);
            Response::Pong
        };
        let server = Server::bind("127.0.0.1:0", Arc::new(handler)).unwrap();
        let pool = pool(server.addr().to_string());
        // A reply read with the budget spent: the wait was capped to the
        // transport's 1 ms minimum, and the reply had arrived in time.
        let soon = Some(Instant::now() + Duration::from_millis(20));
        let exchange = pool.send(Body::Request(Request::Ping), soon);
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(exchange.recv(), Ok(Response::Pong));
        assert_eq!(idle(&pool), 1);
        // The next exchange — a mutation, never sent twice — must start
        // from the configured 5 s allowance, not the leftover 1 ms: the
        // 60 ms reply then arrives in time.
        assert_eq!(insert(&pool), Ok(Response::Pong));
    }

    #[test]
    fn a_connection_is_rearmed_only_when_its_deadline_was_capped() {
        let server = ping_server();
        let pool = pool(server.addr().to_string());
        let armed = Some(PoolConfig::default().io_timeout);
        // A deadline set behind the pool's back marks a connection that
        // went back without a re-arm.
        let marked = Some(Duration::from_secs(7));
        let mark = || pool.shared.idle().conns[0].set_io_timeout(marked).unwrap();
        let deadline = || pool.shared.idle().conns[0].io_timeout();
        let ping = |budget: Duration| {
            let deadline = Some(Instant::now() + budget);
            let reply = pool.send(Body::Request(Request::Ping), deadline).recv();
            assert_eq!(reply, Ok(Response::Pong));
        };
        assert_eq!(call(&pool, Request::Ping), Ok(Response::Pong));
        mark();
        assert_eq!(call(&pool, Request::Ping), Ok(Response::Pong));
        assert_eq!(deadline(), marked, "no budget: no re-arm");
        ping(Duration::from_secs(60));
        assert_eq!(deadline(), marked, "a budget past io_timeout: no re-arm");
        // A budget below io_timeout caps the wait, and the configured
        // deadline is armed again on the way back.
        ping(Duration::from_secs(2));
        assert_eq!(deadline(), armed, "re-armed");
        assert_eq!(idle(&pool), 1, "one connection throughout");
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
        let pool = pool(addr);
        assert_eq!(call(&pool, Request::Ping), Ok(Response::Pong));
        assert_eq!(call(&pool, Request::Ping), Ok(Response::Pong));
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
        let pool = ClientPool::new(
            addr.unwrap().to_string(),
            PoolConfig {
                connect_attempts: 2,
                backoff,
                ..PoolConfig::default()
            },
        );
        let start = Instant::now();
        assert_eq!(call(&pool, Request::Ping), Err(Failed::Unreachable));
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
        let pool = pool(addr);
        let req = Request::DeleteStream { stream: 1 };
        assert!(req.is_mutation());
        let reply = call(&pool, req);
        assert_eq!(reply, Err(Failed::Unreachable), "a lost reply must fail");
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "sent once");
        let batch = pool.send(Body::Batch(&[&[1, 2, 3]]), None).recv();
        assert_eq!(batch, Err(Failed::Unreachable));
        assert_eq!(accepted.load(Ordering::SeqCst), 2, "a batch is sent once");
        assert_eq!(call(&pool, Request::Ping), Err(Failed::Unreachable));
        assert_eq!(accepted.load(Ordering::SeqCst), 4, "a read is tried twice");
    }

    #[test]
    fn io_timeout_fails_fast_against_hung_peer() {
        let (addr, accepted) = peer(|mut stream| while read_frame(&mut stream).is_ok() {});
        let pool = ClientPool::new(
            addr,
            PoolConfig {
                io_timeout: Duration::from_millis(30),
                ..PoolConfig::default()
            },
        );
        let (start, timeouts) = (Instant::now(), TIMEOUTS.get());
        // Ping is a read, so it is sent once more on a fresh connection —
        // which also times out. Two timeouts, then the error surfaces.
        assert_eq!(call(&pool, Request::Ping), Err(Failed::Unreachable));
        assert!(start.elapsed() < Duration::from_millis(350));
        assert!(TIMEOUTS.get() >= timeouts + 2);
        assert_eq!(accepted.load(Ordering::SeqCst), 2);
        // Timed-out connections must not be returned to the pool: their
        // reply is still in flight and would answer the wrong request. The
        // next exchange dials twice again.
        assert_eq!(call(&pool, Request::Ping), Err(Failed::Unreachable));
        assert_eq!(accepted.load(Ordering::SeqCst), 4);
        assert_eq!(idle(&pool), 0);
    }

    #[test]
    fn a_budget_spent_waiting_is_a_deadline() {
        // The hung peer again, with a budget shorter than io_timeout: the
        // wait is capped to what is left, and its expiry is the budget's.
        let (addr, accepted) = peer(|mut stream| while read_frame(&mut stream).is_ok() {});
        let pool = pool(addr);
        let start = Instant::now();
        let budget = Some(start + Duration::from_millis(40));
        let reply = pool.send(Body::Request(Request::Ping), budget).recv();
        assert_eq!(reply, Err(Failed::Deadline));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            1,
            "no resend past the budget"
        );
    }
}
