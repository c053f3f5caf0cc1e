//! Blocking TCP transport: thread-per-connection server + pipelined client.
//! The server's accept thread, connection threads and stop are
//! `timecrypt_obs::Listener`'s, as the `/metrics` page's are.
//!
//! The request/response discipline per connection is strict FIFO: the
//! server answers requests in arrival order, so a client may either run
//! one-in-one-out ([`Client::call`]) or *pipeline* — issue several
//! [`Client::send`]s before draining the matching [`Client::recv`]s. The
//! sharded service tier's coordinator → node requests are each one
//! [`Exchange`](crate::pool::Exchange) of a
//! [`ClientPool`](crate::pool::ClientPool): the frame is sent when a
//! request is begun, its one reply read when it is finished. Clients that
//! want true parallelism open multiple connections (exactly how the
//! paper's load generator drives 100 client threads). Each end reads and
//! writes one socket through one per-connection buffer, so a warm
//! connection allocates only what the messages themselves own. A served
//! request's stages are timed (`timecrypt_obs::Stage`): one taking 1 s or
//! more logs a `slow request` warning, a traced one a `span serve` event.
//!
//! ```rust
//! use std::sync::Arc;
//! use timecrypt_wire::messages::{Refusal, RefusalKind, Request, Response};
//! use timecrypt_wire::transport::{Client, Server};
//!
//! // Any `Fn(Request) -> Response` is a handler; real deployments pass an
//! // `Arc<TimeCryptServer>` or `Arc<ShardedService>` here.
//! let server = Server::bind(
//!     "127.0.0.1:0", // port 0: ephemeral
//!     Arc::new(|req: Request| match req {
//!         Request::Ping => Response::Pong,
//!         _ => Response::Error(Refusal::new(RefusalKind::BadRequest, "unhandled")),
//!     }),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
//!
//! // Pipelined: both requests are in flight before the first reply is read.
//! client.send(&Request::Ping).unwrap();
//! client.send(&Request::Ping).unwrap();
//! assert_eq!(client.recv().unwrap(), Response::Pong);
//! assert_eq!(client.recv().unwrap(), Response::Pong);
//! ```

use crate::codec::WireError;
use crate::frame::{read_frame_into, write_frame_in, FrameError, PREFIX_LEN};
use crate::messages::{split_trace, Refusal, RefusalKind, Request, RequestRef, Response};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use timecrypt_obs::{tc_debug, tc_warn, trace, Listener, TraceContext};

/// Retained capacity cap for per-connection scratch buffers. Reuse keeps
/// steady-state serving allocation-free, but one oversized frame (a 4 MiB
/// rebuild page, a large batch) must not pin multi-MiB buffers on every
/// long-lived connection forever — after such a frame the buffer shrinks
/// back to this bound.
const SCRATCH_RETAIN_BYTES: usize = 256 * 1024;

/// Shrinks a scratch buffer that ballooned past the retain bound.
fn bound_scratch(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN_BYTES {
        buf.truncate(0);
        buf.shrink_to(SCRATCH_RETAIN_BYTES);
    }
}

/// A request handler: maps each decoded request to a response. Shared across
/// connection threads.
pub trait Handler: Send + Sync + 'static {
    /// Handles one request.
    fn handle(&self, req: Request) -> Response;

    /// Handles one raw frame body. The default decodes owned and delegates
    /// to [`handle`](Self::handle); the engine, shard node and coordinator
    /// instead feed the borrowed view ([`dispatch_frame`]) to the same
    /// dispatch `handle` enters, so ingest payloads are never copied out
    /// of the frame buffer.
    fn handle_frame(&self, body: &[u8]) -> Response {
        dispatch_frame(body, |view| self.handle(view.to_owned()))
    }
}

/// Decodes one frame body to its borrowed view and hands it to
/// `dispatch`; a body that does not decode gets the one `bad request`
/// rendering every handler and transport shares.
pub fn dispatch_frame(body: &[u8], dispatch: impl FnOnce(RequestRef<'_>) -> Response) -> Response {
    match RequestRef::decode(body) {
        Ok(view) => dispatch(view),
        Err(e) => bad_request(&e),
    }
}

fn bad_request(e: &WireError) -> Response {
    let reason = format!("bad request: {e}");
    Response::Error(Refusal::new(RefusalKind::BadRequest, reason))
}

impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop *and severs established connections*, so a
/// dropped server really is gone — which is what lets tests (and the
/// replication failover path) treat shutdown as a node crash.
pub struct Server {
    listener: Listener,
}

/// Server-side connection policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeOptions {
    /// Close a connection that has not delivered a complete frame for
    /// this long. Protects a node from leaked half-open connections
    /// pinning threads forever. A [`ClientPool`](crate::pool::ClientPool)
    /// checkout for a mutation probes the connection, sees the closed
    /// socket and dials instead; a read fails on it and its caller sends
    /// it again on a fresh dial.
    /// `None` (the default) keeps the historical wait-forever behaviour.
    pub idle_timeout: Option<Duration>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections, dispatching to `handler`.
    pub fn bind<A: ToSocketAddrs>(addr: A, handler: Arc<dyn Handler>) -> io::Result<Server> {
        Self::bind_with(addr, handler, ServeOptions::default())
    }

    /// [`bind`](Self::bind) with explicit connection policy.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn Handler>,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        Self::from_listener(TcpListener::bind(addr)?, handler, opts)
    }

    /// Serves on `listener`, already bound. The server closes it when it
    /// stops; a caller that keeps a clone (`TcpListener::try_clone`) keeps
    /// the port, and what dials it meanwhile waits in the backlog for the
    /// next server on that clone — a restart no other socket can take the
    /// port from.
    pub fn from_listener(
        listener: TcpListener,
        handler: Arc<dyn Handler>,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        let listener = Listener::spawn(listener, "wire", move |stream| {
            let _ = serve_connection(&stream, handler.clone(), opts);
        })?;
        Ok(Server { listener })
    }

    /// The bound address (for ephemeral-port tests).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stops accepting new connections and severs established ones (their
    /// threads observe the closed socket and exit).
    pub fn shutdown(&mut self) {
        self.listener.stop();
    }
}

/// Requests whose server-side handling takes at least this long are logged
/// at `Warn` with the stages that ran.
const SLOW_REQUEST: Duration = Duration::from_secs(1);

/// Handles one decoded frame: peels the optional trace envelope (so the
/// handler sees exactly the pre-envelope bytes), stamps the context into
/// the thread-local for the handler's events, and times the request's
/// stages for the slow-request log: the TCP server loop's step per frame.
fn handle_frame_traced(handler: &dyn Handler, body: &[u8]) -> Response {
    let (ctx, inner) = match split_trace(body) {
        Ok(split) => split,
        Err(e) => return bad_request(&e),
    };
    let _trace_guard = ctx.map(|c| trace::set_current(Some(c)));
    let scope = trace::begin_request();
    let resp = handler.handle_frame(inner);
    let (total, stages) = scope.finish();
    if ctx.is_some() {
        // The node-side record a traced request (a scatter-gather leg)
        // leaves in the flight recorder, under the caller's trace id.
        tc_debug!("wire", "span serve us={}", total.as_micros());
    }
    let ms = total.as_millis();
    if total >= SLOW_REQUEST {
        tc_warn!("wire", "slow request total_ms={ms} {stages}");
    }
    resp
}

fn serve_connection(
    stream: &TcpStream,
    handler: Arc<dyn Handler>,
    opts: ServeOptions,
) -> Result<(), FrameError> {
    stream.set_nodelay(true).ok();
    if let Some(idle) = opts.idle_timeout {
        stream
            .set_read_timeout(Some(idle.max(Duration::from_millis(1))))
            .ok();
    }
    let (mut reader, mut writer) = (BufReader::new(stream), stream);
    // Per-connection frame scratch: each request is read into the same
    // buffer, and its reply encoded there behind room for its length
    // prefix once the handler is done with the request, so steady-state
    // serving allocates only what the messages themselves own and a reply
    // of any size is one `write(2)`.
    let mut frame = Vec::new();
    loop {
        match read_frame_into(&mut reader, &mut frame) {
            Ok(()) => {}
            Err(FrameError::Closed) => return Ok(()),
            Err(e) if e.is_timeout() => {
                // Idle (or mid-frame stalled) past the deadline: close.
                // The client side redials; a stalled sender was never
                // going to complete this frame anyway.
                timecrypt_obs::counters::TIMEOUTS.inc();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let resp = handle_frame_traced(&*handler, &frame);
        frame.clear();
        frame.extend_from_slice(&[0; PREFIX_LEN]);
        resp.encode_into(&mut frame);
        write_frame_in(&mut writer, &mut frame)?;
        bound_scratch(&mut frame);
    }
}

/// Transport-level client errors.
#[derive(Debug)]
pub enum ClientError {
    /// Connection / framing failure.
    Frame(FrameError),
    /// The server answered with `Response::Error`.
    Refused(Refusal),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport error: {e}"),
            ClientError::Refused(refusal) => write!(f, "server error: {}", refusal.reason),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A blocking client connection.
pub struct Client {
    /// Read through the buffer; written through `get_mut`.
    conn: BufReader<TcpStream>,
    /// Per-connection frame scratch: every request is assembled in it,
    /// length prefix first, and leaves as one `write(2)`; every reply is
    /// read into it. Its capacity persists across frames.
    frame: Vec<u8>,
}

impl Client {
    /// Connects to a server, waiting for it as long as the OS does.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Self::connect_with(addr, None)
    }

    /// Connects with a per-operation I/O deadline already armed (see
    /// [`set_io_timeout`](Self::set_io_timeout)). It bounds the dial too, of
    /// each address in turn: a peer that swallows SYNs costs that, not minutes.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        io_timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = match io_timeout {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                let mut dialed = Err(io::ErrorKind::AddrNotAvailable.into());
                for addr in addr.to_socket_addrs()? {
                    dialed = TcpStream::connect_timeout(&addr, limit.max(Duration::from_millis(1)));
                    if dialed.is_ok() {
                        break;
                    }
                }
                dialed?
            }
        };
        stream.set_nodelay(true).ok();
        let mut client = Client {
            conn: BufReader::new(stream),
            frame: Vec::new(),
        };
        client.set_io_timeout(io_timeout)?;
        Ok(client)
    }

    /// Arms (`Some`) or disarms (`None`) the socket read/write deadline
    /// for subsequent sends and receives. An expired deadline surfaces as
    /// a [`ClientError::Frame`] whose inner error answers true to
    /// [`FrameError::is_timeout`]; the connection is then mid-stream and
    /// must be discarded, not reused. Zero is clamped to 1 ms because the
    /// OS interprets a zero timeout as "block forever".
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        let t = timeout.map(|d| d.max(Duration::from_millis(1)));
        let sock = self.conn.get_ref();
        sock.set_read_timeout(t)?;
        sock.set_write_timeout(t)?;
        Ok(())
    }

    /// The deadline armed on the socket, as the OS reports it.
    #[cfg(test)]
    pub(crate) fn io_timeout(&self) -> Option<Duration> {
        self.conn.get_ref().read_timeout().ok().flatten()
    }

    /// Whether this connection, idle between exchanges, can carry another:
    /// nothing waits to be read (no reply is owed, so bytes are garbage)
    /// and the peer has not closed it — a write to a closed socket still
    /// succeeds, so nothing later tells before the reply is missing. Each
    /// probe counts in `timecrypt_pool_probes_total`.
    pub(crate) fn is_idle_and_open(&self) -> bool {
        timecrypt_obs::counters::POOL_PROBES.inc();
        let sock = self.conn.get_ref();
        if !self.conn.buffer().is_empty() || sock.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet = matches!(sock.peek(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        sock.set_nonblocking(false).is_ok() && quiet
    }

    /// Sends one request and waits for its response. An app-level
    /// [`Response::Error`] is surfaced as [`ClientError::Refused`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        match self.recv()? {
            Response::Error(refusal) => Err(ClientError::Refused(refusal)),
            resp => Ok(resp),
        }
    }

    /// Sends one request without waiting for its response (pipelining).
    /// The server answers in FIFO order, so after `n` sends exactly `n`
    /// [`recv`](Self::recv)s drain the matching responses.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.send_with(None, |body| req.encode_into(body))
    }

    /// Like [`send`](Self::send), but `fill` writes the request body
    /// directly into the connection's frame buffer — the pool's exchange
    /// path, zero-copy for bodies built from parts (a
    /// [`BatchEncoder`](crate::messages::BatchEncoder) over serialized
    /// chunks) — behind a trace-context envelope when `ctx` is present
    /// (with `None` the frame is byte-identical to an untraced build's).
    /// `fill` must append exactly one valid encoded request.
    pub(crate) fn send_with(
        &mut self,
        ctx: Option<TraceContext>,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ClientError> {
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; PREFIX_LEN]);
        if let Some(ctx) = ctx {
            crate::messages::encode_trace_prefix(ctx, frame);
        }
        fill(frame);
        let sent = write_frame_in(self.conn.get_mut(), frame);
        bound_scratch(frame);
        Ok(sent.inspect_err(count_timeout)?)
    }

    /// Receives the next response of a pipelined exchange. Unlike
    /// [`call`](Self::call), an app-level [`Response::Error`] is returned
    /// as a *value* — a pipelined caller must keep draining the remaining
    /// responses even when one request failed.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        read_frame_into(&mut self.conn, &mut self.frame).inspect_err(count_timeout)?;
        let reply = Response::decode(&self.frame).map_err(FrameError::Wire);
        bound_scratch(&mut self.frame);
        Ok(reply?)
    }
}

/// A socket deadline that fired counts in `timecrypt_timeouts_total`.
fn count_timeout(e: &FrameError) {
    if e.is_timeout() {
        timecrypt_obs::counters::TIMEOUTS.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::StatReply;

    fn unhandled() -> Response {
        Response::Error(Refusal::new(RefusalKind::BadRequest, "unhandled"))
    }

    fn echo_server() -> Server {
        Server::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| match req {
                Request::Ping => Response::Pong,
                Request::Insert { chunk } => Response::Chunks(vec![chunk]),
                Request::GetStatRange { streams, .. } => Response::Stat(StatReply {
                    parts: streams.iter().map(|&s| (s, 0, 1)).collect(),
                    agg: vec![42],
                }),
                _ => unhandled(),
            }),
        )
        .unwrap()
    }

    #[test]
    fn ping_pong() {
        let server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn sequential_requests_on_one_connection() {
        let server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..50u8 {
            let resp = client.call(&Request::Insert { chunk: vec![i] }).unwrap();
            assert_eq!(resp, Response::Chunks(vec![vec![i]]));
        }
    }

    #[test]
    fn server_error_surfaces_as_client_error() {
        let server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        match client.call(&Request::DeleteStream { stream: 1 }) {
            Err(ClientError::Refused(refusal)) => assert_eq!(Response::Error(refusal), unhandled()),
            other => panic!("expected server error, got {other:?}"),
        }
    }

    #[test]
    fn many_concurrent_clients() {
        let server = echo_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..100 {
                        assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pipelined_responses_arrive_in_request_order() {
        let server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..32u8 {
            client.send(&Request::Insert { chunk: vec![i] }).unwrap();
        }
        // An app-level error in the middle must not break the pipeline.
        client.send(&Request::DeleteStream { stream: 1 }).unwrap();
        client.send(&Request::Ping).unwrap();
        for i in 0..32u8 {
            assert_eq!(client.recv().unwrap(), Response::Chunks(vec![vec![i]]));
        }
        assert_eq!(client.recv().unwrap(), unhandled());
        assert_eq!(client.recv().unwrap(), Response::Pong);
    }

    #[test]
    fn large_payload_roundtrip() {
        let server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let big = vec![0xabu8; 1 << 20];
        let resp = client
            .call(&Request::Insert { chunk: big.clone() })
            .unwrap();
        assert_eq!(resp, Response::Chunks(vec![big]));
    }

    /// A listener that accepts connections and reads nothing — from the
    /// client's perspective the peer is alive but permanently silent.
    fn silent_server() -> (std::net::TcpListener, SocketAddr) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    #[test]
    fn recv_times_out_against_silent_peer() {
        let (listener, addr) = silent_server();
        let hold = std::thread::spawn(move || listener.accept());
        let mut client = Client::connect_with(addr, Some(Duration::from_millis(30))).unwrap();
        client.send(&Request::Ping).unwrap();
        let start = std::time::Instant::now();
        match client.recv() {
            Err(ClientError::Frame(e)) => assert!(e.is_timeout(), "got {e:?}"),
            other => panic!("expected timeout, got {other:?}"),
        }
        // SO_RCVTIMEO must fire near the deadline, not hang.
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(hold);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn the_dial_is_bounded_by_the_io_timeout() {
        // A listener that never accepts: once its accept backlog is full
        // (std listens with a backlog of 128) Linux drops further SYNs, and
        // an unbounded dial sits in the kernel's retries for two minutes.
        let (_listener, addr) = silent_server();
        let fill = |_| TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        let held: Vec<TcpStream> = (0..900).map_while(|i| fill(i).ok()).collect();
        assert!(held.len() < 900, "the backlog never filled");
        let start = std::time::Instant::now();
        let limit = Duration::from_millis(150);
        match Client::connect_with(addr, Some(limit)) {
            Err(ClientError::Frame(e)) => assert!(e.is_timeout(), "got {e:?}"),
            Ok(_) => panic!("dialed a listener whose backlog is full"),
            Err(other) => panic!("expected a timeout, got {other:?}"),
        }
        let waited = start.elapsed();
        assert!(waited >= limit && waited < limit * 10, "waited {waited:?}");
    }

    #[test]
    fn zero_timeout_is_clamped_not_rejected() {
        let server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        // Duration::ZERO means "no timeout" to the OS and is an error to
        // pass through; the clamp turns it into the shortest real deadline.
        client.set_io_timeout(Some(Duration::ZERO)).unwrap();
        client.set_io_timeout(None).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn server_idle_timeout_closes_connection() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::new(|_req: Request| Response::Pong),
            ServeOptions {
                idle_timeout: Some(Duration::from_millis(40)),
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        // Go idle past the server's deadline; the node reaps the
        // connection and the next exchange fails instead of pinning a
        // server thread forever.
        std::thread::sleep(Duration::from_millis(120));
        let res = client.call(&Request::Ping);
        assert!(res.is_err(), "expected reaped connection, got {res:?}");
        // A fresh dial works: only the idle connection was reaped.
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert_eq!(c2.call(&Request::Ping).unwrap(), Response::Pong);
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        // Give the OS a moment; connects may succeed (backlog) but calls
        // must eventually fail, or the connect itself errors.
        std::thread::sleep(std::time::Duration::from_millis(20));
        match Client::connect(addr) {
            Err(_) => {}
            Ok(mut c) => {
                let _ = c.call(&Request::Ping); // must not hang forever
            }
        }
    }
}
