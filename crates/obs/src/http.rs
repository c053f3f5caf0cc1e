//! A minimal HTTP/1.0 listener for metrics exposition.
//!
//! Serves two fixed routes:
//!
//! - `GET /metrics` — the caller-provided render closure (Prometheus
//!   text format, `text/plain; version=0.0.4`);
//! - `GET /events` — the flight recorder dump ([`crate::log::dump`]),
//!   one rendered event per line, oldest first.
//!
//! One request per connection, `Connection: close` — exactly what a
//! Prometheus scraper or `curl` needs, and nothing more. Request heads
//! are capped at 8 KiB and reads time out, so a stuck client cannot pin
//! the handler thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum accepted request head (request line + headers).
const MAX_HEAD: u64 = 8 * 1024;

/// A running exposition listener; stops on drop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `/metrics` with
    /// `render`'s output on every scrape.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            let accept = || listener.accept().map(|(stream, _peer)| stream);
            accept_loop(&stop_flag, "metrics", accept, |stream| {
                let render = render.clone();
                std::thread::spawn(move || {
                    let _ = serve_one(stream, &*render);
                });
            });
        });
        Ok(HttpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (for ephemeral-port tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting scrapes.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A server's accept loop, until `stop` is set: hands each connection
/// `accept` yields to `serve`. `accept` is a non-blocking listener's; an
/// empty queue and a failed accept alike — a peer that reset before it was
/// taken, a process out of file descriptors — wait 1 ms and try again.
/// Only `stop` ends the loop, so the port stays open for the next peer.
///
/// A run of failures is logged under `target` twice: its first error, and
/// how many there were once an accept succeeds again. Out of descriptors,
/// every retry fails; a line each would flush the flight recorder of what
/// led up to it within seconds.
pub fn accept_loop<C>(
    stop: &AtomicBool,
    target: &'static str,
    mut accept: impl FnMut() -> std::io::Result<C>,
    mut serve: impl FnMut(C),
) {
    let mut failed = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match accept() {
            Ok(conn) => {
                if failed > 0 {
                    crate::tc_warn!(target, "accepting again after {failed} failed accepts");
                    failed = 0;
                }
                serve(conn)
            }
            Err(e) => {
                if e.kind() != std::io::ErrorKind::WouldBlock {
                    if failed == 0 {
                        crate::tc_warn!(target, "accept failed: {e}");
                    }
                    failed += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

fn serve_one(stream: TcpStream, render: &dyn Fn() -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_HEAD);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line so well-behaved clients don't
    // see a reset before reading the response.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut out = stream;
    let (status, content_type, body);
    if method != "GET" {
        (status, content_type, body) = (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        );
    } else {
        match path.split('?').next().unwrap_or("") {
            "/metrics" => {
                (status, content_type, body) = ("200 OK", "text/plain; version=0.0.4", render());
            }
            "/events" => {
                let mut text = String::new();
                for e in crate::log::dump() {
                    text.push_str(&e.render());
                    text.push('\n');
                }
                (status, content_type, body) = ("200 OK", "text/plain", text);
            }
            _ => {
                (status, content_type, body) =
                    ("404 Not Found", "text/plain", "not found\n".to_string());
            }
        }
    }
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn a_failed_accept_does_not_end_the_loop() {
        use std::io::{Error, ErrorKind};
        let stop = AtomicBool::new(false);
        let mut accepts = [
            Err(Error::from(ErrorKind::ConnectionAborted)),
            Err(Error::from(ErrorKind::WouldBlock)),
            Ok(7),
        ]
        .into_iter();
        let mut served = Vec::new();
        let accept = || accepts.next().unwrap_or(Err(ErrorKind::WouldBlock.into()));
        accept_loop(&stop, "test", accept, |conn| {
            served.push(conn);
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(served, [7]);
    }

    #[test]
    fn a_run_of_failed_accepts_is_logged_twice() {
        use std::io::{Error, ErrorKind};
        const TARGET: &str = "test.accept_run";
        let stop = AtomicBool::new(false);
        let failures = (0..500).map(|_| Err(Error::from(ErrorKind::Other)));
        let mut accepts = failures.chain([Ok(())]);
        let accept = || accepts.next().unwrap_or(Err(ErrorKind::WouldBlock.into()));
        accept_loop(&stop, TARGET, accept, |()| {
            stop.store(true, Ordering::Relaxed)
        });
        let lines: Vec<String> = (crate::log::dump().into_iter())
            .filter(|e| e.target == TARGET)
            .map(|e| e.msg)
            .collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("accept failed"), "{lines:?}");
        assert!(lines[1].contains("after 500 failed"), "{lines:?}");
    }

    #[test]
    fn serves_metrics_and_events() {
        let server =
            HttpServer::bind("127.0.0.1:0", Arc::new(|| "metric_total 1\n".to_string())).unwrap();
        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        assert_eq!(body, "metric_total 1\n");
        let (head, _) = get(server.addr(), "/events");
        assert!(head.starts_with("HTTP/1.0 200 OK"));
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(String::new)).unwrap();
        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
    }

    #[test]
    fn shutdown_stops_the_listener() {
        let mut server = HttpServer::bind("127.0.0.1:0", Arc::new(String::new)).unwrap();
        let addr = server.addr();
        server.shutdown();
        std::thread::sleep(Duration::from_millis(10));
        // Accept loop is gone: a connect may land in the dead backlog, but
        // a request on it gets no response.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = write!(s, "GET /metrics HTTP/1.0\r\n\r\n");
            s.set_read_timeout(Some(Duration::from_millis(200))).ok();
            let mut buf = [0u8; 16];
            assert!(!matches!(s.read(&mut buf), Ok(n) if n > 0));
        }
    }
}
