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
//! the handler thread; a shutdown severs it at once (a [`Listener`]).

use crate::listener::Listener;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Maximum accepted request head (request line + headers).
const MAX_HEAD: u64 = 8 * 1024;

/// A running exposition listener; stops on drop.
pub struct HttpServer {
    listener: Listener,
}

impl HttpServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `/metrics` with
    /// `render`'s output on every scrape.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        render: Arc<dyn Fn() -> String + Send + Sync>,
    ) -> std::io::Result<HttpServer> {
        let listener = Listener::spawn(TcpListener::bind(addr)?, "metrics", move |stream| {
            let _ = serve_one(&stream, &*render);
        })?;
        Ok(HttpServer { listener })
    }

    /// The bound address (for ephemeral-port tests).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stops accepting scrapes and severs those still open.
    pub fn shutdown(&mut self) {
        self.listener.stop();
    }
}

fn serve_one(stream: &TcpStream, render: &dyn Fn() -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream).take(MAX_HEAD);
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
    let path = parts.next().unwrap_or("").split('?').next().unwrap_or("");
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", "text/plain; version=0.0.4", render()),
        ("GET", "/events") => {
            let events = crate::log::dump().into_iter().map(|e| e.render() + "\n");
            ("200 OK", "text/plain", events.collect())
        }
        ("GET", _) => ("404 Not Found", "text/plain", "not found\n".to_string()),
        _ => (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        ),
    };
    let mut out = stream;
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
    fn shutdown_severs_an_idle_scrape() {
        let mut server = HttpServer::bind("127.0.0.1:0", Arc::new(String::new)).unwrap();
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        // Connections are accepted in order: once a later scrape is
        // answered, the idle one is being served.
        get(server.addr(), "/metrics");
        server.shutdown();
        idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        match idle.read(&mut [0]) {
            Ok(n) => assert_eq!(n, 0),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
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
