//! Every TCP service here stops the same way: its `timecrypt_obs::Listener`
//! ends the accept thread and severs each connection it accepted. Three
//! idle connections are held on each of the wire server, the `/metrics`
//! page and the fault proxy, each accepted by its service; the
//! `listener.severed_on_stop` row of the root `BENCH_ledger.json` counts
//! those whose blocking read ends (EOF or a reset) within 2 s of their
//! service's stop.

use common::{Deployment, Spec};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt::faults::{FaultPlan, FaultyTransport};
use timecrypt::wire::{read_frame, write_frame, Request, Response};
use timecrypt_obs::HttpServer;

mod common;

const IDLE: usize = 3;

/// `IDLE` connections to `addr`, each answered a `Ping` (so accepted and
/// served), then left idle.
fn pinged(addr: SocketAddr) -> Vec<TcpStream> {
    let ping = |_| {
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &Request::Ping.encode()).unwrap();
        let reply = read_frame(&mut conn).unwrap();
        assert_eq!(Response::decode(&reply).unwrap(), Response::Pong);
        conn
    };
    (0..IDLE).map(ping).collect()
}

/// How many of `conns` end, EOF or a reset, within 2 s of `stop`.
fn severed(conns: Vec<TcpStream>, stop: impl FnOnce()) -> usize {
    stop();
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut ended = 0;
    for mut conn in conns {
        let left = deadline.saturating_duration_since(Instant::now());
        conn.set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .unwrap();
        ended += match conn.read(&mut [0]) {
            Ok(n) => usize::from(n == 0),
            Err(e) => usize::from(e.kind() == ErrorKind::ConnectionReset),
        };
    }
    ended
}

#[test]
fn every_service_severs_its_idle_connections_on_stop() {
    let deployment = Deployment::build(&Spec::engine());
    let upstream = deployment.serve();
    let mut proxy = FaultyTransport::spawn(upstream, FaultPlan::quiet()).unwrap();
    let mut metrics = HttpServer::bind("127.0.0.1:0", Arc::new(String::new)).unwrap();
    let proxied = pinged(proxy.addr());
    let served = pinged(upstream);
    let connect = |_| TcpStream::connect(metrics.addr()).unwrap();
    let scrapes: Vec<TcpStream> = (0..IDLE).map(connect).collect();
    // Connections are accepted in order: once a later scrape is answered,
    // the idle ones are being served.
    let mut answered = connect(IDLE);
    write!(answered, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    answered.read_to_end(&mut Vec::new()).unwrap();
    // The proxy stops first, while its upstream still answers, so only its
    // own stop can end its clients' connections.
    let ended = severed(proxied, || proxy.stop())
        + severed(scrapes, || metrics.shutdown())
        + severed(served, || drop(deployment));
    common::ledger(&[("listener.severed_on_stop".into(), ended.to_string())]);
}
