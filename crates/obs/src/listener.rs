//! [`Listener`]: the accept side every TCP service here shares — the wire
//! server, the `/metrics` page and the fault proxy. Each keeps only what
//! it does with a connection.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running service's listening socket. Each accepted connection is
/// served on a thread of its own; [`stop`](Self::stop) (or a drop) ends the
/// accept thread, closes the socket and severs every connection still open,
/// so a stopped service is gone, as a crashed one is.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Accepts until `stop`, then severs the connections it accepted.
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Accepts on `listener`, already bound, and runs `serve` on each
    /// connection; a failed accept is logged under `target`. A stop severs
    /// the connection as long as an `Arc` of it is held: what `serve` hands
    /// it to must keep one. The accept thread is named `accept:<port>`.
    pub fn spawn(
        listener: TcpListener,
        target: &'static str,
        serve: impl Fn(Arc<TcpStream>) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(false)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, serve) = (stop.clone(), Arc::new(serve));
        let named = std::thread::Builder::new().name(format!("accept:{}", addr.port()));
        let accept_thread = named.spawn(move || {
            let mut conns: Vec<Weak<TcpStream>> = Vec::new();
            let accept = || listener.accept().map(|(stream, _peer)| Arc::new(stream));
            accept_loop(&flag, target, accept, |stream| {
                conns.retain(|conn| conn.strong_count() > 0);
                conns.push(Arc::downgrade(&stream));
                let serve = serve.clone();
                std::thread::spawn(move || serve(stream));
            });
            for stream in conns.iter().filter_map(Weak::upgrade) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        })?;
        Ok(Listener {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (for ephemeral-port tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and severs every connection still open: their reads
    /// and writes meet the closed socket, and their threads end. One
    /// loopback connection wakes the accept thread from `accept`; if it
    /// cannot be made (descriptors exhausted), the thread ends at its next
    /// accept, a peer's or a failed one, and `stop` returns without it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let ip = match self.addr.ip() {
            ip if !ip.is_unspecified() => ip,
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        if let Some(thread) = self.accept_thread.take() {
            match TcpStream::connect((ip, self.addr.port())) {
                Ok(_) => drop(thread.join()),
                Err(e) => crate::tc_warn!("obs.listener", "stop: wake-up connect failed: {e}"),
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The accept loop, until `stop` is set: hands each connection `accept`
/// yields to `serve`, once it has seen `stop` unset. `accept` blocks; a
/// failed accept — a peer that reset before it was taken, a process out of
/// file descriptors — waits 1 ms and tries again. Only `stop` ends the
/// loop, so the port stays open for the next peer.
///
/// A run of failures is logged under `target` twice: its first error, and
/// how many there were once an accept succeeds again. Out of descriptors,
/// every retry fails; a line each would flush the flight recorder of what
/// led up to it within seconds.
fn accept_loop<C>(
    stop: &AtomicBool,
    target: &'static str,
    mut accept: impl FnMut() -> std::io::Result<C>,
    mut serve: impl FnMut(C),
) {
    let mut failed = 0u64;
    while let (accepted, false) = (accept(), stop.load(Ordering::Relaxed)) {
        match accepted {
            Ok(conn) => {
                if failed > 0 {
                    crate::tc_warn!(target, "accepting again after {failed} failed accepts");
                    failed = 0;
                }
                serve(conn)
            }
            Err(e) => {
                if failed == 0 {
                    crate::tc_warn!(target, "accept failed: {e}");
                }
                failed += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

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

    /// An idle listener's accept thread sleeps in `accept`: over 300 ms it
    /// is switched out a handful of times at most (a 1 ms poll is ~300).
    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_listener_sleeps_in_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut listener = Listener::spawn(listener, "test", |_| {}).unwrap();
        let name = format!("accept:{}", listener.addr().port());
        // The accept thread's `voluntary_ctxt_switches`, read under /proc.
        let switches = || {
            let tasks = std::fs::read_dir("/proc/self/task").unwrap();
            let named = |task: &std::path::PathBuf| {
                let comm = std::fs::read_to_string(task.join("comm"));
                comm.is_ok_and(|comm| comm.trim_end() == name)
            };
            let task = tasks.map(|t| t.unwrap().path()).find(named)?;
            let status = std::fs::read_to_string(task.join("status")).unwrap();
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
            Some(line.unwrap().trim().parse::<u64>().unwrap())
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let before = loop {
            match switches() {
                Some(n) => break n,
                None if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                None => panic!("no thread named {name}"),
            }
        };
        std::thread::sleep(Duration::from_millis(300));
        let during = switches().unwrap() - before;
        assert!(during <= 5, "{during} switches in 300 ms idle");
        listener.stop();
        assert_eq!(switches(), None, "the accept thread ended");
    }

    /// Connections whose serve threads block in a read all end at the
    /// stop, on both sides.
    #[test]
    fn a_stopped_listener_severs_every_connection_it_accepted() {
        let (ended, ends) = std::sync::mpsc::channel();
        let mut listener = Listener::spawn(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            "test",
            move |stream: Arc<TcpStream>| {
                let read = (&*stream).read(&mut [0]);
                ended.send(read.ok()).unwrap();
            },
        )
        .unwrap();
        let connect = |_| TcpStream::connect(listener.addr()).unwrap();
        let mut clients: Vec<TcpStream> = (0..3).map(connect).collect();
        // Connections are accepted in order: the fourth was served.
        let mut probe = connect(3);
        probe.write_all(b"x").unwrap();
        assert_eq!(ends.recv().unwrap(), Some(1));
        listener.stop();
        for client in &mut clients {
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            match client.read(&mut [0]) {
                Ok(n) => assert_eq!(n, 0),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
            }
            assert_eq!(ends.recv_timeout(Duration::from_secs(5)).unwrap(), Some(0));
        }
    }
}
