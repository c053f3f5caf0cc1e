//! [`FaultyTransport`]: an in-process TCP proxy that injects transport
//! faults per length-prefixed frame.
//!
//! The proxy sits between a `ClientPool` and a node: it accepts on an
//! ephemeral port (a `timecrypt_obs::Listener`), dials the upstream for
//! every accepted connection, and pumps frames in both directions,
//! consulting the [`FaultPlan`] for each frame. Because it reads them with
//! the wire crate's own `read_frame`, faults land on *message* boundaries —
//! a dropped frame is a lost request or reply, not a byte-level corruption
//! TCP would retransmit around. A pump blocks in its read; a stop severs
//! the client sockets, and a pump whose socket ends shuts its twin's down.
//!
//! Frame counters are per connection and per direction, so a plan's
//! `Nth`-style triggers replay under single-connection drivers.

use crate::plan::{FaultPlan, NetDirection, NetFault, PlanSlot};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use timecrypt_obs::{tc_debug, Listener};
use timecrypt_wire::{read_frame, write_frame};

/// Fault-injecting TCP proxy; see the module docs.
pub struct FaultyTransport {
    listener: Listener,
    plan: Arc<PlanSlot>,
}

impl FaultyTransport {
    /// Starts a proxy on an ephemeral localhost port, forwarding to
    /// `upstream` under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let plan = Arc::new(PlanSlot::new(plan));
        let shared = Arc::clone(&plan);
        let bound = TcpListener::bind("127.0.0.1:0")?;
        let listener = Listener::spawn(bound, "faults.net", move |client| {
            if let Err(e) = splice(client, upstream, &shared) {
                tc_debug!("faults.net", "proxy conn setup failed: {e}");
            }
        })?;
        Ok(FaultyTransport { listener, plan })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Replaces the schedule for frames not yet forwarded (existing
    /// connections pick it up on their next frame).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.plan.set(plan);
    }

    /// Convenience: from now on swallow every client → server frame while
    /// keeping connections open — the "accepts but never replies" hang.
    pub fn black_hole(&self) {
        self.set_plan(FaultPlan::quiet().with_net_rule(crate::plan::NetRule {
            direction: Some(NetDirection::ToServer),
            when: crate::plan::Trigger::EveryNth(1),
            fault: NetFault::BlackHole,
        }));
    }

    /// Stops accepting and severs every client connection; its pumps end.
    pub fn stop(&mut self) {
        self.listener.stop();
    }
}

/// Dials the upstream and pumps frames both ways: to the client on a
/// thread of its own, to the server on this one. Both pumps hold the
/// client's `Arc`, so a stop severs the connection while either runs.
fn splice(client: Arc<TcpStream>, upstream: SocketAddr, plan: &Arc<PlanSlot>) -> io::Result<()> {
    let server = Arc::new(TcpStream::connect(upstream)?);
    let back = (Arc::clone(&server), Arc::clone(&client), Arc::clone(plan));
    thread::spawn(move || pump(&back.0, &back.1, NetDirection::ToClient, &back.2));
    pump(&client, &server, NetDirection::ToServer, plan);
    Ok(())
}

/// Forwards frames `from` → `to`, applying the plan per frame, until
/// `from` ends (EOF, a sever, the proxy's stop) or a write fails; then
/// shuts both down, so the twin pump ends too.
fn pump(mut from: &TcpStream, mut to: &TcpStream, dir: NetDirection, plan: &PlanSlot) {
    let mut index = 0u64;
    let mut swallowing = false;
    while let Ok(frame) = read_frame(&mut from) {
        let decision = plan.get().net_fault(dir, index).cloned();
        index += 1;
        if swallowing {
            continue;
        }
        match decision {
            Some(NetFault::Drop) => continue,
            Some(NetFault::Delay(d)) => thread::sleep(d),
            Some(NetFault::BlackHole) => {
                swallowing = true;
                continue;
            }
            Some(NetFault::Sever) => break,
            None => {}
        }
        if write_frame(&mut to, &frame).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_wire::frame::{PREFIX_LEN, READ_AHEAD};

    #[test]
    fn frames_longer_than_the_read_ahead_arrive_whole() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy =
            FaultyTransport::spawn(upstream.local_addr().unwrap(), FaultPlan::quiet()).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let (mut server, _) = upstream.accept().unwrap();
        for len in [
            0,
            1,
            READ_AHEAD - PREFIX_LEN,
            READ_AHEAD,
            5 * READ_AHEAD / 2,
        ] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            write_frame(&mut client, &body).unwrap();
            assert_eq!(read_frame(&mut server).unwrap(), body, "{len} B");
        }
    }

    #[test]
    fn dropping_a_black_holing_proxy_ends_the_clients_connection() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy =
            FaultyTransport::spawn(upstream.local_addr().unwrap(), FaultPlan::quiet()).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let _server = upstream.accept().unwrap();
        proxy.black_hole();
        write_frame(&mut client, b"swallowed").unwrap();
        let patience = std::time::Duration::from_secs(10);
        client.set_read_timeout(Some(patience)).unwrap();
        let start = std::time::Instant::now();
        drop(proxy);
        match read_frame(&mut client) {
            Err(timecrypt_wire::frame::FrameError::Closed) => {}
            Err(timecrypt_wire::frame::FrameError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionReset)
            }
            other => panic!("{other:?}"),
        }
        assert!(start.elapsed() < patience / 4, "{:?}", start.elapsed());
    }
}
