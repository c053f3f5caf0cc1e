//! [`FaultyTransport`]: an in-process TCP proxy that injects transport
//! faults per length-prefixed frame.
//!
//! The proxy sits between a `ClientPool` and a node: it accepts on an
//! ephemeral port, dials the upstream for every accepted connection, and
//! pumps frames in both directions, consulting the [`FaultPlan`] for each
//! frame. Because it parses the same `u32 le length || body` framing the
//! wire crate uses, faults land on *message* boundaries — a dropped frame
//! is a lost request or reply, not a byte-level corruption TCP would
//! retransmit around.
//!
//! Frame counters are per connection and per direction, so a plan's
//! `Nth`-style triggers replay under single-connection drivers.

use crate::plan::{FaultPlan, NetDirection, NetFault, PlanSlot};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use timecrypt_obs::{accept_loop, tc_debug};
use timecrypt_wire::frame::{PREFIX_LEN, READ_AHEAD};
use timecrypt_wire::MAX_FRAME;

/// Poll granularity for noticing `stop()`/plan swaps while blocked in a
/// socket read.
const TICK: Duration = Duration::from_millis(25);

type SharedPlan = Arc<PlanSlot>;

/// Fault-injecting TCP proxy; see the module docs.
pub struct FaultyTransport {
    local: SocketAddr,
    plan: SharedPlan,
    stop_flag: Arc<AtomicBool>,
    accepter: Option<thread::JoinHandle<()>>,
}

impl FaultyTransport {
    /// Starts a proxy on an ephemeral localhost port, forwarding to
    /// `upstream` under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared: SharedPlan = Arc::new(PlanSlot::new(plan));
        let stop_flag = Arc::new(AtomicBool::new(false));
        let accepter = {
            let shared = Arc::clone(&shared);
            let stop_flag = Arc::clone(&stop_flag);
            thread::spawn(move || {
                let accept = || listener.accept().map(|(client, _)| client);
                accept_loop(&stop_flag, "faults.net", accept, |client| {
                    if let Err(e) = splice(client, upstream, &shared, &stop_flag) {
                        tc_debug!("faults.net", "proxy conn setup failed: {e}");
                    }
                })
            })
        };
        Ok(FaultyTransport {
            local,
            plan: shared,
            stop_flag,
            accepter: Some(accepter),
        })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.local
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

    /// Stops accepting and tears down pump threads (connections sever).
    pub fn stop(&mut self) {
        self.stop_flag.store(true, Ordering::Relaxed);
        if let Some(h) = self.accepter.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultyTransport {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Dials the upstream and spawns one pump thread per direction.
fn splice(
    client: TcpStream,
    upstream: SocketAddr,
    plan: &SharedPlan,
    stop_flag: &Arc<AtomicBool>,
) -> io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    client.set_read_timeout(Some(TICK))?;
    server.set_read_timeout(Some(TICK))?;
    let c2s = (client.try_clone()?, server.try_clone()?);
    let s2c = (server, client);
    for (dir, (from, to)) in [(NetDirection::ToServer, c2s), (NetDirection::ToClient, s2c)] {
        let plan = Arc::clone(plan);
        let stop_flag = Arc::clone(stop_flag);
        thread::spawn(move || pump(from, to, dir, plan, stop_flag));
    }
    Ok(())
}

/// Forwards frames `from` → `to`, applying the plan per frame. Exits on
/// EOF, stop, sever, or peer error; always shuts both streams down so the
/// sibling pump exits too.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    dir: NetDirection,
    plan: SharedPlan,
    stop_flag: Arc<AtomicBool>,
) {
    let mut index = 0u64;
    let mut swallowing = false;
    while let Ok(Some(frame)) = read_frame_interruptible(&mut from, &stop_flag) {
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
        // Prefix and body in one write: two would be two segments under
        // `TCP_NODELAY`.
        if to.write_all(&frame).and_then(|()| to.flush()).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Reads one `u32 le length || body` frame whole, prefix included,
/// retrying on read-timeout ticks (preserving partial state) so a blocked
/// pump can notice `stop`. `Ok(None)` on clean EOF at a frame boundary. The
/// length is the peer's claim, so the frame grows as bytes come, as
/// `read_frame` grows a body: [`READ_AHEAD`] at most before any arrived,
/// then doubling.
fn read_frame_interruptible(
    from: &mut TcpStream,
    stop_flag: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; PREFIX_LEN];
    if !fill(from, &mut prefix, stop_flag, true)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::other("proxy: oversized frame"));
    }
    let total = PREFIX_LEN + len;
    let mut frame = Vec::with_capacity(total.min(READ_AHEAD));
    frame.extend_from_slice(&prefix);
    while frame.len() < total {
        let filled = frame.len();
        let end = total.min(2 * filled.max(READ_AHEAD / 2));
        frame.reserve_exact(end - filled);
        frame.resize(end, 0);
        fill(from, &mut frame[filled..], stop_flag, false)?;
    }
    Ok(Some(frame))
}

/// Fills `buf`, tolerating timeout ticks. Returns `Ok(false)` on EOF
/// before the first byte when `eof_ok` (clean close), `Err` otherwise.
fn fill(
    from: &mut TcpStream,
    buf: &mut [u8],
    stop_flag: &AtomicBool,
    eof_ok: bool,
) -> io::Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        if stop_flag.load(Ordering::Relaxed) {
            return Err(io::Error::other("proxy stopping"));
        }
        match from.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && eof_ok {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_wire::{read_frame, write_frame};

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
}
