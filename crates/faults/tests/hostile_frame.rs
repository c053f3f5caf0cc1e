//! A frame's length prefix is the peer's claim: the fault proxy allocates
//! for the bytes that arrive, not for the claim. The binary's allocator
//! records the largest single request the process makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use timecrypt_faults::{FaultPlan, FaultyTransport};
use timecrypt_wire::frame::READ_AHEAD;
use timecrypt_wire::MAX_FRAME;

/// `System`, recording the largest block asked of it.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the record is a
// plain atomic.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn a_prefix_claiming_max_frame_then_eof_allocates_read_ahead_and_closes() {
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = FaultyTransport::spawn(upstream.local_addr().unwrap(), FaultPlan::quiet()).unwrap();
    let mut client = TcpStream::connect(proxy.addr()).unwrap();
    // The proxy dials the upstream once it accepted the client.
    let (_server, _) = upstream.accept().unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    client.write_all(&(MAX_FRAME as u32).to_le_bytes()).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    // The proxy closes the connection: end of stream, not a reply.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    match client.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= READ_AHEAD, "largest block {largest} B");
}
