//! The allocation guards' counting allocator, installed by each binary's
//! own `#[global_allocator]`. Per thread, it counts calls and the bytes live
//! as glibc's malloc sets them aside (an 8-byte header, 16-byte granules, 32
//! at least), so tests running side by side do not disturb each other.

#![allow(dead_code)] // each binary reads what it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator: `System`, counted.
pub struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// What malloc sets aside for a request of `size` bytes.
fn chunk(size: usize) -> isize {
    ((size + 8).next_multiple_of(16)).max(32) as isize
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local integers without destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.set(LIVE.get() + chunk(layout.size()));
        CALLS.set(CALLS.get() + 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - chunk(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.set(LIVE.get() - chunk(layout.size()) + chunk(new_size));
        CALLS.set(CALLS.get() + 1);
        System.realloc(ptr, layout, new_size)
    }
}

/// `alloc` and `realloc` calls this thread has made.
pub fn calls() -> u64 {
    CALLS.get()
}

/// Bytes this thread allocated and has not freed.
pub fn live() -> isize {
    LIVE.get()
}

/// Allocator calls `f` makes on this thread, and what it returned.
pub fn calls_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = calls();
    let out = f();
    (calls() - before, out)
}
