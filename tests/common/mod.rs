//! The allocation guards' counting allocator, installed by each binary's
//! own `#[global_allocator]`. Per thread, it counts calls, the bytes live
//! and the bytes freed as glibc's malloc sets them aside (an 8-byte header,
//! 16-byte granules, 32 at least), so tests running side by side do not
//! disturb each other. And [`ledger`], which compares a guard's rows with
//! the root `BENCH_ledger.json`; [`Deployment`], every tier a test runs
//! on, built from a [`Spec`]; [`sealed`], the chunks they feed it; and
//! [`history`], the generated request histories, checked against
//! [`model`].

#![allow(dead_code)] // each binary reads what it needs

mod deploy;
pub mod history;
pub mod model;
mod recording;
mod streams;

#[allow(unused_imports)] // each binary reads what it needs
pub use deploy::*;
#[allow(unused_imports)]
pub use recording::*;
#[allow(unused_imports)]
pub use streams::*;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// The counting allocator: `System`, counted.
pub struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
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
        FREED.set(FREED.get() + chunk(layout.size()) as u64);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.set(LIVE.get() - chunk(layout.size()) + chunk(new_size));
        // The old block is freed, whether or not it grew in place.
        FREED.set(FREED.get() + chunk(layout.size()) as u64);
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

/// Bytes this thread has freed: each `dealloc`'s block, and the old block
/// of each `realloc`.
pub fn freed() -> u64 {
    FREED.get()
}

/// Allocator calls `f` makes on this thread, and what it returned.
pub fn calls_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = calls();
    let out = f();
    (calls() - before, out)
}

/// Checks `rows` against `BENCH_ledger.json` exactly, or with `TC_BLESS`
/// set writes them into it; prints each row.
pub fn ledger(rows: &[(String, String)]) {
    // The tests of one binary share the file.
    static FILE: Mutex<()> = Mutex::new(());
    let _file = FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ledger.json");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let row = |line: &str| {
        let (name, value) = line.trim().trim_end_matches(',').split_once(": ")?;
        Some((name.trim_matches('"').to_string(), value.to_string()))
    };
    let mut committed: BTreeMap<String, String> = text.lines().filter_map(row).collect();
    let measured: Vec<_> = rows.iter().map(|(n, v)| format!("{n}: {v}")).collect();
    measured.iter().for_each(|row| println!("ledger row {row}"));
    if std::env::var_os("TC_BLESS").is_some() {
        committed.extend(rows.iter().cloned());
        let lines = committed.iter().map(|(n, v)| format!("  \"{n}\": {v}"));
        let lines: Vec<_> = lines.collect();
        std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n"))).unwrap();
        return;
    }
    let held = rows
        .iter()
        .map(|(n, _)| format!("{n}: {}", committed.get(n).map_or("-", String::as_str)));
    let held: Vec<_> = held.collect();
    assert_eq!(
        held, measured,
        "committed, measured (TC_BLESS=1 rewrites the file)"
    );
}
