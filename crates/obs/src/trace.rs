//! Trace contexts, and per-request stage accounting.
//!
//! A [`TraceContext`] is a `(trace id, span id)` pair. The trace id is
//! minted once per client-visible operation and carried across every
//! hop that operation fans out to — the wire layer encodes it onto
//! outgoing requests and stamps it back into this module's thread-local
//! on the receiving side — so one query's scatter-gather legs and one
//! replicated write's primary+mirror legs all log under the same id.
//!
//! A [`Stage`] names one timed step of the request path. [`stage`] times
//! it into the thread's open *request scope* ([`begin_request`]), a fixed
//! table of a count and a total duration per stage, and with no scope open
//! skips even the clock read, so it is affordable per store op. The scope's
//! holder gets the total and the table from [`RequestScope::finish`].

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A trace identity: which client-visible operation this work belongs to
/// (`trace_id`, process-unique and random), and which hop within it
/// (`span_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Shared by every hop of one traced operation.
    pub trace_id: u128,
    /// This hop's identity within the trace.
    pub span_id: u64,
}

/// The SplitMix64 finalizer: a bijective, full-avalanche 64-bit mix. It
/// spreads a counter into trace ids, fault decisions and shard placements.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-process random seed: wall clock + pid + an ASLR'd address.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let marker: u8 = 0;
        let marker = std::ptr::addr_of!(marker) as u64;
        mix64(nanos) ^ mix64(u64::from(std::process::id())) ^ mix64(marker)
    })
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_span_id() -> u64 {
    mix64(seed() ^ NEXT_ID.fetch_add(1, Ordering::Relaxed))
}

impl TraceContext {
    /// Mints a fresh trace (a new trace id with a root span).
    pub fn new_root() -> TraceContext {
        let a = next_span_id();
        let b = next_span_id();
        TraceContext {
            trace_id: (u128::from(a) << 64) | u128::from(b),
            span_id: next_span_id(),
        }
    }

    /// A child hop of this trace: same trace id, fresh span id.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_span_id(),
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    static SCOPE: RefCell<Option<Stages>> = const { RefCell::new(None) };
}

/// The trace context active on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Sets the thread's trace context, returning a guard that restores the
/// previous one on drop. Pass `None` to clear (e.g. around work that
/// must not inherit the caller's trace).
pub fn set_current(ctx: Option<TraceContext>) -> TraceGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    TraceGuard { prev }
}

/// Restores the previous trace context on drop (see [`set_current`]).
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct TraceGuard {
    prev: Option<TraceContext>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Declares [`Stage`] and each stage's name in the slow-request log.
macro_rules! stages {
    ($($(#[$doc:meta])* $stage:ident = $name:literal,)+) => {
        /// A timed stage of the request path, in path order: a request
        /// scope holds one [`StageTotal`] per stage.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $($(#[$doc])* $stage,)+
        }

        /// The stages' names, by [`Stage`] index.
        const NAMES: &[&str] = &[$($name),+];
    };
}

stages! {
    /// The coordinator splits a request's streams or chunks by shard.
    Route = "route",
    /// One coordinator-to-node exchange, from its frame sent to its reply.
    BackendExchange = "backend.exchange",
    /// A stream's resident state built from its stored records.
    EngineHydrate = "engine.hydrate",
    /// One stream's statistical query on a node.
    EngineQuery = "engine.query",
    /// One shard's ingest run on a node.
    EngineIngest = "engine.ingest",
    /// The index walk of a statistical range query.
    IndexWalk = "index.walk",
    /// One store read of a key.
    StoreGet = "store.get",
    /// One store scan of a prefix, of its values or its keys.
    StoreScan = "store.scan",
    /// One store put.
    StorePut = "store.put",
    /// One store delete.
    StoreDelete = "store.delete",
    /// One store batch of writes.
    StoreBatch = "store.batch",
}

impl Stage {
    /// How many stages there are.
    pub(crate) const COUNT: usize = NAMES.len();
}

/// Aggregated time of one stage within a request scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Completed spans of this stage within the scope.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
}

/// A request scope's table: one [`StageTotal`] per [`Stage`]. Displays
/// the stages that ran, in path order, as `name=Nus/count`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages([StageTotal; Stage::COUNT]);

impl Stages {
    /// The total of one stage.
    pub fn get(&self, stage: Stage) -> StageTotal {
        self.0[stage as usize]
    }
}

impl fmt::Display for Stages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (name, t) in NAMES.iter().zip(&self.0).filter(|(_, t)| t.count > 0) {
            write!(f, "{sep}{name}={}us/{}", t.total_us, t.count)?;
            sep = " ";
        }
        Ok(())
    }
}

/// Opens the thread's request scope, its table reset: until [`finish`]ed
/// (or dropped), completed [`stage`] spans on the thread add into it.
///
/// [`finish`]: RequestScope::finish
#[must_use = "the scope closes (discarding its stages) when dropped"]
pub fn begin_request() -> RequestScope {
    SCOPE.set(Some(Stages::default()));
    RequestScope {
        start: Instant::now(),
    }
}

/// An open request scope (see [`begin_request`]); dropping it closes it.
pub struct RequestScope {
    start: Instant,
}

impl RequestScope {
    /// Closes the scope: returns the total elapsed time and the table.
    pub fn finish(self) -> (Duration, Stages) {
        (self.start.elapsed(), SCOPE.take().unwrap_or_default())
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        SCOPE.set(None);
    }
}

/// An in-flight timing span; adds into its stage's slot on drop.
#[must_use = "a span measures until dropped"]
pub struct Span {
    /// `None` when no scope was open: nothing to add into.
    start: Option<Instant>,
    stage: Stage,
}

/// Times `stage` into the thread's request scope (see [`begin_request`]).
/// Free — one thread-local read, not even a clock read — when no scope is
/// open, so it is safe at store-op granularity.
pub fn stage(stage: Stage) -> Span {
    Span {
        start: SCOPE.with_borrow(Option::is_some).then(Instant::now),
        stage,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let us = start.elapsed().as_micros() as u64;
        SCOPE.with_borrow_mut(|scope| {
            if let Some(Stages(totals)) = scope {
                let t = &mut totals[self.stage as usize];
                t.count += 1;
                t.total_us += us;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_child_ids() {
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        assert_ne!(a.trace_id, b.trace_id);
        let child = a.child();
        assert_eq!(child.trace_id, a.trace_id);
        assert_ne!(child.span_id, a.span_id);
    }

    #[test]
    fn guard_restores_previous_context() {
        let outer = TraceContext::new_root();
        let _g = set_current(Some(outer));
        {
            let inner = TraceContext::new_root();
            let _g2 = set_current(Some(inner));
            assert_eq!(current(), Some(inner));
        }
        assert_eq!(current(), Some(outer));
    }

    #[test]
    fn stages_aggregate_into_the_scope() {
        let scope = begin_request();
        for _ in 0..3 {
            let _s = stage(Stage::StoreGet);
        }
        {
            let _s = stage(Stage::EngineQuery);
        }
        let (_, stages) = scope.finish();
        assert_eq!(stages.get(Stage::StoreGet).count, 3);
        assert_eq!(stages.get(Stage::EngineQuery).count, 1);
        assert_eq!(stages.get(Stage::Route), StageTotal::default());
    }

    #[test]
    fn a_finished_scope_renders_the_stages_that_ran_in_path_order() {
        let scope = begin_request();
        for s in [Stage::StoreBatch, Stage::StoreBatch, Stage::Route] {
            let _s = stage(s);
        }
        let (_, stages) = scope.finish();
        let (route, batch) = (stages.get(Stage::Route), stages.get(Stage::StoreBatch));
        let want = format!(
            "route={}us/1 store.batch={}us/2",
            route.total_us, batch.total_us
        );
        assert_eq!(stages.to_string(), want);
        assert_eq!(NAMES.len(), Stage::StoreBatch as usize + 1);
    }

    #[test]
    fn stage_without_scope_is_disabled() {
        let s = stage(Stage::StoreGet);
        assert!(s.start.is_none(), "no scope: the span skips the clock");
    }

    #[test]
    fn dropping_a_scope_clears_it_and_the_next_stage_reads_no_clock() {
        {
            let _scope = begin_request();
            assert!(stage(Stage::IndexWalk).start.is_some());
        }
        assert!(SCOPE.with_borrow(Option::is_none));
        assert!(stage(Stage::IndexWalk).start.is_none());
    }
}
