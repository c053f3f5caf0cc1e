//! Trace contexts, RAII timing spans, and per-request stage accounting.
//!
//! A [`TraceContext`] is a `(trace id, span id)` pair. The trace id is
//! minted once per client-visible operation and carried across every
//! hop that operation fans out to — the wire layer encodes it onto
//! outgoing requests and stamps it back into this module's thread-local
//! on the receiving side — so one query's scatter-gather legs and one
//! replicated write's primary+mirror legs all log under the same id.
//!
//! Two span flavors with different costs:
//!
//! - [`stage`] aggregates into the thread's active *request scope* (see
//!   [`begin_request`]): per stage name, a count and a total duration.
//!   When no scope is active on the thread it skips even the clock
//!   read, which is what makes store-op granularity affordable.
//! - [`span`] additionally emits a `Debug` event on completion (with the
//!   current trace context attached), feeding the flight recorder — one
//!   per request/leg, not per store op.
//!
//! The request scope is what the slow-request log renders: the caller
//! holding the scope calls [`RequestScope::finish`] and gets the total
//! plus the per-stage breakdown.

use std::cell::{Cell, RefCell};
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
    static SCOPE: RefCell<Option<Vec<StageTotal>>> = const { RefCell::new(None) };
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

/// Aggregated time of one stage within a request scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTotal {
    /// Stage name (`"engine.query"`, `"store.get"`, ...).
    pub stage: &'static str,
    /// Completed spans of this stage within the scope.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
}

/// Opens a request scope on this thread: until [`finish`]ed (or
/// dropped), completed [`stage`]/[`span`] spans on the thread aggregate
/// into it. Scopes nest — an inner scope shadows the outer one and
/// restores it on drop.
///
/// [`finish`]: RequestScope::finish
#[must_use = "the scope closes (discarding its stages) when dropped"]
pub fn begin_request() -> RequestScope {
    let prev = SCOPE.with(|s| s.replace(Some(Vec::with_capacity(8))));
    RequestScope {
        prev: Some(prev),
        start: Instant::now(),
    }
}

/// An open request scope (see [`begin_request`]).
pub struct RequestScope {
    /// The shadowed outer scope; `Some` until finish/drop restores it.
    #[allow(clippy::option_option)]
    prev: Option<Option<Vec<StageTotal>>>,
    start: Instant,
}

impl RequestScope {
    /// Closes the scope: restores the shadowed outer scope and returns
    /// the total elapsed time plus the per-stage breakdown (in first-
    /// completion order).
    pub fn finish(mut self) -> (Duration, Vec<StageTotal>) {
        let data = SCOPE.with(|s| s.replace(self.prev.take().expect("scope finished once")));
        (self.start.elapsed(), data.unwrap_or_default())
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
}

/// Is a request scope active on this thread?
fn scope_active() -> bool {
    SCOPE.with(|s| s.borrow().is_some())
}

/// An in-flight timing span; records on drop.
#[must_use = "a span measures until dropped"]
pub struct Span {
    /// `None` when recording would go nowhere (no scope, no event).
    start: Option<Instant>,
    stage: &'static str,
    /// Emit a `Debug` event on completion under this target.
    event_target: Option<&'static str>,
}

/// A scope-only span: aggregates into the thread's request scope (see
/// [`begin_request`]). Free — not even a clock read — when no scope is
/// active, so it is safe at store-op granularity.
pub fn stage(name: &'static str) -> Span {
    Span {
        start: scope_active().then(Instant::now),
        stage: name,
        event_target: None,
    }
}

/// A logging span: aggregates like [`stage`] *and* emits a `Debug` event
/// on completion (carrying the thread's trace context). One per
/// request or scatter-gather leg, not per store op.
pub fn span(target: &'static str, name: &'static str) -> Span {
    let event = crate::log::enabled(crate::Level::Debug, target);
    Span {
        start: (event || scope_active()).then(Instant::now),
        stage: name,
        event_target: event.then_some(target),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let us = start.elapsed().as_micros() as u64;
        SCOPE.with(|s| {
            let mut scope = s.borrow_mut();
            let Some(stages) = scope.as_mut() else { return };
            match stages.iter_mut().find(|t| t.stage == self.stage) {
                Some(t) => {
                    t.count += 1;
                    t.total_us += us;
                }
                None => stages.push(StageTotal {
                    stage: self.stage,
                    count: 1,
                    total_us: us,
                }),
            }
        });
        if let Some(target) = self.event_target {
            crate::log::log(
                crate::Level::Debug,
                target,
                format!("span {} us={us}", self.stage),
            );
        }
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
            let _s = stage("store.get");
        }
        {
            let _s = stage("engine.query");
        }
        let (_, stages) = scope.finish();
        let get = stages.iter().find(|t| t.stage == "store.get").unwrap();
        assert_eq!(get.count, 3);
        assert_eq!(
            stages
                .iter()
                .find(|t| t.stage == "engine.query")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn stage_without_scope_is_disabled() {
        let s = stage("noop");
        assert!(s.start.is_none(), "no scope: the span skips the clock");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = begin_request();
        {
            let _o = stage("outer.work");
            let inner = begin_request();
            {
                let _i = stage("inner.work");
            }
            let (_, inner_stages) = inner.finish();
            assert_eq!(inner_stages.len(), 1);
            assert_eq!(inner_stages[0].stage, "inner.work");
        }
        let (_, outer_stages) = outer.finish();
        // outer.work completed after the inner scope closed, so it landed
        // in the restored outer scope.
        assert_eq!(outer_stages.len(), 1);
        assert_eq!(outer_stages[0].stage, "outer.work");
    }

    #[test]
    fn dropping_a_scope_restores_the_outer_one() {
        let outer = begin_request();
        {
            let _inner = begin_request();
        } // dropped without finish
        {
            let _s = stage("after.drop");
        }
        let (_, stages) = outer.finish();
        assert_eq!(stages.len(), 1, "outer scope still records after drop");
    }
}
