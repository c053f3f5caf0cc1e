//! Observability primitives for the TimeCrypt reproduction: structured
//! leveled logging with a bounded in-memory flight recorder, trace
//! contexts with RAII timing spans, and Prometheus-text metrics
//! exposition over a minimal HTTP/1.0 listener.
//!
//! The crate is std-only and dependency-free by design (builds run with
//! crates.io unreachable) and is shared by every layer: the wire
//! transport stamps incoming trace contexts, the service tier opens
//! per-stage spans, and the node binary logs through it instead of
//! ad-hoc `eprintln!`s.
//!
//! # Overhead discipline
//!
//! Everything here is built so that *disabled is (nearly) free*:
//!
//! - events below both the stderr filter (`TC_LOG`) and the ring-buffer
//!   level never format their message (the [`tc_log!`] family checks
//!   [`log::enabled`] before evaluating format arguments);
//! - [`trace::stage`] spans read one thread-local and skip the clock
//!   when no request scope is active on the thread;
//! - trace propagation adds bytes to a request frame only when a trace
//!   context is actually attached — with tracing off, encoded requests
//!   are byte-identical to an uninstrumented build.
//!
//! ```
//! use timecrypt_obs::{tc_info, trace};
//!
//! // Leveled, structured logging (stderr gated by TC_LOG; a bounded
//! // ring buffer keeps recent events for post-mortem dumps).
//! tc_info!("example", "service up port={} shards={}", 7070, 4);
//!
//! // Trace context + spans: everything recorded under `ctx` shares
//! // one trace id.
//! let ctx = trace::TraceContext::new_root();
//! let _guard = trace::set_current(Some(ctx));
//! let scope = trace::begin_request();
//! {
//!     let _walk = trace::stage("index.walk");
//!     // ... work ...
//! }
//! let (total, stages) = scope.finish();
//! assert_eq!(stages.len(), 1);
//! assert!(total >= stages[0].total());
//! ```

pub mod counters;
pub mod http;
pub mod log;
pub mod prom;
pub mod rank;
pub mod trace;

pub use http::HttpServer;
pub use log::{Event, Level};
pub use trace::TraceContext;

/// Logs at an explicit [`Level`]; the format arguments are not evaluated
/// unless the event passes the level filters.
#[macro_export]
macro_rules! tc_log {
    ($lvl:expr, $target:expr, $($arg:tt)+) => {
        if $crate::log::enabled($lvl, $target) {
            $crate::log::log($lvl, $target, ::std::format!($($arg)+));
        }
    };
}

/// Logs an error event (`target`, then `format!` arguments).
#[macro_export]
macro_rules! tc_error {
    ($target:expr, $($arg:tt)+) => { $crate::tc_log!($crate::Level::Error, $target, $($arg)+) };
}

/// Logs a warning event.
#[macro_export]
macro_rules! tc_warn {
    ($target:expr, $($arg:tt)+) => { $crate::tc_log!($crate::Level::Warn, $target, $($arg)+) };
}

/// Logs an info event.
#[macro_export]
macro_rules! tc_info {
    ($target:expr, $($arg:tt)+) => { $crate::tc_log!($crate::Level::Info, $target, $($arg)+) };
}

/// Logs a debug event.
#[macro_export]
macro_rules! tc_debug {
    ($target:expr, $($arg:tt)+) => { $crate::tc_log!($crate::Level::Debug, $target, $($arg)+) };
}

/// Logs a trace event.
#[macro_export]
macro_rules! tc_trace {
    ($target:expr, $($arg:tt)+) => { $crate::tc_log!($crate::Level::Trace, $target, $($arg)+) };
}
