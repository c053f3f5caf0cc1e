//! Structured leveled logging with a bounded in-memory flight recorder.
//!
//! One process-global [`Logger`] owns two sinks with independent level
//! gates:
//!
//! - **stderr**, human-readable, filtered by the `TC_LOG` environment
//!   variable (default `info`). `TC_LOG` takes a default level plus
//!   optional per-target overrides: `TC_LOG=info,wire=debug,node=trace`.
//!   `off` silences a target (or everything).
//! - a **ring buffer** of the most recent 2 048 events, kept at `debug`
//!   and above so span events are available for post-mortem dumps even
//!   when stderr is quiet.
//!   [`dump`] returns the buffered events oldest-first;
//!   [`install_panic_hook`] replays them to stderr when a thread panics.
//!
//! Writers never block on the ring: each slot is claimed with one atomic
//! ticket and written under a `try_lock` — a writer that loses the race
//! (a concurrent dump holding the slot, or a lapping writer) drops the
//! event and bumps [`DROPPED_EVENTS`](crate::counters::DROPPED_EVENTS) instead.

use crate::trace::{self, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Finest-grained spans and per-operation detail.
    Trace = 0,
    /// Per-request spans and diagnostics (the least the ring buffer keeps).
    Debug = 1,
    /// Lifecycle events (stderr default).
    Info = 2,
    /// Degraded but functioning (slow requests, failovers).
    Warn = 3,
    /// Errors.
    Error = 4,
}

/// One level past `Error`: nothing passes. The parsed form of `off`.
const LEVEL_OFF: u8 = 5;

/// Parses a level name; `off` maps to [`LEVEL_OFF`], unknown to `None`.
fn parse_level(s: &str) -> Option<u8> {
    Some(match s.trim().to_ascii_lowercase().as_str() {
        "trace" => 0,
        "debug" => 1,
        "info" => 2,
        "warn" | "warning" => 3,
        "error" => 4,
        "off" | "none" => LEVEL_OFF,
        _ => return None,
    })
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Component that emitted the event (`"node"`, `"wire"`, ...).
    pub target: &'static str,
    /// Trace context active on the emitting thread, if any.
    pub trace: Option<TraceContext>,
    /// Preformatted message (conventionally `text key=value ...`).
    pub msg: String,
}

impl Event {
    /// Renders the event the way the stderr sink prints it.
    pub fn render(&self) -> String {
        let secs = self.ts_ms / 1000;
        let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
        let ms = self.ts_ms % 1000;
        let label = ["TRACE", "DEBUG", "INFO ", "WARN ", "ERROR"][self.level as usize];
        let (target, msg) = (self.target, &self.msg);
        let trace = (self.trace).map_or(String::new(), |t| {
            format!(" trace={:032x}/{:016x}", t.trace_id, t.span_id)
        });
        format!("{h:02}:{m:02}:{s:02}.{ms:03} {label} {target}: {msg}{trace}")
    }
}

/// The flight recorder: a fixed ring of `(sequence, event)` slots.
struct Ring {
    slots: Vec<Mutex<Option<(u64, Event)>>>,
    next: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    fn push(&self, event: Event) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => *guard = Some((seq, event)),
            Err(_) => crate::counters::DROPPED_EVENTS.inc(),
        }
    }

    fn dump(&self) -> Vec<Event> {
        let mut entries: Vec<(u64, Event)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().ok().and_then(|g| g.clone()))
            .collect();
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, e)| e).collect()
    }
}

/// The process-global logger.
pub struct Logger {
    stderr_level: u8,
    /// `(target prefix, level)` overrides from `TC_LOG`, longest first.
    overrides: Vec<(String, u8)>,
    ring: Ring,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// The least level the flight recorder keeps.
const RING_LEVEL: Level = Level::Debug;

/// The flight recorder's capacity, in events.
const RING_CAPACITY: usize = 2048;

fn logger() -> &'static Logger {
    LOGGER.get_or_init(|| {
        let spec = std::env::var("TC_LOG").unwrap_or_default();
        let mut default_level = Level::Info as u8;
        let mut overrides = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(l) = parse_level(level) {
                        overrides.push((target.trim().to_string(), l));
                    }
                }
                None => {
                    if let Some(l) = parse_level(part) {
                        default_level = l;
                    }
                }
            }
        }
        // Longest prefix first so `wire.pool` beats `wire`.
        overrides.sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
        Logger {
            stderr_level: default_level,
            overrides,
            ring: Ring::new(RING_CAPACITY),
        }
    })
}

/// The stderr threshold for `target`, honoring `TC_LOG` overrides.
fn stderr_threshold(l: &Logger, target: &str) -> u8 {
    for (prefix, level) in &l.overrides {
        if target.starts_with(prefix.as_str()) {
            return *level;
        }
    }
    l.stderr_level
}

/// Would an event at `level` for `target` be recorded by either sink?
/// The [`tc_log!`](crate::tc_log) macros call this before evaluating
/// their format arguments.
pub fn enabled(level: Level, target: &str) -> bool {
    let l = logger();
    let v = level as u8;
    v >= stderr_threshold(l, target) || v >= RING_LEVEL as u8
}

/// Records one event: into the ring if it passes the ring level, onto
/// stderr if it passes the `TC_LOG` filter. The thread's current trace
/// context is attached automatically.
pub fn log(level: Level, target: &'static str, msg: String) {
    let l = logger();
    let event = Event {
        ts_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        level,
        target,
        trace: trace::current(),
        msg,
    };
    if (level as u8) >= stderr_threshold(l, target) {
        eprintln!("{}", event.render());
    }
    if level >= RING_LEVEL {
        l.ring.push(event);
    }
}

/// Snapshot of the flight recorder, oldest event first.
pub fn dump() -> Vec<Event> {
    logger().ring.dump()
}

/// Chains a panic hook that replays the flight recorder to stderr after
/// the default hook ran — the crash report carries the events (and trace
/// ids) leading up to the panic. Installing twice stacks harmlessly.
pub fn install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev(info);
        let events = dump();
        eprintln!("--- flight recorder: last {} event(s) ---", events.len());
        for e in events {
            eprintln!("{}", e.render());
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The logger is process-global, so these tests share state; each one
    // only asserts on events it can identify by target/content.

    #[test]
    fn ring_keeps_most_recent_events() {
        let ring = Ring::new(4);
        for i in 0..10u64 {
            ring.push(Event {
                ts_ms: i,
                level: Level::Info,
                target: "test",
                trace: None,
                msg: format!("event-{i}"),
            });
        }
        let events = ring.dump();
        assert_eq!(events.len(), 4);
        let msgs: Vec<&str> = events.iter().map(|e| e.msg.as_str()).collect();
        assert_eq!(msgs, ["event-6", "event-7", "event-8", "event-9"]);
    }

    #[test]
    fn ring_drops_instead_of_blocking() {
        let ring = Ring::new(1);
        let dropped = crate::counters::DROPPED_EVENTS.get();
        let _held = ring.slots[0].lock().unwrap();
        ring.push(Event {
            ts_ms: 0,
            level: Level::Info,
            target: "test",
            trace: None,
            msg: "lost".into(),
        });
        assert!(crate::counters::DROPPED_EVENTS.get() > dropped);
    }

    #[test]
    fn level_parsing_and_order() {
        assert!(Level::Trace < Level::Debug && Level::Warn < Level::Error);
        assert_eq!(parse_level("WARN"), Some(3));
        assert_eq!(parse_level("off"), Some(LEVEL_OFF));
        assert_eq!(parse_level("verbose"), None);
    }

    #[test]
    fn logged_events_reach_the_ring() {
        // Below the default stderr level: the test output stays clean.
        log(Level::Debug, "log-test", "hello count=2".into());
        let events = dump();
        assert!(events
            .iter()
            .any(|e| e.target == "log-test" && e.msg == "hello count=2"));
    }

    #[test]
    fn render_includes_level_target_and_trace() {
        let e = Event {
            ts_ms: 3_661_042, // 01:01:01.042
            level: Level::Warn,
            target: "node",
            trace: Some(TraceContext {
                trace_id: 0xabc,
                span_id: 0x1,
            }),
            msg: "slow".into(),
        };
        let text = e.render();
        assert!(text.starts_with("01:01:01.042 WARN  node: slow"), "{text}");
        assert!(text.contains("trace=00000000000000000000000000000abc/"));
    }
}
