//! Tiny measurement helpers for the harness binaries: these drive the
//! paper-shaped tables. The repo benchmark (`benchmark/`) times the
//! deployment and its per-layer probes.

use std::time::{Duration, Instant};

/// Runs `f` `iters` times and returns the mean duration.
pub fn time_avg<F: FnMut()>(iters: u64, mut f: F) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters.max(1) as u32
}

/// A simple start/stop timer.
pub struct Timer(Instant);

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

impl Timer {
    /// Starts now.
    pub fn new() -> Self {
        Timer(Instant::now())
    }

    /// Elapsed time.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Human-friendly duration (ns/µs/ms/s auto-scaled), for table cells.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Human-friendly byte size.
pub fn format_bytes(b: usize) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(format_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(format_duration(Duration::from_micros(16)), "16.00µs");
        assert_eq!(format_duration(Duration::from_millis(42)), "42.00ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(format_bytes(10), "10B");
        assert_eq!(format_bytes(8 * 1024 * 1024), "8.0MB");
    }

    #[test]
    fn time_avg_counts() {
        let mut n = 0u64;
        let _ = time_avg(10, || n += 1);
        assert_eq!(n, 10);
    }
}
