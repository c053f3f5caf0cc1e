//! Core data model: points, streams, and the time→chunk mapping (§2, §4.3).

use std::num::NonZeroU64;

/// Stream identifier (the paper's UUID).
pub type StreamId = u128;

/// Index of a chunk within its stream — also its keystream position (§4.3).
pub type ChunkId = u64;

/// A single time series data point `p_i = (v_i, t_i)`.
///
/// Values are signed 64-bit integers; fixed-point encodings (e.g. milli-BPM
/// for heart rate) are the application's responsibility, matching the
/// integer plaintext space of HEAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPoint {
    /// Timestamp in milliseconds since the stream's epoch.
    pub ts: i64,
    /// Measured value.
    pub value: i64,
}

impl DataPoint {
    /// Convenience constructor.
    pub fn new(ts: i64, value: i64) -> Self {
        DataPoint { ts, value }
    }
}

/// Per-stream configuration fixed at `CreateStream` time (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Stream identifier.
    pub id: StreamId,
    /// Human-readable metric name (e.g. "heart_rate").
    pub metric: String,
    /// Data source description (e.g. a device id).
    pub source: String,
    /// Epoch: timestamp of chunk 0's start, in ms.
    pub t0: i64,
    /// Chunk interval Δ in milliseconds — the smallest unit of server-side
    /// processing and the granularity of the keystream (§4.3). The paper
    /// uses Δ = 10 s for mhealth and 60 s for DevOps.
    pub delta_ms: u64,
    /// Payload compression codec.
    pub codec: crate::compress::Codec,
    /// Digest layout: which statistics the stream supports (§4.5).
    pub schema: crate::schema::DigestSchema,
}

impl StreamConfig {
    /// A reasonable default configuration: 10 s chunks (the paper's mhealth
    /// setting), delta compression, and the default statistics set
    /// (sum, count, sum-of-squares, 16-bin histogram over `bounds`).
    pub fn new(id: StreamId, metric: impl Into<String>, t0: i64, delta_ms: u64) -> Self {
        StreamConfig {
            id,
            metric: metric.into(),
            source: String::new(),
            t0,
            delta_ms,
            codec: crate::compress::Codec::Delta,
            schema: crate::schema::DigestSchema::standard(),
        }
    }

    /// The stream's chunk grid; `None` for Δ = 0.
    pub fn grid(&self) -> Option<ChunkGrid> {
        let delta_ms = NonZeroU64::new(self.delta_ms)?;
        Some(ChunkGrid {
            t0: self.t0,
            delta_ms,
        })
    }

    /// Maps a timestamp to its chunk index. Timestamps before `t0` are not
    /// valid for this stream, nor is any for Δ = 0.
    pub fn chunk_of(&self, ts: i64) -> Option<ChunkId> {
        self.grid()?.chunk_of(ts)
    }

    /// The chunk's half-open time interval `[start, end)` in ms.
    pub fn chunk_interval(&self, chunk: ChunkId) -> (i64, i64) {
        let start = self.t0 + (chunk * self.delta_ms) as i64;
        (start, start + self.delta_ms as i64)
    }

    /// Maps a half-open time range `[ts_s, ts_e)` to the half-open chunk
    /// range fully *containing* it (for raw retrieval) — see
    /// [`ChunkGrid::containing`].
    pub fn chunk_range_containing(&self, ts_s: i64, ts_e: i64) -> Option<(ChunkId, ChunkId)> {
        self.grid()?.containing(ts_s, ts_e)
    }
}

/// A stream's chunk grid: chunk `i` covers `[t0 + i·Δ, t0 + (i + 1)·Δ)`.
/// The one time→chunk mapping of clients and servers. It divides a
/// timestamp's distance to `t0`, taken with `abs_diff`, so it is exact for
/// any two `i64` timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGrid {
    /// Epoch: timestamp of chunk 0's start, in ms.
    pub t0: i64,
    /// Chunk interval Δ in milliseconds.
    pub delta_ms: NonZeroU64,
}

impl ChunkGrid {
    /// The chunk `ts` falls in; `None` before `t0`.
    pub fn chunk_of(&self, ts: i64) -> Option<ChunkId> {
        (ts >= self.t0).then(|| ts.abs_diff(self.t0) / self.delta_ms)
    }

    /// The half-open chunk range containing `[ts_s, ts_e)` (for raw
    /// retrieval): the first chunk touching `ts_s` through the last
    /// touching `ts_e − 1`. `None` for an empty range or one that ends at
    /// or before `t0`.
    pub fn containing(&self, ts_s: i64, ts_e: i64) -> Option<(ChunkId, ChunkId)> {
        if ts_e <= ts_s {
            return None;
        }
        let last = self.chunk_of(ts_e - 1)?;
        Some((self.chunk_of(ts_s.max(self.t0))?, last + 1))
    }

    /// The half-open chunk range `[ts_s, ts_e)` covers whole (for
    /// aggregates and grants): the first chunk starting at or after `ts_s`
    /// to one past the last ending at or before `ts_e`. Empty when the
    /// first is not below the second.
    pub fn within(&self, ts_s: i64, ts_e: i64) -> (ChunkId, ChunkId) {
        let lo = if ts_s > self.t0 {
            ts_s.abs_diff(self.t0).div_ceil(self.delta_ms.get())
        } else {
            0
        };
        (lo, self.chunk_of(ts_e).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StreamConfig {
        StreamConfig::new(1, "hr", 1_000, 10_000) // t0 = 1s, Δ = 10s
    }

    #[test]
    fn chunk_of_maps_boundaries() {
        let c = cfg();
        assert_eq!(c.chunk_of(1_000), Some(0));
        assert_eq!(c.chunk_of(10_999), Some(0));
        assert_eq!(c.chunk_of(11_000), Some(1));
        assert_eq!(c.chunk_of(999), None);
    }

    #[test]
    fn chunk_interval_roundtrips() {
        let c = cfg();
        for chunk in [0u64, 1, 5, 1000] {
            let (s, e) = c.chunk_interval(chunk);
            assert_eq!(c.chunk_of(s), Some(chunk));
            assert_eq!(c.chunk_of(e - 1), Some(chunk));
            assert_eq!(c.chunk_of(e), Some(chunk + 1));
        }
    }

    #[test]
    fn chunk_range_containing_covers_query() {
        let c = cfg();
        // Query [5s, 25s) touches chunks 0, 1, 2.
        assert_eq!(c.chunk_range_containing(5_000, 25_000), Some((0, 3)));
        // Exactly one chunk.
        assert_eq!(c.chunk_range_containing(1_000, 11_000), Some((0, 1)));
        // Empty / inverted ranges.
        assert_eq!(c.chunk_range_containing(5_000, 5_000), None);
        assert_eq!(c.chunk_range_containing(9_000, 5_000), None);
    }

    #[test]
    fn the_grid_reaches_the_ends_of_time() {
        let c = StreamConfig::new(1, "hr", -1, 10_000);
        let last = (i64::MAX as u64 + 1) / 10_000;
        assert_eq!(c.chunk_of(i64::MAX), Some(last));
        assert_eq!(c.chunk_range_containing(0, i64::MAX), Some((0, last + 1)));
        let grid = c.grid().unwrap();
        assert_eq!(grid.within(0, i64::MAX), (1, last));
        assert_eq!(grid.within(i64::MIN, -1), (0, 0));
        let zero = StreamConfig::new(1, "hr", 0, 0);
        assert_eq!(zero.chunk_of(5), None);
        assert_eq!(zero.chunk_range_containing(0, 5), None);
    }
}
