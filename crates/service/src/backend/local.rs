//! The in-process backend.

use super::{Leg, ShardBackend, StreamStatResult};
use crate::fanout::ReaderPool;
use crate::metrics::{ServiceMetrics, ShardMetrics, ShardOccupancy};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use timecrypt_chunk::serialize::ChunkRef;
use timecrypt_obs::trace;
use timecrypt_server::{ServerError, TimeCryptServer};
use timecrypt_wire::messages::{Request, Response};

/// Executes one per-stream sub-query with metrics. One latency sample and
/// one `queries` increment per sub-query, so `Request::Stats` histogram
/// totals and counters agree by construction.
pub(crate) fn metered_stat(
    engine: &TimeCryptServer,
    m: &ShardMetrics,
    sid: u128,
    ts_s: i64,
    ts_e: i64,
) -> StreamStatResult {
    let _span = trace::stage("engine.query");
    let t = Instant::now();
    let r = engine.stream_stat(sid, ts_s, ts_e);
    m.query_latency.record(t.elapsed());
    m.queries.fetch_add(1, Ordering::Relaxed);
    if r.is_err() {
        m.query_errors.fetch_add(1, Ordering::Relaxed);
    }
    r
}

/// The in-process backend: a filtered engine over the coordinator's
/// shared store.
pub struct LocalShard {
    engine: Arc<TimeCryptServer>,
    readers: Arc<ReaderPool>,
    metrics: Arc<ServiceMetrics>,
    shard: usize,
}

impl LocalShard {
    pub(crate) fn new(
        engine: Arc<TimeCryptServer>,
        readers: Arc<ReaderPool>,
        metrics: Arc<ServiceMetrics>,
        shard: usize,
    ) -> Self {
        LocalShard {
            engine,
            readers,
            metrics,
            shard,
        }
    }
}

impl ShardBackend for LocalShard {
    fn call(&self, req: Request) -> Result<Response, ServerError> {
        use timecrypt_wire::transport::Handler;
        Ok(self.engine.handle(req))
    }

    /// The engine's read path takes no exclusive stream lock, so the
    /// sub-queries of a large leg are independent: the leg is sliced
    /// across the shared reader pool (the caller keeps the first slice
    /// inline). Small legs (or a zero-reader pool) stay sequential — no
    /// handoff cost.
    fn stat_leg(
        &self,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<(usize, StreamStatResult)>, ServerError> {
        let m = self.metrics.shard(self.shard);
        // At most one offloaded slice per reader, and always ≥ 1 sub-query
        // kept inline so the caller makes progress itself.
        let offload_slices = self.readers.len().min(legs.len().saturating_sub(1));
        if offload_slices == 0 {
            return Ok(legs
                .iter()
                .map(|&(pos, sid)| (pos, metered_stat(&self.engine, m, sid, ts_s, ts_e)))
                .collect());
        }
        let per = legs.len().div_ceil(offload_slices + 1);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let mut offloaded = 0usize;
        // Reader threads are shared across requests: each slice carries
        // the submitting request's trace context across the handoff.
        let ctx = trace::current();
        for slice in legs[per..].chunks(per) {
            let engine = self.engine.clone();
            let metrics = self.metrics.clone();
            let shard = self.shard;
            let slice: Vec<(usize, u128)> = slice.to_vec();
            let reply = reply_tx.clone();
            self.readers.exec(Box::new(move || {
                let _trace = trace::set_current(ctx);
                let m = metrics.shard(shard);
                let out: Vec<(usize, StreamStatResult)> = slice
                    .iter()
                    .map(|&(pos, sid)| (pos, metered_stat(&engine, m, sid, ts_s, ts_e)))
                    .collect();
                // A dropped caller just means nobody wants the result.
                let _ = reply.send(out);
            }));
            offloaded += 1;
        }
        drop(reply_tx);
        let mut out: Vec<(usize, StreamStatResult)> = legs[..per]
            .iter()
            .map(|&(pos, sid)| (pos, metered_stat(&self.engine, m, sid, ts_s, ts_e)))
            .collect();
        for _ in 0..offloaded {
            // A closed channel means a slice was lost to a reader panic; the
            // affected positions fall through to the caller's "query leg
            // lost" default instead of stranding anyone. Buffered results are
            // still delivered before `recv` reports disconnection.
            let Ok(slice) = reply_rx.recv() else { break };
            out.extend(slice);
        }
        Ok(out)
    }

    fn insert_batch(&self, chunks: &[&[u8]]) -> Result<Vec<Result<(), ServerError>>, ServerError> {
        let m = self.metrics.shard(self.shard);
        // Each stream's chunks go to the engine as one run (one
        // ingest-lock acquisition and one coalesced index append instead
        // of per-chunk lock/append/store cycles), stored from the input
        // bytes. Panic containment is per stream run: a poisoned stream
        // must not make chunks of *other* streams — possibly already
        // durably committed by their own runs — report failure, or a
        // replica mirror would skip writes the primary actually holds.
        let t = std::time::Instant::now();
        let mut verdicts: Vec<Option<Result<(), ServerError>>> = Vec::new();
        verdicts.resize_with(chunks.len(), || None);
        let mut order: Vec<u128> = Vec::new();
        let mut groups: std::collections::HashMap<u128, (Vec<&[u8]>, Vec<usize>)> =
            std::collections::HashMap::new();
        for (pos, &bytes) in chunks.iter().enumerate() {
            // The grouping key is peeked, not parsed: the engine's run
            // performs the one full validation.
            let Some(stream) = ChunkRef::peek_stream(bytes) else {
                verdicts[pos] = Some(Err(ServerError::BadChunk));
                continue;
            };
            let entry = groups.entry(stream).or_insert_with(|| {
                order.push(stream);
                (Vec::new(), Vec::new())
            });
            entry.0.push(bytes);
            entry.1.push(pos);
        }
        for stream in order {
            // `order` records each stream exactly once, when its group is created.
            let Some((run, positions)) = groups.remove(&stream) else {
                continue;
            };
            let run_verdicts = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.engine.insert_bytes_run(&run)
            }))
            .unwrap_or_else(|_| {
                run.iter()
                    .map(|_| Err(ServerError::Unavailable("shard engine panicked")))
                    .collect()
            });
            for (pos, verdict) in positions.into_iter().zip(run_verdicts) {
                verdicts[pos] = Some(verdict);
            }
        }
        let verdicts: Vec<Result<(), ServerError>> = verdicts
            .into_iter()
            .map(|v| v.unwrap_or(Err(ServerError::Unavailable("chunk received no verdict"))))
            .collect();
        crate::ingest::record_run_metrics(m, t.elapsed(), &verdicts);
        Ok(verdicts)
    }

    fn occupancy(&self) -> Result<ShardOccupancy, ServerError> {
        Ok(ShardOccupancy::of(&self.engine))
    }
}
