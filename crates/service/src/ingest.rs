//! The batched ingest pipeline: one worker thread + bounded queue per shard.
//!
//! Ordering contract: a job is one submitter's chunks for one shard —
//! validated serialized chunk bytes, the service tier's one ingest
//! currency — in submission order; jobs enqueued to one shard are
//! processed FIFO by a single worker (a stream maps to exactly one
//! shard), so the engine's strict next-index ingest check sees the same
//! order a direct caller would produce. Backpressure: the queue is a `sync_channel`, so submitters
//! block once a shard is `queue_depth` jobs behind — producers slow down
//! instead of ballooning memory.
//!
//! The worker drains greedily: after blocking for one job it grabs every
//! already-queued job (up to `GREEDY_BATCH` chunks) and hands the whole
//! run to the shard backend as one ordered batch. A job is never split —
//! one client batch costs one backend call per shard it touches — while
//! jobs of concurrent submitters coalesce. Local backends hand the
//! drain's bytes to the shard's engine as one run, while remote backends
//! copy them once into a single `InsertBatch` frame — one round trip,
//! which is what makes batched ingest efficient over TCP.

use crate::backend::ShardReplicas;
use crate::metrics::ShardMetrics;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use timecrypt_obs::{trace, TraceContext};
use timecrypt_server::ServerError;

/// Chunk count at which a greedy drain stops taking further jobs.
pub(crate) const GREEDY_BATCH: usize = 64;

/// Serialized size at which a greedy drain stops taking further jobs: a
/// remote backend ships the whole drain as one `InsertBatch` frame, so the
/// drain must stay well under the transport's 16 MiB frame cap even when
/// individual chunks are large. 4 MiB leaves a 4× margin for framing
/// overhead and the last job taken (itself at most one inbound frame's
/// share for this shard).
const GREEDY_BATCH_BYTES: usize = 4 * 1024 * 1024;

/// Records one batched-run outcome on the shard metrics: the run's wall
/// time is sampled once per chunk (the same convention the remote batch
/// path uses — histogram totals and the `ingested_chunks`/`ingest_errors`
/// counters stay in agreement), counters tick per verdict.
pub(crate) fn record_run_metrics(
    m: &ShardMetrics,
    elapsed: std::time::Duration,
    verdicts: &[Result<(), ServerError>],
) {
    for v in verdicts {
        m.ingest_latency.record(elapsed);
        match v {
            Ok(()) => m.ingested_chunks.inc(),
            Err(_) => m.ingest_errors.inc(),
        }
    }
}

/// One queued ingest job: the validated serialized chunks of one
/// submitted batch that belong to one shard, in submission order (owned,
/// because the job crosses to the worker thread). `positions[i]` is `chunks[i]`'s place in
/// the original batch; the single reply carries each verdict with it so the
/// submitter can reassemble results in input order.
pub(crate) struct Job {
    pub(crate) chunks: Vec<Vec<u8>>,
    pub(crate) positions: Vec<usize>,
    pub(crate) reply: Sender<Vec<(usize, Result<(), ServerError>)>>,
    /// The submitter's trace context, restored on the worker thread for
    /// the drain containing this job.
    pub(crate) trace: Option<TraceContext>,
}

/// Handle to one shard's ingest worker. Dropping it closes the queue; the
/// worker drains remaining jobs and exits.
pub(crate) struct IngestWorker {
    tx: SyncSender<Job>,
    handle: Option<JoinHandle<()>>,
}

impl IngestWorker {
    /// Spawns the worker for `shard` over its replica set.
    pub(crate) fn spawn(shard: usize, backend: Arc<ShardReplicas>, queue_depth: usize) -> Self {
        let (tx, rx): (SyncSender<Job>, Receiver<Job>) = sync_channel(queue_depth);
        #[allow(
            clippy::expect_used,
            reason = "one-time worker construction at service startup; spawn failure here means the process cannot run at all"
        )]
        let handle = std::thread::Builder::new()
            .name(format!("tc-ingest-{shard}"))
            .spawn(move || run_worker(rx, backend))
            .expect("spawn ingest worker");
        IngestWorker {
            tx,
            handle: Some(handle),
        }
    }

    /// Enqueues one job, blocking while the shard queue is full
    /// (backpressure). The queue-depth gauge counts chunks and is bumped
    /// *before* the potentially blocking send so `Stats` shows saturated
    /// queues.
    pub(crate) fn submit(&self, metrics_depth: &timecrypt_obs::counters::Gauge, job: Job) {
        let chunks = job.chunks.len() as u64;
        metrics_depth.add(chunks);
        if self.tx.send(job).is_err() {
            // Worker gone (service shutting down); undo the gauge.
            metrics_depth.sub(chunks);
        }
    }
}

fn run_worker(rx: Receiver<Job>, backend: Arc<ShardReplicas>) {
    while let Ok(first) = rx.recv() {
        // A greedy drain can coalesce jobs from concurrent submitters;
        // the whole drain is attributed to the oldest job's trace (the
        // one whose wait the drain actually serves).
        let drain_trace = first.trace;
        let mut chunks = Vec::new();
        // Per job: its reply channel and batch positions (one per chunk).
        let mut replies = Vec::new();
        let mut bytes = 0usize;
        let mut next = Some(first);
        while let Some(job) = next.take() {
            bytes += job.chunks.iter().map(Vec::len).sum::<usize>();
            chunks.extend(job.chunks);
            replies.push((job.reply, job.positions));
            if chunks.len() < GREEDY_BATCH && bytes < GREEDY_BATCH_BYTES {
                // Empty or disconnected: either way the drain ends here.
                next = rx.try_recv().ok();
            }
        }
        let _trace = trace::set_current(drain_trace);
        let views: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
        // The engine contains panics per stream run; this backstop
        // covers the dispatch itself so queued replies are never eaten.
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.ingest_batch(&views)
        }))
        .unwrap_or_else(|_| {
            chunks
                .iter()
                .map(|_| Err(ServerError::Unavailable("shard ingest worker panicked")))
                .collect()
        });
        backend.metrics().queue_depth.sub(chunks.len() as u64);
        let mut results = results.into_iter();
        for (reply, positions) in replies {
            let verdicts = positions.into_iter().zip(results.by_ref()).collect();
            // A dropped submitter just means nobody wants the result.
            let _ = reply.send(verdicts);
        }
    }
}

impl Drop for IngestWorker {
    fn drop(&mut self) {
        // Close the queue, then wait for the worker to drain it so queued
        // chunks are never silently lost on shutdown.
        drop(std::mem::replace(&mut self.tx, sync_channel(1).0));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
