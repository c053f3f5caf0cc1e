//! Persistent fan-out workers for scatter-gather queries.
//!
//! Spawning an OS thread per query leg costs tens of microseconds — more
//! than a cached index-tree query itself — so the service keeps one
//! long-lived worker per shard ([`ShardPool`]) and hands it closures over
//! an unbounded channel. The caller always executes one leg inline (the
//! largest), so a single-shard query never crosses a thread boundary at
//! all.

use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send>;

/// One long-lived worker thread per shard, executing submitted closures
/// FIFO. Dropping the pool drains and joins the workers.
pub(crate) struct ShardPool {
    workers: Vec<PoolWorker>,
}

struct PoolWorker {
    tx: Sender<Task>,
    handle: Option<JoinHandle<()>>,
}

impl ShardPool {
    /// A pool with one worker per shard.
    pub(crate) fn new(shards: usize) -> Self {
        let workers = (0..shards)
            .map(|i| {
                let (tx, rx) = channel::<Task>();
                #[allow(
                    clippy::expect_used,
                    reason = "one-time pool construction at service startup; spawn failure here means the process cannot run at all"
                )]
                let handle = std::thread::Builder::new()
                    .name(format!("tc-query-{i}"))
                    .spawn(move || {
                        for task in rx {
                            // Tasks do their own panic containment; this is
                            // the backstop that keeps the worker alive.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                        }
                    })
                    .expect("spawn query worker");
                PoolWorker {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardPool { workers }
    }

    /// Runs `task` on `shard`'s worker. Falls back to inline execution if
    /// the worker is gone (service shutting down).
    pub(crate) fn exec(&self, shard: usize, task: Task) {
        if let Err(e) = self.workers[shard].tx.send(task) {
            (e.0)();
        }
    }
}

impl Drop for PoolWorker {
    fn drop(&mut self) {
        drop(std::mem::replace(&mut self.tx, channel().0));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_on_all_workers() {
        let pool = ShardPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel();
        for shard in 0..3 {
            for _ in 0..10 {
                let counter = counter.clone();
                let tx = tx.clone();
                pool.exec(
                    shard,
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        tx.send(()).unwrap();
                    }),
                );
            }
        }
        for _ in 0..30 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = ShardPool::new(2);
        pool.exec(0, Box::new(|| {}));
        drop(pool);
    }
}
