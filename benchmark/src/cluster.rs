//! The deployment under test, identical for every workload: one process,
//! a `ShardNode` hosting both of two shards over a `LogKv` (`Durability::
//! Flush`) behind a loopback `wire::transport::Server`, and a coordinator
//! `ShardedService` whose two shards both point at that node (R = 1), also
//! served on loopback. Clients connect to the coordinator with
//! `wire::Client`.
//!
//! `Flush`, not `Fsync`: an fsync on a shared sandbox disk times the
//! sandbox. Fsync cost is a per-layer probe instead.

use crate::spans::{Layer, Spanned, TimedKv};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use timecrypt_server::ServerConfig;
use timecrypt_service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt_store::{Durability, KvStore, LogKv, MemKv};
use timecrypt_wire::transport::{Handler, Server};
use timecrypt_wire::Client;

pub const TOTAL_SHARDS: usize = 2;

/// A scratch directory under the benchmark's own build output, removed when
/// dropped — on success, on a failed run and while unwinding from a panic.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<dir of this executable>/tmp/<pid>-<n>`. The executable sits
    /// in the build's target directory, which the checkout ignores and which
    /// is the only place the benchmark writes.
    pub fn create() -> std::io::Result<TempDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let root = temp_root()?;
        if NEXT.load(Ordering::Relaxed) == 0 {
            remove_stale(&root);
        }
        let path = root.join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes what a killed run left behind: directories named after a process
/// that no longer exists (a kill skips the `Drop` that removes them).
fn remove_stale(root: &Path) {
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let pid = name.to_str().and_then(|n| n.split('-').next());
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Where [`TempDir`]s are created.
pub fn temp_root() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "executable has no directory")
    })?;
    Ok(dir.join("tmp"))
}

/// The running deployment. Dropping it stops both servers and waits until
/// the store is released.
pub struct Cluster {
    coordinator: Server,
    node: Server,
    log: Weak<LogKv>,
    log_path: PathBuf,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The coordinator (and its pooled node connections) goes before the
        // node it talks to.
        self.coordinator.shutdown();
        self.node.shutdown();
        // The servers' connection threads are detached and let go of the
        // handlers — and through them the store with its in-memory copy of
        // the log — a moment after their sockets close. Wait for that, so the
        // next set-up never shares memory or the log file with this one.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.log.strong_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Cluster {
    /// Opens (or reopens, replaying the log) the deployment over
    /// `dir/node.log`. `cache_bytes` is the node engines' per-stream index
    /// cache. With `traced`, the store and both handlers are wrapped in the
    /// span recorders; otherwise the product's own types are served bare.
    pub fn open(dir: &Path, cache_bytes: usize, traced: bool) -> Result<Cluster, String> {
        let log_path = dir.join("node.log");
        let log = Arc::new(
            LogKv::open_with(&log_path, Durability::Flush).map_err(|e| format!("open log: {e}"))?,
        );
        let released = Arc::downgrade(&log);
        let kv: Arc<dyn KvStore> = if traced {
            Arc::new(TimedKv::new(log))
        } else {
            log
        };
        let shard_node = ShardNode::open(
            kv,
            NodeConfig {
                total_shards: TOTAL_SHARDS,
                hosted: (0..TOTAL_SHARDS).collect(),
                engine: ServerConfig {
                    cache_bytes,
                    ..ServerConfig::default()
                },
            },
        )
        .map_err(|e| format!("open node: {e}"))?;
        let node = serve(shard_node, Layer::Node, traced)?;
        let service = ShardedService::open(
            // All shards are remote; the coordinator's own store stays empty.
            Arc::new(MemKv::new()),
            ServiceConfig {
                topology: vec![ShardSpec::remote(node.addr().to_string()); TOTAL_SHARDS],
                ..ServiceConfig::default()
            },
        )
        .map_err(|e| format!("open coordinator: {e}"))?;
        let coordinator = serve(service, Layer::Coord, traced)?;
        Ok(Cluster {
            coordinator,
            node,
            log: released,
            log_path,
        })
    }

    /// A new client connection to the coordinator.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.coordinator.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Size of the node's log file now.
    pub fn log_bytes(&self) -> u64 {
        std::fs::metadata(&self.log_path).map_or(0, |m| m.len())
    }
}

fn serve<H: Handler>(handler: H, layer: Layer, traced: bool) -> Result<Server, String> {
    let handler: Arc<dyn Handler> = if traced {
        Arc::new(Spanned::new(handler, layer))
    } else {
        Arc::new(handler)
    };
    Server::bind("127.0.0.1:0", handler).map_err(|e| format!("bind {layer:?}: {e}"))
}
