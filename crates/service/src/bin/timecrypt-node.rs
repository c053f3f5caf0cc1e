//! `timecrypt-node` — serve a subset of a cluster's shards over TCP.
//!
//! One node process per machine (or per core group); a coordinator
//! (`ShardedService` with a remote topology) scatter-gathers across them.
//! Every node and the coordinator must agree on `--shards`, the
//! cluster-wide shard count — stream → shard assignment is a pure hash
//! over it (see ARCHITECTURE.md at the repo root).
//!
//! ```text
//! timecrypt-node --listen 127.0.0.1:7070 --shards 4 --host 0,2
//!     [--store /var/lib/timecrypt/node-a.log]   # persistent LogKv (default: in-memory)
//!     [--durability fsync|flush|buffered]        # LogKv commit level (default: fsync)
//!     [--cache-bytes 67108864]                   # boundary cache budget, per node
//!     [--max-resident 1024]                      # bound hydrated streams (default: unbounded)
//!     [--metrics-addr 127.0.0.1:9090]           # Prometheus /metrics + /events
//!     [--idle-timeout-ms 300000]                 # reap silent connections (default: 5 min; 0 = never)
//! ```
//!
//! Logging goes through the structured logger (`timecrypt-obs`): set
//! `TC_LOG=debug` (or `target=level` pairs) to adjust stderr verbosity;
//! recent events are kept in an in-memory ring dumped on panic and via
//! the metrics listener's `/events` route.
//!
//! The process runs until killed. Streams of hosted shards are recovered
//! from the store on startup, so a restart with the same `--store` path
//! resumes where it left off.
//!
//! Nodes also serve the replica-rebuild protocol (`ListStreams` /
//! `ExportStream` / `ImportStream`): a node can be attached to a
//! coordinator as a replacement backup (`ShardedService::attach_replica`)
//! and rebuilt from the surviving replica, or act as the survivor paging
//! its records out — no extra flags, every node speaks both sides. A
//! coordinator refuses `ImportStream` from its clients: an import page is
//! raw records, past ingest's checks, so only a rebuild sends one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use std::sync::Arc;
use timecrypt_obs::{tc_error, tc_info};
use timecrypt_server::ServerConfig;
use timecrypt_service::{NodeConfig, ShardNode};
use timecrypt_store::log::Durability;
use timecrypt_store::{KvStore, LogKv, MemKv};
use timecrypt_wire::transport::{ServeOptions, Server};

struct Args {
    listen: String,
    shards: usize,
    host: Vec<usize>,
    store: Option<String>,
    durability: Durability,
    cache_bytes: usize,
    max_resident: Option<usize>,
    metrics_addr: Option<String>,
    idle_timeout_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: timecrypt-node --listen HOST:PORT --shards TOTAL --host ID[,ID...] \
         [--store PATH] [--durability fsync|flush|buffered] [--cache-bytes N] \
         [--max-resident N] [--metrics-addr HOST:PORT] [--idle-timeout-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let defaults = ServerConfig::default();
    let mut args = Args {
        listen: String::new(),
        shards: 0,
        host: Vec::new(),
        store: None,
        // A node is the durable tier of a cluster: acknowledged writes
        // must survive kill -9, so the strongest level is the default.
        durability: Durability::Fsync,
        cache_bytes: defaults.cache_bytes,
        max_resident: defaults.max_resident_streams,
        metrics_addr: None,
        idle_timeout_ms: 300_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--shards" => {
                args.shards = value("--shards").parse().unwrap_or_else(|_| usage());
            }
            "--host" => {
                args.host = value("--host")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--store" => args.store = Some(value("--store")),
            "--durability" => {
                args.durability = match value("--durability").as_str() {
                    "fsync" => Durability::Fsync,
                    "flush" => Durability::Flush,
                    "buffered" => Durability::Buffered,
                    other => {
                        eprintln!("unknown durability level: {other}");
                        usage();
                    }
                };
            }
            "--cache-bytes" => {
                args.cache_bytes = value("--cache-bytes").parse().unwrap_or_else(|_| usage());
            }
            "--max-resident" => {
                args.max_resident =
                    Some(value("--max-resident").parse().unwrap_or_else(|_| usage()));
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = value("--idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if args.listen.is_empty() || args.shards == 0 || args.host.is_empty() {
        usage();
    }
    args
}

fn main() {
    // Dump the flight recorder to stderr if the process panics — the
    // last moments before a crash are exactly what the ring is for.
    timecrypt_obs::log::install_panic_hook();
    let args = parse_args();
    let kv: Arc<dyn KvStore> = match &args.store {
        Some(path) => match LogKv::open_with(path, args.durability) {
            Ok(kv) => {
                tc_info!("node", "store: log at {path} ({:?})", args.durability);
                Arc::new(kv)
            }
            Err(e) => {
                tc_error!("node", "cannot open store {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            tc_info!(
                "node",
                "store: in-memory (volatile; pass --store PATH for durability)"
            );
            Arc::new(MemKv::new())
        }
    };
    let node = match ShardNode::open(
        kv,
        NodeConfig {
            total_shards: args.shards,
            hosted: args.host.clone(),
            engine: ServerConfig {
                cache_bytes: args.cache_bytes,
                max_resident_streams: args.max_resident,
            },
        },
    ) {
        Ok(node) => node,
        Err(e) => {
            tc_error!("node", "cannot open node: {e}");
            std::process::exit(1);
        }
    };
    let hosted = node.hosted();
    let node = Arc::new(node);
    // The metrics listener holds its own handle to the node and renders
    // a fresh stats snapshot per scrape.
    let _metrics = args
        .metrics_addr
        .as_deref()
        .map(|addr| match node.serve_metrics(addr) {
            Ok(server) => {
                tc_info!(
                    "node",
                    "metrics listener on http://{}/metrics",
                    server.addr()
                );
                server
            }
            Err(e) => {
                tc_error!("node", "cannot bind metrics listener {addr}: {e}");
                std::process::exit(1);
            }
        });
    let opts = ServeOptions {
        idle_timeout: (args.idle_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(args.idle_timeout_ms)),
    };
    let server = match Server::bind_with(&args.listen, node, opts) {
        Ok(s) => s,
        Err(e) => {
            tc_error!("node", "cannot bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    tc_info!(
        "node",
        "timecrypt-node listening on {} — hosting shard(s) {:?} of {}",
        server.addr(),
        hosted,
        args.shards
    );
    // Serve until killed; the accept loop runs on its own thread.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
