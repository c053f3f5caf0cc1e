//! Deployments built from data. A [`Spec`] names a tier, its file, its
//! faults and its service config; [`Deployment::build`] opens it, answers
//! [`call`](Deployment::call) through the tier's `Handler`, and hands out
//! what it built: the engine, node or coordinator, each store's meter, each
//! remote node's frame count, proxy and log. A node can be killed, which
//! releases a remote node's port, and restarted over the same file, a
//! remote node on the listener it had; an OS file is removed when the
//! deployment drops, a panicking test's too.

use super::recording::Recording;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use timecrypt::faults::{FaultPlan, FaultyKv, FaultyTransport};
use timecrypt::server::{ServerConfig, TimeCryptServer};
use timecrypt::service::{NodeConfig, ServiceConfig, ShardNode, ShardSpec, ShardedService};
use timecrypt::store::{
    Durability, KvStore, LogFile, LogKv, LogStats, MemKv, MeteredKv, StoreError,
};
use timecrypt::wire::messages::{Request, Response};
use timecrypt::wire::pool::PoolConfig;
use timecrypt::wire::transport::{Handler, ServeOptions, Server};

/// What answers [`Deployment::call`].
#[derive(Clone, Copy, Debug)]
pub enum Tier {
    /// One engine.
    Engine,
    /// One `ShardNode` hosting all `shards`.
    Node { shards: usize },
    /// A coordinator whose `shards` run in its own process.
    Coordinator { shards: usize },
    /// A coordinator of `shards` on `nodes` loopback nodes: shard `i`'s
    /// primary is node `i % nodes`, and with `backup` its backup is the
    /// next node. A node hosts the shards placed on it, and no other.
    Remote {
        shards: usize,
        nodes: usize,
        backup: bool,
    },
}

/// The file under each store.
#[derive(Clone, Debug)]
pub enum File {
    /// `MemKv`: the log in memory.
    Mem,
    /// `LogKv` at a temp path, removed when the deployment drops.
    Os,
    /// A `LogKv` under `Durability::Fsync` over this recorded file in
    /// memory, opened again at each restart; one store only.
    Recording(Recording),
}

/// An injector, quiet or not, that the deployment builds in.
#[derive(Clone, Debug)]
pub enum Fault {
    /// A `FaultyKv` under the store of each host the spec builds.
    Store(FaultPlan),
    /// A `FaultyTransport` in front of remote node `n`: the coordinator
    /// dials it in the node's place.
    Proxy(usize, FaultPlan),
}

/// A deployment, as data.
#[derive(Clone, Debug)]
pub struct Spec {
    pub tier: Tier,
    pub file: File,
    pub faults: Vec<Fault>,
    /// The coordinator's config (its `shards` and `topology` come from the
    /// tier); its `engine` configures every engine the deployment opens.
    pub service: ServiceConfig,
}

impl Spec {
    fn of(tier: Tier) -> Spec {
        Spec {
            tier,
            file: File::Mem,
            faults: Vec::new(),
            service: ServiceConfig::default(),
        }
    }

    pub fn engine() -> Spec {
        Spec::of(Tier::Engine)
    }

    pub fn node(shards: usize) -> Spec {
        Spec::of(Tier::Node { shards })
    }

    pub fn coordinator(shards: usize) -> Spec {
        Spec::of(Tier::Coordinator { shards })
    }

    /// A remote coordinator at R = `replicas`, 1 or 2.
    pub fn remote(shards: usize, nodes: usize, replicas: usize) -> Spec {
        assert!(matches!(replicas, 1 | 2), "R = {replicas}");
        Spec::of(Tier::Remote {
            shards,
            nodes,
            backup: replicas == 2,
        })
    }

    /// With `engine` for every engine.
    pub fn engine_cfg(mut self, engine: ServerConfig) -> Spec {
        self.service.engine = engine;
        self
    }

    /// With the coordinator config `service`.
    pub fn service(self, service: ServiceConfig) -> Spec {
        Spec { service, ..self }
    }

    /// Over OS files.
    pub fn on_disk(self) -> Spec {
        Spec {
            file: File::Os,
            ..self
        }
    }

    /// With `fault` built in.
    pub fn fault(mut self, fault: Fault) -> Spec {
        self.faults.push(fault);
        self
    }
}

/// The log a store runs on, whichever its file.
pub trait Log: KvStore {
    fn stats(&self) -> LogStats;
    fn len(&self) -> usize;
    fn compact(&self) -> Result<(), StoreError>;
}

impl<F: LogFile> Log for LogKv<F> {
    fn stats(&self) -> LogStats {
        LogKv::stats(self)
    }

    fn len(&self) -> usize {
        LogKv::len(self)
    }

    fn compact(&self) -> Result<(), StoreError> {
        LogKv::compact(self)
    }
}

/// A fresh log in `file`, or the one at `path` opened again: the one
/// place a file kind is made.
fn open_log(file: &File, path: Option<&TempPath>) -> Arc<dyn Log> {
    match file {
        File::Mem => Arc::new(MemKv::new()),
        File::Os => Arc::new(LogKv::open(path.expect("an OS file's path")).unwrap()),
        File::Recording(file) => Arc::new(LogKv::over(file.clone(), Durability::Fsync).unwrap()),
    }
}

/// What runs over a store.
#[derive(Clone)]
enum Running {
    Engine(Arc<TimeCryptServer>, Arc<MeteredKv>),
    Node(Arc<ShardNode>),
    Service(Arc<ShardedService>),
}

impl Running {
    fn handler(&self) -> Arc<dyn Handler> {
        match self {
            Running::Engine(engine, _) => engine.clone(),
            Running::Node(node) => node.clone(),
            Running::Service(svc) => svc.clone(),
        }
    }
}

/// Frames a node received, by request tag.
type Frames = [AtomicU64; 256];

/// A node that counts the frames it is sent.
struct Counted {
    node: Arc<ShardNode>,
    frames: Arc<Frames>,
}

impl Handler for Counted {
    fn handle(&self, req: Request) -> Response {
        self.node.handle(req)
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        if let Some(&tag) = body.first() {
            self.frames[tag as usize].fetch_add(1, Ordering::SeqCst);
        }
        self.node.handle_frame(body)
    }
}

/// A fresh path in the temp dir, removed when it drops, a panicking
/// test's too.
pub struct TempPath(PathBuf);

impl TempPath {
    pub fn new(name: &str) -> TempPath {
        static PATHS: AtomicU64 = AtomicU64::new(0);
        let n = PATHS.fetch_add(1, Ordering::Relaxed);
        let name = format!("timecrypt-test-{}-{n}-{name}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        TempPath(path)
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One store and what runs over it: the deployment's tier, or a remote
/// node behind its listener. Its OS file goes with it.
struct Host {
    path: Option<TempPath>,
    /// The shards a node on this host hosts.
    hosted: Vec<usize>,
    /// The log while it is open; one in memory stays for a restart.
    log: Option<Arc<dyn Log>>,
    faulty: Option<Arc<FaultyKv<Arc<dyn KvStore>>>>,
    running: Option<Running>,
    server: Option<Server>,
    /// A remote node's bound port, kept across its restarts.
    listener: Option<TcpListener>,
    addr: Option<SocketAddr>,
    frames: Arc<Frames>,
}

/// A built [`Spec`].
pub struct Deployment {
    spec: Spec,
    hosts: Mutex<Vec<Host>>,
    /// A `Tier::Remote` deployment's coordinator.
    coordinator: Option<Arc<ShardedService>>,
    proxies: Vec<(usize, FaultyTransport)>,
    served: Mutex<Vec<Server>>,
}

impl Deployment {
    pub fn build(spec: &Spec) -> Deployment {
        let mut d = Deployment {
            spec: spec.clone(),
            hosts: Mutex::new(Vec::new()),
            coordinator: None,
            proxies: Vec::new(),
            served: Mutex::new(Vec::new()),
        };
        let Tier::Remote {
            shards,
            nodes,
            backup,
        } = spec.tier
        else {
            let proxied = spec.faults.iter().any(|f| matches!(f, Fault::Proxy(..)));
            assert!(!proxied, "a proxy in front of a remote node only");
            d.add_host((0..d.shards()).collect(), false);
            return d;
        };
        // Shard `i` on node `i % nodes`, its backup on the next.
        let on = |n: usize, i: usize| i % nodes == n || (backup && (i + 1) % nodes == n);
        for n in 0..nodes {
            d.add_host((0..shards).filter(|&i| on(n, i)).collect(), true);
        }
        let mut addrs: Vec<String> = (0..nodes).map(|n| d.addr(n)).collect();
        for fault in &spec.faults {
            if let Fault::Proxy(n, plan) = fault {
                assert!(*n < nodes, "a proxy in front of node {n} of {nodes}");
                let upstream = d.addr(*n).parse().unwrap();
                let proxy = FaultyTransport::spawn(upstream, plan.clone()).unwrap();
                addrs[*n] = proxy.addr().to_string();
                d.proxies.push((*n, proxy));
            }
        }
        let primary = |i: usize| ShardSpec::remote(&addrs[i % nodes]);
        let topology = (0..shards)
            .map(|i| match backup {
                false => primary(i),
                true => primary(i).with_backup(&addrs[(i + 1) % nodes]),
            })
            .collect();
        let cfg = ServiceConfig {
            topology,
            ..spec.service.clone()
        };
        let svc = ShardedService::open(Arc::new(MemKv::new()), cfg).unwrap();
        d.coordinator = Some(Arc::new(svc));
        d
    }

    fn hosts(&self) -> MutexGuard<'_, Vec<Host>> {
        self.hosts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cluster-wide shard count.
    fn shards(&self) -> usize {
        match self.spec.tier {
            Tier::Engine => 1,
            Tier::Node { shards } | Tier::Coordinator { shards } => shards,
            Tier::Remote { shards, .. } => shards,
        }
    }

    /// Opens one more store and what runs over it — a node of the `hosted`
    /// shards behind a listener when `remote` — and returns its index.
    fn add_host(&self, hosted: Vec<usize>, remote: bool) -> usize {
        let path = matches!(self.spec.file, File::Os).then(|| TempPath::new("deploy.log"));
        let mut hosts = self.hosts();
        hosts.push(Host {
            path,
            hosted,
            log: None,
            faulty: None,
            running: None,
            server: None,
            listener: None,
            addr: remote.then(loopback),
            frames: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        });
        let at = hosts.len() - 1;
        self.start(&mut hosts[at]);
        at
    }

    /// Opens the host's tier over its log, and serves a remote node on its
    /// listener, bound to its address first if the host has none.
    fn start(&self, host: &mut Host) {
        let log = (host.log).get_or_insert_with(|| open_log(&self.spec.file, host.path.as_ref()));
        let mut kv: Arc<dyn KvStore> = log.clone();
        for fault in &self.spec.faults {
            if let Fault::Store(plan) = fault {
                let faulty = Arc::new(FaultyKv::new(kv.clone(), plan.clone()));
                host.faulty = Some(faulty.clone());
                kv = faulty;
            }
        }
        let (engine, shards) = (self.spec.service.engine.clone(), self.shards());
        let running = match (host.addr, self.spec.tier) {
            (Some(_), _) | (None, Tier::Node { .. }) => {
                let cfg = NodeConfig {
                    total_shards: shards,
                    hosted: host.hosted.clone(),
                    engine,
                };
                Running::Node(Arc::new(ShardNode::open(kv, cfg).unwrap()))
            }
            (None, Tier::Engine) => {
                let meter = Arc::new(MeteredKv::new(kv));
                let engine = TimeCryptServer::open(meter.clone(), engine).unwrap();
                Running::Engine(Arc::new(engine), meter)
            }
            (None, _) => {
                let cfg = ServiceConfig {
                    shards,
                    ..self.spec.service.clone()
                };
                Running::Service(Arc::new(ShardedService::open(kv, cfg).unwrap()))
            }
        };
        if let (Some(addr), Running::Node(node)) = (host.addr, &running) {
            let counted = Counted {
                node: node.clone(),
                frames: host.frames.clone(),
            };
            let listener = match &host.listener {
                Some(listener) => listener,
                None => host.listener.insert(TcpListener::bind(addr).unwrap()),
            };
            let (listener, opts) = (listener.try_clone().unwrap(), ServeOptions::default());
            let server = Server::from_listener(listener, Arc::new(counted), opts).unwrap();
            host.addr = Some(server.addr());
            host.server = Some(server);
        }
        host.running = Some(running);
    }

    /// What runs on host `i`.
    fn running(&self, i: usize) -> Running {
        let hosts = self.hosts();
        hosts[i].running.clone().expect("the host is running")
    }

    /// The tier's reply to `req`.
    pub fn call(&self, req: Request) -> Response {
        self.handler().handle(req)
    }

    /// The tier's reply to the request frame `body`.
    pub fn call_frame(&self, body: &[u8]) -> Response {
        self.handler().handle_frame(body)
    }

    /// The tier's `Handler`.
    fn handler(&self) -> Arc<dyn Handler> {
        match &self.coordinator {
            Some(svc) => svc.clone(),
            None => self.running(0).handler(),
        }
    }

    /// The engine of a `Tier::Engine` deployment.
    pub fn engine(&self) -> Arc<TimeCryptServer> {
        match self.running(0) {
            Running::Engine(engine, _) => engine,
            _ => panic!("not an engine"),
        }
    }

    /// The node of a `Tier::Node` deployment, or remote node `i`.
    pub fn node(&self, i: usize) -> Arc<ShardNode> {
        match self.running(i) {
            Running::Node(node) => node,
            _ => panic!("not a node"),
        }
    }

    /// The coordinator.
    pub fn service(&self) -> Arc<ShardedService> {
        if let Some(svc) = &self.coordinator {
            return svc.clone();
        }
        match self.running(0) {
            Running::Service(svc) => svc,
            _ => panic!("not a coordinator"),
        }
    }

    /// The meter over store `i` (remote node `i`'s, or the tier's at 0).
    pub fn meter(&self, i: usize) -> Arc<MeteredKv> {
        match self.running(i) {
            Running::Engine(_, meter) => meter,
            Running::Node(node) => node.kv().clone(),
            Running::Service(svc) => svc.kv().clone(),
        }
    }

    /// The log under store `i`.
    pub fn log(&self, i: usize) -> Arc<dyn Log> {
        self.hosts()[i].log.clone().expect("the log is open")
    }

    /// The OS file under store `i`.
    pub fn path(&self, i: usize) -> PathBuf {
        let hosts = self.hosts();
        hosts[i].path.as_ref().expect("an OS file").0.clone()
    }

    /// The `FaultyKv` under store `i`.
    pub fn faulty(&self, i: usize) -> Arc<FaultyKv<Arc<dyn KvStore>>> {
        self.hosts()[i].faulty.clone().expect("a faulty store")
    }

    /// The proxy in front of remote node `n`.
    pub fn proxy(&self, n: usize) -> &FaultyTransport {
        let found = self.proxies.iter().find(|(at, _)| *at == n);
        &found.expect("a proxy in front of the node").1
    }

    /// Remote node `n`'s listening address.
    pub fn addr(&self, n: usize) -> String {
        self.hosts()[n].addr.expect("a remote node").to_string()
    }

    /// The frames remote node `n` received.
    pub fn frames(&self, n: usize) -> u64 {
        let frames = self.hosts()[n].frames.clone();
        frames.iter().map(|f| f.load(Ordering::SeqCst)).sum()
    }

    /// The `kind` requests (a `Request` variant's name) remote node `n`
    /// received as frames.
    pub fn frames_of(&self, n: usize, kind: &str) -> u64 {
        let tag = Request::TAGS.iter().find(|(_, name)| *name == kind);
        let tag = tag.expect("a request kind").0 as usize;
        self.hosts()[n].frames[tag].load(Ordering::SeqCst)
    }

    /// Starts one more loopback node, hosting `shard` of the cluster's
    /// shards, for a replica to attach; returns its index.
    pub fn add_node(&self, shard: usize) -> usize {
        let faults = &self.spec.faults;
        let faulty = faults.iter().any(|f| matches!(f, Fault::Store(_)));
        assert!(!faulty, "a spare node over a faulty store");
        self.add_host(vec![shard], true)
    }

    /// Kills what runs on store `i` (a remote node's server too, severing
    /// its connections, and its listener: the port is released) and closes
    /// an OS file's log.
    pub fn kill(&self, i: usize) {
        let mut hosts = self.hosts();
        self.stop(&mut hosts[i]);
        hosts[i].listener = None;
    }

    /// Stops what runs on the host, severing a remote node's connections,
    /// and closes an OS file's log; a remote node's listener stays bound.
    fn stop(&self, host: &mut Host) {
        if let Some(mut server) = host.server.take() {
            server.shutdown();
        }
        host.running = None;
        host.faulty = None;
        if !matches!(self.spec.file, File::Mem) {
            host.log = None;
        }
    }

    /// How many stores the deployment runs on: one, or one per remote node.
    pub fn stores(&self) -> usize {
        self.hosts().len()
    }

    /// Stops store `i`'s tier or node, then opens it again over the same
    /// file, a remote node on the listener it had: connections it served
    /// are severed, and the port is never free for another socket to take.
    pub fn restart(&self, i: usize) {
        let mut hosts = self.hosts();
        self.stop(&mut hosts[i]);
        self.start(&mut hosts[i]);
    }

    /// Serves the tier on a loopback listener; returns its address.
    pub fn serve(&self) -> SocketAddr {
        let server = Server::bind("127.0.0.1:0", self.handler()).unwrap();
        let addr = server.addr();
        self.served.lock().unwrap().push(server);
        addr
    }
}

/// A loopback address of the node's own, `127.a.b.c` at random (Linux
/// routes all of `127/8` to `lo`; `127.255.255.255` is broadcast): the port
/// `kill` releases can then be taken only by a socket bound to that
/// address, so the coordinator's dials to it are refused, never answered
/// by a node another test process bound on `127.0.0.1`.
fn loopback() -> SocketAddr {
    let hash = RandomState::new().build_hasher().finish();
    let [a, b, c, ..] = hash.to_le_bytes();
    SocketAddr::from(([127, a.min(254), b, c], 0))
}

/// A coordinator config that dials a node twice, 1 ms apart, and promotes
/// a backup after `promote_after` strikes.
pub fn dial_fast(promote_after: u32) -> ServiceConfig {
    let pool = PoolConfig {
        connect_attempts: 2,
        backoff: Duration::from_millis(1),
        ..PoolConfig::default()
    };
    ServiceConfig {
        pool,
        promote_after,
        ..ServiceConfig::default()
    }
}

/// Asserts that `a` and `b` answer each of `requests` with the same bytes.
pub fn same_replies(
    a: &dyn Handler,
    b: &dyn Handler,
    requests: impl IntoIterator<Item = Request>,
    when: &str,
) {
    for q in requests {
        let want = a.handle(q.clone()).encode();
        assert_eq!(b.handle(q.clone()).encode(), want, "{when}: {q:?}");
    }
}
