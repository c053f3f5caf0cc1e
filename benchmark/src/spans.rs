//! Tracing from outside the program: spans recorded by the benchmark's own
//! wrappers around the product's public seams.
//!
//! * [`TimedTransport`] around the client's connection (`client::Transport`),
//! * [`Spanned`] around the coordinator and node handlers
//!   (`wire::transport::Handler`, forwarding both `handle` and
//!   `handle_frame` so the zero-copy frame path is the one measured),
//! * [`TimedKv`] around the node's store (`store::KvStore`).
//!
//! Spans stay in per-thread memory until [`drain`] and carry
//! `layer, start, end, parent, op id`. The traced run drives one client
//! thread, so exactly one operation is in flight and "the span that caused
//! this one" is the span currently open one layer up; only the node → store
//! link is per thread, because scatter-gather legs run in parallel.
//!
//! A layer's **self time** within an operation is the time its spans cover
//! minus the time the next layer's spans cover (each as the union of its
//! intervals), so every instant of the operation is charged to the deepest
//! layer active then and the rows sum to the client-observed time exactly,
//! parallel legs included.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use timecrypt_client::{ClientFault, Transport};
use timecrypt_store::{KvPairs, KvStore, StoreError};
use timecrypt_wire::messages::{Request, Response};
use timecrypt_wire::transport::Handler;

/// Where a span was recorded, outermost first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// One client operation (a `push`+`flush` run, a `stat_query*`, a
    /// `get_range`), opened by the workload loop.
    Op = 0,
    /// One round trip as the client role saw it.
    Transport = 1,
    /// One request inside the coordinator's handler.
    Coord = 2,
    /// One request inside the node's handler.
    Node = 3,
    /// One call into the node's store.
    Store = 4,
}

pub const LAYERS: usize = 5;

/// Store-span kinds.
pub const KV_GET: u8 = 0;
pub const KV_PUT: u8 = 1;
pub const KV_DELETE: u8 = 2;
pub const KV_SCAN: u8 = 3;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    /// Op: the operation kind; Store: one of the `KV_*` kinds.
    pub kind: u8,
    pub id: u32,
    pub parent: u32,
    /// The root [`Layer::Op`] span this work was done for (0 = none).
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Transport: encoded request bytes; Store: bytes handed to `put`.
    pub bytes_in: u64,
    /// Transport: encoded response bytes; Store: bytes returned by `get`.
    pub bytes_out: u64,
    /// Op only: time the benchmark spent metering inside the operation,
    /// which is not the program's and is taken off the operation's time.
    pub excluded_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
/// The open span of each cross-thread layer (Op, Transport, Coord).
static CURRENT: [AtomicU32; 3] = [AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0)];
type Buffer = Arc<Mutex<Vec<Span>>>;
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    static CURRENT_NODE: Cell<u32> = const { Cell::new(0) };
    static EXCLUDED_NS: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off. Off, every wrapper call is one relaxed load.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

fn record(span: Span) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buf = local.get_or_insert_with(|| {
            let buf: Buffer = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
            BUFFERS
                .lock()
                .expect("span registry poisoned: a recording thread panicked")
                .push(buf.clone());
            buf
        });
        buf.lock()
            .expect("span buffer poisoned: a recording thread panicked")
            .push(span);
    });
}

/// Takes every recorded span, ordered by start time.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS
        .lock()
        .expect("span registry poisoned: a recording thread panicked");
    let mut all = Vec::new();
    for buf in buffers.iter() {
        all.append(
            &mut buf
                .lock()
                .expect("span buffer poisoned: a recording thread panicked"),
        );
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// An open span; recorded when dropped.
pub struct Open {
    span: Span,
    restore: u32,
}

/// Opens a span on `layer`, or `None` while recording is off.
pub fn open(layer: Layer, kind: u8) -> Option<Open> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, restore) = match layer {
        Layer::Op => (0, CURRENT[0].swap(id, Ordering::SeqCst)),
        Layer::Transport | Layer::Coord => {
            let l = layer as usize;
            (
                CURRENT[l - 1].load(Ordering::SeqCst),
                CURRENT[l].swap(id, Ordering::SeqCst),
            )
        }
        Layer::Node => (
            CURRENT[2].load(Ordering::SeqCst),
            CURRENT_NODE.with(|c| c.replace(id)),
        ),
        Layer::Store => (CURRENT_NODE.with(Cell::get), 0),
    };
    let op = if layer == Layer::Op {
        EXCLUDED_NS.with(|e| e.set(0));
        id
    } else {
        CURRENT[0].load(Ordering::SeqCst)
    };
    Some(Open {
        span: Span {
            layer,
            kind,
            id,
            parent,
            op,
            start_ns: now_ns(),
            end_ns: 0,
            bytes_in: 0,
            bytes_out: 0,
            excluded_ns: 0,
        },
        restore,
    })
}

impl Open {
    /// Fixes the end time now; byte counts may still be set afterwards.
    pub fn end(&mut self) {
        if self.span.end_ns == 0 {
            self.span.end_ns = now_ns();
        }
    }

    pub fn set_bytes(&mut self, bytes_in: u64, bytes_out: u64) {
        self.span.bytes_in = bytes_in;
        self.span.bytes_out = bytes_out;
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        self.end();
        match self.span.layer {
            Layer::Op => {
                self.span.excluded_ns = EXCLUDED_NS.with(|e| e.replace(0));
                CURRENT[0].store(self.restore, Ordering::SeqCst);
            }
            Layer::Transport | Layer::Coord => {
                CURRENT[self.span.layer as usize].store(self.restore, Ordering::SeqCst)
            }
            Layer::Node => CURRENT_NODE.with(|c| c.set(self.restore)),
            Layer::Store => {}
        }
        record(self.span);
    }
}

/// The client's connection: counts acknowledged uploads always and, while
/// recording, times each round trip and meters the encoded size of what went
/// each way. That encoding is the benchmark's work, so its time is taken off
/// the enclosing operation.
pub struct TimedTransport<T> {
    inner: T,
    scratch: Vec<u8>,
    uploaded_chunks: u64,
    uploaded_bytes: u64,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            scratch: Vec::new(),
            uploaded_chunks: 0,
            uploaded_bytes: 0,
        }
    }

    /// Sealed chunks the server has acknowledged over this connection.
    pub fn uploaded_chunks(&self) -> u64 {
        self.uploaded_chunks
    }

    /// Their total sealed size: the "user bytes" of
    /// `store_bytes_per_user_byte`.
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded_bytes
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        let mut span = open(Layer::Transport, 0);
        let reply = self.inner.call(req);
        match (req, &reply) {
            (Request::Insert { chunk }, Ok(Response::Ok)) => {
                self.uploaded_chunks += 1;
                self.uploaded_bytes += chunk.len() as u64;
            }
            (Request::InsertBatch { chunks }, Ok(Response::Batch { errors })) => {
                let rejected = |i: usize| errors.iter().any(|&(at, _)| at as usize == i);
                for (_, chunk) in chunks.iter().enumerate().filter(|(i, _)| !rejected(*i)) {
                    self.uploaded_chunks += 1;
                    self.uploaded_bytes += chunk.len() as u64;
                }
            }
            _ => {}
        }
        if let Some(span) = &mut span {
            span.end();
            let metering = Instant::now();
            self.scratch.clear();
            req.encode_into(&mut self.scratch);
            let sent = self.scratch.len() as u64;
            self.scratch.clear();
            if let Ok(resp) = &reply {
                resp.encode_into(&mut self.scratch);
            }
            span.set_bytes(sent, self.scratch.len() as u64);
            let spent = metering.elapsed().as_nanos() as u64;
            EXCLUDED_NS.with(|e| e.set(e.get() + spent));
        }
        reply
    }
}

/// A request handler, timed on both of its entry points.
pub struct Spanned<H> {
    inner: H,
    layer: Layer,
}

impl<H: Handler> Spanned<H> {
    pub fn new(inner: H, layer: Layer) -> Self {
        Spanned { inner, layer }
    }
}

impl<H: Handler> Handler for Spanned<H> {
    fn handle(&self, req: Request) -> Response {
        let _span = open(self.layer, 0);
        self.inner.handle(req)
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        let _span = open(self.layer, 0);
        self.inner.handle_frame(body)
    }
}

/// The node's store, timed and counted per call.
pub struct TimedKv<K> {
    inner: K,
}

impl<K: KvStore> TimedKv<K> {
    pub fn new(inner: K) -> Self {
        TimedKv { inner }
    }
}

impl<K: KvStore> KvStore for TimedKv<K> {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let mut span = open(Layer::Store, KV_GET);
        let got = self.inner.get(key);
        if let (Some(span), Ok(Some(value))) = (&mut span, &got) {
            span.set_bytes(0, value.len() as u64);
        }
        got
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut span = open(Layer::Store, KV_PUT);
        if let Some(span) = &mut span {
            span.set_bytes((key.len() + value.len()) as u64, 0);
        }
        self.inner.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        let _span = open(Layer::Store, KV_DELETE);
        self.inner.delete(key)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        let _span = open(Layer::Store, KV_SCAN);
        self.inner.scan_prefix(prefix)
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// One operation's time by layer, plus the counts taken at the boundaries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpLedger {
    /// Client-observed time of the operation, metering excluded.
    pub total_ns: u64,
    /// Self time per [`Layer`]; sums to `total_ns`.
    pub self_ns: [u64; LAYERS],
    pub round_trips: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub node_calls: u64,
    pub puts: u64,
    pub put_bytes: u64,
    pub gets: u64,
    pub get_bytes: u64,
}

/// Attributes one operation: `root` is its [`Layer::Op`] span, `spans` every
/// other span recorded for it.
pub fn attribute(root: &Span, spans: &[Span]) -> OpLedger {
    let mut by_layer: [Vec<(u64, u64)>; LAYERS] = Default::default();
    let mut ledger = OpLedger::default();
    for s in spans {
        by_layer[s.layer as usize].push((s.start_ns, s.end_ns));
        match (s.layer, s.kind) {
            (Layer::Transport, _) => {
                ledger.round_trips += 1;
                ledger.request_bytes += s.bytes_in;
                ledger.response_bytes += s.bytes_out;
            }
            (Layer::Node, _) => ledger.node_calls += 1,
            (Layer::Store, KV_PUT) => {
                ledger.puts += 1;
                ledger.put_bytes += s.bytes_in;
            }
            (Layer::Store, KV_GET) => {
                ledger.gets += 1;
                ledger.get_bytes += s.bytes_out;
            }
            _ => {}
        }
    }
    // Covered time per layer; the root covers the whole operation, and the
    // metering it contains is taken off the client's own row.
    let mut covered = [0u64; LAYERS + 1];
    covered[0] = root.end_ns - root.start_ns;
    for layer in 1..LAYERS {
        covered[layer] = union_len(&mut by_layer[layer], root.start_ns, root.end_ns)
            // A deeper layer can never cover more than the one above it;
            // clock reads on different threads can disagree by a few ns.
            .min(covered[layer - 1]);
    }
    for layer in 0..LAYERS {
        ledger.self_ns[layer] = covered[layer] - covered[layer + 1];
    }
    let excluded = root.excluded_ns.min(ledger.self_ns[0]);
    ledger.self_ns[0] -= excluded;
    ledger.total_ns = covered[0] - excluded;
    ledger
}

/// Groups drained spans by operation and attributes each; returns
/// `(operation kind, ledger)` in operation order.
pub fn ledgers(spans: &[Span]) -> Vec<(u8, OpLedger)> {
    let mut by_op: std::collections::BTreeMap<u32, (Option<Span>, Vec<Span>)> =
        std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.op != 0) {
        let entry = by_op.entry(s.op).or_default();
        if s.layer == Layer::Op {
            entry.0 = Some(*s);
        } else {
            entry.1.push(*s);
        }
    }
    by_op
        .into_values()
        .filter_map(|(root, rest)| root.map(|r| (r.kind, attribute(&r, &rest))))
        .collect()
}

/// Writes spans as `layer kind id parent op start_ns end_ns bytes_in
/// bytes_out` lines.
pub fn dump(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(
        out,
        "layer kind id parent op start_ns end_ns bytes_in bytes_out"
    )?;
    for s in spans {
        writeln!(
            out,
            "{:?} {} {} {} {} {} {} {} {}",
            s.layer, s.kind, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.bytes_in, s.bytes_out
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, kind: u8, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            kind,
            id: 0,
            parent: 0,
            op: 1,
            start_ns,
            end_ns,
            bytes_in: 3,
            bytes_out: 5,
            excluded_ns: 0,
        }
    }

    /// One operation, two round trips; the second fans out to two node legs
    /// that overlap in time, each with store calls, one of which overlaps
    /// the other leg's store call.
    #[test]
    fn self_times_sum_to_the_root_on_a_parallel_legs_tree() {
        let mut root = span(Layer::Op, 2, 1_000, 11_000);
        root.excluded_ns = 400;
        let spans = vec![
            span(Layer::Transport, 0, 1_500, 3_000),
            span(Layer::Coord, 0, 1_800, 2_600),
            span(Layer::Transport, 0, 4_000, 10_000),
            span(Layer::Coord, 0, 4_500, 9_500),
            // leg A and leg B, overlapping 6_000..8_000
            span(Layer::Node, 0, 5_000, 8_000),
            span(Layer::Node, 0, 6_000, 9_000),
            span(Layer::Store, KV_GET, 5_500, 6_500),
            span(Layer::Store, KV_GET, 6_200, 7_000),
            span(Layer::Store, KV_PUT, 8_200, 8_700),
        ];
        let l = attribute(&root, &spans);
        assert_eq!(l.total_ns, 10_000 - 400);
        assert_eq!(l.self_ns.iter().sum::<u64>(), l.total_ns);
        // transport covers 1_500 + 6_000; coordinator 800 + 5_000; nodes
        // 5_000..9_000; store 5_500..7_000 and 8_200..8_700.
        assert_eq!(
            l.self_ns,
            [
                10_000 - 7_500 - 400,
                7_500 - 5_800,
                5_800 - 4_000,
                4_000 - 2_000,
                2_000
            ]
        );
        assert_eq!((l.round_trips, l.node_calls, l.gets, l.puts), (2, 2, 2, 1));
        assert_eq!((l.request_bytes, l.response_bytes), (6, 10));
        assert_eq!((l.get_bytes, l.put_bytes), (10, 3));
    }

    #[test]
    fn spans_outside_the_operation_are_clipped() {
        let root = span(Layer::Op, 0, 100, 200);
        let l = attribute(&root, &[span(Layer::Transport, 0, 50, 150)]);
        assert_eq!(l.self_ns[..2], [50, 50]);
    }
}
