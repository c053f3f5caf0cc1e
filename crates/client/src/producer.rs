//! The data producers: a device writing an encrypted stream.

use crate::transport::{chunk_fault, ClientFault, Exchange, Transport};
use timecrypt_chunk::{
    ChunkBuilder, ChunkRef, ChunkSealer, DataPoint, PlainChunk, SealedRecord, StreamConfig,
};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::SecureRandom;
use timecrypt_wire::messages::Request;

/// What both producers share: the stream's sealing state, kept for the
/// life of the stream (every sealed chunk and every real-time record
/// derives its keys from where the last one left the key-tree cursor),
/// and the sealed chunks the server has not acknowledged, oldest first.
/// A chunk is sealed once: a send that fails leaves its chunks at the
/// front of the queue, so the next `push` or `flush` retries the same
/// bytes in the same order and the producer's chunk indices never run
/// ahead of the server's.
struct Outbox {
    sealer: ChunkSealer,
    builder: ChunkBuilder,
    /// The chunks the builder completed, sealed at once: kept, so pushing
    /// a point allocates no list.
    done: Vec<PlainChunk>,
    rng: SecureRandom,
    queue: Vec<Vec<u8>>,
    /// Chunks per `InsertBatch`; `None` sends one `Insert` per chunk.
    batch: Option<usize>,
    chunks_sent: u64,
    batches_sent: u64,
    /// A send ended without a well-formed reply: the server may hold
    /// chunks it did not acknowledge.
    unsure: bool,
}

impl Outbox {
    fn new(
        cfg: StreamConfig,
        keys: &StreamKeyMaterial,
        rng: SecureRandom,
        batch: Option<usize>,
    ) -> Self {
        Outbox {
            sealer: ChunkSealer::new(&cfg, keys),
            builder: ChunkBuilder::new(cfg),
            done: Vec::new(),
            rng,
            queue: Vec::new(),
            batch,
            chunks_sent: 0,
            batches_sent: 0,
            unsure: false,
        }
    }

    /// Seals the completed chunks into the queue, each straight to its wire
    /// bytes in a buffer of their exact length.
    fn seal(&mut self) -> Result<(), ClientFault> {
        for chunk in self.done.drain(..) {
            let mut bytes = Vec::new();
            self.sealer
                .seal_into(&chunk, &mut self.rng, &mut bytes)
                .map_err(chunk_fault)?;
            self.queue.push(bytes);
        }
        Ok(())
    }

    /// Feeds one point to the builder and seals *everything* it completes
    /// (a point that skips chunk windows completes several at once) before
    /// anything is sent. Every point pushed takes this path, and most
    /// complete nothing.
    fn push(&mut self, point: DataPoint) -> Result<(), ClientFault> {
        self.builder
            .push(point, &mut self.done)
            .map_err(chunk_fault)?;
        if self.done.is_empty() {
            return Ok(());
        }
        self.seal()
    }

    /// Seals the in-progress chunk into the queue.
    fn close(&mut self) -> Result<(), ClientFault> {
        self.done.extend(self.builder.flush());
        self.seal()
    }

    /// Sends queued chunks, oldest first: while a whole request's worth is
    /// queued, or with `all` until none is; each chunk the server stored is
    /// handed to `acked`.
    #[inline]
    fn ship<T: Transport>(
        &mut self,
        transport: &mut T,
        all: bool,
        mut acked: impl FnMut(&[u8]) -> Result<(), ClientFault>,
    ) -> Result<(), ClientFault> {
        let size = self.batch.unwrap_or(1);
        while self.queue.len() >= size || all && !self.queue.is_empty() {
            self.send(transport, size, &mut acked)?;
        }
        Ok(())
    }

    /// Sends the first `size` queued chunks in one request: one `Insert`,
    /// or an `InsertBatch` of at most a batch, which keeps a queue grown
    /// during an outage under the transport's frame cap. They stay queued
    /// while it is out. The chunks the server stored then leave the queue;
    /// after a fault, a malformed reply or a refusal, the rest stay at its
    /// front, in order. Without a well-formed reply, the next send
    /// [reconciles](Self::reconcile) first.
    /// Kept out of line: it runs once a request, while `ship`'s check runs
    /// once a point, and inlined into the push path it made pushing a
    /// point measurably slower.
    #[inline(never)]
    fn send<T: Transport>(
        &mut self,
        transport: &mut T,
        size: usize,
        acked: &mut impl FnMut(&[u8]) -> Result<(), ClientFault>,
    ) -> Result<(), ClientFault> {
        if self.unsure {
            return self.reconcile(transport, acked);
        }
        let window = self.queue.len().min(size);
        let mut taken = self.queue[..window].iter_mut().map(std::mem::take);
        let req = match self.batch {
            Some(_) => Request::InsertBatch {
                chunks: taken.collect(),
            },
            None => Request::Insert {
                chunk: taken.next().unwrap_or_default(),
            },
        };
        self.unsure = true;
        let reply = match self.batch {
            Some(_) => transport.batch(&req),
            None => transport.ack(&req).map(|()| Vec::new()),
        };
        match req {
            Request::InsertBatch { chunks } => {
                self.queue.iter_mut().zip(chunks).for_each(|(q, c)| *q = c)
            }
            Request::Insert { chunk } => self.queue[0] = chunk,
            _ => {}
        }
        // The error list is server-controlled: a well-formed reply has at
        // most one entry per chunk, each within the request.
        let errors = reply?;
        if errors.len() > window || errors.iter().any(|&(idx, _)| idx as usize >= window) {
            return Err(ClientFault::Protocol("Batch within bounds"));
        }
        self.unsure = false;
        self.batches_sent += 1;
        let rejected = |at: usize| errors.iter().any(|&(idx, _)| idx as usize == at);
        self.settle(|at, _| at < window && !rejected(at), acked)?;
        match errors.into_iter().next() {
            Some((idx, msg)) => Err(ClientFault::Chunk(format!(
                "batch chunk {idx} rejected: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// The server may have stored what a failed send never heard back
    /// about. The stream has one producer (§4.6), so the chunks it holds
    /// are the queued ones below its length: they are acked and leave the
    /// queue, and only the rest are sent again.
    fn reconcile<T: Transport>(
        &mut self,
        transport: &mut T,
        acked: &mut impl FnMut(&[u8]) -> Result<(), ClientFault>,
    ) -> Result<(), ClientFault> {
        let stream = self.builder.config().id;
        let len = transport.info(&Request::StreamInfo { stream })?.len;
        self.unsure = false;
        self.settle(
            |_, bytes| ChunkRef::parse(bytes).is_ok_and(|c| c.index < len),
            acked,
        )
    }

    /// Takes the queued chunks `stored` picks, by queue position, out of
    /// the queue: each is counted as sent and handed to `acked`, in order.
    fn settle(
        &mut self,
        mut stored: impl FnMut(usize, &[u8]) -> bool,
        acked: &mut impl FnMut(&[u8]) -> Result<(), ClientFault>,
    ) -> Result<(), ClientFault> {
        let (mut at, mut fault) = (0, Ok(()));
        self.queue.retain(|chunk| {
            let keep = !stored(at, chunk);
            at += 1;
            if !keep {
                self.chunks_sent += 1;
                if fault.is_ok() {
                    fault = acked(chunk);
                }
            }
            keep
        });
        fault
    }
}

/// A producer for one stream: batches, digests, seals, uploads (§4.1, §4.6),
/// one `Insert` per chunk.
pub struct Producer {
    out: Outbox,
    /// Real-time mode state: `(open chunk, next seq within it, the chunk's
    /// payload key)`.
    live: Option<(u64, u32, [u8; 16])>,
    records_sent: u64,
    /// Integrity extension: mirror ledger + signing key (§3.3).
    attester: Option<(timecrypt_pk::SigningKey, timecrypt_integrity::StreamLedger)>,
}

impl Producer {
    /// Creates a producer. `keys` is provisioned by the data owner (the
    /// tree root is the stream's master secret).
    pub fn new(cfg: StreamConfig, keys: StreamKeyMaterial, rng: SecureRandom) -> Self {
        Producer {
            out: Outbox::new(cfg, &keys, rng, None),
            live: None,
            records_sent: 0,
            attester: None,
        }
    }

    /// Enables the integrity extension (§3.3): the producer mirrors every
    /// uploaded chunk into a local ledger and can publish signed root
    /// attestations with [`attest`](Self::attest). The signing key is the
    /// data owner's attestation key (its public half reaches consumers via
    /// the identity provider).
    pub fn with_attester(mut self, key: timecrypt_pk::SigningKey) -> Self {
        let ledger = timecrypt_integrity::StreamLedger::new(self.config().id);
        self.attester = Some((key, ledger));
        self
    }

    /// Signs the current ledger state and stores the attestation at the
    /// server. Consumers can then run verified queries covering every chunk
    /// uploaded so far. Errors if [`with_attester`](Self::with_attester)
    /// was not configured.
    pub fn attest<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        let (key, ledger) = self
            .attester
            .as_mut()
            .ok_or_else(|| ClientFault::Chunk("producer has no attestation key".into()))?;
        let att = ledger.attest(key, &mut self.out.rng);
        transport.ack(&Request::PutAttestation {
            stream: self.out.builder.config().id,
            attestation: att.encode(),
        })
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        self.out.builder.config()
    }

    /// Chunks successfully uploaded.
    pub fn chunks_sent(&self) -> u64 {
        self.out.chunks_sent
    }

    /// PRG invocations spent deriving keys so far (sealed chunks and
    /// real-time records).
    pub fn prg_calls(&self) -> u64 {
        self.out.sealer.prg_calls()
    }

    /// AES blocks spent on digest element keys so far.
    pub fn prf_blocks(&self) -> u64 {
        self.out.sealer.prf_blocks()
    }

    /// Feeds one point; uploads any chunks it completes. The point is
    /// consumed before anything is sent, so an `Err` refers to uploading
    /// sealed chunks: they stay queued and go first on the next `push` or
    /// [`flush`](Self::flush).
    pub fn push<T: Transport>(
        &mut self,
        transport: &mut T,
        point: DataPoint,
    ) -> Result<(), ClientFault> {
        self.out.push(point)?;
        self.ship(transport)
    }

    /// Records uploaded in real-time mode.
    pub fn records_sent(&self) -> u64 {
        self.records_sent
    }

    /// Real-time mode (§4.6): uploads `point` immediately as an individually
    /// sealed record *and* feeds it to the chunk builder. Readers see the
    /// point right away via `GetLive`; once the chunk boundary passes, the
    /// normal sealed chunk supersedes the records and the server drops them.
    /// Ingest latency is no longer bounded by Δ — at the cost of one extra
    /// GCM seal and round-trip per point.
    pub fn push_live<T: Transport>(
        &mut self,
        transport: &mut T,
        point: DataPoint,
    ) -> Result<(), ClientFault> {
        let out = &mut self.out;
        let stream = out.builder.config().id;
        let chunk = out
            .builder
            .config()
            .chunk_of(point.ts)
            .ok_or_else(|| ClientFault::Chunk("timestamp before stream epoch".into()))?;
        let (_, seq, key) = match &mut self.live {
            Some(live) if live.0 == chunk => live,
            // A new open chunk: its records all share one payload key.
            live => live.insert((
                chunk,
                0,
                out.sealer.payload_key(chunk).map_err(chunk_fault)?,
            )),
        };
        let record = SealedRecord::seal_with_key(stream, chunk, *seq, point, key, &mut out.rng);
        *seq += 1;
        transport.ack(&Request::InsertLive {
            record: record.to_bytes(),
        })?;
        self.records_sent += 1;
        self.push(transport, point)
    }

    /// Flushes the in-progress chunk (stream close / end of epoch), and
    /// anything still queued.
    pub fn flush<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        self.out.close()?;
        self.ship(transport)
    }

    /// Sends every queued chunk; with the integrity extension on, each one
    /// stored is mirrored into the ledger.
    fn ship<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        let attester = &mut self.attester;
        self.out.ship(transport, true, |bytes| {
            let Some((_, ledger)) = attester else {
                return Ok(());
            };
            let digest = ChunkRef::parse(bytes).map_err(chunk_fault)?.digest_ct;
            let commitment = timecrypt_integrity::chunk_commitment(bytes);
            ledger
                .append(commitment, digest.iter().collect())
                .map_err(chunk_fault)
        })
    }
}

/// A batch-aware producer: seals chunks like [`Producer`] but buffers the
/// sealed bytes and ships them `batch_size` at a time with one
/// `InsertBatch` round trip — the client side of the service tier's batched
/// ingest pipeline. Within a batch the chunks stay in seal order, so the
/// server's per-stream ordering check is preserved.
///
/// ```
/// use std::sync::Arc;
/// use timecrypt_client::{BatchingProducer, InProc};
/// use timecrypt_chunk::{DataPoint, StreamConfig};
/// use timecrypt_core::StreamKeyMaterial;
/// use timecrypt_crypto::{PrgKind, SecureRandom};
/// use timecrypt_server::{ServerConfig, TimeCryptServer};
/// use timecrypt_store::MemKv;
///
/// // Δ = 10 s chunks on stream 1; any Handler works as the transport
/// // (single engine here; a ShardedService coordinator in production).
/// let cfg = StreamConfig::new(1, "temp", 0, 10_000);
/// let server = Arc::new(
///     TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap(),
/// );
/// server.create_stream(1, 0, 10_000, cfg.schema.width() as u32).unwrap();
/// let mut transport = InProc::new(server);
///
/// let keys = StreamKeyMaterial::with_params(1, [7; 16], 20, PrgKind::Aes).unwrap();
/// let mut producer =
///     BatchingProducer::new(cfg, keys, SecureRandom::from_seed_insecure(1), 4);
/// // 1 Hz points: every 10th point completes a chunk; chunks ship in
/// // batches of 4 (one InsertBatch round trip each).
/// for sec in 0..100i64 {
///     producer.push(&mut transport, DataPoint::new(sec * 1000, 20)).unwrap();
/// }
/// producer.flush(&mut transport).unwrap();
/// assert_eq!(producer.chunks_sent(), 10);
/// assert_eq!(producer.batches_sent(), 3, "4 + 4 + flushed 2");
/// ```
pub struct BatchingProducer {
    out: Outbox,
}

impl BatchingProducer {
    /// Creates a batching producer shipping `batch_size` chunks per round
    /// trip (`batch_size` ≥ 1).
    pub fn new(
        cfg: StreamConfig,
        keys: StreamKeyMaterial,
        rng: SecureRandom,
        batch_size: usize,
    ) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        BatchingProducer {
            out: Outbox::new(cfg, &keys, rng, Some(batch_size)),
        }
    }

    /// Chunks acknowledged by the server so far.
    pub fn chunks_sent(&self) -> u64 {
        self.out.chunks_sent
    }

    /// Batches shipped so far.
    pub fn batches_sent(&self) -> u64 {
        self.out.batches_sent
    }

    /// PRG invocations spent deriving keys so far.
    pub fn prg_calls(&self) -> u64 {
        self.out.sealer.prg_calls()
    }

    /// AES blocks spent on digest element keys so far.
    pub fn prf_blocks(&self) -> u64 {
        self.out.sealer.prf_blocks()
    }

    /// Feeds one point; seals any completed chunks into the pending batch
    /// and ships the batch once it reaches `batch_size`.
    ///
    /// The point is consumed by the chunk builder *before* any shipping
    /// happens, so an `Err` here refers to shipping previously completed
    /// chunks — recover with [`flush`](Self::flush) once the fault clears;
    /// re-pushing the same point would duplicate it.
    pub fn push<T: Transport>(
        &mut self,
        transport: &mut T,
        point: DataPoint,
    ) -> Result<(), ClientFault> {
        self.out.push(point)?;
        self.out.ship(transport, false, |_| Ok(()))
    }

    /// Seals the in-progress chunk and ships everything still buffered.
    pub fn flush<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        self.out.close()?;
        self.out.ship(transport, true, |_| Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use timecrypt_wire::messages::{Response, StreamInfoWire};

    fn keys() -> StreamKeyMaterial {
        StreamKeyMaterial::with_params(1, [5u8; 16], 20, timecrypt_crypto::PrgKind::Aes).unwrap()
    }

    fn rng() -> SecureRandom {
        SecureRandom::from_seed_insecure(2)
    }

    fn producer(batch_size: usize) -> BatchingProducer {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        BatchingProducer::new(cfg, keys(), rng(), batch_size)
    }

    /// 1 Hz points over Δ=10 s: every 10th point completes a chunk.
    fn feed<T: crate::transport::Transport>(
        p: &mut BatchingProducer,
        t: &mut T,
        points: std::ops::Range<i64>,
    ) -> Result<(), ClientFault> {
        for i in points {
            p.push(t, DataPoint::new(i * 1000, i))?;
        }
        Ok(())
    }

    #[test]
    fn rejected_chunks_are_requeued_for_retry() {
        // Rejects every chunk of the first batch, accepts afterwards.
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = calls.clone();
        let handler = move |req: Request| match req {
            Request::InsertBatch { chunks } => {
                if calls2.fetch_add(1, Ordering::Relaxed) == 0 {
                    Response::Batch {
                        errors: (0..chunks.len() as u32)
                            .map(|i| (i, "down".into()))
                            .collect(),
                    }
                } else {
                    Response::Batch { errors: vec![] }
                }
            }
            _ => Response::Ok,
        };
        let mut t = InProc::new(Arc::new(handler));
        let mut p = producer(2);
        // 20 points fill chunks 0 and 1; the flush-triggered ship fails and
        // the sealed chunks stay queued.
        feed(&mut p, &mut t, 0..20).unwrap();
        let err = p.flush(&mut t).unwrap_err();
        assert!(matches!(err, ClientFault::Chunk(_)), "{err:?}");
        assert_eq!(p.chunks_sent(), 0);
        // Retry without sealing anything new: the queued chunks go through.
        p.flush(&mut t).unwrap();
        assert_eq!(p.chunks_sent(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    /// A transport that fails its first `Insert` or `InsertBatch`, then
    /// delegates to a real handler.
    struct FailOnce<T> {
        inner: T,
        failed: bool,
    }

    impl<T: crate::transport::Transport> crate::transport::Transport for FailOnce<T> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            let insert = matches!(req, Request::Insert { .. } | Request::InsertBatch { .. });
            if !self.failed && insert {
                self.failed = true;
                return Err(ClientFault::Transport("injected fault".into()));
            }
            self.inner.call(req)
        }
    }

    #[test]
    fn gap_filling_chunks_survive_a_ship_failure() {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        for batched in [true, false] {
            let server = std::sync::Arc::new(
                timecrypt_server::TimeCryptServer::open(
                    Arc::new(timecrypt_store::MemKv::new()),
                    timecrypt_server::ServerConfig::default(),
                )
                .unwrap(),
            );
            let width = cfg.schema.width() as u32;
            server.create_stream(1, 0, 10_000, width).unwrap();
            let mut t = FailOnce {
                inner: InProc::new(server.clone()),
                failed: false,
            };
            let (mut single, mut batching) =
                (Producer::new(cfg.clone(), keys(), rng()), producer(1));
            // Pushes a point, or flushes; the chunks acknowledged so far.
            let mut step = |point: Option<DataPoint>| {
                let done = match (batched, point) {
                    (true, Some(p)) => batching.push(&mut t, p),
                    (true, None) => batching.flush(&mut t),
                    (false, Some(p)) => single.push(&mut t, p),
                    (false, None) => single.flush(&mut t),
                };
                (done, batching.chunks_sent() + single.chunks_sent())
            };
            assert!(matches!(step(Some(DataPoint::new(0, 7))), (Ok(()), 0)));
            // Skipping to chunk 3's window completes chunks 0, 1, 2 at once;
            // the first (failing) send must not lose the gap-fill chunks.
            let (err, sent) = step(Some(DataPoint::new(35_000, 8)));
            assert!(matches!(err, Err(ClientFault::Transport(_))), "{err:?}");
            assert_eq!(sent, 0);
            // Fault cleared: everything queued lands, in index order.
            let (done, sent) = step(None);
            done.unwrap();
            assert_eq!(sent, 4, "chunks 0..=2 plus the flushed tail");
            assert_eq!(server.stream_info(1).unwrap().len, 4, "batched: {batched}");
        }
    }

    /// Records every chunk the server acknowledged, in order; refuses the
    /// `fail_at`-th batch with a transport fault.
    #[derive(Default)]
    struct Recorder {
        acked: Vec<Vec<u8>>,
        batches: usize,
        fail_at: Option<usize>,
    }

    impl crate::transport::Transport for Recorder {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            match req {
                Request::Insert { chunk } => {
                    self.acked.push(chunk.clone());
                    Ok(Response::Ok)
                }
                Request::InsertBatch { chunks } => {
                    self.batches += 1;
                    if self.fail_at == Some(self.batches) {
                        return Err(ClientFault::Transport("injected fault".into()));
                    }
                    self.acked.extend(chunks.iter().cloned());
                    Ok(Response::Batch { errors: vec![] })
                }
                // A server's length: the chunks it acknowledged.
                Request::StreamInfo { stream } => Ok(Response::Info(StreamInfoWire {
                    stream: *stream,
                    t0: 0,
                    delta_ms: 10_000,
                    digest_width: 0,
                    len: self.acked.len() as u64,
                })),
                _ => Ok(Response::Ok),
            }
        }
    }

    #[test]
    fn producers_emit_the_bytes_of_per_chunk_plain_seal() {
        // One sealing state per producer for the life of the stream must
        // not change a byte: driven by the same RNG stream, `Producer`,
        // `BatchingProducer` (any batch size, with and without a failed
        // ship in the middle), a reused `ChunkSealer` and per-chunk
        // `PlainChunk::seal` emit the same chunks.
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let keys = StreamKeyMaterial::with_params(1, [5u8; 16], 20, Default::default()).unwrap();
        let rng = || SecureRandom::from_seed_insecure(77);
        // Sequential chunks, a point that skips five windows, a flush in
        // the middle of the stream, then more of the same.
        let before: Vec<DataPoint> = (0..45)
            .chain(100..130)
            .map(|s| DataPoint::new(s * 1000, s))
            .collect();
        let after: Vec<DataPoint> = (130..175)
            .chain(260..290)
            .map(|s| DataPoint::new(s * 1000, -s))
            .collect();

        // Reference: a builder and a fresh one-shot seal per chunk.
        let mut reference = Vec::new();
        let mut via_sealer = Vec::new();
        {
            let (mut builder, mut rng_a, mut rng_b) =
                (ChunkBuilder::new(cfg.clone()), rng(), rng());
            let mut sealer = ChunkSealer::new(&cfg, &keys);
            let mut seal = |chunk: timecrypt_chunk::PlainChunk| {
                reference.push(chunk.seal(&cfg, &keys, &mut rng_a).unwrap().to_bytes());
                via_sealer.push(sealer.seal(&chunk, &mut rng_b).unwrap().to_bytes());
            };
            for half in [&before, &after] {
                for &p in half {
                    let mut done = Vec::new();
                    builder.push(p, &mut done).unwrap();
                    done.into_iter().for_each(&mut seal);
                }
                builder.flush().into_iter().for_each(&mut seal);
            }
        }
        assert_eq!(reference.len(), 29, "chunks 0..=12, then 13..=28");
        assert_eq!(via_sealer, reference);

        let mut t = Recorder::default();
        let mut single = Producer::new(cfg.clone(), keys.clone(), rng());
        for half in [&before, &after] {
            for &p in half {
                single.push(&mut t, p).unwrap();
            }
            single.flush(&mut t).unwrap();
        }
        assert_eq!(t.acked, reference, "Producer");
        assert_eq!(single.chunks_sent(), 29);

        for (batch_size, fail_at) in [(1, None), (4, None), (16, None), (1, Some(3)), (4, Some(2))]
        {
            let mut t = Recorder {
                fail_at,
                ..Recorder::default()
            };
            let mut p = BatchingProducer::new(cfg.clone(), keys.clone(), rng(), batch_size);
            let mut faults = 0;
            for half in [&before, &after] {
                for &point in half {
                    // A failed ship keeps its sealed chunks queued; the
                    // point itself is already in the builder.
                    faults += p.push(&mut t, point).is_err() as usize;
                }
                while p.flush(&mut t).is_err() {
                    faults += 1;
                }
            }
            assert_eq!(faults, fail_at.is_some() as usize, "batch {batch_size}");
            assert_eq!(t.acked, reference, "batch {batch_size}, fault {fail_at:?}");
            assert_eq!(p.chunks_sent(), 29);
            assert_eq!(p.prg_calls(), single.prg_calls(), "same leaves, same order");
        }
    }

    #[test]
    fn out_of_bounds_error_list_is_a_protocol_fault() {
        let handler = |req: Request| match req {
            Request::InsertBatch { .. } => Response::Batch {
                errors: vec![(0, "a".into()), (7, "out of range".into())],
            },
            _ => Response::Ok,
        };
        let mut t = InProc::new(Arc::new(handler));
        let mut p = producer(1);
        // Point 10 completes chunk 0 and triggers the one-chunk ship.
        let err = feed(&mut p, &mut t, 0..11).unwrap_err();
        assert!(
            matches!(err, ClientFault::Protocol("Batch within bounds")),
            "{err:?}"
        );
        assert_eq!(p.chunks_sent(), 0, "no accounting from a malformed reply");
        // The sealed chunk is still queued for retry.
        assert_eq!(p.out.queue.len(), 1);
    }

    /// Delivers every request, but loses the reply to the first
    /// `InsertBatch`: the server stored the batch, the producer hears a
    /// fault.
    struct LostAck<T> {
        inner: T,
        lost: bool,
    }

    impl<T: crate::transport::Transport> crate::transport::Transport for LostAck<T> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            let reply = self.inner.call(req);
            if !self.lost && matches!(req, Request::InsertBatch { .. }) {
                self.lost = true;
                return Err(ClientFault::Transport("reply lost".into()));
            }
            reply
        }
    }

    #[test]
    fn an_ambiguous_ack_is_reconciled_not_resent() {
        use crate::{Consumer, DataOwner};
        let server = timecrypt_server::TimeCryptServer::open(
            Arc::new(timecrypt_store::MemKv::new()),
            timecrypt_server::ServerConfig::default(),
        );
        let mut t = LostAck {
            inner: InProc::new(Arc::new(server.unwrap())),
            lost: false,
        };
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let mut owner = DataOwner::with_height(cfg.clone(), [5u8; 16], 20, rng());
        owner.create_stream(&mut t).unwrap();
        let mut p = BatchingProducer::new(cfg.clone(), owner.provision_producer(), rng(), 2);
        // Chunks 0 and 1 land, but their ack is lost.
        assert!(feed(&mut p, &mut t, 0..21).is_err());
        assert_eq!(p.chunks_sent(), 0);
        feed(&mut p, &mut t, 21..60).unwrap();
        p.flush(&mut t).unwrap();
        assert_eq!(p.chunks_sent(), 6, "chunks 0..=5, each stored once");

        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(3));
        owner
            .grant_access(&mut t, "c", c.public_key(), 0, 60_000)
            .unwrap();
        c.sync_grants(&mut t, cfg.id).unwrap();
        let read = c.get_range(&mut t, cfg.id, 0, 60_000).unwrap();
        let ts: Vec<i64> = read.iter().map(|p| p.ts).collect();
        assert_eq!(ts, (0..60).map(|s| s * 1000).collect::<Vec<_>>());
    }
}
