//! The data producer: a device writing an encrypted stream.

use crate::transport::{ClientFault, Transport};
use timecrypt_chunk::{ChunkBuilder, ChunkSealer, DataPoint, SealedRecord, StreamConfig};
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::SecureRandom;
use timecrypt_wire::messages::{Request, Response};

/// A producer for one stream: batches, digests, seals, uploads (§4.1, §4.6).
pub struct Producer {
    /// Sealing state, kept for the life of the stream: every sealed chunk
    /// and every real-time record derives its keys from where the last
    /// one left the key-tree cursor.
    sealer: ChunkSealer,
    builder: ChunkBuilder,
    rng: SecureRandom,
    chunks_sent: u64,
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
            sealer: ChunkSealer::new(&cfg, &keys),
            builder: ChunkBuilder::new(cfg),
            rng,
            chunks_sent: 0,
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
            .ok_or(ClientFault::Chunk("producer has no attestation key".into()))?;
        let att = ledger.attest(key, &mut self.rng);
        match transport.call(&Request::PutAttestation {
            stream: self.config().id,
            attestation: att.encode(),
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig {
        self.builder.config()
    }

    /// Chunks successfully uploaded.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks_sent
    }

    /// PRG invocations spent deriving keys so far (sealed chunks and
    /// real-time records).
    pub fn prg_calls(&self) -> u64 {
        self.sealer.prg_calls()
    }

    /// Feeds one point; uploads any chunks it completes.
    pub fn push<T: Transport>(
        &mut self,
        transport: &mut T,
        point: DataPoint,
    ) -> Result<(), ClientFault> {
        let done = self
            .builder
            .push(point)
            .map_err(|e| ClientFault::Chunk(e.to_string()))?;
        for chunk in done {
            self.upload(transport, chunk)?;
        }
        Ok(())
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
        let cfg = self.builder.config();
        let stream = cfg.id;
        let chunk = cfg
            .chunk_of(point.ts)
            .ok_or(ClientFault::Chunk("timestamp before stream epoch".into()))?;
        let (_, seq, key) = match &mut self.live {
            Some(live) if live.0 == chunk => live,
            // A new open chunk: its records all share one payload key.
            live => {
                let key = self
                    .sealer
                    .payload_key(chunk)
                    .map_err(|e| ClientFault::Chunk(e.to_string()))?;
                live.insert((chunk, 0, key))
            }
        };
        let record = SealedRecord::seal_with_key(stream, chunk, *seq, point, key, &mut self.rng);
        *seq += 1;
        match transport.call(&Request::InsertLive {
            record: record.to_bytes(),
        })? {
            Response::Ok => self.records_sent += 1,
            _ => return Err(ClientFault::Protocol("Ok")),
        }
        self.push(transport, point)
    }

    /// Flushes the in-progress chunk (stream close / end of epoch).
    pub fn flush<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        if let Some(chunk) = self.builder.flush() {
            self.upload(transport, chunk)?;
        }
        Ok(())
    }

    fn upload<T: Transport>(
        &mut self,
        transport: &mut T,
        chunk: timecrypt_chunk::PlainChunk,
    ) -> Result<(), ClientFault> {
        let sealed = self
            .sealer
            .seal(&chunk, &mut self.rng)
            .map_err(|e| ClientFault::Chunk(e.to_string()))?;
        // The request owns the bytes for the call; the ledger gets them back.
        let req = Request::Insert {
            chunk: sealed.to_bytes(),
        };
        let reply = transport.call(&req)?;
        let Request::Insert { chunk: bytes } = req else {
            unreachable!("constructed above")
        };
        match reply {
            Response::Ok => {
                self.chunks_sent += 1;
                if let Some((_, ledger)) = &mut self.attester {
                    ledger
                        .append(
                            timecrypt_integrity::chunk_commitment(&bytes),
                            sealed.digest_ct,
                        )
                        .map_err(|e| ClientFault::Chunk(e.to_string()))?;
                }
                Ok(())
            }
            _ => Err(ClientFault::Protocol("Ok")),
        }
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
    /// Sealing state, kept for the life of the stream (see [`Producer`]).
    sealer: ChunkSealer,
    builder: ChunkBuilder,
    rng: SecureRandom,
    batch: Vec<Vec<u8>>,
    batch_size: usize,
    chunks_sent: u64,
    batches_sent: u64,
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
            sealer: ChunkSealer::new(&cfg, &keys),
            builder: ChunkBuilder::new(cfg),
            rng,
            batch: Vec::with_capacity(batch_size),
            batch_size,
            chunks_sent: 0,
            batches_sent: 0,
        }
    }

    /// Chunks acknowledged by the server so far.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks_sent
    }

    /// Batches shipped so far.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// PRG invocations spent deriving keys so far.
    pub fn prg_calls(&self) -> u64 {
        self.sealer.prg_calls()
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
        let done = self
            .builder
            .push(point)
            .map_err(|e| ClientFault::Chunk(e.to_string()))?;
        // Seal *everything* the builder completed (a point that skips chunk
        // windows completes several chunks at once) before any shipping, so
        // a ship failure can never drop a sealed-but-unsent chunk.
        for chunk in done {
            self.seal_into_batch(&chunk)?;
        }
        while self.batch.len() >= self.batch_size {
            self.ship(transport, self.batch_size)?;
        }
        Ok(())
    }

    /// Seals the in-progress chunk and ships everything still buffered.
    pub fn flush<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        if let Some(chunk) = self.builder.flush() {
            self.seal_into_batch(&chunk)?;
        }
        while !self.batch.is_empty() {
            let window = self.batch.len().min(self.batch_size);
            self.ship(transport, window)?;
        }
        Ok(())
    }

    /// Seals `chunk` and queues its bytes. A queued chunk is never sealed
    /// again: a failed ship retries the same bytes.
    fn seal_into_batch(&mut self, chunk: &timecrypt_chunk::PlainChunk) -> Result<(), ClientFault> {
        let sealed = self
            .sealer
            .seal(chunk, &mut self.rng)
            .map_err(|e| ClientFault::Chunk(e.to_string()))?;
        self.batch.push(sealed.to_bytes());
        Ok(())
    }

    /// Ships the first `window` queued chunks (one wire frame — the window
    /// keeps a buffer grown during an outage under the transport's frame
    /// cap). On failure the unacknowledged sealed chunks return to the
    /// *front* of `self.batch` in order, so the caller can retry with
    /// another [`flush`](Self::flush) once the fault clears — the
    /// producer's chunk-index stream never desynchronizes from the server.
    fn ship<T: Transport>(&mut self, transport: &mut T, window: usize) -> Result<(), ClientFault> {
        debug_assert!(window >= 1 && window <= self.batch.len());
        let req = Request::InsertBatch {
            chunks: self.batch.drain(..window).collect(),
        };
        let reply = transport.call(&req);
        let Request::InsertBatch { chunks } = req else {
            unreachable!("constructed above")
        };
        let sent = chunks.len() as u64;
        let requeue_front = |batch: &mut Vec<Vec<u8>>, chunks: Vec<Vec<u8>>| {
            batch.splice(..0, chunks);
        };
        match reply {
            Err(e) => {
                // Transport fault: nothing acknowledged; retry everything.
                requeue_front(&mut self.batch, chunks);
                Err(e)
            }
            Ok(Response::Batch { errors }) => {
                // The error list is server-controlled: a well-formed reply
                // has at most one entry per chunk, each within the batch.
                if errors.len() as u64 > sent || errors.iter().any(|&(idx, _)| idx as u64 >= sent) {
                    requeue_front(&mut self.batch, chunks);
                    return Err(ClientFault::Protocol("Batch within bounds"));
                }
                self.batches_sent += 1;
                self.chunks_sent += sent - errors.len() as u64;
                if errors.is_empty() {
                    return Ok(());
                }
                // Re-queue every rejected chunk, preserving order, so a
                // later flush retries exactly what the server refused.
                let rejected: std::collections::BTreeSet<u32> =
                    errors.iter().map(|&(idx, _)| idx).collect();
                requeue_front(
                    &mut self.batch,
                    chunks
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| rejected.contains(&(*i as u32)))
                        .map(|(_, c)| c)
                        .collect(),
                );
                let (idx, msg) = errors.into_iter().next().expect("non-empty errors");
                Err(ClientFault::Chunk(format!(
                    "batch chunk {idx} rejected: {msg}"
                )))
            }
            Ok(_) => {
                requeue_front(&mut self.batch, chunks);
                Err(ClientFault::Protocol("Batch"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use timecrypt_wire::messages::Response;

    fn producer(batch_size: usize) -> BatchingProducer {
        let cfg = StreamConfig::new(1, "m", 0, 10_000);
        let keys = timecrypt_core::StreamKeyMaterial::with_params(
            1,
            [5u8; 16],
            20,
            timecrypt_crypto::PrgKind::Aes,
        )
        .unwrap();
        BatchingProducer::new(
            cfg,
            keys,
            timecrypt_crypto::SecureRandom::from_seed_insecure(2),
            batch_size,
        )
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

    /// A transport that fails its first `InsertBatch`, then delegates to a
    /// real handler.
    struct FailOnce<T> {
        inner: T,
        failed: bool,
    }

    impl<T: crate::transport::Transport> crate::transport::Transport for FailOnce<T> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            if !self.failed && matches!(req, Request::InsertBatch { .. }) {
                self.failed = true;
                return Err(ClientFault::Transport("injected fault".into()));
            }
            self.inner.call(req)
        }
    }

    #[test]
    fn gap_filling_chunks_survive_a_ship_failure() {
        let server = std::sync::Arc::new(
            timecrypt_server::TimeCryptServer::open(
                Arc::new(timecrypt_store::MemKv::new()),
                timecrypt_server::ServerConfig::default(),
            )
            .unwrap(),
        );
        let width = StreamConfig::new(1, "m", 0, 10_000).schema.width() as u32;
        server.create_stream(1, 0, 10_000, width).unwrap();
        let mut t = FailOnce {
            inner: InProc::new(server.clone()),
            failed: false,
        };
        let mut p = producer(1);
        p.push(&mut t, DataPoint::new(0, 7)).unwrap();
        // Skipping to chunk 3's window completes chunks 0, 1, 2 at once;
        // the first (failing) ship must not lose the gap-fill chunks.
        let err = p.push(&mut t, DataPoint::new(35_000, 8)).unwrap_err();
        assert!(matches!(err, ClientFault::Transport(_)), "{err:?}");
        assert_eq!(p.chunks_sent(), 0);
        // Fault cleared: everything queued lands, in index order.
        p.flush(&mut t).unwrap();
        assert_eq!(p.chunks_sent(), 4, "chunks 0..=2 plus the flushed tail");
        assert_eq!(server.stream_info(1).unwrap().len, 4);
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
                    builder.push(p).unwrap().into_iter().for_each(&mut seal);
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
        assert_eq!(p.batch.len(), 1);
    }
}
