//! The data consumer: a principal querying within its granted scope.

use crate::grants::{Grant, StreamDescriptor};
use crate::transport::{chunk_fault, ClientFault, Exchange, Transport};
use std::cell::RefCell;
use std::collections::HashMap;
use std::num::NonZeroU64;
use std::ops::Range;
use timecrypt_chunk::serialize::{EncryptedChunk, SealedRecord};
use timecrypt_chunk::{ChunkGrid, DataPoint, StatSummary};
use timecrypt_core::heac::{decrypt_range_in_place, KeySource};
use timecrypt_core::resolution::{Envelope, ResolutionConsumer};
use timecrypt_core::{CoreError, LeafCursor, TokenSet};
use timecrypt_crypto::Seed128;
use timecrypt_integrity::{
    chunk_commitment, verify_attested_range, verify_attested_range_open, AttestError, RangeProof,
    RootAttestation,
};
use timecrypt_pk::ecies::EciesKeypair;
use timecrypt_wire::messages::Request;

/// Per-stream key material reconstructed from grants.
struct StreamKeys {
    descriptor: StreamDescriptor,
    /// Tree tokens from full-resolution grants (merged).
    tokens: Option<TokenSet>,
    /// Resolution consumers by granularity. A principal can hold several
    /// grants for the same granularity (e.g. an extended subscription);
    /// each keeps its own window, and decryption tries them in turn.
    resolutions: HashMap<u64, Vec<ResolutionConsumer>>,
    /// The reader's place under `tokens`: a range read opens consecutive
    /// chunks, so each boundary leaf is a short step from the last one.
    cursor: LeafCursor,
}

impl StreamKeys {
    /// This stream's keys as one [`KeySource`].
    fn combined(&mut self) -> CombinedKeys<'_> {
        CombinedKeys {
            tokens: self.tokens.as_ref(),
            resolutions: &self.resolutions,
            cursor: RefCell::new(&mut self.cursor),
        }
    }
}

/// Unified key source: tree tokens first (through the stream's cursor),
/// then any resolution consumer holding the boundary leaf.
struct CombinedKeys<'a> {
    tokens: Option<&'a TokenSet>,
    resolutions: &'a HashMap<u64, Vec<ResolutionConsumer>>,
    /// `KeySource::leaf` takes `&self`; the cell lends the cursor out for
    /// the one derivation.
    cursor: RefCell<&'a mut LeafCursor>,
}

impl KeySource for CombinedKeys<'_> {
    fn leaf(&self, i: u64) -> Result<Seed128, CoreError> {
        if let Some(ts) = self.tokens {
            if let Ok(leaf) = self.cursor.borrow_mut().leaf(ts, i) {
                return Ok(leaf);
            }
        }
        let mut last_err = CoreError::OutOfScope { index: i };
        for rcs in self.resolutions.values() {
            for rc in rcs {
                match rc.leaf(i) {
                    Ok(leaf) => return Ok(leaf),
                    Err(e) => last_err = e,
                }
            }
        }
        Err(last_err)
    }
}

/// A consumer principal: identity + ECIES keypair + reconstructed keys.
pub struct Consumer {
    /// Principal identity (the key-store lookup key).
    pub principal: String,
    keypair: EciesKeypair,
    streams: HashMap<u128, StreamKeys>,
}

impl Consumer {
    /// Creates a consumer with a fresh keypair. Register
    /// [`public_key`](Self::public_key) with the owner (identity provider).
    pub fn new(principal: impl Into<String>, rng: &mut timecrypt_crypto::SecureRandom) -> Self {
        Consumer {
            principal: principal.into(),
            keypair: EciesKeypair::generate(rng),
            streams: HashMap::new(),
        }
    }

    /// The public key owners seal grants to.
    pub fn public_key(&self) -> &timecrypt_pk::p256::Point {
        &self.keypair.public
    }

    /// Downloads and opens all grants for `stream` and rebuilds its local
    /// key material from them alone, so syncing again (polling for an
    /// extended grant) is idempotent; also fetches the envelopes of any
    /// resolution grants. The new material replaces the old only when every
    /// blob opened and decoded: a failed sync changes nothing. Returns the
    /// number of grants ingested; with none stored, the material is dropped.
    pub fn sync_grants<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
    ) -> Result<usize, ClientFault> {
        let blobs = transport.blobs(&Request::GetGrants {
            stream,
            principal: self.principal.clone(),
        })?;
        let mut fresh: Option<StreamKeys> = None;
        for blob in &blobs {
            let plain = self
                .keypair
                .open(blob)
                .map_err(|e| ClientFault::Transport(format!("grant unsealing failed: {e}")))?;
            let grant = Grant::decode(&plain)
                .map_err(|e| ClientFault::Transport(format!("grant decode failed: {e}")))?;
            if grant.descriptor().stream != stream {
                return Err(ClientFault::Protocol("grants of the requested stream"));
            }
            let keys = fresh.get_or_insert_with(|| StreamKeys {
                descriptor: grant.descriptor().clone(),
                tokens: None,
                resolutions: HashMap::new(),
                cursor: LeafCursor::new(),
            });
            Self::ingest_grant(transport, keys, grant)?;
        }
        // The reader keeps its place (and its PRG count): a cursor's path is
        // reused only while it hangs from a token the new set still holds.
        let old = self.streams.remove(&stream);
        if let Some(mut keys) = fresh {
            if let Some(old) = old {
                keys.cursor = old.cursor;
            }
            self.streams.insert(stream, keys);
        }
        Ok(blobs.len())
    }

    fn ingest_grant<T: Transport>(
        transport: &mut T,
        keys: &mut StreamKeys,
        grant: Grant,
    ) -> Result<(), ClientFault> {
        match grant {
            Grant::Full { tokens, .. } => match &mut keys.tokens {
                Some(ts) => ts.extend(tokens),
                None => {
                    keys.tokens = Some(TokenSet::new(
                        tokens,
                        keys.descriptor.tree_height,
                        keys.descriptor.prg,
                    ))
                }
            },
            Grant::Resolution {
                resolution, token, ..
            } => {
                let (lo, hi) = (token.lower.index, token.upper.index);
                // Fetch and open the envelopes for the window.
                let envelopes: Vec<Envelope> = transport
                    .envelopes(&Request::GetEnvelopes {
                        stream: keys.descriptor.stream,
                        resolution,
                        lo,
                        hi,
                    })?
                    .into_iter()
                    .map(|(index, blob)| Envelope { index, blob })
                    .collect();
                let mut rc = ResolutionConsumer::new(resolution, token);
                rc.ingest_all(&envelopes)?;
                keys.resolutions.entry(resolution).or_default().push(rc);
            }
        }
        Ok(())
    }

    /// PRG invocations spent deriving tree leaves so far, over all streams.
    pub fn prg_calls(&self) -> u64 {
        self.streams.values().map(|s| s.cursor.prg_calls()).sum()
    }

    /// A stream's descriptor (after [`sync_grants`](Self::sync_grants)).
    pub fn descriptor(&self, stream: u128) -> Option<&StreamDescriptor> {
        self.streams.get(&stream).map(|s| &s.descriptor)
    }

    /// The key material synced for `stream`, which every read decrypts with.
    fn keys(&mut self, stream: u128) -> Result<&mut StreamKeys, ClientFault> {
        self.streams
            .get_mut(&stream)
            .ok_or(ClientFault::Protocol("synced grants"))
    }

    /// Issues a statistical query over `[ts_s, ts_e)` and decrypts the
    /// aggregate. Succeeds only if this principal's grants cover the
    /// boundary keys of the server-chosen chunk window — the cryptographic
    /// access check (§4.2.3, §4.4.1). The one-stream
    /// [`stat_query_multi`](Self::stat_query_multi).
    pub fn stat_query<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatSummary, ClientFault> {
        self.stat_query_multi(transport, &[stream], ts_s, ts_e)
    }

    /// Multi-stream statistical query (§4.3 inter-streams): the server
    /// combines all streams homomorphically; decryption peels each stream's
    /// boundary keys in turn, so it succeeds only with grants on *all*
    /// streams involved.
    pub fn stat_query_multi<T: Transport>(
        &mut self,
        transport: &mut T,
        streams: &[u128],
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatSummary, ClientFault> {
        let reply = transport.stat(&Request::GetStatRange {
            streams: streams.to_vec(),
            ts_s,
            ts_e,
        })?;
        // One part per stream asked for, in the order asked: a server may
        // not answer with another stream's window, nor with none.
        let asked = streams.iter().copied();
        if streams.is_empty() || !reply.parts.iter().map(|p| p.0).eq(asked) {
            return Err(ClientFault::Protocol("one Stat part per stream asked"));
        }
        let width = "a Stat aggregate of the schema's width";
        self.decrypt(reply.agg, &reply.parts, width)
    }

    /// Decrypts an aggregate over `parts`, `(stream, lo, hi)` each and at
    /// least one, peeling each stream's boundary keys, and reads it with the
    /// first stream's schema; an aggregate of another width is
    /// `Protocol(width)`.
    fn decrypt(
        &mut self,
        mut agg: Vec<u64>,
        parts: &[(u128, u64, u64)],
        width: &'static str,
    ) -> Result<StatSummary, ClientFault> {
        let first = parts[0].0;
        if agg.len() != self.keys(first)?.descriptor.schema.width() {
            return Err(ClientFault::Protocol(width));
        }
        for &(stream, lo, hi) in parts {
            decrypt_range_in_place(&self.keys(stream)?.combined(), lo, hi, &mut agg)?;
        }
        Ok(self.keys(first)?.descriptor.schema.interpret(&agg))
    }

    /// Retrieves and decrypts raw points in `[ts_s, ts_e)` (Table 1 (5)).
    /// Requires full-resolution access to every chunk touched.
    pub fn get_range<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<DataPoint>, ClientFault> {
        let chunks = transport.chunks(&Request::GetRange { stream, ts_s, ts_e })?;
        self.open(stream, chunks, ts_s..ts_e, |_, bytes| {
            EncryptedChunk::from_bytes(bytes).map_err(chunk_fault)
        })
    }

    /// Opens sealed `chunks` with `stream`'s keys and keeps their points in
    /// `span`; `parse` reads chunk `i` from its bytes, with whatever checks
    /// the read makes of them first. Each chunk's bytes are freed once it
    /// is open.
    fn open(
        &mut self,
        stream: u128,
        chunks: Vec<Vec<u8>>,
        span: Range<i64>,
        mut parse: impl FnMut(usize, &[u8]) -> Result<EncryptedChunk, ClientFault>,
    ) -> Result<Vec<DataPoint>, ClientFault> {
        let keys = self.keys(stream)?.combined();
        let mut out = Vec::new();
        for (i, bytes) in chunks.into_iter().enumerate() {
            let points = parse(i, &bytes)?.open_payload(&keys).map_err(chunk_fault)?;
            out.extend(points.into_iter().filter(|p| span.contains(&p.ts)));
        }
        Ok(out)
    }

    /// Statistical query with an authenticated-aggregation proof (integrity
    /// extension, §3.3): the aggregate is verified against the data owner's
    /// signed root attestation *before* decryption, so a server that drops,
    /// replays, reorders, or mis-sums chunks is detected. `owner_key` is the
    /// owner's attestation verifying key (from the identity provider).
    ///
    /// The proven window is the chunks the queried interval covers whole,
    /// clamped to the latest attestation — chunks uploaded after the
    /// owner's last `attest` are not yet provable.
    pub fn verified_stat_query<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        owner_key: &timecrypt_pk::VerifyingKey,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatSummary, ClientFault> {
        let reply = transport.attested(&Request::GetRangeProof { stream, ts_s, ts_e })?;
        let window = |grid: ChunkGrid| Some(grid.within(ts_s, ts_e));
        let (lo, hi, agg) = self.check_attested(stream, reply, window, |att, proof, lo, hi| {
            verify_attested_range(stream, att, owner_key, proof, lo, hi)
        })?;
        let parts = [(stream, lo as u64, hi as u64)];
        self.decrypt(agg, &parts, "an attested aggregate of the schema's width")
    }

    /// Raw retrieval with integrity verification: every returned chunk's
    /// bytes are checked against its attested commitment (and its digest
    /// ciphertext against the attested digest) before decryption, so a
    /// server cannot substitute, reorder, truncate, or omit chunks of the
    /// window asked for (the chunks `[ts_s, ts_e)` touches, clamped to the
    /// latest attestation). Completes the Verena-style extension for raw
    /// reads, complementing [`verified_stat_query`](Self::verified_stat_query).
    pub fn verified_get_range<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        owner_key: &timecrypt_pk::VerifyingKey,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<DataPoint>, ClientFault> {
        let (att, proof, chunks) =
            transport.verified_chunks(&Request::GetVerifiedRange { stream, ts_s, ts_e })?;
        let window = |grid: ChunkGrid| grid.containing(ts_s, ts_e);
        let (lo, _, leaves) =
            self.check_attested(stream, (att, proof), window, |att, proof, lo, hi| {
                verify_attested_range_open(stream, att, owner_key, proof, lo, hi)
            })?;
        if chunks.len() != leaves.len() {
            return Err(ClientFault::Chunk(format!(
                "server returned {} chunks but the proof covers {}",
                chunks.len(),
                leaves.len()
            )));
        }
        self.open(stream, chunks, ts_s..ts_e, |i, bytes| {
            let (at, leaf) = (lo + i, &leaves[i]);
            if chunk_commitment(bytes) != leaf.commitment {
                return Err(ClientFault::Chunk(format!(
                    "chunk {at} bytes do not match the attested commitment"
                )));
            }
            let chunk = EncryptedChunk::from_bytes(bytes).map_err(chunk_fault)?;
            if chunk.index != at as u64 || chunk.digest_ct != leaf.sum {
                return Err(ClientFault::Chunk(format!(
                    "chunk {at} header/digest inconsistent with the attested leaf"
                )));
            }
            Ok(chunk)
        })
    }

    /// Decodes an attested reply's attestation and range proof and checks
    /// them with `verify` over the chunk window `[lo, hi)`, which this
    /// consumer works out as the engine does: `window` of `stream`'s chunk
    /// grid, `hi` clamped to the attested size. Returns the window and what
    /// `verify` authenticated; the server's word on the window counts for
    /// nothing.
    fn check_attested<R>(
        &mut self,
        stream: u128,
        (attestation, proof): (Vec<u8>, Vec<u8>),
        window: impl FnOnce(ChunkGrid) -> Option<(u64, u64)>,
        verify: impl FnOnce(&RootAttestation, &RangeProof, usize, usize) -> Result<R, AttestError>,
    ) -> Result<(usize, usize, R), ClientFault> {
        let att = RootAttestation::decode(&attestation)
            .ok_or_else(|| chunk_fault("malformed attestation"))?;
        let proof =
            RangeProof::decode(&proof).ok_or_else(|| chunk_fault("malformed range proof"))?;
        let d = &self.keys(stream)?.descriptor;
        let grid = NonZeroU64::new(d.delta_ms).map(|delta_ms| ChunkGrid { t0: d.t0, delta_ms });
        let (lo, hi) = grid
            .and_then(window)
            .ok_or_else(|| chunk_fault("empty window"))?;
        let (lo, hi) = (lo as usize, hi.min(att.size) as usize);
        let checked = verify(&att, &proof, lo, hi);
        let checked = checked.map_err(|e| chunk_fault(format!("integrity check failed: {e}")))?;
        Ok((lo, hi, checked))
    }

    /// Like [`get_range`](Self::get_range) but also merges real-time
    /// records the producer uploaded ahead of their chunk (§4.6): finalized
    /// chunks first, then buffered live records — the server keeps the two
    /// sets disjoint, so no deduplication is needed. Opening a live record
    /// needs exactly the same per-chunk key as its chunk payload, so access
    /// control is unchanged.
    pub fn get_range_live<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<DataPoint>, ClientFault> {
        let mut out = self.get_range(transport, stream, ts_s, ts_e)?;
        let records = transport.records(&Request::GetLive { stream, ts_s, ts_e })?;
        let keys = self.keys(stream)?.combined();
        for bytes in records {
            let record = SealedRecord::from_bytes(&bytes).map_err(chunk_fault)?;
            let point = record.open(&keys).map_err(chunk_fault)?;
            if (ts_s..ts_e).contains(&point.ts) {
                out.push(point);
            }
        }
        out.sort_by_key(|p| p.ts);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataOwner, InProc, Producer};
    use std::sync::Arc;
    use timecrypt_chunk::StreamConfig;
    use timecrypt_crypto::SecureRandom;
    use timecrypt_server::{ServerConfig, TimeCryptServer};
    use timecrypt_store::MemKv;
    use timecrypt_wire::messages::Response;

    const MIN: i64 = 60_000;

    /// Twenty minutes of one-second points in 10-second chunks.
    fn setup() -> (InProc<TimeCryptServer>, StreamConfig, DataOwner) {
        let server = Arc::new(
            TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap(),
        );
        let mut t = InProc::new(server);
        let cfg = StreamConfig::new(9, "hr", 0, 10_000);
        let mut owner = DataOwner::with_height(
            cfg.clone(),
            [3u8; 16],
            24,
            SecureRandom::from_seed_insecure(1),
        );
        owner.create_stream(&mut t).unwrap();
        let mut p = Producer::new(
            cfg.clone(),
            owner.provision_producer(),
            SecureRandom::from_seed_insecure(2),
        );
        for s in 0..20 * 60 {
            p.push(&mut t, DataPoint::new(s * 1000, 60 + (s % 30)))
                .unwrap();
        }
        p.flush(&mut t).unwrap();
        (t, cfg, owner)
    }

    /// How many tree tokens and resolution consumers the stream holds.
    fn held(c: &Consumer, stream: u128) -> (usize, usize) {
        let keys = &c.streams[&stream];
        (
            keys.tokens.as_ref().map_or(0, |ts| ts.tokens().len()),
            keys.resolutions.values().map(Vec::len).sum(),
        )
    }

    /// A transport that fails every call from the `fail_from`-th on.
    struct Flaky<'a> {
        inner: &'a mut InProc<TimeCryptServer>,
        calls: usize,
        fail_from: usize,
    }

    impl Transport for Flaky<'_> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            self.calls += 1;
            if self.calls >= self.fail_from {
                return Err(ClientFault::Transport("link down".into()));
            }
            self.inner.call(req)
        }
    }

    /// A server that answers a statistical query with no part.
    struct Partless;

    impl Transport for Partless {
        fn call(&mut self, _: &Request) -> Result<Response, ClientFault> {
            let reply = timecrypt_wire::StatReply {
                parts: Vec::new(),
                agg: vec![0; 4],
            };
            Ok(Response::Stat(reply))
        }
    }

    /// A server whose statistical replies keep `keep` words of the aggregate.
    struct Narrowing<'a> {
        inner: &'a mut InProc<TimeCryptServer>,
        keep: usize,
    }

    impl Transport for Narrowing<'_> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            let mut reply = self.inner.call(req)?;
            if let Response::Stat(stat) = &mut reply {
                stat.agg.truncate(self.keep);
            }
            Ok(reply)
        }
    }

    /// A server that answers a statistical query with stream `to`'s.
    struct Swapping<'a> {
        inner: &'a mut InProc<TimeCryptServer>,
        to: u128,
    }

    impl Transport for Swapping<'_> {
        fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
            match *req {
                Request::GetStatRange { ts_s, ts_e, .. } => {
                    self.inner.call(&Request::GetStatRange {
                        streams: vec![self.to],
                        ts_s,
                        ts_e,
                    })
                }
                _ => self.inner.call(req),
            }
        }
    }

    #[test]
    fn a_stat_reply_for_another_granted_stream_is_an_error() {
        let (mut t, cfg, mut owner) = setup();
        let other_cfg = StreamConfig::new(10, "hr", 0, 10_000);
        let mut other = DataOwner::with_height(
            other_cfg.clone(),
            [4u8; 16],
            24,
            SecureRandom::from_seed_insecure(7),
        );
        other.create_stream(&mut t).unwrap();
        let mut p = Producer::new(
            other_cfg.clone(),
            other.provision_producer(),
            SecureRandom::from_seed_insecure(8),
        );
        for s in 0..5 * 60 {
            p.push(&mut t, DataPoint::new(s * 1000, 7)).unwrap();
        }
        p.flush(&mut t).unwrap();
        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(9));
        for o in [&mut owner, &mut other] {
            o.grant_access(&mut t, "c", c.public_key(), 0, 5 * MIN)
                .unwrap();
        }
        c.sync_grants(&mut t, cfg.id).unwrap();
        c.sync_grants(&mut t, other_cfg.id).unwrap();
        assert!(c.stat_query(&mut t, other_cfg.id, MIN, 2 * MIN).is_ok());
        let mut swapping = Swapping {
            inner: &mut t,
            to: other_cfg.id,
        };
        let reply = c.stat_query(&mut swapping, cfg.id, MIN, 2 * MIN);
        assert!(matches!(reply, Err(ClientFault::Protocol(_))), "{reply:?}");
    }

    #[test]
    fn a_stat_reply_without_parts_is_an_error() {
        let (mut t, cfg, mut owner) = setup();
        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(6));
        owner
            .grant_access(&mut t, "c", c.public_key(), 0, 5 * MIN)
            .unwrap();
        c.sync_grants(&mut t, cfg.id).unwrap();
        let reply = c.stat_query(&mut Partless, cfg.id, MIN, 2 * MIN);
        assert!(matches!(reply, Err(ClientFault::Protocol(_))), "{reply:?}");
    }

    #[test]
    fn a_stat_reply_narrower_than_the_schema_is_an_error() {
        let (mut t, cfg, mut owner) = setup();
        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(6));
        owner
            .grant_access(&mut t, "c", c.public_key(), 0, 5 * MIN)
            .unwrap();
        c.sync_grants(&mut t, cfg.id).unwrap();
        let width = c.descriptor(cfg.id).unwrap().schema.width();
        for keep in [0, width - 1] {
            let mut narrowing = Narrowing {
                inner: &mut t,
                keep,
            };
            let reply = c.stat_query(&mut narrowing, cfg.id, MIN, 2 * MIN);
            assert!(matches!(reply, Err(ClientFault::Protocol(_))), "{reply:?}");
        }
        assert!(c.stat_query(&mut t, cfg.id, MIN, 2 * MIN).is_ok());
    }

    #[test]
    fn syncing_twice_is_syncing_once() {
        let (mut t, cfg, mut owner) = setup();
        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(3));
        owner
            .grant_access(&mut t, "c", c.public_key(), 2 * MIN, 9 * MIN)
            .unwrap();
        owner
            .grant_resolution_access(&mut t, "c", c.public_key(), 10 * MIN, 15 * MIN, 6)
            .unwrap();
        assert_eq!(c.sync_grants(&mut t, cfg.id).unwrap(), 2);
        let once = held(&c, cfg.id);
        let stat = c.stat_query(&mut t, cfg.id, 3 * MIN, 8 * MIN).unwrap();
        let coarse = c.stat_query(&mut t, cfg.id, 10 * MIN, 12 * MIN).unwrap();
        let range = c.get_range(&mut t, cfg.id, 3 * MIN, 4 * MIN).unwrap();
        let prg_calls = c.prg_calls();

        assert_eq!(c.sync_grants(&mut t, cfg.id).unwrap(), 2);
        assert_eq!(held(&c, cfg.id), once);
        assert!(c.prg_calls() >= prg_calls, "the reader keeps its count");
        let tokens = c.streams[&cfg.id].tokens.as_ref().unwrap();
        assert!(tokens.covers(12, 54) && !tokens.covers(11, 54) && !tokens.covers(12, 55));
        assert_eq!(
            c.stat_query(&mut t, cfg.id, 3 * MIN, 8 * MIN).unwrap(),
            stat
        );
        assert_eq!(
            c.stat_query(&mut t, cfg.id, 10 * MIN, 12 * MIN).unwrap(),
            coarse
        );
        assert_eq!(
            c.get_range(&mut t, cfg.id, 3 * MIN, 4 * MIN).unwrap(),
            range
        );
        assert!(c.stat_query(&mut t, cfg.id, 0, 3 * MIN).is_err());
    }

    #[test]
    fn a_sync_after_a_second_grant_sees_both_windows() {
        let (mut t, cfg, mut owner) = setup();
        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(4));
        owner
            .grant_access(&mut t, "c", c.public_key(), 0, 5 * MIN)
            .unwrap();
        c.sync_grants(&mut t, cfg.id).unwrap();
        let first = held(&c, cfg.id);
        assert!(c.stat_query(&mut t, cfg.id, 12 * MIN, 13 * MIN).is_err());
        owner
            .grant_access(&mut t, "c", c.public_key(), 10 * MIN, 15 * MIN)
            .unwrap();
        assert_eq!(c.sync_grants(&mut t, cfg.id).unwrap(), 2);
        assert!(held(&c, cfg.id).0 > first.0);
        assert!(c.stat_query(&mut t, cfg.id, MIN, 2 * MIN).is_ok());
        assert!(c.stat_query(&mut t, cfg.id, 12 * MIN, 13 * MIN).is_ok());
        assert!(c.stat_query(&mut t, cfg.id, 6 * MIN, 7 * MIN).is_err());
    }

    #[test]
    fn a_sync_that_fails_midway_changes_nothing() {
        let (mut t, cfg, mut owner) = setup();
        let mut c = Consumer::new("c", &mut SecureRandom::from_seed_insecure(5));
        owner
            .grant_access(&mut t, "c", c.public_key(), 0, 5 * MIN)
            .unwrap();
        c.sync_grants(&mut t, cfg.id).unwrap();
        let before = held(&c, cfg.id);
        let stat = c.stat_query(&mut t, cfg.id, MIN, 2 * MIN).unwrap();
        // A second full grant and a resolution grant: the next sync opens
        // three blobs, then loses the link on the envelope fetch.
        owner
            .grant_access(&mut t, "c", c.public_key(), 10 * MIN, 15 * MIN)
            .unwrap();
        owner
            .grant_resolution_access(&mut t, "c", c.public_key(), 0, 20 * MIN, 6)
            .unwrap();
        let mut flaky = Flaky {
            inner: &mut t,
            calls: 0,
            fail_from: 2,
        };
        assert!(c.sync_grants(&mut flaky, cfg.id).is_err());
        assert_eq!(
            flaky.calls, 2,
            "GetGrants went through, GetEnvelopes did not"
        );
        assert_eq!(held(&c, cfg.id), before);
        assert_eq!(c.stat_query(&mut t, cfg.id, MIN, 2 * MIN).unwrap(), stat);
        assert!(c.stat_query(&mut t, cfg.id, 12 * MIN, 13 * MIN).is_err());
        // The link comes back: the same call now sees all three.
        assert_eq!(c.sync_grants(&mut t, cfg.id).unwrap(), 3);
        assert!(c.stat_query(&mut t, cfg.id, 12 * MIN, 13 * MIN).is_ok());
    }
}
