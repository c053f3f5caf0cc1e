//! The data consumer: a principal querying within its granted scope.

use crate::grants::{Grant, StreamDescriptor};
use crate::transport::{ClientFault, Transport};
use std::cell::RefCell;
use std::collections::HashMap;
use timecrypt_chunk::serialize::{EncryptedChunk, SealedRecord};
use timecrypt_chunk::{DataPoint, StatSummary};
use timecrypt_core::heac::{decrypt_range_in_place, KeySource};
use timecrypt_core::resolution::{Envelope, ResolutionConsumer};
use timecrypt_core::{CoreError, LeafCursor, TokenSet};
use timecrypt_crypto::Seed128;
use timecrypt_pk::ecies::EciesKeypair;
use timecrypt_wire::messages::{Request, Response};

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
        let blobs = match transport.call(&Request::GetGrants {
            stream,
            principal: self.principal.clone(),
        })? {
            Response::Blobs(b) => b,
            _ => return Err(ClientFault::Protocol("Blobs")),
        };
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
                let envs = match transport.call(&Request::GetEnvelopes {
                    stream: keys.descriptor.stream,
                    resolution,
                    lo,
                    hi,
                })? {
                    Response::Envelopes(e) => e,
                    _ => return Err(ClientFault::Protocol("Envelopes")),
                };
                let envelopes: Vec<Envelope> = envs
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

    /// Issues a statistical query over `[ts_s, ts_e)` and decrypts the
    /// aggregate. Succeeds only if this principal's grants cover the
    /// boundary keys of the server-chosen chunk window — the cryptographic
    /// access check (§4.2.3, §4.4.1).
    pub fn stat_query<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatSummary, ClientFault> {
        let reply = match transport.call(&Request::GetStatRange {
            streams: vec![stream],
            ts_s,
            ts_e,
        })? {
            Response::Stat(s) => s,
            _ => return Err(ClientFault::Protocol("Stat")),
        };
        let keys = self
            .streams
            .get_mut(&stream)
            .ok_or(ClientFault::Protocol("synced grants"))?;
        let (_, lo, hi) = reply.parts[0];
        let mut agg = reply.agg;
        decrypt_range_in_place(&keys.combined(), lo, hi, &mut agg)?;
        Ok(keys.descriptor.schema.interpret(&agg))
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
        let reply = match transport.call(&Request::GetStatRange {
            streams: streams.to_vec(),
            ts_s,
            ts_e,
        })? {
            Response::Stat(s) => s,
            _ => return Err(ClientFault::Protocol("Stat")),
        };
        let mut agg = reply.agg;
        let mut schema = None;
        for &(sid, lo, hi) in &reply.parts {
            let keys = self
                .streams
                .get_mut(&sid)
                .ok_or(ClientFault::Protocol("synced grants"))?;
            decrypt_range_in_place(&keys.combined(), lo, hi, &mut agg)?;
            schema.get_or_insert_with(|| keys.descriptor.schema.clone());
        }
        let schema = schema.ok_or(ClientFault::Protocol("non-empty streams"))?;
        Ok(schema.interpret(&agg))
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
        let chunks = match transport.call(&Request::GetRange { stream, ts_s, ts_e })? {
            Response::Chunks(c) => c,
            _ => return Err(ClientFault::Protocol("Chunks")),
        };
        let keys = self
            .streams
            .get_mut(&stream)
            .ok_or(ClientFault::Protocol("synced grants"))?
            .combined();
        let mut out = Vec::new();
        for bytes in chunks {
            let chunk = EncryptedChunk::from_bytes(&bytes)
                .map_err(|e| ClientFault::Chunk(e.to_string()))?;
            let points = chunk
                .open_payload(&keys)
                .map_err(|e| ClientFault::Chunk(e.to_string()))?;
            out.extend(points.into_iter().filter(|p| p.ts >= ts_s && p.ts < ts_e));
        }
        Ok(out)
    }

    /// Statistical query with an authenticated-aggregation proof (integrity
    /// extension, §3.3): the aggregate is verified against the data owner's
    /// signed root attestation *before* decryption, so a server that drops,
    /// replays, reorders, or mis-sums chunks is detected. `owner_key` is the
    /// owner's attestation verifying key (from the identity provider).
    ///
    /// The proven window is the queried interval clamped to the latest
    /// attestation — chunks uploaded after the owner's last `attest` are
    /// not yet provable.
    pub fn verified_stat_query<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        owner_key: &timecrypt_pk::VerifyingKey,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatSummary, ClientFault> {
        use timecrypt_integrity::{verify_attested_range, RangeProof, RootAttestation};
        let (att_bytes, proof_bytes) =
            match transport.call(&Request::GetRangeProof { stream, ts_s, ts_e })? {
                Response::Attested { attestation, proof } => (attestation, proof),
                _ => return Err(ClientFault::Protocol("Attested")),
            };
        let att = RootAttestation::decode(&att_bytes)
            .ok_or(ClientFault::Chunk("malformed attestation".into()))?;
        let proof = RangeProof::decode(&proof_bytes)
            .ok_or(ClientFault::Chunk("malformed range proof".into()))?;
        let (lo, hi) = (proof.lo as u64, proof.hi as u64);
        let mut agg = verify_attested_range(stream, &att, owner_key, &proof)
            .map_err(|e| ClientFault::Chunk(format!("integrity check failed: {e}")))?;
        let keys = self
            .streams
            .get_mut(&stream)
            .ok_or(ClientFault::Protocol("synced grants"))?;
        decrypt_range_in_place(&keys.combined(), lo, hi, &mut agg)?;
        Ok(keys.descriptor.schema.interpret(&agg))
    }

    /// Raw retrieval with integrity verification: every returned chunk's
    /// bytes are checked against its attested commitment (and its digest
    /// ciphertext against the attested digest) before decryption, so a
    /// server cannot substitute, reorder, truncate, or omit chunks within
    /// the attested window. Completes the Verena-style extension for raw
    /// reads, complementing [`verified_stat_query`](Self::verified_stat_query).
    pub fn verified_get_range<T: Transport>(
        &mut self,
        transport: &mut T,
        stream: u128,
        owner_key: &timecrypt_pk::VerifyingKey,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<Vec<DataPoint>, ClientFault> {
        use timecrypt_integrity::{
            chunk_commitment, verify_attested_range_open, RangeProof, RootAttestation,
        };
        let (att_bytes, proof_bytes, chunks) =
            match transport.call(&Request::GetVerifiedRange { stream, ts_s, ts_e })? {
                Response::VerifiedChunks {
                    attestation,
                    proof,
                    chunks,
                } => (attestation, proof, chunks),
                _ => return Err(ClientFault::Protocol("VerifiedChunks")),
            };
        let att = RootAttestation::decode(&att_bytes)
            .ok_or(ClientFault::Chunk("malformed attestation".into()))?;
        let proof = RangeProof::decode(&proof_bytes)
            .ok_or(ClientFault::Chunk("malformed range proof".into()))?;
        let leaves = verify_attested_range_open(stream, &att, owner_key, &proof)
            .map_err(|e| ClientFault::Chunk(format!("integrity check failed: {e}")))?;
        if chunks.len() != leaves.len() {
            return Err(ClientFault::Chunk(format!(
                "server returned {} chunks but the proof covers {}",
                chunks.len(),
                leaves.len()
            )));
        }
        let keys = self
            .streams
            .get_mut(&stream)
            .ok_or(ClientFault::Protocol("synced grants"))?
            .combined();
        let mut out = Vec::new();
        for (i, (bytes, leaf)) in chunks.iter().zip(&leaves).enumerate() {
            if chunk_commitment(bytes) != leaf.commitment {
                return Err(ClientFault::Chunk(format!(
                    "chunk {} bytes do not match the attested commitment",
                    proof.lo + i
                )));
            }
            let chunk =
                EncryptedChunk::from_bytes(bytes).map_err(|e| ClientFault::Chunk(e.to_string()))?;
            if chunk.index != (proof.lo + i) as u64 || chunk.digest_ct != leaf.sum {
                return Err(ClientFault::Chunk(format!(
                    "chunk {} header/digest inconsistent with the attested leaf",
                    proof.lo + i
                )));
            }
            let points = chunk
                .open_payload(&keys)
                .map_err(|e| ClientFault::Chunk(e.to_string()))?;
            out.extend(points.into_iter().filter(|p| p.ts >= ts_s && p.ts < ts_e));
        }
        Ok(out)
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
        let records = match transport.call(&Request::GetLive { stream, ts_s, ts_e })? {
            Response::Records(r) => r,
            _ => return Err(ClientFault::Protocol("Records")),
        };
        let keys = self
            .streams
            .get_mut(&stream)
            .ok_or(ClientFault::Protocol("synced grants"))?
            .combined();
        for bytes in records {
            let record =
                SealedRecord::from_bytes(&bytes).map_err(|e| ClientFault::Chunk(e.to_string()))?;
            let point = record
                .open(&keys)
                .map_err(|e| ClientFault::Chunk(e.to_string()))?;
            if point.ts >= ts_s && point.ts < ts_e {
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
    use crate::{DataOwner, InProcess, Producer};
    use std::sync::Arc;
    use timecrypt_chunk::StreamConfig;
    use timecrypt_crypto::SecureRandom;
    use timecrypt_server::{ServerConfig, TimeCryptServer};
    use timecrypt_store::MemKv;

    const MIN: i64 = 60_000;

    /// Twenty minutes of one-second points in 10-second chunks.
    fn setup() -> (InProcess, StreamConfig, DataOwner) {
        let server = Arc::new(
            TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap(),
        );
        let mut t = InProcess::new(server);
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
        inner: &'a mut InProcess,
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
