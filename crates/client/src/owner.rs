//! The data owner: stream lifecycle and access policy (§3.2, §4.4, Table 1).

use crate::grants::{Grant, StreamDescriptor};
use crate::transport::{ClientFault, Exchange, Transport};
use std::collections::hash_map::{Entry, HashMap};
use timecrypt_chunk::StreamConfig;
use timecrypt_core::resolution::ResolutionOwner;
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::ecies;
use timecrypt_pk::p256::Point;
use timecrypt_wire::messages::Request;

/// The data owner of one stream.
pub struct DataOwner {
    cfg: StreamConfig,
    keys: StreamKeyMaterial,
    /// Resolution keystreams created so far, by granularity (in chunks).
    resolutions: HashMap<u64, ResolutionOwner>,
    rng: SecureRandom,
}

impl DataOwner {
    /// Creates owner-side state with a fresh random tree root.
    pub fn new(cfg: StreamConfig, mut rng: SecureRandom) -> Self {
        Self::with_height(cfg, rng.seed128(), 30, rng)
    }

    /// Full-control constructor (tests and benchmarks use smaller trees).
    pub fn with_height(
        cfg: StreamConfig,
        root: [u8; 16],
        tree_height: u8,
        rng: SecureRandom,
    ) -> Self {
        #[allow(
            clippy::expect_used,
            reason = "a height the caller picks; a bad one is a programming error, as with `new`'s 30"
        )]
        let keys = StreamKeyMaterial::with_params(cfg.id, root, tree_height, Default::default())
            .expect("valid tree params");
        DataOwner {
            cfg,
            keys,
            resolutions: HashMap::new(),
            rng,
        }
    }

    /// The stream configuration (hand to producers).
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Key material for provisioning a producer device.
    pub fn provision_producer(&self) -> StreamKeyMaterial {
        self.keys.clone()
    }

    fn descriptor(&self) -> StreamDescriptor {
        StreamDescriptor {
            stream: self.cfg.id,
            t0: self.cfg.t0,
            delta_ms: self.cfg.delta_ms,
            tree_height: self.keys.tree.height(),
            prg: self.keys.tree.prg(),
            schema: self.cfg.schema.clone(),
        }
    }

    /// Registers the stream at the server (Table 1 (1)).
    pub fn create_stream<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        transport.ack(&Request::CreateStream {
            stream: self.cfg.id,
            t0: self.cfg.t0,
            delta_ms: self.cfg.delta_ms,
            digest_width: self.cfg.schema.width() as u32,
        })
    }

    /// Deletes the stream (Table 1 (2)).
    pub fn delete_stream<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        transport.ack(&Request::DeleteStream {
            stream: self.cfg.id,
        })
    }

    /// Maps a timestamp range to the chunk range `[lo, hi)` it fully covers.
    fn chunk_window(&self, ts_s: i64, ts_e: i64) -> Result<(u64, u64), ClientFault> {
        if ts_e <= ts_s {
            return Err(ClientFault::Chunk("empty grant window".into()));
        }
        let zero = || ClientFault::Chunk("chunk interval is zero".into());
        let grid = self.cfg.grid().ok_or_else(zero)?;
        let (lo, hi) = grid.within(ts_s, ts_e);
        if lo >= hi {
            return Err(ClientFault::Chunk("grant window covers no chunk".into()));
        }
        Ok((lo, hi))
    }

    /// Grants full-resolution access over `[ts_s, ts_e)` to `principal`
    /// (Table 1 (8) with `res = 1`): seals the tree tokens covering chunk
    /// leaves `[lo, hi]` to the principal's public key and stores the blob
    /// in the server key store.
    pub fn grant_access<T: Transport>(
        &mut self,
        transport: &mut T,
        principal: &str,
        principal_pk: &Point,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<(), ClientFault> {
        let (lo, hi) = self.chunk_window(ts_s, ts_e)?;
        // Leaves lo..=hi: hi is the boundary leaf (one past the last chunk).
        let tokens = self.keys.tree.cover(lo, hi)?;
        let grant = Grant::Full {
            descriptor: self.descriptor(),
            chunk_lo: lo,
            chunk_hi: hi,
            tokens,
        };
        self.put_grant(transport, principal, principal_pk, &grant)
    }

    /// Grants resolution-restricted access (Table 1 (8) with `res > 1`
    /// chunks): creates the resolution keystream if needed, publishes the
    /// envelopes up to the current stream head, and seals the dual-KR token
    /// for the window to the principal.
    pub fn grant_resolution_access<T: Transport>(
        &mut self,
        transport: &mut T,
        principal: &str,
        principal_pk: &Point,
        ts_s: i64,
        ts_e: i64,
        resolution: u64,
    ) -> Result<(), ClientFault> {
        let (lo, hi) = self.chunk_window(ts_s, ts_e)?;
        let token = self.publish(transport, resolution)?.share_chunks(lo, hi)?;
        let grant = Grant::Resolution {
            descriptor: self.descriptor(),
            resolution,
            token,
        };
        self.put_grant(transport, principal, principal_pk, &grant)
    }

    /// Creates the resolution keystream for `resolution` (if absent) and
    /// publishes all envelopes up to the stream's current head. Call again
    /// as the stream grows to publish newer envelopes ("the owner uploads
    /// these to the server as the stream grows").
    pub fn ensure_resolution<T: Transport>(
        &mut self,
        transport: &mut T,
        resolution: u64,
    ) -> Result<(), ClientFault> {
        self.publish(transport, resolution).map(|_| ())
    }

    /// [`ensure_resolution`](Self::ensure_resolution), handing back the
    /// resolution's owner.
    fn publish<T: Transport>(
        &mut self,
        transport: &mut T,
        resolution: u64,
    ) -> Result<&ResolutionOwner, ClientFault> {
        let ro = match self.resolutions.entry(resolution) {
            Entry::Occupied(ro) => ro.into_mut(),
            Entry::Vacant(slot) => slot.insert(ResolutionOwner::new(
                resolution,
                self.rng.seed256(),
                self.rng.seed256(),
                1 << 20,
            )?),
        };
        // How far has the stream got?
        let stream = self.cfg.id;
        let len = transport.info(&Request::StreamInfo { stream })?.len;
        if len == 0 {
            return Ok(ro);
        }
        // Boundary leaves 0..=len are defined once `len` chunks exist (leaf
        // `len` is the closing boundary of the final chunk), so envelopes up
        // to boundary chunk `len` can be published.
        let envs = ro.seal_up_to(&self.keys.tree, len)?;
        let envelopes = envs.into_iter().map(|e| (e.index, e.blob)).collect();
        transport.ack(&Request::PutEnvelopes {
            stream,
            resolution,
            envelopes,
        })?;
        Ok(ro)
    }

    fn put_grant<T: Transport>(
        &mut self,
        transport: &mut T,
        principal: &str,
        principal_pk: &Point,
        grant: &Grant,
    ) -> Result<(), ClientFault> {
        let blob = ecies::seal(principal_pk, &grant.encode(), &mut self.rng);
        transport.ack(&Request::PutGrant {
            stream: self.cfg.id,
            principal: principal.to_string(),
            blob,
        })
    }

    /// Revokes a principal (Table 1 (10)): clears their stored grants and —
    /// because the owner simply stops extending their tokens — no key for
    /// data written after the revocation point is ever derivable by them
    /// (forward secrecy; already-fetched old keys keep working, §3.3).
    pub fn revoke<T: Transport>(
        &mut self,
        transport: &mut T,
        principal: &str,
    ) -> Result<(), ClientFault> {
        transport.ack(&Request::RevokeGrants {
            stream: self.cfg.id,
            principal: principal.to_string(),
        })
    }

    /// Ages out fine index levels before `before_ts` (Table 1 (3)).
    pub fn rollup<T: Transport>(
        &mut self,
        transport: &mut T,
        before_ts: i64,
        keep_level: u8,
    ) -> Result<(), ClientFault> {
        transport.ack(&Request::Rollup {
            stream: self.cfg.id,
            before_ts,
            keep_level,
        })
    }

    /// Deletes raw chunk payloads in `[ts_s, ts_e)` while the per-chunk
    /// digests stay in the index (Table 1 (7)): statistical history
    /// survives raw-data retention limits.
    pub fn delete_range<T: Transport>(
        &mut self,
        transport: &mut T,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<(), ClientFault> {
        transport.ack(&Request::DeleteRange {
            stream: self.cfg.id,
            ts_s,
            ts_e,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Consumer, InProc};
    use std::sync::Arc;
    use timecrypt_server::{ServerConfig, TimeCryptServer};
    use timecrypt_store::MemKv;

    #[test]
    fn grant_windows_reach_the_ends_of_time() {
        let server = TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default());
        let mut t = InProc::new(Arc::new(server.unwrap()));
        let cfg = StreamConfig::new(1, "m", -1, 10_000);
        let mut owner = DataOwner::new(cfg, SecureRandom::from_seed_insecure(1));
        owner.create_stream(&mut t).unwrap();
        let last = (i64::MAX as u64 + 1) / 10_000;
        assert_eq!(owner.chunk_window(0, i64::MAX).unwrap(), (1, last));
        let consumer = Consumer::new("c", &mut SecureRandom::from_seed_insecure(2));
        let granted = owner.grant_access(&mut t, "c", consumer.public_key(), 0, i64::MAX);
        assert!(
            matches!(granted, Err(ClientFault::Access(_))),
            "{granted:?}"
        );

        let zero = StreamConfig::new(2, "m", 0, 0);
        let owner = DataOwner::new(zero, SecureRandom::from_seed_insecure(3));
        assert!(matches!(
            owner.chunk_window(0, 1),
            Err(ClientFault::Chunk(_))
        ));
    }
}
