//! The data owner: stream lifecycle and access policy (§3.2, §4.4, Table 1).

use crate::grants::{Grant, StreamDescriptor};
use crate::transport::{ClientFault, Transport};
use std::collections::HashMap;
use timecrypt_chunk::StreamConfig;
use timecrypt_core::resolution::ResolutionOwner;
use timecrypt_core::StreamKeyMaterial;
use timecrypt_crypto::SecureRandom;
use timecrypt_pk::ecies;
use timecrypt_pk::p256::Point;
use timecrypt_wire::messages::{Request, Response};

/// The data owner of one stream.
pub struct DataOwner {
    cfg: StreamConfig,
    keys: StreamKeyMaterial,
    /// Resolution keystreams created so far, by granularity (in chunks).
    resolutions: HashMap<u64, ResolutionOwner>,
    rng: SecureRandom,
    tree_height: u8,
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
        let keys = StreamKeyMaterial::with_params(cfg.id, root, tree_height, Default::default())
            .expect("valid tree params");
        DataOwner {
            cfg,
            keys,
            resolutions: HashMap::new(),
            rng,
            tree_height,
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
            tree_height: self.tree_height,
            prg: self.keys.tree.prg(),
            schema: self.cfg.schema.clone(),
        }
    }

    /// Registers the stream at the server (Table 1 (1)).
    pub fn create_stream<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        match transport.call(&Request::CreateStream {
            stream: self.cfg.id,
            t0: self.cfg.t0,
            delta_ms: self.cfg.delta_ms,
            digest_width: self.cfg.schema.width() as u32,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
    }

    /// Deletes the stream (Table 1 (2)).
    pub fn delete_stream<T: Transport>(&mut self, transport: &mut T) -> Result<(), ClientFault> {
        match transport.call(&Request::DeleteStream {
            stream: self.cfg.id,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
    }

    /// Maps a timestamp range to the chunk range `[lo, hi)` it fully covers.
    fn chunk_window(&self, ts_s: i64, ts_e: i64) -> Result<(u64, u64), ClientFault> {
        if ts_e <= ts_s {
            return Err(ClientFault::Chunk("empty grant window".into()));
        }
        let lo = if ts_s <= self.cfg.t0 {
            0
        } else {
            ((ts_s - self.cfg.t0) as u64).div_ceil(self.cfg.delta_ms)
        };
        let hi = if ts_e <= self.cfg.t0 {
            0
        } else {
            ((ts_e - self.cfg.t0) as u64) / self.cfg.delta_ms
        };
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
        self.ensure_resolution(transport, resolution)?;
        let ro = self.resolutions.get(&resolution).expect("just ensured");
        let token = ro.share_chunks(lo, hi.saturating_sub(0))?;
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
        if !self.resolutions.contains_key(&resolution) {
            let ro =
                ResolutionOwner::new(resolution, self.rng.seed256(), self.rng.seed256(), 1 << 20)?;
            self.resolutions.insert(resolution, ro);
        }
        // How far has the stream got?
        let len = match transport.call(&Request::StreamInfo {
            stream: self.cfg.id,
        })? {
            Response::Info(i) => i.len,
            _ => return Err(ClientFault::Protocol("Info")),
        };
        if len == 0 {
            return Ok(());
        }
        // Boundary leaves 0..=len are defined once `len` chunks exist (leaf
        // `len` is the closing boundary of the final chunk), so envelopes up
        // to boundary chunk `len` can be published.
        let ro = self.resolutions.get(&resolution).expect("present");
        let envs = ro.seal_up_to(&self.keys.tree, len)?;
        let wire_envs: Vec<(u64, Vec<u8>)> = envs.into_iter().map(|e| (e.index, e.blob)).collect();
        match transport.call(&Request::PutEnvelopes {
            stream: self.cfg.id,
            resolution,
            envelopes: wire_envs,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
    }

    fn put_grant<T: Transport>(
        &mut self,
        transport: &mut T,
        principal: &str,
        principal_pk: &Point,
        grant: &Grant,
    ) -> Result<(), ClientFault> {
        let blob = ecies::seal(principal_pk, &grant.encode(), &mut self.rng);
        match transport.call(&Request::PutGrant {
            stream: self.cfg.id,
            principal: principal.to_string(),
            blob,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
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
        match transport.call(&Request::RevokeGrants {
            stream: self.cfg.id,
            principal: principal.to_string(),
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
    }

    /// Ages out fine index levels before `before_ts` (Table 1 (3)).
    pub fn rollup<T: Transport>(
        &mut self,
        transport: &mut T,
        before_ts: i64,
        keep_level: u8,
    ) -> Result<(), ClientFault> {
        match transport.call(&Request::Rollup {
            stream: self.cfg.id,
            before_ts,
            keep_level,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
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
        match transport.call(&Request::DeleteRange {
            stream: self.cfg.id,
            ts_s,
            ts_e,
        })? {
            Response::Ok => Ok(()),
            _ => Err(ClientFault::Protocol("Ok")),
        }
    }
}
