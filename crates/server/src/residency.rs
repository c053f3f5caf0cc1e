//! The engine's residency: the stream directory, the bounded resident set
//! of hydrated stream states, and the hydration and eviction counters.
//!
//! # Stream lifecycle (lazy hydration)
//!
//! Opening a store builds only the *directory* — one small metadata
//! record per registered stream — so open time is O(streams' meta
//! records), not O(history). A stream's state (`StreamState`) is
//! *hydrated* on first touch and published here, in a resident set
//! bounded by [`ServerConfig::max_resident_streams`](crate::ServerConfig).
//! Hydration is `AggTree::open`: the length by key probes and the running
//! sum from the last record — one read and O(1) resident bytes, whatever
//! the history; the integrity ledger, a cache of level-0 records that
//! proofs fill, starts empty. It is single-flight: the engine's cold touch
//! holds the stream's stripe until it has published the state, and the
//! touches queued on it then take the resident hit.
//!
//! A resident entry keeps the stamp of its last touch, so a touch is one
//! map probe and one counter bump. A sweep runs only past the cap, or from
//! [`evict_idle_streams`](crate::TimeCryptServer::evict_idle_streams): it
//! evicts the idle entries with the smallest stamps, skipping any whose
//! `Arc` has in-flight references, so an operation holding a handle keeps
//! using it after the stream leaves the set. Every call that changes a
//! stream's records holds its stripe throughout and resolves the state
//! under it, so a deletion or import that drops the state leaves no writer
//! holding it. See ARCHITECTURE.md "Stream lifecycle".

use crate::engine::{ServerError, StreamState, TimeCryptServer};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::num::NonZeroU64;
use std::sync::Arc;
use timecrypt_chunk::ChunkGrid;
use timecrypt_index::keys;
use timecrypt_obs::counters;
use timecrypt_obs::rank::{self, Held, Ranked};
use timecrypt_store::KvStore;

/// A stream's immutable registration metadata: the directory entry kept
/// in memory for every stream whether or not its state is resident.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamMeta {
    pub(crate) grid: ChunkGrid,
    pub(crate) digest_width: u32,
}

impl StreamMeta {
    /// The registration record's value: `t0 ‖ Δ ‖ width`, little-endian.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let (t0, delta) = (
            self.grid.t0.to_le_bytes(),
            self.grid.delta_ms.get().to_le_bytes(),
        );
        [&t0[..], &delta, &self.digest_width.to_le_bytes()].concat()
    }

    /// [`encode`](Self::encode)'s inverse; `None` for another length or Δ = 0.
    pub(crate) fn decode(bytes: &[u8]) -> Option<Self> {
        let (t0, rest) = bytes.split_first_chunk::<8>()?;
        let (delta, width) = rest.split_first_chunk::<8>()?;
        let grid = ChunkGrid {
            t0: i64::from_le_bytes(*t0),
            delta_ms: NonZeroU64::new(u64::from_le_bytes(*delta))?,
        };
        Some(StreamMeta {
            grid,
            digest_width: u32::from_le_bytes(width.try_into().ok()?),
        })
    }
}

/// Point-in-time counters for the lazy-hydration layer (surfaced through
/// the service tier's `ShardStatsWire`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Streams currently hydrated.
    pub resident: u64,
    /// Hydrations performed since open (cold-touch stream opens).
    pub hydrations: u64,
    /// Resident streams evicted since open.
    pub evictions: u64,
}

/// One resident stream: its state handle and the stamp of its last touch.
struct Resident {
    state: Arc<StreamState>,
    tick: u64,
}

/// The directory and the resident set, behind one mutex.
#[derive(Default)]
struct Registry {
    /// Every registered stream's metadata. Never evicted; this is what
    /// makes existence checks and chunk-window math O(1) without I/O.
    directory: HashMap<u128, StreamMeta>,
    /// Hydrated streams by id.
    resident: HashMap<u128, Resident>,
    /// The stamp clock: every touch and publish takes the next value.
    tick: u64,
}

type Locked<'a> = Held<{ rank::REGISTRY }, MutexGuard<'a, Registry>>;

/// The stream directory plus the bounded resident set (`registry` in the
/// documented lock order). Holders never block on the store — hydration
/// reads run outside this lock, serialized per stream by its stripe.
pub(crate) struct Residency {
    registry: Ranked<{ rank::REGISTRY }, Mutex<Registry>>,
    /// Resident streams a touch may leave (`usize::MAX` when uncapped).
    cap: usize,
    /// Cold-touch stream opens since the engine opened.
    hydrations: counters::Counter,
    /// Resident streams evicted since open.
    evictions: counters::Counter,
}

impl Residency {
    /// The directory of `kv`'s registered streams that `owns` accepts, read
    /// in one scan of the stream-meta prefix; nothing is resident.
    pub(crate) fn open(
        kv: &dyn KvStore,
        cap: Option<usize>,
        owns: impl Fn(u128) -> bool,
    ) -> Result<Self, ServerError> {
        let mut registry = Registry::default();
        for (key, value) in kv.scan_prefix(keys::META)? {
            // A malformed record is skipped: no registration wrote it.
            let (Some(stream), Some(meta)) = (keys::meta_stream(&key), StreamMeta::decode(&value))
            else {
                continue;
            };
            if owns(stream) {
                registry.directory.insert(stream, meta);
            }
        }
        Ok(Residency {
            registry: Ranked::new(Mutex::new(registry)),
            cap: cap.unwrap_or(usize::MAX),
            hydrations: counters::Counter::new(),
            evictions: counters::Counter::new(),
        })
    }

    fn lock(&self) -> Locked<'_> {
        self.registry.lock(Mutex::lock)
    }

    /// The stream's registration metadata, without touching its state.
    pub(crate) fn meta(&self, stream: u128) -> Result<StreamMeta, ServerError> {
        let meta = self.lock().directory.get(&stream).copied();
        meta.ok_or(ServerError::NoSuchStream(stream))
    }

    /// Enters (or replaces) the stream's directory entry.
    pub(crate) fn register(&self, stream: u128, meta: StreamMeta) {
        self.lock().directory.insert(stream, meta);
    }

    /// Removes the stream's directory entry, and returns it.
    pub(crate) fn unregister(&self, stream: u128) -> Option<StreamMeta> {
        self.lock().directory.remove(&stream)
    }

    /// The stream's resident state, stamped as touched now, after the cap
    /// sweep; `None` when the stream is registered but cold. Every
    /// outstanding clone of a resident handle originates here or in
    /// [`publish`](Self::publish) — always under the registry lock — which
    /// is what makes the strong-count gate of the sweep sound.
    pub(crate) fn touch(&self, stream: u128) -> Result<Option<Arc<StreamState>>, ServerError> {
        let mut reg = self.lock();
        reg.tick += 1;
        let tick = reg.tick;
        let Some(r) = reg.resident.get_mut(&stream) else {
            let cold = reg.directory.contains_key(&stream).then_some(None);
            return cold.ok_or(ServerError::NoSuchStream(stream));
        };
        r.tick = tick;
        let state = r.state.clone();
        self.sweep(reg, self.cap);
        Ok(Some(state))
    }

    /// Publishes a hydrated stream, not resident, as the warmest entry,
    /// then sweeps to the cap. The caller keeps a handle of its own, so
    /// the sweep cannot take what it just published.
    pub(crate) fn publish(&self, stream: u128, state: Arc<StreamState>) {
        self.hydrations.inc();
        let mut reg = self.lock();
        reg.tick += 1;
        let tick = reg.tick;
        reg.resident.insert(stream, Resident { state, tick });
        self.sweep(reg, self.cap);
    }

    /// Drops a stream from the resident set, in-flight references or not:
    /// under the stream's stripe, no writer holds it. The caller drops the
    /// handle after the lock.
    pub(crate) fn remove(&self, stream: u128) -> Option<Arc<StreamState>> {
        Some(self.lock().resident.remove(&stream)?.state)
    }

    /// The one sweep: while more than `target` streams are resident,
    /// evicts the idle one with the smallest stamp, skipping any with an
    /// in-flight reference; counts the evictions and drops the evicted
    /// state (trees, ledgers) after unlocking. The strong-count gate is
    /// sound because clones of a resident handle only originate under the
    /// registry lock (held here): a count of 1 observed now cannot grow
    /// concurrently, so eviction never leaves a stream with two live
    /// `StreamState`s. Each victim costs one scan of the set: a cap sweep
    /// evicts one or a few, `evict_idle_streams` every idle stream.
    fn sweep(&self, mut reg: Locked<'_>, target: usize) -> usize {
        let mut victims = Vec::new();
        while reg.resident.len() > target {
            let idle = reg
                .resident
                .iter()
                .filter(|(_, r)| Arc::strong_count(&r.state) == 1);
            let Some((&coldest, _)) = idle.min_by_key(|(_, r)| r.tick) else {
                break;
            };
            victims.extend(reg.resident.remove(&coldest));
        }
        drop(reg);
        self.evictions.add(victims.len() as u64);
        victims.len()
    }
}

impl TimeCryptServer {
    /// Number of registered streams (shard-occupancy metric). Counts the
    /// directory, not the resident set — see [`residency`](Self::residency)
    /// for the latter.
    pub fn stream_count(&self) -> usize {
        self.residency.lock().directory.len()
    }

    /// Every registered stream, ascending: the replica-rebuild listing.
    pub fn stream_ids(&self) -> Vec<u128> {
        let mut ids = Vec::from_iter(self.residency.lock().directory.keys().copied());
        ids.sort_unstable();
        ids
    }

    /// Evicts every resident stream with no in-flight references,
    /// regardless of the configured cap. Maintenance / test hook: the
    /// equivalence battery calls this after every operation to force a
    /// cold rehydration path. Returns the number of streams evicted.
    pub fn evict_idle_streams(&self) -> usize {
        self.residency.sweep(self.residency.lock(), 0)
    }

    /// Residency counters for the lazy-hydration layer.
    pub fn residency(&self) -> ResidencyStats {
        ResidencyStats {
            resident: self.residency.lock().resident.len() as u64,
            hydrations: self.residency.hydrations.get(),
            evictions: self.residency.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use timecrypt_store::MemKv;

    /// The engine's resident streams, ascending.
    fn resident(s: &TimeCryptServer) -> Vec<u128> {
        let mut ids = Vec::from_iter(s.residency.lock().resident.keys().copied());
        ids.sort_unstable();
        ids
    }

    /// Seeded touch / hold / release steps under caps 1–8, checked after
    /// each against a reference LRU: a touch makes its stream the warmest
    /// and then evicts the coldest idle streams until the cap holds, never
    /// one with an in-flight handle (the touched one included); a release
    /// evicts nothing.
    #[test]
    fn eviction_takes_the_coldest_idle_stream() {
        const STREAMS: u128 = 12;
        for cap in 1..=8 {
            for seed in 0..8u64 {
                let cfg = ServerConfig {
                    max_resident_streams: Some(cap),
                    ..ServerConfig::default()
                };
                let s = TimeCryptServer::open(Arc::new(MemKv::new()), cfg).unwrap();
                for id in 0..STREAMS {
                    s.create_stream(id, 0, 10_000, 2).unwrap();
                }
                // The reference: resident streams, coldest first.
                let (mut lru, mut held) = (Vec::<u128>::new(), Vec::new());
                let mut x = (cap as u64) << 32 | (seed + 1);
                for step in 0..200 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let id = (x >> 8) as u128 % STREAMS;
                    match x % 4 {
                        0 if !held.is_empty() => {
                            held.swap_remove((x >> 32) as usize % held.len());
                        }
                        kind => {
                            let st = s.stream(id).unwrap();
                            lru.retain(|&r| r != id);
                            lru.push(id);
                            let busy = |r: &u128| *r == id || held.iter().any(|(h, _)| h == r);
                            while lru.len() > cap {
                                let Some(coldest) = lru.iter().position(|r| !busy(r)) else {
                                    break;
                                };
                                lru.remove(coldest);
                            }
                            if kind == 1 {
                                held.push((id, st));
                            }
                        }
                    }
                    let mut want = lru.clone();
                    want.sort_unstable();
                    assert_eq!(resident(&s), want, "cap {cap}, seed {seed}, step {step}");
                }
            }
        }
    }
}
