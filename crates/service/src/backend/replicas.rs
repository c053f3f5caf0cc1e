//! One shard's replica set: failover, promotion and rebuild.

use super::{Leg, Pending, ShardBackend, Verdicts, AMBIGUOUS, SAME_NODE};
use crate::metrics::{ServiceMetrics, ShardMetrics};
use parking_lot::{RwLock, RwLockReadGuard};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;
use timecrypt_chunk::serialize::ChunkRef;
use timecrypt_obs::rank::{self, Ranked};
use timecrypt_server::{ServerError, StatLeg};
use timecrypt_wire::messages::{Request, Response, Route};

/// Backup replica health. Write mirroring is armed in *every* state —
/// the replica must not miss writes while it catches up — but only an
/// in-sync backup serves failover reads and is promotion-eligible:
/// both require the replica to hold every acknowledged write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReplicaHealth {
    /// Has mirrored every acknowledged write since it was last verified:
    /// serves failover reads, promotion-eligible. A failed or diverging
    /// mirror write counts drift *and demotes to [`Self::Drifted`]* —
    /// the replica provably no longer matches acknowledged state.
    InSync,
    /// Missed or diverged on at least one acknowledged write: mirror
    /// outcomes keep counting in `replica_errors`, but the replica is
    /// untrusted for reads and promotion until a rebuild
    /// ([`crate::ShardedService::rebuild_replica`]) verifies it again.
    Drifted,
    /// Catching up under a rebuild: mirrored-write rejections are
    /// expected (the copy has not reached them yet), not drift.
    Rebuilding,
}

/// A backup replica and its lifecycle state.
#[derive(Clone)]
pub(crate) struct BackupState {
    backend: Arc<dyn ShardBackend>,
    health: ReplicaHealth,
}

/// The current primary/backup assignment of one shard (swapped by
/// promotion, extended by [`ShardReplicas::attach_backup`]).
struct Roles {
    primary: Arc<dyn ShardBackend>,
    backup: Option<BackupState>,
    /// Streams of which a rebuilding backup missed a mirrored write since
    /// their sweep: the rebuild sweeps them again.
    missed: BTreeSet<u128>,
}

/// One shard's replica set: a primary backend plus an optional backup,
/// with a health state machine that closes the R=2 loop.
///
/// * **Mutations** (`Write`: `call` of a mutation, `ingest_batch` and
///   the overlapped `ingest_runs`) go
///   primary-then-backup: the backup only ever receives writes the
///   primary received, in the same order, which is the invariant that
///   keeps the replicas byte-identical. A backup failure (or a verdict
///   diverging from the primary's) does not fail the operation; it ticks
///   `replica_errors` and *demotes* an in-sync backup to the drifted
///   state — a replica that provably missed an acknowledged write must
///   never be promoted or serve failover reads.
/// * **Reads** (`read_with_failover`: `call` of a read, a scrape's
///   per-shard lookup, and the second step of `begin_leg`) go to the
///   primary and fail over to
///   an *in-sync* backup when the primary is unreachable, ticking
///   `failovers`. A rebuilding or drifted replica never serves reads — it
///   would answer from incomplete data.
/// * **Promotion.** Every primary transport failure counts a strike
///   (any success resets them). At `promote_after` consecutive strikes
///   with an in-sync backup attached, the backup *becomes* the primary:
///   reads and writes flip to it, `promotions` ticks, and the operation
///   that crossed the threshold is retried once against the new primary.
///   Replies stay byte-identical because the backup received every
///   acknowledged write. The shard then runs un-replicated until a
///   replacement is attached.
/// * **Rebuild.** `attach_backup` (driven by
///   [`crate::ShardedService::attach_replica`]) adds a replacement in
///   the rebuilding state; the caller then runs `rebuild_backup`, which
///   sweeps each stream the survivor or the replica lists onto it and
///   flips the replica to in-sync — closing the loop. A sweep holds its
///   stream's admission stripe exclusively, and every write holds a share
///   of its streams' stripes, so no write to the stream is in flight
///   while it is copied. The same call brings a drifted replica back
///   ([`crate::ShardedService::rebuild_replica`]), writing only the
///   records it differs in.
///
/// Per-stream write ordering is the caller's: *a stream has one writer at
/// a time*, so primary and backup see the same per-stream sequence. Two
/// writers racing one stream index can be accepted in one order by the
/// primary and the other by the backup; each then reads a mirror verdict
/// unlike its primary's, which is counted drift — the backup is demoted
/// and a rebuild re-verifies it, the replicas never differ silently.
pub struct ShardReplicas {
    shard: usize,
    metrics: Arc<ServiceMetrics>,
    roles: Ranked<{ rank::ROLES }, RwLock<Roles>>,
    /// Consecutive primary transport failures; reset by any success.
    strikes: AtomicU32,
    /// Strikes required to promote; `0` disables automatic promotion.
    promote_after: u32,
    /// Guards against two rebuilds copying the same shard at once: taken
    /// with `Acquire`, let go with `Release`, so a rebuild starts from
    /// everything the last one wrote.
    rebuilding: AtomicBool,
    /// Write admission, per stream: a write holds a read lock on
    /// `admission[stripe(s)]` for each stream `s` it writes, taken in
    /// ascending stripe order, until its mirror is read; a sweep holds its
    /// stream's exclusively while it copies the stream. A batch spanning
    /// shards is admitted to them in ascending shard order.
    admission: [RwLock<()>; STRIPES],
}

/// Admission stripes a shard keeps, created with it and never removed.
const STRIPES: usize = 1024;

/// The admission stripe of `stream`: its id's own bits, folded. Not a mix
/// of them modulo `STRIPES`: [`crate::ShardRouter`] picks a shard by such
/// a mix modulo the shard count, so a shard's streams would reach only a
/// fraction of the stripes.
fn stripe(stream: u128) -> usize {
    (stream as u64 ^ (stream >> 64) as u64) as usize % STRIPES
}

impl ShardReplicas {
    pub(crate) fn new(
        shard: usize,
        metrics: Arc<ServiceMetrics>,
        primary: Arc<dyn ShardBackend>,
        backup: Option<Arc<dyn ShardBackend>>,
        promote_after: u32,
    ) -> Self {
        metrics.shard(shard).in_sync.set(backup.is_some());
        ShardReplicas {
            shard,
            metrics,
            roles: Ranked::new(RwLock::new(Roles {
                primary,
                // A topology-configured backup mirrors from the first
                // write, so it starts in sync.
                backup: backup.map(|backend| BackupState {
                    backend,
                    health: ReplicaHealth::InSync,
                }),
                missed: BTreeSet::new(),
            })),
            strikes: AtomicU32::new(0),
            promote_after,
            rebuilding: AtomicBool::new(false),
            admission: [const { RwLock::new(()) }; STRIPES],
        }
    }

    fn m(&self) -> &ShardMetrics {
        self.metrics.shard(self.shard)
    }

    /// A consistent snapshot of the current role assignment. Operations
    /// run against the snapshot — a concurrent promotion flips *later*
    /// operations, never one in flight.
    pub(crate) fn snapshot(&self) -> (Arc<dyn ShardBackend>, Option<BackupState>) {
        let roles = self.roles.lock(RwLock::read);
        (roles.primary.clone(), roles.backup.clone())
    }

    /// The current primary alone (mutation paths re-read the backup via
    /// [`Self::mirror_target`] after the primary acknowledged).
    fn primary(&self) -> Arc<dyn ShardBackend> {
        self.roles.lock(RwLock::read).primary.clone()
    }

    fn note_primary_ok(&self) {
        self.strikes.store(0, Ordering::Relaxed);
    }

    /// Counts one primary transport failure and promotes the in-sync
    /// backup once the strike threshold is reached. Returns `true` when
    /// the caller should retry against a (possibly concurrently) promoted
    /// primary.
    fn note_primary_failure(&self, failed: &Arc<dyn ShardBackend>) -> bool {
        let strikes = {
            // Count under the roles read lock, only against the *current*
            // primary: a stale failure observed before a concurrent
            // promotion must not leak a phantom strike onto the freshly
            // promoted primary (promotion resets the counter while
            // holding the write lock, which this read lock excludes).
            let roles = self.roles.lock(RwLock::read);
            if !Arc::ptr_eq(&roles.primary, failed) {
                // Already replaced; our operation can retry against the
                // new primary.
                return true;
            }
            self.strikes
                .fetch_add(1, Ordering::Relaxed)
                .saturating_add(1)
        };
        if self.promote_after == 0 || strikes < self.promote_after {
            return false;
        }
        let mut roles = self.roles.lock(RwLock::write);
        if !Arc::ptr_eq(&roles.primary, failed) {
            return true;
        }
        match roles.backup.take() {
            Some(promoted) if promoted.health == ReplicaHealth::InSync => {
                // The old primary is dropped: it is unreachable, and were
                // it to come back it would be stale — it must be re-added
                // via attach + rebuild, never trusted again.
                roles.primary = promoted.backend;
                self.strikes.store(0, Ordering::Relaxed);
                let m = self.m();
                m.promotions.inc();
                m.in_sync.set(false);
                true
            }
            // No backup, or one that is rebuilding/drifted: nothing safe
            // to promote — put it back untouched.
            other => {
                roles.backup = other;
                false
            }
        }
    }

    /// Accounts a failed or diverging mirror write, deciding against the
    /// backup's health *now*, under the roles lock — not the caller's
    /// pre-operation snapshot, which a concurrent rebuild completion may
    /// have outdated. An in-sync backup is *demoted*: a replica that
    /// provably missed an acknowledged write must not be promoted or
    /// serve reads (acknowledged data would silently vanish) until a
    /// rebuild ([`crate::ShardedService::rebuild_replica`]) re-verifies
    /// it. During a rebuild the rejection is expected (the copy has not
    /// reached this write yet): the write's streams join `missed`, and the
    /// rebuild sweeps them again.
    fn note_mirror_drift(&self, drifted: &Arc<dyn ShardBackend>, (errors, streams): Missed) {
        if errors == 0 {
            return;
        }
        let mut roles = self.roles.lock(RwLock::write);
        let Some(b) = &mut roles.backup else { return };
        if !Arc::ptr_eq(&b.backend, drifted) {
            return;
        }
        match b.health {
            ReplicaHealth::Rebuilding => roles.missed.extend(streams),
            ReplicaHealth::InSync => {
                self.m().replica_errors.add(errors);
                b.health = ReplicaHealth::Drifted;
                self.m().in_sync.set(false);
            }
            ReplicaHealth::Drifted => {
                self.m().replica_errors.add(errors);
            }
        }
    }

    /// The backup to mirror a just-acknowledged write to, re-read *after*
    /// the primary call returned: a replica attached (or verified in
    /// sync) while the slow primary call was in flight must still receive
    /// — or be held accountable for — this acknowledged write.
    fn mirror_target(&self) -> Option<BackupState> {
        self.roles.lock(RwLock::read).backup.clone()
    }

    /// The read policy, over `roles` — a [`snapshot`](Self::snapshot) the
    /// caller took: the primary answers; when it is unreachable an
    /// *in-sync* backup answers instead (one `failovers` tick), and when
    /// no backup may answer but the failure triggered (or lost the race
    /// to) a promotion, `op` is retried once against the new primary. The
    /// error is the last backend's.
    pub(crate) fn read_with_failover<T>(
        &self,
        (mut primary, mut backup): (Arc<dyn ShardBackend>, Option<BackupState>),
        op: impl Fn(&dyn ShardBackend) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut retried = false;
        loop {
            let err = match op(&*primary) {
                Ok(out) => {
                    self.note_primary_ok();
                    return Ok(out);
                }
                Err(e) => e,
            };
            // Strikes count on an un-replicated shard too: a replica
            // attached later can be promoted as soon as it is in sync.
            let promoted = self.note_primary_failure(&primary);
            // Only an in-sync backup may answer reads — a rebuilding or
            // drifted replica would answer from incomplete data.
            if let Some(b) = backup.filter(|b| b.health == ReplicaHealth::InSync) {
                self.m().failovers.inc();
                return op(&*b.backend);
            }
            if promoted && !retried {
                retried = true;
                (primary, backup) = self.snapshot();
                continue;
            }
            return Err(err);
        }
    }

    /// Starts `op` under the write policy (see [`Write`]): once no
    /// rebuild sweeps a stream of its admission stripes, it is begun on
    /// the current primary.
    fn begin_write<W: WriteOp>(&self, op: W) -> Write<'_, W> {
        // The stripes of its streams as a bit set, drawn lowest first: in
        // ascending order, each once, with nothing allocated.
        let mut written = [0u64; STRIPES / 64];
        for s in op.streams().map(stripe) {
            written[s / 64] |= 1 << (s % 64);
        }
        let stripes = (written.into_iter().enumerate()).flat_map(|(word, mut bits)| {
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(word * 64 + bit)
            })
        });
        let mut admitted = stripes.map(|s| self.admission[s].read());
        // Drawn here, so the locks are held before the primary has the write.
        let admitted = (admitted.next(), admitted.collect());
        let primary = self.primary();
        let sent = op.begin_on(&*primary);
        Write {
            replicas: self,
            _admitted: admitted,
            op,
            primary: Some((primary, sent)),
            out: Err(AMBIGUOUS),
            mirror: None,
        }
    }

    /// Dispatches one wire request under the write policy (mutations; the
    /// mirror must return the primary's reply) or the read policy.
    /// Infallible at this level: an unreachable shard becomes a
    /// `Response::Error`, exactly what a wire client would see.
    pub(crate) fn call(&self, req: Request) -> Response {
        let reply = if req.is_mutation() {
            self.begin_write(req).finish_mirror()
        } else {
            self.read_with_failover(self.snapshot(), |b| b.call(req.clone()))
        };
        reply.unwrap_or_else(|e| Response::Error(e.to_string()))
    }

    /// Begins one scatter-gather leg on the primary — a remote one then
    /// has its frame on the wire — and returns the step that reads the
    /// shard's fold of it, which the caller takes after beginning other
    /// shards' legs. That step is the read policy over the roles as they
    /// were here, its first attempt the leg as begun; a failover or a retry
    /// is a whole leg on the thread that takes the step, and every attempt
    /// ends by `deadline`. Infallible: a shard no replica of which
    /// answered — unreachable, or cut short by the query's budget — stops
    /// the leg at its first stream with that `Unavailable`.
    pub(crate) fn begin_leg<'a>(
        &'a self,
        legs: &'a Leg,
        ts_s: i64,
        ts_e: i64,
        deadline: Instant,
    ) -> impl FnOnce() -> StatLeg + 'a {
        let roles = self.snapshot();
        let begun = Cell::new(Some(roles.0.begin_leg(legs, ts_s, ts_e, deadline)));
        move || {
            let leg = |b: &dyn ShardBackend| {
                let begun = begun.take();
                begun.unwrap_or_else(|| b.begin_leg(legs, ts_s, ts_e, deadline))()
            };
            self.read_with_failover(roles, leg)
                .unwrap_or_else(|e| StatLeg::fold([Err(e)]))
        }
    }

    /// Begins ingesting an ordered run under the write policy;
    /// `queue_depth` counts its chunks until their verdicts are read.
    pub(crate) fn begin_ingest<'a>(&'a self, chunks: &'a [&'a [u8]]) -> Write<'a, Run<'a>> {
        self.m().queue_depth.add(chunks.len() as u64);
        self.begin_write(Run(chunks))
    }

    /// Ingests an ordered run under the write policy, start to finish.
    pub(crate) fn ingest_batch(&self, chunks: &[&[u8]]) -> Verdicts {
        self.begin_ingest(chunks).settle()
    }

    /// Attaches a replacement backup in the rebuilding state: write
    /// mirroring arms immediately (the replica must not miss writes while
    /// it catches up), but the replica serves no reads and is not
    /// promotion-eligible until [`rebuild_backup`](Self::rebuild_backup)
    /// verifies the copy. Errors if a backup is already attached, or if
    /// this one dials the node of the primary as it is now — a survivor
    /// promoted since open included.
    pub(crate) fn attach_backup(&self, backend: Arc<dyn ShardBackend>) -> Result<(), ServerError> {
        let mut roles = self.roles.lock(RwLock::write);
        if roles.backup.is_some() {
            return Err(ServerError::Unavailable(
                "shard already has a backup replica",
            ));
        }
        if backend.endpoint().is_some() && backend.endpoint() == roles.primary.endpoint() {
            return Err(SAME_NODE);
        }
        roles.backup = Some(BackupState {
            backend,
            health: ReplicaHealth::Rebuilding,
        });
        Ok(())
    }

    /// Marks the attached backup in sync: it now serves failover reads,
    /// divergence counts in `replica_errors`, and it is promotion-eligible.
    ///
    /// Only if the backup missed no mirrored write since the rebuild last
    /// looked: `missed` is filled (and checked here) under the roles write
    /// lock, so a miss either lands before this check and vetoes the arm,
    /// or after it — against a replica already marked in sync, where
    /// `note_mirror_drift` demotes it again. Either way no in-sync replica
    /// is missing an acknowledged write.
    fn arm(&self) -> bool {
        let mut roles = self.roles.lock(RwLock::write);
        if !roles.missed.is_empty() {
            return false;
        }
        if let Some(b) = &mut roles.backup {
            b.health = ReplicaHealth::InSync;
            self.m().in_sync.set(true);
            true
        } else {
            false
        }
    }

    /// Every backend currently attached to this shard (primary first,
    /// then the backup when present). The coordinator's stats
    /// aggregation walks these to find the distinct remote nodes whose
    /// store counters it should fold in.
    pub(crate) fn attached_backends(&self) -> Vec<Arc<dyn ShardBackend>> {
        let roles = self.roles.lock(RwLock::read);
        let mut out = vec![roles.primary.clone()];
        if let Some(b) = &roles.backup {
            out.push(b.backend.clone());
        }
        out
    }

    /// Makes the attached backup hold the survivor's (the current
    /// primary's) records and arms it, on the calling thread. `Ok` exactly
    /// when the replica is in sync on return: it was, or this call armed
    /// it. `Err` when no backup is attached, when another caller's rebuild
    /// of this shard is running, or when the rebuild gave up — after
    /// [`REBUILD_MAX_PASSES`] (an unreachable peer, mirrored writes missed
    /// as fast as they are swept) the replica is left *drifted*, and a
    /// later call retries.
    ///
    /// A pass lists the replica's streams and then the survivor's and
    /// sweeps each listed stream not swept yet, or missed since: its
    /// records copied page by page, writes to it held off (why that is
    /// sound: ARCHITECTURE.md, "Rebuild protocol"). It arms the replica
    /// once every listed stream is swept and the replica missed no
    /// mirrored write since.
    pub(crate) fn rebuild_backup(&self) -> Result<(), ServerError> {
        if self.rebuilding.swap(true, Ordering::Acquire) {
            return Err(ServerError::Unavailable(
                "a rebuild of this replica is already running",
            ));
        }
        let outcome = self.rebuild_locked();
        self.rebuilding.store(false, Ordering::Release);
        outcome
    }

    fn rebuild_locked(&self) -> Result<(), ServerError> {
        let replacement = {
            let mut roles = self.roles.lock(RwLock::write);
            let Some(b) = &mut roles.backup else {
                return Err(ServerError::Unavailable(
                    "shard has no backup replica to rebuild",
                ));
            };
            if b.health == ReplicaHealth::InSync {
                return Ok(());
            }
            // Pause drift accounting while the copy is in flight:
            // rejections of mirrored writes it has not reached are expected.
            b.health = ReplicaHealth::Rebuilding;
            let backend = b.backend.clone();
            roles.missed.clear();
            backend
        };
        let survivor = self.primary();
        let mut swept = BTreeSet::new();
        for _pass in 0..REBUILD_MAX_PASSES {
            for stream in std::mem::take(&mut self.roles.lock(RwLock::write).missed) {
                swept.remove(&stream);
            }
            // A peer unreachable: nothing to compare right now; try again
            // next pass (the dial already backed off).
            let Some(held) = list_streams(&*replacement, self.shard) else {
                continue;
            };
            let Some(wanted) = list_streams(&*survivor, self.shard) else {
                continue;
            };
            let mut settled = true;
            for &stream in held.union(&wanted) {
                if swept.contains(&stream) {
                    continue;
                }
                if self.sweep(&*survivor, &*replacement, stream) {
                    swept.insert(stream);
                } else {
                    settled = false;
                }
            }
            if settled && self.arm() {
                self.m().rebuilds.inc();
                return Ok(());
            }
        }
        // Gave up: visibly untrusted, mirror failures count as drift again.
        if let Some(b) = &mut self.roles.lock(RwLock::write).backup {
            b.health = ReplicaHealth::Drifted;
        }
        Err(ServerError::Unavailable(
            "replica rebuild gave up; the replica stays drifted",
        ))
    }

    /// Copies `stream`'s records from the survivor into the replica with
    /// no write to it in flight: its admission stripe is held exclusively,
    /// so the writes admitted before end first and later ones wait until
    /// its last page is imported. `true` when every page was: the replica
    /// then holds what the survivor does, and a miss noted before the
    /// sweep is void.
    fn sweep(&self, survivor: &dyn ShardBackend, replica: &dyn ShardBackend, stream: u128) -> bool {
        let _swept = self.admission[stripe(stream)].write();
        let copied = self.copy_stream(survivor, replica, stream);
        if copied {
            self.roles.lock(RwLock::write).missed.remove(&stream);
        }
        copied
    }

    /// Imports `stream`'s pages from the survivor into the replica, in key
    /// order, counting the chunks written. `false` when a page did not
    /// arrive or was refused.
    fn copy_stream(
        &self,
        survivor: &dyn ShardBackend,
        replica: &dyn ShardBackend,
        stream: u128,
    ) -> bool {
        let mut after = Vec::new();
        loop {
            let export = Request::ExportStream {
                stream,
                after: after.clone(),
            };
            let Ok(Response::StreamChunks { records, done }) = survivor.call(export) else {
                return false;
            };
            let next = records.last().map(|(key, _)| key.clone());
            let import = Request::ImportStream {
                stream,
                after,
                records,
                done,
            };
            let Ok(Response::Imported(chunks)) = replica.call(import) else {
                return false;
            };
            self.m().rebuild_chunks_copied.add(chunks);
            match next {
                Some(next) if !done => after = next,
                _ => return true,
            }
        }
    }
}

/// What a write asks of one backend — begun on the primary, then again on
/// the mirror; each begin's [`Pending`] reads that backend's answer.
pub(crate) trait WriteOp {
    /// The backend's answer.
    type Out;
    fn begin_on(&self, b: &dyn ShardBackend) -> Pending<Self::Out>;
    /// The acknowledged writes the backup lacks, given the primary's
    /// answer and the mirror's (`None`: backup unreachable), and the
    /// streams whose stored records they change.
    fn missed(&self, out: &Self::Out, mirrored: Option<&Self::Out>) -> Missed;
    /// The streams whose stored records the write may change.
    fn streams(&self) -> impl Iterator<Item = u128> + '_;
}

/// How many acknowledged writes a backup lacks, and their streams.
type Missed = (u64, Vec<u128>);

/// A mutating request. The mirror must return the primary's reply.
impl WriteOp for Request {
    type Out = Response;
    fn begin_on(&self, b: &dyn ShardBackend) -> Pending<Response> {
        b.begin_call(self.clone(), None)
    }
    fn missed(&self, reply: &Response, mirrored: Option<&Response>) -> Missed {
        match mirrored == Some(reply) {
            true => (0, Vec::new()),
            false => (1, self.streams().collect()),
        }
    }
    /// Its stream's. A mutation not routed by stream is a live record,
    /// which changes none.
    fn streams(&self) -> impl Iterator<Item = u128> + '_ {
        match self.route() {
            Route::Stream(stream) => Some(stream),
            _ => None,
        }
        .into_iter()
    }
}

/// An ordered run of serialized chunks for one shard.
pub(crate) struct Run<'a>(&'a [&'a [u8]]);

impl WriteOp for Run<'_> {
    type Out = Verdicts;
    fn begin_on(&self, b: &dyn ShardBackend) -> Pending<Verdicts> {
        b.begin_batch(self.0)
    }
    fn missed(&self, results: &Verdicts, mirrored: Option<&Verdicts>) -> Missed {
        let missed: Vec<&[u8]> = match mirrored {
            Some(mirrored) => (self.0.iter().zip(results.iter().zip(mirrored)))
                .filter(|(_, (a, b))| a.is_ok() != b.is_ok())
                .map(|(chunk, _)| *chunk)
                .collect(),
            // Whole-run mirror failure: only the chunks the primary
            // *accepted* diverge the replicas — chunks the primary itself
            // rejected never landed on either side.
            None => (self.0.iter().zip(results))
                .filter(|(_, r)| r.is_ok())
                .map(|(chunk, _)| *chunk)
                .collect(),
        };
        (missed.len() as u64, Run(&missed).streams().collect())
    }
    fn streams(&self) -> impl Iterator<Item = u128> + '_ {
        (self.0.iter()).filter_map(|c| Some(ChunkRef::parse(c).ok()?.stream))
    }
}

/// A backend a write was begun on, with the step that reads its answer.
type Begun<W> = (Arc<dyn ShardBackend>, Pending<<W as WriteOp>::Out>);

/// One write under the write policy — primary first, then the mirror —
/// which the caller may leave between its transport steps to drive other
/// shards' writes: [`ShardReplicas::begin_write`] has begun it on the
/// primary, [`finish_primary`](Self::finish_primary) reads the primary's
/// answer and begins the mirror, [`finish_mirror`](Self::finish_mirror)
/// reads the mirror's and accounts drift. Between steps it holds the
/// backend it waits on and its shares of the shard's admission stripes,
/// never the roles lock. Every mutation takes this
/// path, replicated shard or not: the mirror target is re-read *after*
/// the primary acknowledges, so a backup attached (even armed) while the
/// call was in flight still receives — or vetoes the arming of — the
/// write; a snapshot-gated fast path would let it bypass the attach.
///
/// An unreachable primary fails the write *without* touching the backup,
/// which therefore never holds state the primary lacks. At most two
/// attempts: the retry runs only when the first attempt's failure
/// triggered (or lost the race to) a promotion — safe, because the mirror
/// only runs after the primary acknowledged client-side, so a write whose
/// ack was lost never reached the backup, and strict next-index ingest
/// rejects any duplicate that somehow did. With no safe retry target the
/// error is [`AMBIGUOUS`]: callers know the write may have been applied.
pub(crate) struct Write<'r, W: WriteOp> {
    replicas: &'r ShardReplicas,
    /// Its shares of the shard's admission stripes, held until the write
    /// ends: the first apart, so a write to one stripe allocates nothing.
    _admitted: (
        Option<RwLockReadGuard<'r, ()>>,
        Vec<RwLockReadGuard<'r, ()>>,
    ),
    op: W,
    /// The primary, until its answer is read.
    primary: Option<Begun<W>>,
    /// The primary's answer: unknown until read.
    out: Result<W::Out, ServerError>,
    /// The mirror, begun once the primary acknowledged.
    mirror: Option<Begun<W>>,
}

impl<W: WriteOp> Write<'_, W> {
    /// Reads the primary's answer and, if it acknowledged, begins the
    /// mirror. Does nothing the second time.
    pub(crate) fn finish_primary(&mut self) {
        let Some((mut primary, mut pending)) = self.primary.take() else {
            return;
        };
        let mut retried = false;
        loop {
            if let Ok(out) = pending() {
                self.out = Ok(out);
                break;
            }
            if !self.replicas.note_primary_failure(&primary) || retried {
                return;
            }
            retried = true;
            primary = self.replicas.primary();
            pending = self.op.begin_on(&*primary);
        }
        self.replicas.note_primary_ok();
        self.mirror = self.replicas.mirror_target().map(|b| {
            let pending = self.op.begin_on(&*b.backend);
            (b.backend, pending)
        });
    }

    /// Runs the write to its end and returns the primary's answer. An
    /// unreachable backup or a diverging answer does not fail it (the
    /// primary accepted it), but the replica missed it:
    /// `note_mirror_drift` decides against the replica's *current* health
    /// whether that is drift or an expected mid-rebuild rejection.
    pub(crate) fn finish_mirror(mut self) -> Result<W::Out, ServerError> {
        self.finish_primary();
        let out = self.out?;
        if let Some((backup, pending)) = self.mirror {
            let mirrored = pending();
            let missed = self.op.missed(&out, mirrored.ok().as_ref());
            self.replicas.note_mirror_drift(&backup, missed);
        }
        Ok(out)
    }
}

impl Write<'_, Run<'_>> {
    /// [`finish_mirror`](Self::finish_mirror), infallible: an unreachable
    /// primary yields per-chunk [`AMBIGUOUS`] verdicts — the run may have
    /// been applied (in full or in prefix) before the transport failed, so
    /// callers must not blindly re-submit.
    pub(crate) fn settle(self) -> Verdicts {
        let (m, chunks) = (self.replicas.m(), self.op.0.len());
        let verdicts = self.finish_mirror().unwrap_or_else(|_| {
            m.ingest_errors.add(chunks as u64);
            (0..chunks).map(|_| Err(AMBIGUOUS)).collect()
        });
        m.queue_depth.sub(chunks as u64);
        verdicts
    }
}

/// Ingests one run per replica set with the sets' exchanges overlapped,
/// on the calling thread: every primary has its run before any answer is
/// awaited, each mirror is begun as soon as its own primary acknowledged,
/// and the mirrors are read last. Verdicts come back per run, in order.
/// The runs come in ascending shard order: each is admitted while the
/// earlier ones hold their admission (`ShardReplicas::admission`).
pub(crate) fn ingest_runs<'a>(
    runs: impl Iterator<Item = (&'a ShardReplicas, &'a [&'a [u8]])>,
) -> Vec<Verdicts> {
    let mut writes: Vec<_> = runs.map(|(r, chunks)| r.begin_ingest(chunks)).collect();
    writes.iter_mut().for_each(Write::finish_primary);
    writes.into_iter().map(Write::settle).collect()
}

/// Passes before a rebuild gives up. Each lists both replicas and sweeps
/// only the streams not swept yet, or missed since; passes after the
/// first cover transient dial failures and missed mirrored writes.
const REBUILD_MAX_PASSES: usize = 16;

/// The streams of `shard` on `backend`; `None` when unreachable.
fn list_streams(backend: &dyn ShardBackend, shard: usize) -> Option<BTreeSet<u128>> {
    match backend.call(Request::ListStreams {
        shard: shard as u32,
    }) {
        Ok(Response::StreamList(streams)) => Some(streams.into_iter().collect()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::UNREACHABLE;
    use super::*;
    use std::collections::VecDeque;
    use timecrypt_chunk::serialize::EncryptedChunk;
    use timecrypt_chunk::{DataPoint, DigestSchema, PlainChunk, StreamConfig};
    use timecrypt_core::StreamKeyMaterial;
    use timecrypt_crypto::{PrgKind, SecureRandom};
    use timecrypt_server::{keys, ServerConfig, TimeCryptServer};
    use timecrypt_store::MemKv;
    use timecrypt_wire::messages::StatReply;
    use timecrypt_wire::transport::Handler;

    /// An in-process backend over its own store whose reachability the
    /// test controls: "down" models the node being unreachable (every
    /// method returns the transport-level `Unavailable`), exactly the
    /// signal the replica state machine keys off.
    struct StubShard {
        engine: Arc<TimeCryptServer>,
        /// Shared with the legs and batches this shard has begun: their
        /// `Pending` asks it again.
        reach: Arc<Reach>,
        /// Hooks, in order: the first runs right after the shard answers a
        /// request it picks — how a test interleaves writes with a rebuild.
        after: parking_lot::Mutex<VecDeque<Hook>>,
        /// The batch steps this shard ran, in order, under `name` — a log
        /// several shards of one test can share.
        steps: Steps,
        name: &'static str,
    }

    struct Reach {
        up: AtomicBool,
        /// Runs once, inside the next operation that finds the shard down
        /// — how a test interleaves a state change with an in-flight call.
        while_down: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl Reach {
        fn ensure_up(&self) -> Result<(), ServerError> {
            if self.up.load(Ordering::Relaxed) {
                return Ok(());
            }
            let hook = self.while_down.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            Err(UNREACHABLE)
        }
    }

    type Steps = Arc<parking_lot::Mutex<Vec<String>>>;

    /// Which requests a [`StubShard`] hook follows.
    type Picks = fn(&Request) -> bool;

    type Hook = (Picks, Box<dyn FnOnce() + Send>);

    fn lists(req: &Request) -> bool {
        matches!(req, Request::ListStreams { .. })
    }

    impl StubShard {
        fn new() -> Arc<Self> {
            Self::logging("", Arc::default())
        }

        fn logging(name: &'static str, steps: Steps) -> Arc<Self> {
            Arc::new(StubShard {
                steps,
                name,
                engine: Arc::new(
                    TimeCryptServer::open(Arc::new(MemKv::new()), ServerConfig::default()).unwrap(),
                ),
                reach: Arc::new(Reach {
                    up: AtomicBool::new(true),
                    while_down: parking_lot::Mutex::new(None),
                }),
                after: parking_lot::Mutex::default(),
            })
        }

        fn set_up(&self, up: bool) {
            self.reach.up.store(up, Ordering::Relaxed);
        }

        fn ensure_up(&self) -> Result<(), ServerError> {
            self.reach.ensure_up()
        }

        fn create_stream(&self, stream: u128) {
            self.engine.create_stream(stream, 0, 10_000, 2).unwrap();
        }

        /// Queues `hook` to run after the next request `picks` chooses,
        /// once the hooks queued before it ran.
        fn after(&self, picks: Picks, hook: impl FnOnce() + Send + 'static) {
            self.after.lock().push_back((picks, Box::new(hook)));
        }
    }

    impl ShardBackend for StubShard {
        fn begin_call(&self, req: Request, _deadline: Option<Instant>) -> Pending<Response> {
            let picked = self
                .after
                .lock()
                .front()
                .is_some_and(|(picks, _)| picks(&req));
            let reply = self.ensure_up().map(|()| self.engine.handle(req));
            if let Some((_, hook)) = picked.then(|| self.after.lock().pop_front()).flatten() {
                hook();
            }
            Box::new(move || reply)
        }

        /// The leg is begun without asking whether the shard is up —
        /// frames written to a node that has just hung — so an outage
        /// shows when its answers are read.
        fn begin_leg(
            &self,
            legs: &Leg,
            ts_s: i64,
            ts_e: i64,
            _deadline: Instant,
        ) -> Pending<StatLeg> {
            let (engine, reach, legs) = (self.engine.clone(), self.reach.clone(), legs.to_vec());
            Box::new(move || {
                reach.ensure_up()?;
                let stat = |&(_, sid)| engine.stream_stat(sid, ts_s, ts_e);
                Ok(StatLeg::fold(legs.iter().map(stat)))
            })
        }

        /// In process: the run is applied when it is begun, if the shard
        /// is up then; its verdicts are read if it is up when finished.
        fn begin_batch(&self, chunks: &[&[u8]]) -> Pending<Verdicts> {
            self.steps.lock().push(format!("begin({})", self.name));
            let verdicts = self
                .ensure_up()
                .map(|()| self.engine.insert_bytes_run(chunks));
            let (steps, reach, name) = (self.steps.clone(), self.reach.clone(), self.name);
            Box::new(move || {
                steps.lock().push(format!("finish({name})"));
                reach.ensure_up()?;
                verdicts
            })
        }
    }

    fn sealed(id: u128, index: u64, value: i64) -> Vec<u8> {
        let cfg = StreamConfig {
            schema: DigestSchema::sum_count(),
            ..StreamConfig::new(id, "m", 0, 10_000)
        };
        let keys = StreamKeyMaterial::with_params(id, [id as u8; 16], 20, PrgKind::Aes).unwrap();
        let mut rng = SecureRandom::from_seed_insecure(31 + index);
        PlainChunk {
            stream: id,
            index,
            points: vec![DataPoint::new(index as i64 * 10_000, value)],
        }
        .seal(&cfg, &keys, &mut rng)
        .unwrap()
        .to_bytes()
    }

    /// A run of one chunk.
    fn insert(r: &ShardReplicas, chunk: &[u8]) -> Result<(), ServerError> {
        r.ingest_batch(&[chunk]).pop().unwrap()
    }

    /// A leg, begun and settled under a budget that never runs out, as the
    /// reply of a query of its streams alone.
    fn stat_leg(
        r: &ShardReplicas,
        legs: &Leg,
        ts_s: i64,
        ts_e: i64,
    ) -> Result<StatReply, ServerError> {
        let deadline = Instant::now() + std::time::Duration::from_secs(3600);
        let streams: Vec<u128> = legs.iter().map(|&(_, sid)| sid).collect();
        r.begin_leg(legs, ts_s, ts_e, deadline)().into_reply(&streams)
    }

    fn replicas(
        primary: Arc<StubShard>,
        backup: Option<Arc<StubShard>>,
        promote_after: u32,
    ) -> ShardReplicas {
        ShardReplicas::new(
            0,
            Arc::new(ServiceMetrics::new(1)),
            primary,
            backup.map(|b| b as Arc<dyn ShardBackend>),
            promote_after,
        )
    }

    /// Every operation `ShardReplicas` offers, by the policy it runs under.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        ReadCall,
        /// The leg is begun on the primary; its outage shows as the
        /// answers are read.
        StatLeg,
        MutCall,
        IngestBatch,
        CreateStream,
    }

    const KINDS: [Kind; 5] = [
        Kind::ReadCall,
        Kind::StatLeg,
        Kind::MutCall,
        Kind::IngestBatch,
        Kind::CreateStream,
    ];

    impl Kind {
        fn is_write(self) -> bool {
            matches!(self, Kind::MutCall | Kind::IngestBatch | Kind::CreateStream)
        }

        /// Runs the operation against a [`seeded`] shard; `Err` carries
        /// the rendered error.
        fn run(self, r: &ShardReplicas) -> Result<(), String> {
            let reply = |resp| match resp {
                Response::Ok | Response::Info(_) => Ok(()),
                Response::Error(e) => Err(e),
                other => panic!("unexpected {other:?}"),
            };
            match self {
                Kind::ReadCall => reply(r.call(Request::StreamInfo { stream: 1 })),
                Kind::StatLeg => match stat_leg(r, &[(0, 1)], 0, 10_000) {
                    Ok(_) => Ok(()),
                    Err(e) => Err(e.to_string()),
                },
                Kind::MutCall => reply(r.call(Request::DeleteStream { stream: 2 })),
                Kind::IngestBatch => insert(r, &sealed(1, 1, 6)).map_err(|e| e.to_string()),
                Kind::CreateStream => reply(r.call(Request::CreateStream {
                    stream: 3,
                    t0: 0,
                    delta_ms: 10_000,
                    digest_width: 2,
                })),
            }
        }
    }

    /// A backend on which every [`Kind`] succeeds: stream 1 holding chunk
    /// 0, and stream 2.
    fn seeded() -> Arc<StubShard> {
        let shard = StubShard::new();
        shard.create_stream(1);
        shard.create_stream(2);
        shard.engine.insert_bytes(&sealed(1, 0, 5)).unwrap();
        shard
    }

    /// A reachable backend that rejects every write [`Kind`] a [`seeded`]
    /// primary accepts: stream 1 lacks chunk 0, stream 2 is missing,
    /// stream 3 already exists.
    fn diverged() -> Arc<StubShard> {
        let shard = StubShard::new();
        shard.create_stream(1);
        shard.create_stream(3);
        shard
    }

    #[derive(Clone, Copy, Debug)]
    enum Script {
        /// No backup, promotion armed: one failure is one strike, no more.
        PrimaryDownBelowThreshold,
        /// The failure crosses the threshold while the backup turns in
        /// sync under the in-flight call: promoted, retried once.
        PrimaryDownPromotes,
        /// Promotion disabled, in-sync backup attached.
        PrimaryDownBackupInSync,
        BackupUnreachableOnMirror,
        BackupRejectsMirror,
        /// First with the primary up (the mirror is armed and rejects),
        /// then with it down (even `promote_after = 1` must not promote).
        BackupStillRebuilding,
    }

    const SCRIPTS: [Script; 6] = [
        Script::PrimaryDownBelowThreshold,
        Script::PrimaryDownPromotes,
        Script::PrimaryDownBackupInSync,
        Script::BackupUnreachableOnMirror,
        Script::BackupRejectsMirror,
        Script::BackupStillRebuilding,
    ];

    #[derive(Debug, PartialEq)]
    struct Outcome {
        served: Result<(), String>,
        failovers: u64,
        promotions: u64,
        replica_errors: u64,
        in_sync: bool,
    }

    impl Script {
        fn play(self, kind: Kind) -> Outcome {
            let primary = seeded();
            let r = match self {
                Script::PrimaryDownBelowThreshold => {
                    primary.set_up(false);
                    Arc::new(replicas(primary, None, 2))
                }
                Script::PrimaryDownPromotes => {
                    let r = Arc::new(replicas(primary.clone(), None, 1));
                    r.attach_backup(seeded()).unwrap();
                    primary.set_up(false);
                    let armed = r.clone();
                    *primary.reach.while_down.lock() = Some(Box::new(move || {
                        assert!(armed.arm());
                    }));
                    r
                }
                Script::PrimaryDownBackupInSync => {
                    primary.set_up(false);
                    Arc::new(replicas(primary, Some(seeded()), 0))
                }
                Script::BackupUnreachableOnMirror => {
                    let backup = seeded();
                    backup.set_up(false);
                    Arc::new(replicas(primary, Some(backup), 1))
                }
                Script::BackupRejectsMirror => Arc::new(replicas(primary, Some(diverged()), 1)),
                Script::BackupStillRebuilding => {
                    let r = Arc::new(replicas(primary.clone(), None, 1));
                    r.attach_backup(diverged()).unwrap();
                    assert_eq!(kind.run(&r), Ok(()), "{kind:?}: primary up");
                    primary.set_up(false);
                    r
                }
            };
            let served = kind.run(&r);
            let m = r.m();
            Outcome {
                served,
                failovers: m.failovers.get(),
                promotions: m.promotions.get(),
                replica_errors: m.replica_errors.get(),
                in_sync: m.in_sync.get() == 1,
            }
        }

        /// What every kind of one policy must report.
        fn expected(self, write: bool) -> Outcome {
            let quiet = |served, in_sync| Outcome {
                served,
                failovers: 0,
                promotions: 0,
                replica_errors: 0,
                in_sync,
            };
            // An unanswered read reports the transport failure; a write
            // whose primary was unreachable is ambiguous, never retried.
            let unserved = Err(if write { AMBIGUOUS } else { UNREACHABLE }.to_string());
            match (self, write) {
                (Script::PrimaryDownBelowThreshold, _) => quiet(unserved, false),
                (Script::PrimaryDownPromotes, _) => Outcome {
                    promotions: 1,
                    ..quiet(Ok(()), false)
                },
                (Script::PrimaryDownBackupInSync, false) => Outcome {
                    failovers: 1,
                    ..quiet(Ok(()), true)
                },
                (Script::PrimaryDownBackupInSync, true) => quiet(unserved, true),
                (Script::BackupUnreachableOnMirror | Script::BackupRejectsMirror, false) => {
                    quiet(Ok(()), true)
                }
                (Script::BackupUnreachableOnMirror | Script::BackupRejectsMirror, true) => {
                    Outcome {
                        replica_errors: 1,
                        ..quiet(Ok(()), false)
                    }
                }
                (Script::BackupStillRebuilding, _) => quiet(unserved, false),
            }
        }
    }

    #[test]
    fn every_operation_kind_follows_its_policy_through_every_script() {
        for script in SCRIPTS {
            for kind in KINDS {
                assert_eq!(
                    script.play(kind),
                    script.expected(kind.is_write()),
                    "{script:?} × {kind:?}"
                );
            }
        }
    }

    #[test]
    fn backup_batch_failure_counts_only_primary_accepted_chunks() {
        // Regression: a whole-batch mirror failure used to tick
        // `replica_errors` once per *submitted* chunk — including chunks
        // the primary itself rejected, which never diverged the replicas.
        let primary = StubShard::new();
        let backup = StubShard::new();
        for b in [&primary, &backup] {
            b.create_stream(1);
        }
        let r = replicas(primary, Some(backup.clone()), 0);
        backup.set_up(false);
        let batch = [sealed(1, 0, 5), sealed(1, 9, 6), sealed(1, 1, 7)];
        let verdicts = r.ingest_batch(&batch.each_ref().map(Vec::as_slice));
        assert!(verdicts[0].is_ok() && verdicts[2].is_ok());
        assert!(verdicts[1].is_err(), "out-of-order chunk rejected");
        assert_eq!(
            r.m().replica_errors.get(),
            2,
            "only the two primary-accepted chunks diverged the replicas"
        );
    }

    /// Two replicated shards whose four backends log their batch steps to
    /// one list, each holding an empty stream 1.
    fn logged_pair() -> ([ShardReplicas; 2], [Arc<StubShard>; 4], Steps) {
        let steps = Steps::default();
        let stubs = ["P0", "M0", "P1", "M1"].map(|name| {
            let stub = StubShard::logging(name, Arc::clone(&steps));
            stub.create_stream(1);
            stub
        });
        let [p0, m0, p1, m1] = stubs.clone();
        let sets = [replicas(p0, Some(m0), 0), replicas(p1, Some(m1), 0)];
        (sets, stubs, steps)
    }

    #[test]
    fn runs_of_one_batch_overlap_across_shards_and_mirror_after_their_primary() {
        let (sets, _stubs, steps) = logged_pair();
        let chunk = sealed(1, 0, 5);
        let run = [&chunk[..]];
        let verdicts = ingest_runs(sets.iter().map(|r| (r, &run[..])));
        assert!(verdicts.iter().flatten().all(Result::is_ok), "{verdicts:?}");
        assert_eq!(
            steps.lock().join(" "),
            "begin(P0) begin(P1) finish(P0) begin(M0) finish(P1) begin(M1) finish(M0) finish(M1)"
        );
        for r in &sets {
            assert_eq!((r.m().replica_errors.get(), r.m().in_sync.get()), (0, 1));
            assert_eq!(r.m().queue_depth.get(), 0, "nothing left in flight");
        }
    }

    #[test]
    fn a_primary_that_fails_in_finish_never_reaches_its_mirror() {
        // The frame went out, the reply never came: the run's fate on the
        // primary is unknown, so the backup must not see it.
        let (sets, [p0, m0, ..], steps) = logged_pair();
        let chunk = sealed(1, 0, 5);
        let run = [&chunk[..]];
        let mut write = sets[0].begin_ingest(&run);
        p0.set_up(false);
        write.finish_primary();
        let verdicts = write.settle();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(
            verdicts[0].as_ref().unwrap_err().to_string(),
            AMBIGUOUS.to_string()
        );
        assert_eq!(steps.lock().join(" "), "begin(P0) finish(P0)");
        assert_eq!(m0.engine.stream_info(1).unwrap().len, 0);
        assert_eq!(sets[0].m().queue_depth.get(), 0);
    }

    #[test]
    fn two_writers_racing_one_stream_index_are_counted_drift_not_silent_divergence() {
        // "A stream has one writer at a time" broken: A and B both write
        // chunk 0. The primary takes A's, the backup — which sees B's
        // mirror first — takes B's. Each writer reads a mirror verdict
        // unlike its primary's.
        let (sets, [p0, m0, ..], _steps) = logged_pair();
        let (a, b) = (sealed(1, 0, 5), sealed(1, 0, 6));
        let (run_a, run_b) = ([&a[..]], [&b[..]]);
        let mut write_a = sets[0].begin_ingest(&run_a);
        let mut write_b = sets[0].begin_ingest(&run_b);
        write_b.finish_primary();
        write_a.finish_primary();
        assert!(write_a.settle()[0].is_ok(), "the primary took A's chunk");
        assert!(write_b.settle()[0].is_err(), "and refused B's");
        assert_ne!(
            p0.engine.get_range(1, 0, 10_000).unwrap(),
            m0.engine.get_range(1, 0, 10_000).unwrap(),
            "the replicas did diverge"
        );
        let m = sets[0].m();
        assert_eq!(m.replica_errors.get(), 2, "once per writer");
        assert_eq!(m.in_sync.get(), 0, "backup demoted until a rebuild");
    }

    #[test]
    fn only_consecutive_strikes_promote() {
        let primary = seeded();
        let r = replicas(primary.clone(), Some(seeded()), 2);
        let leg = [(0usize, 1u128)];
        // One strike, then a recovery: the strike count must restart, so
        // a single later failure cannot promote.
        primary.set_up(false);
        stat_leg(&r, &leg, 0, 10_000).unwrap();
        primary.set_up(true);
        stat_leg(&r, &leg, 0, 10_000).unwrap();
        primary.set_up(false);
        stat_leg(&r, &leg, 0, 10_000).unwrap();
        assert_eq!(
            r.m().promotions.get(),
            0,
            "non-consecutive failures must not promote"
        );
        // The second consecutive strike — a write this time — promotes,
        // and the write is retried against the promoted backup.
        insert(&r, &sealed(1, 1, 6)).unwrap();
        assert_eq!(r.m().promotions.get(), 1);
        // The promoted primary answers reads directly; strikes were reset.
        let failovers = r.m().failovers.get();
        assert!(stat_leg(&r, &leg, 0, 20_000).is_ok());
        assert_eq!(r.m().failovers.get(), failovers);
        assert_eq!(r.m().promotions.get(), 1);
    }

    #[test]
    fn rebuild_copies_verifies_and_arms_the_replica() {
        let primary = StubShard::new();
        for id in [1u128, 2] {
            primary.create_stream(id);
            for i in 0..5 {
                primary
                    .engine
                    .insert_bytes(&sealed(id, i, i as i64))
                    .unwrap();
            }
        }
        let r = replicas(primary.clone(), None, 1);
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        r.rebuild_backup().unwrap();
        let m = r.m();
        assert_eq!(m.rebuilds.get(), 1);
        assert_eq!(m.rebuild_chunks_copied.get(), 10);
        assert_eq!(m.in_sync.get(), 1);
        assert_eq!(replacement.engine.stream_count(), 2);
        // The rebuilt replica now serves failover reads byte-identically
        // and is promotion-eligible.
        let healthy = stat_leg(&r, &[(0, 1)], 0, 50_000);
        primary.set_up(false);
        let failed_over = stat_leg(&r, &[(0, 1)], 0, 50_000);
        assert_eq!(format!("{healthy:?}"), format!("{failed_over:?}"));
        assert_eq!(m.failovers.get(), 1);
        assert_eq!(m.promotions.get(), 1, "promote_after=1");
    }

    #[test]
    fn attach_rejects_a_second_backup() {
        let r = replicas(StubShard::new(), Some(StubShard::new()), 0);
        assert!(r.attach_backup(StubShard::new()).is_err());
    }

    #[test]
    fn drifted_backup_is_demoted_until_rebuilt() {
        // A backup that misses an acknowledged write is missing data a
        // client was told is durable: it must stop serving failover
        // reads and must never be promoted — until a rebuild re-verifies
        // it against the primary.
        let primary = StubShard::new();
        let backup = StubShard::new();
        for b in [&primary, &backup] {
            b.create_stream(1);
        }
        let r = replicas(primary.clone(), Some(backup.clone()), 1);
        insert(&r, &sealed(1, 0, 5)).unwrap();
        assert_eq!(r.m().in_sync.get(), 1);
        // The backup blips for one acknowledged write: drift is counted
        // AND the replica is demoted.
        backup.set_up(false);
        insert(&r, &sealed(1, 1, 6)).unwrap();
        assert_eq!(r.m().replica_errors.get(), 1);
        assert_eq!(r.m().in_sync.get(), 0, "demoted");
        // Back up but still behind: mirrored writes keep counting drift
        // (chunk 2 is rejected — the replica never got chunk 1).
        backup.set_up(true);
        insert(&r, &sealed(1, 2, 7)).unwrap();
        assert_eq!(r.m().replica_errors.get(), 2);
        // Even promote_after=1 must not promote the drifted replica, and
        // reads must not fail over to its incomplete data.
        primary.set_up(false);
        assert!(stat_leg(&r, &[(0, 1)], 0, 30_000).is_err());
        assert_eq!(r.m().promotions.get(), 0);
        assert_eq!(r.m().failovers.get(), 0);
        primary.set_up(true);
        // A rebuild writes the records the replica differs in — the two
        // chunks it lacks — and re-arms the loop.
        r.rebuild_backup().unwrap();
        let m = r.m();
        assert_eq!(m.rebuilds.get(), 1);
        assert_eq!(m.rebuild_chunks_copied.get(), 2);
        assert_eq!(m.in_sync.get(), 1);
        primary.set_up(false);
        assert!(stat_leg(&r, &[(0, 1)], 0, 30_000).is_ok());
        assert_eq!(m.failovers.get(), 1);
        assert_eq!(m.promotions.get(), 1);
    }

    #[test]
    fn a_rebuild_returns_its_outcome() {
        let primary = seeded();
        let r = Arc::new(replicas(primary.clone(), None, 0));
        let refused = |r: &ShardReplicas| r.rebuild_backup().unwrap_err().to_string();
        assert!(refused(&r).contains("no backup"), "{}", refused(&r));
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        replacement.set_up(false);
        assert!(refused(&r).contains("gave up"), "{}", refused(&r));
        assert_eq!((r.m().rebuilds.get(), r.m().in_sync.get()), (0, 0));
        replacement.set_up(true);
        // A second caller is refused while the first one's copy runs.
        let (racing, second) = (r.clone(), Arc::new(parking_lot::Mutex::new(String::new())));
        let seen = second.clone();
        primary.after(lists, move || *seen.lock() = refused(&racing));
        r.rebuild_backup().unwrap();
        assert!(
            second.lock().contains("already running"),
            "{}",
            second.lock()
        );
        // In sync already: the call succeeds and copies nothing.
        r.rebuild_backup().unwrap();
        assert_eq!((r.m().rebuilds.get(), r.m().in_sync.get()), (1, 1));
    }

    #[test]
    fn a_stream_created_while_the_survivor_lists_its_streams_is_not_missed() {
        // The survivor has answered `ListStreams` when a `CreateStream` is
        // acknowledged whose mirror is dropped: the listing lacks the
        // stream, and the replica already holds the one it lists, so only
        // the missed mirror, noted against stream 9, keeps the pass from
        // arming the replica without it.
        let (primary, replacement) = (StubShard::new(), StubShard::new());
        primary.create_stream(1);
        replacement.create_stream(1);
        let r = Arc::new(replicas(primary.clone(), None, 0));
        r.attach_backup(replacement.clone()).unwrap();
        let (racing, down) = (r.clone(), replacement.clone());
        primary.after(lists, move || {
            down.set_up(false);
            let create = Request::CreateStream {
                stream: 9,
                t0: 0,
                delta_ms: 10_000,
                digest_width: 2,
            };
            assert_eq!(racing.call(create), Response::Ok);
            down.set_up(true);
        });
        r.rebuild_backup().unwrap();
        let m = r.m();
        assert!(
            replacement.engine.stream_info(9).is_ok(),
            "in_sync={} but the replica lacks stream 9",
            m.in_sync.get()
        );
        assert_eq!((m.rebuilds.get(), m.in_sync.get()), (1, 1));
    }

    /// Every record `stream` owns on `shard`, in key order.
    fn keyspace(shard: &StubShard, stream: u128) -> Vec<(Vec<u8>, Vec<u8>)> {
        let heads = keys::of_stream(stream);
        let kv = shard.engine.kv();
        let mut all: Vec<_> = heads
            .iter()
            .flat_map(|h| kv.scan_prefix(h).unwrap())
            .collect();
        all.sort();
        all
    }

    #[test]
    fn a_rebuild_arms_though_a_write_lands_between_every_pair_of_listings() {
        // Between the replica's listing and the survivor's, on every pass,
        // a chunk is acknowledged on one of four streams: no two listings
        // of the shard are taken without a write between them, and the
        // first pass arms the replica all the same.
        let primary = StubShard::new();
        for id in 1..=4u128 {
            primary.create_stream(id);
            primary.engine.insert_bytes(&sealed(id, 0, 5)).unwrap();
        }
        let r = Arc::new(replicas(primary.clone(), None, 0));
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        for pass in 0..REBUILD_MAX_PASSES as u64 {
            let writer = r.clone();
            let id = u128::from(pass % 4) + 1;
            primary.after(lists, move || {
                insert(&writer, &sealed(id, pass / 4 + 1, 6)).unwrap()
            });
        }
        r.rebuild_backup().unwrap();
        assert_eq!((r.m().rebuilds.get(), r.m().in_sync.get()), (1, 1));
        let unused = primary.after.lock().len();
        assert_eq!(unused, REBUILD_MAX_PASSES - 1, "one pass");
        for id in 1..=4 {
            assert_eq!(
                keyspace(&replacement, id),
                keyspace(&primary, id),
                "stream {id}"
            );
        }
    }

    #[test]
    fn a_sweep_waits_for_the_write_in_flight_on_its_stream() {
        // A run is on the primary, its mirror not begun, when the rebuild
        // starts: the sweep of its stream waits for the run to end.
        let primary = StubShard::new();
        primary.create_stream(1);
        let r = Arc::new(replicas(primary.clone(), None, 0));
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        let chunk = sealed(1, 0, 5);
        let run = [&chunk[..]];
        let write = r.begin_ingest(&run);
        let rebuilding = r.clone();
        let rebuild = std::thread::spawn(move || rebuilding.rebuild_backup());
        let begun = Instant::now();
        while begun.elapsed() < std::time::Duration::from_millis(50) {
            assert!(
                !rebuild.is_finished(),
                "the sweep ran under a write in flight"
            );
            std::thread::yield_now();
        }
        assert!(write.settle()[0].is_ok());
        rebuild.join().unwrap().unwrap();
        assert_eq!((r.m().in_sync.get(), r.m().replica_errors.get()), (1, 0));
        assert_eq!(keyspace(&replacement, 1), keyspace(&primary, 1));
    }

    #[test]
    fn a_write_to_the_stream_being_swept_waits_for_the_sweep() {
        // The survivor has exported stream 1's page and the replica has
        // not imported it yet when a writer appends to stream 1: it waits,
        // is mirrored once the sweep ends, and the replica misses nothing.
        let primary = StubShard::new();
        primary.create_stream(1);
        primary.engine.insert_bytes(&sealed(1, 0, 5)).unwrap();
        let r = Arc::new(replicas(primary.clone(), None, 0));
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        let writer = Arc::new(parking_lot::Mutex::new(None));
        let (racing, spawned) = (r.clone(), writer.clone());
        let exports = |req: &Request| matches!(req, Request::ExportStream { .. });
        primary.after(exports, move || {
            let write = std::thread::spawn(move || insert(&racing, &sealed(1, 1, 6)));
            let begun = Instant::now();
            while begun.elapsed() < std::time::Duration::from_millis(50) {
                assert!(!write.is_finished(), "the write ran during the sweep");
                std::thread::yield_now();
            }
            *spawned.lock() = Some(write);
        });
        r.rebuild_backup().unwrap();
        let write = writer.lock().take().unwrap();
        write.join().unwrap().unwrap();
        let m = r.m();
        assert_eq!(
            (m.rebuilds.get(), m.in_sync.get(), m.replica_errors.get()),
            (1, 1, 0)
        );
        assert_eq!(replacement.engine.stream_info(1).unwrap().len, 2);
        assert_eq!(keyspace(&replacement, 1), keyspace(&primary, 1));
    }

    #[test]
    fn a_write_to_another_stripe_goes_on_while_a_stream_is_swept() {
        // The survivor has exported stream 1's page when a writer appends
        // to stream 2, which is in another stripe: it completes during
        // the sweep, and the rebuild still arms in one pass.
        assert_ne!(stripe(1), stripe(2));
        let primary = StubShard::new();
        for id in [1, 2] {
            primary.create_stream(id);
            primary.engine.insert_bytes(&sealed(id, 0, 5)).unwrap();
        }
        let r = Arc::new(replicas(primary.clone(), None, 0));
        let replacement = StubShard::new();
        r.attach_backup(replacement.clone()).unwrap();
        let racing = r.clone();
        let exports = |req: &Request| matches!(req, Request::ExportStream { .. });
        primary.after(exports, move || {
            let (sent, written) = std::sync::mpsc::channel();
            let write = std::thread::spawn(move || sent.send(insert(&racing, &sealed(2, 1, 6))));
            let written = written.recv_timeout(std::time::Duration::from_secs(10));
            assert!(
                matches!(written, Ok(Ok(()))),
                "the write waited for the sweep"
            );
            write.join().unwrap().unwrap();
        });
        r.rebuild_backup().unwrap();
        let m = r.m();
        assert_eq!((m.rebuilds.get(), m.in_sync.get()), (1, 1));
        for id in [1, 2] {
            assert_eq!(keyspace(&replacement, id), keyspace(&primary, id));
        }
    }

    #[test]
    fn the_streams_of_one_shard_spread_over_every_stripe() {
        for shards in [2, 4, 8] {
            let router = crate::ShardRouter::new(shards);
            let mut held = [0usize; STRIPES];
            let ids = (0u128..).filter(|&id| router.shard_of(id) == 0);
            ids.take(32 * STRIPES).for_each(|id| held[stripe(id)] += 1);
            let (least, most) = (*held.iter().min().unwrap(), *held.iter().max().unwrap());
            assert!(
                least > 0 && most <= 3 * 32,
                "{shards} shards: a stripe holds {least} to {most} of 32 × {STRIPES} ids"
            );
        }
    }

    /// `reads`, answered by the primary and then — the primary down — by
    /// the rebuilt replica it fails over to, which is promoted.
    fn failover_replies(r: &ShardReplicas, primary: &StubShard, reads: &[Request]) {
        let want: Vec<Response> = reads.iter().map(|q| r.call(q.clone())).collect();
        primary.set_up(false);
        for (q, want) in reads.iter().zip(want) {
            assert_eq!(r.call(q.clone()), want, "{q:?}");
        }
        assert_eq!(r.m().promotions.get(), 1);
    }

    #[test]
    fn a_backup_that_missed_a_stream_deletion_is_rebuilt_without_it() {
        let (primary, backup) = (seeded(), seeded());
        let r = replicas(primary.clone(), Some(backup.clone()), 1);
        backup.set_up(false);
        assert_eq!(r.call(Request::DeleteStream { stream: 2 }), Response::Ok);
        backup.set_up(true);
        r.rebuild_backup().unwrap();
        let info = Request::StreamInfo { stream: 2 };
        let gone = Response::Error(ServerError::NoSuchStream(2).to_string());
        assert_eq!(r.call(info.clone()), gone);
        failover_replies(&r, &primary, &[info]);
    }

    #[test]
    fn a_rebuilt_replica_holds_grants_envelopes_and_the_attestation() {
        let primary = seeded();
        let r = replicas(primary.clone(), None, 1);
        let mut rng = SecureRandom::from_seed_insecure(3);
        let mut ledger = timecrypt_integrity::StreamLedger::new(1);
        let chunk = sealed(1, 0, 5);
        let digest = EncryptedChunk::from_bytes(&chunk).unwrap().digest_ct;
        let commitment = timecrypt_integrity::chunk_commitment(&chunk);
        ledger.append(commitment, digest).unwrap();
        let key = timecrypt_pk::SigningKey::generate(&mut rng);
        let attestation = ledger.attest(&key, &mut rng).encode();
        let principal = || "bob".to_string();
        for write in [
            Request::PutGrant {
                stream: 1,
                principal: principal(),
                blob: vec![7; 3],
            },
            Request::PutEnvelopes {
                stream: 1,
                resolution: 4,
                envelopes: vec![(0, vec![9; 4])],
            },
            Request::PutAttestation {
                stream: 1,
                attestation,
            },
        ] {
            assert_eq!(r.call(write), Response::Ok);
        }
        r.attach_backup(StubShard::new()).unwrap();
        r.rebuild_backup().unwrap();
        let reads = [
            Request::GetGrants {
                stream: 1,
                principal: principal(),
            },
            Request::GetEnvelopes {
                stream: 1,
                resolution: 4,
                lo: 0,
                hi: 9,
            },
            Request::GetAttestation { stream: 1 },
            Request::GetRangeProof {
                stream: 1,
                ts_s: 0,
                ts_e: 10_000,
            },
        ];
        assert_eq!(r.call(reads[0].clone()), Response::Blobs(vec![vec![7; 3]]));
        assert!(matches!(
            r.call(reads[3].clone()),
            Response::Attested { .. }
        ));
        failover_replies(&r, &primary, &reads);
    }

    #[test]
    fn a_rebuild_copies_a_stream_across_a_deleted_range() {
        let primary = StubShard::new();
        primary.create_stream(1);
        for i in 0..4 {
            primary.engine.insert_bytes(&sealed(1, i, 5)).unwrap();
        }
        let r = replicas(primary.clone(), None, 1);
        let stub = Request::DeleteRange {
            stream: 1,
            ts_s: 10_000,
            ts_e: 20_000,
        };
        assert_eq!(r.call(stub), Response::Ok);
        r.attach_backup(StubShard::new()).unwrap();
        r.rebuild_backup().unwrap();
        assert_eq!(
            r.m().rebuild_chunks_copied.get(),
            4,
            "the stub is a chunk's record"
        );
        let read = Request::GetRange {
            stream: 1,
            ts_s: 0,
            ts_e: 40_000,
        };
        failover_replies(&r, &primary, &[read]);
    }
}
