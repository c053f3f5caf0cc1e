//! The history generator: seeded sequences of wire requests, and the
//! shrinker that drops steps from a failing one. A history is a function
//! of its seed alone, so a rerun replays it.
//!
//! What a history draws, one line per choice:
//! - `CreateStream`: new and registered ids, Δ of 0, 1, 1 000, 10 000 or
//!   `u64::MAX`, `t0` of `i64::MIN`, −1, 0, 5 000 or `i64::MAX`, width 0–3;
//! - `Insert` and `InsertBatch` (streams mixed): the next chunk, a gap, a
//!   replay, a wrong width, an unknown stream, malformed bytes;
//! - `InsertLive` for a finalized, the open or a later chunk, or
//!   malformed; `GetLive`;
//! - `PutGrant`, `GetGrants`, `RevokeGrants` of seven principals: `alice`,
//!   `bob`, empty, two that `alice`'s name prefixes, `/` and 7 bytes, 1 KiB;
//!   `PutEnvelopes` (an index may repeat), `GetEnvelopes` up to `u64::MAX`;
//! - `PutAttestation` (the size held or one more, epochs that may regress,
//!   another stream's, malformed), `GetAttestation`, `GetRangeProof`,
//!   `GetVerifiedRange`;
//! - `DeleteRange`, `Rollup` (keep levels 0–3), `DeleteStream`;
//! - `GetStatRange` over 0–4 streams of mixed widths, unknown and empty
//!   ones included; `GetRange`; `StreamInfo`;
//! - `Ping`, undecodable frames, and a restart of every store;
//! - window ends at `i64::MIN`, `i64::MAX`, a drawn stream's chunk
//!   boundary or one ms either side of it, or near 0.
//!
//! Chunks are server-opaque bytes, as `stat_path.rs` seals them, and an
//! attestation's root and signature are fixed, as the server checks
//! neither: no crypto runs per request.
//!
//! Not drawn, as their replies differ by tier by design:
//! - `Stats`: the answering tier's counters and latencies; an engine
//!   refuses it;
//! - `ListStreams`: names a shard, which an engine ignores, a node must
//!   host and a coordinator must have;
//! - `ExportStream`, `ImportStream`: a rebuild's pages of raw records in
//!   the store's key layout, which a coordinator refuses to import; the
//!   merged stores are compared instead;
//! - `GetStatLeg`: a node's share of a fold, which a coordinator refuses;
//!   every sharded `GetStatRange` folds legs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use timecrypt::chunk::serialize::{EncryptedChunk, SealedRecord};
use timecrypt::integrity::RootAttestation;
use timecrypt::pk::Signature;
use timecrypt::service::ShardRouter;
use timecrypt::wire::messages::Request;

use super::model::{Model, Stream};

/// Request kinds no history draws.
pub const EXCLUDED: [&str; 5] = [
    "Stats",
    "ListStreams",
    "ExportStream",
    "ImportStream",
    "GetStatLeg",
];

/// A stream no history creates.
pub const UNKNOWN: u128 = u128::MAX;

/// Principals: two that `alice`'s name prefixes, one that a grant number
/// follows, and `k`, drawn as 1 KiB of it.
pub const PRINCIPALS: [&str; 7] = [
    "alice",
    "bob",
    "",
    "alice/x",
    "alice/",
    "/\0\0\0\0\0\0\x01",
    "k",
];

/// SplitMix64: the source of every draw.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }

    pub fn bytes(&mut self, most: u64) -> Vec<u8> {
        (0..self.below(most + 1))
            .map(|_| self.next() as u8)
            .collect()
    }
}

/// One step of a history.
#[derive(Clone, Debug)]
pub enum Step {
    Call(Request),
    /// A frame no request decodes from.
    Frame(Vec<u8>),
    /// Every store of every deployment reopened.
    Restart,
}

/// A stream and a window, `[ts_s, ts_e)`, over it.
pub type Window = (u128, i64, i64);

/// The generator: a history's model so far, and its draws.
pub struct Draw {
    pub rng: Rng,
    pub model: Model,
    /// Stream ids: [`pool`].
    pub pool: Vec<u128>,
}

impl Draw {
    /// A stream id: most often a registered one.
    pub fn id(&mut self) -> u128 {
        let mut registered: Vec<u128> = self.model.streams.keys().copied().collect();
        registered.sort_unstable();
        match self.rng.below(10) {
            0 => UNKNOWN,
            1..=6 if !registered.is_empty() => self.rng.pick(&registered),
            _ => self.rng.pick(&self.pool),
        }
    }

    /// A timestamp: an end of time, by a chunk boundary of `id`, or near 0.
    pub fn ts(&mut self, id: u128) -> i64 {
        match (self.rng.below(8), self.model.streams.get(&id)) {
            (0, _) => i64::MIN,
            (1, _) => i64::MAX,
            (2..=5, Some(s)) => {
                let edge = s.t0 as i128 + self.rng.below(s.len() + 3) as i128 * s.delta as i128;
                let edge = edge + self.rng.pick(&[-1, 0, 0, 1]);
                edge.clamp(i64::MIN.into(), i64::MAX.into()) as i64
            }
            _ => self.rng.below(120_000) as i64 - 20_000,
        }
    }

    /// A window over `id`'s grid, most often the right way round.
    pub fn window(&mut self, id: u128) -> Window {
        let (a, b) = (self.ts(id), self.ts(id));
        match self.rng.below(4) {
            0 => (id, a, b),
            _ => (id, a.min(b), a.max(b)),
        }
    }

    /// `bytes`, one time in `n` malformed: cut, one byte long, or noise.
    pub fn damaged(&mut self, n: u64, mut bytes: Vec<u8>) -> Vec<u8> {
        match (self.rng.below(n), self.rng.below(3)) {
            (0, 0) => bytes.truncate(self.rng.below(bytes.len() as u64) as usize),
            (0, 1) => bytes.push(0),
            (0, _) => bytes = self.rng.bytes(40),
            _ => {}
        }
        bytes
    }

    /// Chunk bytes of `stream`, as `model` holds it: most often its next
    /// chunk.
    pub fn chunk(&mut self, model: &Model, stream: u128) -> Vec<u8> {
        let s = model.streams.get(&stream);
        let (width, next) = s.map_or((self.rng.below(4) as u32, 0), |s| (s.width, s.len()));
        let index = match self.rng.below(10) {
            0 => next + 1 + self.rng.below(3),
            1 => next.saturating_sub(1),
            _ => next,
        };
        let width = (width + u32::from(self.rng.below(10) == 0)) % 4;
        let digest_ct = (0..width).map(|_| self.rng.next()).collect();
        let payload = self.rng.bytes(5);
        let chunk = EncryptedChunk {
            stream,
            index,
            digest_ct,
            payload,
        };
        self.damaged(12, chunk.to_bytes())
    }

    pub fn request(&mut self) -> Request {
        let stream = self.id();
        let len = self.model.streams.get(&stream).map_or(0, Stream::len);
        let principal = principal(self.rng.pick(&PRINCIPALS));
        let windowed: [fn(Window) -> Request; 6] = [
            |(stream, ts_s, ts_e)| Request::GetRange { stream, ts_s, ts_e },
            |(stream, ts_s, ts_e)| Request::DeleteRange { stream, ts_s, ts_e },
            |(stream, ts_s, ts_e)| Request::GetLive { stream, ts_s, ts_e },
            |(stream, ts_s, ts_e)| Request::GetRangeProof { stream, ts_s, ts_e },
            |(stream, ts_s, ts_e)| Request::GetVerifiedRange { stream, ts_s, ts_e },
            |(stream, ts_s, ts_e)| Request::GetStatRange {
                streams: vec![stream],
                ts_s,
                ts_e,
            },
        ];
        match self.rng.below(100) {
            0..=11 => Request::CreateStream {
                stream: self.rng.pick(&self.pool),
                t0: self.rng.pick(&[0, 0, 5_000, -1, i64::MIN, i64::MAX]),
                delta_ms: self.rng.pick(&[10_000, 10_000, 1_000, 1, 0, u64::MAX]),
                digest_width: self.rng.pick(&[0, 1, 2, 2, 3]),
            },
            12..=25 => Request::Insert {
                chunk: self.chunk(&self.model.clone(), stream),
            },
            26..=33 => {
                let mut pending = self.model.clone();
                let chunks = (0..1 + self.rng.below(6)).map(|_| {
                    let stream = self.id();
                    let chunk = self.chunk(&pending, stream);
                    let _ = pending.insert(&chunk);
                    chunk
                });
                Request::InsertBatch {
                    chunks: chunks.collect(),
                }
            }
            34..=36 => {
                let chunk = (len + self.rng.below(3)).saturating_sub(1);
                let (seq, payload) = (self.rng.below(3) as u32, self.rng.bytes(4));
                let record = SealedRecord {
                    stream,
                    chunk,
                    seq,
                    payload,
                }
                .to_bytes();
                Request::InsertLive {
                    record: self.damaged(6, record),
                }
            }
            37..=38 => Request::PutGrant {
                stream,
                principal,
                blob: self.rng.bytes(6),
            },
            39..=40 => Request::GetGrants { stream, principal },
            41 => Request::RevokeGrants { stream, principal },
            42..=43 => {
                let resolution = self.rng.pick(&[1, 64, u64::MAX]);
                let index = [0, 1, 2, u64::MAX];
                let envelopes =
                    (0..self.rng.below(4)).map(|_| (self.rng.pick(&index), self.rng.bytes(4)));
                Request::PutEnvelopes {
                    stream,
                    resolution,
                    envelopes: envelopes.collect(),
                }
            }
            44..=45 => Request::GetEnvelopes {
                stream,
                resolution: self.rng.pick(&[1, 64, u64::MAX]),
                lo: self.rng.pick(&[0, 1, 2, u64::MAX]),
                hi: self.rng.pick(&[0, 1, 2, u64::MAX]),
            },
            46..=48 => {
                let signed = RootAttestation {
                    stream: if self.rng.below(10) == 0 {
                        self.id()
                    } else {
                        stream
                    },
                    size: len + self.rng.below(2),
                    epoch: self.rng.below(4),
                    root: [7; 32],
                    sig: Signature {
                        r: [1; 32],
                        s: [1; 32],
                    },
                };
                Request::PutAttestation {
                    stream,
                    attestation: self.damaged(10, signed.encode()),
                }
            }
            49 => Request::GetAttestation { stream },
            50..=51 => Request::Rollup {
                stream,
                before_ts: self.ts(stream),
                keep_level: self.rng.below(4) as u8,
            },
            52..=53 => Request::DeleteStream { stream },
            54..=69 => {
                let streams: Vec<u128> = (0..self.rng.below(5)).map(|_| self.id()).collect();
                let (_, ts_s, ts_e) = self.window(streams.first().copied().unwrap_or(stream));
                Request::GetStatRange {
                    streams,
                    ts_s,
                    ts_e,
                }
            }
            70..=93 => {
                let window = self.window(stream);
                windowed[self.rng.below(windowed.len() as u64) as usize](window)
            }
            94..=97 => Request::StreamInfo { stream },
            _ => Request::Ping,
        }
    }

    pub fn step(&mut self) -> Step {
        match self.rng.below(50) {
            0 => Step::Restart,
            1 => {
                let mut body = self.request().encode();
                match self.rng.below(4) {
                    0 => body = vec![self.rng.pick(&[0, 25, 200, 255])],
                    1 => body.clear(),
                    2 => body.push(0),
                    _ => _ = body.pop(),
                }
                Step::Frame(body)
            }
            _ => Step::Call(self.request()),
        }
    }
}

/// The ids every history draws its streams from: two on each shard of
/// four, so both shards of two hold some.
pub fn pool() -> Vec<u128> {
    let router = ShardRouter::new(4);
    let mut taken = [0; 4];
    let pool = (1..).filter(|&id| {
        taken[router.shard_of(id)] += 1;
        taken[router.shard_of(id)] <= 2
    });
    pool.take(8).collect()
}

/// The principal `name` stands for: `k` is 1 KiB of it.
pub fn principal(name: &str) -> String {
    match name {
        "k" => "k".repeat(1024),
        name => name.to_string(),
    }
}

/// History `seed`: 4 to 27 steps.
pub fn history(seed: u64) -> Vec<Step> {
    let mut draw = Draw {
        rng: Rng(seed),
        model: Model::default(),
        pool: pool(),
    };
    let mut steps = Vec::new();
    for _ in 0..4 + draw.rng.below(24) {
        let step = draw.step();
        draw.model.apply(&step);
        steps.push(step);
    }
    steps
}

/// History `seed` and what `check` made of it. A failure, a panic
/// included, is shrunk while it still fails and panics with the seed, why
/// it failed and the steps left, one per line.
pub fn checked<T>(seed: u64, check: impl Fn(&[Step]) -> Result<T, String>) -> (Vec<Step>, T) {
    let caught = |steps: &[Step]| {
        catch_unwind(AssertUnwindSafe(|| check(steps))).unwrap_or_else(|panic| {
            let why = panic.downcast_ref::<String>().cloned();
            let why = why.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            Err(format!("panicked: {}", why.unwrap_or_default()))
        })
    };
    let steps = history(seed);
    match caught(&steps) {
        Ok(out) => (steps, out),
        Err(why) => {
            // Shrunk: one step dropped at a time while it still fails.
            let mut shrunk = steps.clone();
            for i in (0..steps.len()).rev() {
                let fewer = [&shrunk[..i], &shrunk[i + 1..]].concat();
                if caught(&fewer).is_err() {
                    shrunk = fewer;
                }
            }
            let why = caught(&shrunk).err().unwrap_or(why);
            let shown: String = shrunk.iter().map(|s| format!("\n{s:?}")).collect();
            let lens = (steps.len(), shrunk.len());
            panic!("seed {seed} fails ({lens:?} steps): {why}{shown}")
        }
    }
}

/// The name of `req`'s kind.
pub fn kind(req: &Request) -> &'static str {
    let tag = req.encode()[0];
    Request::TAGS.iter().find(|(t, _)| *t == tag).unwrap().1
}
