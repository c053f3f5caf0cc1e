//! The reference model of one engine, in SNIPPETS.md snippet 1's shape:
//! what a generated history ([`super::history`]) leaves registered, and
//! the reply the engine must give to each request it predicts.

use std::collections::{BTreeMap, HashMap};
use std::ops::RangeInclusive;
use timecrypt::chunk::serialize::{EncryptedChunk, SealedRecord};
use timecrypt::server::ServerError;
use timecrypt::wire::messages::{Request, Response, StatReply, StreamInfoWire};

use super::history::Step;

/// A registered stream, as the model holds it: its grid, width and
/// chunks, each its digest and, until `DeleteRange`, its bytes.
#[derive(Clone)]
pub struct Stream {
    pub t0: i64,
    pub delta: u64,
    pub width: u32,
    pub chunks: BTreeMap<u64, (Vec<u64>, Option<Vec<u8>>)>,
    /// A rollup aged its index: the model predicts no stat reply.
    pub decayed: bool,
}

impl Stream {
    pub fn len(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// The chunk `ts` falls in; `None` before `t0`. In `i128`, so the model
    /// shares no arithmetic with the engine's grid.
    pub fn chunk_of(&self, ts: i64) -> Option<i128> {
        (ts >= self.t0).then(|| (ts as i128 - self.t0 as i128) / self.delta as i128)
    }

    /// The held chunks `[ts_s, ts_e)` covers whole, if any.
    pub fn within(&self, ts_s: i64, ts_e: i64) -> Option<(u64, u64)> {
        let after = (ts_s as i128 - self.t0 as i128).max(0) as u128;
        let lo = after.div_ceil(self.delta as u128);
        let hi = self.chunk_of(ts_e).unwrap_or(0).min(self.len() as i128) as u128;
        (lo < hi).then_some((lo as u64, hi as u64))
    }

    /// The chunks `[ts_s, ts_e)` touches; `None` for a window that ends at
    /// or before `t0`.
    pub fn touching(&self, ts_s: i64, ts_e: i64) -> Option<RangeInclusive<i128>> {
        let last = self.chunk_of(ts_e - 1)?;
        Some(self.chunk_of(ts_s.max(self.t0))?..=last)
    }
}

/// What the engine holds, in SNIPPETS.md snippet 1's shape: each stream's
/// chunks by index, and beside them the grants, envelopes and live
/// records. Attestations and proofs it does not hold: their replies are
/// compared across tiers only.
#[derive(Clone, Default)]
pub struct Model {
    pub streams: HashMap<u128, Stream>,
    pub grants: HashMap<(u128, String), Vec<Vec<u8>>>,
    pub envelopes: HashMap<(u128, u64), BTreeMap<u64, Vec<u8>>>,
    pub live: HashMap<u128, Live>,
}

/// A stream's live records by chunk, each with its sequence number.
pub type Live = BTreeMap<u64, Vec<(u32, Vec<u8>)>>;

pub fn error(e: ServerError) -> Response {
    Response::Error(e.to_string())
}

/// The reply to a batch of these verdicts.
pub fn batch(verdicts: impl Iterator<Item = Result<(), ServerError>>) -> Response {
    let failed = verdicts
        .enumerate()
        .filter_map(|(i, v)| Some((i as u32, v.err()?.to_string())));
    Response::Batch {
        errors: failed.collect(),
    }
}

impl Model {
    pub fn stream(&self, id: u128) -> Result<&Stream, ServerError> {
        self.streams.get(&id).ok_or(ServerError::NoSuchStream(id))
    }

    pub fn insert(&mut self, bytes: &[u8]) -> Result<(), ServerError> {
        let chunk = EncryptedChunk::from_bytes(bytes).map_err(|_| ServerError::BadChunk)?;
        let s = self.streams.get_mut(&chunk.stream);
        let s = s.ok_or(ServerError::NoSuchStream(chunk.stream))?;
        let (expected, got) = (s.width, chunk.digest_ct.len() as u32);
        if got != expected {
            return Err(ServerError::WidthMismatch { expected, got });
        }
        let (expected, got) = (s.len(), chunk.index);
        if got != expected {
            return Err(ServerError::OutOfOrderChunk { expected, got });
        }
        s.chunks
            .insert(got, (chunk.digest_ct, Some(bytes.to_vec())));
        if let Some(live) = self.live.get_mut(&chunk.stream) {
            live.remove(&got);
        }
        Ok(())
    }

    /// The reply to a query of `streams`: folded in request order up to
    /// the first unknown, empty or other-width stream. `None` when one
    /// decayed.
    pub fn stat(&self, streams: &[u128], ts_s: i64, ts_e: i64) -> Option<Response> {
        let (mut parts, mut agg, mut width) = (Vec::new(), Vec::new(), None);
        for &id in streams {
            let s = match self.stream(id) {
                Ok(s) if s.decayed => return None,
                Ok(s) => s,
                Err(e) => return Some(error(e)),
            };
            let Some((lo, hi)) = s
                .within(ts_s, ts_e)
                .filter(|_| width.is_none_or(|w| w == s.width))
            else {
                let conflict = width.is_some_and(|w| w != s.width);
                // A width conflict ranks before an empty window; a later
                // unknown stream is never asked for.
                return Some(error(match conflict {
                    true => ServerError::IncompatibleStreams,
                    false => ServerError::EmptyRange,
                }));
            };
            width = Some(s.width);
            parts.push((id, lo, hi));
            agg.resize(s.width as usize, 0);
            for (digest, _) in s.chunks.range(lo..hi).map(|(_, c)| c) {
                agg.iter_mut()
                    .zip(digest)
                    .for_each(|(a, d)| *a = d.wrapping_add(*a));
            }
        }
        Some(match parts.is_empty() {
            true => error(ServerError::EmptyRange),
            false => Response::Stat(StatReply { parts, agg }),
        })
    }

    /// Applies `step`; returns the reply the engine must give, or `None`
    /// where the model predicts none.
    pub fn apply(&mut self, step: &Step) -> Option<Response> {
        let ok_or = |result: Result<(), ServerError>| result.map_or_else(error, |()| Response::Ok);
        let req = match step {
            Step::Call(req) => req.clone(),
            Step::Frame(_) => return None,
            Step::Restart => {
                self.live.clear();
                return None;
            }
        };
        Some(match req {
            Request::CreateStream {
                stream,
                t0,
                delta_ms: delta,
                digest_width: width,
            } => ok_or(match (delta, self.streams.contains_key(&stream)) {
                (0, _) => Err(ServerError::ZeroInterval),
                (_, true) => Err(ServerError::StreamExists(stream)),
                _ => {
                    let (chunks, decayed) = (BTreeMap::new(), false);
                    let s = Stream {
                        t0,
                        delta,
                        width,
                        chunks,
                        decayed,
                    };
                    self.streams.insert(stream, s);
                    Ok(())
                }
            }),
            Request::DeleteStream { stream } => ok_or(match self.streams.remove(&stream) {
                None => Err(ServerError::NoSuchStream(stream)),
                Some(_) => {
                    self.grants.retain(|(id, _), _| *id != stream);
                    self.envelopes.retain(|(id, _), _| *id != stream);
                    self.live.remove(&stream);
                    Ok(())
                }
            }),
            Request::Insert { chunk } => ok_or(self.insert(&chunk)),
            Request::InsertBatch { chunks } => batch(chunks.iter().map(|c| self.insert(c))),
            Request::GetRange { stream, ts_s, ts_e } => match self.stream(stream) {
                Err(e) => error(e),
                Ok(_) if ts_e <= ts_s => error(ServerError::EmptyRange),
                Ok(s) => match s.touching(ts_s, ts_e) {
                    None => error(ServerError::EmptyRange),
                    Some(range) => {
                        let held = s
                            .chunks
                            .iter()
                            .filter(|(&i, _)| range.contains(&(i as i128)));
                        Response::Chunks(held.filter_map(|(_, c)| c.1.clone()).collect())
                    }
                },
            },
            Request::GetStatRange {
                streams,
                ts_s,
                ts_e,
            } => return self.stat(&streams, ts_s, ts_e),
            Request::DeleteRange { stream, ts_s, ts_e } => {
                let s = self.streams.get_mut(&stream);
                let s = s.ok_or(ServerError::NoSuchStream(stream));
                ok_or(s.map(|s| {
                    if let Some((lo, hi)) = s.within(ts_s, ts_e) {
                        s.chunks.range_mut(lo..hi).for_each(|(_, c)| c.1 = None);
                    }
                }))
            }
            Request::Rollup { stream, .. } => {
                let s = self.streams.get_mut(&stream);
                ok_or(
                    s.map(|s| s.decayed = true)
                        .ok_or(ServerError::NoSuchStream(stream)),
                )
            }
            Request::StreamInfo { stream } => match self.stream(stream) {
                Err(e) => error(e),
                Ok(s) => Response::Info(StreamInfoWire {
                    stream,
                    t0: s.t0,
                    delta_ms: s.delta,
                    digest_width: s.width,
                    len: s.len(),
                }),
            },
            Request::PutGrant {
                stream,
                principal,
                blob,
            } => {
                self.grants
                    .entry((stream, principal))
                    .or_default()
                    .push(blob);
                Response::Ok
            }
            Request::GetGrants { stream, principal } => Response::Blobs(
                self.grants
                    .get(&(stream, principal))
                    .cloned()
                    .unwrap_or_default(),
            ),
            Request::RevokeGrants { stream, principal } => {
                self.grants.remove(&(stream, principal));
                Response::Ok
            }
            Request::PutEnvelopes {
                stream,
                resolution,
                envelopes,
            } => {
                self.envelopes
                    .entry((stream, resolution))
                    .or_default()
                    .extend(envelopes);
                Response::Ok
            }
            Request::GetEnvelopes {
                stream,
                resolution,
                lo,
                hi,
            } => {
                let held = self
                    .envelopes
                    .get(&(stream, resolution))
                    .into_iter()
                    .flatten();
                let window = held.filter(|(i, _)| (lo..=hi).contains(*i));
                Response::Envelopes(window.map(|(&i, e)| (i, e.clone())).collect())
            }
            Request::Ping => Response::Pong,
            Request::InsertLive { record } => {
                let Ok(record) = SealedRecord::from_bytes(&record) else {
                    return Some(error(ServerError::BadRecord));
                };
                let (chunk, next) = match self.stream(record.stream) {
                    Ok(s) => (record.chunk, s.len()),
                    Err(e) => return Some(error(e)),
                };
                if chunk < next {
                    return Some(error(ServerError::StaleLiveRecord { chunk, next }));
                }
                let held = self.live.entry(record.stream).or_default();
                held.entry(chunk)
                    .or_default()
                    .push((record.seq, record.to_bytes()));
                Response::Ok
            }
            Request::GetLive { stream, ts_s, ts_e } => match self.stream(stream) {
                Err(e) => error(e),
                Ok(_) if ts_e <= ts_s => error(ServerError::EmptyRange),
                Ok(s) => {
                    let range = s.touching(ts_s, ts_e);
                    let live = self.live.get(&stream).into_iter().flatten();
                    let live = live
                        .filter(|(&i, _)| range.as_ref().is_some_and(|r| r.contains(&(i as i128))));
                    let records = live.flat_map(|(_, held)| {
                        let mut held = held.clone();
                        held.sort_by_key(|(seq, _)| *seq);
                        held.into_iter().map(|(_, bytes)| bytes)
                    });
                    Response::Records(records.collect())
                }
            },
            _ => return None,
        })
    }
}
