//! The one split of a fan-out into runs, and the one ingest reply. A
//! batch of items — serialized chunks, or a statistical query's stream ids
//! — is split by a key of each item: the coordinator's and a node's by
//! shard, the engine's by stream (chunks are stored per stream, paper
//! §4.6). Items without a key (a chunk that does not parse) join no run;
//! the others join their key's run in submission order. A batch whose
//! items all share one key — every per-stream upload, every frame a
//! coordinator sends a node, every one-shard query — is its one run as it
//! stands. Each run's results are scattered back in batch order.

use crate::ServerError::{self, BadChunk};
use std::iter::{repeat_n, repeat_with};
use timecrypt_chunk::serialize::ChunkRef;
use timecrypt_wire::messages::{Request, RequestRef, Response};

/// Per-chunk ingest verdicts, in the order of the chunks they judge.
pub type Verdicts = Vec<Result<(), ServerError>>;

/// The verdict of a chunk its run reported none for: an error, so a
/// missed position can not read as accepted.
fn no_verdict() -> Result<(), ServerError> {
    Err(ServerError::Unavailable("chunk received no verdict"))
}

/// A batch split into runs by key, in key order.
pub struct Runs<'a, T, K> {
    batch: &'a [T],
    /// The key of a batch that is one run: every item has it.
    whole: Option<K>,
    /// Otherwise the keyed items, as `(key, batch position)` sorted: each
    /// run is a stretch of one key, in submission order.
    keyed: Vec<(K, usize)>,
    /// The items of `keyed`, in its order.
    views: Vec<T>,
}

impl<'a, T: Copy, K: Copy + Ord> Runs<'a, T, K> {
    /// Splits `batch` by the `key` of each item; an item whose key is
    /// `None` joins no run.
    pub fn split_by(batch: &'a [T], key: impl Fn(&T) -> Option<K>) -> Self {
        let mut keys = batch.iter().map(key).peekable();
        let first = keys.peek().copied().flatten();
        // The leading items that share the first one's key.
        let mut shared = 0;
        while first.is_some() && keys.next_if_eq(&first).is_some() {
            shared += 1;
        }
        let whole = first.filter(|_| shared == batch.len());
        let mut keyed = Vec::new();
        if whole.is_none() {
            let keys = repeat_n(first, shared).chain(keys);
            keyed.reserve_exact(batch.len());
            keyed.extend((0..).zip(keys).filter_map(|(pos, k)| Some((k?, pos))));
            keyed.sort_unstable();
        }
        let views = keyed.iter().map(|&(_, pos)| batch[pos]).collect();
        Runs {
            batch,
            whole,
            keyed,
            views,
        }
    }

    /// The runs, in key order: each key with its items in submission order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &[T])> + Clone {
        let mut end = 0;
        let runs = self.keyed.chunk_by(|a, b| a.0 == b.0).map(move |run| {
            end += run.len();
            (run[0].0, &self.views[end - run.len()..end])
        });
        self.whole.map(|k| (k, self.batch)).into_iter().chain(runs)
    }

    /// The batch's results, in batch order, from each run's, given in the
    /// order of [`iter`](Self::iter): an unkeyed item's is `unkeyed()`, and
    /// one past the end of its run's is `unanswered()`.
    pub fn scatter<R>(
        &self,
        per_run: impl IntoIterator<Item = Vec<R>>,
        mut unkeyed: impl FnMut() -> R,
        mut unanswered: impl FnMut() -> R,
    ) -> Vec<R> {
        let mut per_run = per_run.into_iter().chain(repeat_with(Vec::new));
        if self.whole.is_some() {
            let mut out = per_run.next().unwrap_or_default();
            out.resize_with(self.batch.len(), unanswered);
            return out;
        }
        let mut out: Vec<R> = self.batch.iter().map(|_| unkeyed()).collect();
        for (run, results) in self.keyed.chunk_by(|a, b| a.0 == b.0).zip(per_run) {
            let results = results.into_iter().chain(repeat_with(&mut unanswered));
            for (&(_, pos), result) in run.iter().zip(results) {
                out[pos] = result;
            }
        }
        out
    }
}

impl<'a, K: Copy + Ord> Runs<'a, &'a [u8], K> {
    /// Splits a batch of serialized chunks by the `key` of each chunk's
    /// parsed header; a chunk that does not parse joins no run.
    pub fn split(batch: &'a [&'a [u8]], key: impl Fn(&ChunkRef<'_>) -> K) -> Self {
        Self::split_by(batch, |c| ChunkRef::parse(c).ok().map(|c| key(&c)))
    }

    /// The batch's verdicts, in batch order, from each run's, given in the
    /// order of [`iter`](Self::iter): [`ServerError::BadChunk`] where a
    /// chunk did not parse.
    pub fn verdicts(&self, per_run: impl IntoIterator<Item = Verdicts>) -> Verdicts {
        self.scatter(per_run, || Err(BadChunk), no_verdict)
    }
}

/// The reply to an ingest request, at every tier: `Insert` is a batch of
/// one and `InsertBatch` its `(position, message)` errors (successes are
/// implicit), both from `run` — the tier's ingest of serialized chunks,
/// verdicts in batch order, a chunk past the end of them unacked — and
/// `InsertLive` the outcome of `live` over the record's bytes. Error
/// strings are the `ServerError` renderings, so they cannot diverge between
/// deployment shapes. Any other request is handed back.
pub fn ingest_reply(
    req: RequestRef<'_>,
    run: impl FnOnce(&[&[u8]]) -> Verdicts,
    live: impl FnOnce(&[u8]) -> Result<(), ServerError>,
) -> Result<Response, Request> {
    let acked = |outcome: Result<(), ServerError>| match outcome {
        Ok(()) => Response::Ok,
        Err(e) => Response::Error(e.to_string()),
    };
    let verdicts = |chunks: &[&[u8]]| {
        let mut verdicts = run(chunks);
        verdicts.resize_with(chunks.len(), no_verdict);
        verdicts
    };
    Ok(match req {
        RequestRef::Insert { chunk } => acked(verdicts(&[chunk]).remove(0)),
        RequestRef::InsertBatch { chunks } => {
            let failed = (0..).zip(verdicts(&chunks));
            let errors = failed.filter_map(|(pos, v)| Some((pos, v.err()?.to_string())));
            Response::Batch {
                errors: errors.collect(),
            }
        }
        RequestRef::InsertLive { record } => acked(live(record)),
        RequestRef::Other(req) => return Err(req),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerError::{OutOfOrderChunk, Unavailable};
    use timecrypt_chunk::serialize::EncryptedChunk;

    /// `spec` as a batch — `Some((stream, index))` a chunk, `None` a
    /// malformed one — split by stream. Each run answers its chunks with
    /// their stream and index, except stream 9's, which answers nothing.
    /// Whether the batch was borrowed whole, the runs as `(stream,
    /// indexes)`, and the verdicts as text.
    fn split(spec: &[Option<(u128, u64)>]) -> (bool, Vec<(u128, Vec<u64>)>, String) {
        let chunk = |(stream, index)| {
            let chunk = EncryptedChunk {
                stream,
                index,
                digest_ct: vec![],
                payload: vec![],
            };
            chunk.to_bytes()
        };
        let bytes: Vec<_> = spec.iter().map(|c| c.map_or(vec![0; 3], chunk)).collect();
        let views: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        let runs = Runs::split(&views, |c| c.stream);
        let whole = runs.iter().any(|(_, run)| std::ptr::eq(run, &views[..]));
        let index = |c: &&[u8]| ChunkRef::parse(c).unwrap().index;
        let seen = (runs.iter()).map(|(s, run)| (s, run.iter().map(index).collect()));
        let answer = |s: u128, run: &[&[u8]]| {
            let verdict = |c| {
                let (expected, got) = (s as u64, index(c));
                Err(OutOfOrderChunk { expected, got })
            };
            run.iter().filter(|_| s != 9).map(verdict).collect()
        };
        let verdicts = runs.verdicts(runs.iter().map(|(s, run)| answer(s, run)));
        let shown = verdicts.into_iter().map(|v| match v.unwrap_err() {
            OutOfOrderChunk { expected, got } => format!("{expected}.{got}"),
            BadChunk => "bad".into(),
            Unavailable(_) => "none".into(),
            e => panic!("{e}"),
        });
        (whole, seen.collect(), shown.collect::<Vec<_>>().join(" "))
    }

    #[test]
    fn an_empty_or_all_malformed_batch_has_no_run() {
        assert_eq!(split(&[]), (false, vec![], "".into()));
        assert_eq!(split(&[None, None]), (false, vec![], "bad bad".into()));
    }

    #[test]
    fn a_batch_of_one_key_is_borrowed_whole() {
        let one = split(&[Some((1, 0)), Some((1, 1)), Some((1, 2))]);
        assert_eq!(one, (true, vec![(1, vec![0, 1, 2])], "1.0 1.1 1.2".into()));
        let none = split(&[Some((9, 0)), Some((9, 1))]);
        assert_eq!(none, (true, vec![(9, vec![0, 1])], "none none".into()));
    }

    #[test]
    fn interleaved_keys_run_in_submission_order_and_answer_by_position() {
        // a b a c b, c's run answering nothing.
        let spec = [(1, 0), (2, 0), (1, 1), (9, 0), (2, 1)].map(Some);
        let runs = vec![(1, vec![0, 1]), (2, vec![0, 1]), (9, vec![0])];
        assert_eq!(split(&spec), (false, runs, "1.0 2.0 1.1 none 2.1".into()));
    }

    /// Whether a batch was borrowed whole, its runs, and its results.
    type Scattered = (bool, Vec<(u8, Vec<u128>)>, Vec<u128>);

    /// `streams` split by `shard`, each run answered with its streams' ids
    /// up to its first id of 9 (9 and the rest of its run unanswered):
    /// whether the batch was borrowed whole, the runs, and the scattered
    /// answers, 0 for an unanswered stream (every stream has a key, so
    /// the unkeyed placeholder, `u128::MAX`, shows nowhere).
    fn scatter(streams: &[u128], shard: fn(u128) -> u8) -> Scattered {
        let runs = Runs::split_by(streams, |&s| Some(shard(s)));
        let whole = runs.iter().any(|(_, run)| std::ptr::eq(run, streams));
        let answer = |run: &[u128]| run.iter().copied().take_while(|&s| s != 9).collect();
        let answers = runs.iter().map(|(_, run)| answer(run));
        let scattered = runs.scatter(answers, || u128::MAX, || 0);
        let seen = runs.iter().map(|(k, run)| (k, run.to_vec()));
        (whole, seen.collect(), scattered)
    }

    #[test]
    fn streams_of_one_key_are_borrowed_whole() {
        let one = scatter(&[5, 3, 7], |_| 1);
        assert_eq!(one, (true, vec![(1, vec![5, 3, 7])], vec![5, 3, 7]));
    }

    #[test]
    fn interleaved_streams_scatter_back_in_request_order() {
        let odd = |s: u128| (s % 2) as u8;
        let runs = vec![(0, vec![4, 2, 6]), (1, vec![1, 5, 3])];
        let got = scatter(&[4, 1, 2, 5, 6, 3], odd);
        assert_eq!(got, (false, runs, vec![4, 1, 2, 5, 6, 3]));
    }

    #[test]
    fn a_run_that_answers_short_leaves_its_later_positions_unanswered() {
        let odd = |s: u128| (s % 2) as u8;
        let runs = vec![(0, vec![4, 2]), (1, vec![1, 9, 3])];
        let got = scatter(&[4, 1, 9, 2, 3], odd);
        assert_eq!(got, (false, runs, vec![4, 1, 0, 2, 0]));
        let whole = scatter(&[1, 9, 3], odd);
        assert_eq!(whole, (true, vec![(1, vec![1, 9, 3])], vec![1, 0, 0]));
    }

    #[test]
    fn an_ingest_reply_acks_no_chunk_its_run_gave_no_verdict() {
        let chunks: [&[u8]; 3] = [b"a", b"b", b"c"];
        let reply = |req, answered| {
            let run = |_: &[&[u8]]| (0..answered).map(|_| Ok(())).collect();
            ingest_reply(req, run, |_| Ok(())).unwrap()
        };
        let none = no_verdict().unwrap_err().to_string();
        let insert = || RequestRef::Insert { chunk: chunks[0] };
        assert_eq!(reply(insert(), 0), Response::Error(none.clone()));
        assert_eq!(reply(insert(), 1), Response::Ok);
        let batch = RequestRef::InsertBatch {
            chunks: chunks.to_vec(),
        };
        let errors = vec![(1, none.clone()), (2, none)];
        assert_eq!(reply(batch, 1), Response::Batch { errors });
    }

    #[test]
    fn a_malformed_chunk_first_or_last_is_bad_at_its_position() {
        let first = split(&[None, Some((1, 0)), Some((1, 1))]);
        assert_eq!(first, (false, vec![(1, vec![0, 1])], "bad 1.0 1.1".into()));
        let last = split(&[Some((1, 0)), Some((1, 1)), None]);
        assert_eq!(last, (false, vec![(1, vec![0, 1])], "1.0 1.1 bad".into()));
    }
}
