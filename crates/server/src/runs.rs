//! The one split of an ingest batch into runs, by a key of each chunk's
//! header: the coordinator's and a node's by shard, the engine's by stream
//! (chunks are stored per stream, paper §4.6). Each chunk is parsed once;
//! one that does not parse is [`ServerError::BadChunk`] at its position,
//! the others join their key's run in submission order. A batch whose
//! chunks all parse and share one key — every per-stream upload, every
//! frame a coordinator sends a node — is its one run as it stands.

use crate::ServerError::{self, BadChunk};
use std::iter::{repeat_n, repeat_with};
use timecrypt_chunk::serialize::ChunkRef;

/// Per-chunk ingest verdicts, in the order of the chunks they judge.
pub type Verdicts = Vec<Result<(), ServerError>>;

/// The verdict of a chunk its run reported none for: an error, so a
/// missed position can not read as accepted.
fn no_verdict() -> Result<(), ServerError> {
    Err(ServerError::Unavailable("chunk received no verdict"))
}

/// A batch split into runs by key, in key order.
pub struct Runs<'a, K> {
    batch: &'a [&'a [u8]],
    /// The key of a batch that is one run: every chunk parses and has it.
    whole: Option<K>,
    /// Otherwise the chunks that parse, as `(key, batch position)` sorted:
    /// each run is a stretch of one key, in submission order.
    keyed: Vec<(K, usize)>,
    /// The chunks of `keyed`, in its order.
    views: Vec<&'a [u8]>,
}

impl<'a, K: Copy + Ord> Runs<'a, K> {
    /// Splits `batch` by the `key` of each chunk's parsed header.
    pub fn split(batch: &'a [&'a [u8]], key: impl Fn(&ChunkRef<'_>) -> K) -> Self {
        let parsed = |c: &&[u8]| ChunkRef::parse(c).ok().map(|c| key(&c));
        let mut keys = batch.iter().map(parsed).peekable();
        let first = keys.peek().copied().flatten();
        // The leading chunks that parse and share the first one's key.
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

    /// The runs, in key order: each key with its chunks in submission order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &[&'a [u8]])> + Clone {
        let mut end = 0;
        let runs = self.keyed.chunk_by(|a, b| a.0 == b.0).map(move |run| {
            end += run.len();
            (run[0].0, &self.views[end - run.len()..end])
        });
        self.whole.map(|k| (k, self.batch)).into_iter().chain(runs)
    }

    /// The batch's verdicts, in batch order, from each run's, given in the
    /// order of [`iter`](Self::iter).
    pub fn verdicts(&self, per_run: impl IntoIterator<Item = Verdicts>) -> Verdicts {
        let mut per_run = per_run.into_iter().chain(repeat_with(Vec::new));
        if self.whole.is_some() {
            let mut verdicts = per_run.next().unwrap_or_default();
            verdicts.resize_with(self.batch.len(), no_verdict);
            return verdicts;
        }
        let mut out: Verdicts = self.batch.iter().map(|_| Err(BadChunk)).collect();
        for (run, verdicts) in self.keyed.chunk_by(|a, b| a.0 == b.0).zip(per_run) {
            let verdicts = verdicts.into_iter().chain(repeat_with(no_verdict));
            for (&(_, pos), verdict) in run.iter().zip(verdicts) {
                out[pos] = verdict;
            }
        }
        out
    }
}

/// Renders per-chunk batch verdicts into the wire's `(position, message)`
/// error list (successes are implicit). Shared by every `InsertBatch`
/// handler so error strings cannot diverge between deployment shapes.
pub fn batch_errors(verdicts: Verdicts) -> Vec<(u32, String)> {
    verdicts
        .into_iter()
        .enumerate()
        .filter_map(|(i, v)| v.err().map(|e| (i as u32, e.to_string())))
        .collect()
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

    #[test]
    fn a_malformed_chunk_first_or_last_is_bad_at_its_position() {
        let first = split(&[None, Some((1, 0)), Some((1, 1))]);
        assert_eq!(first, (false, vec![(1, vec![0, 1])], "bad 1.0 1.1".into()));
        let last = split(&[Some((1, 0)), Some((1, 1)), None]);
        assert_eq!(last, (false, vec![(1, vec![0, 1])], "1.0 1.1 bad".into()));
    }
}
