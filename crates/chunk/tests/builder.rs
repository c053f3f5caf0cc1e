//! Differential property test of the producer's batcher: [`ChunkBuilder`]
//! takes a point that falls in its open chunk without dividing its
//! timestamp, and that fast path must change nothing it emits.

use proptest::prelude::*;
use timecrypt_chunk::serialize::{ChunkBuilder, PlainChunk};
use timecrypt_chunk::{DataPoint, StreamConfig};

/// [`ChunkBuilder`]'s semantics with a division per point: the open chunk
/// and the index a first point emits empty chunks from.
#[derive(Default)]
struct Reference {
    open: Option<(u64, Vec<DataPoint>)>,
    next: u64,
}

impl Reference {
    fn push(&mut self, cfg: &StreamConfig, p: DataPoint) -> Result<Vec<PlainChunk>, ()> {
        let chunk = cfg.chunk_of(p.ts).ok_or(())?;
        let empty = |index| PlainChunk {
            stream: cfg.id,
            index,
            points: Vec::new(),
        };
        let mut out = Vec::new();
        match self.open.take() {
            Some((cur, mut points))
                if chunk == cur && points.last().is_none_or(|l| l.ts <= p.ts) =>
            {
                points.push(p);
                self.open = Some((cur, points));
                return Ok(out);
            }
            Some(open) if chunk <= open.0 => {
                self.open = Some(open);
                return Err(());
            }
            Some((cur, points)) => {
                out.push(PlainChunk {
                    stream: cfg.id,
                    index: cur,
                    points,
                });
                out.extend((cur + 1..chunk).map(empty));
            }
            None => out.extend((self.next..chunk).map(empty)),
        }
        self.open = Some((chunk, vec![p]));
        self.next = chunk + 1;
        Ok(out)
    }

    fn flush(&mut self, cfg: &StreamConfig) -> Vec<PlainChunk> {
        let open = self.open.take().map(|(index, points)| PlainChunk {
            stream: cfg.id,
            index,
            points,
        });
        open.into_iter().collect()
    }
}

proptest! {
    /// Against a reference that divides every timestamp, any walk of
    /// timestamps — repeats, gaps, steps back, points before the epoch —
    /// and flushes yield the same chunks and the same refusals.
    #[test]
    fn chunk_builder_matches_a_division_per_point(
        t0 in -50i64..50,
        delta in 1u64..20,
        steps in proptest::collection::vec((0u8..10, -12i64..60), 0..200),
    ) {
        let cfg = StreamConfig::new(7, "v", t0, delta);
        let (mut builder, mut reference) = (ChunkBuilder::new(cfg.clone()), Reference::default());
        let mut ts = t0 - 5;
        for (i, (kind, step)) in steps.into_iter().enumerate() {
            let (got, want) = if kind == 0 {
                (Ok(builder.flush().into_iter().collect()), Ok(reference.flush(&cfg)))
            } else {
                ts += if kind < 8 { step.rem_euclid(3) } else { step };
                let p = DataPoint::new(ts, i as i64);
                let mut done = Vec::new();
                let got = builder.push(p, &mut done).map(|()| done).map_err(|_| ());
                (got, reference.push(&cfg, p))
            };
            prop_assert_eq!(got, want, "step {}", i);
        }
    }
}
