//! The statistical query's fold (§4.2), written once: an engine folds its
//! streams' outcomes, a shard node one shard's share of a query — a *leg* —
//! and a coordinator the outcomes its legs report, each in request order.
//! The first stream that is unknown, empty, or of another digest width than
//! the first ends the query: with its error, else `IncompatibleStreams`,
//! else `EmptyRange`.

use crate::engine::ServerError;
use timecrypt_core::heac;
pub use timecrypt_wire::messages::StatLeg;
use timecrypt_wire::messages::StatReply;

/// One stream's digest width plus, when the queried range covers at least
/// one full chunk, the covered window and the homomorphic sum over it.
pub type StreamStat = (u32, Option<(u64, u64, Vec<u64>)>);

/// Folds per-stream outcomes, in request order, until one stops it — its
/// error kept as the refusal it is answered with; the outcomes after that
/// one are never asked for. The leg is a `GetStatLeg`'s reply as it is.
pub fn fold(outcomes: impl IntoIterator<Item = Result<StreamStat, ServerError>>) -> StatLeg {
    let mut leg = StatLeg::default();
    for outcome in outcomes {
        let first = leg.parts.first().map(|&(width, ..)| width);
        leg.stop = Some(match outcome {
            Ok((width, Some((lo, hi, part)))) if first.is_none_or(|w| w == width) => {
                leg.parts.push((width, lo, hi));
                if leg.agg.is_empty() {
                    leg.agg = part;
                } else if !part.is_empty() {
                    heac::add_assign(&mut leg.agg, &part);
                }
                continue;
            }
            Ok((width, _)) => Ok(width),
            Err(e) => Err(e.into()),
        });
        break;
    }
    leg
}

/// The outcomes a fold read, for another fold to read: each covered
/// window, the leg's sum riding on the first, then the stop.
pub fn outcomes(leg: StatLeg) -> impl Iterator<Item = Result<StreamStat, ServerError>> {
    let mut agg = Some(leg.agg);
    let covered =
        move |(width, lo, hi)| Ok((width, Some((lo, hi, agg.take().unwrap_or_default()))));
    let stop = (leg.stop).map(|stop| {
        stop.map(|width| (width, None))
            .map_err(ServerError::Refused)
    });
    leg.parts.into_iter().map(covered).chain(stop)
}

/// The reply of a fold over all of a query's `streams`: the stop's
/// refusal, or the covered windows under the streams' ids with the sum.
pub fn reply(leg: StatLeg, streams: &[u128]) -> Result<StatReply, ServerError> {
    let first = leg.parts.first().map(|&(width, ..)| width);
    match leg.stop {
        Some(Err(refusal)) => Err(ServerError::Refused(refusal)),
        Some(Ok(width)) if first.is_some_and(|w| w != width) => {
            Err(ServerError::IncompatibleStreams)
        }
        Some(Ok(_)) => Err(ServerError::EmptyRange),
        None if leg.parts.is_empty() => Err(ServerError::EmptyRange),
        None => Ok(StatReply {
            parts: (streams.iter().zip(leg.parts))
                .map(|(&stream, (_, lo, hi))| (stream, lo, hi))
                .collect(),
            agg: leg.agg,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_wire::messages::Refusal;

    fn covered(width: u32, lo: u64, part: Vec<u64>) -> Result<StreamStat, ServerError> {
        Ok((width, Some((lo, lo + 1, part))))
    }

    #[test]
    fn the_fold_stops_at_the_first_unknown_empty_or_other_width_stream() {
        let asked = &std::cell::Cell::new(0);
        let counted = move |list: Vec<Result<StreamStat, ServerError>>| {
            asked.set(0);
            list.into_iter()
                .inspect(move |_| asked.set(asked.get() + 1))
        };
        let all = fold(counted(vec![
            covered(2, 0, vec![1, 2]),
            covered(2, 4, vec![10, 20]),
        ]));
        assert_eq!((all.parts.len(), all.agg.as_slice()), (2, &[11, 22][..]));
        assert!(all.stop.is_none());
        let unknown = || ServerError::NoSuchStream(9);
        for (stopper, stop) in [
            (Ok((2, None)), Ok(2)),
            (covered(3, 0, vec![7, 7, 7]), Ok(3)),
            (Ok((3, None)), Ok(3)),
            (Err(unknown()), Err(Refusal::from(unknown()))),
        ] {
            let list = vec![
                covered(2, 0, vec![1, 2]),
                stopper,
                covered(2, 1, vec![5, 5]),
            ];
            let leg = fold(counted(list));
            assert_eq!(
                asked.get(),
                2,
                "the stream after the stop is never asked for"
            );
            assert_eq!((leg.parts, leg.agg), (vec![(2, 0, 1)], vec![1, 2]));
            assert_eq!(leg.stop, Some(stop));
        }
    }

    #[test]
    fn a_reply_ranks_a_width_conflict_before_an_empty_window() {
        let reply = |list| super::reply(fold(list), &[1, 2]).map_err(Refusal::from);
        let empty = Refusal::from(ServerError::EmptyRange);
        let incompatible = Refusal::from(ServerError::IncompatibleStreams);
        let w2 = || covered(2, 0, vec![1, 1]);
        assert_eq!(reply(vec![w2(), Ok((3, None))]), Err(incompatible.clone()));
        assert_eq!(reply(vec![w2(), Ok((2, None))]), Err(empty.clone()));
        let w3 = || covered(3, 0, vec![1, 1, 1]);
        assert_eq!(reply(vec![Ok((2, None)), w3()]), Err(empty.clone()));
        assert_eq!(reply(vec![w3(), w2()]), Err(incompatible));
        assert_eq!(reply(vec![]), Err(empty));
        let ok = reply(vec![w2(), covered(2, 3, vec![2, 2])]).unwrap();
        assert_eq!((ok.parts, ok.agg), (vec![(1, 0, 1), (2, 3, 4)], vec![3, 3]));
    }

    #[test]
    fn legs_fold_again_as_the_outcomes_they_read_with_their_sums() {
        // Two legs of a query [x, y, z]: x and z on one, y on the other.
        let xz = fold(vec![covered(2, 0, vec![1, 1]), covered(2, 5, vec![2, 2])]);
        let y = fold(vec![covered(2, 3, vec![10, 10])]);
        let (mut xz, mut y) = (outcomes(xz), outcomes(y));
        let walk = [xz.next(), y.next(), xz.next()].into_iter().flatten();
        let reply = reply(fold(walk), &[7, 8, 9]).unwrap();
        assert_eq!(reply.parts, vec![(7, 0, 1), (8, 3, 4), (9, 5, 6)]);
        assert_eq!(reply.agg, vec![13, 13]);
        // A stop folds again as the refusal it is.
        let failed = fold([Err(ServerError::NoSuchStream(3))]);
        assert_eq!(failed.stop, Some(Err(ServerError::NoSuchStream(3).into())));
        assert_eq!(fold(outcomes(failed.clone())), failed);
    }
}
