//! Property tests for [`LeafCursor`]: whatever the order of lookups, and
//! whatever happens to the key source between them, a cursor answers
//! exactly as the from-root reference (`TreeKd::leaf` / `TokenSet::leaf`)
//! of the source it is handed.

use proptest::prelude::*;
use timecrypt_core::{CoreError, LeafCursor, TokenSet, TokenSource, TreeKd};
use timecrypt_crypto::{PrgKind, Seed128};

const PRGS: [PrgKind; 3] = [PrgKind::Aes, PrgKind::AesSoftware, PrgKind::Sha256];

/// Turns raw `(kind, value)` draws into an index sequence over `n` leaves
/// that mixes every access order: ascending, descending, repeated, random,
/// the last leaf, just out of range and far out of range.
fn walk(n: u64, raw: &[(u8, u64)]) -> Vec<u64> {
    let mut at = raw.first().map_or(0, |&(_, v)| v % n);
    raw.iter()
        .map(|&(kind, v)| {
            at = match kind {
                0 | 1 => at.saturating_add(1),
                2 => at.saturating_sub(1),
                3 => at,
                4 => v % n,
                5 => n - 1,
                6 => n + v % 3,
                _ => u64::MAX - v % 3,
            };
            at
        })
        .collect()
}

/// Checks `cursor` against `reference` along `indices`, and the PRG-call
/// accounting with it: never more than a from-root walk, nothing for the
/// leaf it already stands on, nothing for a refused lookup.
fn check<S: TokenSource>(
    cursor: &mut LeafCursor,
    src: &S,
    reference: impl Fn(u64) -> Result<Seed128, CoreError>,
    indices: &[u64],
) -> Result<(), TestCaseError> {
    let mut last_ok = None;
    for &i in indices {
        let before = cursor.prg_calls();
        let got = cursor.leaf(src, i);
        let spent = cursor.prg_calls() - before;
        prop_assert_eq!(got, reference(i), "leaf {}", i);
        prop_assert!(
            spent <= u64::from(src.height()),
            "leaf {}: {} calls",
            i,
            spent
        );
        if got.is_err() || last_ok == Some(i) {
            prop_assert_eq!(spent, 0, "leaf {}", i);
        }
        if got.is_ok() {
            last_ok = Some(i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over a tree: every height, every PRG, every access order.
    #[test]
    fn cursor_over_tree_matches_from_root(
        h in 1u8..=63,
        prg in 0usize..3,
        seed in any::<u8>(),
        raw in proptest::collection::vec((0u8..8, any::<u64>()), 1..24),
    ) {
        let tree = TreeKd::new([seed; 16], h, PRGS[prg]).unwrap();
        let indices = walk(tree.num_leaves(), &raw);
        check(&mut LeafCursor::new(), &tree, |i| tree.leaf(i), &indices)?;
    }

    /// Over token sets: a canonical cover, then the same set extended by a
    /// second grant (adjacent, overlapping or leaving a gap) — one cursor
    /// across both, so the second half runs on a path built before the
    /// source changed.
    #[test]
    fn cursor_over_token_sets_matches_from_tokens(
        h in 3u8..=12,
        prg in 0usize..3,
        a in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
        raw in proptest::collection::vec((0u8..8, any::<u64>()), 1..24),
        raw_after in proptest::collection::vec((0u8..8, any::<u64>()), 1..24),
    ) {
        let tree = TreeKd::new([0x5a; 16], h, PRGS[prg]).unwrap();
        let n = tree.num_leaves();
        let range = |(x, y): (u64, u64)| ((x % n).min(y % n), (x % n).max(y % n));
        let (a, b) = (range(a), range(b));
        let mut tokens = tree.token_set(a.0, a.1).unwrap();
        let mut cursor = LeafCursor::new();
        check(&mut cursor, &tokens, |i| tokens.leaf(i), &walk(n, &raw))?;
        tokens.extend(tree.cover(b.0, b.1).unwrap());
        check(&mut cursor, &tokens, |i| tokens.leaf(i), &walk(n, &raw_after))?;
        // Inside either grant the answer is the owner's.
        for i in [a.0, a.1, b.0, b.1] {
            prop_assert_eq!(cursor.leaf(&tokens, i), tree.leaf(i));
        }
    }

    /// One cursor handed from source to source — a wide grant, a narrow
    /// one, another tree with the same shape — answers for the source of
    /// the call: never a leaf the narrow grant does not cover, never a
    /// leaf of the other tree.
    #[test]
    fn cursor_follows_the_source_it_is_given(
        h in 4u8..=16,
        lo in any::<u64>(),
        len in 0u64..40,
        raw in proptest::collection::vec((0u8..8, any::<u64>()), 4..32),
    ) {
        let tree = TreeKd::new([1; 16], h, PrgKind::Aes).unwrap();
        let other = TreeKd::new([2; 16], h, PrgKind::Aes).unwrap();
        let n = tree.num_leaves();
        let lo = lo % n;
        let hi = (lo + len).min(n - 1);
        let wide = tree.full_token_set();
        let narrow = tree.token_set(lo, hi).unwrap();
        let mut cursor = LeafCursor::new();
        for (k, i) in walk(n, &raw).into_iter().enumerate() {
            match k % 3 {
                0 => prop_assert_eq!(cursor.leaf(&wide, i), tree.leaf(i)),
                1 => {
                    let got = cursor.leaf(&narrow, i);
                    prop_assert_eq!(got, narrow.leaf(i));
                    prop_assert_eq!(got.is_ok(), (lo..=hi).contains(&i), "leaf {}", i);
                }
                _ => prop_assert_eq!(cursor.leaf(&other, i), other.leaf(i)),
            }
        }
    }
}

#[test]
fn refused_lookup_does_not_poison_the_path() {
    let tree = TreeKd::new([9; 16], 30, PrgKind::Aes).unwrap();
    // Leaves 8..=15 are one token, four edges above the leaves.
    let tokens = tree.token_set(8, 15).unwrap();
    let mut cursor = LeafCursor::new();
    assert_eq!(cursor.leaf(&tokens, 12), tree.leaf(12));
    let calls = cursor.prg_calls();
    assert_eq!(calls, 3, "three edges from the token to its leaves");
    for outside in [7u64, 16, 1 << 30, u64::MAX] {
        assert_eq!(
            cursor.leaf(&tokens, outside),
            Err(CoreError::OutOfScope { index: outside })
        );
    }
    assert_eq!(cursor.prg_calls(), calls, "a refusal derives nothing");
    // 12 → 13 is one edge if (and only if) the path survived the refusals.
    assert_eq!(cursor.leaf(&tokens, 13), tree.leaf(13));
    assert_eq!(cursor.prg_calls(), calls + 1);
}

#[test]
fn sequential_leaves_cost_under_two_calls_each() {
    let tree = TreeKd::new([4; 16], 30, PrgKind::Aes).unwrap();
    let mut cursor = LeafCursor::new();
    cursor.leaf(&tree, 0).unwrap();
    assert_eq!(cursor.prg_calls(), 30, "the first leaf is a full walk");
    for i in 1..=4096u64 {
        assert_eq!(cursor.leaf(&tree, i), tree.leaf(i));
    }
    let per_leaf = (cursor.prg_calls() - 30) as f64 / 4096.0;
    assert!(per_leaf < 2.0, "{per_leaf} PRG calls per sequential leaf");
    // Overlapping tokens: whichever one `covering` picks, the answer is
    // the tree's.
    let mut overlapping = tree.token_set(0, 100).unwrap();
    overlapping.extend(tree.cover(50, 200).unwrap());
    overlapping.extend(tree.cover(64, 64).unwrap());
    let mut cursor = LeafCursor::new();
    for i in (0..=200u64).chain((0..=200).rev()) {
        assert_eq!(cursor.leaf(&overlapping, i), tree.leaf(i), "leaf {i}");
    }
    assert_eq!(
        cursor.leaf(&TokenSet::empty(30, PrgKind::Aes), 0),
        Err(CoreError::OutOfScope { index: 0 })
    );
}
