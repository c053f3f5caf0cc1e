//! Property-based tests: the aggregation tree must agree with a naive fold
//! for every arity, length, and query range.

use proptest::prelude::*;
use std::sync::Arc;
use timecrypt_index::{AggTree, HomDigest, TreeConfig};
use timecrypt_store::MemKv;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-place digest accumulate (`&mut self` add_assign, what the
    /// query hot loop uses) agrees with the clone-heavy reference fold
    /// that clones both operands per combine — for every operand order
    /// (digest addition is commutative).
    #[test]
    fn digest_accumulate_matches_clone_fold(
        width in 1usize..8,
        rows in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 8), 1..20),
    ) {
        let digests: Vec<Vec<u64>> = rows.iter().map(|r| r[..width].to_vec()).collect();
        // Reference: clone-per-combine fold (the shape the old code had).
        let clone_fold = digests
            .iter()
            .skip(1)
            .fold(digests[0].clone(), |acc, d| {
                let mut ab = acc.clone();
                let b = d.clone();
                ab.add_assign(&b);
                ab
            });
        // Hot-loop shape: one accumulator mutated in place.
        let mut in_place = digests[0].clone();
        for d in &digests[1..] {
            in_place.add_assign(d);
        }
        prop_assert_eq!(&in_place, &clone_fold);
        // Commutativity.
        let mut reversed = digests.last().unwrap().clone();
        for d in digests[..digests.len() - 1].iter().rev() {
            reversed.add_assign(d);
        }
        prop_assert_eq!(&in_place, &reversed);
    }

    /// `append_batch` is indistinguishable from sequential appends for
    /// arbitrary batch splits of an arbitrary digest sequence.
    #[test]
    fn append_batch_matches_sequential(
        arity in 2usize..9,
        values in proptest::collection::vec(any::<u64>(), 1..200),
        split_seed in any::<u64>(),
    ) {
        let seq: AggTree<Vec<u64>> = AggTree::open(
            Arc::new(MemKv::new()),
            1,
            TreeConfig { arity, cache_bytes: 1 << 20 },
        )
        .unwrap();
        let batch: AggTree<Vec<u64>> = AggTree::open(
            Arc::new(MemKv::new()),
            1,
            TreeConfig { arity, cache_bytes: 1 << 20 },
        )
        .unwrap();
        for &v in &values {
            seq.append(vec![v, 1]).unwrap();
        }
        let mut rng_state = split_seed | 1;
        let mut rest: &[u64] = &values;
        while !rest.is_empty() {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let take = 1 + (rng_state >> 33) as usize % rest.len().min(40);
            let (run, tail) = rest.split_at(take);
            let digests: Vec<Vec<u64>> = run.iter().map(|&v| vec![v, 1]).collect();
            batch.append_batch(&digests).unwrap();
            rest = tail;
        }
        let n = values.len() as u64;
        prop_assert_eq!(batch.len(), n);
        for (a, b) in [(0u64, n), (n / 3, n), (0, 1.max(n / 2))] {
            prop_assert_eq!(batch.query(a, b).unwrap(), seq.query(a, b).unwrap());
        }
    }

    /// Random (arity, values, range) triples: tree query == naive sum.
    #[test]
    fn tree_matches_naive(
        arity in 2usize..9,
        values in proptest::collection::vec(any::<u64>(), 1..300),
        a in 0usize..300,
        b in 0usize..300,
    ) {
        let tree: AggTree<Vec<u64>> = AggTree::open(
            Arc::new(MemKv::new()),
            1,
            TreeConfig { arity, cache_bytes: 1 << 20 },
        )
        .unwrap();
        for &v in &values {
            tree.append(vec![v]).unwrap();
        }
        let n = values.len();
        let (a, b) = (a.min(n - 1), b.min(n));
        prop_assume!(a < b);
        let expect = values[a..b].iter().fold(0u64, |x, &y| x.wrapping_add(y));
        prop_assert_eq!(tree.query(a as u64, b as u64).unwrap(), vec![expect]);
    }

    /// Cache size never affects results, only speed.
    #[test]
    fn cache_size_is_semantically_invisible(
        values in proptest::collection::vec(0u64..1000, 10..150),
        cache in 0usize..4096,
    ) {
        let build = |cache_bytes: usize| {
            let tree: AggTree<Vec<u64>> = AggTree::open(
                Arc::new(MemKv::new()),
                1,
                TreeConfig { arity: 4, cache_bytes },
            )
            .unwrap();
            for &v in &values {
                tree.append(vec![v]).unwrap();
            }
            tree
        };
        let big = build(1 << 24);
        let tiny = build(cache);
        let n = values.len() as u64;
        for (a, b) in [(0u64, n), (1, n), (n / 2, n / 2 + 1), (0, n / 2 + 1)] {
            prop_assert_eq!(big.query(a, b).unwrap(), tiny.query(a, b).unwrap());
        }
    }

    /// Reopening from the same store preserves every query answer.
    #[test]
    fn reopen_is_transparent(values in proptest::collection::vec(any::<u64>(), 1..150)) {
        let kv: Arc<MemKv> = Arc::new(MemKv::new());
        {
            let tree: AggTree<Vec<u64>> =
                AggTree::open(kv.clone(), 1, TreeConfig { arity: 8, cache_bytes: 1 << 20 }).unwrap();
            for &v in &values {
                tree.append(vec![v]).unwrap();
            }
        }
        let tree: AggTree<Vec<u64>> =
            AggTree::open(kv, 1, TreeConfig { arity: 8, cache_bytes: 1 << 20 }).unwrap();
        prop_assert_eq!(tree.len(), values.len() as u64);
        let expect = values.iter().fold(0u64, |x, &y| x.wrapping_add(y));
        prop_assert_eq!(tree.query(0, values.len() as u64).unwrap(), vec![expect]);
    }
}
