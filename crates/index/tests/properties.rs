//! Property-based tests: the aggregation tree must agree with a naive fold
//! for every arity, length, and query range.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use timecrypt_index::{keys, AggTree, HomDigest, IndexError, TreeConfig};
use timecrypt_store::{KvStore, MemKv};

/// Forwards to the system allocator, keeping per thread the largest single
/// request: what a hostile length prefix would drive up.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// plain thread-local integer without a destructor.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.set(LARGEST.get().max(layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.set(LARGEST.get().max(new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// The stored bytes of a full arity-4 node with digests of these widths.
fn node_bytes(widths: [usize; 4]) -> Vec<u8> {
    let mut bytes = 4u32.to_le_bytes().to_vec();
    for (slot, width) in widths.into_iter().enumerate() {
        vec![slot as u64; width].encode(&mut bytes);
    }
    bytes
}

/// Arbitrary bytes, and sound nodes broken in ways that keep some of what
/// a validator checks intact.
fn hostile_node() -> impl Strategy<Value = Vec<u8>> {
    let sound = || (2usize..20).prop_map(|w| node_bytes([w; 4]));
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..400),
        // A count no buffer could hold, or one off by a few.
        (sound(), prop_oneof![Just(u32::MAX), 0u32..4, 5u32..70]).prop_map(|(mut b, n)| {
            b[..4].copy_from_slice(&n.to_le_bytes());
            b
        }),
        // A width prefix that runs past the end, on any entry.
        (sound(), 0usize..4, any::<u32>()).prop_map(|(mut b, slot, width)| {
            let stride = (b.len() - 4) / 4;
            let width = width.max(stride as u32);
            b[4 + slot * stride..][..4].copy_from_slice(&width.to_le_bytes());
            b
        }),
        // Widths that differ and still add up to the length they had.
        (2usize..20, 1usize..2).prop_map(|(w, d)| node_bytes([w, w + d, w - d, w])),
        (sound(), proptest::collection::vec(any::<u8>(), 1..40))
            .prop_map(|(b, tail)| [b, tail].concat()),
        (sound(), 1usize..40).prop_map(|(mut b, cut)| {
            b.truncate(b.len().saturating_sub(cut));
            b
        }),
    ]
}

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

    /// A stored node is untrusted bytes: whatever is wrong with them, the
    /// query that reads them and the open that sums them say `CorruptNode`
    /// — no panic, and no allocation larger than the record itself (the
    /// store's copy of it) or a small constant, whatever its prefixes claim.
    #[test]
    fn hostile_node_bytes_are_corrupt_node(bytes in hostile_node()) {
        let kv: Arc<MemKv> = Arc::new(MemKv::new());
        let cfg = TreeConfig { arity: 4, cache_bytes: 1 << 20 };
        {
            let tree: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 7, cfg.clone()).unwrap();
            tree.append_batch(&vec![vec![1u64; 3]; 8]).unwrap();
        }
        // A handle opened before the damage, so the query is what reads it.
        let tree: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 7, cfg.clone()).unwrap();
        let key = keys::node(7, 1, 0);
        prop_assert!(kv.get(&key).unwrap().is_some(), "node (1, 0) is stored under this key");
        kv.put(&key, &bytes).unwrap();
        // The open probes and scans the store first, in small vectors of its own.
        for (floor, read) in [(64, true), (4096, false)] {
            LARGEST.set(0);
            let result = match read {
                true => tree.query(1, 3).map(|_| ()),
                false => AggTree::<Vec<u64>>::open(kv.clone(), 7, cfg.clone()).map(|_| ()),
            };
            let largest = LARGEST.get();
            let corrupt = matches!(result, Err(IndexError::CorruptNode { level: 1, index: 0 }));
            prop_assert!(corrupt, "{:?} for {:?}", result, bytes);
            let stored = bytes.len();
            prop_assert!(largest <= stored.max(floor), "{} B asked for, {} stored", largest, stored);
        }
    }
}
