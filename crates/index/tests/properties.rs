//! Property-based tests: the index must agree with a naive model of the
//! stream for every history — appended runs, reopens, rewritten tags and
//! decays — and refuse hostile record bytes cleanly.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;
use timecrypt_index::{
    decode_sum, fold_sum, keys, leaf_record, AggTree, BoundaryCache, IndexError, TreeConfig,
};
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

/// One step of a stream's history.
#[derive(Debug, Clone)]
enum Step {
    /// Append a run of this many chunks.
    Append(u64),
    /// Drop the handle and open another on the store.
    Reopen,
    /// Give the chunk at this point of the stream a new tag.
    Retag(u64),
    /// Decay before this point of the stream, keeping this level.
    Decay(u64, u8),
}

fn step() -> impl Strategy<Value = Step> {
    let append = || prop_oneof![1u64..70, 60u64..300, 4000u64..4300].prop_map(Step::Append);
    let decay = || (any::<u64>(), 0u8..5).prop_map(|(at, keep)| Step::Decay(at, keep));
    prop_oneof![
        append(),
        append(),
        append(),
        Just(Step::Reopen),
        any::<u64>().prop_map(Step::Retag),
        decay(),
        decay(),
    ]
}

/// The stream as the index must present it: every chunk's own digest and
/// tag, and the nodes of the 64-ary tree that decay aged out.
#[derive(Default)]
struct Model {
    digests: Vec<Vec<u64>>,
    tags: Vec<Vec<u8>>,
    aged: HashSet<(u8, u64)>,
}

fn span(level: u8) -> u64 {
    64u64.saturating_pow(level as u32)
}

impl Model {
    fn len(&self) -> u64 {
        self.digests.len() as u64
    }

    /// The levels of a 64-ary tree over `n` chunks, at least 1.
    fn levels(n: u64) -> u8 {
        (1..).find(|&level| span(level) >= n).unwrap()
    }

    /// The nodes a decay ages out now, the way the tree deleted them: each
    /// level below `keep` (and below the root's) wholly before the cutoff.
    fn decay(&mut self, before: u64, keep: u8) -> usize {
        let before = before.min(self.len());
        let fresh = (1..keep.min(Self::levels(self.len())))
            .flat_map(|level| (0..before / span(level)).map(move |n| (level, n)));
        fresh.filter(|node| self.aged.insert(*node)).count()
    }

    /// The tree's walk of `[start, end)` from the node covering `[0, end)`:
    /// the first aged-out node it reads, depth first, left edge first.
    fn walk(&self, level: u8, index: u64, start: u64, end: u64) -> Result<(), (u8, u64)> {
        if self.aged.contains(&(level, index)) {
            return Err((level, index));
        }
        let child = span(level - 1);
        for slot in 0..64 {
            let lo = index * span(level) + slot * child;
            let covered = start <= lo && lo + child <= end;
            if level > 1 && lo < end && lo + child > start && !covered {
                self.walk(level - 1, index * 64 + slot, start, end)?;
            }
        }
        Ok(())
    }

    fn query(&self, start: u64, end: u64) -> Result<Vec<u64>, (u8, u64)> {
        self.walk(Self::levels(end), 0, start, end)?;
        let digests = &self.digests[start as usize..end as usize];
        let mut sum = vec![0u64; 2];
        for d in digests {
            sum = vec![sum[0].wrapping_add(d[0]), sum[1].wrapping_add(d[1])];
        }
        Ok(sum)
    }

    /// Chunk `i`'s record as ingested: its digest, then its tag.
    fn record(&self, i: u64) -> Vec<u8> {
        let digest = self.digests[i as usize]
            .iter()
            .flat_map(|w| w.to_le_bytes());
        digest
            .chain(self.tags[i as usize].iter().copied())
            .collect()
    }
}

/// Stream 1's index of width-2 sums, as the model's records hold them.
fn open(kv: &Arc<MemKv>) -> AggTree<Vec<u64>> {
    let cache = Arc::new(BoundaryCache::new(4096));
    AggTree::open_with(kv.clone() as Arc<dyn KvStore>, 1, &cache, 2).unwrap()
}

/// Windows to check over `n` chunks: around the 64-ary tree's node
/// boundaries, the ends, and `salt`'s pseudo-random picks.
fn windows(n: u64, salt: u64) -> Vec<(u64, u64)> {
    let edges = [
        0,
        1,
        63,
        64,
        65,
        127,
        128,
        4095,
        4096,
        4097,
        8192,
        n.saturating_sub(1),
        n,
    ];
    let mut x = salt | 1;
    let mut random = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 20) % (n + 1)
    };
    let picks: Vec<(u64, u64)> = (0..40).map(|_| (random(), random())).collect();
    let edges = edges
        .iter()
        .flat_map(|&a| edges.iter().map(move |&b| (a, b)));
    let all = edges.chain(picks).map(|(a, b)| (a.min(b), a.max(b)));
    all.filter(|&(a, b)| a < b && b <= n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random histories against the model: after every step, `query`
    /// equals the wrapping sum of the digests or is `Decayed` exactly where
    /// the 64-ary tree's walk met an aged-out node, `decay` counts the nodes
    /// it newly ages out, and every record read back with the one before it
    /// is the record ingested.
    #[test]
    fn the_index_matches_a_naive_model_of_its_history(
        steps in proptest::collection::vec(step(), 1..12),
        seed in any::<u64>(),
    ) {
        let kv = Arc::new(MemKv::new());
        let (mut tree, mut model) = (open(&kv), Model::default());
        let mut x = seed;
        for step in &steps {
            let n = model.len();
            match *step {
                Step::Append(run) => {
                    let records: Vec<Vec<u8>> = (n..n + run)
                        .map(|i| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                            model.digests.push(vec![x, 1]);
                            model.tags.push(x.to_le_bytes()[..(x % 9) as usize].to_vec());
                            model.record(i)
                        })
                        .collect();
                    let records: Vec<[&[u8]; 1]> = records.iter().map(|r| [&r[..]]).collect();
                    tree.append_records(&records).unwrap();
                }
                Step::Reopen => tree = open(&kv),
                Step::Retag(at) if n > 0 => {
                    let i = at % n;
                    let mut record = leaf_record(kv.as_ref(), 1, i).unwrap();
                    record.truncate(16);
                    model.tags[i as usize] = vec![0xEE; (at % 40) as usize];
                    record.extend_from_slice(&model.tags[i as usize]);
                    prop_assert_eq!(tree.retag(&[(i, record)]).unwrap(), 1);
                }
                Step::Retag(_) => {}
                Step::Decay(at, keep) => {
                    let before = at % (n + 2);
                    prop_assert_eq!(tree.decay(before, keep).unwrap(), model.decay(before, keep));
                }
            }
            let n = model.len();
            prop_assert_eq!(tree.len(), n);
            for (a, b) in windows(n, x) {
                let got = tree.query(a, b).map_err(|e| match e {
                    IndexError::Decayed { level, index } => (level, index),
                    other => panic!("[{a},{b}): {other}"),
                });
                prop_assert_eq!(got, model.query(a, b), "[{}, {}) of {} after {:?}", a, b, n, step);
            }
            for i in [0, n / 2, n.saturating_sub(1)].into_iter().filter(|&i| i < n) {
                let stored = leaf_record(kv.as_ref(), 1, i).unwrap();
                let mut own = decode_sum(Some(2), &stored).unwrap();
                if i > 0 {
                    let before = leaf_record(kv.as_ref(), 1, i - 1).unwrap();
                    fold_sum(&mut own, Some(2), &before, u64::wrapping_sub).unwrap();
                }
                let mut rebuilt: Vec<u8> = own.iter().flat_map(|w| w.to_le_bytes()).collect();
                rebuilt.extend_from_slice(&stored[16..]);
                prop_assert_eq!(rebuilt, model.record(i), "chunk {}", i);
            }
        }
    }

    /// Cache size never affects results, only speed. A seeded sequence of
    /// queries over a few windows, so that their boundaries are read again
    /// and again, gets the same replies at every budget: none, too small for
    /// a mark, a few sums, and caches that admit, evict and grow. And no
    /// cache is ever charged more than its budget.
    #[test]
    fn cache_size_is_semantically_invisible(
        values in proptest::collection::vec(0u64..1000, 10..150),
        seed in any::<u64>(),
    ) {
        let build = |cache_bytes: usize| {
            let tree: AggTree<Vec<u64>> =
                AggTree::open(Arc::new(MemKv::new()), 1, TreeConfig { cache_bytes }).unwrap();
            for &v in &values {
                tree.append(vec![v]).unwrap();
            }
            tree
        };
        let budgets = [0, 1, 200, 4 << 10, 64 << 10];
        let (big, trees) = (build(1 << 24), budgets.map(build));
        let n = values.len() as u64;
        let mut x = seed;
        let mut below = |k: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 20) % k
        };
        let windows: Vec<(u64, u64)> = (0..16)
            .map(|_| {
                let lo = below(n - 1);
                (lo, lo + 2 + below(n - lo - 1))
            })
            .collect();
        for _ in 0..120 {
            let (a, b) = windows[below(16) as usize];
            let want = big.query(a, b).unwrap();
            for (tree, budget) in trees.iter().zip(budgets) {
                prop_assert_eq!(&tree.query(a, b).unwrap(), &want);
                let used = tree.stats().unwrap().cache_used_bytes;
                prop_assert!(used <= budget, "{} B charged of {}", used, budget);
            }
        }
    }

    /// A stored record is untrusted bytes: whatever is wrong with them, the
    /// query that reads them and the open that reads the last one say
    /// `CorruptNode` at level 0 — no panic, and no allocation larger than
    /// the record itself (the store's copy of it) or a small constant. A
    /// record names no width of its own: what holds a running sum of the
    /// index's width is read as one, the server's claim, for the client to
    /// verify.
    #[test]
    fn hostile_record_bytes_are_corrupt_node(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let cache = Arc::new(BoundaryCache::new(1 << 20));
        let open = || AggTree::<Vec<u64>>::open_with(kv.clone(), 1, &cache, 3);
        open().unwrap().append_batch(&vec![vec![1u64; 3]; 8]).unwrap();
        // A handle opened before the damage, so the query is what reads it.
        let tree = open().unwrap();
        let sound = bytes.len() >= 24;
        // The query reads the damaged record first; the open probes and
        // scans the store first, in small vectors of its own.
        for (index, read, floor) in [(5u64, true, 64), (7, false, 4096)] {
            kv.put(&keys::leaf(1, index), &bytes).unwrap();
            LARGEST.set(0);
            let result = match read {
                true => tree.query(4, 6).map(|_| ()),
                false => open().map(|_| ()),
            };
            let largest = LARGEST.get();
            match result {
                Err(IndexError::CorruptNode { level: 0, index: at }) => {
                    prop_assert!(!sound && at == index);
                    prop_assert!(largest <= bytes.len().max(floor), "{} B asked for, {} stored", largest, bytes.len());
                }
                other => prop_assert!(sound && other.is_ok(), "{:?} for {:?}", other, bytes),
            }
        }
    }
}
