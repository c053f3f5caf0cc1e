//! Property-based tests: the index must agree with a naive model of the
//! stream for every history — appended runs, reopens, rewritten tags and
//! decays — and refuse hostile record bytes cleanly.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;
use timecrypt_index::{keys, leaf_record, AggTree, HomDigest, IndexError, TreeConfig};
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
        digests.iter().for_each(|d| sum.add_assign(d));
        Ok(sum)
    }

    /// Chunk `i`'s record as ingested: its digest, then its tag.
    fn record(&self, i: u64) -> Vec<u8> {
        let mut record = Vec::new();
        self.digests[i as usize].encode(&mut record);
        record.extend_from_slice(&self.tags[i as usize]);
        record
    }
}

fn open(kv: &Arc<MemKv>) -> AggTree<Vec<u64>> {
    let cfg = TreeConfig { cache_bytes: 4096 };
    AggTree::open(kv.clone() as Arc<dyn KvStore>, 1, cfg).unwrap()
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
                    tree.append_records(&records).unwrap();
                }
                Step::Reopen => tree = open(&kv),
                Step::Retag(at) if n > 0 => {
                    let i = at % n;
                    let mut record = leaf_record(kv.as_ref(), 1, i).unwrap();
                    record.truncate(20);
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
                let (mut own, used) = <Vec<u64>>::decode(&stored).unwrap();
                if i > 0 {
                    own.sub_encoded(&leaf_record(kv.as_ref(), 1, i - 1).unwrap()).unwrap();
                }
                let mut rebuilt = Vec::new();
                own.encode(&mut rebuilt);
                rebuilt.extend_from_slice(&stored[used..]);
                prop_assert_eq!(rebuilt, model.record(i), "chunk {}", i);
            }
        }
    }

    /// The in-place digest accumulate (`&mut self` add_assign, what the
    /// query uses) agrees with the clone-heavy reference fold, in every
    /// operand order, and subtraction undoes it.
    #[test]
    fn digest_accumulate_matches_clone_fold(
        width in 1usize..8,
        rows in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 8), 1..20),
    ) {
        let digests: Vec<Vec<u64>> = rows.iter().map(|r| r[..width].to_vec()).collect();
        let clone_fold = digests.iter().skip(1).fold(digests[0].clone(), |acc, d| {
            let mut ab = acc.clone();
            ab.add_assign(&d.clone());
            ab
        });
        let mut in_place = digests[0].clone();
        for d in &digests[1..] {
            in_place.add_assign(d);
        }
        prop_assert_eq!(&in_place, &clone_fold);
        let mut reversed = digests.last().unwrap().clone();
        for d in digests[..digests.len() - 1].iter().rev() {
            reversed.add_assign(d);
        }
        prop_assert_eq!(&in_place, &reversed);
        for d in &digests[1..] {
            in_place.sub_assign(d);
        }
        prop_assert_eq!(&in_place, &digests[0]);
    }

    /// Cache size never affects results, only speed.
    #[test]
    fn cache_size_is_semantically_invisible(
        values in proptest::collection::vec(0u64..1000, 10..150),
        cache in 0usize..4096,
    ) {
        let build = |cache_bytes: usize| {
            let tree: AggTree<Vec<u64>> =
                AggTree::open(Arc::new(MemKv::new()), 1, TreeConfig { cache_bytes }).unwrap();
            for &v in &values {
                tree.append(vec![v]).unwrap();
            }
            tree
        };
        let (big, tiny) = (build(1 << 24), build(cache));
        let n = values.len() as u64;
        for (a, b) in [(0u64, n), (1, n), (n / 2, n / 2 + 1), (0, n / 2 + 1), (1, n - 1)] {
            prop_assert_eq!(big.query(a, b).unwrap(), tiny.query(a, b).unwrap());
        }
    }

    /// A stored record is untrusted bytes: whatever is wrong with them, the
    /// query that reads them and the open that reads the last one say
    /// `CorruptNode` at level 0 — no panic, and no allocation larger than
    /// the record itself (the store's copy of it) or a small constant,
    /// whatever its width prefix claims. What still decodes is read as a
    /// running sum: the server's claim, for the client to verify.
    #[test]
    fn hostile_record_bytes_are_corrupt_node(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        width in any::<u32>(),
    ) {
        let kv: Arc<MemKv> = Arc::new(MemKv::new());
        open(&kv).append_batch(&vec![vec![1u64; 3]; 8]).unwrap();
        // A handle opened before the damage, so the query is what reads it.
        let tree = open(&kv);
        let mut bytes = bytes;
        if bytes.len() >= 4 && width % 2 == 0 {
            bytes[..4].copy_from_slice(&width.to_le_bytes());
        }
        let sound = bytes.len() >= 28 && bytes[..4] == 3u32.to_le_bytes();
        // The query reads the damaged record first; the open probes and
        // scans the store first, in small vectors of its own.
        for (index, read, floor) in [(5u64, true, 64), (7, false, 4096)] {
            kv.put(&keys::leaf(1, index), &bytes).unwrap();
            LARGEST.set(0);
            let result = match read {
                true => tree.query(4, 6).map(|_| ()),
                false => AggTree::<Vec<u64>>::open(kv.clone(), 1, TreeConfig::default()).map(|_| ()),
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
