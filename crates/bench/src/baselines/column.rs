//! The index the figure bins drive, one trait over two columns of running
//! sums: the product's [`AggTree`] of HEAC (or plaintext) words, and a
//! [`Column`] of strawman ciphertexts, which the product never stores.
//!
//! A [`Column`] keeps chunk `i`'s running sum `P_i = c_0 + … + c_i`
//! encoded as one record of a [`MemKv`], under the product's key for the
//! chunk, and answers `[lo, hi)` as `P_{hi−1} − P_{lo−1}` read and decoded
//! from its one or two boundary records: a strawman query pays a record
//! read and a decode per boundary, as the product's does on a cache miss.

use std::sync::Arc;
use timecrypt_index::{keys, AggTree, TreeConfig};
use timecrypt_store::{KvStore, MemKv};

/// A strawman's additively homomorphic ciphertext vector.
pub trait Digest: Sized {
    /// Homomorphic accumulation: `self += other`.
    fn add_assign(&mut self, other: &Self);

    /// Homomorphic difference: `self -= other`, undoing
    /// [`add_assign`](Self::add_assign).
    fn sub_assign(&mut self, other: &Self);

    /// Appends the serialized form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Parses a digest serialized as all of `bytes`.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// What Table 2, Fig. 5 and Fig. 7 drive of an index: appends and range
/// sums. Each index is one stream in a store of its own.
pub trait RangeSums {
    /// The homomorphic sum of a range, as the scheme's client decrypts it.
    type Sum;

    /// An empty index whose cache (if it has one) holds `cache_bytes`.
    fn open(cache_bytes: usize) -> Self;

    /// Appends the next chunk's digest.
    fn append(&mut self, digest: Self::Sum);

    /// The sum of the digests of chunks `[lo, hi)`.
    fn query(&self, lo: u64, hi: u64) -> Self::Sum;
}

impl RangeSums for AggTree {
    type Sum = Vec<u64>;

    fn open(cache_bytes: usize) -> Self {
        let kv = Arc::new(MemKv::new());
        AggTree::open(kv, 1, TreeConfig { cache_bytes }).expect("an empty in-memory index")
    }

    fn append(&mut self, digest: Vec<u64>) {
        AggTree::append(self, digest).expect("an in-memory append");
    }

    fn query(&self, lo: u64, hi: u64) -> Vec<u64> {
        AggTree::query(self, lo, hi).expect("a range of appended chunks")
    }
}

/// Running sums of strawman digests, one record each.
pub struct Column<D> {
    kv: MemKv,
    /// `P_{len−1}`, what the next append adds to.
    last: Option<D>,
    len: u64,
}

impl<D: Digest> Column<D> {
    /// Serialized bytes (key + value) of its records.
    pub fn stored_bytes(&self) -> usize {
        let records = self.kv.scan_prefix(b"").expect("an in-memory scan");
        records.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// The running sum through chunk `index`, read and decoded.
    fn sum(&self, index: u64) -> D {
        let record = self
            .kv
            .get(&keys::leaf(1, index))
            .expect("an in-memory get");
        D::decode(&record.expect("a record below the length")).expect("a record it encoded")
    }
}

impl<D: Digest> RangeSums for Column<D> {
    type Sum = D;

    /// No cache: every boundary is a record read.
    fn open(_cache_bytes: usize) -> Self {
        Column {
            kv: MemKv::new(),
            last: None,
            len: 0,
        }
    }

    fn append(&mut self, digest: D) {
        let sum = match self.last.take() {
            Some(mut sum) => {
                sum.add_assign(&digest);
                sum
            }
            None => digest,
        };
        let mut record = Vec::new();
        sum.encode(&mut record);
        let key = keys::leaf(1, self.len);
        self.kv.put(&key, &record).expect("an in-memory put");
        (self.last, self.len) = (Some(sum), self.len + 1);
    }

    fn query(&self, lo: u64, hi: u64) -> D {
        assert!(lo < hi && hi <= self.len, "[{lo}, {hi}) of {}", self.len);
        let mut sum = self.sum(hi - 1);
        if lo > 0 {
            sum.sub_assign(&self.sum(lo - 1));
        }
        sum
    }
}
