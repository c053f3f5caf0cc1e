//! Authenticated aggregation tree: Merkle + homomorphic digest sums.
//!
//! TimeCrypt's server answers statistical range queries by adding HEAC
//! ciphertexts. The base system trusts the server to add the *right*
//! ciphertexts (§3.3: no correctness/completeness guarantee). This module
//! supplies the Verena-style fix the paper points to: every tree node binds
//! its children's hashes **and** their digest sums, so the node hash
//! authenticates the aggregate. A range query then ships an O(log n)
//! [`RangeProof`] that the client checks against a root attested by the
//! data owner — a lying server cannot inflate, deflate, drop, or reorder
//! chunks without breaking the root hash.
//!
//! Hash structure (domain-separated, as in RFC 6962):
//!
//! * leaf: `H(0x00 || commitment || width || le(sum))`
//! * node: `H(0x01 || left.hash || right.hash || le(left.sum) || le(right.sum))`
//!
//! Because a parent's preimage contains its children's sums, any claimed
//! subtree sum is verified one level up during root recomputation; only the
//! proof's root-level node needs expansion, which [`SumTree::range_proof`]
//! guarantees.

use parking_lot::Mutex;
use std::collections::HashMap;
use timecrypt_crypto::sha256;

/// A 32-byte node or root hash.
pub type Hash = [u8; 32];

/// One leaf: a binding commitment to the chunk (e.g. `H(chunk bytes)`)
/// plus the chunk's HEAC-encrypted digest vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumLeaf {
    /// Commitment to the full chunk contents.
    pub commitment: Hash,
    /// HEAC digest ciphertext vector (element-wise summable mod 2^64).
    pub sum: Vec<u64>,
}

fn le_bytes(sum: &[u64], out: &mut Vec<u8>) {
    for v in sum {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn hash_leaf(leaf: &SumLeaf) -> Hash {
    let mut buf = Vec::with_capacity(1 + 32 + 4 + leaf.sum.len() * 8);
    buf.push(0u8);
    buf.extend_from_slice(&leaf.commitment);
    buf.extend_from_slice(&(leaf.sum.len() as u32).to_le_bytes());
    le_bytes(&leaf.sum, &mut buf);
    sha256(&buf)
}

fn hash_node(lh: &Hash, rh: &Hash, lsum: &[u64], rsum: &[u64]) -> Hash {
    let mut buf = Vec::with_capacity(1 + 64 + (lsum.len() + rsum.len()) * 8);
    buf.push(1u8);
    buf.extend_from_slice(lh);
    buf.extend_from_slice(rh);
    le_bytes(lsum, &mut buf);
    le_bytes(rsum, &mut buf);
    sha256(&buf)
}

fn add_sums(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect()
}

/// RFC 6962 split: largest power of two strictly below `n`.
fn split_point(n: usize) -> usize {
    debug_assert!(n >= 2);
    let k = n.next_power_of_two();
    if k == n {
        n / 2
    } else {
        k / 2
    }
}

/// Append-only authenticated aggregation tree.
///
/// Interior `(hash, sum)` pairs of *aligned complete* subtrees (power-of-two
/// size, base divisible by size) are memoized: the tree is append-only, so
/// once such a subtree exists its summary never changes. This turns repeat
/// proof generation from O(n) into O(log² n) after the first walk.
#[derive(Debug, Default)]
pub struct SumTree {
    leaves: Vec<SumLeaf>,
    width: Option<usize>,
    /// `(base, size) → (hash, sum)` for aligned complete subtrees. Behind
    /// a mutex (not `RefCell`) so concurrent proof builders can share the
    /// tree: the lock is held per memo probe/insert, never across the
    /// recursive walk.
    memo: Mutex<SubtreeMemo>,
}

impl Clone for SumTree {
    fn clone(&self) -> Self {
        SumTree {
            leaves: self.leaves.clone(),
            width: self.width,
            memo: Mutex::new(self.memo.lock().clone()),
        }
    }
}

/// Memoized `(base, size) → (hash, sum)` summaries of aligned complete
/// subtrees.
type SubtreeMemo = HashMap<(usize, usize), (Hash, Vec<u64>)>;

/// Errors from building or querying a [`SumTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumTreeError {
    /// A leaf's digest width differs from the tree's.
    WidthMismatch,
    /// Empty or out-of-bounds query range.
    BadRange,
}

impl std::fmt::Display for SumTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SumTreeError::WidthMismatch => write!(f, "digest width mismatch"),
            SumTreeError::BadRange => write!(f, "empty or out-of-bounds range"),
        }
    }
}

impl std::error::Error for SumTreeError {}

impl SumTree {
    /// Empty tree; the first appended leaf fixes the digest width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when no chunk has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Appends a chunk's commitment and digest ciphertext.
    pub fn push(&mut self, leaf: SumLeaf) -> Result<(), SumTreeError> {
        match self.width {
            None => self.width = Some(leaf.sum.len()),
            Some(w) if w != leaf.sum.len() => return Err(SumTreeError::WidthMismatch),
            Some(_) => {}
        }
        self.leaves.push(leaf);
        Ok(())
    }

    /// Root over the first `n` leaves (`None` past the end). The empty
    /// tree hashes to `SHA-256("")`.
    pub fn root_at(&self, n: usize) -> Option<Hash> {
        if n > self.leaves.len() {
            return None;
        }
        Some(self.node(0, n).0)
    }

    /// `(hash, sum)` of the subtree over `leaves[base .. base+len]`, with
    /// memoization of aligned complete subtrees.
    fn node(&self, base: usize, len: usize) -> (Hash, Vec<u64>) {
        match len {
            0 => return (sha256(b""), Vec::new()),
            1 => return (hash_leaf(&self.leaves[base]), self.leaves[base].sum.clone()),
            _ => {}
        }
        let aligned = len.is_power_of_two() && base.is_multiple_of(len);
        if aligned {
            if let Some(v) = self.memo.lock().get(&(base, len)) {
                return v.clone();
            }
        }
        let k = split_point(len);
        let (lh, ls) = self.node(base, k);
        let (rh, rs) = self.node(base + k, len - k);
        let out = (hash_node(&lh, &rh, &ls, &rs), add_sums(&ls, &rs));
        if aligned {
            self.memo.lock().insert((base, len), out.clone());
        }
        out
    }

    /// Current root.
    pub fn root(&self) -> Hash {
        self.root_at(self.leaves.len())
            .expect("own size is in range")
    }

    /// Total digest sum over all leaves (element-wise, wrapping).
    pub fn total(&self) -> Vec<u64> {
        let width = self.width.unwrap_or(0);
        self.leaves
            .iter()
            .fold(vec![0u64; width], |acc, l| add_sums(&acc, &l.sum))
    }

    /// Builds the authenticated range proof for chunk indices `[lo, hi)`
    /// against the tree over the first `n` leaves.
    pub fn range_proof(&self, lo: usize, hi: usize, n: usize) -> Result<RangeProof, SumTreeError> {
        if lo >= hi || hi > n || n > self.leaves.len() {
            return Err(SumTreeError::BadRange);
        }
        Ok(RangeProof {
            n,
            lo,
            hi,
            root_node: self.build_proof(0, n, lo, hi, true, false),
        })
    }

    /// Like [`range_proof`](Self::range_proof) but every in-range leaf is
    /// opened individually (size O(m + log n) instead of O(log n)). Verify
    /// with [`RangeProof::verify_open`] to additionally recover the
    /// authenticated per-chunk commitments — the basis for verified *raw*
    /// chunk retrieval, where each returned chunk's bytes are checked
    /// against its attested commitment.
    pub fn range_proof_open(
        &self,
        lo: usize,
        hi: usize,
        n: usize,
    ) -> Result<RangeProof, SumTreeError> {
        if lo >= hi || hi > n || n > self.leaves.len() {
            return Err(SumTreeError::BadRange);
        }
        Ok(RangeProof {
            n,
            lo,
            hi,
            root_node: self.build_proof(0, n, lo, hi, true, true),
        })
    }
}

/// `(hash, sum)` of a full subtree — uncached reference implementation the
/// tests cross-check the memoized [`SumTree::node`] against.
#[cfg(test)]
fn subtree(leaves: &[SumLeaf]) -> (Hash, Vec<u64>) {
    match leaves.len() {
        0 => (sha256(b""), Vec::new()),
        1 => (hash_leaf(&leaves[0]), leaves[0].sum.clone()),
        n => {
            let k = split_point(n);
            let (lh, ls) = subtree(&leaves[..k]);
            let (rh, rs) = subtree(&leaves[k..]);
            (hash_node(&lh, &rh, &ls, &rs), add_sums(&ls, &rs))
        }
    }
}

/// One node of a [`RangeProof`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofNode {
    /// A whole subtree summarized as `(hash, sum)`. `in_range` says whether
    /// its leaves are all inside (sum counts) or all outside (sum is context
    /// needed only to recompute the parent hash) the queried range.
    Subtree {
        /// Subtree hash as stored in the parent preimage.
        hash: Hash,
        /// Subtree digest sum as stored in the parent preimage.
        sum: Vec<u64>,
        /// Whether the subtree lies inside the queried range.
        in_range: bool,
    },
    /// A single leaf, opened so the verifier recomputes its hash.
    Leaf {
        /// The chunk commitment.
        commitment: Hash,
        /// The chunk digest sum.
        sum: Vec<u64>,
        /// Whether this leaf is inside the queried range.
        in_range: bool,
    },
    /// An interior node whose children are given; the verifier recomputes
    /// its hash, which binds both children's sums.
    Node {
        /// Left child.
        left: Box<ProofNode>,
        /// Right child.
        right: Box<ProofNode>,
    },
}

/// An authenticated aggregate for chunk range `[lo, hi)` of an `n`-leaf tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeProof {
    /// Tree size the proof is computed against (must match the attestation).
    pub n: usize,
    /// Range start (inclusive chunk index).
    pub lo: usize,
    /// Range end (exclusive chunk index).
    pub hi: usize,
    root_node: ProofNode,
}

impl SumTree {
    /// Builds the proof tree for the span `[base, base+len)` intersected
    /// with `[lo, hi)`. `expand_root` forces the top node open so every
    /// claimed sum is bound by a hash the verifier recomputes; `open` also
    /// expands fully-in-range subtrees down to their leaves.
    fn build_proof(
        &self,
        base: usize,
        len: usize,
        lo: usize,
        hi: usize,
        expand_root: bool,
        open: bool,
    ) -> ProofNode {
        let span = (base, base + len);
        let fully_in = lo <= span.0 && span.1 <= hi;
        let disjoint = span.1 <= lo || hi <= span.0;
        if len == 1 {
            return ProofNode::Leaf {
                commitment: self.leaves[base].commitment,
                sum: self.leaves[base].sum.clone(),
                in_range: fully_in,
            };
        }
        if (disjoint || (fully_in && !open)) && !expand_root {
            let (hash, sum) = self.node(base, len);
            return ProofNode::Subtree {
                hash,
                sum,
                in_range: fully_in,
            };
        }
        let k = split_point(len);
        ProofNode::Node {
            left: Box::new(self.build_proof(base, k, lo, hi, false, open)),
            right: Box::new(self.build_proof(base + k, len - k, lo, hi, false, open)),
        }
    }
}

/// Outcome of verifying one proof node: its hash, full sum, and the portion
/// of the sum attributable to the queried range.
struct Verified {
    hash: Hash,
    sum: Vec<u64>,
    range_sum: Vec<u64>,
}

/// Proof verification failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// Recomputed root hash does not match the attested root.
    RootMismatch,
    /// Proof shape is inconsistent with the claimed tree size/range
    /// (e.g. a partially-covered subtree was not expanded, or a summarized
    /// node's `in_range` flag contradicts the span).
    MalformedProof,
    /// Claimed range is empty or exceeds the tree.
    BadRange,
    /// Digest widths disagree within the proof.
    WidthMismatch,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::RootMismatch => write!(f, "root hash mismatch"),
            VerifyError::MalformedProof => write!(f, "malformed proof structure"),
            VerifyError::BadRange => write!(f, "bad range"),
            VerifyError::WidthMismatch => write!(f, "digest width mismatch"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl RangeProof {
    /// Verifies this proof against an attested `root` and returns the
    /// authenticated digest sum over `[lo, hi)`.
    pub fn verify(&self, root: &Hash) -> Result<Vec<u64>, VerifyError> {
        self.verify_inner(root, None).map(|v| v.range_sum)
    }

    /// Verifies an *open* proof (from [`SumTree::range_proof_open`]) and
    /// returns every in-range leaf — `(commitment, digest sum)` per chunk,
    /// in chunk order. Rejects proofs that summarize any in-range subtree:
    /// a server cannot hide a chunk inside an aggregate.
    pub fn verify_open(&self, root: &Hash) -> Result<Vec<SumLeaf>, VerifyError> {
        // Grown as leaves verify, not sized up front: `lo`, `hi` and `n`
        // are the server's claims until `verify_inner` has checked them.
        let mut leaves = Vec::new();
        self.verify_inner(root, Some(&mut leaves))?;
        if leaves.len() != self.hi - self.lo {
            return Err(VerifyError::MalformedProof);
        }
        Ok(leaves)
    }

    fn verify_inner(
        &self,
        root: &Hash,
        open: Option<&mut Vec<SumLeaf>>,
    ) -> Result<Verified, VerifyError> {
        if self.lo >= self.hi || self.hi > self.n {
            return Err(VerifyError::BadRange);
        }
        // The root itself must be opened (Node or Leaf): a bare Subtree
        // summary at the top would leave its sum bound by nothing.
        if matches!(self.root_node, ProofNode::Subtree { .. }) {
            return Err(VerifyError::MalformedProof);
        }
        let mut open = open;
        let v = verify_node(&self.root_node, 0, self.n, self.lo, self.hi, &mut open)?;
        if v.hash != *root {
            return Err(VerifyError::RootMismatch);
        }
        Ok(v)
    }
}

const TAG_SUBTREE: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_NODE: u8 = 2;

/// Decoder recursion/size limits: a proof over 2^48 chunks stays far below
/// both, while hostile input cannot blow the stack or memory.
const MAX_PROOF_DEPTH: usize = 64;
const MAX_SUM_WIDTH: usize = 4096;

impl RangeProof {
    /// Serializes the proof for the wire: `n || lo || hi || tree`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.extend_from_slice(&(self.lo as u64).to_le_bytes());
        out.extend_from_slice(&(self.hi as u64).to_le_bytes());
        encode_node(&self.root_node, &mut out);
        out
    }

    /// Parses [`encode`](Self::encode) output. Structure-validates only;
    /// semantic checks happen in [`verify`](Self::verify).
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 24 {
            return None;
        }
        let n = u64::from_le_bytes(buf[0..8].try_into().ok()?) as usize;
        let lo = u64::from_le_bytes(buf[8..16].try_into().ok()?) as usize;
        let hi = u64::from_le_bytes(buf[16..24].try_into().ok()?) as usize;
        let mut pos = 24;
        let root_node = decode_node(buf, &mut pos, 0)?;
        if pos != buf.len() {
            return None;
        }
        Some(RangeProof {
            n,
            lo,
            hi,
            root_node,
        })
    }
}

fn encode_sum(sum: &[u64], out: &mut Vec<u8>) {
    out.extend_from_slice(&(sum.len() as u32).to_le_bytes());
    for v in sum {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_sum(buf: &[u8], pos: &mut usize) -> Option<Vec<u64>> {
    if buf.len() < *pos + 4 {
        return None;
    }
    let n = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().ok()?) as usize;
    *pos += 4;
    if n > MAX_SUM_WIDTH || buf.len() < *pos + n * 8 {
        return None;
    }
    let mut sum = Vec::with_capacity(n);
    for _ in 0..n {
        sum.push(u64::from_le_bytes(buf[*pos..*pos + 8].try_into().ok()?));
        *pos += 8;
    }
    Some(sum)
}

fn decode_hash(buf: &[u8], pos: &mut usize) -> Option<Hash> {
    if buf.len() < *pos + 32 {
        return None;
    }
    let h: Hash = buf[*pos..*pos + 32].try_into().ok()?;
    *pos += 32;
    Some(h)
}

fn encode_node(node: &ProofNode, out: &mut Vec<u8>) {
    match node {
        ProofNode::Subtree {
            hash,
            sum,
            in_range,
        } => {
            out.push(TAG_SUBTREE);
            out.extend_from_slice(hash);
            encode_sum(sum, out);
            out.push(u8::from(*in_range));
        }
        ProofNode::Leaf {
            commitment,
            sum,
            in_range,
        } => {
            out.push(TAG_LEAF);
            out.extend_from_slice(commitment);
            encode_sum(sum, out);
            out.push(u8::from(*in_range));
        }
        ProofNode::Node { left, right } => {
            out.push(TAG_NODE);
            encode_node(left, out);
            encode_node(right, out);
        }
    }
}

fn decode_node(buf: &[u8], pos: &mut usize, depth: usize) -> Option<ProofNode> {
    if depth > MAX_PROOF_DEPTH {
        return None;
    }
    let tag = *buf.get(*pos)?;
    *pos += 1;
    match tag {
        TAG_SUBTREE | TAG_LEAF => {
            let hash = decode_hash(buf, pos)?;
            let sum = decode_sum(buf, pos)?;
            let in_range = match *buf.get(*pos)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            *pos += 1;
            Some(if tag == TAG_SUBTREE {
                ProofNode::Subtree {
                    hash,
                    sum,
                    in_range,
                }
            } else {
                ProofNode::Leaf {
                    commitment: hash,
                    sum,
                    in_range,
                }
            })
        }
        TAG_NODE => {
            let left = Box::new(decode_node(buf, pos, depth + 1)?);
            let right = Box::new(decode_node(buf, pos, depth + 1)?);
            Some(ProofNode::Node { left, right })
        }
        _ => None,
    }
}

fn verify_node(
    node: &ProofNode,
    span_lo: usize,
    span_hi: usize,
    lo: usize,
    hi: usize,
    open: &mut Option<&mut Vec<SumLeaf>>,
) -> Result<Verified, VerifyError> {
    let fully_in = lo <= span_lo && span_hi <= hi;
    let disjoint = span_hi <= lo || hi <= span_lo;
    let span_len = span_hi - span_lo;
    match node {
        ProofNode::Leaf {
            commitment,
            sum,
            in_range,
        } => {
            if span_len != 1 || *in_range != fully_in {
                return Err(VerifyError::MalformedProof);
            }
            let leaf = SumLeaf {
                commitment: *commitment,
                sum: sum.clone(),
            };
            let hash = hash_leaf(&leaf);
            let range_sum = if fully_in {
                sum.clone()
            } else {
                vec![0u64; sum.len()]
            };
            if fully_in {
                if let Some(out) = open.as_deref_mut() {
                    out.push(leaf);
                }
            }
            Ok(Verified {
                hash,
                sum: sum.clone(),
                range_sum,
            })
        }
        ProofNode::Subtree {
            hash,
            sum,
            in_range,
        } => {
            // Summaries are only legal for subtrees wholly inside or wholly
            // outside the range; a partial overlap must be expanded — and in
            // open mode, in-range subtrees must be expanded to leaves too.
            if span_len < 2 || *in_range != fully_in || (!fully_in && !disjoint) {
                return Err(VerifyError::MalformedProof);
            }
            if fully_in && open.is_some() {
                return Err(VerifyError::MalformedProof);
            }
            let range_sum = if fully_in {
                sum.clone()
            } else {
                vec![0u64; sum.len()]
            };
            Ok(Verified {
                hash: *hash,
                sum: sum.clone(),
                range_sum,
            })
        }
        ProofNode::Node { left, right } => {
            if span_len < 2 {
                return Err(VerifyError::MalformedProof);
            }
            let k = split_point(span_len);
            let l = verify_node(left, span_lo, span_lo + k, lo, hi, open)?;
            let r = verify_node(right, span_lo + k, span_hi, lo, hi, open)?;
            if l.sum.len() != r.sum.len() {
                return Err(VerifyError::WidthMismatch);
            }
            Ok(Verified {
                hash: hash_node(&l.hash, &r.hash, &l.sum, &r.sum),
                sum: add_sums(&l.sum, &r.sum),
                range_sum: add_sums(&l.range_sum, &r.range_sum),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: u64, width: usize) -> SumLeaf {
        SumLeaf {
            commitment: timecrypt_crypto::sha256(&i.to_le_bytes()),
            sum: (0..width as u64).map(|j| i * 100 + j).collect(),
        }
    }

    fn tree_of(n: usize, width: usize) -> SumTree {
        let mut t = SumTree::new();
        for i in 0..n as u64 {
            t.push(leaf(i, width)).unwrap();
        }
        t
    }

    fn naive_sum(lo: usize, hi: usize, width: usize) -> Vec<u64> {
        (lo..hi).fold(vec![0u64; width], |acc, i| {
            add_sums(&acc, &leaf(i as u64, width).sum)
        })
    }

    #[test]
    fn all_ranges_verify_and_match_naive_sums() {
        let t = tree_of(19, 3);
        let root = t.root();
        for lo in 0..19 {
            for hi in lo + 1..=19 {
                let proof = t.range_proof(lo, hi, 19).unwrap();
                let sum = proof
                    .verify(&root)
                    .unwrap_or_else(|e| panic!("[{lo},{hi}): {e}"));
                assert_eq!(sum, naive_sum(lo, hi, 3), "[{lo},{hi})");
            }
        }
    }

    #[test]
    fn proofs_against_historical_roots() {
        let t = tree_of(25, 2);
        for n in [1usize, 2, 7, 16, 24] {
            let root = t.root_at(n).unwrap();
            let proof = t.range_proof(0, n, n).unwrap();
            assert_eq!(proof.verify(&root).unwrap(), naive_sum(0, n, 2));
        }
    }

    #[test]
    fn tampered_sum_is_detected() {
        let t = tree_of(16, 2);
        let root = t.root();
        let mut proof = t.range_proof(4, 12, 16).unwrap();
        // Find any in-range sum in the proof and inflate it.
        fn tamper(node: &mut ProofNode) -> bool {
            match node {
                ProofNode::Subtree {
                    sum,
                    in_range: true,
                    ..
                }
                | ProofNode::Leaf {
                    sum,
                    in_range: true,
                    ..
                } => {
                    sum[0] = sum[0].wrapping_add(1);
                    true
                }
                ProofNode::Node { left, right } => tamper(left) || tamper(right),
                _ => false,
            }
        }
        assert!(tamper(&mut proof.root_node));
        assert!(proof.verify(&root).is_err());
    }

    #[test]
    fn tampered_out_of_range_context_is_detected() {
        // Even sums outside the queried range are bound by the parent hash.
        let t = tree_of(16, 1);
        let root = t.root();
        let mut proof = t.range_proof(0, 4, 16).unwrap();
        fn tamper(node: &mut ProofNode) -> bool {
            match node {
                ProofNode::Subtree {
                    sum,
                    in_range: false,
                    ..
                }
                | ProofNode::Leaf {
                    sum,
                    in_range: false,
                    ..
                } => {
                    sum[0] = sum[0].wrapping_sub(7);
                    true
                }
                ProofNode::Node { left, right } => tamper(left) || tamper(right),
                _ => false,
            }
        }
        assert!(tamper(&mut proof.root_node));
        assert!(proof.verify(&root).is_err());
    }

    #[test]
    fn dropped_chunk_is_detected() {
        // Server silently drops chunk 7: its tree root differs from the
        // attested one, so any proof it makes fails against the real root.
        let honest = tree_of(16, 2);
        let root = honest.root();
        let mut cheat = SumTree::new();
        for i in 0..16u64 {
            if i != 7 {
                cheat.push(leaf(i, 2)).unwrap();
            }
        }
        let forged = cheat.range_proof(0, 15, 15).unwrap();
        assert!(forged.verify(&root).is_err());
    }

    #[test]
    fn bare_subtree_root_rejected() {
        // A proof that summarizes the whole tree in one Subtree node would
        // leave its sum unbound — the verifier must refuse it.
        let t = tree_of(8, 1);
        let (hash, sum) = subtree(&t.leaves);
        let proof = RangeProof {
            n: 8,
            lo: 0,
            hi: 8,
            root_node: ProofNode::Subtree {
                hash,
                sum: add_sums(&sum, &[9]),
                in_range: true,
            },
        };
        assert_eq!(proof.verify(&t.root()), Err(VerifyError::MalformedProof));
    }

    #[test]
    fn partially_covered_summary_rejected() {
        // Hand-build a proof that summarizes a half-covered subtree.
        let t = tree_of(4, 1);
        let (lh, ls) = subtree(&t.leaves[..2]);
        let (rh, rs) = subtree(&t.leaves[2..]);
        let proof = RangeProof {
            n: 4,
            lo: 1,
            hi: 3, // covers half of each child
            root_node: ProofNode::Node {
                left: Box::new(ProofNode::Subtree {
                    hash: lh,
                    sum: ls,
                    in_range: true,
                }),
                right: Box::new(ProofNode::Subtree {
                    hash: rh,
                    sum: rs,
                    in_range: false,
                }),
            },
        };
        assert_eq!(proof.verify(&t.root()), Err(VerifyError::MalformedProof));
    }

    #[test]
    fn single_leaf_tree_proof() {
        let t = tree_of(1, 4);
        let proof = t.range_proof(0, 1, 1).unwrap();
        assert_eq!(proof.verify(&t.root()).unwrap(), naive_sum(0, 1, 4));
    }

    #[test]
    fn width_mismatch_rejected_on_push() {
        let mut t = tree_of(3, 2);
        assert_eq!(t.push(leaf(3, 5)), Err(SumTreeError::WidthMismatch));
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = tree_of(8, 1);
        assert!(t.range_proof(3, 3, 8).is_err(), "empty");
        assert!(t.range_proof(5, 4, 8).is_err(), "inverted");
        assert!(t.range_proof(0, 9, 9).is_err(), "past end");
        assert!(t.range_proof(0, 9, 8).is_err(), "hi > n");
    }

    #[test]
    fn open_proofs_expose_all_in_range_leaves() {
        let t = tree_of(21, 2);
        let root = t.root();
        for (lo, hi) in [(0usize, 21usize), (5, 13), (20, 21), (0, 1)] {
            let proof = t.range_proof_open(lo, hi, 21).unwrap();
            let leaves = proof
                .verify_open(&root)
                .unwrap_or_else(|e| panic!("[{lo},{hi}): {e}"));
            assert_eq!(leaves.len(), hi - lo);
            for (off, l) in leaves.iter().enumerate() {
                assert_eq!(*l, leaf((lo + off) as u64, 2), "[{lo},{hi}) leaf {off}");
            }
            // The open proof also verifies as a plain aggregate proof.
            assert_eq!(proof.verify(&root).unwrap(), naive_sum(lo, hi, 2));
            // Codec round-trip preserves it.
            let decoded = RangeProof::decode(&proof.encode()).unwrap();
            assert_eq!(decoded.verify_open(&root).unwrap().len(), hi - lo);
        }
    }

    #[test]
    fn summarized_proof_rejected_by_verify_open() {
        // A compact proof hides interior leaves inside Subtree summaries;
        // verify_open must refuse it (a server cannot hide chunks).
        let t = tree_of(32, 1);
        let compact = t.range_proof(0, 32, 32).unwrap();
        assert_eq!(
            compact.verify_open(&t.root()),
            Err(VerifyError::MalformedProof)
        );
        // …while the open form of the same range passes.
        let open = t.range_proof_open(0, 32, 32).unwrap();
        assert_eq!(open.verify_open(&t.root()).unwrap().len(), 32);
    }

    #[test]
    fn open_proof_with_tampered_commitment_rejected() {
        let t = tree_of(16, 1);
        let root = t.root();
        let mut proof = t.range_proof_open(4, 8, 16).unwrap();
        fn tamper(node: &mut ProofNode) -> bool {
            match node {
                ProofNode::Leaf {
                    commitment,
                    in_range: true,
                    ..
                } => {
                    commitment[0] ^= 1;
                    true
                }
                ProofNode::Node { left, right } => tamper(left) || tamper(right),
                _ => false,
            }
        }
        assert!(tamper(&mut proof.root_node));
        assert!(proof.verify_open(&root).is_err());
    }

    #[test]
    fn proof_codec_roundtrips_and_verifies() {
        let t = tree_of(19, 3);
        let root = t.root();
        for (lo, hi) in [(0usize, 19usize), (5, 6), (3, 17)] {
            let proof = t.range_proof(lo, hi, 19).unwrap();
            let bytes = proof.encode();
            let decoded = RangeProof::decode(&bytes).unwrap();
            assert_eq!(decoded, proof, "[{lo},{hi})");
            assert_eq!(decoded.verify(&root).unwrap(), naive_sum(lo, hi, 3));
        }
    }

    #[test]
    fn proof_decode_rejects_garbage_and_truncation() {
        let t = tree_of(8, 2);
        let bytes = t.range_proof(2, 6, 8).unwrap().encode();
        assert!(RangeProof::decode(&[]).is_none());
        for cut in [10, 24, 30, bytes.len() - 1] {
            assert!(RangeProof::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(RangeProof::decode(&extended).is_none(), "trailing byte");
        let mut bad_tag = bytes;
        bad_tag[24] = 9;
        assert!(RangeProof::decode(&bad_tag).is_none(), "unknown tag");
    }

    #[test]
    fn proof_decode_depth_bomb_rejected() {
        // A chain of TAG_NODE bytes nests one level each: past the depth
        // cap the decoder must bail rather than recurse unboundedly.
        let mut buf = vec![0u8; 24];
        buf.extend(std::iter::repeat_n(TAG_NODE, 100_000));
        assert!(RangeProof::decode(&buf).is_none());
    }

    #[test]
    fn proof_size_is_logarithmic() {
        // A one-chunk query against a large tree must open O(log n) nodes,
        // not O(n).
        fn count(node: &ProofNode) -> usize {
            match node {
                ProofNode::Node { left, right } => 1 + count(left) + count(right),
                _ => 1,
            }
        }
        let t = tree_of(1024, 1);
        let proof = t.range_proof(500, 501, 1024).unwrap();
        assert!(
            count(&proof.root_node) <= 2 * 11 + 1,
            "{}",
            count(&proof.root_node)
        );
        assert_eq!(proof.verify(&t.root()).unwrap(), naive_sum(500, 501, 1));
    }
}
