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
//! proof's root needs expansion, which [`SumTree::range_proof`] guarantees.
//!
//! A proof is its tree and nothing else. The verifier brings the tree size
//! (from the owner's attestation) and the window (from its own query), and
//! from them works out each node's span, whether that span counts, and
//! whether a summary may stand there: a server cannot name a narrower
//! window than the one asked for.

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
    /// against the tree over the first `n` leaves: O(log n) nodes, or, when
    /// `open`, every chunk of the window as its own leaf (O(m + log n)), so
    /// [`RangeProof::verify_open`] recovers each chunk's commitment — the
    /// basis for verified *raw* retrieval, where each returned chunk's bytes
    /// are checked against its attested commitment.
    pub fn range_proof(
        &self,
        lo: usize,
        hi: usize,
        n: usize,
        open: bool,
    ) -> Result<RangeProof, SumTreeError> {
        if lo >= hi || hi > n || n > self.leaves.len() {
            return Err(SumTreeError::BadRange);
        }
        Ok(RangeProof(self.build_proof(0, n, lo, hi, open, true)))
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

/// One node of a [`RangeProof`]. Its span is not written down: the
/// verifier works it out from the tree size and the RFC 6962 split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofNode {
    /// A span summarized as the `(hash, sum)` its parent's hash binds. One
    /// chunk wide it is a leaf: `hash` is the chunk's commitment, and the
    /// verifier hashes it as a leaf. A wider summary lies wholly outside
    /// the window, or wholly inside it in a closed proof, and is never the
    /// root of a tree of more than one chunk.
    Summary {
        /// The span's hash, or a leaf's commitment.
        hash: Hash,
        /// The span's digest sum.
        sum: Vec<u64>,
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

/// An authenticated aggregate: the proof tree alone. The window it proves
/// and the size of the tree are the verifier's, never the prover's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeProof(pub ProofNode);

impl SumTree {
    /// The proof tree for the span `[base, base+len)` and window `[lo, hi)`.
    /// A span wholly outside the window, or wholly inside it when not
    /// `open`, is summarized unless it is the `top`, which is expanded so
    /// every claimed sum is bound by a hash the verifier recomputes.
    fn build_proof(
        &self,
        base: usize,
        len: usize,
        lo: usize,
        hi: usize,
        open: bool,
        top: bool,
    ) -> ProofNode {
        let (inside, outside) = place(base, base + len, lo, hi);
        if len == 1 {
            let leaf = &self.leaves[base];
            let (hash, sum) = (leaf.commitment, leaf.sum.clone());
            return ProofNode::Summary { hash, sum };
        }
        if (outside || inside && !open) && !top {
            let (hash, sum) = self.node(base, len);
            return ProofNode::Summary { hash, sum };
        }
        let k = split_point(len);
        ProofNode::Node {
            left: Box::new(self.build_proof(base, k, lo, hi, open, false)),
            right: Box::new(self.build_proof(base + k, len - k, lo, hi, open, false)),
        }
    }
}

/// Whether the span `[base, end)` lies wholly inside `[lo, hi)`, and
/// whether wholly outside it.
fn place(base: usize, end: usize, lo: usize, hi: usize) -> (bool, bool) {
    (lo <= base && end <= hi, end <= lo || hi <= base)
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
    /// Proof shape is inconsistent with the tree size and window: a node
    /// below a leaf, a summary at the root of a wider tree, or a summary
    /// over a partly covered span (or, in an open proof, a covered one).
    MalformedProof,
    /// The window is empty or exceeds the tree.
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
    /// Verifies this proof of chunks `[lo, hi)` of an `n`-chunk tree against
    /// an attested `root` and returns the authenticated digest sum over the
    /// window.
    pub fn verify(
        &self,
        root: &Hash,
        n: usize,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<u64>, VerifyError> {
        self.check(root, n, lo, hi, None).map(|v| v.range_sum)
    }

    /// Verifies an *open* proof (`SumTree::range_proof(.., true)`) and
    /// returns every leaf of `[lo, hi)` — `(commitment, digest sum)` per
    /// chunk, in chunk order. Rejects a proof that summarizes any span of
    /// the window: a server cannot hide a chunk inside an aggregate.
    pub fn verify_open(
        &self,
        root: &Hash,
        n: usize,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<SumLeaf>, VerifyError> {
        let mut leaves = Vec::new();
        self.check(root, n, lo, hi, Some(&mut leaves))?;
        Ok(leaves)
    }

    fn check(
        &self,
        root: &Hash,
        n: usize,
        lo: usize,
        hi: usize,
        mut open: Option<&mut Vec<SumLeaf>>,
    ) -> Result<Verified, VerifyError> {
        if lo >= hi || hi > n {
            return Err(VerifyError::BadRange);
        }
        // A summary at the top of a wider tree would leave its sum bound by
        // nothing.
        if n > 1 && matches!(self.0, ProofNode::Summary { .. }) {
            return Err(VerifyError::MalformedProof);
        }
        let v = verify_node(&self.0, 0, n, lo, hi, &mut open)?;
        if v.hash != *root {
            return Err(VerifyError::RootMismatch);
        }
        Ok(v)
    }
}

const TAG_SUMMARY: u8 = 0;
const TAG_NODE: u8 = 1;

/// Decoder recursion/size limits: a proof over 2^48 chunks stays far below
/// both, while hostile input cannot blow the stack or memory.
const MAX_PROOF_DEPTH: usize = 64;
const MAX_SUM_WIDTH: usize = 4096;

impl RangeProof {
    /// Serializes the proof for the wire: the tree in preorder, a node as
    /// its tag, a summary as its tag, hash and sum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_node(&self.0, &mut out);
        out
    }

    /// Parses [`encode`](Self::encode) output. Structure-validates only;
    /// semantic checks happen in [`verify`](Self::verify).
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let root = decode_node(buf, &mut pos, 0)?;
        (pos == buf.len()).then_some(RangeProof(root))
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
        ProofNode::Summary { hash, sum } => {
            out.push(TAG_SUMMARY);
            out.extend_from_slice(hash);
            out.extend_from_slice(&(sum.len() as u32).to_le_bytes());
            le_bytes(sum, out);
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
        TAG_SUMMARY => {
            let hash = decode_hash(buf, pos)?;
            let sum = decode_sum(buf, pos)?;
            Some(ProofNode::Summary { hash, sum })
        }
        TAG_NODE => {
            let left = Box::new(decode_node(buf, pos, depth + 1)?);
            let right = Box::new(decode_node(buf, pos, depth + 1)?);
            Some(ProofNode::Node { left, right })
        }
        _ => None,
    }
}

/// Verifies `node` as the span `[base, end)` of a proof of `[lo, hi)`,
/// collecting the window's leaves into `open` when given.
fn verify_node(
    node: &ProofNode,
    base: usize,
    end: usize,
    lo: usize,
    hi: usize,
    open: &mut Option<&mut Vec<SumLeaf>>,
) -> Result<Verified, VerifyError> {
    let (inside, outside) = place(base, end, lo, hi);
    let (hash, sum) = match node {
        ProofNode::Summary { hash, sum } if end - base == 1 => {
            let leaf = SumLeaf {
                commitment: *hash,
                sum: sum.clone(),
            };
            let hash = hash_leaf(&leaf);
            if let (true, Some(out)) = (inside, open.as_deref_mut()) {
                out.push(leaf);
            }
            (hash, sum)
        }
        ProofNode::Summary { hash, sum } => {
            if !(outside || inside && open.is_none()) {
                return Err(VerifyError::MalformedProof);
            }
            (*hash, sum)
        }
        ProofNode::Node { left, right } => {
            if end - base < 2 {
                return Err(VerifyError::MalformedProof);
            }
            let k = base + split_point(end - base);
            let l = verify_node(left, base, k, lo, hi, open)?;
            let r = verify_node(right, k, end, lo, hi, open)?;
            if l.sum.len() != r.sum.len() {
                return Err(VerifyError::WidthMismatch);
            }
            return Ok(Verified {
                hash: hash_node(&l.hash, &r.hash, &l.sum, &r.sum),
                sum: add_sums(&l.sum, &r.sum),
                range_sum: add_sums(&l.range_sum, &r.range_sum),
            });
        }
    };
    let range_sum = if inside {
        sum.clone()
    } else {
        vec![0u64; sum.len()]
    };
    Ok(Verified {
        hash,
        sum: sum.clone(),
        range_sum,
    })
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

    /// A summary's span `(base, end)`, hash and sum; true stops the walk.
    type Visit<'a> = dyn FnMut((usize, usize), &mut Hash, &mut Vec<u64>) -> bool + 'a;

    /// Calls `f` with each summary of `node`, the span `[base, base+len)`,
    /// until `f` returns true.
    fn find(node: &mut ProofNode, base: usize, len: usize, f: &mut Visit) -> bool {
        match node {
            ProofNode::Summary { hash, sum } => f((base, base + len), hash, sum),
            ProofNode::Node { left, right } => {
                let k = split_point(len);
                find(left, base, k, f) || find(right, base + k, len - k, f)
            }
        }
    }

    #[test]
    fn all_ranges_verify_and_match_naive_sums() {
        let t = tree_of(19, 3);
        let root = t.root();
        for lo in 0..19 {
            for hi in lo + 1..=19 {
                let proof = t.range_proof(lo, hi, 19, false).unwrap();
                let sum = proof
                    .verify(&root, 19, lo, hi)
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
            let proof = t.range_proof(0, n, n, false).unwrap();
            assert_eq!(proof.verify(&root, n, 0, n).unwrap(), naive_sum(0, n, 2));
        }
    }

    #[test]
    fn tampered_sum_is_detected() {
        let t = tree_of(16, 2);
        let root = t.root();
        let mut proof = t.range_proof(4, 12, 16, false).unwrap();
        // Inflate the sum of a summary inside the window.
        let inflated = find(&mut proof.0, 0, 16, &mut |(base, end), _, sum| {
            let inside = 4 <= base && end <= 12;
            if inside {
                sum[0] = sum[0].wrapping_add(1);
            }
            inside
        });
        assert!(inflated);
        assert!(proof.verify(&root, 16, 4, 12).is_err());
    }

    #[test]
    fn tampered_out_of_range_context_is_detected() {
        // Even sums outside the queried range are bound by the parent hash.
        let t = tree_of(16, 1);
        let root = t.root();
        let mut proof = t.range_proof(0, 4, 16, false).unwrap();
        let deflated = find(&mut proof.0, 0, 16, &mut |(base, _), _, sum| {
            if base >= 4 {
                sum[0] = sum[0].wrapping_sub(7);
            }
            base >= 4
        });
        assert!(deflated);
        assert!(proof.verify(&root, 16, 0, 4).is_err());
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
        let forged = cheat.range_proof(0, 15, 15, false).unwrap();
        assert!(forged.verify(&root, 16, 0, 15).is_err());
        assert!(forged.verify(&root, 16, 0, 16).is_err());
    }

    #[test]
    fn a_summary_root_is_rejected() {
        // A proof that summarizes the whole tree in one node, with the
        // true root hash, would leave its sum unbound: the verifier must
        // refuse it.
        let t = tree_of(8, 1);
        let (hash, sum) = subtree(&t.leaves);
        let sum = add_sums(&sum, &[9]);
        let proof = RangeProof(ProofNode::Summary { hash, sum });
        assert_eq!(hash, t.root());
        for (lo, hi) in [(0, 8), (2, 3)] {
            let refused = proof.verify(&t.root(), 8, lo, hi);
            assert_eq!(refused, Err(VerifyError::MalformedProof));
        }
    }

    #[test]
    fn partially_covered_summary_rejected() {
        // Hand-build a proof that summarizes both halves of a window
        // covering half of each: the hashes are the true ones.
        let t = tree_of(4, 1);
        let (lh, ls) = subtree(&t.leaves[..2]);
        let (rh, rs) = subtree(&t.leaves[2..]);
        let proof = RangeProof(ProofNode::Node {
            left: Box::new(ProofNode::Summary { hash: lh, sum: ls }),
            right: Box::new(ProofNode::Summary { hash: rh, sum: rs }),
        });
        let refused = proof.verify(&t.root(), 4, 1, 3);
        assert_eq!(refused, Err(VerifyError::MalformedProof));
        // The same tree is a proof of a window that covers the halves whole.
        assert_eq!(proof.verify(&t.root(), 4, 0, 2), Ok(naive_sum(0, 2, 1)));
    }

    #[test]
    fn single_leaf_tree_proof() {
        let t = tree_of(1, 4);
        let proof = t.range_proof(0, 1, 1, false).unwrap();
        let sum = proof.verify(&t.root(), 1, 0, 1);
        assert_eq!(sum.unwrap(), naive_sum(0, 1, 4));
    }

    #[test]
    fn width_mismatch_rejected_on_push() {
        let mut t = tree_of(3, 2);
        assert_eq!(t.push(leaf(3, 5)), Err(SumTreeError::WidthMismatch));
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = tree_of(8, 1);
        assert!(t.range_proof(3, 3, 8, false).is_err(), "empty");
        assert!(t.range_proof(5, 4, 8, false).is_err(), "inverted");
        assert!(t.range_proof(0, 9, 9, false).is_err(), "past end");
        assert!(t.range_proof(0, 9, 8, false).is_err(), "hi > n");
        // The verifier refuses such windows before reading the proof.
        let proof = t.range_proof(0, 8, 8, false).unwrap();
        for (lo, hi, n) in [(3, 3, 8), (5, 4, 8), (0, 9, 8), (9, 20, 8)] {
            let refused = proof.verify(&t.root(), n, lo, hi);
            assert_eq!(refused, Err(VerifyError::BadRange), "[{lo},{hi}) of {n}");
        }
    }

    #[test]
    fn open_proofs_expose_all_in_range_leaves() {
        let t = tree_of(21, 2);
        let root = t.root();
        for (lo, hi) in [(0usize, 21usize), (5, 13), (20, 21), (0, 1)] {
            let proof = t.range_proof(lo, hi, 21, true).unwrap();
            let leaves = proof
                .verify_open(&root, 21, lo, hi)
                .unwrap_or_else(|e| panic!("[{lo},{hi}): {e}"));
            assert_eq!(leaves.len(), hi - lo);
            for (off, l) in leaves.iter().enumerate() {
                assert_eq!(*l, leaf((lo + off) as u64, 2), "[{lo},{hi}) leaf {off}");
            }
            // The open proof also verifies as a plain aggregate proof.
            let sum = proof.verify(&root, 21, lo, hi);
            assert_eq!(sum.unwrap(), naive_sum(lo, hi, 2));
            // Codec round-trip preserves it.
            let decoded = RangeProof::decode(&proof.encode()).unwrap();
            let leaves = decoded.verify_open(&root, 21, lo, hi);
            assert_eq!(leaves.unwrap().len(), hi - lo);
        }
    }

    #[test]
    fn summarized_proof_rejected_by_verify_open() {
        // A compact proof hides interior leaves inside summaries;
        // verify_open must refuse it (a server cannot hide chunks).
        let t = tree_of(32, 1);
        let compact = t.range_proof(0, 32, 32, false).unwrap();
        assert_eq!(
            compact.verify_open(&t.root(), 32, 0, 32),
            Err(VerifyError::MalformedProof)
        );
        // …while the open form of the same range passes.
        let open = t.range_proof(0, 32, 32, true).unwrap();
        let leaves = open.verify_open(&t.root(), 32, 0, 32);
        assert_eq!(leaves.unwrap().len(), 32);
    }

    #[test]
    fn open_proof_with_tampered_commitment_rejected() {
        let t = tree_of(16, 1);
        let root = t.root();
        let mut proof = t.range_proof(4, 8, 16, true).unwrap();
        // A one-chunk summary inside the window: a leaf, its hash the
        // chunk's commitment.
        let flipped = find(&mut proof.0, 0, 16, &mut |(base, end), hash, _| {
            let leaf = end - base == 1 && (4..8).contains(&base);
            if leaf {
                hash[0] ^= 1;
            }
            leaf
        });
        assert!(flipped);
        assert!(proof.verify_open(&root, 16, 4, 8).is_err());
    }

    #[test]
    fn proof_codec_roundtrips_and_verifies() {
        let t = tree_of(19, 3);
        let root = t.root();
        for (lo, hi) in [(0usize, 19usize), (5, 6), (3, 17)] {
            let proof = t.range_proof(lo, hi, 19, false).unwrap();
            let bytes = proof.encode();
            let decoded = RangeProof::decode(&bytes).unwrap();
            assert_eq!(decoded, proof, "[{lo},{hi})");
            let sum = decoded.verify(&root, 19, lo, hi);
            assert_eq!(sum.unwrap(), naive_sum(lo, hi, 3));
        }
    }

    #[test]
    fn proof_decode_rejects_garbage_and_truncation() {
        let t = tree_of(8, 2);
        let bytes = t.range_proof(2, 6, 8, false).unwrap().encode();
        assert!(RangeProof::decode(&[]).is_none());
        for cut in [1, 10, 24, 30, bytes.len() - 1] {
            assert!(RangeProof::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(RangeProof::decode(&extended).is_none(), "trailing byte");
        let mut bad_tag = bytes;
        bad_tag[0] = 9;
        assert!(RangeProof::decode(&bad_tag).is_none(), "unknown tag");
    }

    #[test]
    fn proof_decode_depth_bomb_rejected() {
        // A chain of TAG_NODE bytes nests one level each: past the depth
        // cap the decoder must bail rather than recurse unboundedly.
        let buf = vec![TAG_NODE; 100_000];
        assert!(RangeProof::decode(&buf).is_none());
    }

    #[test]
    fn proof_size_is_logarithmic() {
        // A one-chunk query against a large tree must open O(log n) nodes,
        // not O(n).
        fn count(node: &ProofNode) -> usize {
            match node {
                ProofNode::Node { left, right } => 1 + count(left) + count(right),
                ProofNode::Summary { .. } => 1,
            }
        }
        let t = tree_of(1024, 1);
        let proof = t.range_proof(500, 501, 1024, false).unwrap();
        assert!(count(&proof.0) <= 2 * 11 + 1, "{}", count(&proof.0));
        let sum = proof.verify(&t.root(), 1024, 500, 501);
        assert_eq!(sum.unwrap(), naive_sum(500, 501, 1));
    }
}
