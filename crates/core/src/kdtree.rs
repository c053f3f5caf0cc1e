//! GGM key-derivation tree (`TreeKD`, paper §4.2.3 / §A.1.3).
//!
//! A balanced binary tree of 128-bit pseudorandom values, built top-down from
//! a secret root seed with a length-doubling PRG: `z_{l||0} = G0(z_l)`,
//! `z_{l||1} = G1(z_l)`. The `2^h` leaves form the keystream. Sharing a
//! contiguous keystream segment means sharing the O(h) inner nodes of its
//! canonical cover ("access tokens") instead of the keys themselves; from a
//! token, every leaf in its subtree is derivable, but — by the one-way
//! property of the PRG — no parent, sibling, or leaf outside it.

use crate::error::CoreError;
use std::ops::Range;
use timecrypt_crypto::backend::{Backend, Dispatch, Job};
use timecrypt_crypto::{PrgKind, Seed128};

/// Maximum supported tree height. 63 keeps leaf indices in `u64` and makes
/// the keystream "virtually infinite" (the paper's phrase); the evaluation
/// uses heights 30 (one billion keys) and sweeps 5..60 in Fig. 6.
pub const MAX_HEIGHT: u8 = 63;

/// Identifies one node of the tree: `depth` edges below the root, `index`
/// counting nodes at that depth left-to-right. The root is `(0, 0)`; a leaf
/// at keystream position `i` in a height-`h` tree is `(h, i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeLabel {
    /// Distance from the root (root = 0, leaves = tree height).
    pub depth: u8,
    /// Left-to-right index at this depth.
    pub index: u64,
}

impl NodeLabel {
    /// The range of leaf indices covered by this node's subtree in a tree of
    /// height `h`.
    pub fn leaf_range(&self, h: u8) -> Range<u64> {
        let span = 1u64 << (h - self.depth);
        let start = self.index * span;
        start..start + span
    }

    /// Number of leaves under this node in a height-`h` tree.
    pub fn span(&self, h: u8) -> u64 {
        1u64 << (h - self.depth)
    }
}

/// An inner (or leaf) node handed to a principal. Possession of a token
/// grants derivation of every leaf in `label.leaf_range(h)` and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessToken {
    /// Which node this is.
    pub label: NodeLabel,
    /// The node's 128-bit pseudorandom value.
    pub node: Seed128,
}

/// Key material a leaf derivation can start from: tokens of one tree. A
/// [`TreeKd`] is the set of one token, its root; a [`TokenSet`] holds the
/// tokens a principal was granted.
pub trait TokenSource {
    /// Height of the tree the tokens belong to.
    fn height(&self) -> u8;

    /// PRG the tree is built with.
    fn prg(&self) -> PrgKind;

    /// The token whose subtree holds leaf `i`, or [`CoreError::OutOfScope`].
    fn covering(&self, i: u64) -> Result<&AccessToken, CoreError>;
}

/// The one descent loop every derivation shares: walks `levels` edges down
/// from `v` by `prg`'s steps on `b`, reading the turns from bit
/// `levels − 1` of `bits` (the first edge) to bit 0, and hands each node it
/// reaches to `each`.
#[inline(always)]
fn descend<B: Backend>(
    b: B,
    prg: PrgKind,
    mut v: Seed128,
    levels: u8,
    bits: u64,
    mut each: impl FnMut(Seed128),
) -> Seed128 {
    for level in (0..levels).rev() {
        v = prg.child(b, &v, (bits >> level) & 1 == 1);
        each(v);
    }
    v
}

/// [`descend`] from `v`, the nodes passed, on the backend
/// [`Dispatch::detect`] picked.
fn walk(prg: PrgKind, v: Seed128, levels: u8, bits: u64) -> Seed128 {
    struct Walk(PrgKind, Seed128, u8, u64);
    impl Job for Walk {
        type Output = Seed128;
        #[inline(always)]
        fn run<B: Backend>(self, b: B) -> Seed128 {
            descend(b, self.0, self.1, self.2, self.3, |_| {})
        }
    }
    Dispatch::detect().run(Walk(prg, v, levels, bits))
}

/// Leaf `i` of `src` by a walk from the token that covers it.
fn leaf_from_token<S: TokenSource>(src: &S, i: u64) -> Result<Seed128, CoreError> {
    let t = src.covering(i)?;
    // A token's range is aligned to its span, so the low bits of `i` are
    // the turns below it.
    let levels = src.height() - t.label.depth;
    Ok(walk(src.prg(), t.node, levels, i))
}

/// Leaves `i` and `i + 1` of `src`, both walked from the token that covers
/// `i` when it covers `i + 1` too: one descent to the deepest node above
/// both, then the few levels below it for each — `levels + split` PRG
/// steps, not `2·levels`.
pub(crate) fn boundary_leaves<S: TokenSource>(
    src: &S,
    i: u64,
) -> Result<(Seed128, Seed128), CoreError> {
    let t = src.covering(i)?;
    let (prg, levels) = (src.prg(), src.height() - t.label.depth);
    // `i` and `i + 1` differ in their low `split` bits alone.
    let split = (u64::BITS - (i ^ (i + 1)).leading_zeros()) as u8;
    if split > levels {
        return Ok((walk(prg, t.node, levels, i), leaf_from_token(src, i + 1)?));
    }
    let above = walk(prg, t.node, levels - split, i >> split);
    Ok((walk(prg, above, split, i), walk(prg, above, split, i + 1)))
}

/// The owner-side key-derivation tree: secret root seed + height + PRG choice.
///
/// Only the data owner (and producers it provisions) hold a `TreeKd`;
/// principals get [`TokenSet`]s, the server gets nothing.
#[derive(Clone)]
pub struct TreeKd {
    /// The root seed, as the token `(0, 0)`.
    root: AccessToken,
    height: u8,
    prg: PrgKind,
}

impl TokenSource for TreeKd {
    fn height(&self) -> u8 {
        self.height
    }

    fn prg(&self) -> PrgKind {
        self.prg
    }

    fn covering(&self, i: u64) -> Result<&AccessToken, CoreError> {
        if i >= self.num_leaves() {
            return Err(CoreError::OutOfScope { index: i });
        }
        Ok(&self.root)
    }
}

impl TreeKd {
    /// Creates a tree from a secret 128-bit root seed.
    pub fn new(root: Seed128, height: u8, prg: PrgKind) -> Result<Self, CoreError> {
        if height == 0 || height > MAX_HEIGHT {
            return Err(CoreError::InvalidParams("tree height must be in 1..=63"));
        }
        let root = AccessToken {
            label: NodeLabel { depth: 0, index: 0 },
            node: root,
        };
        Ok(TreeKd { root, height, prg })
    }

    /// Tree height (leaves = 2^height).
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Number of keys in the keystream (saturating at `u64::MAX` for h=63... 2^63 fits).
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.height
    }

    /// PRG instantiation used by this tree.
    pub fn prg(&self) -> PrgKind {
        self.prg
    }

    /// Derives the value of an arbitrary node by walking from the root.
    /// Cost: `label.depth` PRG invocations (the paper's `log(n)` bound).
    pub fn node(&self, label: NodeLabel) -> Result<Seed128, CoreError> {
        if label.depth > self.height {
            return Err(CoreError::InvalidParams("node depth exceeds tree height"));
        }
        if label.depth < 64 && label.index >> label.depth != 0 && label.depth > 0 {
            return Err(CoreError::InvalidParams(
                "node index out of range for depth",
            ));
        }
        Ok(walk(self.prg, self.root.node, label.depth, label.index))
    }

    /// Derives leaf `i` (the `i`-th keystream element) by walking from the
    /// root: the one-shot reference a [`LeafCursor`] is checked against.
    pub fn leaf(&self, i: u64) -> Result<Seed128, CoreError> {
        leaf_from_token(self, i)
    }

    /// Computes the canonical minimal cover of the (inclusive) leaf range
    /// `[lo, hi]` — the access tokens to share for that keystream segment.
    /// At most `2·height` tokens (the paper: "at most h access tokens" per
    /// side).
    pub fn cover(&self, lo: u64, hi: u64) -> Result<Vec<AccessToken>, CoreError> {
        if lo > hi {
            return Err(CoreError::InvalidParams("empty token range"));
        }
        if hi >= self.num_leaves() {
            return Err(CoreError::OutOfScope { index: hi });
        }
        let mut labels = cover_labels(lo, hi, self.height);
        labels.sort();
        labels
            .into_iter()
            .map(|label| {
                Ok(AccessToken {
                    label,
                    node: self.node(label)?,
                })
            })
            .collect()
    }

    /// Convenience: a [`TokenSet`] granting `[lo, hi]` (inclusive).
    pub fn token_set(&self, lo: u64, hi: u64) -> Result<TokenSet, CoreError> {
        Ok(TokenSet::new(self.cover(lo, hi)?, self.height, self.prg))
    }

    /// A token set granting the entire keystream (the owner's own view, or a
    /// fully-trusted principal). This is a single token: the root.
    pub fn full_token_set(&self) -> TokenSet {
        TokenSet::new(vec![self.root.clone()], self.height, self.prg)
    }
}

/// Computes the canonical segment-tree cover of leaf range `[lo, hi]`
/// (inclusive) in a tree of height `h`: the unique minimal set of maximal
/// aligned subtrees.
fn cover_labels(lo: u64, hi: u64, h: u8) -> Vec<NodeLabel> {
    let mut out = Vec::new();
    let mut lo = lo;
    let mut hi = hi; // inclusive
    let mut depth = h;
    // Classic bottom-up segment cover: at each level, peel off unaligned
    // endpoints, then ascend.
    while lo <= hi {
        if lo & 1 == 1 {
            out.push(NodeLabel { depth, index: lo });
            lo += 1;
        }
        if hi & 1 == 0 {
            out.push(NodeLabel { depth, index: hi });
            if hi == 0 {
                break;
            }
            hi -= 1;
        }
        if lo > hi {
            break;
        }
        lo >>= 1;
        hi >>= 1;
        depth -= 1;
    }
    out
}

/// A principal's key material: a set of access tokens. Supports leaf
/// derivation for covered indices and rejects (with [`CoreError::OutOfScope`])
/// anything else — the client-side enforcement point of TimeCrypt's
/// cryptographic access control.
#[derive(Clone)]
pub struct TokenSet {
    /// Tokens sorted by the leaf ranges they cover.
    tokens: Vec<AccessToken>,
    height: u8,
    prg: PrgKind,
}

impl TokenSet {
    /// Builds a token set. Tokens are sorted internally by start leaf.
    pub fn new(mut tokens: Vec<AccessToken>, height: u8, prg: PrgKind) -> Self {
        tokens.sort_by_key(|t| t.label.leaf_range(height).start);
        TokenSet {
            tokens,
            height,
            prg,
        }
    }

    /// An empty set (no access at all).
    pub fn empty(height: u8, prg: PrgKind) -> Self {
        TokenSet {
            tokens: Vec::new(),
            height,
            prg,
        }
    }

    /// Tree height these tokens belong to.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// The tokens themselves (e.g. for serialization into a key-store blob).
    pub fn tokens(&self) -> &[AccessToken] {
        &self.tokens
    }

    /// PRG used for derivation.
    pub fn prg(&self) -> PrgKind {
        self.prg
    }

    /// Merges additional tokens into this set (used when an open-ended grant
    /// is extended, §4.6 / Table 1 `GrantOpenAccess`).
    pub fn extend(&mut self, more: Vec<AccessToken>) {
        self.tokens.extend(more);
        self.tokens
            .sort_by_key(|t| t.label.leaf_range(self.height).start);
    }

    /// True if every leaf in `[lo, hi]` (inclusive) is derivable.
    pub fn covers(&self, lo: u64, hi: u64) -> bool {
        let mut next = lo;
        for t in &self.tokens {
            let r = t.label.leaf_range(self.height);
            if r.start > next {
                return false;
            }
            if r.end > next {
                next = r.end;
            }
            if next > hi {
                return true;
            }
        }
        next > hi
    }

    /// Derives leaf `i` by walking down from the token that covers it, or
    /// fails with `OutOfScope` if none does. Cost: at most `height` PRG
    /// calls (binary search + subtree walk). The one-shot reference a
    /// [`LeafCursor`] is checked against.
    pub fn leaf(&self, i: u64) -> Result<Seed128, CoreError> {
        leaf_from_token(self, i)
    }
}

impl TokenSource for TokenSet {
    fn height(&self) -> u8 {
        self.height
    }

    fn prg(&self) -> PrgKind {
        self.prg
    }

    fn covering(&self, i: u64) -> Result<&AccessToken, CoreError> {
        // Binary search for the last token starting at or before i.
        let pos = self
            .tokens
            .partition_point(|t| t.label.leaf_range(self.height).start <= i);
        // Tokens are sorted by start and may overlap: a token that ended
        // before `i` can still be preceded by a larger one that holds it,
        // so scan back (bounded by the token count, O(log n) for canonical
        // grants).
        self.tokens[..pos]
            .iter()
            .rev()
            .find(|t| t.label.leaf_range(self.height).contains(&i))
            .ok_or(CoreError::OutOfScope { index: i })
    }
}

/// A producer's or reader's place in the key tree: the path from a token
/// down to the last leaf derived through this cursor. The next leaf is
/// derived from the deepest node it shares with that path — no PRG call for
/// the same leaf, fewer than two on average for `i → i + 1`, at most the
/// tree height for any jump — and is bit-identical to [`TreeKd::leaf`] /
/// [`TokenSet::leaf`] for every access order.
///
/// The cursor owns no key source: every lookup names the source and first
/// finds the covering token *there*, so the path is reused only while it
/// hangs from a token the source still holds. A lookup that fails leaves
/// the path as it was.
#[derive(Clone, Default)]
pub struct LeafCursor {
    /// What `path[0]` is: the token the path hangs from and the PRG that
    /// derived the rest. `None` until the first derivation.
    top: Option<(AccessToken, PrgKind)>,
    /// `path[d]` is the node `d` edges below the token on the way to leaf
    /// `index`, the last entry the leaf itself: at most 64 seeds, allocated
    /// by the first derivation.
    path: Vec<Seed128>,
    index: u64,
    prg_calls: u64,
}

impl LeafCursor {
    /// A cursor that has derived nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// PRG invocations made through this cursor so far.
    pub fn prg_calls(&self) -> u64 {
        self.prg_calls
    }

    /// Derives leaf `i` of `src`, reusing the part of the previous path
    /// that leads to it.
    pub fn leaf<S: TokenSource>(&mut self, src: &S, i: u64) -> Result<Seed128, CoreError> {
        struct Leaf<'a, S>(&'a mut LeafCursor, &'a S, u64);
        impl<S: TokenSource> Job for Leaf<'_, S> {
            type Output = Result<Seed128, CoreError>;
            #[inline(always)]
            fn run<B: Backend>(self, b: B) -> Self::Output {
                self.0.leaf_with(self.1, self.2, b)
            }
        }
        Dispatch::detect().run(Leaf(self, src, i))
    }

    /// [`leaf`](Self::leaf) with each PRG step on `b`, inlined (the chunk
    /// sealing kernel's job).
    #[inline(always)]
    pub fn leaf_with<S: TokenSource, B: Backend>(
        &mut self,
        src: &S,
        i: u64,
        b: B,
    ) -> Result<Seed128, CoreError> {
        let token = src.covering(i)?;
        let levels = src.height() - token.label.depth;
        let same_path = self.path.len() == levels as usize + 1
            && matches!(&self.top, Some((t, prg)) if t == token && *prg == src.prg());
        // Both leaves lie under the token, so they differ only in the low
        // `levels` bits; everything above the highest differing bit is kept.
        let keep = if same_path {
            levels - (u64::BITS - (self.index ^ i).leading_zeros()) as u8
        } else {
            self.top = Some((token.clone(), src.prg()));
            self.path.clear();
            self.path.reserve_exact(levels as usize + 1);
            self.path.push(token.node);
            0
        };
        self.index = i;
        self.prg_calls += u64::from(levels - keep);
        self.path.truncate(keep as usize + 1);
        let from = self.path[keep as usize];
        let path = &mut self.path;
        Ok(descend(b, src.prg(), from, levels - keep, i, |node| {
            path.push(node)
        }))
    }

    /// The boundary leaves `(leaf_i, leaf_{i+1})` of chunk `i` — what both
    /// the digest keys and the payload key of a chunk are made from.
    pub fn boundary_leaves<S: TokenSource>(
        &mut self,
        src: &S,
        chunk: u64,
    ) -> Result<(Seed128, Seed128), CoreError> {
        let l0 = self.leaf(src, chunk)?;
        let l1 = self.leaf(src, chunk + 1)?;
        Ok((l0, l1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_crypto::backend::Portable;

    fn tree(h: u8) -> TreeKd {
        TreeKd::new([7u8; 16], h, PrgKind::Sha256).unwrap()
    }

    #[test]
    fn rejects_bad_height() {
        assert!(TreeKd::new([0u8; 16], 0, PrgKind::Aes).is_err());
        assert!(TreeKd::new([0u8; 16], 64, PrgKind::Aes).is_err());
        assert!(TreeKd::new([0u8; 16], 63, PrgKind::Aes).is_ok());
    }

    #[test]
    fn leaf_derivation_is_deterministic_and_distinct() {
        let t = tree(8);
        let l0 = t.leaf(0).unwrap();
        let l1 = t.leaf(1).unwrap();
        assert_eq!(l0, t.leaf(0).unwrap());
        assert_ne!(l0, l1);
        assert!(t.leaf(256).is_err());
    }

    #[test]
    fn node_walk_matches_prg_by_hand() {
        let t = tree(3);
        // Leaf 5 = 0b101: right, left, right from the root.
        let prg = PrgKind::Sha256;
        let mut v = [7u8; 16];
        v = prg.child(Portable, &v, true);
        v = prg.child(Portable, &v, false);
        v = prg.child(Portable, &v, true);
        assert_eq!(t.leaf(5).unwrap(), v);
    }

    #[test]
    fn boundary_leaves_are_leaves_i_and_i_plus_one() {
        let t = tree(6);
        let grant = t.token_set(5, 41).unwrap();
        for i in 0..66 {
            let want = t.leaf(i).and_then(|l| Ok((l, t.leaf(i + 1)?)));
            assert_eq!(boundary_leaves(&t, i).ok(), want.ok(), "tree, chunk {i}");
            let want = grant.leaf(i).and_then(|l| Ok((l, grant.leaf(i + 1)?)));
            assert_eq!(
                boundary_leaves(&grant, i).ok(),
                want.ok(),
                "grant, chunk {i}"
            );
        }
    }

    #[test]
    fn cover_full_tree_is_root() {
        let t = tree(4);
        let c = t.cover(0, 15).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].label, NodeLabel { depth: 0, index: 0 });
    }

    #[test]
    fn cover_half_tree_is_one_token() {
        let t = tree(4);
        let c = t.cover(0, 7).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].label, NodeLabel { depth: 1, index: 0 });
        let c = t.cover(8, 15).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].label, NodeLabel { depth: 1, index: 1 });
    }

    #[test]
    fn cover_is_exact_partition() {
        // For every range in a height-6 tree, the cover's leaf ranges must
        // tile [lo, hi] exactly, with no overlap and no excess.
        let t = tree(6);
        for lo in 0..64u64 {
            for hi in lo..64u64 {
                let c = t.cover(lo, hi).unwrap();
                let mut covered: Vec<u64> = Vec::new();
                for tok in &c {
                    covered.extend(tok.label.leaf_range(6));
                }
                covered.sort_unstable();
                let expect: Vec<u64> = (lo..=hi).collect();
                assert_eq!(covered, expect, "range [{lo},{hi}]");
                // Paper bound: at most 2h tokens.
                assert!(c.len() <= 12, "cover size {} for [{lo},{hi}]", c.len());
            }
        }
    }

    #[test]
    fn figure2_example_eight_keys_single_token() {
        // Fig. 2's toy example: eight keys shared with a single access token.
        let t = tree(3);
        let c = t.cover(0, 7).unwrap();
        assert_eq!(c.len(), 1, "eight leaves of a height-3 tree = the root");
    }

    #[test]
    fn token_set_derives_only_covered_leaves() {
        let t = tree(8);
        let ts = t.token_set(10, 20).unwrap();
        for i in 10..=20 {
            assert_eq!(ts.leaf(i).unwrap(), t.leaf(i).unwrap(), "leaf {i}");
        }
        for i in [0u64, 9, 21, 100, 255] {
            assert_eq!(
                ts.leaf(i),
                Err(CoreError::OutOfScope { index: i }),
                "leaf {i}"
            );
        }
    }

    #[test]
    fn token_set_covers_predicate() {
        let t = tree(8);
        let ts = t.token_set(10, 20).unwrap();
        assert!(ts.covers(10, 20));
        assert!(ts.covers(12, 15));
        assert!(!ts.covers(9, 20));
        assert!(!ts.covers(10, 21));
        assert!(!ts.covers(0, 255));
        // Degenerate (inverted) window on an empty set: any verdict is fine,
        // it just must not panic.
        let _ = TokenSet::empty(8, PrgKind::Sha256).covers(5, 4);
    }

    #[test]
    fn full_token_set_covers_everything() {
        let t = tree(10);
        let ts = t.full_token_set();
        assert!(ts.covers(0, 1023));
        assert_eq!(ts.leaf(777).unwrap(), t.leaf(777).unwrap());
    }

    #[test]
    fn extend_merges_grants() {
        let t = tree(8);
        let mut ts = t.token_set(0, 9).unwrap();
        assert!(!ts.covers(0, 19));
        ts.extend(t.cover(10, 19).unwrap());
        assert!(ts.covers(0, 19));
        assert_eq!(ts.leaf(15).unwrap(), t.leaf(15).unwrap());
    }

    #[test]
    fn disjoint_grants_leave_gap() {
        let t = tree(8);
        let mut ts = t.token_set(0, 4).unwrap();
        ts.extend(t.cover(10, 14).unwrap());
        assert!(ts.covers(0, 4));
        assert!(ts.covers(10, 14));
        assert!(!ts.covers(0, 14));
        assert_eq!(ts.leaf(7), Err(CoreError::OutOfScope { index: 7 }));
    }

    #[test]
    fn all_prgs_consistent_between_tree_and_tokens() {
        for prg in [PrgKind::Aes, PrgKind::Sha256] {
            let t = TreeKd::new([3u8; 16], 10, prg).unwrap();
            let ts = t.token_set(100, 300).unwrap();
            for i in [100u64, 101, 200, 299, 300] {
                assert_eq!(ts.leaf(i).unwrap(), t.leaf(i).unwrap());
            }
        }
    }

    #[test]
    fn leaf_range_math() {
        let l = NodeLabel { depth: 2, index: 3 };
        assert_eq!(l.leaf_range(4), 12..16);
        assert_eq!(l.span(4), 4);
        let root = NodeLabel { depth: 0, index: 0 };
        assert_eq!(root.leaf_range(10), 0..1024);
    }
}
