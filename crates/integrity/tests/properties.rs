//! Property-based tests for the integrity layer: proofs must verify for
//! every honestly-generated shape and fail under arbitrary single-bit
//! tampering of their inputs.

use proptest::prelude::*;
use timecrypt_integrity::{chunk_commitment, ProofNode, RangeProof, SumLeaf, SumTree};

/// A tree over `sums`, chunks `first..`: chunk `i`'s commitment that of `i`.
fn tree_of(sums: &[Vec<u64>], first: usize) -> SumTree {
    let mut t = SumTree::new();
    for (i, s) in sums.iter().enumerate() {
        t.push(SumLeaf {
            commitment: chunk_commitment(&((first + i) as u64).to_le_bytes()),
            sum: s.clone(),
        })
        .unwrap();
    }
    t
}

/// The RFC 6962 split of a span of `len ≥ 2` chunks: the largest power of
/// two below `len`.
fn split(len: usize) -> usize {
    1 << (len - 1).ilog2()
}

fn nodes(node: &ProofNode) -> usize {
    match node {
        ProofNode::Node { left, right } => 1 + nodes(left) + nodes(right),
        ProofNode::Summary { .. } => 0,
    }
}

/// The `k`-th `Node` of `node` in preorder, with its span `(base, len)`.
fn nth_node<'a>(
    node: &'a mut ProofNode,
    base: usize,
    len: usize,
    k: &mut usize,
) -> Option<(&'a mut ProofNode, usize, usize)> {
    if matches!(node, ProofNode::Node { .. }) {
        if *k == 0 {
            return Some((node, base, len));
        }
        *k -= 1;
    }
    match node {
        ProofNode::Node { left, right } => {
            let m = split(len);
            if let Some(found) = nth_node(left, base, m, k) {
                return Some(found);
            }
            nth_node(right, base + m, len - m, k)
        }
        ProofNode::Summary { .. } => None,
    }
}

proptest! {
    /// An honest range proof always verifies and equals the naive wrapped
    /// sum over the range, for arbitrary digest contents.
    #[test]
    fn range_proofs_match_naive_sums(
        sums in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 3), 1..40),
        lo in 0usize..40,
        len in 1usize..40,
    ) {
        let n = sums.len();
        let lo = lo % n;
        let hi = (lo + len).min(n).max(lo + 1);
        let t = tree_of(&sums, 0);
        let proof = t.range_proof(lo, hi, n, false).unwrap();
        let got = proof.verify(&t.root(), n, lo, hi).unwrap();
        let naive = sums[lo..hi].iter().fold(vec![0u64; 3], |acc, s| {
            acc.iter().zip(s).map(|(a, b)| a.wrapping_add(*b)).collect()
        });
        prop_assert_eq!(got, naive);
    }

    /// Changing any single chunk's digest in the server's tree breaks every
    /// proof touching the attested root.
    #[test]
    fn any_digest_tamper_detected(
        n in 2usize..32,
        victim in 0usize..32,
        delta in 1u64..u64::MAX,
    ) {
        let victim = victim % n;
        let build = |tamper: bool| {
            let mut t = SumTree::new();
            for i in 0..n as u64 {
                let mut sum = vec![i, 2 * i];
                if tamper && i as usize == victim {
                    sum[0] = sum[0].wrapping_add(delta);
                }
                t.push(SumLeaf { commitment: chunk_commitment(&i.to_le_bytes()), sum }).unwrap();
            }
            t
        };
        let honest_root = build(false).root();
        let cheat = build(true);
        let proof = cheat.range_proof(0, n, n, false).unwrap();
        prop_assert!(proof.verify(&honest_root, n, 0, n).is_err());
    }
}

proptest! {
    /// RangeProof wire codec: round-trips every honest proof shape (compact
    /// and open) and never panics on arbitrary bytes.
    #[test]
    fn proof_codec_total(
        n in 1usize..48,
        lo in 0usize..48,
        len in 1usize..48,
        open in any::<bool>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let lo = lo % n;
        let hi = (lo + len).min(n).max(lo + 1);
        let t = tree_of(&(0..n as u64).map(|i| vec![i, 7]).collect::<Vec<_>>(), 0);
        let proof = t.range_proof(lo, hi, n, open).unwrap();
        let decoded = RangeProof::decode(&proof.encode()).unwrap();
        prop_assert_eq!(&decoded, &proof);
        prop_assert!(decoded.verify(&t.root(), n, lo, hi).is_ok());
        if open {
            prop_assert_eq!(decoded.verify_open(&t.root(), n, lo, hi).unwrap().len(), hi - lo);
        }
        let _ = RangeProof::decode(&garbage); // must not panic
    }

    /// verify_open returns leaves in chunk order with the exact appended
    /// contents, for arbitrary digests.
    #[test]
    fn open_proofs_faithful(
        sums in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 2), 1..32),
        lo in 0usize..32,
        len in 1usize..32,
    ) {
        let n = sums.len();
        let lo = lo % n;
        let hi = (lo + len).min(n).max(lo + 1);
        let t = tree_of(&sums, 0);
        let proof = t.range_proof(lo, hi, n, true).unwrap();
        let leaves = proof.verify_open(&t.root(), n, lo, hi).unwrap();
        for (off, leaf) in leaves.iter().enumerate() {
            prop_assert_eq!(&leaf.sum, &sums[lo + off]);
            prop_assert_eq!(leaf.commitment, chunk_commitment(&((lo + off) as u64).to_le_bytes()));
        }
    }

    /// An honest proof mutated once — a byte of its encoding flipped, its
    /// encoding truncated, a node replaced by its span's true summary, or a
    /// node's children swapped — verifies over the asked window to `Err` or
    /// to exactly the honest sum (closed) or leaves (open), never to
    /// another answer.
    #[test]
    fn a_mutated_proof_is_refused_or_answers_honestly(
        sums in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 2), 1..40),
        lo in 0usize..40,
        len in 1usize..40,
        open in any::<bool>(),
        mutation in 0usize..4,
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let n = sums.len();
        let lo = lo % n;
        let hi = (lo + len).min(n).max(lo + 1);
        let t = tree_of(&sums, 0);
        let root = t.root();
        let honest = t.range_proof(lo, hi, n, open).unwrap();
        let bytes = honest.encode();
        let mutated = match mutation {
            0 => {
                let mut bytes = bytes;
                let i = at % bytes.len();
                bytes[i] ^= 1 << bit;
                RangeProof::decode(&bytes)
            }
            1 => RangeProof::decode(&bytes[..at % bytes.len()]),
            _ => {
                let mut proof = honest.clone();
                let count = nodes(&proof.0);
                if count > 0 {
                    let (node, base, len) = nth_node(&mut proof.0, 0, n, &mut (at % count)).unwrap();
                    if mutation == 2 {
                        let span = tree_of(&sums[base..base + len], base);
                        *node = ProofNode::Summary { hash: span.root(), sum: span.total() };
                    } else if let ProofNode::Node { left, right } = node {
                        std::mem::swap(left, right);
                    }
                }
                Some(proof)
            }
        };
        let Some(proof) = mutated else {
            return Ok(());
        };
        if open {
            let got = proof.verify_open(&root, n, lo, hi);
            if let Ok(leaves) = got {
                prop_assert_eq!(leaves, honest.verify_open(&root, n, lo, hi).unwrap());
            }
        } else if let Ok(sum) = proof.verify(&root, n, lo, hi) {
            prop_assert_eq!(sum, honest.verify(&root, n, lo, hi).unwrap());
        }
    }
}
