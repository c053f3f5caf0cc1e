//! Property-based tests for the integrity layer: proofs must verify for
//! every honestly-generated shape and fail under arbitrary single-bit
//! tampering of their inputs.

use proptest::prelude::*;
use timecrypt_integrity::{chunk_commitment, SumLeaf, SumTree};

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
        let mut t = SumTree::new();
        for (i, s) in sums.iter().enumerate() {
            t.push(SumLeaf {
                commitment: chunk_commitment(&(i as u64).to_le_bytes()),
                sum: s.clone(),
            }).unwrap();
        }
        let proof = t.range_proof(lo, hi, n).unwrap();
        let got = proof.verify(&t.root()).unwrap();
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
        let proof = cheat.range_proof(0, n, n).unwrap();
        prop_assert!(proof.verify(&honest_root).is_err());
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
        use timecrypt_integrity::RangeProof;
        let lo = lo % n;
        let hi = (lo + len).min(n).max(lo + 1);
        let mut t = SumTree::new();
        for i in 0..n as u64 {
            t.push(SumLeaf { commitment: chunk_commitment(&i.to_le_bytes()), sum: vec![i, 7] }).unwrap();
        }
        let proof = if open {
            t.range_proof_open(lo, hi, n).unwrap()
        } else {
            t.range_proof(lo, hi, n).unwrap()
        };
        let decoded = RangeProof::decode(&proof.encode()).unwrap();
        prop_assert_eq!(&decoded, &proof);
        prop_assert!(decoded.verify(&t.root()).is_ok());
        if open {
            prop_assert_eq!(decoded.verify_open(&t.root()).unwrap().len(), hi - lo);
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
        let mut t = SumTree::new();
        for (i, s) in sums.iter().enumerate() {
            t.push(SumLeaf { commitment: chunk_commitment(&(i as u64).to_le_bytes()), sum: s.clone() }).unwrap();
        }
        let leaves = t.range_proof_open(lo, hi, n).unwrap().verify_open(&t.root()).unwrap();
        for (off, leaf) in leaves.iter().enumerate() {
            prop_assert_eq!(&leaf.sum, &sums[lo + off]);
            prop_assert_eq!(leaf.commitment, chunk_commitment(&((lo + off) as u64).to_le_bytes()));
        }
    }
}
