//! # kmm-suffix
//!
//! Suffix structures for the `bwt-kmismatch` suite: linear-time suffix
//! arrays (SA-IS), Kasai LCP arrays, sparse-table RMQ, an enhanced suffix
//! array with O(1) longest-common-extension queries, and a suffix tree
//! built from SA + LCP.
//!
//! These are the substrates behind the paper's index construction
//! (Section III-B builds `BWT(s̄)` from a suffix array) and behind two of
//! its baselines (Cole's suffix-tree search and the kangaroo verification
//! used by Amir's method).

pub mod lcp;
pub mod rmq;
pub mod sais;
pub mod suffix_array;
pub mod suffix_tree;

pub use lcp::{lcp_array, rank_array};
pub use rmq::SparseTableRmq;
pub use sais::{suffix_array, suffix_array_naive};
pub use suffix_array::EnhancedSuffixArray;
pub use suffix_tree::{StNode, SuffixTree, NO_NODE};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::sais::{suffix_array, suffix_array_naive};
    use crate::suffix_tree::SuffixTree;

    fn dna_text() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=4, 0..120).prop_map(|mut v| {
            v.push(0);
            v
        })
    }

    proptest! {
        #[test]
        fn sais_matches_naive(text in dna_text()) {
            prop_assert_eq!(suffix_array(&text, 5), suffix_array_naive(&text));
        }

        #[test]
        fn suffix_tree_always_validates(text in dna_text()) {
            let t = SuffixTree::new(text, 5);
            prop_assert!(t.validate().is_ok());
        }

        #[test]
        fn lce_symmetry(text in dna_text(), i in 0usize..130, j in 0usize..130) {
            let esa = crate::EnhancedSuffixArray::new(text.clone(), 5);
            let i = i % text.len();
            let j = j % text.len();
            prop_assert_eq!(esa.lce(i, j), esa.lce(j, i));
        }
    }
}
