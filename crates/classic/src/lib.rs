//! # kmm-classic
//!
//! Online string-matching baselines: the naive reference scans (the
//! ground truth every index method is tested against), Aho–Corasick
//! multi-pattern matching, the Landau–Vishkin kangaroo method, and the
//! Amir-style mark-and-verify matcher compared against Algorithm A in
//! the paper's experiments (Section V).

pub mod aho_corasick;
pub mod amir;
pub mod kangaroo;
pub mod naive;

pub use aho_corasick::{AcMatch, AhoCorasick};
pub use amir::AmirStats;
pub use kangaroo::Kangaroo;
pub use naive::Occurrence;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{amir, kangaroo, naive};

    fn dna_seq(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=4, 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kangaroo_equals_naive(
            text in dna_seq(200),
            pattern in dna_seq(16),
            k in 0usize..5,
        ) {
            prop_assert_eq!(
                kangaroo::find_k_mismatch(&text, &pattern, k),
                naive::find_k_mismatch(&text, &pattern, k)
            );
        }

        #[test]
        fn amir_equals_naive(
            text in dna_seq(200),
            pattern in dna_seq(24),
            k in 0usize..5,
        ) {
            prop_assert_eq!(
                amir::find_k_mismatch(&text, &pattern, k),
                naive::find_k_mismatch(&text, &pattern, k)
            );
        }
    }
}
