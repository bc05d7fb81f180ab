//! # kmm-dna
//!
//! Substrate crate of the `bwt-kmismatch` suite: the DNA alphabet, FASTA
//! and FASTQ I/O, synthetic genome generation, sequence statistics and a
//! `wgsim`-style read simulator.
//!
//! All other crates in the workspace operate on *encoded* sequences:
//! `&[u8]` slices whose values are the alphabet codes `0..=4` with
//! `0 = '$' < 1 = 'a' < 2 = 'c' < 3 = 'g' < 4 = 't'` (paper Section III-A).
//! A *text* is an encoded sequence whose final (and only) sentinel is `$`;
//! a *pattern* is sentinel-free.

pub mod alphabet;
pub mod fasta;
pub mod fastq;
pub mod genome;
pub mod hamming;
pub mod reads;
pub mod stats;

pub use alphabet::{
    complement, decode, decode_base, decode_string, encode, encode_base, encode_text,
    is_valid_text, reverse_complement, AlphabetError, BASES, BASE_CODES, SENTINEL, SIGMA,
};
pub use hamming::{hamming, hamming_bounded, mismatch_positions};
pub use reads::{paper_reads, ErrorProfile, ReadSimConfig, ReadSimulator, SimulatedRead};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::alphabet::{decode, encode, reverse_complement};
    use crate::hamming::{hamming, hamming_bounded};

    fn dna_codes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=4, 0..max)
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(codes in dna_codes(256)) {
            let ascii = decode(&codes);
            prop_assert_eq!(encode(&ascii).unwrap(), codes);
        }

        #[test]
        fn revcomp_is_involution(codes in dna_codes(256)) {
            prop_assert_eq!(reverse_complement(&reverse_complement(&codes)), codes);
        }

        #[test]
        fn hamming_is_a_metric(
            len in 0usize..64,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=4)).collect();
            let b: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=4)).collect();
            let c: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=4)).collect();
            // Symmetry, identity and triangle inequality.
            prop_assert_eq!(hamming(&a, &b), hamming(&b, &a));
            prop_assert_eq!(hamming(&a, &a), 0);
            prop_assert!(hamming(&a, &c) <= hamming(&a, &b) + hamming(&b, &c));
        }

        #[test]
        fn bounded_agrees_with_exact(
            len in 0usize..64,
            bound in 0usize..8,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=4)).collect();
            let b: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=4)).collect();
            let d = hamming(&a, &b);
            match hamming_bounded(&a, &b, bound) {
                Some(x) => { prop_assert_eq!(x, d); prop_assert!(d <= bound); }
                None => prop_assert!(d > bound),
            }
        }
    }
}
