//! Cross-method equivalence: every matcher in the suite must return the
//! identical occurrence list on the identical query — the suite's central
//! integration invariant, exercised over targeted regimes (repetitive,
//! periodic, biased, realistic) that stress different code paths.

use bwt_kmismatch::{KMismatchIndex, Method, Occurrence};
use rand::{Rng, SeedableRng};

const ALL_METHODS: [Method; 10] = [
    Method::Naive,
    Method::Kangaroo,
    Method::Amir,
    Method::Cole,
    Method::Bwt { use_phi: true },
    Method::Bwt { use_phi: false },
    Method::AlgorithmA { reuse: true },
    Method::AlgorithmA { reuse: false },
    Method::SeedFilter,
    Method::Bidirectional,
];

fn assert_all_agree(text: &[u8], pattern: &[u8], k: usize) -> Vec<Occurrence> {
    let index = KMismatchIndex::new(text.to_vec());
    let want = index.search(pattern, k, Method::Naive).occurrences;
    for method in ALL_METHODS {
        let got = index.search(pattern, k, method).occurrences;
        assert_eq!(
            got,
            want,
            "{} disagrees: text len {}, pattern {:?}, k {}",
            method.label(),
            text.len(),
            pattern,
            k
        );
    }
    want
}

#[test]
fn uniform_random_queries() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for _ in 0..30 {
        let n = rng.gen_range(20..400);
        let text: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
        let m = rng.gen_range(1..=n.min(25));
        let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
        let k = rng.gen_range(0..6);
        assert_all_agree(&text, &pattern, k);
    }
}

#[test]
fn periodic_targets_and_patterns() {
    // Tandem repeats are where S-tree pair sharing actually fires; make
    // sure correctness holds there.
    for (unit, copies) in [(&b"ac"[..], 80), (b"acg", 60), (b"aacgt", 40), (b"a", 150)] {
        let text = kmm_dna::encode(&unit.repeat(copies)).unwrap();
        for (pu, pc) in [(&b"ac"[..], 5), (b"acg", 4), (b"ca", 6)] {
            let pattern = kmm_dna::encode(&pu.repeat(pc)).unwrap();
            for k in 0..4 {
                assert_all_agree(&text, &pattern, k);
            }
        }
    }
}

#[test]
fn low_complexity_binary_texts() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for _ in 0..20 {
        let n = rng.gen_range(30..300);
        let text: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=2)).collect();
        let m = rng.gen_range(2..=n.min(15));
        let pattern: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=2)).collect();
        for k in 0..4 {
            assert_all_agree(&text, &pattern, k);
        }
    }
}

#[test]
fn realistic_reads_map_home() {
    let genome = kmm_dna::genome::markov(30_000, &kmm_dna::genome::MarkovConfig::default(), 11);
    let index = KMismatchIndex::new(genome.clone());
    let reads = kmm_dna::paper_reads(&genome, 15, 60, 3);
    for read in &reads {
        let k = read.edits.max(2);
        let want = index.search(&read.seq, k, Method::Naive).occurrences;
        assert!(
            want.iter().any(|o| o.position == read.origin),
            "read from {} not found",
            read.origin
        );
        for method in ALL_METHODS {
            assert_eq!(
                index.search(&read.seq, k, method).occurrences,
                want,
                "{}",
                method.label()
            );
        }
    }
}

#[test]
fn pattern_edge_sizes() {
    let text = kmm_dna::encode(b"acgtacgtacgcatgacgtacagt").unwrap();
    let index = KMismatchIndex::new(text.clone());
    // Single-symbol patterns.
    for sym in 1..=4u8 {
        for k in 0..2 {
            assert_all_agree(&text, &[sym], k);
        }
    }
    // Pattern of the full text length.
    assert_all_agree(&text, &text, 3);
    // Pattern longer than the text: all methods return nothing.
    let long = kmm_dna::encode(b"acgtacgtacgcatgacgtacagta").unwrap();
    for method in ALL_METHODS {
        assert!(index.search(&long, 5, method).occurrences.is_empty());
    }
}

#[test]
fn k_larger_than_or_equal_to_pattern() {
    let text = kmm_dna::encode(b"ttgacagtacca").unwrap();
    let pattern = kmm_dna::encode(b"gg").unwrap();
    // k = m: everything matches.
    let occ = assert_all_agree(&text, &pattern, 2);
    assert_eq!(occ.len(), text.len() - 1);
    // k > m behaves the same.
    assert_all_agree(&text, &pattern, 5);
}

#[test]
fn bidirectional_is_bit_identical_across_methods_and_thread_widths() {
    // The tentpole invariant: bidirectional scheme search returns the
    // byte-identical occurrence lists of A(.) and the S-tree at every
    // budget, and parallel batches at widths {1, 8} match the serial
    // run exactly.
    let genome = kmm_dna::genome::markov(20_000, &kmm_dna::genome::MarkovConfig::default(), 17);
    let index = KMismatchIndex::new(genome.clone());
    let reads = kmm_dna::paper_reads(&genome, 12, 30, 2);
    let patterns: Vec<Vec<u8>> = reads.into_iter().map(|r| r.seq).collect();
    for k in 0..=3usize {
        let serial: Vec<_> = patterns
            .iter()
            .map(|p| index.search(p, k, Method::Bidirectional).occurrences)
            .collect();
        for (p, hits) in patterns.iter().zip(&serial) {
            assert_eq!(
                &index
                    .search(p, k, Method::AlgorithmA { reuse: true })
                    .occurrences,
                hits,
                "A(.) disagrees at k={k}"
            );
            assert_eq!(
                &index
                    .search(p, k, Method::Bwt { use_phi: true })
                    .occurrences,
                hits,
                "S-tree disagrees at k={k}"
            );
        }
        for threads in [1usize, 8] {
            let pool = kmm_par::ThreadPool::new(threads);
            let (par, _) = index.search_batch_par(&patterns, k, Method::Bidirectional, &pool);
            assert_eq!(par, serial, "threads={threads} k={k}");
        }
    }
}

#[test]
fn mismatch_counts_are_exact_hamming_distances() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let text: Vec<u8> = (0..300).map(|_| rng.gen_range(1..=4)).collect();
    let pattern: Vec<u8> = (0..12).map(|_| rng.gen_range(1..=4)).collect();
    let index = KMismatchIndex::new(text.clone());
    for method in ALL_METHODS {
        for occ in index.search(&pattern, 4, method).occurrences {
            let window = &text[occ.position..occ.position + pattern.len()];
            assert_eq!(
                occ.mismatches,
                kmm_dna::hamming(window, &pattern),
                "{} at {}",
                method.label(),
                occ.position
            );
        }
    }
}
