//! Workspace-level property tests: the global invariants that tie the
//! crates together, driven by proptest over generated workloads.

use bwt_kmismatch::{KMismatchIndex, Method};
use proptest::prelude::*;

fn dna(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(1u8..=4, 1..max)
}

/// A text made of a repeated unit with scattered corruption — the regime
/// where index structures are most easily broken (heavy interval sharing,
/// long BWT runs, deep LCP intervals).
fn corrupted_periodic() -> impl Strategy<Value = Vec<u8>> {
    (
        dna(6),
        10usize..60,
        proptest::collection::vec((any::<prop::sample::Index>(), 1u8..=4), 0..8),
    )
        .prop_map(|(unit, copies, edits)| {
            let mut text: Vec<u8> = unit
                .iter()
                .copied()
                .cycle()
                .take(unit.len() * copies)
                .collect();
            for (idx, sym) in edits {
                let p = idx.index(text.len());
                text[p] = sym;
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_index_methods_equal_naive(
        text in dna(250),
        pattern in dna(20),
        k in 0usize..5,
    ) {
        let index = KMismatchIndex::new(text);
        let want = index.search(&pattern, k, Method::Naive).occurrences;
        for method in [
            Method::ALGORITHM_A,
            Method::Bwt { use_phi: true },
            Method::Cole,
            Method::SeedFilter,
            Method::Amir,
        ] {
            prop_assert_eq!(
                index.search(&pattern, k, method).occurrences.clone(),
                want.clone(),
                "{}", method.label()
            );
        }
    }

    #[test]
    fn periodic_texts_hold_all_invariants(
        text in corrupted_periodic(),
        pattern in dna(12),
        k in 0usize..4,
    ) {
        let index = KMismatchIndex::new(text.clone());
        let want = index.search(&pattern, k, Method::Naive).occurrences;
        let got = index.search(&pattern, k, Method::ALGORITHM_A).occurrences;
        prop_assert_eq!(&got, &want);
        // Occurrence annotations are true Hamming distances.
        for o in &got {
            let w = &text[o.position..o.position + pattern.len()];
            prop_assert_eq!(o.mismatches, kmm_dna::hamming(w, &pattern));
        }
    }

    #[test]
    fn monotonicity_in_k(text in dna(200), pattern in dna(15)) {
        // Raising k can only add occurrences, and every k-level hit set is
        // a prefix-filtered superset of the previous.
        let index = KMismatchIndex::new(text);
        let mut prev: Vec<usize> = Vec::new();
        for k in 0..5 {
            let cur: Vec<usize> = index
                .search(&pattern, k, Method::ALGORITHM_A)
                .occurrences
                .iter()
                .map(|o| o.position)
                .collect();
            for p in &prev {
                prop_assert!(cur.contains(p), "k={k} lost position {p}");
            }
            prev = cur;
        }
    }

    #[test]
    fn index_survives_serialization(text in dna(300), pattern in dna(10)) {
        let index = KMismatchIndex::new(text);
        let mut bytes = Vec::new();
        index.fm().save(&mut bytes).unwrap();
        let (fm, _) = bwt_kmismatch::bwt::FmIndex::load(&bytes[..]).unwrap();
        let mut rev = fm.reconstruct_text();
        rev.pop();
        rev.reverse();
        let loaded = KMismatchIndex::from_parts(rev, fm);
        for k in 0..3 {
            prop_assert_eq!(
                loaded.search(&pattern, k, Method::ALGORITHM_A).occurrences,
                index.search(&pattern, k, Method::ALGORITHM_A).occurrences
            );
        }
    }

    #[test]
    fn k_errors_contains_k_mismatches(
        text in dna(120),
        pattern in dna(8),
        k in 0usize..3,
    ) {
        let index = KMismatchIndex::new(text);
        let hamming = index.search(&pattern, k, Method::ALGORITHM_A).occurrences;
        let (edits, _) = index.search_k_errors(&pattern, k);
        for h in hamming {
            prop_assert!(
                edits.iter().any(|e| e.position == h.position
                    && e.length == pattern.len()
                    && e.distance <= h.mismatches),
                "hamming hit at {} not covered", h.position
            );
        }
    }
}
