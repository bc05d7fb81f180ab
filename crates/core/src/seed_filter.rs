//! Seed-and-filter k-mismatch matching over the BWT index.
//!
//! The index-based counterpart of the Amir baseline, and what production
//! read aligners in the BWT family (the paper cites Li & Homer's survey)
//! actually ship: by the pigeonhole principle, an occurrence with at most
//! `k` mismatches contains at least one of `k + 1` disjoint pattern
//! blocks *exactly*, so exact FM-index searches for the blocks enumerate
//! a candidate set that bounded direct comparison then verifies.
//!
//! Not part of the paper's comparison set — included as the natural
//! modern baseline the paper's introduction gestures at, and as a second
//! index-based method whose candidates exercise `locate` heavily.

use std::collections::HashMap;

use kmm_bwt::FmIndex;
use kmm_classic::Occurrence;
use kmm_dna::hamming_bounded;

use kmm_telemetry::SearchStats;

/// Seed-and-filter searcher.
///
/// Holds the reverse-text FM-index (shared with the tree searches) and
/// the forward text for verification.
#[derive(Debug, Clone, Copy)]
pub struct SeedFilterSearch<'a> {
    fm: &'a FmIndex,
    text: &'a [u8],
}

impl<'a> SeedFilterSearch<'a> {
    /// `fm` must index `reverse(text) + $`.
    pub fn new(fm: &'a FmIndex, text: &'a [u8]) -> Self {
        debug_assert_eq!(fm.len(), text.len() + 1);
        SeedFilterSearch { fm, text }
    }

    /// All occurrences of `pattern` with at most `k` mismatches, sorted.
    pub fn search(&self, pattern: &[u8], k: usize) -> (Vec<Occurrence>, SearchStats) {
        let mut stats = SearchStats::default();
        let n = self.text.len();
        let m = pattern.len();
        if m == 0 || m > n {
            return (Vec::new(), stats);
        }
        if m <= k {
            // Degenerate: every window qualifies.
            let out = (0..=n - m)
                .map(|position| Occurrence {
                    position,
                    mismatches: kmm_dna::hamming(&self.text[position..position + m], pattern),
                })
                .collect::<Vec<_>>();
            stats.occurrences = out.len() as u64;
            return (out, stats);
        }

        // k + 1 disjoint blocks covering the pattern.
        let blocks = k + 1;
        let base = m / blocks;
        let extra = m % blocks;
        let mut candidates: HashMap<usize, ()> = HashMap::new();
        let mut off = 0usize;
        for b in 0..blocks {
            let len = base + usize::from(b < extra);
            let seed = &pattern[off..off + len];
            // Exact search of the seed: the index holds reverse(text), so
            // search the reversed seed (one rank extension per symbol).
            let mut iv = self.fm.whole();
            for &sym in seed {
                stats.rank_extensions += 1;
                iv = self.fm.extend_backward(iv, sym);
                if iv.is_empty() {
                    break;
                }
            }
            for row in iv.rows() {
                let p_rev = self.fm.sa_value(row) as usize;
                // Seed occupies text[n - p_rev - len ..][..len]; candidate
                // pattern start subtracts the block offset.
                let seed_start = n - p_rev - len;
                if seed_start >= off && seed_start - off + m <= n {
                    candidates.insert(seed_start - off, ());
                }
            }
            off += len;
        }

        let mut out: Vec<Occurrence> = candidates
            .into_keys()
            .filter_map(|position| {
                hamming_bounded(&self.text[position..position + m], pattern, k).map(|mismatches| {
                    Occurrence {
                        position,
                        mismatches,
                    }
                })
            })
            .collect();
        out.sort_unstable();
        stats.occurrences = out.len() as u64;
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::FmBuildConfig;
    use kmm_classic::naive;

    fn setup(s: &[u8]) -> (FmIndex, Vec<u8>) {
        let text = s.to_vec();
        let mut rev = text.clone();
        rev.reverse();
        rev.push(0);
        (FmIndex::new(&rev, FmBuildConfig::default()), text)
    }

    #[test]
    fn paper_figure3_example() {
        let s = kmm_dna::encode(b"acagaca").unwrap();
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let (fm, text) = setup(&s);
        let sf = SeedFilterSearch::new(&fm, &text);
        let (occ, _) = sf.search(&r, 2);
        assert_eq!(occ, naive::find_k_mismatch(&s, &r, 2));
    }

    #[test]
    fn random_agrees_with_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(606);
        for _ in 0..60 {
            let n = rng.gen_range(1..300);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let (fm, text) = setup(&s);
            let sf = SeedFilterSearch::new(&fm, &text);
            let m = rng.gen_range(1..=n.min(20));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 0..5usize {
                assert_eq!(
                    sf.search(&r, k).0,
                    naive::find_k_mismatch(&s, &r, k),
                    "s={s:?} r={r:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn k_zero_is_pure_exact_search() {
        let s = kmm_dna::encode(b"acacacacac").unwrap();
        let (fm, text) = setup(&s);
        let sf = SeedFilterSearch::new(&fm, &text);
        let r = kmm_dna::encode(b"cac").unwrap();
        let (occ, _) = sf.search(&r, 0);
        assert_eq!(
            occ.iter().map(|o| o.position).collect::<Vec<_>>(),
            vec![1, 3, 5, 7]
        );
    }

    #[test]
    fn degenerate_small_patterns() {
        let s = kmm_dna::encode(b"acgtac").unwrap();
        let (fm, text) = setup(&s);
        let sf = SeedFilterSearch::new(&fm, &text);
        let r = kmm_dna::encode(b"gg").unwrap();
        // m <= k path.
        assert_eq!(sf.search(&r, 2).0, naive::find_k_mismatch(&s, &r, 2));
        assert!(sf.search(&[], 1).0.is_empty());
    }

    #[test]
    fn repetitive_candidates_deduplicate() {
        let s = kmm_dna::encode(&b"acg".repeat(50)).unwrap();
        let (fm, text) = setup(&s);
        let sf = SeedFilterSearch::new(&fm, &text);
        let r = kmm_dna::encode(b"acgacgacg").unwrap();
        for k in 0..4 {
            let (occ, _) = sf.search(&r, k);
            assert_eq!(occ, naive::find_k_mismatch(&s, &r, k), "k={k}");
        }
    }
}
