//! The "Cole" baseline: brute-force k-mismatch search over a suffix tree.
//!
//! In the paper's experiments (Section V) this method builds a suffix tree
//! of the target with the `gsuffix` package and explores it while tracking
//! mismatches. We do the same over our own [`SuffixTree`]: descend edge by
//! edge, counting disagreements with the pattern, abandoning a branch at
//! `k + 1`, and reporting every leaf below a point where the pattern is
//! exhausted.

use kmm_classic::Occurrence;
use kmm_dna::SENTINEL;
use kmm_suffix::SuffixTree;

use kmm_telemetry::SearchStats;

/// Suffix-tree k-mismatch searcher.
#[derive(Debug, Clone, Copy)]
pub struct ColeSearch<'a> {
    tree: &'a SuffixTree,
}

impl<'a> ColeSearch<'a> {
    /// Search over a suffix tree of the *forward* target (sentinel
    /// included in the tree's text).
    pub fn new(tree: &'a SuffixTree) -> Self {
        ColeSearch { tree }
    }

    /// All occurrences of `pattern` with at most `k` mismatches, sorted.
    pub fn search(&self, pattern: &[u8], k: usize) -> (Vec<Occurrence>, SearchStats) {
        let mut stats = SearchStats::default();
        let mut out = Vec::new();
        let m = pattern.len();
        // The tree's text includes the sentinel; windows must fit in the
        // sentinel-free prefix.
        if m == 0 || m + 1 > self.tree.text().len() {
            return (out, stats);
        }
        self.dfs(self.tree.root(), 0, 0, pattern, k, &mut out, &mut stats);
        out.sort_unstable();
        stats.occurrences = out.len() as u64;
        (out, stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        node: u32,
        j: usize,
        mism: usize,
        pattern: &[u8],
        k: usize,
        out: &mut Vec<Occurrence>,
        stats: &mut SearchStats,
    ) {
        stats.nodes_visited += 1;
        let m = pattern.len();
        debug_assert!(j < m);
        let mut any_child = false;
        let children = self.tree.nodes()[node as usize].children;
        for child in children {
            if child == kmm_suffix::NO_NODE {
                continue;
            }
            let label = self.tree.label(child);
            let mut jj = j;
            let mut mm = mism;
            let mut dead = false;
            for &ch in label {
                if jj == m {
                    break;
                }
                if ch == SENTINEL {
                    // The window would run past the end of the target.
                    dead = true;
                    break;
                }
                if ch != pattern[jj] {
                    mm += 1;
                    if mm > k {
                        dead = true;
                        break;
                    }
                }
                jj += 1;
            }
            if dead {
                stats.leaves += 1;
                continue;
            }
            any_child = true;
            if jj == m {
                stats.leaves += 1;
                let nd = &self.tree.nodes()[child as usize];
                for rank in nd.sa_lo..nd.sa_hi {
                    let pos = self.tree.sa()[rank as usize] as usize;
                    debug_assert!(pos + m < self.tree.text().len() + 1);
                    out.push(Occurrence {
                        position: pos,
                        mismatches: mm,
                    });
                }
            } else {
                self.dfs(child, jj, mm, pattern, k, out, stats);
            }
        }
        if !any_child {
            stats.leaves += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_classic::naive;

    fn tree(ascii: &[u8]) -> SuffixTree {
        SuffixTree::new(kmm_dna::encode_text(ascii).unwrap(), kmm_dna::SIGMA)
    }

    #[test]
    fn paper_figure3_equivalent() {
        let t = tree(b"acagaca");
        let cole = ColeSearch::new(&t);
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let (occ, _) = cole.search(&r, 2);
        assert_eq!(
            occ.iter().map(|o| o.position).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn agrees_with_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(202);
        for _ in 0..50 {
            let n = rng.gen_range(1..200);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let t = SuffixTree::new(
                {
                    let mut x = s.clone();
                    x.push(0);
                    x
                },
                kmm_dna::SIGMA,
            );
            let cole = ColeSearch::new(&t);
            let m = rng.gen_range(1..=n.min(15));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 0..4usize {
                assert_eq!(
                    cole.search(&r, k).0,
                    naive::find_k_mismatch(&s, &r, k),
                    "s={s:?} r={r:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn window_never_overruns_text() {
        // Pattern of the full text length: only position 0 qualifies even
        // with a generous budget.
        let t = tree(b"acgt");
        let cole = ColeSearch::new(&t);
        let r = kmm_dna::encode(b"ttgt").unwrap();
        let (occ, _) = cole.search(&r, 4);
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].position, 0);
        assert_eq!(occ[0].mismatches, 2);
    }

    #[test]
    fn empty_and_oversized() {
        let t = tree(b"acg");
        let cole = ColeSearch::new(&t);
        assert!(cole.search(&[], 1).0.is_empty());
        let r = kmm_dna::encode(b"acgt").unwrap();
        assert!(cole.search(&r, 1).0.is_empty());
    }

    #[test]
    fn repetitive_text() {
        let t = tree(&b"ac".repeat(30));
        let cole = ColeSearch::new(&t);
        let r = kmm_dna::encode(b"acac").unwrap();
        let s = kmm_dna::encode(&b"ac".repeat(30)).unwrap();
        for k in 0..3 {
            assert_eq!(cole.search(&r, k).0, naive::find_k_mismatch(&s, &r, k));
        }
    }
}
