//! The S-tree search: brute-force k-mismatch matching over `BWT(s̄)`.
//!
//! This is the BWT-based baseline of \[34\] as recapped in Section IV-A of
//! the paper: a depth-first exploration in which every node is a pair
//! `<x, [α, β]>`, a child is produced for each symbol occurring in the
//! parent's `L`-range (one `search()` = one backward extension), and a
//! branch is abandoned once its mismatch array `B` holds `k + 1` entries.
//! The optional `φ(i)` heuristic prunes branches whose remaining pattern
//! provably needs more mismatches than the remaining budget.
//!
//! Its cost is `O(m n')` where `n'` counts the S-tree leaves — the
//! redundancy Algorithm A removes.

use kmm_bwt::{FmIndex, Interval};
use kmm_classic::Occurrence;
use kmm_dna::BASES;
use kmm_telemetry::{Hist, NoopRecorder, Phase, PruneCause, Recorder};

use crate::cancel::{CancelToken, Gate, Outcome};
use crate::phi::phi_table;
use crate::stats::SearchStats;

/// Map a match of length `m` found at position `p` of the *reversed* text
/// back to its start position in the forward text of length `text_len`.
#[inline]
pub(crate) fn rev_pos_to_forward(text_len: usize, p: usize, m: usize) -> usize {
    debug_assert!(p + m <= text_len);
    text_len - p - m
}

/// Collect the occurrences represented by a completed search interval.
pub(crate) fn report_interval(
    fm: &FmIndex,
    text_len: usize,
    iv: Interval,
    m: usize,
    mismatches: usize,
    out: &mut Vec<Occurrence>,
) {
    for row in iv.rows() {
        let p = fm.sa_value(row) as usize;
        out.push(Occurrence {
            position: rev_pos_to_forward(text_len, p, m),
            mismatches,
        });
    }
}

/// The brute-force S-tree searcher (paper's "BWT" method).
#[derive(Debug, Clone, Copy)]
pub struct STreeSearch<'a> {
    fm: &'a FmIndex,
    text_len: usize,
    /// Enable the `φ(i)` pruning heuristic of \[34\].
    pub use_phi: bool,
}

impl<'a> STreeSearch<'a> {
    /// `fm` must index `reverse(s) + $`; `text_len = |s|` (no sentinel).
    pub fn new(fm: &'a FmIndex, text_len: usize) -> Self {
        debug_assert_eq!(fm.len(), text_len + 1);
        STreeSearch {
            fm,
            text_len,
            use_phi: true,
        }
    }

    /// All occurrences of `pattern` in the forward text with at most `k`
    /// mismatches, sorted by position, plus search statistics.
    pub fn search(&self, pattern: &[u8], k: usize) -> (Vec<Occurrence>, SearchStats) {
        self.search_with(pattern, k, None, &NoopRecorder)
            .into_inner()
    }

    /// [`Self::search`] with telemetry and an optional cancellation
    /// token. φ-table construction is timed as `preprocess.phi`, leaf
    /// widths/depths go to histograms, and the final [`SearchStats`] are
    /// added to the `search.*` counters. With a token the DFS polls it at
    /// node-expansion granularity and unwinds once it expires, returning
    /// [`Outcome::Truncated`] with every occurrence verified so far;
    /// without one the walk always completes.
    pub fn search_with<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let gate = Gate::new(token);
        let mut stats = SearchStats::default();
        let m = pattern.len();
        if m == 0 || m > self.text_len {
            return Outcome::Complete((Vec::new(), stats));
        }
        let phi = if self.use_phi {
            let _span = recorder.span(Phase::PreprocessPhi);
            Some(phi_table(self.fm, pattern))
        } else {
            None
        };
        let mut out = Vec::new();
        {
            let _span = recorder.span(Phase::SearchDescend);
            self.dfs(
                self.fm.whole(),
                0,
                0,
                pattern,
                k,
                phi.as_deref(),
                &gate,
                &mut out,
                &mut stats,
                recorder,
            );
        }
        out.sort_unstable();
        stats.occurrences = out.len() as u64;
        stats.timeouts = u64::from(gate.tripped());
        stats.record_into(recorder);
        Outcome::from_parts((out, stats), gate.tripped())
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs<R: Recorder>(
        &self,
        iv: Interval,
        mut j: usize,
        mut mism: usize,
        pattern: &[u8],
        k: usize,
        phi: Option<&[u32]>,
        gate: &Gate<'_>,
        out: &mut Vec<Occurrence>,
        stats: &mut SearchStats,
        recorder: &R,
    ) {
        // One relaxed load per node expansion; chains below are bounded
        // by m, so per-expansion is as fine as cancellation needs.
        if gate.should_stop() {
            return;
        }
        if iv.is_empty() {
            return;
        }
        let m = pattern.len();
        // Singleton fast path: a 1-row interval has exactly one possible
        // extension (by `L[row]`), so the chain is followed with one rank
        // lookup per symbol and no branching.
        if iv.len() == 1 {
            let mut row = iv.lo;
            loop {
                stats.nodes_visited += 1;
                if recorder.wants_depths() {
                    recorder.depth_expand(j);
                }
                if j == m {
                    stats.leaves += 1;
                    recorder.observe(Hist::IntervalWidth, 1);
                    recorder.observe(Hist::TerminationDepth, m as u64);
                    report_interval(
                        self.fm,
                        self.text_len,
                        Interval::new(row, row + 1),
                        m,
                        mism,
                        out,
                    );
                    return;
                }
                if let Some(phi) = phi {
                    if ((k - mism) as u32) < phi[j] {
                        stats.phi_prunes += 1;
                        stats.leaves += 1;
                        recorder.observe(Hist::IntervalWidth, 1);
                        recorder.observe(Hist::TerminationDepth, j as u64);
                        if recorder.wants_depths() {
                            recorder.depth_prune(j, PruneCause::Cutoff);
                        }
                        return;
                    }
                }
                let sym = self.fm.l_symbol(row);
                if sym == kmm_dna::SENTINEL {
                    stats.leaves += 1;
                    recorder.observe(Hist::IntervalWidth, 1);
                    recorder.observe(Hist::TerminationDepth, j as u64);
                    if recorder.wants_depths() {
                        recorder.depth_prune(j + 1, PruneCause::EmptyInterval);
                    }
                    return;
                }
                mism += usize::from(sym != pattern[j]);
                if mism > k {
                    stats.leaves += 1;
                    recorder.observe(Hist::IntervalWidth, 1);
                    recorder.observe(Hist::TerminationDepth, j as u64);
                    if recorder.wants_depths() {
                        recorder.depth_prune(j + 1, PruneCause::Budget);
                    }
                    return;
                }
                stats.rank_extensions += 1;
                row = self.fm.lf_with(row, sym);
                j += 1;
            }
        }

        stats.nodes_visited += 1;
        if recorder.wants_depths() {
            recorder.depth_expand(j);
        }
        if j == m {
            stats.leaves += 1;
            recorder.observe(Hist::IntervalWidth, iv.len() as u64);
            recorder.observe(Hist::TerminationDepth, m as u64);
            report_interval(self.fm, self.text_len, iv, m, mism, out);
            return;
        }
        // The heuristic of [34]: every absent substring of r[j..] forces a
        // mismatch, so a branch with fewer remaining mismatches than φ(j)
        // cannot complete.
        if let Some(phi) = phi {
            if ((k - mism) as u32) < phi[j] {
                stats.phi_prunes += 1;
                stats.leaves += 1;
                recorder.observe(Hist::IntervalWidth, iv.len() as u64);
                recorder.observe(Hist::TerminationDepth, j as u64);
                if recorder.wants_depths() {
                    recorder.depth_prune(j, PruneCause::Cutoff);
                }
                return;
            }
        }
        // One fused rank sweep resolves all four children: two block
        // visits (lo/hi boundary) replace the eight occ lookups of four
        // independent extensions, and empty children are skipped before
        // any per-child work.
        stats.rank_extensions += 1;
        stats.occ_fused += 1;
        let children = self.fm.extend_all(iv);
        // Hint the next level's rank blocks into cache while this level
        // does its per-child bookkeeping; the descent below re-extends
        // each surviving child, and its boundary blocks are exactly what
        // these advisory prefetches pull in.
        for child in &children {
            if !child.is_empty() {
                self.fm.prefetch_interval(*child);
            }
        }
        let mut any_child = false;
        for y in 1..=BASES as u8 {
            let child = children[(y - 1) as usize];
            if child.is_empty() {
                if recorder.wants_depths() {
                    recorder.depth_prune(j + 1, PruneCause::EmptyInterval);
                }
                continue;
            }
            let is_match = y == pattern[j];
            if !is_match && mism == k {
                if recorder.wants_depths() {
                    recorder.depth_prune(j + 1, PruneCause::Budget);
                }
                continue;
            }
            any_child = true;
            self.dfs(
                child,
                j + 1,
                mism + usize::from(!is_match),
                pattern,
                k,
                phi,
                gate,
                out,
                stats,
                recorder,
            );
        }
        if !any_child {
            stats.leaves += 1;
            recorder.observe(Hist::IntervalWidth, iv.len() as u64);
            recorder.observe(Hist::TerminationDepth, (j + 1) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::FmBuildConfig;
    use kmm_classic::naive;

    /// Build the reverse-text index for a forward ASCII target.
    pub(crate) fn rev_fm(ascii: &[u8]) -> (FmIndex, usize) {
        let mut rev = kmm_dna::encode(ascii).unwrap();
        rev.reverse();
        rev.push(0);
        (FmIndex::new(&rev, FmBuildConfig::default()), ascii.len())
    }

    #[test]
    fn paper_figure3_search() {
        // Section IV-A: r = tcaca, s = acagaca, k = 2; the S-tree finds two
        // occurrences: s[1..5] = acaga and s[3..7] = agaca (1-based).
        let (fm, n) = rev_fm(b"acagaca");
        let st = STreeSearch::new(&fm, n);
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let (occ, stats) = st.search(&r, 2);
        let positions: Vec<usize> = occ.iter().map(|o| o.position).collect();
        assert_eq!(positions, vec![0, 2]); // 0-based starts of the two hits
        assert_eq!(occ[0].mismatches, 2);
        assert_eq!(occ[1].mismatches, 2);
        assert!(stats.leaves >= 2);
        assert_eq!(stats.occurrences, 2);
    }

    #[test]
    fn agrees_with_naive_with_and_without_phi() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        for _ in 0..50 {
            let n = rng.gen_range(1..200);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let ascii = kmm_dna::decode(&s);
            let (fm, len) = rev_fm(&ascii);
            let m = rng.gen_range(1..=n.min(15));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 0..4usize.min(m) {
                let want = naive::find_k_mismatch(&s, &r, k);
                let mut with_phi = STreeSearch::new(&fm, len);
                with_phi.use_phi = true;
                let (got, _) = with_phi.search(&r, k);
                assert_eq!(got, want, "phi=on s={s:?} r={r:?} k={k}");
                let mut without = STreeSearch::new(&fm, len);
                without.use_phi = false;
                let (got, _) = without.search(&r, k);
                assert_eq!(got, want, "phi=off s={s:?} r={r:?} k={k}");
            }
        }
    }

    #[test]
    fn exact_search_is_k0() {
        let (fm, n) = rev_fm(b"acagaca");
        let st = STreeSearch::new(&fm, n);
        let r = kmm_dna::encode(b"aca").unwrap();
        let (occ, _) = st.search(&r, 0);
        assert_eq!(
            occ.iter().map(|o| o.position).collect::<Vec<_>>(),
            vec![0, 4]
        );
        assert!(occ.iter().all(|o| o.mismatches == 0));
    }

    #[test]
    fn phi_reduces_explored_nodes() {
        // A pattern with many absent substrings should get pruned earlier
        // with the heuristic enabled.
        let g = kmm_dna::genome::uniform(2000, 9);
        let ascii = kmm_dna::decode(&g);
        let (fm, n) = rev_fm(&ascii);
        let r = kmm_dna::encode(b"ttttgggggtttttggggg").unwrap();
        let mut with_phi = STreeSearch::new(&fm, n);
        with_phi.use_phi = true;
        let mut without = STreeSearch::new(&fm, n);
        without.use_phi = false;
        let (a, sa) = with_phi.search(&r, 3);
        let (b, sb) = without.search(&r, 3);
        assert_eq!(a, b);
        assert!(sa.nodes_visited <= sb.nodes_visited);
        assert!(sa.phi_prunes > 0 || sa.nodes_visited == sb.nodes_visited);
    }

    #[test]
    fn oversized_and_empty_patterns() {
        let (fm, n) = rev_fm(b"acg");
        let st = STreeSearch::new(&fm, n);
        assert!(st.search(&[], 1).0.is_empty());
        let long = kmm_dna::encode(b"acgta").unwrap();
        assert!(st.search(&long, 1).0.is_empty());
    }

    #[test]
    fn k_equal_to_m_matches_every_window() {
        let (fm, n) = rev_fm(b"acgtacg");
        let st = STreeSearch::new(&fm, n);
        let r = kmm_dna::encode(b"tt").unwrap();
        let (occ, _) = st.search(&r, 2);
        assert_eq!(occ.len(), n - 2 + 1);
    }
}
