//! Bidirectional k-mismatch search driven by partition search schemes.
//!
//! The unidirectional searches (S-tree, Algorithm A) extend patterns in
//! one direction only, so every mismatch budget is spent near the root
//! where SA intervals are still huge. A *search scheme* (Kucherov et
//! al. 2014; Kianfar et al., "Optimum Search Schemes") splits the
//! pattern into `P` pieces and runs a small set of searches, each
//! processing the pieces in a different order over a [`BiFmIndex`] —
//! extending left or right as the order demands — with cumulative
//! lower/upper mismatch bounds per piece. The orders are chosen so
//! errors are forced *late*: every search starts from a piece that must
//! match exactly (or nearly so), collapsing the interval before any
//! branching is allowed.
//!
//! The precomputed tables for `k = 1..3` are complete **and disjoint**
//! (machine-checked in the tests below): every error distribution over
//! the pieces is enumerated by exactly one search, so no occurrence is
//! found twice. The pigeonhole fallback used for larger `k` is complete
//! but overlapping; results are sorted and deduped either way.

use kmm_bwt::{BiFmIndex, BiInterval, FmIndex, RankAll};
use kmm_classic::Occurrence;
use kmm_dna::BASES;
use kmm_telemetry::{Hist, NoopRecorder, Phase, PruneCause, Recorder, SearchStats};

use crate::algorithm_a::AlgorithmA;
use crate::cancel::{CancelToken, Gate, Outcome};
use crate::stree::report_interval;

/// One search of a scheme: process the pattern pieces in order
/// [`SchemeSearch::pi`]; after the `i`-th piece the cumulative mismatch
/// count must lie in `[lower[i], upper[i]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSearch {
    /// Piece permutation (0-based). Must grow a contiguous window:
    /// each piece is adjacent to the span already processed.
    pub pi: Vec<usize>,
    /// Cumulative lower mismatch bound per processed-piece prefix.
    pub lower: Vec<usize>,
    /// Cumulative upper mismatch bound per processed-piece prefix.
    pub upper: Vec<usize>,
}

/// A full search scheme for one mismatch budget `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheme {
    /// The mismatch budget the scheme enumerates.
    pub k: usize,
    /// Number of pattern pieces `P`.
    pub pieces: usize,
    /// The searches; their union covers every error distribution
    /// summing to at most `k`.
    pub searches: Vec<SchemeSearch>,
}

type RawSearch = (&'static [usize], &'static [usize], &'static [usize]);

/// k = 0: one exact search.
const K0: &[RawSearch] = &[(&[0], &[0], &[0])];

/// k = 1, P = 2: the classic bidirectional pair — each search keeps one
/// half exact and lets the error fall in the half processed second.
const K1: &[RawSearch] = &[(&[0, 1], &[0, 0], &[0, 1]), (&[1, 0], &[0, 1], &[0, 1])];

/// k = 2, P = 3: distributions partitioned by the first error-free
/// piece `j` (some piece must be exact — pigeonhole — and taking the
/// *first* one makes the classes disjoint). Search `j` keeps piece `j`
/// exact and demands one error in every earlier piece; the last search
/// can then pin its whole error profile, tightening the bounds past
/// what the plain pigeonhole searches allow.
const K2: &[RawSearch] = &[
    (&[0, 1, 2], &[0, 0, 0], &[0, 2, 2]),
    (&[1, 0, 2], &[0, 1, 1], &[0, 2, 2]),
    (&[2, 1, 0], &[0, 1, 2], &[0, 1, 2]),
];

/// k = 3, P = 4: the same first-error-free-piece classification.
/// Cumulative bounds cannot express "at least one error in *each*
/// earlier piece" when more than one budget unit is to spare, so the
/// `j = 2` class is split by how many errors piece 1 carries.
const K3: &[RawSearch] = &[
    (&[0, 1, 2, 3], &[0, 0, 0, 0], &[0, 3, 3, 3]),
    (&[1, 0, 2, 3], &[0, 1, 1, 1], &[0, 3, 3, 3]),
    (&[2, 1, 0, 3], &[0, 1, 2, 2], &[0, 1, 3, 3]),
    (&[2, 1, 0, 3], &[0, 2, 3, 3], &[0, 2, 3, 3]),
    (&[3, 2, 1, 0], &[0, 1, 2, 3], &[0, 1, 2, 3]),
];

impl Scheme {
    /// The precomputed complete-and-disjoint scheme for `k <= 3`.
    pub fn optimum(k: usize) -> Option<Scheme> {
        let raw = match k {
            0 => K0,
            1 => K1,
            2 => K2,
            3 => K3,
            _ => return None,
        };
        Some(Scheme::from_raw(k, raw))
    }

    /// The pigeonhole scheme for any `k`: `P = k + 1` pieces, search
    /// `j` keeps piece `j` exact, then sweeps left through the earlier
    /// pieces (each must carry at least one error — that is what keeps
    /// the family complete with only `k + 1` searches) and finishes
    /// rightward with the full budget. Complete for every `k`, but the
    /// searches overlap, so downstream results must be deduped.
    pub fn pigeonhole(k: usize) -> Scheme {
        let p = k + 1;
        let searches = (0..p)
            .map(|j| {
                let pi: Vec<usize> = (0..=j).rev().chain(j + 1..p).collect();
                let lower: Vec<usize> = (0..p).map(|i| i.min(j)).collect();
                let upper: Vec<usize> = std::iter::once(0)
                    .chain(std::iter::repeat_n(k, p - 1))
                    .collect();
                SchemeSearch { pi, lower, upper }
            })
            .collect();
        Scheme {
            k,
            pieces: p,
            searches,
        }
    }

    /// The scheme [`BidirSearch`] uses for budget `k`: the precomputed
    /// table when one exists, the pigeonhole fallback otherwise.
    pub fn for_k(k: usize) -> Scheme {
        Scheme::optimum(k).unwrap_or_else(|| Scheme::pigeonhole(k))
    }

    fn from_raw(k: usize, raw: &[RawSearch]) -> Scheme {
        let pieces = raw[0].0.len();
        let searches = raw
            .iter()
            .map(|&(pi, lower, upper)| SchemeSearch {
                pi: pi.to_vec(),
                lower: lower.to_vec(),
                upper: upper.to_vec(),
            })
            .collect();
        Scheme {
            k,
            pieces,
            searches,
        }
    }
}

/// One compiled DFS level: which pattern position is consumed, in which
/// direction, and the mismatch bounds in force after consuming it.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Pattern index matched at this level.
    pos: usize,
    /// `true` → [`BiFmIndex::extend_left_all`], else extend right.
    left: bool,
    /// Cumulative upper bound of the piece this step belongs to.
    upper: usize,
    /// Minimum cumulative mismatches that must already be accrued after
    /// this step for every remaining lower bound to stay reachable
    /// (each later step can add at most one mismatch).
    need: usize,
}

/// Flatten one search into an `m`-step plan over the pattern pieces
/// `[i·m/P, (i+1)·m/P)`, written into `plan` (cleared first, so one
/// buffer serves a query's searches). The first piece is consumed
/// left-to-right; every later piece extends whichever end of the
/// matched window it touches. Requires `m >= P` so every piece is
/// non-empty.
fn compile_plan(search: &SchemeSearch, m: usize, plan: &mut Vec<Step>) {
    let p = search.pi.len();
    debug_assert!(m >= p, "pieces must be non-empty");
    let bound = |piece: usize| piece * m / p;
    plan.clear();
    let mut lo = bound(search.pi[0]);
    let mut hi = lo;
    for (i, &piece) in search.pi.iter().enumerate() {
        let (s, e) = (bound(piece), bound(piece + 1));
        let upper = search.upper[i];
        let left = i > 0 && s != hi;
        let step = |pos| Step {
            pos,
            left,
            upper,
            need: 0,
        };
        if left {
            debug_assert_eq!(e, lo, "piece order must grow the window contiguously");
            plan.extend((s..e).rev().map(step));
            lo = s;
        } else {
            plan.extend((s..e).map(step));
            hi = e;
        }
        // A piece's lower bound applies at its last step.
        plan.last_mut().expect("pieces are non-empty").need = search.lower[i];
    }
    debug_assert_eq!(plan.len(), m);
    // Lookahead lower bounds: at step t the budget already spent plus
    // one per remaining step must reach every later piece's lower
    // bound, or the branch can never satisfy the scheme. Each bound
    // drops by one per step before its piece ends, so one backward
    // sweep carries the maximum.
    let mut need = 0usize;
    for step in plan.iter_mut().rev() {
        need = step.need.max(need.saturating_sub(1));
        step.need = need;
    }
}

/// The scheme-driven bidirectional searcher (`Method::Bidirectional`).
#[derive(Debug, Clone, Copy)]
pub struct BidirSearch<'a> {
    bi: BiFmIndex<'a>,
    text_len: usize,
}

impl<'a> BidirSearch<'a> {
    /// `fm` must index `reverse(s) + $`, `mirror` must be the rankall of
    /// `BWT(s + $)` (see [`kmm_bwt::build_mirror`]); `text_len = |s|`.
    pub fn new(fm: &'a FmIndex, mirror: &'a RankAll, text_len: usize) -> Self {
        debug_assert_eq!(fm.len(), text_len + 1);
        BidirSearch {
            bi: BiFmIndex::new(fm, mirror),
            text_len,
        }
    }

    /// All occurrences of `pattern` with at most `k` mismatches, sorted
    /// by position, plus search statistics.
    pub fn search(&self, pattern: &[u8], k: usize) -> (Vec<Occurrence>, SearchStats) {
        self.search_with(pattern, k, None, &NoopRecorder)
            .into_inner()
    }

    /// [`Self::search`] with telemetry on `recorder` (depth profile,
    /// leaf histograms) and an optional cancellation token, polled at
    /// node-expansion granularity.
    pub fn search_with<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let scheme = Scheme::for_k(k);
        if self.delegates(pattern, k, &scheme) {
            return AlgorithmA::new(self.bi.fm(), self.text_len)
                .search_with(pattern, k, token, recorder);
        }
        self.search_scheme(pattern, &scheme, &Gate::new(token), recorder)
    }

    /// Degenerate budgets a partition scheme cannot express: a piece
    /// would be empty (`m < P`) or every window matches trivially
    /// (`k >= m`). Algorithm A answers those — same results, and they
    /// are outside the regime bidirectionality accelerates anyway.
    fn delegates(&self, pattern: &[u8], k: usize, scheme: &Scheme) -> bool {
        k >= pattern.len() || pattern.len() < scheme.pieces
    }

    fn search_scheme<R: Recorder>(
        &self,
        pattern: &[u8],
        scheme: &Scheme,
        gate: &Gate<'_>,
        recorder: &R,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let mut stats = SearchStats::default();
        let m = pattern.len();
        if m > self.text_len {
            return Outcome::Complete((Vec::new(), stats));
        }
        let mut out = Vec::new();
        {
            let _span = recorder.span(Phase::SearchDescend);
            let mut plan = Vec::with_capacity(m);
            for search in &scheme.searches {
                if gate.should_stop() {
                    break;
                }
                compile_plan(search, m, &mut plan);
                self.dfs(
                    &plan,
                    0,
                    self.bi.whole(),
                    0,
                    pattern,
                    gate,
                    &mut out,
                    &mut stats,
                    recorder,
                );
            }
        }
        out.sort_unstable();
        // Disjoint schemes never duplicate; the pigeonhole fallback
        // does, and a duplicate is always the identical Occurrence.
        out.dedup();
        stats.occurrences = out.len() as u64;
        stats.timeouts = u64::from(gate.tripped());
        Outcome::from_parts((out, stats), gate.tripped())
    }

    /// Expand the node for plan step `t`. While the node holds one row
    /// it has at most one child, so the walk follows that child in a
    /// loop — one symbol-and-rank read per step — instead of recursing
    /// through the 4-way extension. The walk builds the same tree: the
    /// same gate poll and counters per node, and the same prunes (the
    /// three or, at the sentinel, four empty siblings, then the budget
    /// and cutoff checks).
    #[allow(clippy::too_many_arguments)]
    fn dfs<R: Recorder>(
        &self,
        plan: &[Step],
        mut t: usize,
        mut iv: BiInterval,
        mut mism: usize,
        pattern: &[u8],
        gate: &Gate<'_>,
        out: &mut Vec<Occurrence>,
        stats: &mut SearchStats,
        recorder: &R,
    ) {
        let step = loop {
            if gate.should_stop() {
                return;
            }
            stats.nodes_visited += 1;
            recorder.depth_expand(t);
            if t == plan.len() {
                stats.leaves += 1;
                recorder.observe(Hist::IntervalWidth, iv.len() as u64);
                recorder.observe(Hist::TerminationDepth, t as u64);
                // The primary interval matches the reversed full pattern,
                // exactly what the unidirectional searches locate through.
                report_interval(
                    self.bi.fm(),
                    self.text_len,
                    iv.prim,
                    plan.len(),
                    mism,
                    gate,
                    out,
                );
                return;
            }
            let step = plan[t];
            stats.rank_extensions += 1;
            if iv.len() != 1 {
                break step;
            }
            let next = if step.left {
                self.bi.step_left(iv)
            } else {
                self.bi.step_right(iv)
            };
            // One row extends by its own symbol only: the other three
            // children are empty, and all four are at the sentinel.
            for _ in 1..BASES {
                recorder.depth_prune(t + 1, PruneCause::EmptyInterval);
            }
            let cause = match next {
                None => PruneCause::EmptyInterval,
                Some((y, child)) => {
                    let nm = mism + usize::from(y != pattern[step.pos]);
                    if nm > step.upper {
                        PruneCause::Budget
                    } else if nm < step.need {
                        PruneCause::Cutoff
                    } else {
                        (t, iv, mism) = (t + 1, child, nm);
                        continue;
                    }
                }
            };
            recorder.depth_prune(t + 1, cause);
            Self::dead_end(iv, t, stats, recorder);
            return;
        };
        // One fused block visit resolves all four children on the
        // extended side; the other side's intervals follow by sibling
        // counts without touching its blocks.
        stats.occ_fused += 1;
        let children = if step.left {
            self.bi.extend_left_all(iv)
        } else {
            self.bi.extend_right_all(iv)
        };
        if let Some(next) = plan.get(t + 1) {
            for child in &children {
                if !child.is_empty() {
                    if next.left {
                        self.bi.prefetch_left(*child);
                    } else {
                        self.bi.prefetch_right(*child);
                    }
                }
            }
        }
        let want = pattern[step.pos];
        let mut any_child = false;
        for y in 1..=BASES as u8 {
            let child = children[(y - 1) as usize];
            if child.is_empty() {
                recorder.depth_prune(t + 1, PruneCause::EmptyInterval);
                continue;
            }
            let nm = mism + usize::from(y != want);
            if nm > step.upper {
                recorder.depth_prune(t + 1, PruneCause::Budget);
                continue;
            }
            if nm < step.need {
                recorder.depth_prune(t + 1, PruneCause::Cutoff);
                continue;
            }
            any_child = true;
            self.dfs(plan, t + 1, child, nm, pattern, gate, out, stats, recorder);
        }
        if !any_child {
            Self::dead_end(iv, t, stats, recorder);
        }
    }

    /// The node for step `t` had no child to descend into: it ends a
    /// path one level down.
    fn dead_end<R: Recorder>(iv: BiInterval, t: usize, stats: &mut SearchStats, recorder: &R) {
        stats.leaves += 1;
        recorder.observe(Hist::IntervalWidth, iv.len() as u64);
        recorder.observe(Hist::TerminationDepth, (t + 1) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::{build_mirror, FmBuildConfig};
    use kmm_classic::naive;

    /// Does `search` enumerate error distribution `d` (one count per
    /// piece)?
    fn covers(search: &SchemeSearch, d: &[usize]) -> bool {
        let mut cum = 0;
        for (i, &piece) in search.pi.iter().enumerate() {
            cum += d[piece];
            if cum < search.lower[i] || cum > search.upper[i] {
                return false;
            }
        }
        true
    }

    /// Every error distribution with at most `k` errors over `p`
    /// pieces.
    fn distributions(k: usize, p: usize) -> Vec<Vec<usize>> {
        let mut all = vec![vec![]];
        for _ in 0..p {
            all = all
                .into_iter()
                .flat_map(|d: Vec<usize>| {
                    (0..=k - d.iter().sum::<usize>().min(k))
                        .map(move |e| {
                            let mut d = d.clone();
                            d.push(e);
                            d
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        all.retain(|d| d.iter().sum::<usize>() <= k);
        all
    }

    /// The orders must grow a contiguous window and bounds must be
    /// sane monotone cumulative sequences.
    fn check_well_formed(scheme: &Scheme) {
        for s in &scheme.searches {
            assert_eq!(s.pi.len(), scheme.pieces);
            assert_eq!(s.lower.len(), scheme.pieces);
            assert_eq!(s.upper.len(), scheme.pieces);
            let (mut lo, mut hi) = (s.pi[0], s.pi[0] + 1);
            for &piece in &s.pi[1..] {
                if piece + 1 == lo {
                    lo = piece;
                } else {
                    assert_eq!(piece, hi, "non-contiguous order {:?}", s.pi);
                    hi = piece + 1;
                }
            }
            for i in 1..scheme.pieces {
                assert!(s.lower[i] >= s.lower[i - 1]);
                assert!(s.upper[i] >= s.upper[i - 1]);
            }
            for i in 0..scheme.pieces {
                assert!(s.lower[i] <= s.upper[i]);
                assert!(s.upper[i] <= scheme.k);
            }
        }
    }

    #[test]
    fn optimum_schemes_are_complete_and_disjoint() {
        for k in 0..=3 {
            let scheme = Scheme::optimum(k).unwrap();
            assert_eq!(scheme.k, k);
            check_well_formed(&scheme);
            for d in distributions(k, scheme.pieces) {
                let n = scheme.searches.iter().filter(|s| covers(s, &d)).count();
                assert_eq!(n, 1, "k={k} distribution {d:?} covered {n} times");
            }
        }
    }

    #[test]
    fn pigeonhole_is_complete_for_any_k() {
        for k in 1..=5 {
            let scheme = Scheme::pigeonhole(k);
            assert_eq!(scheme.pieces, k + 1);
            check_well_formed(&scheme);
            for d in distributions(k, scheme.pieces) {
                let n = scheme.searches.iter().filter(|s| covers(s, &d)).count();
                assert!(n >= 1, "k={k} distribution {d:?} uncovered");
            }
        }
    }

    #[test]
    fn plans_consume_every_position_once_with_contiguous_windows() {
        for k in 0..=3 {
            let scheme = Scheme::optimum(k).unwrap();
            for m in [scheme.pieces, 7, 12, 31] {
                if m < scheme.pieces {
                    continue;
                }
                for s in &scheme.searches {
                    let mut plan = Vec::new();
                    compile_plan(s, m, &mut plan);
                    assert_eq!(plan.len(), m);
                    let mut seen = vec![false; m];
                    let (mut lo, mut hi) = (plan[0].pos, plan[0].pos);
                    for step in &plan {
                        assert!(!seen[step.pos], "position {} twice", step.pos);
                        seen[step.pos] = true;
                        if step.left {
                            assert_eq!(step.pos + 1, lo);
                            lo = step.pos;
                        } else {
                            assert_eq!(step.pos, hi);
                            hi = step.pos + 1;
                        }
                    }
                    assert!(seen.iter().all(|&s| s));
                    // The final need equals the search's last lower
                    // bound: the piece-end check is exact at the leaf.
                    assert_eq!(plan[m - 1].need, *s.lower.last().unwrap());
                }
            }
        }
    }

    /// The lookahead bound by its definition: the largest
    /// `lower[i] - (end_i - t)` over the pieces `i` whose last step
    /// `end_i` is at or after `t`, floored at 0.
    fn brute_force_need(search: &SchemeSearch, m: usize, t: usize) -> usize {
        let p = search.pi.len();
        let mut need = 0;
        let mut done = 0;
        for (&piece, &lower) in search.pi.iter().zip(&search.lower) {
            done += (piece + 1) * m / p - piece * m / p;
            let end = done - 1;
            if end >= t {
                need = need.max(lower.saturating_sub(end - t));
            }
        }
        need
    }

    #[test]
    fn swept_need_equals_brute_force_definition() {
        let schemes = (0..=3)
            .map(|k| Scheme::optimum(k).unwrap())
            .chain((1..=8).map(Scheme::pigeonhole));
        let mut plan = Vec::new();
        for scheme in schemes {
            for m in [scheme.pieces, 7, 12, 31, 100, 150] {
                if m < scheme.pieces {
                    continue;
                }
                for s in &scheme.searches {
                    compile_plan(s, m, &mut plan);
                    assert_eq!(plan.len(), m);
                    for (t, step) in plan.iter().enumerate() {
                        assert_eq!(
                            step.need,
                            brute_force_need(s, m, t),
                            "k={} search {:?} m={m} t={t}",
                            scheme.k,
                            s.pi
                        );
                    }
                }
            }
        }
    }

    /// Build the searcher's three parts for a forward ASCII target.
    fn setup(ascii: &[u8]) -> (FmIndex, RankAll, usize) {
        let text = kmm_dna::encode(ascii).unwrap();
        setup_encoded(&text)
    }

    fn setup_encoded(text: &[u8]) -> (FmIndex, RankAll, usize) {
        let mut rev = text.to_vec();
        rev.reverse();
        rev.push(0);
        let fm = FmIndex::new(&rev, FmBuildConfig::default());
        let mut fwd = text.to_vec();
        fwd.push(0);
        let mirror = build_mirror(&fwd, FmBuildConfig::default().occ_rate, 1).unwrap();
        (fm, mirror, text.len())
    }

    #[test]
    fn paper_figure3_search() {
        let (fm, mirror, n) = setup(b"acagaca");
        let bd = BidirSearch::new(&fm, &mirror, n);
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let (occ, stats) = bd.search(&r, 2);
        let positions: Vec<usize> = occ.iter().map(|o| o.position).collect();
        assert_eq!(positions, vec![0, 2]);
        assert_eq!(occ[0].mismatches, 2);
        assert_eq!(occ[1].mismatches, 2);
        assert_eq!(stats.occurrences, 2);
    }

    #[test]
    fn agrees_with_naive_randomised() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2017);
        for _ in 0..40 {
            let n = rng.gen_range(1..250);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let (fm, mirror, len) = setup_encoded(&s);
            let bd = BidirSearch::new(&fm, &mirror, len);
            let m = rng.gen_range(1..=n.min(18));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 0..5usize {
                let want = naive::find_k_mismatch(&s, &r, k);
                let (got, _) = bd.search(&r, k);
                assert_eq!(got, want, "s={s:?} r={r:?} k={k}");
            }
        }
    }

    #[test]
    fn pigeonhole_scheme_gives_identical_results() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let n = rng.gen_range(20..200);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let (fm, mirror, len) = setup_encoded(&s);
            let bd = BidirSearch::new(&fm, &mirror, len);
            let m = rng.gen_range(8..=16);
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 1..=3usize {
                let want = naive::find_k_mismatch(&s, &r, k);
                let (got, _) = bd
                    .search_scheme(&r, &Scheme::pigeonhole(k), &Gate::new(None), &NoopRecorder)
                    .into_inner();
                assert_eq!(got, want, "pigeonhole s-len={n} r={r:?} k={k}");
            }
        }
    }

    #[test]
    fn optimum_schemes_prune_more_than_pigeonhole() {
        // The corpus of `experiments bidir` (BENCH_bidir.json): 25 reads
        // of 12 bp over the C. merolae stand-in at scale 0.6. Short
        // pieces relative to the text leave the intervals wide after
        // each exact descent, so branches survive into the region where
        // only the tighter precomputed bounds prune them.
        use kmm_dna::genome::ReferenceGenome;
        let g = ReferenceGenome::CMerolae;
        let genome = g.generate_scaled(0.6);
        let reads = kmm_dna::paper_reads(&genome, 25, 12, g.seed() ^ 0x5eed);
        let (fm, mirror, len) = setup_encoded(&genome);
        let bd = BidirSearch::new(&fm, &mirror, len);
        // K1 is the pigeonhole pair itself.
        assert_eq!(Scheme::optimum(1), Some(Scheme::pigeonhole(1)));
        for (k, occurrences) in [(1usize, 231usize), (2, 906), (3, 4_208)] {
            let optimum = Scheme::optimum(k).unwrap();
            let pigeonhole = Scheme::pigeonhole(k);
            let mut found = 0;
            let (mut opt_nodes, mut pig_nodes) = (0u64, 0u64);
            for read in &reads {
                let run = |scheme| {
                    bd.search_scheme(&read.seq, scheme, &Gate::new(None), &NoopRecorder)
                        .into_inner()
                };
                let (opt, opt_stats) = run(&optimum);
                let (pig, pig_stats) = run(&pigeonhole);
                assert_eq!(opt, pig, "k={k} read {:?}", read.seq);
                found += opt.len();
                opt_nodes += opt_stats.nodes_visited;
                pig_nodes += pig_stats.nodes_visited;
            }
            assert_eq!(found, occurrences, "k={k}");
            if k > 1 {
                assert!(
                    opt_nodes < pig_nodes,
                    "k={k}: optimum {opt_nodes} vs pigeonhole {pig_nodes}"
                );
            }
        }
    }

    #[test]
    fn degenerate_budgets_delegate_cleanly() {
        let (fm, mirror, n) = setup(b"acgtacgtac");
        let bd = BidirSearch::new(&fm, &mirror, n);
        // k >= m: every window matches.
        let r = kmm_dna::encode(b"tt").unwrap();
        let (occ, _) = bd.search(&r, 2);
        assert_eq!(occ.len(), n - 2 + 1);
        // m < pieces (k=2 needs 4): still exact.
        let r = kmm_dna::encode(b"acg").unwrap();
        let s = kmm_dna::encode(b"acgtacgtac").unwrap();
        let want = naive::find_k_mismatch(&s, &r, 2);
        assert_eq!(bd.search(&r, 2).0, want);
        // Empty and oversized patterns.
        assert!(bd.search(&[], 1).0.is_empty());
        let long = kmm_dna::encode(b"acgtacgtacgt").unwrap();
        assert!(bd.search(&long, 1).0.is_empty());
    }

    #[test]
    fn expired_deadline_truncates() {
        let g = kmm_dna::genome::uniform(5_000, 3);
        let (fm, mirror, len) = setup_encoded(&g);
        let bd = BidirSearch::new(&fm, &mirror, len);
        let r: Vec<u8> = g[100..120].to_vec();
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let out = bd.search_with(&r, 2, Some(&token), &NoopRecorder);
        assert!(out.is_truncated());
        assert_eq!(out.value().1.timeouts, 1);
    }
}
