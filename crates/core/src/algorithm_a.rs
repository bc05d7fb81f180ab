//! Algorithm A: k-mismatch search with BWT arrays and mismatching trees
//! (paper Section IV-D).
//!
//! The search is the S-tree exploration of [`crate::stree`] with the
//! paper's two additions:
//!
//! 1. **Pair hash table.** Every `<x, [α, β]>` produced by a backward
//!    extension is interned in the [`MTree`] arena. When the same pair
//!    recurs at a later level (Lemma 1 guarantees repeats are never at the
//!    same level), the walk enters the *shared* node: its previously
//!    resolved children are followed without any `search()` / rankall
//!    lookups — the repeated subtree is **derived**, not re-searched.
//! 2. **Mismatch re-derivation.** Along a shared subtree built at
//!    alignment `i` and re-entered at alignment `j`, matching/mismatching
//!    status is re-derived against `r[j..]`. The positions at which the two
//!    alignments disagree are exactly the entries of `R_ij` — the array
//!    Algorithm A obtains with `merge(R_i, R_j, …)`; symbols stored in the
//!    arena make each re-derivation O(1), and the `R`/`merge` machinery of
//!    [`crate::rarray`] / [`mod@crate::merge`] (exercised independently by the
//!    `derive` module) proves the two views equivalent.
//!
//! Where the stored subtree is *shallower* than the new alignment's budget
//!    requires (the paper's case (ii) "has to be extended"; DESIGN.md D2),
//! unresolved child slots are materialised on demand by live backward
//! search, so the result is exactly the naive scan's — property-tested.
//!
//! Costs: live exploration performs the same rank lookups as the baseline;
//! every re-entered subtree is walked with zero rank lookups. With `n'`
//! the number of walk terminations (the paper's M-tree leaf count), the
//! walk does `O(k n' + n)` work after the `O(m log m)`-class pattern
//! preprocessing — the complexity the paper reports.

use kmm_bwt::{FmIndex, Interval};
use kmm_classic::Occurrence;
use kmm_dna::BASES;
use kmm_telemetry::{Hist, NoopRecorder, Phase, PruneCause, Recorder, SearchStats};

use crate::cancel::{CancelToken, Gate, Outcome};
use crate::derive::DerivationAudit;
use crate::mtree::{MTree, ABSENT, UNKNOWN};
use crate::rarray::RTable;
use crate::stree::report_interval;

/// Maximum derivation samples collected per audited query.
const AUDIT_SAMPLE_CAP: usize = 512;

/// Live audit context: the walk is currently below a shared pair first
/// built at alignment `i` and re-entered at alignment `j`.
#[derive(Debug)]
struct AuditCtx {
    i: usize,
    j: usize,
    /// Symbols spelled since the shared pair (inclusive).
    text: Vec<u8>,
    /// Direct mismatch positions of `text` against `r[j..]`.
    bj: Vec<u32>,
}

/// The Algorithm A searcher.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmA<'a> {
    fm: &'a FmIndex,
    text_len: usize,
    /// Enable pair sharing / subtree derivation (`false` reverts to
    /// baseline-style exploration; ablation A2 in DESIGN.md).
    pub reuse: bool,
}

struct Query<'q, R: Recorder> {
    fm: &'q FmIndex,
    text_len: usize,
    pattern: &'q [u8],
    k: usize,
    reuse: bool,
    recorder: &'q R,
    tree: &'q mut MTree,
    /// Pattern self-mismatch arrays (`R_1 … R_{m-1}`); retained for parity
    /// with the paper's preprocessing and used by the derivation checker.
    rtable: RTable,
    out: Vec<Occurrence>,
    stats: SearchStats,
    /// When auditing, collects (i, j, path, mismatches) samples under
    /// shared pairs for replay through the paper's merge derivation.
    audit: Option<DerivationAudit>,
    ctx: Option<AuditCtx>,
    gate: &'q Gate<'q>,
}

impl<'a> AlgorithmA<'a> {
    /// `fm` must index `reverse(s) + $`; `text_len = |s|` (no sentinel).
    pub fn new(fm: &'a FmIndex, text_len: usize) -> Self {
        debug_assert_eq!(fm.len(), text_len + 1);
        AlgorithmA {
            fm,
            text_len,
            reuse: true,
        }
    }

    /// All occurrences of `pattern` in the forward text with at most `k`
    /// mismatches, sorted by position, plus statistics.
    pub fn search(&self, pattern: &[u8], k: usize) -> (Vec<Occurrence>, SearchStats) {
        self.search_with(pattern, k, None, &NoopRecorder)
            .into_inner()
    }

    /// [`Self::search`] with telemetry and an optional deadline
    /// token. R-array preprocessing is timed as `preprocess.rarray`, and
    /// per-leaf interval widths and termination depths go to histograms
    /// (the returned [`SearchStats`] reach the `search.*` counters
    /// through [`crate::KMismatchIndex::search_with`]). With a token the
    /// walk polls it at node-expansion granularity and unwinds once it
    /// expires, returning [`Outcome::Truncated`] with every occurrence
    /// verified so far; without one the walk always completes.
    pub fn search_with<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let gate = Gate::new(token);
        let (occ, stats, _) = self.run(pattern, k, false, &gate, recorder);
        Outcome::from_parts((occ, stats), gate.tripped())
    }

    /// As [`Self::search`], additionally collecting derivation-audit
    /// samples under every re-entered shared pair, for replay through the
    /// paper's `merge`-based `mi-creation` (see [`crate::derive`]).
    pub fn search_audited(
        &self,
        pattern: &[u8],
        k: usize,
    ) -> (Vec<Occurrence>, SearchStats, DerivationAudit) {
        let (occ, stats, audit) = self.run(pattern, k, true, &Gate::new(None), &NoopRecorder);
        (occ, stats, audit.unwrap_or_default())
    }

    fn run<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        audit: bool,
        gate: &Gate<'_>,
        recorder: &R,
    ) -> (Vec<Occurrence>, SearchStats, Option<DerivationAudit>) {
        let m = pattern.len();
        if m == 0 || m > self.text_len {
            return (Vec::new(), SearchStats::default(), None);
        }
        let mut tree = MTree::new();
        let rtable = {
            let _span = recorder.span(Phase::PreprocessRarray);
            RTable::new(pattern, k)
        };
        let mut q = Query {
            fm: self.fm,
            text_len: self.text_len,
            pattern,
            k,
            reuse: self.reuse,
            recorder,
            tree: &mut tree,
            rtable,
            out: Vec::new(),
            stats: SearchStats::default(),
            audit: audit.then(DerivationAudit::default),
            ctx: None,
            gate,
        };
        {
            let _span = recorder.span(Phase::SearchDescend);
            // Root level: one fused rank sweep expands the virtual root
            // <-,[0,n)> into the F-blocks at once, paper Fig. 3's v1..v3;
            // empty blocks are skipped before any per-child work.
            q.stats.rank_extensions += 1;
            q.stats.occ_fused += 1;
            recorder.depth_expand(0);
            let roots = q.fm.extend_all(q.fm.whole());
            // Advisory: warm each F-block child's boundary rank blocks
            // before the walks below extend them.
            for iv in &roots {
                if !iv.is_empty() {
                    q.fm.prefetch_interval(*iv);
                }
            }
            for y in 1..=BASES as u8 {
                if gate.should_stop() {
                    break;
                }
                let iv = roots[(y - 1) as usize];
                if iv.is_empty() {
                    recorder.depth_prune(1, PruneCause::EmptyInterval);
                    continue;
                }
                let is_match = y == pattern[0];
                if !is_match && k == 0 {
                    recorder.depth_prune(1, PruneCause::Budget);
                    continue;
                }
                let cost = usize::from(!is_match);
                if iv.len() == 1 {
                    q.walk_chain(iv.lo, 0, cost);
                } else {
                    let node = q.intern(y, 0, iv);
                    q.walk(node, 0, cost);
                }
            }
        }
        let Query {
            mut out,
            mut stats,
            rtable,
            audit,
            ..
        } = q;
        let _ = rtable;
        out.sort_unstable();
        stats.occurrences = out.len() as u64;
        stats.nodes_materialized = tree.len() as u64;
        stats.timeouts = u64::from(gate.tripped());
        (out, stats, audit)
    }
}

impl<'q, R: Recorder> Query<'q, R> {
    /// Minimum interval width for an entry in the pair hash table. Narrow
    /// pairs head subtrees too small for derivation to beat re-exploration
    /// (their nodes are still memoised through their parents' child slots);
    /// wide pairs are exactly the ones whose repeats the paper's hash table
    /// is after.
    const INTERN_WIDTH_MIN: u32 = 2;

    fn intern(&mut self, sym: u8, align: u32, iv: Interval) -> u32 {
        if self.reuse && iv.len() >= Self::INTERN_WIDTH_MIN {
            let (id, shared) = self.tree.intern(sym, align, iv);
            if shared {
                self.stats.reuse_hits += 1;
                // A genuine Lemma-1 repeat: the pair recurs at a different
                // level, so the walk below performs the paper's
                // node-creation over R_{align(old), align(new)}.
                self.stats.merges += 1;
            }
            id
        } else {
            self.tree.push_unshared(sym, align, iv)
        }
    }

    /// Depth-first walk from `node` (which consumed `pattern[p]`) with
    /// `mism` mismatches accumulated so far. Wraps [`Self::walk_inner`]
    /// with the optional derivation-audit bookkeeping: when the walk
    /// re-enters a pair at a later alignment than it was built at (the
    /// paper's reuse situation), every spelled path below it is recorded
    /// for replay through `mi-creation`.
    fn walk(&mut self, node: u32, p: usize, mism: usize) {
        if self.audit.is_none() {
            return self.walk_inner(node, p, mism);
        }
        let nd = self.tree.node(node);
        let started = self.ctx.is_none() && (nd.align as usize) < p;
        let (sym, align) = (nd.sym, nd.align as usize);
        if started {
            self.ctx = Some(AuditCtx {
                i: align,
                j: p,
                text: Vec::new(),
                bj: Vec::new(),
            });
        }
        let pushed = if let Some(ctx) = self.ctx.as_mut() {
            ctx.text.push(sym);
            if sym != self.pattern[p] {
                ctx.bj.push((p - ctx.j) as u32);
            }
            true
        } else {
            false
        };
        self.walk_inner(node, p, mism);
        if pushed {
            let ctx = self.ctx.as_mut().expect("audit context vanished");
            let popped = ctx.text.pop();
            if popped != Some(sym) {
                unreachable!("audit text stack corrupted");
            }
            if ctx.bj.last() == Some(&((p - ctx.j) as u32)) && sym != self.pattern[p] {
                ctx.bj.pop();
            }
        }
        if started {
            self.ctx = None;
        }
    }

    /// Record the current audited path (if any) as a sample.
    fn audit_snapshot(&mut self) {
        if let (Some(audit), Some(ctx)) = (self.audit.as_mut(), self.ctx.as_ref()) {
            if audit.samples.len() < AUDIT_SAMPLE_CAP && !ctx.text.is_empty() {
                audit
                    .samples
                    .push((ctx.i, ctx.j, ctx.text.clone(), ctx.bj.clone()));
            }
        }
    }

    fn walk_inner(&mut self, node: u32, p: usize, mism: usize) {
        // One gate poll per node expansion; singleton chains are
        // bounded by m and checked once at entry.
        if self.gate.should_stop() {
            return;
        }
        self.stats.nodes_visited += 1;
        self.recorder.depth_expand(p + 1);
        let m = self.pattern.len();
        if p + 1 == m {
            self.stats.leaves += 1;
            let iv = self.tree.node(node).interval;
            self.recorder.observe(Hist::IntervalWidth, iv.len() as u64);
            self.recorder.observe(Hist::TerminationDepth, m as u64);
            report_interval(
                self.fm,
                self.text_len,
                iv,
                m,
                mism,
                self.gate,
                &mut self.out,
            );
            self.audit_snapshot();
            return;
        }
        let next = p + 1;
        // First visit (or D2 "resume" of a subtree stored shallower than
        // this alignment's budget needs): resolve every unresolved child
        // slot with one fused rank sweep — two block visits produce all
        // four child intervals at once, and empty extensions are marked
        // ABSENT before any per-child work.
        let (iv, resumed) = {
            let nd = self.tree.node(node);
            (nd.interval, nd.align as usize != p)
        };
        if self.tree.node(node).children.contains(&UNKNOWN) {
            if resumed {
                self.stats.resumes += 1;
            }
            self.stats.rank_extensions += 1;
            self.stats.occ_fused += 1;
            let children = self.fm.extend_all(iv);
            // Warm the children's boundary rank blocks while the slots
            // are interned; the walks below re-extend each survivor.
            for civ in &children {
                if !civ.is_empty() {
                    self.fm.prefetch_interval(*civ);
                }
            }
            for y in 1..=BASES as u8 {
                if self.tree.child(node, y) != UNKNOWN {
                    continue;
                }
                let civ = children[(y - 1) as usize];
                let slot = if civ.is_empty() {
                    ABSENT
                } else if civ.len() == 1 {
                    // Singleton subtrees stay out of the arena: they
                    // are deterministic LF chains, cheaper to re-walk
                    // than to memoise (see module docs).
                    civ.lo | SINGLETON
                } else {
                    self.intern(y, next as u32, civ)
                };
                self.tree.set_child(node, y, slot);
            }
        }
        let mut walked_any = false;
        for y in 1..=BASES as u8 {
            let slot = self.tree.child(node, y);
            if slot == ABSENT {
                // Counted at consideration time (even when the ABSENT
                // verdict came from the memoised slot, not a fresh rank
                // sweep), so a re-entered shared subtree contributes the
                // same depth profile as the baseline's re-exploration.
                self.recorder.depth_prune(p + 2, PruneCause::EmptyInterval);
                continue;
            }
            let cost = usize::from(y != self.pattern[next]);
            if mism + cost > self.k {
                self.recorder.depth_prune(p + 2, PruneCause::Budget);
                continue;
            }
            walked_any = true;
            if slot & SINGLETON != 0 {
                // Audited paths are sampled up to chain boundaries (the
                // chain symbols are not part of the shared arena).
                self.audit_snapshot();
                self.walk_chain(slot & !SINGLETON, next, mism + cost);
            } else {
                self.walk(slot, next, mism + cost);
            }
        }
        if !walked_any {
            self.stats.leaves += 1;
            self.recorder.observe(Hist::IntervalWidth, iv.len() as u64);
            self.recorder
                .observe(Hist::TerminationDepth, (p + 1) as u64);
            self.audit_snapshot();
        }
    }

    /// Follow a singleton (1-row) interval chain: each step has exactly one
    /// possible extension, by `L[row]`, read together with its rank in one
    /// block visit ([`FmIndex::step`]).
    fn walk_chain(&mut self, mut row: u32, mut p: usize, mut mism: usize) {
        if self.gate.should_stop() {
            return;
        }
        let m = self.pattern.len();
        loop {
            self.stats.nodes_visited += 1;
            self.recorder.depth_expand(p + 1);
            if p + 1 == m {
                self.stats.leaves += 1;
                self.recorder.observe(Hist::IntervalWidth, 1);
                self.recorder.observe(Hist::TerminationDepth, m as u64);
                let iv = Interval::new(row, row + 1);
                report_interval(
                    self.fm,
                    self.text_len,
                    iv,
                    m,
                    mism,
                    self.gate,
                    &mut self.out,
                );
                return;
            }
            let Some((sym, next)) = self.fm.step(row) else {
                self.stats.leaves += 1;
                self.recorder.observe(Hist::IntervalWidth, 1);
                self.recorder
                    .observe(Hist::TerminationDepth, (p + 1) as u64);
                self.recorder.depth_prune(p + 2, PruneCause::EmptyInterval);
                return;
            };
            mism += usize::from(sym != self.pattern[p + 1]);
            if mism > self.k {
                self.stats.leaves += 1;
                self.recorder.observe(Hist::IntervalWidth, 1);
                self.recorder
                    .observe(Hist::TerminationDepth, (p + 1) as u64);
                self.recorder.depth_prune(p + 2, PruneCause::Budget);
                return;
            }
            self.stats.rank_extensions += 1;
            row = next;
            p += 1;
        }
    }
}

/// High-bit tag marking a child slot as an un-materialised singleton row.
const SINGLETON: u32 = 1 << 31;

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::FmBuildConfig;
    use kmm_classic::naive;
    use kmm_dna::SIGMA;

    fn rev_fm(s: &[u8]) -> (FmIndex, usize) {
        let mut rev = s.to_vec();
        rev.reverse();
        rev.push(0);
        (FmIndex::new(&rev, FmBuildConfig::default()), s.len())
    }

    fn check(s: &[u8], r: &[u8], k: usize) {
        let (fm, n) = rev_fm(s);
        let want = naive::find_k_mismatch(s, r, k);
        let alg = AlgorithmA::new(&fm, n);
        let (got, stats) = alg.search(r, k);
        assert_eq!(got, want, "reuse=on s={s:?} r={r:?} k={k}");
        assert_eq!(stats.occurrences as usize, want.len());
        let mut no_reuse = AlgorithmA::new(&fm, n);
        no_reuse.reuse = false;
        let (got, _) = no_reuse.search(r, k);
        assert_eq!(got, want, "reuse=off s={s:?} r={r:?} k={k}");
    }

    #[test]
    fn paper_figure3_example() {
        let s = kmm_dna::encode(b"acagaca").unwrap();
        let r = kmm_dna::encode(b"tcaca").unwrap();
        check(&s, &r, 2);
        let (fm, n) = rev_fm(&s);
        let (occ, _) = AlgorithmA::new(&fm, n).search(&r, 2);
        assert_eq!(
            occ,
            vec![
                Occurrence {
                    position: 0,
                    mismatches: 2
                },
                Occurrence {
                    position: 2,
                    mismatches: 2
                },
            ]
        );
    }

    #[test]
    fn reuse_fires_on_repetitive_text() {
        // A periodic target guarantees repeated pairs across levels.
        let s = kmm_dna::encode(&b"acag".repeat(40)).unwrap();
        let r = kmm_dna::encode(b"acagacagacag").unwrap();
        let (fm, n) = rev_fm(&s);
        let alg = AlgorithmA::new(&fm, n);
        let (occ, stats) = alg.search(&r, 2);
        assert_eq!(occ, naive::find_k_mismatch(&s, &r, 2));
        assert!(stats.reuse_hits > 0, "expected pair sharing: {stats}");
    }

    #[test]
    fn reuse_never_changes_answers_randomised() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(303);
        for _ in 0..60 {
            let n = rng.gen_range(1..250);
            // Low-entropy alphabet to force repeats and sharing.
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=2)).collect();
            let m = rng.gen_range(1..=n.min(14));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=2)).collect();
            for k in 0..4usize {
                check(&s, &r, k);
            }
        }
    }

    #[test]
    fn four_letter_randomised() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(304);
        for _ in 0..40 {
            let n = rng.gen_range(1..300);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let m = rng.gen_range(1..=n.min(20));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            let k = rng.gen_range(0..5usize);
            check(&s, &r, k);
        }
    }

    #[test]
    fn reuse_saves_rank_extensions() {
        let s = kmm_dna::encode(&b"acgtacgaacgt".repeat(60)).unwrap();
        let r = kmm_dna::encode(b"acgtacgaacgtacgtacga").unwrap();
        let (fm, n) = rev_fm(&s);
        let with = AlgorithmA::new(&fm, n);
        let (occ_a, stats_with) = with.search(&r, 3);
        let mut without = AlgorithmA::new(&fm, n);
        without.reuse = false;
        let (occ_b, stats_without) = without.search(&r, 3);
        assert_eq!(occ_a, occ_b);
        assert!(
            stats_with.rank_extensions <= stats_without.rank_extensions,
            "with: {stats_with}\nwithout: {stats_without}"
        );
    }

    #[test]
    fn derivation_audit_validates_merge_machinery() {
        // Periodic targets and patterns force shared pairs; every audited
        // path below one must satisfy Proposition 1: the mismatch array
        // derived through merge(B^i, R_ij, …) equals direct comparison.
        let s = kmm_dna::encode(&b"acag".repeat(60)).unwrap();
        let r = kmm_dna::encode(b"acagacagacagacag").unwrap();
        let (fm, n) = rev_fm(&s);
        let alg = AlgorithmA::new(&fm, n);
        let (occ, stats, audit) = alg.search_audited(&r, 3);
        assert_eq!(occ, kmm_classic::naive::find_k_mismatch(&s, &r, 3));
        let rtable = RTable::new(&r, 3);
        // Samples exist only for forward (i < j) re-entries; all collected
        // ones must replay exactly through the merge derivation.
        audit.verify(&rtable);
        assert!(
            stats.reuse_hits > 0,
            "expected pair sharing on periodic input"
        );
    }

    #[test]
    fn derivation_audit_on_random_low_entropy_queries() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(909);
        let mut total_checked = 0usize;
        for _ in 0..40 {
            let n = rng.gen_range(50..400);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=2)).collect();
            let m = rng.gen_range(4..=n.min(16));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=2)).collect();
            let k = rng.gen_range(1..4);
            let (fm, len) = rev_fm(&s);
            let alg = AlgorithmA::new(&fm, len);
            let (occ, _, audit) = alg.search_audited(&r, k);
            assert_eq!(occ, kmm_classic::naive::find_k_mismatch(&s, &r, k));
            total_checked += audit.verify(&RTable::new(&r, k));
        }
        assert!(total_checked > 0, "no shared pairs exercised at all");
    }

    #[test]
    fn k_zero_is_exact_search() {
        let s = kmm_dna::encode(b"acagaca").unwrap();
        let r = kmm_dna::encode(b"aca").unwrap();
        let (fm, n) = rev_fm(&s);
        let (occ, _) = AlgorithmA::new(&fm, n).search(&r, 0);
        assert_eq!(
            occ.iter().map(|o| o.position).collect::<Vec<_>>(),
            vec![0, 4]
        );
    }

    #[test]
    fn whole_text_pattern() {
        let s = kmm_dna::encode(b"gattaca").unwrap();
        let (fm, n) = rev_fm(&s);
        let (occ, _) = AlgorithmA::new(&fm, n).search(&s, 1);
        assert_eq!(
            occ,
            vec![Occurrence {
                position: 0,
                mismatches: 0
            }]
        );
    }

    #[test]
    fn empty_and_oversized() {
        let s = kmm_dna::encode(b"acg").unwrap();
        let (fm, n) = rev_fm(&s);
        let alg = AlgorithmA::new(&fm, n);
        assert!(alg.search(&[], 1).0.is_empty());
        let long = kmm_dna::encode(b"acgt").unwrap();
        assert!(alg.search(&long, 1).0.is_empty());
    }

    #[test]
    fn sigma_sanity() {
        // The walk assumes base codes 1..=4; guard against alphabet drift.
        assert_eq!(SIGMA, 5);
        assert_eq!(BASES, 4);
    }
}
