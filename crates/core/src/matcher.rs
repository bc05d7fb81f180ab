//! The suite's unified k-mismatch API: one index, six interchangeable
//! search methods — the four compared in the paper's Section V plus two
//! reference scanners.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use kmm_bwt::{FmBuildConfig, FmIndex, RankAll};
use kmm_classic::{amir, kangaroo, naive, Occurrence};
use kmm_dna::SIGMA;
use kmm_par::ThreadPool;
use kmm_suffix::SuffixTree;
use kmm_telemetry::alloc::{mem_stats, phase_scope, MemPhase};
use kmm_telemetry::{
    CostSnapshot, Counter, ExplainRecorder, ExplainReport, HeapDelta, Hist, MethodCost,
    NoopRecorder, Phase, Recorder, SearchStats,
};

use crate::algorithm_a::AlgorithmA;
use crate::batch::par_queries;
use crate::bidir::BidirSearch;
use crate::cancel::{CancelToken, Gate, Outcome};
use crate::cole::ColeSearch;
use crate::seed_filter::SeedFilterSearch;
use crate::stree::STreeSearch;

/// Which algorithm answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Direct `O(mn)` scanning (ground truth).
    Naive,
    /// Landau–Vishkin kangaroo jumps, `O(kn)` online.
    Kangaroo,
    /// The paper's "Amir": mark-and-verify with block seeds.
    Amir,
    /// The paper's "Cole": brute-force suffix-tree search.
    Cole,
    /// The paper's "BWT": the S-tree baseline of \[34\] with the φ heuristic.
    Bwt {
        /// Enable the `φ(i)` pruning heuristic.
        use_phi: bool,
    },
    /// The paper's contribution: Algorithm A.
    AlgorithmA {
        /// Enable pair sharing / subtree derivation (ablation knob).
        reuse: bool,
    },
    /// Pigeonhole seed-and-filter over the FM-index (modern-aligner
    /// baseline; not in the paper's comparison set).
    SeedFilter,
    /// Bidirectional FM-index with partition search schemes (Kianfar et
    /// al.): errors are forced late in each extension order, pruning
    /// the search tree before intervals widen.
    Bidirectional,
}

impl Method {
    /// The four methods of the paper's experiments, in its order and with
    /// its configurations.
    pub const PAPER_SET: [Method; 4] = [
        Method::Bwt { use_phi: true },
        Method::Amir,
        Method::Cole,
        Method::ALGORITHM_A,
    ];

    /// Algorithm A in its default (full) configuration.
    pub const ALGORITHM_A: Method = Method::AlgorithmA { reuse: true };

    /// Short label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Naive => "Naive",
            Method::Kangaroo => "Kangaroo",
            Method::Amir => "Amir's",
            Method::Cole => "Cole's",
            Method::Bwt { use_phi: true } => "BWT",
            Method::Bwt { use_phi: false } => "BWT(no-phi)",
            Method::AlgorithmA { reuse: true } => "A(.)",
            Method::AlgorithmA { reuse: false } => "A(no-reuse)",
            Method::SeedFilter => "SeedFilter",
            Method::Bidirectional => "Bidir",
        }
    }
}

/// Result of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Matches sorted by position.
    pub occurrences: Vec<Occurrence>,
    /// Method-specific counters (zeroed fields for scanning methods).
    pub stats: SearchStats,
}

/// A k-mismatch index over one target string.
///
/// Holds the FM-index of the reversed target (used by the BWT baseline and
/// Algorithm A) and the bidirectional mirror, and lazily materialises
/// what the other methods need: the forward text (for the scanning
/// baselines) the first time it is asked for, and the suffix tree the
/// first time the Cole method is requested. An index opened from disk
/// therefore serves the FM-backed methods without ever paying the
/// O(n·occ) text reconstruction.
#[derive(Debug)]
pub struct KMismatchIndex {
    text: OnceLock<Vec<u8>>,
    /// Target length in bases (== `fm.len() - 1`).
    len: usize,
    fm: FmIndex,
    suffix_tree: OnceLock<SuffixTree>,
    /// Mirror rank structure over `BWT(text + $)` for the bidirectional
    /// method: built with the FM-index from text, loaded from disk
    /// alongside it, or — for a file without mirror sections — built on
    /// first bidirectional search.
    mirror: OnceLock<RankAll>,
}

impl KMismatchIndex {
    /// Index an encoded, sentinel-free target with the default FM layout.
    pub fn new(text: Vec<u8>) -> Self {
        Self::with_config(text, FmBuildConfig::default())
    }

    /// Index with an explicit FM layout (rankall / SA sampling rates).
    pub fn with_config(text: Vec<u8>, config: FmBuildConfig) -> Self {
        Self::with_config_recorded(text, config, &NoopRecorder)
    }

    /// [`Self::with_config`] with the construction phases (`index.*`)
    /// timed on `recorder`.
    ///
    /// Builds the bidirectional mirror with the primary
    /// ([`FmIndex::try_with_mirror_recorded`]): both suffix sorts run on
    /// `config`'s pool, side by side from 2 threads up.
    pub fn with_config_recorded<R: Recorder>(
        text: Vec<u8>,
        config: FmBuildConfig,
        recorder: &R,
    ) -> Self {
        assert!(
            text.iter().all(|&c| c >= 1 && (c as usize) < SIGMA),
            "target must be sentinel-free base codes"
        );
        let rev: Vec<u8> = text.iter().rev().copied().chain([0]).collect();
        let fwd: Vec<u8> = text.iter().copied().chain([0]).collect();
        let (fm, mirror) = FmIndex::try_with_mirror_recorded(&rev, &fwd, config, recorder)
            .unwrap_or_else(|err| panic!("{err}"));
        KMismatchIndex {
            len: text.len(),
            text: OnceLock::from(text),
            fm,
            suffix_tree: OnceLock::new(),
            mirror: OnceLock::from(mirror),
        }
    }

    /// Convenience constructor from an ASCII DNA string.
    pub fn from_ascii(ascii: &[u8]) -> Result<Self, kmm_dna::AlphabetError> {
        Ok(Self::new(kmm_dna::encode(ascii)?))
    }

    /// Assemble from a pre-built FM-index (e.g. loaded from disk) and the
    /// forward target it indexes.
    ///
    /// # Panics
    /// Panics if `fm` does not index `reverse(text) + $` (verified by
    /// length and by spot-checking the reconstruction).
    pub fn from_parts(text: Vec<u8>, fm: FmIndex) -> Self {
        assert_eq!(fm.len(), text.len() + 1, "index/text length mismatch");
        debug_assert!({
            let mut rev = text.clone();
            rev.reverse();
            rev.push(0);
            fm.reconstruct_text() == rev
        });
        KMismatchIndex {
            len: text.len(),
            text: OnceLock::from(text),
            fm,
            suffix_tree: OnceLock::new(),
            mirror: OnceLock::new(),
        }
    }

    /// Assemble from a loaded FM-index alone. The forward text is *not*
    /// reconstructed here — the FM-backed methods (`Bwt`, `AlgorithmA`,
    /// k-errors) never need it, so an index served straight from disk
    /// (or from an mmap) skips the O(n·occ) LF-walk entirely. The first
    /// call that does need the text ([`Self::text`], the scanning
    /// baselines, Cole, SeedFilter) pays it once, lazily. A `mirror`
    /// rank structure (the extra sections of a `--bidir` index file, as
    /// [`FmIndex::load`] returns it) makes the bidirectional method
    /// available without any rebuild.
    pub fn from_fm(fm: FmIndex, mirror: Option<RankAll>) -> Self {
        assert!(!fm.is_empty(), "an index always covers the sentinel");
        if let Some(m) = &mirror {
            assert_eq!(m.len(), fm.len(), "mirror/index length mismatch");
        }
        KMismatchIndex {
            len: fm.len() - 1,
            text: OnceLock::new(),
            fm,
            suffix_tree: OnceLock::new(),
            mirror: match mirror {
                Some(m) => OnceLock::from(m),
                None => OnceLock::new(),
            },
        }
    }

    /// The indexed target (encoded, sentinel-free), reconstructing it
    /// from the FM-index on first use if the index was opened from disk.
    pub fn text(&self) -> &[u8] {
        self.text.get_or_init(|| {
            let mut rev = self.fm.reconstruct_text();
            rev.pop(); // sentinel
            rev.reverse();
            rev
        })
    }

    /// Target length in bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty target.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the forward text has already been materialised (either
    /// the index was built from text, or something reconstructed it).
    pub fn text_is_materialized(&self) -> bool {
        self.text.get().is_some()
    }

    /// The underlying reverse-text FM-index.
    pub fn fm(&self) -> &FmIndex {
        &self.fm
    }

    /// The forward suffix tree, building it on first use.
    pub fn suffix_tree(&self) -> &SuffixTree {
        self.suffix_tree.get_or_init(|| {
            let mut t = self.text().to_vec();
            t.push(0);
            SuffixTree::new(t, SIGMA)
        })
    }

    /// The mirror rank structure for bidirectional search. An index
    /// built from text or loaded with mirror sections already has it;
    /// otherwise it is built here once, from the (possibly
    /// reconstructed) forward text, with the primary's checkpoint rate.
    pub fn mirror(&self) -> &RankAll {
        self.mirror.get_or_init(|| {
            let mut t = self.text().to_vec();
            t.push(0);
            kmm_bwt::build_mirror(&t, self.fm.rank_rate(), 1)
                .expect("text already fit in the primary index")
        })
    }

    /// True when the mirror is already resident (built with the index,
    /// loaded from a `--bidir` index file, or built by an earlier
    /// bidirectional search) — the serving layer's gate for advertising
    /// `Method::Bidirectional`.
    pub fn has_mirror(&self) -> bool {
        self.mirror.get().is_some()
    }

    /// Heap bytes of the resident mirror rank structure, if any (for
    /// per-structure memory itemisation).
    pub fn mirror_heap_bytes(&self) -> Option<usize> {
        self.mirror.get().map(|m| m.heap_bytes())
    }

    /// Answer a query with the chosen method. All methods return identical
    /// occurrence lists (sorted by position, annotated with the Hamming
    /// distance).
    pub fn search(&self, pattern: &[u8], k: usize, method: Method) -> SearchResult {
        self.search_recorded(pattern, k, method, &NoopRecorder)
    }

    /// [`Self::search`] with telemetry: see [`Self::search_with`].
    pub fn search_recorded<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        method: Method,
        recorder: &R,
    ) -> SearchResult {
        self.search_with(pattern, k, method, None, recorder)
            .into_inner()
    }

    /// The one query path behind every single-query entry point.
    ///
    /// The lazy structure `method` reads (forward text, suffix tree,
    /// mirror) is built first, outside the query's span and cost
    /// bracket, so a loaded index reports the same [`SearchStats`] as
    /// one built from text.
    ///
    /// Telemetry: the whole query is timed as the `search.query` phase
    /// and the `search.latency_ns` histogram, one `search.queries` tick
    /// is added, and the query's [`SearchStats`] — the method's counters
    /// plus its deterministic cost deltas — land in the `search.*`
    /// counters here, the only place a query is recorded; with a
    /// [`kmm_telemetry::NoopRecorder`] all of that compiles away. Under a
    /// span-collecting recorder ([`kmm_telemetry::TraceRecorder`]) the
    /// query becomes one root `search.query` span — with the method's
    /// internal phases nested inside it — annotated with the pattern
    /// length, `k`, and method label.
    ///
    /// Deadlines: with `token == None` every method runs to
    /// completion exactly as it would with no deadline machinery at all.
    /// With a token, the tree methods (`Bwt`, `AlgorithmA`,
    /// `Bidirectional`) poll it at node-expansion granularity; the
    /// online scanners (`Naive`, `Kangaroo`, `Amir`) poll between ~4
    /// Ki-position text chunks; the remaining baselines (`Cole`,
    /// `SeedFilter`) only honour a token that is already expired at
    /// entry (they are comparison baselines, not serving paths). A
    /// truncated query returns [`Outcome::Truncated`] carrying every
    /// occurrence verified before the budget expired, sets
    /// `stats.timeouts = 1` (ticking the `search.timeouts` counter),
    /// and — under a tracing recorder — annotates its span with
    /// `cancelled`.
    pub fn search_with<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        method: Method,
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<SearchResult> {
        self.prepare(method);
        let tracing = recorder.wants_spans();
        if tracing {
            recorder.annotate(&format!(
                "m={} k={k} method={}",
                pattern.len(),
                method.label()
            ));
            recorder.span_begin(Phase::SearchQuery);
        }
        let start = recorder.enabled().then(Instant::now);
        let cost_start = CostSnapshot::now();
        let outcome = match method {
            Method::Naive => self.scan_text(pattern, k, token, naive::find_k_mismatch),
            Method::Kangaroo => self.scan_text(pattern, k, token, kangaroo::find_k_mismatch),
            Method::Amir => self.scan_text(pattern, k, token, amir::find_k_mismatch),
            Method::Cole | Method::SeedFilter if token.is_some_and(CancelToken::is_expired) => {
                Outcome::Truncated((Vec::new(), SearchStats::default()))
            }
            Method::Cole => {
                Outcome::Complete(ColeSearch::new(self.suffix_tree()).search(pattern, k))
            }
            Method::SeedFilter => {
                Outcome::Complete(SeedFilterSearch::new(&self.fm, self.text()).search(pattern, k))
            }
            Method::Bwt { use_phi } => {
                let mut st = STreeSearch::new(&self.fm, self.len);
                st.use_phi = use_phi;
                st.search_with(pattern, k, token, recorder)
            }
            Method::AlgorithmA { reuse } => {
                let mut alg = AlgorithmA::new(&self.fm, self.len);
                alg.reuse = reuse;
                alg.search_with(pattern, k, token, recorder)
            }
            Method::Bidirectional => BidirSearch::new(&self.fm, self.mirror(), self.len)
                .search_with(pattern, k, token, recorder),
        };
        let truncated = outcome.is_truncated();
        let outcome = outcome.map(|(occurrences, mut stats)| {
            stats.occurrences = occurrences.len() as u64;
            stats.timeouts = u64::from(truncated);
            CostSnapshot::now().delta(&cost_start).add_to(&mut stats);
            stats.record_into(recorder);
            SearchResult { occurrences, stats }
        });
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos() as u64;
            recorder.phase_add(Phase::SearchQuery, ns);
            recorder.observe(Hist::SearchLatencyNs, ns);
        }
        recorder.add(Counter::Queries, 1);
        if tracing {
            if truncated {
                recorder.annotate("cancelled");
            }
            // Close the root after the query counter so the trace's
            // per-query counter deltas include it.
            recorder.span_end(Phase::SearchQuery);
        }
        outcome
    }

    /// EXPLAIN one query: run it once per method with an
    /// [`ExplainRecorder`] armed and deterministic-cost brackets around
    /// each run, returning the per-method attribution
    /// ([`kmm_telemetry::explain`]).
    ///
    /// The methods run **serially in the given order** whatever the
    /// caller's thread budget: every field of the report except the heap
    /// ledger is a pure function of (index, pattern, k, method), and the
    /// serial order makes the lazy first-touch heap charges (text
    /// reconstruction, suffix tree) land on the same method every time —
    /// so the rendered report is byte-identical across runs and thread
    /// widths. The verdict compares
    /// deterministic work counters only, never wall-clock.
    pub fn explain(&self, pattern: &[u8], k: usize, methods: &[Method]) -> ExplainReport {
        let mut report = ExplainReport {
            pattern: String::from_utf8(kmm_dna::decode(pattern)).unwrap_or_default(),
            m: pattern.len(),
            k,
            methods: Vec::with_capacity(methods.len()),
        };
        for &method in methods {
            let recorder = ExplainRecorder::new();
            let mem_before = mem_stats();
            let result = {
                let _mem = phase_scope(MemPhase::Search);
                self.search_recorded(pattern, k, method, &recorder)
            };
            let mem_after = mem_stats();
            report.methods.push(MethodCost {
                label: method.label().to_string(),
                occurrences: result.occurrences.len() as u64,
                stats: result.stats,
                depths: recorder.take(),
                heap: HeapDelta::between(&mem_before, &mem_after),
            });
        }
        report
    }

    /// Positions scanned between deadline polls by the online methods.
    const SCAN_CHUNK: usize = 4096;

    /// Run an online scanner (naive/kangaroo/amir) over the whole text,
    /// or — under a token — in text chunks so it can be truncated: each
    /// chunk covers [`Self::SCAN_CHUNK`] start positions (plus the
    /// `m - 1` overlap its windows read), so the concatenated hit list
    /// is bit-identical to one whole-text scan.
    fn scan_text(
        &self,
        pattern: &[u8],
        k: usize,
        token: Option<&CancelToken>,
        scan: impl Fn(&[u8], &[u8], usize) -> Vec<Occurrence>,
    ) -> Outcome<(Vec<Occurrence>, SearchStats)> {
        let text = self.text();
        let n = text.len();
        let m = pattern.len();
        let Some(token) = token.filter(|_| m > 0 && m <= n) else {
            return Outcome::Complete((scan(text, pattern, k), SearchStats::default()));
        };
        let gate = Gate::new(Some(token));
        let last_start = n - m;
        let mut occurrences = Vec::new();
        let mut c = 0usize;
        let mut truncated = false;
        while c <= last_start {
            // Chunks arrive ~µs apart, far below the gate's countdown
            // rate — force the deadline read every time.
            if gate.poll_now() {
                truncated = true;
                break;
            }
            let hi = (c + Self::SCAN_CHUNK - 1).min(last_start);
            for o in scan(&text[c..hi + m], pattern, k) {
                occurrences.push(Occurrence {
                    position: o.position + c,
                    mismatches: o.mismatches,
                });
            }
            c = hi + 1;
        }
        Outcome::from_parts((occurrences, SearchStats::default()), truncated)
    }

    /// String matching with k *errors* (Levenshtein distance, Section II):
    /// all substrings within edit distance `k` of `pattern` as
    /// `(position, length, distance)` triples.
    pub fn search_k_errors(
        &self,
        pattern: &[u8],
        k: usize,
    ) -> (Vec<crate::k_errors::EditOccurrence>, SearchStats) {
        let cost_start = CostSnapshot::now();
        let (occurrences, mut stats) =
            crate::k_errors::KErrorsSearch::new(&self.fm, self.len).search(pattern, k);
        CostSnapshot::now().delta(&cost_start).add_to(&mut stats);
        (occurrences, stats)
    }

    /// Build the lazy structure `method` reads (forward text, suffix
    /// tree, mirror) once, up front: [`Self::search_with`] calls this
    /// before its cost bracket, so the build is never charged to a
    /// query's counters, and the batch paths call it before fanning out,
    /// so no worker blocks on a `OnceLock` initialiser.
    pub(crate) fn prepare(&self, method: Method) {
        match method {
            Method::Naive | Method::Kangaroo | Method::Amir | Method::SeedFilter => {
                self.text();
            }
            Method::Cole => {
                self.suffix_tree();
            }
            Method::Bidirectional => {
                self.mirror();
            }
            _ => {}
        }
    }

    /// [`Self::search_batch_with`] without a deadline, flattened to the
    /// occurrence lists.
    pub fn search_batch_par<P: AsRef<[u8]> + Sync>(
        &self,
        patterns: &[P],
        k: usize,
        method: Method,
        pool: &ThreadPool,
    ) -> (Vec<Vec<Occurrence>>, SearchStats) {
        self.search_batch_par_recorded(patterns, k, method, pool, &NoopRecorder)
    }

    /// [`Self::search_batch_par`] with telemetry on `recorder`.
    pub fn search_batch_par_recorded<P, R>(
        &self,
        patterns: &[P],
        k: usize,
        method: Method,
        pool: &ThreadPool,
        recorder: &R,
    ) -> (Vec<Vec<Occurrence>>, SearchStats)
    where
        P: AsRef<[u8]> + Sync,
        R: Recorder + Sync,
    {
        let (outcomes, stats) = self.search_batch_with(patterns, k, method, pool, None, recorder);
        (
            outcomes.into_iter().map(Outcome::into_inner).collect(),
            stats,
        )
    }

    /// Run a batch of queries across a thread pool through
    /// [`Self::search_with`]. Queries are independent, so the occurrence
    /// lists are bit-identical to searching each pattern in turn and
    /// arrive in input order at any thread count; the returned
    /// [`SearchStats`] are the sum over the batch (`stats.timeouts`
    /// counts the truncated queries).
    ///
    /// With `per_query` set, each pattern gets its own [`CancelToken`]
    /// stamped as its search starts, so one pathological query is
    /// truncated without starving the rest of the batch, and the outcome
    /// set is independent of worker scheduling for queries that fit
    /// their budget; `None` runs every query to completion.
    ///
    /// Each participating worker records into a private
    /// [`kmm_telemetry::TraceRecorder`] shard — the query hot path
    /// touches no shared atomics — and the shards are absorbed into
    /// `recorder` after the join, so order-independent aggregates
    /// (counters, histogram counts, phase entry counts) match a serial
    /// run exactly. When `recorder` collects spans, each query's trace
    /// is tagged `q={i}` and with its 1-based worker id.
    pub fn search_batch_with<P, R>(
        &self,
        patterns: &[P],
        k: usize,
        method: Method,
        pool: &ThreadPool,
        per_query: Option<Duration>,
        recorder: &R,
    ) -> (Vec<Outcome<Vec<Occurrence>>>, SearchStats)
    where
        P: AsRef<[u8]> + Sync,
        R: Recorder + Sync,
    {
        self.prepare(method);
        let outcomes = par_queries(pool, patterns, per_query, recorder, |p, token, shard| {
            let p = p.as_ref();
            match shard {
                Some(shard) => self.search_with(p, k, method, token, shard),
                None => self.search_with(p, k, method, token, &NoopRecorder),
            }
        });
        let mut total = SearchStats::default();
        let outcomes = outcomes
            .into_iter()
            .map(|o| {
                total.accumulate(&o.value().stats);
                o.map(|r| r.occurrences)
            })
            .collect();
        (outcomes, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const METHODS: [Method; 10] = [
        Method::Naive,
        Method::Kangaroo,
        Method::Amir,
        Method::Cole,
        Method::Bwt { use_phi: true },
        Method::Bwt { use_phi: false },
        Method::ALGORITHM_A,
        Method::AlgorithmA { reuse: false },
        Method::SeedFilter,
        Method::Bidirectional,
    ];

    #[test]
    fn all_methods_agree_on_paper_example() {
        let idx = KMismatchIndex::from_ascii(b"acagaca").unwrap();
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let want = idx.search(&r, 2, Method::Naive).occurrences;
        assert_eq!(want.len(), 2);
        for m in METHODS {
            assert_eq!(idx.search(&r, 2, m).occurrences, want, "{}", m.label());
        }
    }

    #[test]
    fn all_methods_agree_randomised() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        for _ in 0..15 {
            let n = rng.gen_range(5..250);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let idx = KMismatchIndex::new(s);
            for _ in 0..5 {
                let m = rng.gen_range(1..=n.min(16));
                let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
                let k = rng.gen_range(0..4usize);
                let want = idx.search(&r, k, Method::Naive).occurrences;
                for method in METHODS {
                    assert_eq!(
                        idx.search(&r, k, method).occurrences,
                        want,
                        "{} n={n} m={} k={k}",
                        method.label(),
                        r.len()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_accumulates_stats() {
        let idx = KMismatchIndex::from_ascii(b"acagacagattacaacagtt").unwrap();
        let p1 = kmm_dna::encode(b"acag").unwrap();
        let p2 = kmm_dna::encode(b"ttac").unwrap();
        let pool = ThreadPool::new(2);
        let (results, stats) = idx.search_batch_par(&[p1, p2], 1, Method::ALGORITHM_A, &pool);
        assert_eq!(results.len(), 2);
        assert!(stats.leaves > 0);
        assert_eq!(
            stats.occurrences,
            (results[0].len() + results[1].len()) as u64
        );
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = METHODS.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), METHODS.len());
    }

    #[test]
    fn paper_set_contains_the_four_methods() {
        assert_eq!(Method::PAPER_SET.len(), 4);
        assert!(Method::PAPER_SET.contains(&Method::ALGORITHM_A));
        assert!(Method::PAPER_SET.contains(&Method::Amir));
    }

    #[test]
    #[should_panic(expected = "sentinel-free")]
    fn rejects_sentinel_in_target() {
        KMismatchIndex::new(vec![1, 0, 2]);
    }

    #[test]
    fn explain_attributes_costs_per_method() {
        let idx = KMismatchIndex::from_ascii(b"acagaca").unwrap();
        let r = kmm_dna::encode(b"tcaca").unwrap();
        let methods = [
            Method::Bwt { use_phi: true },
            Method::ALGORITHM_A,
            Method::Naive,
        ];
        let report = idx.explain(&r, 2, &methods);
        assert_eq!(report.pattern, "tcaca");
        assert_eq!((report.m, report.k), (5, 2));
        assert_eq!(report.methods.len(), 3);
        // All methods agree on the answer (the paper's Fig. 3 example).
        for m in &report.methods {
            assert_eq!(m.occurrences, 2, "{}", m.label);
        }
        // Tree methods carry depth profiles; the scanner carries none.
        let bwt = &report.methods[0];
        assert!(bwt.work_units() > 0);
        assert!(!bwt.depths.is_empty());
        // Expansions exist at depth 0 (virtual root) through depth m.
        assert!(bwt.depths[0].expanded > 0 || bwt.depths[1].expanded > 0);
        let naive = &report.methods[2];
        assert_eq!(naive.work_units(), 0);
        assert!(naive.depths.iter().all(|d| d.is_empty()));
        // Verdict picks an instrumented method, never the scanner.
        let v = report.verdict().expect("instrumented methods present");
        assert_ne!(v.winner, "Naive");
    }

    #[test]
    fn explain_is_deterministic_across_runs() {
        let idx = KMismatchIndex::from_ascii(b"acagacagattacaacagttacagacag").unwrap();
        let r = kmm_dna::encode(b"acagtt").unwrap();
        let methods = [Method::Bwt { use_phi: true }, Method::ALGORITHM_A];
        let a = idx.explain(&r, 2, &methods).to_json().to_pretty();
        let b = idx.explain(&r, 2, &methods).to_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn explain_depth_profile_matches_node_counts() {
        // Sum of expansions across depths equals nodes_visited + the
        // virtual-root expansion for Algorithm A (the root sweep is not a
        // node the stats count), and exactly nodes_visited for the S-tree.
        let idx = KMismatchIndex::from_ascii(b"acagacagattacaacagtt").unwrap();
        let r = kmm_dna::encode(b"agatt").unwrap();
        let report = idx.explain(&r, 1, &[Method::Bwt { use_phi: true }, Method::ALGORITHM_A]);
        let bwt = &report.methods[0];
        let expanded: u64 = bwt.depths.iter().map(|d| d.expanded).sum();
        assert_eq!(expanded, bwt.stats.nodes_visited);
        let a = &report.methods[1];
        let expanded: u64 = a.depths.iter().map(|d| d.expanded).sum();
        assert_eq!(expanded, a.stats.nodes_visited + 1);
    }

    #[test]
    fn mirror_is_lazy_and_reported_once_built() {
        // Built from text: the mirror is resident from the start.
        let built = KMismatchIndex::from_ascii(b"acagacagattacaacagtt").unwrap();
        assert!(built.has_mirror());
        assert!(built.mirror_heap_bytes().unwrap() > 0);
        // From a file without mirror sections: built lazily, once.
        let mut bytes = Vec::new();
        built.fm().save(&mut bytes).unwrap();
        let (fm, mirror) = kmm_bwt::FmIndex::load(&bytes[..]).unwrap();
        let idx = KMismatchIndex::from_fm(fm, mirror);
        assert!(!idx.has_mirror());
        assert_eq!(idx.mirror_heap_bytes(), None);
        let r = kmm_dna::encode(b"acagat").unwrap();
        let want = idx.search(&r, 2, Method::Naive).occurrences;
        assert_eq!(idx.search(&r, 2, Method::Bidirectional).occurrences, want);
        assert!(idx.has_mirror());
        assert_eq!(idx.mirror_heap_bytes(), built.mirror_heap_bytes());
        let first = idx.mirror() as *const RankAll;
        assert_eq!(idx.search(&r, 2, Method::Bidirectional).occurrences, want);
        assert_eq!(idx.mirror() as *const RankAll, first);
    }

    #[test]
    fn from_fm_with_a_mirror_serves_bidirectional_without_text() {
        let built = KMismatchIndex::from_ascii(b"acagacagattacaacagtt").unwrap();
        let mut bytes = Vec::new();
        built
            .fm()
            .save_with_mirror(built.mirror(), &mut bytes)
            .unwrap();
        let (fm, mirror) = kmm_bwt::FmIndex::load(&bytes[..]).unwrap();
        let idx = KMismatchIndex::from_fm(fm, mirror);
        assert!(idx.has_mirror());
        assert!(!idx.text_is_materialized());
        let pat = kmm_dna::encode(b"acagat").unwrap();
        assert_eq!(
            idx.search(&pat, 2, Method::Bidirectional).occurrences,
            built.search(&pat, 2, Method::Bidirectional).occurrences
        );
        // Bidirectional search through a loaded mirror needs no text.
        assert!(!idx.text_is_materialized());
    }

    #[test]
    fn suffix_tree_is_lazy_and_cached() {
        let idx = KMismatchIndex::from_ascii(b"acgtacgt").unwrap();
        let a = idx.suffix_tree() as *const _;
        let b = idx.suffix_tree() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn from_fm_defers_text_until_a_scanner_needs_it() {
        let built = KMismatchIndex::from_ascii(b"acagacagattacaacagtt").unwrap();
        let mut bytes = Vec::new();
        built.fm().save(&mut bytes).unwrap();
        let load = || {
            let (fm, mirror) = kmm_bwt::FmIndex::load(&bytes[..]).unwrap();
            KMismatchIndex::from_fm(fm, mirror)
        };
        let idx = load();
        assert_eq!(idx.len(), built.len());
        assert!(!idx.text_is_materialized());
        // FM-backed methods never touch the forward text.
        let pat = kmm_dna::encode(b"acag").unwrap();
        for method in [Method::ALGORITHM_A, Method::Bwt { use_phi: true }] {
            assert_eq!(
                idx.search(&pat, 1, method).occurrences,
                built.search(&pat, 1, method).occurrences
            );
        }
        assert!(!idx.text_is_materialized());
        // A scanning method reconstructs it once, and answers match.
        assert_eq!(
            idx.search(&pat, 1, Method::Naive).occurrences,
            built.search(&pat, 1, Method::Naive).occurrences
        );
        assert!(idx.text_is_materialized());
        assert_eq!(idx.text(), built.text());
        // Whatever a method builds lazily (text, suffix tree, mirror) is
        // built outside its first query's counters: a fresh loaded index
        // reports exactly the stats of the text-built one.
        for method in METHODS {
            assert_eq!(
                load().search(&pat, 1, method),
                built.search(&pat, 1, method),
                "{}",
                method.label()
            );
        }
        let report = load().explain(&pat, 1, &[Method::Naive, Method::ALGORITHM_A]);
        assert_eq!(report.methods[0].work_units(), 0);
        let verdict = report.verdict().unwrap();
        assert!(
            verdict.why.starts_with("only instrumented"),
            "{}",
            verdict.why
        );
    }
}
