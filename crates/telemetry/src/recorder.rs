//! The [`Recorder`] trait and its two implementations.
//!
//! Call sites are generic over `R: Recorder`; the default
//! [`NoopRecorder`] reports `enabled() == false` and every method is an
//! empty `#[inline]` body, so the monomorphised no-op path contains no
//! clock reads and no atomic operations. [`MetricsRecorder`] collects
//! everything with relaxed atomics and can be shared across threads by
//! plain `&` reference.

use std::time::Instant;

use crate::counters::Counter;
use crate::histogram::Histogram;
use crate::snapshot::{CounterSnapshot, MetricsSnapshot, PhaseSnapshot};
use crate::trace::TraceBundle;
use std::sync::atomic::{AtomicU64, Ordering};

/// Coarse grouping of phases, mirroring the pipeline of the paper's
/// method: build the FM-index, preprocess the pattern, then search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    Index,
    Preprocess,
    Search,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Index => "index",
            Stage::Preprocess => "preprocess",
            Stage::Search => "search",
        }
    }
}

/// A timed phase of the pipeline. Each variant corresponds to one
/// span-instrumented region of the codebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Suffix-array construction over the reversed text.
    IndexSa,
    /// Deriving the BWT array L from the suffix array.
    IndexBwt,
    /// Building the rankall (occ) structure over L.
    IndexRankall,
    /// Building the sampled suffix array used to report positions.
    IndexSampledSa,
    /// Deserialising a prebuilt index from disk.
    IndexLoad,
    /// Building the pattern's R-arrays (mismatch tables), including
    /// the R1/R2 merge steps of Algorithm A's preprocessing.
    PreprocessRarray,
    /// Building the S-tree baseline's phi pruning table.
    PreprocessPhi,
    /// One top-level query: everything from pattern in to occurrences
    /// out (Algorithm A walk or S-tree DFS, including rank extensions,
    /// M-tree derivations, and resumes).
    SearchQuery,
    /// The tree walk inside one query (Algorithm A's mismatching-tree
    /// expansion or the S-tree DFS), excluding pattern preprocessing.
    SearchDescend,
    /// One mapped read: both strand queries plus best-hit selection.
    SearchRead,
}

impl Phase {
    pub const COUNT: usize = 10;
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::IndexSa,
        Phase::IndexBwt,
        Phase::IndexRankall,
        Phase::IndexSampledSa,
        Phase::IndexLoad,
        Phase::PreprocessRarray,
        Phase::PreprocessPhi,
        Phase::SearchQuery,
        Phase::SearchDescend,
        Phase::SearchRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::IndexSa => "index.sa",
            Phase::IndexBwt => "index.bwt",
            Phase::IndexRankall => "index.rankall",
            Phase::IndexSampledSa => "index.sampled_sa",
            Phase::IndexLoad => "index.load",
            Phase::PreprocessRarray => "preprocess.rarray",
            Phase::PreprocessPhi => "preprocess.phi",
            Phase::SearchQuery => "search.query",
            Phase::SearchDescend => "search.descend",
            Phase::SearchRead => "search.read",
        }
    }

    pub fn stage(self) -> Stage {
        match self {
            Phase::IndexSa
            | Phase::IndexBwt
            | Phase::IndexRankall
            | Phase::IndexSampledSa
            | Phase::IndexLoad => Stage::Index,
            Phase::PreprocessRarray | Phase::PreprocessPhi => Stage::Preprocess,
            Phase::SearchQuery | Phase::SearchDescend | Phase::SearchRead => Stage::Search,
        }
    }

    /// Whether this phase roots one query's span tree (a search or a
    /// mapped read). Only traces rooted here compete for the slow-query
    /// flight recorder; other top-level phases (index load, standalone
    /// preprocessing) are still traced but never ranked as "queries".
    pub fn is_query_root(self) -> bool {
        matches!(self, Phase::SearchQuery | Phase::SearchRead)
    }

    /// Parse a dotted phase name back to the enum.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Value distributions tracked as log2 histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Wall-clock nanoseconds per top-level query.
    SearchLatencyNs,
    /// Width of the BWT interval at each accepted leaf (occurrence
    /// multiplicity of the matched frontier).
    IntervalWidth,
    /// Pattern depth at which each mismatching-tree walk terminated.
    TerminationDepth,
    /// `kmm serve`: nanoseconds a request waited in the job queue, from
    /// the event loop's push to a worker's pop.
    ServeQueueWaitNs,
    /// `kmm serve`: nanoseconds a finished response waited between a
    /// worker's hand-back and the event loop's pickup.
    ServeHandoffNs,
}

impl Hist {
    pub const COUNT: usize = 5;
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::SearchLatencyNs,
        Hist::IntervalWidth,
        Hist::TerminationDepth,
        Hist::ServeQueueWaitNs,
        Hist::ServeHandoffNs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hist::SearchLatencyNs => "search.latency_ns",
            Hist::IntervalWidth => "search.interval_width",
            Hist::TerminationDepth => "search.termination_depth",
            Hist::ServeQueueWaitNs => "serve.queue_wait_ns",
            Hist::ServeHandoffNs => "serve.handoff_ns",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Why a DFS branch was abandoned, for depth-profile attribution.
///
/// The three causes partition every non-leaf termination of the
/// k-mismatch / k-errors walks: the extension does not exist in the
/// text (`EmptyInterval`), it exists but would exceed the mismatch /
/// edit budget (`Budget`), or a precomputed table proved the remainder
/// unmatchable — the S-tree's φ heuristic or a whole DP row above `k`
/// (`Cutoff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneCause {
    /// The child interval is empty: the extended substring is absent.
    EmptyInterval,
    /// Taking the branch would push mismatches / edits past `k`.
    Budget,
    /// A lookahead table (φ, mismatch-array / DP-row bound) killed the
    /// branch before its children were considered.
    Cutoff,
}

impl PruneCause {
    pub const COUNT: usize = 3;
    pub const ALL: [PruneCause; PruneCause::COUNT] = [
        PruneCause::EmptyInterval,
        PruneCause::Budget,
        PruneCause::Cutoff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PruneCause::EmptyInterval => "empty_interval",
            PruneCause::Budget => "budget",
            PruneCause::Cutoff => "cutoff",
        }
    }

    /// Position of this cause in [`PruneCause::ALL`] — the index into
    /// [`crate::DepthRow::pruned`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Sink for telemetry events. All methods default to no-ops so a
/// recorder implementation only overrides what it collects.
pub trait Recorder {
    /// Whether events are being collected. Guards the `Instant::now()`
    /// in [`Recorder::span`], so a disabled recorder performs no clock
    /// reads at all.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Increment a counter.
    #[inline]
    fn add(&self, _counter: Counter, _delta: u64) {}

    /// Record a value into a histogram.
    #[inline]
    fn observe(&self, _hist: Hist, _value: u64) {}

    /// Credit `nanos` of elapsed time (one entry) to a phase. Usually
    /// called by [`PhaseSpan::drop`] rather than directly.
    #[inline]
    fn phase_add(&self, _phase: Phase, _nanos: u64) {}

    /// Fold a detached snapshot into this recorder. Parallel batch paths
    /// give each worker its own [`MetricsRecorder`] shard (so the query
    /// hot path touches no contended atomics) and absorb the shards into
    /// the caller's recorder after the join. Counters, phase totals and
    /// histogram buckets add; histogram min/max widen. The default is a
    /// no-op, matching [`NoopRecorder`].
    #[inline]
    fn absorb(&self, _snapshot: &MetricsSnapshot) {}

    /// Whether this recorder collects hierarchical span events. Guards
    /// per-span bookkeeping (and the per-query label allocations at call
    /// sites), so metrics-only recorders pay nothing for tracing.
    #[inline]
    fn wants_spans(&self) -> bool {
        false
    }

    /// The monotonic epoch span offsets are measured from, when this
    /// recorder traces. Worker shards are created against the parent's
    /// epoch so merged span timestamps share one timeline.
    #[inline]
    fn trace_epoch(&self) -> Option<Instant> {
        None
    }

    /// A span opened: called by [`Recorder::span`] before the clock read.
    /// Tracing recorders push onto their span stack here.
    #[inline]
    fn span_begin(&self, _phase: Phase) {}

    /// The matching close of [`Recorder::span_begin`]; called by
    /// [`PhaseSpan::drop`] after the phase time is credited. Closing the
    /// outermost span finalises one [`crate::QueryTrace`].
    #[inline]
    fn span_end(&self, _phase: Phase) {}

    /// Attach a label fragment to the current query trace (or to the
    /// next one, when no span is open). Callers should guard the label
    /// formatting with [`Recorder::wants_spans`].
    #[inline]
    fn annotate(&self, _label: &str) {}

    /// Fold a detached trace bundle (completed query traces plus
    /// flight-recorder candidates) into this recorder — the span-level
    /// sibling of [`Recorder::absorb`], fed by worker shards after a
    /// parallel batch. The default discards the bundle.
    #[inline]
    fn absorb_traces(&self, _bundle: TraceBundle) {}

    /// A node at `depth` (pattern symbols consumed so far) was expanded.
    /// This and [`Recorder::depth_prune`] are empty inlined defaults, so
    /// hot loops call them unguarded and every recorder but
    /// [`crate::ExplainRecorder`] pays nothing for depth attribution.
    #[inline]
    fn depth_expand(&self, _depth: usize) {}

    /// A branch toward `depth` was abandoned for `cause` without
    /// expanding its subtree.
    #[inline]
    fn depth_prune(&self, _depth: usize, _cause: PruneCause) {}

    /// Open a scoped timer for `phase`; time is credited when the
    /// returned guard drops.
    #[inline]
    fn span(&self, phase: Phase) -> PhaseSpan<'_, Self>
    where
        Self: Sized,
    {
        PhaseSpan {
            recorder: self,
            phase,
            start: if self.enabled() {
                self.span_begin(phase);
                Some(Instant::now())
            } else {
                None
            },
        }
    }
}

/// RAII guard crediting its phase with the wall-clock time between
/// construction and drop.
#[must_use = "a span records time when dropped; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct PhaseSpan<'r, R: Recorder> {
    recorder: &'r R,
    phase: Phase,
    start: Option<Instant>,
}

impl<R: Recorder> Drop for PhaseSpan<'_, R> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder
                .phase_add(self.phase, start.elapsed().as_nanos() as u64);
            self.recorder.span_end(self.phase);
        }
    }
}

/// Recorder that collects nothing; the default for uninstrumented calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Concrete collector: atomic counters, per-phase timers, and log2
/// histograms. Share by `&` reference; snapshot at any time.
#[derive(Debug)]
pub struct MetricsRecorder {
    counters: [AtomicU64; Counter::COUNT],
    phase_nanos: [AtomicU64; Phase::COUNT],
    phase_entries: [AtomicU64; Phase::COUNT],
    hists: [Histogram; Hist::COUNT],
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    pub fn new() -> Self {
        MetricsRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_entries: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Total nanoseconds credited to one phase so far.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()].load(Ordering::Relaxed)
    }

    /// Plain-data copy of everything collected so far. Every phase,
    /// counter, and histogram is present (zeroed if never touched), so
    /// downstream consumers can rely on the full key set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseSnapshot {
                    name: p.name().to_string(),
                    stage: p.stage().name().to_string(),
                    entries: self.phase_entries[p.index()].load(Ordering::Relaxed),
                    total_ns: self.phase_nanos[p.index()].load(Ordering::Relaxed),
                })
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|&c| CounterSnapshot {
                    name: c.name().to_string(),
                    value: self.counter(c),
                })
                .collect(),
            histograms: Hist::ALL
                .iter()
                .map(|&h| (h.name().to_string(), self.hists[h.index()].snapshot()))
                .collect(),
        }
    }
}

impl Recorder for MetricsRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    fn observe(&self, hist: Hist, value: u64) {
        self.hists[hist.index()].observe(value);
    }

    #[inline]
    fn phase_add(&self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        self.phase_entries[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Merge a shard snapshot: unknown names (from older/newer schema
    /// documents) are ignored rather than rejected.
    fn absorb(&self, snapshot: &MetricsSnapshot) {
        for p in &snapshot.phases {
            if let Some(phase) = Phase::ALL.iter().find(|x| x.name() == p.name) {
                let i = phase.index();
                if p.total_ns > 0 {
                    self.phase_nanos[i].fetch_add(p.total_ns, Ordering::Relaxed);
                }
                if p.entries > 0 {
                    self.phase_entries[i].fetch_add(p.entries, Ordering::Relaxed);
                }
            }
        }
        for c in &snapshot.counters {
            if c.value > 0 {
                if let Some(counter) = Counter::ALL.iter().find(|x| x.name() == c.name) {
                    self.add(*counter, c.value);
                }
            }
        }
        for (name, shard) in &snapshot.histograms {
            if let Some(hist) = Hist::ALL.iter().find(|x| x.name() == *name) {
                self.hists[hist.index()].absorb(shard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_tables_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(p.name().starts_with(p.stage().name()));
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        for (i, p) in PruneCause::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut names: Vec<&str> = PruneCause::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PruneCause::COUNT);
    }

    #[test]
    fn noop_recorder_is_disabled_and_spans_skip_the_clock() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        let span = rec.span(Phase::SearchQuery);
        assert!(span.start.is_none());
        drop(span);
        rec.add(Counter::Queries, 1);
        rec.observe(Hist::IntervalWidth, 7);
    }

    #[test]
    fn metrics_recorder_counts_and_times() {
        let rec = MetricsRecorder::new();
        rec.add(Counter::Leaves, 3);
        rec.add(Counter::Leaves, 2);
        assert_eq!(rec.counter(Counter::Leaves), 5);

        {
            let _s = rec.span(Phase::IndexSa);
            std::hint::black_box(());
        }
        {
            let _s = rec.span(Phase::IndexSa);
        }
        let snap = rec.snapshot();
        let p = snap.phase(Phase::IndexSa);
        assert_eq!(p.entries, 2);
        assert_eq!(p.total_ns, rec.phase_nanos(Phase::IndexSa));
    }

    #[test]
    fn timers_are_monotonic_across_spans() {
        // Each successive span can only grow the phase total, and an
        // enclosing measurement bounds the credited time from above.
        let rec = MetricsRecorder::new();
        let outer = Instant::now();
        let mut last = 0u64;
        for _ in 0..5 {
            {
                let _s = rec.span(Phase::SearchQuery);
                std::hint::black_box((0..100).sum::<u64>());
            }
            let now = rec.phase_nanos(Phase::SearchQuery);
            assert!(now > last, "phase total must strictly grow per span");
            last = now;
        }
        let wall = outer.elapsed().as_nanos() as u64;
        assert!(
            last <= wall,
            "credited {last}ns exceeds enclosing wall time {wall}ns"
        );
        assert_eq!(rec.snapshot().phase(Phase::SearchQuery).entries, 5);
    }

    #[test]
    fn absorbing_shards_equals_direct_recording() {
        // Two worker shards vs one recorder that saw every event.
        let direct = MetricsRecorder::new();
        let shard_a = MetricsRecorder::new();
        let shard_b = MetricsRecorder::new();
        for rec in [&direct, &shard_a] {
            rec.add(Counter::Queries, 2);
            rec.add(Counter::Occurrences, 7);
            rec.observe(Hist::SearchLatencyNs, 1500);
            rec.phase_add(Phase::SearchQuery, 1500);
        }
        for rec in [&direct, &shard_b] {
            rec.add(Counter::Queries, 1);
            rec.observe(Hist::SearchLatencyNs, 90);
            rec.observe(Hist::IntervalWidth, 4);
            rec.phase_add(Phase::SearchQuery, 90);
        }
        let merged = MetricsRecorder::new();
        merged.absorb(&shard_a.snapshot());
        merged.absorb(&shard_b.snapshot());
        merged.absorb(&MetricsRecorder::new().snapshot()); // empty no-op
        assert_eq!(merged.snapshot(), direct.snapshot());
        // NoopRecorder silently accepts the same call.
        NoopRecorder.absorb(&shard_a.snapshot());
    }

    #[test]
    fn shared_across_threads() {
        let rec = MetricsRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        rec.add(Counter::RankExtensions, 1);
                        rec.observe(Hist::IntervalWidth, 8);
                    }
                });
            }
        });
        assert_eq!(rec.counter(Counter::RankExtensions), 4000);
        let snap = rec.snapshot();
        assert_eq!(snap.histogram(Hist::IntervalWidth).unwrap().count, 4000);
    }
}
