//! Per-query span tracing and the slow-query flight recorder.
//!
//! [`TraceRecorder`] is a [`Recorder`] that, on top of the metrics a
//! [`MetricsRecorder`] collects, records **hierarchical spans**: every
//! [`Recorder::span`] region becomes a [`SpanEvent`] with an id, a parent
//! id, a phase, a thread tag, and monotonic start/duration offsets
//! measured from the recorder's epoch. Spans nest through an explicit
//! stack; when the outermost span of a stack closes, the completed tree
//! is packaged as one [`QueryTrace`] together with the counter deltas
//! observed while it was open (the per-query `SearchStats`).
//!
//! Completed traces feed two sinks:
//!
//! * a bounded buffer of full traces, exportable as a Chrome trace-event
//!   JSON document ([`chrome_trace_json`]) that loads directly in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * a fixed-capacity [`FlightRecorder`] that retains only the K slowest
//!   queries, dumpable at any time (`kmm serve`'s `/slow.json`).
//!
//! Parallel batches give each worker its own `TraceRecorder` shard
//! (created against the parent's epoch so all offsets share a timeline)
//! and merge with [`TraceRecorder::drain`] +
//! [`Recorder::absorb_traces`], mirroring the metrics `absorb` path.
//! Because every shard keeps its own K-slowest set, the merged flight
//! recorder is exactly the global K-slowest of the whole batch.
//!
//! All interior locks recover from poisoning: a query that panics
//! mid-span can only lose its own partial trace, never wedge the
//! recorder for subsequent queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::counters::Counter;
use crate::json::Json;
use crate::recorder::{MetricsRecorder, Phase, Recorder};
use crate::snapshot::MetricsSnapshot;

/// One closed span: a timed region of the pipeline inside a query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// 1-based id, unique within its [`QueryTrace`].
    pub id: u32,
    /// Id of the enclosing span; 0 for the root.
    pub parent: u32,
    /// What the region was doing.
    pub phase: Phase,
    /// Worker tag (0 = the recorder's owning thread).
    pub thread: u32,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
}

impl SpanEvent {
    /// End offset from the recorder epoch, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::UInt(self.id as u64)),
            ("parent", Json::UInt(self.parent as u64)),
            ("phase", Json::Str(self.phase.name().to_string())),
            ("thread", Json::UInt(self.thread as u64)),
            ("start_ns", Json::UInt(self.start_ns)),
            ("dur_ns", Json::UInt(self.dur_ns)),
        ])
    }
}

/// The complete span tree of one top-level traced region (one search
/// query, or one mapped read), plus the counter deltas it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Free-form label accumulated from [`Recorder::annotate`] calls
    /// (e.g. `"q=17 m=100 k=5 method=A(.)"`).
    pub label: String,
    /// Worker tag of the thread that ran the query.
    pub thread: u32,
    /// Root start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Root duration, nanoseconds.
    pub dur_ns: u64,
    /// The span tree; `spans[0]` is the root (id 1, parent 0) and
    /// children always follow their parents.
    pub spans: Vec<SpanEvent>,
    /// Nonzero counter deltas recorded while the root was open — the
    /// per-query `SearchStats` (nodes expanded, merges, reuse hits, …).
    pub counters: Vec<(&'static str, u64)>,
}

impl QueryTrace {
    /// The root span's phase.
    pub fn root_phase(&self) -> Phase {
        self.spans[0].phase
    }

    /// Value of one per-query counter delta (0 when absent).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(name, _)| *name == counter.name())
            .map_or(0, |(_, v)| *v)
    }

    /// Serialise for `/slow.json` and flight-recorder dumps.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::Str(self.label.clone())),
            ("thread", Json::UInt(self.thread as u64)),
            ("start_ns", Json::UInt(self.start_ns)),
            ("dur_ns", Json::UInt(self.dur_ns)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, v)| (name.to_string(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(SpanEvent::to_json).collect()),
            ),
        ])
    }
}

/// Detached tracing state handed from a worker shard to its parent via
/// [`Recorder::absorb_traces`].
#[derive(Debug, Default)]
pub struct TraceBundle {
    /// Completed traces retained by the shard's full-trace buffer.
    pub traces: Vec<QueryTrace>,
    /// The shard's K-slowest set (disjoint storage from `traces`).
    pub slowest: Vec<QueryTrace>,
    /// Traces finished but not retained because the buffer was full.
    pub dropped: u64,
}

/// Capacity knobs for a [`TraceRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Max completed traces retained for full export (oldest-first; the
    /// flight recorder still sees every query after the cap is hit).
    pub max_traces: usize,
    /// How many slowest queries the flight recorder retains.
    pub flight_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            max_traces: 65_536,
            flight_capacity: 16,
        }
    }
}

/// Lock a mutex, recovering the data from a poisoned lock — a panicking
/// query must never wedge telemetry for everyone else.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Fixed-capacity ring of the K slowest query traces seen so far.
///
/// `offer` is O(K) in the worst case but exits with one comparison for
/// queries faster than the current K-th slowest — cheap on the hot path.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    /// Sorted ascending by `dur_ns`; index 0 is the eviction candidate.
    entries: Mutex<Vec<QueryTrace>>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Retained-entry count.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.entries).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of slow-query entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer a completed trace; it is cloned in only if it ranks among
    /// the K slowest seen so far.
    pub fn offer(&self, trace: &QueryTrace) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = lock_unpoisoned(&self.entries);
        if entries.len() >= self.capacity {
            if trace.dur_ns <= entries[0].dur_ns {
                return;
            }
            entries.remove(0);
        }
        let at = entries.partition_point(|e| e.dur_ns <= trace.dur_ns);
        entries.insert(at, trace.clone());
    }

    /// The retained traces, slowest first.
    pub fn slowest(&self) -> Vec<QueryTrace> {
        let entries = lock_unpoisoned(&self.entries);
        entries.iter().rev().cloned().collect()
    }

    /// Move the retained traces out (slowest first), leaving the
    /// recorder empty.
    pub fn drain(&self) -> Vec<QueryTrace> {
        let mut entries = std::mem::take(&mut *lock_unpoisoned(&self.entries));
        entries.reverse();
        entries
    }
}

/// Span bookkeeping for the recorder's single collection lane. A
/// `TraceRecorder` is owned by one logical worker at a time (parallel
/// batches shard per worker), so this mutex is effectively uncontended.
#[derive(Debug)]
struct TraceState {
    /// Ids of currently open spans, outermost first.
    stack: Vec<u32>,
    /// Spans of the in-flight root, completed and open (open spans have
    /// `dur_ns == 0` until their end is recorded).
    spans: Vec<SpanEvent>,
    /// Counter deltas since the current root opened.
    counters: [u64; Counter::COUNT],
    /// Label for the current root.
    label: String,
    /// Label queued for the next root (annotate before span_begin).
    pending_label: String,
}

// Written out by hand: the std `Default` derive only covers arrays up
// to 32 elements, and `counters` tracks every `Counter` variant.
impl Default for TraceState {
    fn default() -> Self {
        TraceState {
            stack: Vec::new(),
            spans: Vec::new(),
            counters: [0; Counter::COUNT],
            label: String::new(),
            pending_label: String::new(),
        }
    }
}

/// A [`Recorder`] collecting metrics *and* per-query span traces.
///
/// Delegates every metrics event to an embedded [`MetricsRecorder`] (so
/// [`TraceRecorder::snapshot`] is exactly what a metrics-only run would
/// have produced), and additionally maintains the span stack, the
/// bounded full-trace buffer, and the slow-query [`FlightRecorder`].
#[derive(Debug)]
pub struct TraceRecorder {
    metrics: MetricsRecorder,
    epoch: Instant,
    thread: u32,
    collect: bool,
    max_traces: usize,
    state: Mutex<TraceState>,
    traces: Mutex<Vec<QueryTrace>>,
    dropped: AtomicU64,
    flight: FlightRecorder,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A tracing recorder with default capacities, epoch = now.
    pub fn new() -> Self {
        Self::with_config(TraceConfig::default())
    }

    /// A tracing recorder with explicit capacities, epoch = now.
    pub fn with_config(config: TraceConfig) -> Self {
        Self::build(config, Instant::now(), 0, true)
    }

    /// A per-worker shard: shares the parent's `epoch` (one timeline
    /// across workers) and tags its spans with `thread`. When `collect`
    /// is false the shard degrades to a plain metrics collector — the
    /// shape batch paths use under a non-tracing parent recorder.
    pub fn shard(epoch: Option<Instant>, thread: u32, collect: bool) -> Self {
        Self::build(
            TraceConfig::default(),
            epoch.unwrap_or_else(Instant::now),
            thread,
            collect,
        )
    }

    fn build(config: TraceConfig, epoch: Instant, thread: u32, collect: bool) -> Self {
        TraceRecorder {
            metrics: MetricsRecorder::new(),
            epoch,
            thread,
            collect,
            max_traces: config.max_traces,
            state: Mutex::new(TraceState::default()),
            traces: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            flight: FlightRecorder::new(config.flight_capacity),
        }
    }

    /// The embedded metrics collector.
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// Plain-data copy of the metrics collected so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The slow-query flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Copy of the retained full traces, in completion order.
    pub fn traces(&self) -> Vec<QueryTrace> {
        lock_unpoisoned(&self.traces).clone()
    }

    /// Completed traces finished but dropped because the buffer was full.
    pub fn dropped_traces(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Move the tracing state out for a parent's
    /// [`Recorder::absorb_traces`] (metrics travel separately through
    /// [`Recorder::absorb`]).
    pub fn drain(&self) -> TraceBundle {
        TraceBundle {
            traces: std::mem::take(&mut *lock_unpoisoned(&self.traces)),
            slowest: self.flight.drain(),
            dropped: self.dropped.swap(0, Ordering::Relaxed),
        }
    }

    /// Chrome trace-event JSON of every retained trace; load the output
    /// in `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self) -> Json {
        chrome_trace_json(&lock_unpoisoned(&self.traces))
    }

    fn ns_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn finalize_root(&self, state: &mut TraceState) {
        let spans = std::mem::take(&mut state.spans);
        let root = &spans[0];
        let counters: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .filter(|c| state.counters[c.index()] > 0)
            .map(|c| (c.name(), state.counters[c.index()]))
            .collect();
        state.counters = [0; Counter::COUNT];
        let trace = QueryTrace {
            label: std::mem::take(&mut state.label),
            thread: self.thread,
            start_ns: root.start_ns,
            dur_ns: root.dur_ns,
            spans,
            counters,
        };
        if trace.root_phase().is_query_root() {
            self.flight.offer(&trace);
        }
        let mut traces = lock_unpoisoned(&self.traces);
        if traces.len() < self.max_traces {
            traces.push(trace);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Recorder for TraceRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        self.metrics.add(counter, delta);
        if self.collect {
            let mut state = lock_unpoisoned(&self.state);
            if !state.stack.is_empty() {
                state.counters[counter.index()] += delta;
            }
        }
    }

    #[inline]
    fn observe(&self, hist: crate::Hist, value: u64) {
        self.metrics.observe(hist, value);
    }

    #[inline]
    fn phase_add(&self, phase: Phase, nanos: u64) {
        self.metrics.phase_add(phase, nanos);
    }

    fn absorb(&self, snapshot: &MetricsSnapshot) {
        self.metrics.absorb(snapshot);
    }

    #[inline]
    fn wants_spans(&self) -> bool {
        self.collect
    }

    fn trace_epoch(&self) -> Option<Instant> {
        Some(self.epoch)
    }

    fn span_begin(&self, phase: Phase) {
        if !self.collect {
            return;
        }
        let start_ns = self.ns_since_epoch();
        let mut state = lock_unpoisoned(&self.state);
        if state.stack.is_empty() {
            // Opening a root: recover from any partial spans a panicking
            // query left behind, and consume the pending label.
            state.spans.clear();
            state.counters = [0; Counter::COUNT];
            state.label = std::mem::take(&mut state.pending_label);
        }
        let id = state.spans.len() as u32 + 1;
        let parent = state.stack.last().copied().unwrap_or(0);
        state.spans.push(SpanEvent {
            id,
            parent,
            phase,
            thread: self.thread,
            start_ns,
            dur_ns: 0,
        });
        state.stack.push(id);
    }

    fn span_end(&self, phase: Phase) {
        if !self.collect {
            return;
        }
        let end_ns = self.ns_since_epoch();
        let mut state = lock_unpoisoned(&self.state);
        let Some(id) = state.stack.pop() else {
            return; // unbalanced end after a recovered panic: ignore
        };
        let idx = id as usize - 1;
        debug_assert_eq!(state.spans[idx].phase, phase);
        state.spans[idx].dur_ns = end_ns.saturating_sub(state.spans[idx].start_ns);
        if state.stack.is_empty() {
            self.finalize_root(&mut state);
        }
    }

    fn annotate(&self, label: &str) {
        if !self.collect || label.is_empty() {
            return;
        }
        let mut state = lock_unpoisoned(&self.state);
        let target = if state.stack.is_empty() {
            &mut state.pending_label
        } else {
            &mut state.label
        };
        if !target.is_empty() {
            target.push(' ');
        }
        target.push_str(label);
    }

    fn absorb_traces(&self, bundle: TraceBundle) {
        for trace in &bundle.slowest {
            self.flight.offer(trace);
        }
        self.dropped.fetch_add(bundle.dropped, Ordering::Relaxed);
        let mut traces = lock_unpoisoned(&self.traces);
        for trace in bundle.traces {
            if traces.len() < self.max_traces {
                traces.push(trace);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Render traces as a Chrome trace-event document (`"X"` complete
/// events, microsecond timestamps). Loadable in `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev).
pub fn chrome_trace_json(traces: &[QueryTrace]) -> Json {
    let mut events = Vec::new();
    for trace in traces {
        for span in &trace.spans {
            let mut obj = vec![
                ("name".to_string(), Json::Str(span.phase.name().to_string())),
                (
                    "cat".to_string(),
                    Json::Str(span.phase.stage().name().to_string()),
                ),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::Float(span.start_ns as f64 / 1e3)),
                ("dur".to_string(), Json::Float(span.dur_ns as f64 / 1e3)),
                ("pid".to_string(), Json::UInt(0)),
                ("tid".to_string(), Json::UInt(span.thread as u64)),
            ];
            if span.parent == 0 && !trace.label.is_empty() {
                obj.push((
                    "args".to_string(),
                    Json::obj([("label", Json::Str(trace.label.clone()))]),
                ));
            }
            events.push(Json::Obj(obj));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

/// Render a flight-recorder dump (or any trace list) as the `/slow.json`
/// document.
pub fn slow_queries_json(slowest: &[QueryTrace]) -> Json {
    Json::obj([
        ("schema", Json::Str("kmm-trace/v1".to_string())),
        (
            "slowest",
            Json::Arr(slowest.iter().map(QueryTrace::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Hist;

    fn spin(n: u64) -> u64 {
        std::hint::black_box((0..n).fold(0u64, |a, b| a.wrapping_add(b)))
    }

    #[test]
    fn non_query_roots_are_traced_but_never_flight_ranked() {
        let rec = TraceRecorder::new();
        {
            let _load = rec.span(Phase::IndexLoad);
            spin(20_000); // make the non-query root the slowest trace
        }
        {
            let _root = rec.span(Phase::SearchQuery);
        }
        // Both top-level spans become traces (the Chrome export shows
        // index loads on the timeline)...
        assert_eq!(rec.traces().len(), 2);
        // ...but only the query competes for the slow-query ranking.
        let slowest = rec.flight().slowest();
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].root_phase(), Phase::SearchQuery);
    }

    #[test]
    fn spans_nest_and_form_one_trace_per_root() {
        let rec = TraceRecorder::new();
        rec.annotate("q=0");
        {
            let _root = rec.span(Phase::SearchQuery);
            rec.annotate("m=8");
            {
                let _pre = rec.span(Phase::PreprocessRarray);
                spin(1000);
            }
            {
                let _walk = rec.span(Phase::SearchDescend);
                spin(1000);
            }
            rec.add(Counter::Leaves, 3);
        }
        let traces = rec.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.label, "q=0 m=8");
        assert_eq!(t.root_phase(), Phase::SearchQuery);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, 0);
        for child in &t.spans[1..] {
            assert_eq!(child.parent, t.spans[0].id);
            assert!(child.start_ns >= t.spans[0].start_ns);
            assert!(child.end_ns() <= t.spans[0].end_ns());
        }
        assert_eq!(t.counter(Counter::Leaves), 3);
        assert_eq!(t.counter(Counter::Merges), 0);
        // The embedded metrics recorder saw the same events.
        assert_eq!(rec.metrics().counter(Counter::Leaves), 3);
        assert_eq!(rec.snapshot().phase(Phase::SearchQuery).entries, 1);
    }

    #[test]
    fn sequential_roots_become_separate_traces() {
        let rec = TraceRecorder::new();
        for i in 0..3 {
            rec.annotate(&format!("q={i}"));
            let _root = rec.span(Phase::SearchQuery);
            spin(100);
        }
        let traces = rec.traces();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[2].label, "q=2");
        // Traces are disjoint in time and ordered by start.
        for pair in traces.windows(2) {
            assert!(pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns);
        }
    }

    #[test]
    fn flight_recorder_keeps_k_slowest() {
        let flight = FlightRecorder::new(3);
        let mk = |dur: u64| QueryTrace {
            label: format!("d{dur}"),
            thread: 0,
            start_ns: 0,
            dur_ns: dur,
            spans: vec![SpanEvent {
                id: 1,
                parent: 0,
                phase: Phase::SearchQuery,
                thread: 0,
                start_ns: 0,
                dur_ns: dur,
            }],
            counters: Vec::new(),
        };
        for dur in [50, 10, 99, 1, 70, 30, 85] {
            flight.offer(&mk(dur));
        }
        let slowest = flight.slowest();
        let durs: Vec<u64> = slowest.iter().map(|t| t.dur_ns).collect();
        assert_eq!(durs, vec![99, 85, 70]);
        // Zero-capacity recorder stays empty.
        let off = FlightRecorder::new(0);
        off.offer(&mk(5));
        assert!(off.is_empty());
    }

    #[test]
    fn shard_drain_absorb_merges_flight_globally() {
        let parent = TraceRecorder::with_config(TraceConfig {
            max_traces: 10,
            flight_capacity: 2,
        });
        let mk_shard = |thread: u32, queries: usize| {
            let shard = TraceRecorder::shard(Some(parent.epoch), thread, true);
            for _ in 0..queries {
                let _root = shard.span(Phase::SearchQuery);
            }
            shard
        };
        // Pin root durations after draining: measured wall time would
        // make the flight ranking depend on scheduler preemption.
        let pin = |mut bundle: TraceBundle, durs: &[u64]| {
            assert_eq!(bundle.traces.len(), durs.len());
            for (trace, &dur) in bundle.traces.iter_mut().zip(durs) {
                trace.dur_ns = dur;
                trace.spans[0].dur_ns = dur;
            }
            bundle.slowest = bundle.traces.clone();
            bundle
        };
        let a = mk_shard(1, 3);
        let b = mk_shard(2, 2);
        parent.absorb(&a.snapshot());
        parent.absorb(&b.snapshot());
        parent.absorb_traces(pin(a.drain(), &[10, 100_000, 20]));
        parent.absorb_traces(pin(b.drain(), &[200_000, 5]));
        assert_eq!(parent.traces().len(), 5);
        assert_eq!(parent.snapshot().phase(Phase::SearchQuery).entries, 5);
        let slowest = parent.flight().slowest();
        assert_eq!(slowest.len(), 2);
        assert!(slowest[0].dur_ns >= slowest[1].dur_ns);
        // The two retained entries are the heavy spins, one per shard.
        let threads: Vec<u32> = slowest.iter().map(|t| t.thread).collect();
        assert!(threads.contains(&1) && threads.contains(&2));
    }

    #[test]
    fn trace_buffer_cap_drops_but_flight_still_sees_everything() {
        let rec = TraceRecorder::with_config(TraceConfig {
            max_traces: 2,
            flight_capacity: 8,
        });
        for _ in 0..5 {
            let _root = rec.span(Phase::SearchQuery);
            spin(50);
        }
        assert_eq!(rec.traces().len(), 2);
        assert_eq!(rec.dropped_traces(), 3);
        assert_eq!(rec.flight().len(), 5);
    }

    #[test]
    fn non_collecting_shard_is_metrics_only() {
        let rec = TraceRecorder::shard(None, 7, false);
        assert!(!rec.wants_spans());
        {
            let _root = rec.span(Phase::SearchQuery);
            rec.add(Counter::Queries, 1);
            rec.observe(Hist::SearchLatencyNs, 10);
        }
        rec.annotate("ignored");
        assert!(rec.traces().is_empty());
        assert!(rec.flight().is_empty());
        assert_eq!(rec.metrics().counter(Counter::Queries), 1);
        assert_eq!(rec.snapshot().phase(Phase::SearchQuery).entries, 1);
    }

    #[test]
    fn chrome_export_has_one_event_per_span() {
        let rec = TraceRecorder::new();
        rec.annotate("q=0");
        {
            let _root = rec.span(Phase::SearchQuery);
            let _child = rec.span(Phase::SearchDescend);
        }
        let doc = rec.chrome_trace();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
        }
        // The root carries the query label; the document round-trips
        // through the parser (i.e. it is well-formed JSON).
        let root = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("search.query"))
            .unwrap();
        assert_eq!(
            root.get("args").unwrap().get("label").unwrap().as_str(),
            Some("q=0")
        );
        let reparsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn slow_json_document_shape() {
        let rec = TraceRecorder::new();
        {
            let _root = rec.span(Phase::SearchQuery);
            rec.add(Counter::NodesVisited, 4);
        }
        let doc = slow_queries_json(&rec.flight().slowest());
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("kmm-trace/v1"));
        let entries = doc.get("slowest").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0]
                .get("counters")
                .unwrap()
                .get("search.nodes_visited")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        assert!(Json::parse(&doc.to_pretty()).is_ok());
    }

    #[test]
    fn panicking_query_does_not_poison_the_recorder() {
        let rec = TraceRecorder::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _root = rec.span(Phase::SearchQuery);
            let _child = rec.span(Phase::SearchDescend);
            panic!("injected");
        }));
        assert!(r.is_err());
        // The interrupted query may leave partial state behind; the next
        // root recovers and records normally.
        {
            let _root = rec.span(Phase::SearchQuery);
            rec.add(Counter::Queries, 1);
        }
        let traces = rec.traces();
        let clean = traces.last().unwrap();
        assert_eq!(clean.root_phase(), Phase::SearchQuery);
        assert_eq!(clean.counter(Counter::Queries), 1);
        assert_eq!(clean.spans[0].parent, 0);
    }
}
