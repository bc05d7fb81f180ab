//! # kmm-telemetry
//!
//! Zero-dependency observability for the bwt-kmismatch workspace:
//! phase timers, counters, and log2-bucketed histograms, plus a
//! hand-written JSON emitter/parser and a plain-text table renderer.
//!
//! The central abstraction is the [`Recorder`] trait. Hot paths are
//! generic over `R: Recorder`, and the default [`NoopRecorder`] has
//! empty inlined methods with `enabled() == false`, so the fully
//! monomorphised no-op build carries no timing syscalls and no atomic
//! traffic — instrumentation compiles away. [`MetricsRecorder`] is the
//! concrete collector: lock-free (atomics only), shareable by `&`
//! reference across threads, snapshot-able at any point.
//!
//! Instrument a phase with a scoped span; the elapsed time is recorded
//! when the guard drops:
//!
//! ```
//! use kmm_telemetry::{MetricsRecorder, Phase, Recorder, Counter};
//!
//! let rec = MetricsRecorder::new();
//! {
//!     let _span = rec.span(Phase::IndexSa);
//!     // ... build the suffix array ...
//! }
//! rec.add(Counter::Queries, 1);
//! let snap = rec.snapshot();
//! assert_eq!(snap.phase(Phase::IndexSa).entries, 1);
//! println!("{}", snap.to_json().to_pretty());
//! ```

pub mod alloc;
pub mod cost;
mod counters;
pub mod events;
pub mod explain;
mod histogram;
pub mod json;
mod prometheus;
mod recorder;
mod snapshot;
mod trace;
mod window;

pub use alloc::{mem_stats, CountingAlloc, MemPhase, MemStats};
pub use cost::CostSnapshot;
pub use counters::{Counter, SearchStats};
pub use events::{EventLog, LogEvent, LogLevel};
pub use explain::{
    DepthRow, ExplainRecorder, ExplainReport, HeapDelta, MethodCost, Verdict, EXPLAIN_SCHEMA,
};
pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS,
};
pub use json::{Json, JsonError};
pub use prometheus::{prometheus_mem_text, prometheus_text};
pub use recorder::{
    Hist, MetricsRecorder, NoopRecorder, Phase, PhaseSpan, PruneCause, Recorder, Stage,
};
pub use snapshot::{CounterSnapshot, MetricsSnapshot, PhaseSnapshot, SCHEMA};
pub use trace::{
    chrome_trace_json, slow_queries_json, FlightRecorder, QueryTrace, SpanEvent, TraceBundle,
    TraceConfig, TraceRecorder,
};
pub use window::{SlidingWindow, WindowSummary};
