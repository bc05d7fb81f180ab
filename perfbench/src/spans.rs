//! In-memory span log for the traced pass, written at exit as Chrome
//! trace-event JSON (opens in Perfetto and `chrome://tracing`).
//!
//! The benchmark records a span around each call it makes into a
//! layer's public function. Spans the program already produces through
//! its own `TraceRecorder` (`search.read`, `search.query`,
//! `preprocess.*`, `search.descend`) are imported under the benchmark
//! span that made the call, so every span has a parent and a layer's
//! self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kmm_telemetry::{Json, QueryTrace};

/// One closed span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the log, starting at 1.
    pub uid: u64,
    /// Enclosing span's uid; 0 for a root.
    pub parent: u64,
    /// Layer boundary, e.g. `mapper.map_batch` or `search.query`.
    pub name: String,
    /// The read, request or probe the span belongs to (`None` for spans
    /// covering many operations).
    pub op: Option<u64>,
    /// Thread lane: 0 for the benchmark's main thread, workers from 1.
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas attached by the program's recorder, if any.
    pub counters: Vec<(String, u64)>,
}

/// Thread-safe span collector sharing one epoch with the program's
/// trace shards.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_uid: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has begun; close it with [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub uid: u64,
    start_ns: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            next_uid: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The instant every span offset is measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Offset of `t` from the epoch (0 for instants before it).
    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn uid(&self) -> u64 {
        self.next_uid.fetch_add(1, Ordering::Relaxed)
    }

    pub fn begin(&self) -> Open {
        Open {
            uid: self.uid(),
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open, name: &str, op: Option<u64>, tid: u32, parent: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            uid: open.uid,
            parent,
            name: name.to_string(),
            op,
            tid,
            start_ns: open.start_ns,
            end_ns,
            counters: Vec::new(),
        });
    }

    /// Record a span whose bounds were measured elsewhere; returns its uid.
    pub fn record(
        &self,
        name: &str,
        op: Option<u64>,
        tid: u32,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let uid = self.uid();
        self.push(Span {
            uid,
            parent,
            name: name.to_string(),
            op,
            tid,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            counters: Vec::new(),
        });
        uid
    }

    /// Run `f` inside a root span on the main thread lane.
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin();
        let out = f();
        self.end(open, name, None, 0, 0);
        out
    }

    /// Import the program's per-query traces (recorded on this log's
    /// epoch) under `parent`. `op_of` maps a trace's label (`q=<i> …`)
    /// to the operation id.
    pub fn import(&self, traces: &[QueryTrace], parent: u64, op_of: impl Fn(&str) -> Option<u64>) {
        for trace in traces {
            let op = op_of(&trace.label);
            let mut uids: BTreeMap<u32, u64> = BTreeMap::new();
            for ev in &trace.spans {
                let uid = self.uid();
                uids.insert(ev.id, uid);
                let span_parent = match ev.parent {
                    0 => parent,
                    p => uids.get(&p).copied().unwrap_or(parent),
                };
                let counters = if ev.parent == 0 {
                    trace
                        .counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect()
                } else {
                    Vec::new()
                };
                self.push(Span {
                    uid,
                    parent: span_parent,
                    name: ev.phase.name().to_string(),
                    op,
                    tid: ev.thread,
                    start_ns: ev.start_ns,
                    end_ns: ev.end_ns(),
                    counters,
                });
            }
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Per span name: (span count, total duration ns, total self time ns).
/// Self time is the span's duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.uid) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered.min(dur);
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
/// microsecond timestamps, the span tree in `args`, and `otherData`
/// carrying the run fingerprint and the per-layer self-time table.
pub fn chrome_trace(spans: &[Span], run: Json) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() + 1);
    events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(1)),
        ("args", Json::obj([("name", Json::Str("perfbench".into()))])),
    ]));
    for s in spans {
        let mut args = vec![
            ("uid".to_string(), Json::UInt(s.uid)),
            ("parent".to_string(), Json::UInt(s.parent)),
        ];
        if let Some(op) = s.op {
            args.push(("op".to_string(), Json::UInt(op)));
        }
        for (k, v) in &s.counters {
            args.push((k.clone(), Json::UInt(*v)));
        }
        events.push(Json::obj([
            ("name", Json::Str(s.name.clone())),
            (
                "cat",
                Json::Str(s.name.split('.').next().unwrap_or("").to_string()),
            ),
            ("ph", Json::Str("X".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(u64::from(s.tid))),
            ("ts", Json::Float(s.start_ns as f64 / 1e3)),
            (
                "dur",
                Json::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
            ),
            ("args", Json::Obj(args)),
        ]));
    }
    let table = self_times(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                Json::obj([
                    ("count", Json::UInt(count)),
                    ("total_ms", Json::Float(total as f64 / 1e6)),
                    ("self_ms", Json::Float(own as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
        (
            "otherData",
            Json::obj([("run", run), ("self_time", Json::Obj(table))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(uid: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            uid,
            parent,
            name: name.into(),
            op: None,
            tid: 0,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 10, 40),
            span(3, 1, "inner", 30, 60),
            span(4, 1, "inner", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 60) and [90, 100) of the parent.
        assert_eq!(t["outer"], (1, 100, 40));
        assert_eq!(t["inner"], (3, 30 + 30 + 30, 90));
    }
}
