//! The in-process workloads (`map-reads`, `scan-repeats`): closed-loop
//! batches through the library's public batch entry points on a
//! 2-worker `kmm_par::ThreadPool`, every answer checked.

use std::time::{Duration, Instant};

use kmm_classic::Occurrence;
use kmm_core::{KMismatchIndex, MapReport, MapperConfig, Method, ReadMapper};
use kmm_par::ThreadPool;
use kmm_telemetry::TraceRecorder;

use crate::spans::SpanLog;
use crate::stats::median;
use crate::workload::{check_hits, check_report, naive_map, naive_search, Op, Workload};

/// The answer to one operation.
#[derive(Debug, Clone)]
pub enum Answer {
    Map(MapReport),
    Hits(Vec<(usize, usize)>),
}

fn hits(occ: &[Occurrence]) -> Answer {
    Answer::Hits(occ.iter().map(|o| (o.position, o.mismatches)).collect())
}

/// A workload bound to an index: how one operation and one batch run,
/// and how their answers are checked.
pub struct Engine<'a> {
    pub workload: Workload,
    pub index: &'a KMismatchIndex,
    mapper: ReadMapper<'a>,
    pub k: usize,
    pub method: Method,
}

impl<'a> Engine<'a> {
    pub fn new(workload: Workload, index: &'a KMismatchIndex) -> Self {
        let config = MapperConfig {
            k: workload.k(),
            method: workload.method(),
            ..MapperConfig::default()
        };
        Engine {
            workload,
            index,
            mapper: ReadMapper::new(index, config),
            k: workload.k(),
            method: workload.method(),
        }
    }

    /// Operations per batch call: enough that the pool's tail imbalance
    /// stays a few percent of a call, few enough for about ten calls a
    /// second of run.
    pub fn chunk(&self) -> usize {
        match self.workload {
            Workload::MapReads => 24,
            _ => 512,
        }
    }

    /// The single-operation entry point (`ReadMapper::map` for reads,
    /// `KMismatchIndex::search` for probes).
    pub fn run_one(&self, pattern: &[u8]) -> Answer {
        match self.workload {
            Workload::MapReads => Answer::Map(self.mapper.map(pattern)),
            _ => hits(&self.index.search(pattern, self.k, self.method).occurrences),
        }
    }

    /// The batch entry point (`ReadMapper::map_batch` or
    /// `KMismatchIndex::search_batch_par`), through its `_recorded`
    /// variant when a recorder is given.
    pub fn run_batch(
        &self,
        patterns: &[&[u8]],
        pool: &ThreadPool,
        rec: Option<&TraceRecorder>,
    ) -> Vec<Answer> {
        match (self.workload, rec) {
            (Workload::MapReads, None) => self
                .mapper
                .map_batch(patterns, pool)
                .into_iter()
                .map(Answer::Map)
                .collect(),
            (Workload::MapReads, Some(rec)) => self
                .mapper
                .map_batch_recorded(patterns, pool, rec)
                .into_iter()
                .map(Answer::Map)
                .collect(),
            (_, None) => self
                .index
                .search_batch_par(patterns, self.k, self.method, pool)
                .0
                .iter()
                .map(|o| hits(o))
                .collect(),
            (_, Some(rec)) => self
                .index
                .search_batch_par_recorded(patterns, self.k, self.method, pool, rec)
                .0
                .iter()
                .map(|o| hits(o))
                .collect(),
        }
    }

    /// Soundness and planted-hit check of one answer.
    pub fn check(&self, genome: &[u8], op: &Op, answer: &Answer) -> Result<(), String> {
        match answer {
            Answer::Map(report) => check_report(genome, &op.pattern, self.k, report, op.planted),
            Answer::Hits(hits) => check_hits(genome, &op.pattern, self.k, hits, op.planted),
        }
    }

    /// Completeness check against the naive scan.
    pub fn check_naive(&self, op: &Op, answer: &Answer) -> Result<(), String> {
        match answer {
            Answer::Map(report) => naive_map(self.index, &op.pattern, self.k, report),
            Answer::Hits(hits) => naive_search(self.index, &op.pattern, self.k, hits),
        }
    }

    /// Span name of the batch entry point.
    fn batch_span(&self) -> &'static str {
        match self.workload {
            Workload::MapReads => "mapper.map_batch",
            _ => "matcher.search_batch_par",
        }
    }
}

/// Counts and timings of one mode's calls in a closed loop.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations completed and checked.
    pub ops: u64,
    /// Operations whose answer failed a check.
    pub failed: u64,
    /// Wall time inside the timed calls.
    pub timed: Duration,
    /// Operations per second of each call.
    pub call_rates: Vec<f64>,
    /// Per-operation latencies in ms (`Mode::PerOp` only).
    pub latencies_ms: Vec<f64>,
    /// The first few check failures, for the report.
    pub errors: Vec<String>,
}

impl Pass {
    /// The median over calls of operations per second: a slow call (a
    /// burst of repeat-rich probes, or a noisy neighbour on the host)
    /// moves it less than it moves the mean.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.call_rates)
    }

    fn tally(&mut self, engine: &Engine, genome: &[u8], op: &Op, answer: &Answer) {
        self.ops += 1;
        if let Err(e) = engine.check(genome, op, answer) {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// How a closed-loop pass calls the library.
#[derive(Debug, Clone, Copy)]
pub enum Mode<'a> {
    /// The batch entry point, untraced: `ops_per_s`.
    Batch,
    /// The batch entry point's `_recorded` variant, each call a span.
    Traced(&'a SpanLog),
    /// The single-operation entry point on each pool worker, each call
    /// timed: latency percentiles.
    PerOp,
}

/// Call the library once per mode in turn, each call on the next chunk
/// of operations, until every mode has spent `budget` of timed wall
/// time; every answer is checked. Taking turns spreads each mode's
/// calls over the whole run, so a slow spell on the host weighs on all
/// modes alike.
pub fn closed_loop<const N: usize>(
    engine: &Engine,
    genome: &[u8],
    ops: &[Op],
    budget: Duration,
    pool: &ThreadPool,
    modes: [Mode; N],
) -> [Pass; N] {
    let mut passes: [Pass; N] = std::array::from_fn(|_| Pass::default());
    let chunk = engine.chunk();
    let mut next = 0usize;
    while passes.iter().any(|p| p.timed < budget) {
        for (mode, pass) in modes.iter().zip(passes.iter_mut()) {
            if pass.timed >= budget {
                continue;
            }
            let idx: Vec<usize> = (next..next + chunk).map(|i| i % ops.len()).collect();
            let patterns: Vec<&[u8]> = idx.iter().map(|&i| ops[i].pattern.as_slice()).collect();
            let base = next as u64;
            let t = Instant::now();
            let answers: Vec<Answer> = match *mode {
                Mode::Batch => engine.run_batch(&patterns, pool, None),
                Mode::Traced(log) => {
                    let rec = TraceRecorder::shard(Some(log.epoch()), 0, true);
                    let open = log.begin();
                    let out = engine.run_batch(&patterns, pool, Some(&rec));
                    log.end(open, engine.batch_span(), None, 0, 0);
                    log.import(&rec.drain().traces, open.uid, |label| {
                        let q = label
                            .split_whitespace()
                            .find_map(|w| w.strip_prefix("q="))?;
                        q.parse::<u64>().ok().map(|q| base + q)
                    });
                    out
                }
                Mode::PerOp => {
                    let timed = pool.par_map(&patterns, |_, p| {
                        let t = Instant::now();
                        let a = engine.run_one(p);
                        (a, t.elapsed())
                    });
                    pass.latencies_ms
                        .extend(timed.iter().map(|(_, d)| d.as_secs_f64() * 1e3));
                    timed.into_iter().map(|(a, _)| a).collect()
                }
            };
            let took = t.elapsed();
            pass.timed += took;
            pass.call_rates
                .push(chunk as f64 / took.as_secs_f64().max(1e-9));
            for (&i, answer) in idx.iter().zip(&answers) {
                pass.tally(engine, genome, &ops[i], answer);
            }
            next += chunk;
        }
    }
    passes
}
