//! High-level read mapping on top of the k-mismatch index.
//!
//! The paper's motivating workflow (Section I) is locating reads in a
//! genome. This module packages the search into what a pipeline needs:
//! both-strand queries (reads come from either strand; the index holds
//! only the forward text), best-hit selection, uniqueness classification
//! and a simple mapping-quality heuristic.

use kmm_classic::Occurrence;
use kmm_dna::reverse_complement;
use kmm_par::ThreadPool;
use kmm_telemetry::{Counter, NoopRecorder, Phase, Recorder};

use std::time::Duration;

use crate::batch::par_queries;
use crate::cancel::{CancelToken, Outcome};
use crate::matcher::{KMismatchIndex, Method};

/// Strand of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strand {
    /// The read matched the target as given.
    Forward,
    /// The reverse complement of the read matched.
    Reverse,
}

/// One alignment of a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alignment {
    /// 0-based start position on the forward target.
    pub position: usize,
    /// Hamming distance of the aligned strand's sequence to the target
    /// window.
    pub mismatches: usize,
    /// Which strand matched.
    pub strand: Strand,
}

/// Outcome of mapping one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOutcome {
    /// No alignment within the budget.
    Unmapped,
    /// Exactly one best-scoring alignment (others, if any, are worse).
    Unique(Alignment),
    /// Multiple alignments tie at the best score.
    Multi(Vec<Alignment>),
}

/// A full mapping report for one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapReport {
    /// Classification with the best hit(s).
    pub outcome: MapOutcome,
    /// Every alignment found (both strands), sorted by (mismatches,
    /// position).
    pub all: Vec<Alignment>,
    /// Phred-scaled mapping-quality heuristic: 0 for unmapped/ambiguous,
    /// higher when the best hit separates clearly from the runner-up.
    pub mapq: u8,
}

/// Read mapper configuration.
#[derive(Debug, Clone, Copy)]
pub struct MapperConfig {
    /// Mismatch budget.
    pub k: usize,
    /// Search the reverse strand too.
    pub both_strands: bool,
    /// Search method. Defaults to bidirectional scheme search, which
    /// returns the same hits as every other method with far less work at
    /// read length; [`Method::ALGORITHM_A`] is the paper's reproduction.
    pub method: Method,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            k: 5,
            both_strands: true,
            method: Method::Bidirectional,
        }
    }
}

/// The mapper: borrows an index, owns a configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReadMapper<'a> {
    index: &'a KMismatchIndex,
    config: MapperConfig,
}

impl<'a> ReadMapper<'a> {
    /// Create a mapper over an index.
    pub fn new(index: &'a KMismatchIndex, config: MapperConfig) -> Self {
        ReadMapper { index, config }
    }

    /// Map one read.
    pub fn map(&self, read: &[u8]) -> MapReport {
        self.map_with(read, None, &NoopRecorder).into_inner()
    }

    /// The one mapping path behind every entry point: both strand
    /// queries run through [`KMismatchIndex::search_with`] under the
    /// same optional token, so the read's whole work is bounded. A read
    /// whose budget expires mid-search returns [`Outcome::Truncated`]
    /// with the alignments found so far (classification/mapq computed
    /// over the partial set — flagged, never silently dropped); `None`
    /// always completes.
    ///
    /// Telemetry: both strand queries record their search
    /// phases/counters, plus `map.reads_total` and `map.reads_mapped`
    /// ticks. Under a span-collecting recorder the whole read becomes
    /// one root `search.read` span with the strand queries nested inside
    /// it, so a trace shows where a slow read spent its budget;
    /// truncated reads annotate it with `cancelled`.
    pub fn map_with<R: Recorder>(
        &self,
        read: &[u8],
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<MapReport> {
        let tracing = recorder.wants_spans();
        if tracing {
            recorder.annotate(&format!("read_len={} k={}", read.len(), self.config.k));
            recorder.span_begin(Phase::SearchRead);
        }
        let report = self.map_inner(read, token, recorder);
        if tracing {
            if report.is_truncated() {
                recorder.annotate("cancelled");
            }
            recorder.span_end(Phase::SearchRead);
        }
        report
    }

    fn map_inner<R: Recorder>(
        &self,
        read: &[u8],
        token: Option<&CancelToken>,
        recorder: &R,
    ) -> Outcome<MapReport> {
        let mut all: Vec<Alignment> = Vec::new();
        let mut truncated = false;
        let collect = |occ: Vec<Occurrence>, strand: Strand, all: &mut Vec<Alignment>| {
            for o in occ {
                all.push(Alignment {
                    position: o.position,
                    mismatches: o.mismatches,
                    strand,
                });
            }
        };
        let search = |pattern: &[u8], truncated: &mut bool| {
            let r =
                self.index
                    .search_with(pattern, self.config.k, self.config.method, token, recorder);
            *truncated |= r.is_truncated();
            r.into_inner()
        };
        let fwd = search(read, &mut truncated);
        collect(fwd.occurrences, Strand::Forward, &mut all);
        if self.config.both_strands {
            let rc = reverse_complement(read);
            let rev = search(&rc, &mut truncated);
            collect(rev.occurrences, Strand::Reverse, &mut all);
        }
        recorder.add(Counter::ReadsTotal, 1);
        if !all.is_empty() {
            recorder.add(Counter::ReadsMapped, 1);
        }
        all.sort_by_key(|a| {
            (
                a.mismatches,
                a.position,
                matches!(a.strand, Strand::Reverse),
            )
        });

        let outcome = match all.as_slice() {
            [] => MapOutcome::Unmapped,
            [single] => MapOutcome::Unique(*single),
            [first, rest @ ..] => {
                let ties: Vec<Alignment> = std::iter::once(*first)
                    .chain(
                        rest.iter()
                            .copied()
                            .take_while(|a| a.mismatches == first.mismatches),
                    )
                    .collect();
                if ties.len() == 1 {
                    MapOutcome::Unique(*first)
                } else {
                    MapOutcome::Multi(ties)
                }
            }
        };
        let mapq = match &outcome {
            MapOutcome::Unmapped | MapOutcome::Multi(_) => 0,
            MapOutcome::Unique(best) => {
                // Gap to the runner-up in mismatches, scaled; capped at 60
                // like conventional aligners.
                let second = all.iter().find(|a| a.mismatches > best.mismatches);
                match second {
                    None => 60,
                    Some(s) => (10 * (s.mismatches - best.mismatches)).min(60) as u8,
                }
            }
        };
        Outcome::from_parts(MapReport { outcome, all, mapq }, truncated)
    }

    /// Map a batch of reads across a thread pool. Reads are independent,
    /// so the reports are bit-identical to mapping each read serially and
    /// come back in input order at any thread count.
    pub fn map_batch<Rd: AsRef<[u8]> + Sync>(
        &self,
        reads: &[Rd],
        pool: &ThreadPool,
    ) -> Vec<MapReport> {
        self.map_batch_recorded(reads, pool, &NoopRecorder)
    }

    /// [`Self::map_batch`] with telemetry on `recorder`.
    pub fn map_batch_recorded<Rd, R>(
        &self,
        reads: &[Rd],
        pool: &ThreadPool,
        recorder: &R,
    ) -> Vec<MapReport>
    where
        Rd: AsRef<[u8]> + Sync,
        R: Recorder + Sync,
    {
        let outcomes = self.map_batch_with(reads, pool, None, recorder);
        outcomes.into_iter().map(Outcome::into_inner).collect()
    }

    /// Map a batch of reads across a thread pool through
    /// [`Self::map_with`], in input order. With `per_read` set, each
    /// read's token is stamped as its mapping starts, so one
    /// pathological read is truncated without starving the batch.
    /// Telemetry is sharded per worker like
    /// [`KMismatchIndex::search_batch_with`]; span-collecting recorders
    /// get per-read trace trees tagged `q={i}` and the worker id.
    pub fn map_batch_with<Rd, R>(
        &self,
        reads: &[Rd],
        pool: &ThreadPool,
        per_read: Option<Duration>,
        recorder: &R,
    ) -> Vec<Outcome<MapReport>>
    where
        Rd: AsRef<[u8]> + Sync,
        R: Recorder + Sync,
    {
        self.index.prepare(self.config.method);
        par_queries(pool, reads, per_read, recorder, |read, token, shard| {
            let read = read.as_ref();
            match shard {
                Some(shard) => self.map_with(read, token, shard),
                None => self.map_with(read, token, &NoopRecorder),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_dna::genome::{markov, MarkovConfig};

    fn index() -> (KMismatchIndex, Vec<u8>) {
        let g = markov(20_000, &MarkovConfig::default(), 99);
        (KMismatchIndex::new(g.clone()), g)
    }

    #[test]
    fn forward_read_maps_uniquely_home() {
        let (idx, g) = index();
        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 2,
                ..Default::default()
            },
        );
        // A long-ish probe from a (likely unique) locus.
        let read = g[7_000..7_080].to_vec();
        let report = mapper.map(&read);
        match report.outcome {
            MapOutcome::Unique(a) => {
                assert_eq!(a.position, 7_000);
                assert_eq!(a.mismatches, 0);
                assert_eq!(a.strand, Strand::Forward);
                assert!(report.mapq > 0);
            }
            other => panic!("expected unique mapping, got {other:?}"),
        }
    }

    #[test]
    fn reverse_strand_read_is_recovered() {
        let (idx, g) = index();
        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 1,
                ..Default::default()
            },
        );
        let read = reverse_complement(&g[3_000..3_060]);
        let report = mapper.map(&read);
        assert!(report
            .all
            .iter()
            .any(|a| a.position == 3_000 && a.strand == Strand::Reverse));
        // With both_strands disabled the read is lost.
        let fwd_only = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 1,
                both_strands: false,
                ..Default::default()
            },
        );
        assert!(!fwd_only.map(&read).all.iter().any(|a| a.position == 3_000));
    }

    #[test]
    fn multi_mapping_in_repeats() {
        // Identical planted copies force a Multi outcome with mapq 0.
        let mut g = kmm_dna::genome::uniform(5_000, 4);
        let unit = g[100..160].to_vec();
        g[3_000..3_060].copy_from_slice(&unit);
        let idx = KMismatchIndex::new(g);
        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 0,
                ..Default::default()
            },
        );
        let report = mapper.map(&unit);
        match report.outcome {
            MapOutcome::Multi(ties) => {
                let positions: Vec<usize> = ties.iter().map(|a| a.position).collect();
                assert!(positions.contains(&100));
                assert!(positions.contains(&3_000));
                assert_eq!(report.mapq, 0);
            }
            other => panic!("expected multi mapping, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_read() {
        let (idx, _) = index();
        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 0,
                ..Default::default()
            },
        );
        // A read unlikely to occur exactly: long homopolymer.
        let read = vec![4u8; 60];
        let report = mapper.map(&read);
        assert_eq!(report.outcome, MapOutcome::Unmapped);
        assert_eq!(report.mapq, 0);
        assert!(report.all.is_empty());
    }

    #[test]
    fn mapq_reflects_separation() {
        let (idx, g) = index();
        // A read with one planted error: best hit at distance 1; mapq
        // depends on how far the next hit is.
        let mut read = g[11_000..11_090].to_vec();
        read[40] = if read[40] == 1 { 2 } else { 1 };
        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 4,
                ..Default::default()
            },
        );
        let report = mapper.map(&read);
        if let MapOutcome::Unique(a) = report.outcome {
            assert_eq!(a.position, 11_000);
            assert_eq!(a.mismatches, 1);
            assert!(report.mapq > 0);
        } else {
            panic!("expected unique outcome: {:?}", report.outcome);
        }
    }

    #[test]
    fn all_alignments_sorted_by_quality() {
        let (idx, g) = index();
        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 3,
                ..Default::default()
            },
        );
        let read = g[500..560].to_vec();
        let report = mapper.map(&read);
        for w in report.all.windows(2) {
            assert!(w[0].mismatches <= w[1].mismatches);
        }
    }
}
