//! Multi-sequence (chromosome-aware) indexing.
//!
//! Real references are collections of chromosomes/contigs. Indexing their
//! plain concatenation is subtly wrong: an approximate match may straddle
//! a record boundary, reporting an occurrence that exists in no single
//! chromosome. [`MultiIndex`] concatenates the records (one shared index,
//! as the single-sentinel BWT layout requires), keeps the boundary table,
//! filters straddling hits and translates positions back into
//! `(record, local offset)` coordinates.

use kmm_classic::Occurrence;
use kmm_telemetry::{Counter, NoopRecorder, Recorder};

use crate::matcher::{KMismatchIndex, Method};
use crate::stats::SearchStats;

/// An occurrence in multi-sequence coordinates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MultiOccurrence {
    /// Index of the record the hit lies in.
    pub record: usize,
    /// 0-based offset within that record.
    pub offset: usize,
    /// Hamming distance at the hit.
    pub mismatches: usize,
}

/// A k-mismatch index over a collection of named sequences.
#[derive(Debug)]
pub struct MultiIndex {
    index: KMismatchIndex,
    /// Start offset of each record in the concatenation, plus a final
    /// entry holding the total length.
    starts: Vec<usize>,
    names: Vec<String>,
}

impl MultiIndex {
    /// Build from `(name, sequence)` records (encoded, sentinel-free).
    ///
    /// # Panics
    /// Panics if no records are given or any record is empty.
    pub fn new(records: Vec<(String, Vec<u8>)>) -> Self {
        assert!(!records.is_empty(), "at least one record required");
        let mut starts = Vec::with_capacity(records.len() + 1);
        let mut names = Vec::with_capacity(records.len());
        let mut concat = Vec::new();
        for (name, seq) in records {
            assert!(!seq.is_empty(), "record '{name}' is empty");
            starts.push(concat.len());
            names.push(name);
            concat.extend(seq);
        }
        starts.push(concat.len());
        MultiIndex {
            index: KMismatchIndex::new(concat),
            starts,
            names,
        }
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.names.len()
    }

    /// Record names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Length of record `i`.
    pub fn record_len(&self, i: usize) -> usize {
        self.starts[i + 1] - self.starts[i]
    }

    /// The underlying single-text index (concatenated coordinates).
    pub fn inner(&self) -> &KMismatchIndex {
        &self.index
    }

    /// Translate a concatenated position to `(record, offset)`.
    fn locate_record(&self, pos: usize) -> (usize, usize) {
        // partition_point: first start beyond pos, minus one.
        let rec = self.starts.partition_point(|&s| s <= pos) - 1;
        (rec, pos - self.starts[rec])
    }

    /// All k-mismatch occurrences of `pattern`, in per-record coordinates;
    /// hits straddling a record boundary are discarded.
    pub fn search(
        &self,
        pattern: &[u8],
        k: usize,
        method: Method,
    ) -> (Vec<MultiOccurrence>, SearchStats) {
        self.search_recorded(pattern, k, method, &NoopRecorder)
    }

    /// [`Self::search`] with telemetry: the inner query records its
    /// search phases/counters, and every hit discarded for straddling a
    /// record boundary ticks `multi.boundary_filtered`.
    pub fn search_recorded<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        method: Method,
        recorder: &R,
    ) -> (Vec<MultiOccurrence>, SearchStats) {
        let res = self.index.search_recorded(pattern, k, method, recorder);
        let m = pattern.len();
        let occ: Vec<MultiOccurrence> = res
            .occurrences
            .into_iter()
            .filter_map(
                |Occurrence {
                     position,
                     mismatches,
                 }| {
                    let (record, offset) = self.locate_record(position);
                    // The window must end inside the same record.
                    if offset + m <= self.record_len(record) {
                        Some(MultiOccurrence {
                            record,
                            offset,
                            mismatches,
                        })
                    } else {
                        recorder.add(Counter::BoundaryFiltered, 1);
                        None
                    }
                },
            )
            .collect();
        (occ, res.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(s: &[u8]) -> Vec<u8> {
        kmm_dna::encode(s).unwrap()
    }

    fn two_chromosomes() -> MultiIndex {
        MultiIndex::new(vec![
            ("chr1".into(), enc(b"acagacagga")),
            ("chr2".into(), enc(b"ttgacagact")),
        ])
    }

    #[test]
    fn coordinates_translate_per_record() {
        let idx = two_chromosomes();
        let pat = enc(b"gacag");
        let (occ, _) = idx.search(&pat, 0, Method::ALGORITHM_A);
        assert_eq!(
            occ,
            vec![
                MultiOccurrence {
                    record: 0,
                    offset: 3,
                    mismatches: 0
                },
                MultiOccurrence {
                    record: 1,
                    offset: 2,
                    mismatches: 0
                },
            ]
        );
    }

    #[test]
    fn straddling_hits_are_filtered() {
        // "ggatt" occurs exactly across the chr1|chr2 boundary in the
        // concatenation ("...ag|ga" + "tt|ga..."); it exists in neither
        // chromosome and must NOT be reported.
        let idx = two_chromosomes();
        let pat = enc(b"ggatt");
        let (occ, _) = idx.search(&pat, 1, Method::ALGORITHM_A);
        assert!(
            occ.iter()
                .all(|o| o.offset + pat.len() <= idx.record_len(o.record)),
            "straddling occurrence leaked: {occ:?}"
        );
        // Direct check: the concatenated index *does* see the straddling
        // hit at concat position 7, proving the filter is what removes it.
        let raw = idx.inner().search(&pat, 1, Method::ALGORITHM_A);
        assert!(raw.occurrences.iter().any(|o| o.position == 7));
    }

    #[test]
    fn every_record_hit_verifies_locally() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5150);
        let recs: Vec<(String, Vec<u8>)> = (0..4)
            .map(|i| {
                let n = rng.gen_range(50..200);
                (
                    format!("c{i}"),
                    (0..n).map(|_| rng.gen_range(1..=4)).collect(),
                )
            })
            .collect();
        let seqs: Vec<Vec<u8>> = recs.iter().map(|(_, s)| s.clone()).collect();
        let idx = MultiIndex::new(recs);
        for _ in 0..20 {
            let m = rng.gen_range(2..12);
            let pat: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            let k = rng.gen_range(0..3);
            let (occ, _) = idx.search(&pat, k, Method::ALGORITHM_A);
            // Compare against per-record naive scans.
            let mut want = Vec::new();
            for (record, seq) in seqs.iter().enumerate() {
                for o in kmm_classic::naive::find_k_mismatch(seq, &pat, k) {
                    want.push(MultiOccurrence {
                        record,
                        offset: o.position,
                        mismatches: o.mismatches,
                    });
                }
            }
            want.sort();
            let mut got = occ.clone();
            got.sort();
            assert_eq!(got, want, "pat={pat:?} k={k}");
        }
    }

    #[test]
    fn record_metadata() {
        let idx = two_chromosomes();
        assert_eq!(idx.record_count(), 2);
        assert_eq!(idx.names(), &["chr1".to_string(), "chr2".to_string()]);
        assert_eq!(idx.record_len(0), 10);
        assert_eq!(idx.record_len(1), 10);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn rejects_empty_collection() {
        MultiIndex::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn rejects_empty_record() {
        MultiIndex::new(vec![("x".into(), vec![])]);
    }
}
