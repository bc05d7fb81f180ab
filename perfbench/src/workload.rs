//! The three workloads: their fixed parameters, the inputs each makes
//! from `--seed`, and the answer checks every run applies.

use kmm_core::{Alignment, KMismatchIndex, MapReport, MapperConfig, Method, Strand};
use kmm_dna::genome::ReferenceGenome;
use kmm_dna::{hamming, reverse_complement, ReadSimConfig, ReadSimulator};

/// The paper-scale genome: the Rat stand-in at 0.1 of its scaled size,
/// 2.9 Mbp with ~40 % interspersed repeats.
pub const GENOME: ReferenceGenome = ReferenceGenome::Rat;
pub const PAPER_SCALE: f64 = 0.1;

/// Workers in the in-process pools: the workloads are sized for a
/// 2-core host.
pub const POOL_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// wgsim-style 100 bp reads from both strands, mapped at the
    /// `MapperConfig` defaults by `ReadMapper::map_batch`.
    MapReads,
    /// 32 bp probes cut from simulated reads, sent at k = 1 to a live
    /// `kmm serve` as `POST /search` in an open loop.
    ServeProbes,
    /// 16 bp probes sampled uniformly from the genome, searched at
    /// k = 2 by `KMismatchIndex::search_batch_par`.
    ScanRepeats,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MapReads,
        Workload::ServeProbes,
        Workload::ScanRepeats,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MapReads => "map-reads",
            Workload::ServeProbes => "serve-probes",
            Workload::ScanRepeats => "scan-repeats",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mismatch budget of every operation.
    pub fn k(self) -> usize {
        match self {
            Workload::MapReads => MapperConfig::default().k,
            Workload::ServeProbes => 1,
            Workload::ScanRepeats => 2,
        }
    }

    pub fn pattern_len(self) -> usize {
        match self {
            Workload::MapReads => ReadSimConfig::default().read_len,
            Workload::ServeProbes => 32,
            Workload::ScanRepeats => 16,
        }
    }

    /// The search method the workload exercises: the library's default
    /// (the mapper's; the daemon is sent no method and uses its own).
    pub fn method(self) -> Method {
        MapperConfig::default().method
    }

    /// Distinct operations generated per run; the timed loops cycle
    /// through them if a fast build gets further.
    fn op_count(self) -> usize {
        match self {
            Workload::MapReads => 1_500,
            Workload::ServeProbes => 8_192,
            Workload::ScanRepeats => 40_000,
        }
    }
}

/// A hit the generator planted and every answer must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planted {
    pub position: usize,
    pub mismatches: usize,
    pub reverse: bool,
}

/// One operation: a read, a request's probe or a scan probe.
#[derive(Debug, Clone)]
pub struct Op {
    /// Encoded bases (codes 1..=4).
    pub pattern: Vec<u8>,
    pub planted: Option<Planted>,
}

/// A deterministic 64-bit generator (splitmix64) for probe sampling.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The workload's operations for `seed`, over `genome`.
pub fn make_ops(workload: Workload, genome: &[u8], seed: u64) -> Vec<Op> {
    let count = workload.op_count();
    let k = workload.k();
    match workload {
        Workload::MapReads => ReadSimulator::new(genome, ReadSimConfig::default(), seed)
            .reads(count)
            .into_iter()
            .map(|r| Op {
                planted: (r.edits <= k).then_some(Planted {
                    position: r.origin,
                    mismatches: r.edits,
                    reverse: r.reverse,
                }),
                pattern: r.seq,
            })
            .collect(),
        Workload::ServeProbes => {
            let len = workload.pattern_len();
            let mut sim = ReadSimulator::new(genome, ReadSimConfig::default(), seed);
            let mut rng = SplitMix(seed ^ 0x7365_7276_6500_0000);
            (0..count)
                .map(|_| {
                    let read = sim.next_read();
                    let off = rng.below(read.seq.len() - len + 1);
                    let pattern = read.seq[off..off + len].to_vec();
                    // A forward-strand probe's own window is a hit when
                    // the errors that landed in it stay within k.
                    let pos = read.origin + off;
                    let d = hamming(&genome[pos..pos + len], &pattern);
                    let planted = (!read.reverse && d <= k).then_some(Planted {
                        position: pos,
                        mismatches: d,
                        reverse: false,
                    });
                    Op { pattern, planted }
                })
                .collect()
        }
        Workload::ScanRepeats => {
            let len = workload.pattern_len();
            let mut rng = SplitMix(seed ^ 0x7363_616e_0000_0000);
            (0..count)
                .map(|_| {
                    let pos = rng.below(genome.len() - len + 1);
                    Op {
                        pattern: genome[pos..pos + len].to_vec(),
                        planted: Some(Planted {
                            position: pos,
                            mismatches: 0,
                            reverse: false,
                        }),
                    }
                })
                .collect()
        }
    }
}

/// Check one occurrence list: sorted, distinct, each hit within `k`
/// and reporting its true Hamming distance against the genome, and the
/// planted hit present.
pub fn check_hits(
    genome: &[u8],
    pattern: &[u8],
    k: usize,
    hits: &[(usize, usize)],
    planted: Option<Planted>,
) -> Result<(), String> {
    let m = pattern.len();
    for w in hits.windows(2) {
        if w[0].0 >= w[1].0 {
            return Err(format!("hits not sorted and distinct at {}", w[1].0));
        }
    }
    for &(pos, mm) in hits {
        if pos + m > genome.len() {
            return Err(format!("hit {pos} runs past the genome"));
        }
        let d = hamming(&genome[pos..pos + m], pattern);
        if d != mm || d > k {
            return Err(format!(
                "hit {pos} reports {mm} mismatches, genome says {d} (k = {k})"
            ));
        }
    }
    if let Some(p) = planted.filter(|p| !p.reverse) {
        if !hits.contains(&(p.position, p.mismatches)) {
            return Err(format!(
                "planted hit {} ({} mismatches) missing",
                p.position, p.mismatches
            ));
        }
    }
    Ok(())
}

fn alignment_key(a: &Alignment) -> (usize, usize, bool) {
    (a.position, a.mismatches, a.strand == Strand::Reverse)
}

/// Check one mapping report: every alignment re-verified on its strand,
/// and the read's planted origin present whenever its edits fit in `k`.
pub fn check_report(
    genome: &[u8],
    read: &[u8],
    k: usize,
    report: &MapReport,
    planted: Option<Planted>,
) -> Result<(), String> {
    let rc = reverse_complement(read);
    let m = read.len();
    for a in &report.all {
        let seq = match a.strand {
            Strand::Forward => read,
            Strand::Reverse => &rc[..],
        };
        if a.position + m > genome.len() {
            return Err(format!("alignment {} runs past the genome", a.position));
        }
        let d = hamming(&genome[a.position..a.position + m], seq);
        if d != a.mismatches || d > k {
            return Err(format!(
                "alignment {} reports {} mismatches, genome says {d}",
                a.position, a.mismatches
            ));
        }
    }
    if let Some(p) = planted {
        let want = (p.position, p.mismatches, p.reverse);
        if !report.all.iter().any(|a| alignment_key(a) == want) {
            return Err(format!(
                "planted origin {} (reverse = {}) missing",
                p.position, p.reverse
            ));
        }
    }
    Ok(())
}

/// `(position, mismatches)` pairs of a search result.
pub fn hit_pairs(
    index: &KMismatchIndex,
    pattern: &[u8],
    k: usize,
    method: Method,
) -> Vec<(usize, usize)> {
    index
        .search(pattern, k, method)
        .occurrences
        .iter()
        .map(|o| (o.position, o.mismatches))
        .collect()
}

/// Compare a search answer with the naive scan.
pub fn naive_search(
    index: &KMismatchIndex,
    pattern: &[u8],
    k: usize,
    got: &[(usize, usize)],
) -> Result<(), String> {
    let want = hit_pairs(index, pattern, k, Method::Naive);
    if want != got {
        return Err(format!(
            "{} hits differ from the naive scan's {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Compare a mapping report's alignments with naive scans of both strands.
pub fn naive_map(
    index: &KMismatchIndex,
    read: &[u8],
    k: usize,
    report: &MapReport,
) -> Result<(), String> {
    let mut want: Vec<(usize, usize, bool)> = hit_pairs(index, read, k, Method::Naive)
        .into_iter()
        .map(|(p, mm)| (p, mm, false))
        .collect();
    if MapperConfig::default().both_strands {
        want.extend(
            hit_pairs(index, &reverse_complement(read), k, Method::Naive)
                .into_iter()
                .map(|(p, mm)| (p, mm, true)),
        );
    }
    want.sort_unstable();
    let mut got: Vec<(usize, usize, bool)> = report.all.iter().map(alignment_key).collect();
    got.sort_unstable();
    if want != got {
        return Err(format!(
            "{} alignments differ from the naive scan's {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// How many leading operations of every run are also answered by the
/// naive scan (each costs a full pass over the genome).
pub const NAIVE_SAMPLE: usize = 4;

/// The genome the workloads run on, at `scale` (the paper's 0.1 unless
/// a smoke test asks for less).
pub fn genome(scale: f64) -> Vec<u8> {
    GENOME.generate_scaled(scale)
}
