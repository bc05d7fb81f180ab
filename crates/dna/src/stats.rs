//! Sequence statistics.
//!
//! Used to validate that the synthetic genomes substitute faithfully for
//! the paper's assemblies (DESIGN.md §3): GC content, k-mer entropy,
//! repeat content (fraction of duplicated k-mers), and homopolymer runs
//! are the statistics that drive S-tree/M-tree branching behaviour.

use std::collections::HashMap;

use crate::alphabet::SIGMA;

/// Count all k-mers of an encoded, sentinel-free sequence.
///
/// # Panics
/// Panics if `k == 0`, `k > 32`, or the sequence contains non-base codes.
pub fn kmer_counts(seq: &[u8], k: usize) -> HashMap<u64, u32> {
    assert!((1..=32).contains(&k), "k must be in 1..=32");
    let mut counts = HashMap::new();
    if seq.len() < k {
        return counts;
    }
    let mask: u64 = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut key = 0u64;
    for (i, &c) in seq.iter().enumerate() {
        assert!(c >= 1 && (c as usize) < SIGMA, "non-base code {c}");
        key = ((key << 2) | (c as u64 - 1)) & mask;
        if i + 1 >= k {
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    counts
}

/// Decode a 2-bit packed k-mer key back into base codes.
pub fn decode_kmer(key: u64, k: usize) -> Vec<u8> {
    (0..k)
        .rev()
        .map(|i| ((key >> (2 * i)) & 0b11) as u8 + 1)
        .collect()
}

/// Shannon entropy (bits/symbol) of the k-mer distribution; ranges from 0
/// (single repeated k-mer) to `2k` (uniform over all k-mers).
pub fn kmer_entropy(seq: &[u8], k: usize) -> f64 {
    let counts = kmer_counts(seq, k);
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    if total == 0 {
        return 0.0;
    }
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// Fraction of `g`/`c` bases in an encoded, sentinel-free sequence.
/// Returns 0.0 for an empty sequence.
pub fn gc_content(codes: &[u8]) -> f64 {
    if codes.is_empty() {
        return 0.0;
    }
    let gc = codes.iter().filter(|&&c| c == 2 || c == 3).count();
    gc as f64 / codes.len() as f64
}

/// Fraction of k-mer *positions* whose k-mer occurs more than once — a
/// proxy for repeat content at window size k.
pub fn duplicated_kmer_fraction(seq: &[u8], k: usize) -> f64 {
    let counts = kmer_counts(seq, k);
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let dup: u64 = counts.values().filter(|&&c| c > 1).map(|&c| c as u64).sum();
    dup as f64 / total as f64
}

/// Length of the longest homopolymer run.
pub fn longest_run(seq: &[u8]) -> usize {
    let mut best = 0usize;
    let mut cur = 0usize;
    let mut prev = 0u8;
    for &c in seq {
        if c == prev {
            cur += 1;
        } else {
            cur = 1;
            prev = c;
        }
        best = best.max(cur);
    }
    best
}

/// Summary statistics bundle for a sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqStats {
    /// Sequence length in bases.
    pub len: usize,
    /// GC fraction.
    pub gc: f64,
    /// 12-mer entropy in bits (max 24).
    pub entropy12: f64,
    /// Fraction of duplicated 16-mers (repeat-content proxy).
    pub repeat16: f64,
    /// Longest homopolymer run.
    pub longest_run: usize,
}

/// Compute the summary bundle.
pub fn seq_stats(seq: &[u8]) -> SeqStats {
    SeqStats {
        len: seq.len(),
        gc: gc_content(seq),
        entropy12: kmer_entropy(seq, 12),
        repeat16: duplicated_kmer_fraction(seq, 16),
        longest_run: longest_run(seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode;

    #[test]
    fn gc_content_known() {
        let codes = encode(b"acgt").unwrap();
        assert!((gc_content(&codes) - 0.5).abs() < 1e-12);
        assert_eq!(gc_content(&[]), 0.0);
        let codes = encode(b"aaaa").unwrap();
        assert_eq!(gc_content(&codes), 0.0);
        let codes = encode(b"gcgc").unwrap();
        assert_eq!(gc_content(&codes), 1.0);
    }

    #[test]
    fn kmer_counts_known() {
        let seq = encode(b"acgtacg").unwrap();
        let counts = kmer_counts(&seq, 4);
        // 4-mers: acgt, cgta, gtac, tacg -> all distinct, 4 positions.
        assert_eq!(counts.len(), 4);
        assert!(counts.values().all(|&c| c == 1));
        let counts = kmer_counts(&seq, 3);
        // acg appears twice.
        assert_eq!(counts.values().filter(|&&c| c == 2).count(), 1);
    }

    #[test]
    fn kmer_roundtrip() {
        let seq = encode(b"gattaca").unwrap();
        let counts = kmer_counts(&seq, 7);
        assert_eq!(counts.len(), 1);
        let (&key, &c) = counts.iter().next().unwrap();
        assert_eq!(c, 1);
        assert_eq!(decode_kmer(key, 7), seq);
    }

    #[test]
    fn short_sequence_yields_nothing() {
        let seq = encode(b"ac").unwrap();
        assert!(kmer_counts(&seq, 3).is_empty());
        assert_eq!(kmer_entropy(&seq, 3), 0.0);
        assert_eq!(duplicated_kmer_fraction(&seq, 3), 0.0);
    }

    #[test]
    fn entropy_extremes() {
        let flat = encode(&b"a".repeat(100)).unwrap();
        assert!(kmer_entropy(&flat, 4) < 1e-9);
        // A uniform random sequence approaches the maximum (2k bits, capped
        // by the number of positions).
        let rnd = crate::genome::uniform(100_000, 77);
        let h = kmer_entropy(&rnd, 4);
        assert!(h > 7.9 && h <= 8.0, "h = {h}");
    }

    #[test]
    fn repeat_fraction_orders_generators() {
        let rnd = crate::genome::uniform(50_000, 1);
        let rep = crate::genome::markov(
            50_000,
            &crate::genome::MarkovConfig {
                repeat_fraction: 0.5,
                ..Default::default()
            },
            1,
        );
        assert!(duplicated_kmer_fraction(&rep, 16) > duplicated_kmer_fraction(&rnd, 16) + 0.1);
    }

    #[test]
    fn longest_run_cases() {
        assert_eq!(longest_run(&[]), 0);
        assert_eq!(longest_run(&encode(b"acgt").unwrap()), 1);
        assert_eq!(longest_run(&encode(b"aaacaa").unwrap()), 3);
        assert_eq!(longest_run(&encode(b"ttttt").unwrap()), 5);
    }

    #[test]
    fn stats_bundle() {
        let g = crate::genome::markov(20_000, &Default::default(), 9);
        let s = seq_stats(&g);
        assert_eq!(s.len, 20_000);
        assert!(s.gc > 0.2 && s.gc < 0.8);
        assert!(s.entropy12 > 8.0);
        assert!(
            s.repeat16 > 0.05,
            "expected repeat content, got {}",
            s.repeat16
        );
        assert!(s.longest_run >= 3);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn rejects_zero_k() {
        kmer_counts(&[1, 2], 0);
    }
}
