//! Sampled suffix arrays for `locate` queries.
//!
//! The BWT index needs suffix-array values only to translate matched SA
//! rows back into text positions. Storing the full SA costs 4 bytes per
//! character; the standard compromise (also behind the paper's "different
//! compression rates of auxiliary arrays" remark in Section II) keeps the
//! value `SA[row]` only when it is a multiple of the sampling rate, plus a
//! rank-indexed bit vector marking the sampled rows. Unsampled rows are
//! resolved by LF-stepping until a sampled row is hit — at most
//! `rate - 1` steps.

use kmm_par::{aligned_spans, ThreadPool};

use crate::limits::{check_text_len, TextTooLarge};
use crate::mmap::{U32Store, U64Store};

/// A bit vector with O(1) rank support (one u32 prefix count per 64-bit word).
#[derive(Debug, Clone)]
pub struct BitRank {
    words: U64Store,
    prefix: U32Store,
    len: usize,
}

impl BitRank {
    /// Build from a boolean slice.
    pub fn new(bits: &[bool]) -> Self {
        let n = bits.len();
        let mut words = vec![0u64; n.div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        let mut prefix = Vec::with_capacity(words.len() + 1);
        let mut acc = 0u32;
        prefix.push(0);
        for &w in &words {
            acc += w.count_ones();
            prefix.push(acc);
        }
        BitRank {
            words: words.into(),
            prefix: prefix.into(),
            len: n,
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits in `[0, i)`.
    #[inline]
    pub fn rank(&self, i: usize) -> u32 {
        debug_assert!(i <= self.len);
        let w = i / 64;
        let mut r = self.prefix[w];
        let rem = i % 64;
        if rem > 0 {
            r += (self.words[w] & ((1u64 << rem) - 1)).count_ones();
        }
        r
    }
}

/// SA samples at rows whose value is a multiple of `rate`.
#[derive(Debug, Clone)]
pub struct SampledSuffixArray {
    marked: BitRank,
    samples: U32Store,
    rate: usize,
}

impl SampledSuffixArray {
    /// Sample a full suffix array at the given rate (`rate = 1` keeps all).
    ///
    /// Panics on inputs too long for the `u32` layout (see
    /// [`Self::try_new_with`]).
    pub fn new(sa: &[u32], rate: usize) -> Self {
        match Self::try_new_with(sa, rate, &ThreadPool::serial()) {
            Ok(ssa) => ssa,
            Err(err) => panic!("{err}"),
        }
    }

    /// Sample a suffix array, rejecting inputs too long for the `u32`
    /// sample layout.
    ///
    /// Mark-bitmap words and retained samples are extracted per
    /// 64-row-aligned segment across `pool` (each worker owns whole
    /// bitmap words; samples stay in row order because segments are
    /// merged in order), then the rank directory is rebuilt with one
    /// cheap serial prefix pass. Output is bit-identical to the serial
    /// build at any thread count.
    pub fn try_new_with(sa: &[u32], rate: usize, pool: &ThreadPool) -> Result<Self, TextTooLarge> {
        assert!(rate >= 1, "sampling rate must be >= 1");
        check_text_len(sa.len())?;
        let spans = aligned_spans(sa.len(), pool.threads() * 4, 64);
        let parts = pool.par_map(&spans, |_, span| {
            let mut words = vec![0u64; (span.end - span.start).div_ceil(64)];
            let mut samples = Vec::new();
            for (off, &v) in sa[span.clone()].iter().enumerate() {
                if (v as usize).is_multiple_of(rate) {
                    words[off / 64] |= 1u64 << (off % 64);
                    samples.push(v);
                }
            }
            (words, samples)
        });
        let mut words = Vec::with_capacity(sa.len().div_ceil(64));
        let mut samples = Vec::with_capacity(sa.len() / rate + 1);
        for (w, s) in parts {
            words.extend(w);
            samples.extend(s);
        }
        let mut prefix = Vec::with_capacity(words.len() + 1);
        let mut acc = 0u32;
        prefix.push(0);
        for &w in &words {
            acc += w.count_ones();
            prefix.push(acc);
        }
        Ok(SampledSuffixArray {
            marked: BitRank {
                words: words.into(),
                prefix: prefix.into(),
                len: sa.len(),
            },
            samples: samples.into(),
            rate,
        })
    }

    /// Assemble from storage already validated against v3 sections
    /// (`words`/`prefix`/`samples` may borrow the index file). Besides
    /// the array lengths, this checks the rank-directory invariants that
    /// make every later array access in-bounds and every `locate` right
    /// on well-formed data: the stored prefix must be exactly the
    /// popcount prefix of the stored words, and the sample count must
    /// equal the total mark count. The prefix check is one O(n/64) pass
    /// and runs on every load path: a section checksum only catches
    /// accidental damage, not a rewrite that keeps the checksums
    /// consistent.
    pub(crate) fn from_store(
        len: usize,
        rate: usize,
        words: U64Store,
        prefix: U32Store,
        samples: U32Store,
    ) -> Result<Self, crate::serialize::SerializeError> {
        use crate::serialize::SerializeError;
        if rate == 0 {
            return Err(SerializeError::Malformed("sa sampling rate"));
        }
        if words.len() != len.div_ceil(64) {
            return Err(SerializeError::Malformed("mark bitmap length"));
        }
        if prefix.len() != words.len() + 1 {
            return Err(SerializeError::Malformed("rank directory length"));
        }
        if prefix.first() != Some(&0) && len > 0 {
            return Err(SerializeError::Malformed("rank directory origin"));
        }
        if prefix.last().copied().unwrap_or(0) as usize != samples.len() {
            return Err(SerializeError::Malformed("sample count"));
        }
        // With rate >= 1 the SA value 0 is always sampled, so a
        // non-empty array without samples cannot be well-formed (and
        // would make `resolve` walk forever).
        if len > 0 && samples.is_empty() {
            return Err(SerializeError::Malformed("sample count"));
        }
        let mut acc = 0u32;
        for (w, &p) in words.iter().zip(prefix.iter().skip(1)) {
            acc = acc.wrapping_add(w.count_ones());
            if p != acc {
                return Err(SerializeError::Malformed("rank directory"));
            }
        }
        Ok(SampledSuffixArray {
            marked: BitRank { words, prefix, len },
            samples,
            rate,
        })
    }

    /// The mark-bitmap words (for the v3 section writer).
    pub(crate) fn mark_words_raw(&self) -> &[u64] {
        &self.marked.words
    }

    /// The rank-directory prefix counts (for the v3 section writer —
    /// stored so a zero-copy open needs no O(n) rebuild).
    pub(crate) fn prefix_raw(&self) -> &[u32] {
        &self.marked.prefix
    }

    /// The retained SA samples (for the v3 section writer).
    pub(crate) fn samples_raw(&self) -> &[u32] {
        &self.samples
    }

    /// Rows covered by the mark bitmap (== the indexed text length).
    pub(crate) fn marked_len(&self) -> usize {
        self.marked.len
    }

    /// True when any backing array borrows an index file region.
    pub fn is_borrowed(&self) -> bool {
        self.marked.words.is_borrowed() || self.samples.is_borrowed()
    }

    /// If `row` is sampled, its SA value.
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        if self.marked.get(row) {
            Some(self.samples[self.marked.rank(row) as usize])
        } else {
            None
        }
    }

    /// Resolve `SA[row]` by walking `lf` until a sampled row is found.
    /// `lf(row)` must map a row to the row of the preceding suffix.
    ///
    /// # Panics
    /// When no sample turns up within `min(rate, len)` steps. A
    /// well-formed index always meets one within `rate - 1` (and LF, a
    /// permutation, visits every row within `len - 1`), so only corrupt
    /// rank data — an LF cycle that skips every sample — gets there. The
    /// bound turns what would be an endless walk into a panic that names
    /// the corruption.
    pub fn resolve(&self, mut row: usize, lf: impl Fn(usize) -> usize) -> u32 {
        let bound = self.rate.min(self.marked.len) as u32;
        let mut steps = 0u32;
        loop {
            if let Some(v) = self.get(row) {
                return v + steps;
            }
            assert!(
                steps < bound,
                "locate walked {bound} LF steps without reaching an SA sample: the index is corrupt"
            );
            row = lf(row);
            steps += 1;
        }
    }

    /// Configured sampling rate.
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// Heap bytes used by samples + marks.
    pub fn heap_bytes(&self) -> usize {
        self.samples.len() * 4 + self.marked.words.len() * 8 + self.marked.prefix.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitrank_matches_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let n = rng.gen_range(0..300);
            let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
            let br = BitRank::new(&bits);
            assert_eq!(br.len(), n);
            let mut acc = 0u32;
            for (i, &bit) in bits.iter().enumerate() {
                assert_eq!(br.rank(i), acc);
                assert_eq!(br.get(i), bit);
                if bit {
                    acc += 1;
                }
            }
            assert_eq!(br.rank(n), acc);
        }
    }

    #[test]
    fn full_sampling_is_identity() {
        let sa = vec![7u32, 6, 4, 0, 2, 5, 1, 3];
        let s = SampledSuffixArray::new(&sa, 1);
        for (row, &v) in sa.iter().enumerate() {
            assert_eq!(s.get(row), Some(v));
        }
    }

    #[test]
    fn sparse_sampling_marks_multiples() {
        let sa = vec![7u32, 6, 4, 0, 2, 5, 1, 3];
        let s = SampledSuffixArray::new(&sa, 4);
        // Values 0 and 4 are multiples of 4.
        assert_eq!(s.get(3), Some(0));
        assert_eq!(s.get(2), Some(4));
        assert_eq!(s.get(0), None);
        assert_eq!(s.rate(), 4);
    }

    #[test]
    fn resolve_via_lf_on_real_text() {
        // Build a real BWT + LF over the paper's text and check resolve
        // reproduces the full SA at every rate.
        let text = kmm_dna::encode_text(b"acagacagattaca").unwrap();
        let sa = kmm_suffix::suffix_array(&text, kmm_dna::SIGMA);
        let l = crate::bwt::bwt_from_sa(&text, &sa);
        // LF via counting (reference implementation).
        let sigma = kmm_dna::SIGMA;
        let mut c = vec![0usize; sigma + 1];
        for &x in &l {
            c[x as usize + 1] += 1;
        }
        for i in 0..sigma {
            c[i + 1] += c[i];
        }
        let mut seen = vec![0usize; sigma];
        let mut lf = vec![0usize; l.len()];
        for (i, &x) in l.iter().enumerate() {
            lf[i] = c[x as usize] + seen[x as usize];
            seen[x as usize] += 1;
        }
        for rate in [1usize, 2, 4, 8] {
            let s = SampledSuffixArray::new(&sa, rate);
            for (row, &v) in sa.iter().enumerate() {
                assert_eq!(s.resolve(row, |r| lf[r]), v, "rate {rate} row {row}");
            }
        }
    }

    #[test]
    fn sparse_uses_less_space() {
        let sa: Vec<u32> = (0..10_000u32).rev().collect();
        let dense = SampledSuffixArray::new(&sa, 1);
        let sparse = SampledSuffixArray::new(&sa, 32);
        assert!(sparse.heap_bytes() < dense.heap_bytes() / 4);
    }

    #[test]
    #[should_panic(expected = "rate must be >= 1")]
    fn rejects_zero_rate() {
        SampledSuffixArray::new(&[0], 0);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for n in [1usize, 63, 64, 65, 500, 4096] {
            // A permutation-like SA stand-in: distinct values in 0..n.
            let mut sa: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                sa.swap(i, rng.gen_range(0..=i));
            }
            for rate in [1usize, 4, 16] {
                let serial = SampledSuffixArray::new(&sa, rate);
                for threads in [2usize, 3, 8] {
                    let par =
                        SampledSuffixArray::try_new_with(&sa, rate, &ThreadPool::new(threads))
                            .unwrap();
                    let ctx = format!("n={n} rate={rate} threads={threads}");
                    assert_eq!(par.mark_words_raw(), serial.mark_words_raw(), "{ctx}");
                    assert_eq!(par.prefix_raw(), serial.prefix_raw(), "{ctx}");
                    assert_eq!(par.samples_raw(), serial.samples_raw(), "{ctx}");
                    assert_eq!(par.marked_len(), serial.marked_len(), "{ctx}");
                    assert_eq!(par.get(0), serial.get(0));
                }
            }
        }
        assert!(SampledSuffixArray::try_new_with(&[0, 1, 2], 2, &ThreadPool::serial()).is_ok());
    }
}
