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
//!
//! Every kept value is a multiple of the rate, so only `SA[row] / rate`
//! is stored, bit-packed at the fewest bits that hold the largest one
//! ([`sample_width`]): 19 bits a sample at 2.9 Mbp and rate 8, where a
//! `u32` array would spend 32.

use kmm_par::{aligned_spans, ThreadPool};

use crate::limits::{check_text_len, TextTooLarge};
use crate::mmap::{U32Store, U64Store};

/// Running popcounts of `words`: entry `i` counts the set bits of
/// `words[..i]` (one more entry than words).
fn popcount_prefix(words: &[u64]) -> Vec<u32> {
    let mut prefix = Vec::with_capacity(words.len() + 1);
    let mut acc = 0u32;
    prefix.push(0);
    for &w in words {
        acc += w.count_ones();
        prefix.push(acc);
    }
    prefix
}

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
        BitRank {
            prefix: popcount_prefix(&words).into(),
            words: words.into(),
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

/// Bits per packed sample of a `len`-row array sampled at `rate`: the
/// bit length of the largest stored value, `(len - 1) / rate`, and at
/// least 1. A function of the index's length and rate alone, so the
/// file does not store it.
pub fn sample_width(len: usize, rate: usize) -> u32 {
    let largest = len.saturating_sub(1) / rate;
    (usize::BITS - largest.leading_zeros()).max(1)
}

/// SA samples at rows whose value is a multiple of `rate`.
#[derive(Debug, Clone)]
pub struct SampledSuffixArray {
    marked: BitRank,
    /// `SA[row] / rate` of each marked row, in row order, `width` bits
    /// each, least significant bit first across the words.
    samples: U64Store,
    width: u32,
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
    /// Mark-bitmap words are extracted per 64-row-aligned segment across
    /// `pool` (each worker owns whole bitmap words), then one serial pass
    /// builds the rank directory and another packs the samples, reading
    /// `SA[row] / rate` at each marked row straight from `sa` (no array
    /// of unpacked samples is held). Output is bit-identical to the
    /// serial build at any thread count.
    pub fn try_new_with(sa: &[u32], rate: usize, pool: &ThreadPool) -> Result<Self, TextTooLarge> {
        assert!(rate >= 1, "sampling rate must be >= 1");
        check_text_len(sa.len())?;
        let spans = aligned_spans(sa.len(), pool.threads() * 4, 64);
        let words = pool
            .par_map(&spans, |_, span| {
                let mut words = vec![0u64; (span.end - span.start).div_ceil(64)];
                for (off, &v) in sa[span.clone()].iter().enumerate() {
                    if (v as usize).is_multiple_of(rate) {
                        words[off / 64] |= 1u64 << (off % 64);
                    }
                }
                words
            })
            .concat();
        let prefix = popcount_prefix(&words);
        let width = sample_width(sa.len(), rate);
        let count = prefix.last().copied().unwrap_or(0) as usize;
        let mut packed = Vec::with_capacity((count * width as usize).div_ceil(64));
        let (mut acc, mut used) = (0u64, 0u32);
        for (i, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let row = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = (sa[row] as usize / rate) as u64;
                acc |= v << used;
                used += width;
                if used >= 64 {
                    packed.push(acc);
                    used -= 64;
                    // The high `used` bits of `v` that did not fit; the
                    // shift stays below 64 because `width <= 32`.
                    acc = v >> (width - used);
                }
            }
        }
        if used > 0 {
            packed.push(acc);
        }
        debug_assert_eq!(packed.len(), (count * width as usize).div_ceil(64));
        Ok(SampledSuffixArray {
            marked: BitRank {
                words: words.into(),
                prefix: prefix.into(),
                len: sa.len(),
            },
            samples: packed.into(),
            width,
            rate,
        })
    }

    /// Assemble from storage already validated against v4 sections
    /// (`words`/`prefix`/`samples` may borrow the index file). Besides
    /// the array lengths, this checks the rank-directory invariants that
    /// make every later array access in-bounds and every `locate` right
    /// on well-formed data: the stored prefix must be exactly the
    /// popcount prefix of the stored words, and the packed samples must
    /// fill exactly `⌈marks · width / 64⌉` words, `width` being
    /// [`sample_width`] of `len` and `rate`. The prefix check is one
    /// O(n/64) pass and runs on every load path: a section checksum only
    /// catches accidental damage, not a rewrite that keeps the checksums
    /// consistent.
    pub(crate) fn from_store(
        len: usize,
        rate: usize,
        words: U64Store,
        prefix: U32Store,
        samples: U64Store,
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
        let width = sample_width(len, rate);
        let count = prefix.last().copied().unwrap_or(0) as usize;
        let words_needed = count
            .checked_mul(width as usize)
            .map(|bits| bits.div_ceil(64));
        if words_needed != Some(samples.len()) {
            return Err(SerializeError::Malformed("sample count"));
        }
        // With rate >= 1 the SA value 0 is always sampled, so a
        // non-empty array without samples cannot be well-formed (and
        // would make `resolve` walk forever).
        if len > 0 && count == 0 {
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
            width,
            rate,
        })
    }

    /// The mark-bitmap words (for the v4 section writer).
    pub(crate) fn mark_words_raw(&self) -> &[u64] {
        &self.marked.words
    }

    /// The rank-directory prefix counts (for the v4 section writer —
    /// stored so a zero-copy open needs no O(n) rebuild).
    pub(crate) fn prefix_raw(&self) -> &[u32] {
        &self.marked.prefix
    }

    /// The bit-packed samples (for the v4 section writer).
    pub(crate) fn sample_words_raw(&self) -> &[u64] {
        &self.samples
    }

    /// Rows covered by the mark bitmap (== the indexed text length).
    pub(crate) fn marked_len(&self) -> usize {
        self.marked.len
    }

    /// The `i`-th packed sample (`SA / rate` of the `i`-th marked row):
    /// one word read, or two when the sample straddles a word boundary.
    #[inline]
    fn sample(&self, i: usize) -> usize {
        let bit = i * self.width as usize;
        let (word, off) = (bit / 64, bit % 64);
        let mut v = self.samples[word] >> off;
        if off + self.width as usize > 64 {
            v |= self.samples[word + 1] << (64 - off);
        }
        (v & ((1u64 << self.width) - 1)) as usize
    }

    /// If `row` is sampled, its SA value.
    #[inline]
    pub fn get(&self, row: usize) -> Option<usize> {
        self.marked
            .get(row)
            .then(|| self.sample(self.marked.rank(row) as usize) * self.rate)
    }

    /// Resolve `SA[row]` by walking `lf` until a sampled row is found.
    /// `lf(row)` must map a row to the row of the preceding suffix.
    ///
    /// # Panics
    /// When no sample turns up within `min(rate, len)` steps, or when the
    /// position found lies past the text. A well-formed index always
    /// meets a sample within `rate - 1` steps (and LF, a permutation,
    /// visits every row within `len - 1`) and resolves every row to a
    /// position below `len`, so only corrupt data gets there: an LF cycle
    /// that skips every sample, or a sample rewritten past the text (a
    /// packed sample can encode up to `(2^width - 1) · rate`). The checks
    /// turn an endless walk or a wrapped position into a panic that
    /// names the corruption.
    pub fn resolve(&self, mut row: usize, lf: impl Fn(usize) -> usize) -> u32 {
        let len = self.marked.len;
        let bound = self.rate.min(len);
        let mut steps = 0;
        loop {
            if let Some(v) = self.get(row) {
                // Saturating: a corrupt rate in a mapped file's meta can
                // make `v` as large as the rate itself.
                let pos = v.saturating_add(steps);
                assert!(
                    pos < len,
                    "locate resolved a row to position {pos} of a {len}-row index: the index is corrupt"
                );
                return pos as u32;
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
        self.samples.len() * 8 + self.marked.words.len() * 8 + self.marked.prefix.len() * 4
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
            assert_eq!(s.get(row), Some(v as usize));
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
        for n in [1usize, 63, 64, 65, 500, 4096, 40_000] {
            let sa = permutation(n, 41);
            for rate in [1usize, 3, 8, 16] {
                let serial = SampledSuffixArray::new(&sa, rate);
                for threads in [2usize, 3, 8] {
                    let par =
                        SampledSuffixArray::try_new_with(&sa, rate, &ThreadPool::new(threads))
                            .unwrap();
                    let ctx = format!("n={n} rate={rate} threads={threads}");
                    assert_eq!(par.mark_words_raw(), serial.mark_words_raw(), "{ctx}");
                    assert_eq!(par.prefix_raw(), serial.prefix_raw(), "{ctx}");
                    assert_eq!(par.sample_words_raw(), serial.sample_words_raw(), "{ctx}");
                    assert_eq!(par.marked_len(), serial.marked_len(), "{ctx}");
                    assert_eq!(par.get(0), serial.get(0));
                }
            }
        }
        assert!(SampledSuffixArray::try_new_with(&[0, 1, 2], 2, &ThreadPool::serial()).is_ok());
    }

    /// A random permutation of `0..n`: a stand-in suffix array (every
    /// SA is a permutation of the text's positions).
    fn permutation(n: usize, seed: u64) -> Vec<u32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sa: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            sa.swap(i, rng.gen_range(0..=i));
        }
        sa
    }

    /// `get` answers exactly the rows whose SA value is a multiple of
    /// the rate, with that value.
    fn assert_samples_exact(sa: &[u32], rate: usize) {
        let s = SampledSuffixArray::new(sa, rate);
        for (row, &v) in sa.iter().enumerate() {
            let want = (v as usize).is_multiple_of(rate).then_some(v as usize);
            assert_eq!(s.get(row), want, "n={} rate={rate} row={row}", sa.len());
        }
    }

    #[test]
    fn packed_samples_decode_at_every_width() {
        // Widths 1..=11 bits; every width that does not divide 64 (all
        // but 1, 2, 4 and 8) puts samples across word boundaries.
        let mut widths = std::collections::BTreeSet::new();
        for n in [1usize, 2, 3, 63, 64, 65, 129, 1000, 1025, 1999] {
            let sa = permutation(n, n as u64);
            for rate in [1usize, 2, 3, 5, 8, 16] {
                widths.insert(sample_width(n, rate));
                assert_samples_exact(&sa, rate);
            }
        }
        assert_eq!(
            widths.into_iter().collect::<Vec<_>>(),
            (1..=11).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn sample_width_fits_the_largest_sample() {
        assert_eq!(sample_width(0, 1), 1);
        assert_eq!(sample_width(1, 8), 1);
        assert_eq!(sample_width(16, 8), 1); // samples 0, 8 store 0, 1
        assert_eq!(sample_width(17, 8), 2); // 16 joins them, stored as 2
        assert_eq!(sample_width(1 << 20, 1), 20);
        // 2.9 Mbp at rate 8: 19 bits, against 32 for a u32.
        assert_eq!(sample_width(2_900_000, 8), 19);
        assert_eq!(sample_width(crate::limits::MAX_TEXT_LEN, 1), 32);
    }

    #[test]
    fn from_store_rejects_a_samples_section_one_word_off() {
        // 1,000 rows at rate 3: 334 samples of 9 bits, 47 words.
        let sa = permutation(1_000, 5);
        let s = SampledSuffixArray::new(&sa, 3);
        let words = s.sample_words_raw().to_vec();
        assert_eq!(words.len(), (334 * 9usize).div_ceil(64));
        let assemble = |samples: Vec<u64>| {
            SampledSuffixArray::from_store(
                sa.len(),
                3,
                s.mark_words_raw().to_vec().into(),
                s.prefix_raw().to_vec().into(),
                samples.into(),
            )
        };
        let ok = assemble(words.clone()).expect("the built words load");
        assert_eq!(ok.get(0), s.get(0));
        let short = words[..words.len() - 1].to_vec();
        let mut long = words.clone();
        long.push(0);
        for samples in [short, long] {
            assert!(matches!(
                assemble(samples),
                Err(crate::serialize::SerializeError::Malformed("sample count"))
            ));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]
        #[test]
        fn get_is_the_sa_value_exactly_at_multiples_of_the_rate(
            n in 1usize..2000,
            seed in proptest::arbitrary::any::<u64>(),
            rate_at in 0usize..6,
        ) {
            assert_samples_exact(&permutation(n, seed), [1usize, 2, 3, 5, 8, 16][rate_at]);
        }
    }
}
