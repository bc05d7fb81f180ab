//! Linear-time suffix array construction (SA-IS).
//!
//! The paper builds `BWT(s̄)` through the suffix array of the reversed text
//! (Section III-B), citing the linear-time constructions of \[15\]. We
//! implement the induced-sorting algorithm of Nong, Zhang & Chan (SA-IS),
//! which runs in `O(n)` time and is the approach used by virtually all
//! modern read aligners. Beyond the output array, its scratch is one bit
//! per symbol (the suffix types) plus bucket pointers, level by level.
//!
//! The entry point [`suffix_array`] takes an encoded text that ends with
//! the unique, smallest sentinel (`$`, code 0) and returns the permutation
//! `H` with `H[i]` = start of the i-th smallest suffix (so `H[0]` is always
//! the sentinel position `n-1`).

/// Build the suffix array of `text`.
///
/// Requirements (checked): `text` is non-empty, its last symbol is `0`,
/// `0` occurs nowhere else, and all symbols are `< sigma`.
pub fn suffix_array(text: &[u8], sigma: usize) -> Vec<u32> {
    assert!(!text.is_empty(), "text must be non-empty");
    assert_eq!(
        *text.last().unwrap(),
        0,
        "text must end with the sentinel 0"
    );
    assert!(
        !text[..text.len() - 1].contains(&0),
        "sentinel 0 must be unique"
    );
    assert!(
        text.iter().all(|&c| (c as usize) < sigma),
        "all symbols must be < sigma"
    );
    assert!(
        text.len() <= u32::MAX as usize,
        "texts larger than u32::MAX are not supported"
    );
    let mut sa = vec![0u32; text.len()];
    sais(text, sigma, &mut sa);
    sa
}

/// Marks a free suffix-array slot. Never a position: positions are
/// `< n <= u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// A symbol of a string [`sais`] sorts: text bytes at the top level,
/// `u32` LMS-substring names in the recursion.
trait Symbol: Copy + Ord {
    /// The symbol's bucket: its value as an index below `sigma`.
    fn bucket(self) -> usize;
}

impl Symbol for u8 {
    #[inline]
    fn bucket(self) -> usize {
        self as usize
    }
}

impl Symbol for u32 {
    #[inline]
    fn bucket(self) -> usize {
        self as usize
    }
}

/// Suffix types as a bitvector: bit `i` is set when suffix `i` is
/// S-type (smaller than suffix `i + 1`), clear when L-type.
struct Types(Vec<u64>);

impl Types {
    fn classify<T: Symbol>(s: &[T]) -> Types {
        let n = s.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        bits[(n - 1) / 64] |= 1 << ((n - 1) % 64);
        let mut next_s = true;
        for i in (0..n - 1).rev() {
            next_s = s[i] < s[i + 1] || (s[i] == s[i + 1] && next_s);
            if next_s {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        Types(bits)
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Leftmost-S: an S-type suffix whose left neighbour is L-type.
    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// Bucket boundaries of a string: `sizes[c]` counts symbol `c`, and
/// `ptr` is the moving head or tail pointer of each bucket.
struct Buckets {
    sizes: Vec<u32>,
    ptr: Vec<u32>,
}

impl Buckets {
    fn new<T: Symbol>(s: &[T], sigma: usize) -> Buckets {
        let mut sizes = vec![0u32; sigma];
        for &c in s {
            sizes[c.bucket()] += 1;
        }
        Buckets {
            ptr: vec![0; sigma],
            sizes,
        }
    }

    /// Point every bucket at its first slot.
    fn heads(&mut self) {
        let mut sum = 0;
        for (p, &size) in self.ptr.iter_mut().zip(&self.sizes) {
            *p = sum;
            sum += size;
        }
    }

    /// Point every bucket one past its last slot.
    fn tails(&mut self) {
        let mut sum = 0;
        for (p, &size) in self.ptr.iter_mut().zip(&self.sizes) {
            sum += size;
            *p = sum;
        }
    }
}

/// Induced sorting: with LMS suffixes seeded at their bucket tails,
/// place every L-type suffix left to right, then every S-type suffix
/// right to left (overwriting the seeds with their final order).
fn induce<T: Symbol>(s: &[T], types: &Types, bkt: &mut Buckets, sa: &mut [u32]) {
    bkt.heads();
    for i in 0..sa.len() {
        let j = sa[i];
        if j == EMPTY || j == 0 {
            continue;
        }
        let j = j as usize - 1;
        if !types.is_s(j) {
            let c = s[j].bucket();
            sa[bkt.ptr[c] as usize] = j as u32;
            bkt.ptr[c] += 1;
        }
    }
    bkt.tails();
    for i in (0..sa.len()).rev() {
        let j = sa[i];
        if j == EMPTY || j == 0 {
            continue;
        }
        let j = j as usize - 1;
        if types.is_s(j) {
            let c = s[j].bucket();
            bkt.ptr[c] -= 1;
            sa[bkt.ptr[c] as usize] = j as u32;
        }
    }
}

/// Whether the LMS substrings starting at `p` and `q` (each running to
/// the next LMS position, inclusive) are equal. Equal symbols up to two
/// S-type ends imply equal types, so only symbols are compared. Both
/// end at an LMS position at the latest at the sentinel, and the
/// sentinel equals no other symbol, so the walk stays inside `s`.
fn lms_substrings_equal<T: Symbol>(s: &[T], types: &Types, p: usize, q: usize) -> bool {
    for d in 0.. {
        if s[p + d] != s[q + d] {
            return false;
        }
        if d > 0 && (types.is_lms(p + d) || types.is_lms(q + d)) {
            return types.is_lms(p + d) && types.is_lms(q + d);
        }
    }
    unreachable!("an LMS substring ends at the sentinel at the latest")
}

/// SA-IS (Nong, Zhang & Chan) over `s`, which must end with a unique
/// smallest sentinel 0, writing its suffix array into `sa`.
///
/// Scratch beyond `sa` is the type bitvector and the bucket pointers:
/// LMS names go into the free upper half of `sa`, and the reduced
/// string is sorted recursively in place — it occupies the tail of
/// `sa` while its suffix array is built in the head.
fn sais<T: Symbol>(s: &[T], sigma: usize, sa: &mut [u32]) {
    let n = s.len();
    debug_assert_eq!(sa.len(), n);
    if n == 1 {
        sa[0] = 0;
        return;
    }
    let types = Types::classify(s);
    let mut bkt = Buckets::new(s, sigma);

    // Stage 1: sort the LMS substrings by one induced sort seeded with
    // the LMS positions in text order.
    sa.fill(EMPTY);
    bkt.tails();
    for (i, c) in s.iter().enumerate().skip(1) {
        if types.is_lms(i) {
            let c = c.bucket();
            bkt.ptr[c] -= 1;
            sa[bkt.ptr[c] as usize] = i as u32;
        }
    }
    induce(s, &types, &mut bkt, sa);

    // Compact the sorted LMS positions into sa[..n1].
    let mut n1 = 0;
    for i in 0..n {
        let p = sa[i];
        if types.is_lms(p as usize) {
            sa[n1] = p;
            n1 += 1;
        }
    }

    // Name the LMS substrings in sorted order. LMS positions are at
    // least 2 apart, so slot n1 + p/2 is free and distinct per position
    // (n1 <= n/2 keeps it below n).
    sa[n1..].fill(EMPTY);
    let mut names: u32 = 0;
    let mut prev: Option<usize> = None;
    for i in 0..n1 {
        let p = sa[i] as usize;
        if !prev.is_some_and(|q| lms_substrings_equal(s, &types, p, q)) {
            names += 1;
        }
        prev = Some(p);
        sa[n1 + p / 2] = names - 1;
    }

    if (names as usize) < n1 {
        // Gather the names in text order at the tail of sa: the reduced
        // string. Its last symbol is the sentinel's name 0, unique and
        // smallest, so it satisfies this function's precondition as is.
        let mut j = n;
        for i in (n1..n).rev() {
            if sa[i] != EMPTY {
                j -= 1;
                sa[j] = sa[i];
            }
        }
        let (head, tail) = sa.split_at_mut(n - n1);
        sais::<u32>(tail, names as usize, &mut head[..n1]);
        // Map reduced-string indices back to text positions, reusing the
        // tail for the LMS positions in text order.
        let mut j = 0;
        for i in 1..n {
            if types.is_lms(i) {
                tail[j] = i as u32;
                j += 1;
            }
        }
        for r in &mut head[..n1] {
            *r = tail[*r as usize];
        }
    }
    // Otherwise all LMS substrings differ and sa[..n1] is already the
    // LMS suffix order.

    // Stage 3: seed the sorted LMS suffixes at their bucket tails, last
    // first (the i-th never lands left of slot i), and induce the rest.
    sa[n1..].fill(EMPTY);
    bkt.tails();
    for i in (0..n1).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        let c = s[p as usize].bucket();
        bkt.ptr[c] -= 1;
        sa[bkt.ptr[c] as usize] = p;
    }
    induce(s, &types, &mut bkt, sa);
    debug_assert!(sa.iter().all(|&x| x != EMPTY));
}

/// Reference `O(n^2 log n)` construction by direct suffix sorting.
/// Used only in tests and as a cross-check for small inputs.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(ascii: &[u8]) {
        let text = kmm_dna::encode_text(ascii).unwrap();
        let fast = suffix_array(&text, kmm_dna::SIGMA);
        let slow = suffix_array_naive(&text);
        assert_eq!(
            fast,
            slow,
            "mismatch for {:?}",
            String::from_utf8_lossy(ascii)
        );
    }

    #[test]
    fn paper_example() {
        // s = acagaca$ from Fig. 1/2: sorted rotations give SA order
        // $, a$, aca$, acagaca$, agaca$, ca$, caga..., gaca$.
        let text = kmm_dna::encode_text(b"acagaca").unwrap();
        let sa = suffix_array(&text, kmm_dna::SIGMA);
        assert_eq!(sa, vec![7, 6, 4, 0, 2, 5, 1, 3]);
    }

    #[test]
    fn tiny_texts() {
        check(b"");
        check(b"a");
        check(b"aa");
        check(b"ab".map(|_| b'a').as_ref());
        check(b"ac");
        check(b"ca");
    }

    #[test]
    fn repetitive_texts() {
        check(b"aaaaaaaaaa");
        check(b"acacacacac");
        check(b"aacaacaacaac");
        check(
            b"abracadabra"
                .iter()
                .map(|_| b'a')
                .collect::<Vec<_>>()
                .as_ref(),
        );
        check(b"gtgtgtgtgtg");
    }

    #[test]
    fn mississippi_style() {
        // 'mississippi' transliterated into DNA: m->a i->c s->g p->t
        check(b"acggcggcttc");
    }

    #[test]
    fn random_texts_match_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let len = rng.gen_range(1..200);
            let ascii: Vec<u8> = (0..len)
                .map(|_| b"acgt"[rng.gen_range(0..4usize)])
                .collect();
            check(&ascii);
        }
    }

    #[test]
    fn long_random_text() {
        let g = kmm_dna::genome::uniform(50_000, 12);
        let ascii = kmm_dna::decode(&g);
        check(&ascii);
    }

    #[test]
    fn long_repetitive_text() {
        let mut ascii = b"acgtacgga".repeat(2000);
        ascii.extend_from_slice(b"ttt");
        check(&ascii);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn rejects_missing_sentinel() {
        suffix_array(&[1, 2, 3], 5);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn rejects_interior_sentinel() {
        suffix_array(&[1, 0, 2, 0], 5);
    }

    #[test]
    fn sentinel_only() {
        assert_eq!(suffix_array(&[0], 5), vec![0]);
    }

    /// Every text over `bases` of each length up to `max_len`.
    fn all_texts(bases: &[u8], max_len: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..=max_len).flat_map(move |len| {
            let count = bases.len().pow(len as u32);
            (0..count).map(move |mut code| {
                let mut text: Vec<u8> = (0..len)
                    .map(|_| {
                        let c = bases[code % bases.len()];
                        code /= bases.len();
                        c
                    })
                    .collect();
                text.push(0);
                text
            })
        })
    }

    #[test]
    fn exhaustive_short_texts_match_naive() {
        for (bases, max_len) in [(&[1u8, 2][..], 14), (&[1, 2, 3, 4][..], 7)] {
            for text in all_texts(bases, max_len) {
                assert_eq!(
                    suffix_array(&text, kmm_dna::SIGMA),
                    suffix_array_naive(&text),
                    "{text:?}"
                );
            }
        }
    }

    #[test]
    fn suffix_array_is_permutation() {
        // The Rat stand-in at 116 kbp is repeat-rich: long equal LMS
        // substrings exercise the in-buffer naming and the recursion.
        let texts = [
            kmm_dna::genome::markov(10_000, &kmm_dna::genome::MarkovConfig::default(), 5),
            kmm_dna::genome::ReferenceGenome::Rat.generate_scaled(0.004),
        ];
        for mut text in texts {
            text.push(0);
            let sa = suffix_array(&text, kmm_dna::SIGMA);
            let mut seen = vec![false; text.len()];
            for &p in &sa {
                assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&b| b));
            // Suffixes strictly increasing.
            for w in sa.windows(2) {
                assert!(text[w[0] as usize..] < text[w[1] as usize..]);
            }
        }
    }
}
