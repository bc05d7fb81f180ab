//! Bidirectional FM-index: a primary index paired with a *mirror* rank
//! structure over the reversed text, letting a search extend its match
//! on **either** end while keeping both SA intervals synchronised.
//!
//! The k-mismatch layer indexes `rev(T)$` (so backward search consumes
//! patterns left-to-right in `T` coordinates, Section IV Definition 1).
//! [`BiFmIndex`] pairs that primary with the rankall of `T$`'s own BWT:
//!
//! - `extend_right(c)` — append `c` to the matched substring of `T` —
//!   is one fused [`FmIndex::extend_all`] on the primary.
//! - `extend_left(c)` — prepend `c` — is one fused `occ_all_pair` on
//!   the mirror.
//!
//! In both cases the interval over the *other* index is updated without
//! touching that index's blocks, via the 4-way sibling-count trick
//! (Lam et al. 2009; the 2BWT): the rows of an interval for a string
//! `P`, grouped by the character that follows `P`, appear in sentinel-
//! first symbol order, and each group's width equals the corresponding
//! child width just computed on the other side. So either extension
//! costs exactly one fused block visit — the same price the
//! unidirectional searches pay — and a search scheme is free to switch
//! directions at every step.
//!
//! A pair holding one row has at most one non-empty extension on either
//! side, by the symbol in that row. [`BiFmIndex::step_left`] and
//! [`BiFmIndex::step_right`] follow it with one symbol-and-rank read
//! (`RankAll::symbol_occ`) and keep the other side's row as is.
//!
//! The mirror needs no sampled suffix array (`locate` resolves through
//! the primary) and no C table (the reversed text is the same multiset
//! of symbols, so the primary's `C` applies verbatim): it is a bare
//! [`RankAll`], roughly halving the marginal cost of bidirectionality.

use kmm_dna::SIGMA;
use kmm_par::ThreadPool;
use kmm_suffix::sais::suffix_array;

use crate::bwt::bwt_from_sa_with;
use crate::fm_index::FmIndex;
use crate::interval::Interval;
use crate::limits::{check_text_len, TextTooLarge};
use crate::occ::RankAll;

/// Build the mirror rank structure for a primary index over `rev(T)$`:
/// the rankall over the BWT of `text` itself, where `text` is the
/// sentinel-terminated forward text `T$`. `threads` drives the
/// data-parallel construction passes; the result is bit-identical at
/// any width.
pub fn build_mirror(text: &[u8], occ_rate: usize, threads: usize) -> Result<RankAll, TextTooLarge> {
    check_text_len(text.len())?;
    let pool = ThreadPool::new(threads.max(1));
    let sa = suffix_array(text, SIGMA);
    let l = bwt_from_sa_with(text, &sa, &pool);
    RankAll::try_new_with(&l, occ_rate, &pool)
}

/// A pair of synchronised SA intervals for one matched string `P`
/// (a substring of the forward text `T`, no sentinel):
/// [`BiInterval::prim`] over `SA(rev(T)$)` matching `rev(P)`,
/// [`BiInterval::mirr`] over `SA(T$)` matching `P`. The widths are
/// always equal — both count the occurrences of `P` in `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiInterval {
    /// Interval over the primary index (text `rev(T)$`).
    pub prim: Interval,
    /// Interval over the mirror (text `T$`).
    pub mirr: Interval,
}

impl BiInterval {
    /// Number of occurrences of the matched string.
    #[inline]
    pub fn len(&self) -> u32 {
        debug_assert_eq!(self.prim.len(), self.mirr.len());
        self.prim.len()
    }

    /// True when the matched string does not occur.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prim.is_empty()
    }
}

/// A borrowed bidirectional view: the primary [`FmIndex`] plus the
/// mirror [`RankAll`] built by [`build_mirror`]. Construction is a
/// pointer pair — build the parts once, borrow a view per search.
#[derive(Debug, Clone, Copy)]
pub struct BiFmIndex<'a> {
    fm: &'a FmIndex,
    mirror: &'a RankAll,
}

impl<'a> BiFmIndex<'a> {
    /// Pair a primary index with its mirror rank structure.
    pub fn new(fm: &'a FmIndex, mirror: &'a RankAll) -> Self {
        assert_eq!(fm.len(), mirror.len(), "mirror must cover the same text");
        BiFmIndex { fm, mirror }
    }

    /// The primary index (for `locate`, C table, length).
    #[inline]
    pub fn fm(&self) -> &'a FmIndex {
        self.fm
    }

    /// The mirror rank structure.
    #[inline]
    pub fn mirror(&self) -> &'a RankAll {
        self.mirror
    }

    /// The interval pair of the empty string: every row on both sides.
    #[inline]
    pub fn whole(&self) -> BiInterval {
        BiInterval {
            prim: self.fm.whole(),
            mirr: self.fm.whole(),
        }
    }

    /// Fused 4-way backward step on the mirror: the mirror analogue of
    /// [`FmIndex::extend_all`], reusing the primary's C table.
    #[inline]
    fn mirror_extend_all(&self, iv: Interval) -> [Interval; 4] {
        let (lo, hi) = self.mirror.occ_all_pair(iv.lo as usize, iv.hi as usize);
        std::array::from_fn(|j| {
            let c = self.fm.c(j as u8 + 1);
            Interval::new(c + lo[j], c + hi[j])
        })
    }

    /// Derive the other-side child intervals from the widths of the
    /// extended side's children. Within `other` (the rows matching the
    /// current string on the non-extended side), rows grouped by the
    /// next character appear sentinel-group first, then bases in symbol
    /// order; each group's width equals the matching child's width.
    #[inline]
    fn derive_siblings(
        children: &[Interval; 4],
        parent_len: u32,
        other: Interval,
    ) -> [Interval; 4] {
        let total: u32 = children.iter().map(|c| c.len()).sum();
        // The remainder is the group whose next character is the
        // sentinel: at most one row (the occurrence touching the text
        // end), and it sorts first.
        debug_assert!(parent_len - total <= 1, "more than one sentinel successor");
        let mut lo = other.lo + (parent_len - total);
        let mut out = [Interval::empty(); 4];
        for (slot, child) in out.iter_mut().zip(children) {
            let w = child.len();
            *slot = Interval::new(lo, lo + w);
            lo += w;
        }
        out
    }

    /// All four right extensions at once (append a base to the matched
    /// substring of `T`): one fused block visit on the primary; the
    /// mirror intervals follow by sibling counts.
    /// `extend_right_all(bi)[z - 1]` is the pair for `P·z`.
    #[inline]
    pub fn extend_right_all(&self, bi: BiInterval) -> [BiInterval; 4] {
        let prim = self.fm.extend_all(bi.prim);
        let mirr = Self::derive_siblings(&prim, bi.prim.len(), bi.mirr);
        std::array::from_fn(|j| BiInterval {
            prim: prim[j],
            mirr: mirr[j],
        })
    }

    /// All four left extensions at once (prepend a base): one fused
    /// block visit on the mirror; the primary intervals follow by
    /// sibling counts. `extend_left_all(bi)[z - 1]` is the pair for
    /// `z·P`.
    #[inline]
    pub fn extend_left_all(&self, bi: BiInterval) -> [BiInterval; 4] {
        let mirr = self.mirror_extend_all(bi.mirr);
        let prim = Self::derive_siblings(&mirr, bi.mirr.len(), bi.prim);
        std::array::from_fn(|j| BiInterval {
            prim: prim[j],
            mirr: mirr[j],
        })
    }

    /// Append base `z` to the matched substring.
    #[inline]
    pub fn extend_right(&self, bi: BiInterval, z: u8) -> BiInterval {
        debug_assert!((1..=4).contains(&z));
        self.extend_right_all(bi)[(z - 1) as usize]
    }

    /// Prepend base `z` to the matched substring.
    #[inline]
    pub fn extend_left(&self, bi: BiInterval, z: u8) -> BiInterval {
        debug_assert!((1..=4).contains(&z));
        self.extend_left_all(bi)[(z - 1) as usize]
    }

    /// Right extension of a 1-row pair by its only live base: `L[prim]`
    /// and its LF step on the primary, one block visit. The mirror row
    /// stays where it is, as the sibling derivation would leave it.
    /// Returns the base `z` and the pair for `P·z`, or `None` when the
    /// row precedes the sentinel and all four extensions are empty.
    #[inline]
    pub fn step_right(&self, bi: BiInterval) -> Option<(u8, BiInterval)> {
        debug_assert_eq!(bi.len(), 1, "single-row step on a wider interval");
        let (z, row) = self.fm.step(bi.prim.lo)?;
        Some((
            z,
            BiInterval {
                prim: Interval::new(row, row + 1),
                mirr: bi.mirr,
            },
        ))
    }

    /// Left extension of a 1-row pair by its only live base, on the
    /// mirror (see [`Self::step_right`]): the pair for `z·P`, or `None`
    /// at the sentinel.
    #[inline]
    pub fn step_left(&self, bi: BiInterval) -> Option<(u8, BiInterval)> {
        debug_assert_eq!(bi.len(), 1, "single-row step on a wider interval");
        let (z, occ) = self.mirror.symbol_occ(bi.mirr.lo as usize)?;
        let row = self.fm.c(z) + occ;
        Some((
            z,
            BiInterval {
                prim: bi.prim,
                mirr: Interval::new(row, row + 1),
            },
        ))
    }

    /// Advisory prefetch of the primary blocks a coming
    /// [`Self::extend_right_all`] will visit.
    #[inline]
    pub fn prefetch_right(&self, bi: BiInterval) {
        self.fm.prefetch_interval(bi.prim);
    }

    /// Advisory prefetch of the mirror blocks a coming
    /// [`Self::extend_left_all`] will visit.
    #[inline]
    pub fn prefetch_left(&self, bi: BiInterval) {
        self.mirror.prefetch(bi.mirr.lo as usize);
        self.mirror.prefetch(bi.mirr.hi as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm_index::FmBuildConfig;

    /// Primary + mirror + a reference FmIndex over the forward text, so
    /// tests can check both interval components against plain backward
    /// search.
    fn setup(ascii: &[u8], occ_rate: usize) -> (FmIndex, RankAll, FmIndex, Vec<u8>) {
        let text = kmm_dna::encode_text(ascii).unwrap();
        let mut rev: Vec<u8> = text[..text.len() - 1].to_vec();
        rev.reverse();
        rev.push(0);
        let cfg = FmBuildConfig {
            occ_rate,
            ..FmBuildConfig::default()
        };
        let fm = FmIndex::new(&rev, cfg);
        let mirror = build_mirror(&text, occ_rate, 1).unwrap();
        let fwd_fm = FmIndex::new(&text, cfg);
        (fm, mirror, fwd_fm, text)
    }

    /// The expected BiInterval for pattern `pat`, from two plain
    /// backward searches.
    fn reference(fm: &FmIndex, fwd_fm: &FmIndex, pat: &[u8]) -> BiInterval {
        let rev: Vec<u8> = pat.iter().rev().copied().collect();
        BiInterval {
            prim: fm.backward_search(&rev),
            mirr: fwd_fm.backward_search(pat),
        }
    }

    /// Empty intervals carry arbitrary coordinates (like
    /// `extend_backward`'s), so equality is "identical or both empty".
    #[track_caller]
    fn assert_same(got: BiInterval, want: BiInterval, ctx: &str) {
        if got.is_empty() || want.is_empty() {
            assert!(
                got.is_empty() && want.is_empty(),
                "{ctx}: {got:?} vs {want:?}"
            );
        } else {
            assert_eq!(got, want, "{ctx}");
        }
    }

    #[test]
    fn extensions_match_plain_backward_search() {
        for occ_rate in [4usize, 64, 1024] {
            let (fm, mirror, fwd_fm, _) = setup(b"gattacagattacaacgtacgtccggaatt", occ_rate);
            let bi = BiFmIndex::new(&fm, &mirror);
            // Grow "tac" in every build order mixing left/right steps.
            let pat = kmm_dna::encode(b"tac").unwrap();
            for order in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]] {
                // Track the matched window [lo, hi) of pat.
                let (mut lo, mut hi) = (order[0], order[0]);
                let mut cur = bi.extend_right(bi.whole(), pat[order[0]]);
                hi += 1;
                for &i in &order[1..] {
                    if i < lo {
                        assert_eq!(i, lo - 1, "orders must grow contiguously");
                        cur = bi.extend_left(cur, pat[i]);
                        lo = i;
                    } else {
                        assert_eq!(i, hi, "orders must grow contiguously");
                        cur = bi.extend_right(cur, pat[i]);
                        hi = i + 1;
                    }
                    assert_same(
                        cur,
                        reference(&fm, &fwd_fm, &pat[lo..hi]),
                        &format!("rate={occ_rate} order={order:?} window=[{lo},{hi})"),
                    );
                    assert_eq!(cur.prim.len(), cur.mirr.len());
                }
            }
        }
    }

    #[test]
    fn fused_extensions_match_single_steps() {
        let (fm, mirror, fwd_fm, _) = setup(b"acaggacttacagacgt", 4);
        let bi = BiFmIndex::new(&fm, &mirror);
        let seed = bi.extend_right(bi.whole(), 1); // "a"
        let left = bi.extend_left_all(seed);
        let right = bi.extend_right_all(seed);
        for z in 1..=4u8 {
            assert_eq!(left[(z - 1) as usize], bi.extend_left(seed, z));
            assert_eq!(right[(z - 1) as usize], bi.extend_right(seed, z));
            assert_same(
                left[(z - 1) as usize],
                reference(&fm, &fwd_fm, &[z, 1]),
                &format!("left z={z}"),
            );
            assert_same(
                right[(z - 1) as usize],
                reference(&fm, &fwd_fm, &[1, z]),
                &format!("right z={z}"),
            );
        }
    }

    #[test]
    fn sentinel_boundary_occurrences_stay_synchronised() {
        // "ca" occurs at the very end of the text (its mirror interval
        // contains the row whose suffix is exactly "ca$") and at the
        // very start (the primary side sees "ac$"). Both boundary rows
        // exercise the sentinel-first group in derive_siblings.
        let (fm, mirror, fwd_fm, text) = setup(b"cagattaca", 4);
        let bi = BiFmIndex::new(&fm, &mirror);
        let c = kmm_dna::encode(b"c").unwrap()[0];
        let a = kmm_dna::encode(b"a").unwrap()[0];
        // Build "ca" both ways.
        let via_right = bi.extend_right(bi.extend_right(bi.whole(), c), a);
        let via_left = bi.extend_left(bi.extend_right(bi.whole(), a), c);
        let want = reference(&fm, &fwd_fm, &[c, a]);
        assert_eq!(via_right, want);
        assert_eq!(via_left, want);
        assert_eq!(want.len(), 2);
        // And locate through the primary agrees with the text.
        let m = 2usize;
        let n = text.len() - 1;
        let mut pos: Vec<usize> = fm
            .locate(via_right.prim)
            .into_iter()
            .map(|p| n - p as usize - m)
            .collect();
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 7]);
    }

    #[test]
    fn single_row_steps_equal_the_one_live_child() {
        // Every substring occurring once is a single-row pair; the ones
        // at the text's first and last positions have the sentinel as
        // their left or right neighbour, where the step returns `None`.
        for ascii in [
            &b"gattacagattacaacgtacgtccggaatt"[..],
            b"cagattaca",
            b"aaaaaaaa",
            b"acgt",
            b"g",
        ] {
            for occ_rate in [4usize, 64, 1024] {
                let (fm, mirror, fwd_fm, text) = setup(ascii, occ_rate);
                let bi = BiFmIndex::new(&fm, &mirror);
                let t = &text[..text.len() - 1];
                let (mut left_dead, mut right_dead) = (0, 0);
                for i in 0..t.len() {
                    for j in i + 1..=t.len() {
                        let cur = reference(&fm, &fwd_fm, &t[i..j]);
                        if cur.len() != 1 {
                            continue;
                        }
                        let ctx = format!("{ascii:?} rate={occ_rate} window=[{i},{j})");
                        for (step, children, dead) in [
                            (bi.step_left(cur), bi.extend_left_all(cur), &mut left_dead),
                            (
                                bi.step_right(cur),
                                bi.extend_right_all(cur),
                                &mut right_dead,
                            ),
                        ] {
                            let live: Vec<(u8, BiInterval)> = (1..=4u8)
                                .zip(children)
                                .filter(|(_, child)| !child.is_empty())
                                .collect();
                            match step {
                                Some(one) => assert_eq!(live, vec![one], "{ctx}"),
                                None => {
                                    assert!(live.is_empty(), "{ctx}: {live:?}");
                                    *dead += 1;
                                }
                            }
                        }
                    }
                }
                // Exactly the unique prefixes meet the sentinel on the
                // left, the unique suffixes on the right.
                let unique = |w: &[u8]| reference(&fm, &fwd_fm, w).len() == 1;
                let prefixes = (1..=t.len()).filter(|&j| unique(&t[..j])).count();
                let suffixes = (0..t.len()).filter(|&i| unique(&t[i..])).count();
                assert_eq!((left_dead, right_dead), (prefixes, suffixes), "{ascii:?}");
                assert!(prefixes > 0 && suffixes > 0);
            }
        }
    }

    #[test]
    fn empty_intervals_extend_to_empty() {
        let (fm, mirror, _, _) = setup(b"aaaa", 4);
        let bi = BiFmIndex::new(&fm, &mirror);
        let g = 3u8; // absent
        let none = bi.extend_right(bi.whole(), g);
        assert!(none.is_empty());
        for child in bi
            .extend_left_all(none)
            .into_iter()
            .chain(bi.extend_right_all(none))
        {
            assert!(child.is_empty());
        }
    }

    #[test]
    fn prefetch_is_advisory_only() {
        use kmm_telemetry::{CostSnapshot, Counter};
        let (fm, mirror, _, _) = setup(b"acgtacgt", 4);
        let bi = BiFmIndex::new(&fm, &mirror);
        let before = CostSnapshot::now();
        bi.prefetch_right(bi.whole());
        bi.prefetch_left(bi.whole());
        let delta = CostSnapshot::now().delta(&before);
        assert_eq!(delta.get(Counter::RankBlocksTouched), 0);
        assert!(delta.get(Counter::PrefetchIssued) > 0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use crate::fm_index::FmBuildConfig;

    fn dna_text() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=4, 1..120).prop_map(|mut v| {
            v.push(0);
            v
        })
    }

    proptest! {
        /// Across rates {4, 64, 1024}: grow a random pattern window in a
        /// random left/right order; at every step the reverse interval
        /// width equals the forward width, and each extend_left result
        /// equals a naive backward-search (occ) on the mirror text.
        #[test]
        fn bi_interval_invariants(
            text in dna_text(),
            pat in proptest::collection::vec(1u8..=4, 1..8),
            lefts in proptest::collection::vec(any::<bool>(), 7),
            rate_ix in 0usize..3,
        ) {
            let occ_rate = [4usize, 64, 1024][rate_ix];
            let mut rev: Vec<u8> = text[..text.len() - 1].to_vec();
            rev.reverse();
            rev.push(0);
            let cfg = FmBuildConfig { occ_rate, ..FmBuildConfig::default() };
            let fm = FmIndex::new(&rev, cfg);
            let mirror = build_mirror(&text, occ_rate, 1).unwrap();
            let fwd_fm = FmIndex::new(&text, cfg);
            let bi = BiFmIndex::new(&fm, &mirror);

            // Pick a start position, then consume pat with a random
            // mix of left/right extensions keeping the window
            // contiguous.
            let mut lo = lefts.iter().filter(|&&l| l).take(pat.len() - 1).count();
            let mut hi = lo + 1;
            let mut cur = bi.extend_right(bi.whole(), pat[lo]);
            for &go_left in lefts.iter().take(pat.len() - 1) {
                if go_left && lo > 0 {
                    lo -= 1;
                    cur = bi.extend_left(cur, pat[lo]);
                } else if hi < pat.len() {
                    cur = bi.extend_right(cur, pat[hi]);
                    hi += 1;
                } else {
                    lo -= 1;
                    cur = bi.extend_left(cur, pat[lo]);
                }
                // Invariant 1: widths agree.
                prop_assert_eq!(cur.prim.len(), cur.mirr.len());
                // Invariant 2: both components equal plain backward
                // search on their respective texts (empty intervals
                // carry arbitrary coordinates, so compare non-empty
                // ones exactly and empties by emptiness).
                let window = &pat[lo..hi];
                let revw: Vec<u8> = window.iter().rev().copied().collect();
                let want_prim = fm.backward_search(&revw);
                let want_mirr = fwd_fm.backward_search(window);
                if cur.is_empty() || want_prim.is_empty() {
                    prop_assert!(cur.is_empty() && want_prim.is_empty() && want_mirr.is_empty());
                } else {
                    prop_assert_eq!(cur.prim, want_prim);
                    prop_assert_eq!(cur.mirr, want_mirr);
                }
            }
        }
    }
}
