//! Pattern self-mismatch tables: the `R_1 … R_m` arrays of Section IV-B.
//!
//! `R_i` holds the positions of the first `k + 2` mismatches between
//! `r[0 .. m-i]` and `r[i .. m]` — the overlap of the pattern against
//! itself at relative shift `i` (0-based positions; if `R_i` contains `p`
//! then `r[p] != r[i + p]`). The paper keeps `k + 2` rather than `k + 1`
//! entries because deriving an `R_ij` by `merge` may consume one extra
//! entry of each input.
//!
//! [`RTable::rij`] produces the pairwise table `R_ij` (mismatches between
//! `r[i..]` and `r[j..]`) the way Algorithm A does — by merging `R_i` and
//! `R_j` (paper's `mi-creation` step 1) — and upgrades it to a *complete*
//! array by direct scanning past the merge's validity horizon, so that the
//! subtree-derivation walk can consult arbitrarily late entries without
//! ever missing a mismatch (DESIGN.md D2).

use kmm_telemetry::{cost, Counter};

use crate::merge::{merge, mismatches_direct};

/// The per-shift mismatch arrays for one pattern.
#[derive(Debug, Clone)]
pub struct RTable {
    pattern: Vec<u8>,
    /// `arrays[i - 1]` is `R_i` for shifts `1..=m-1`; each capped at
    /// `cap` entries.
    arrays: Vec<Vec<u32>>,
    /// Entry cap (`k + 2` in the paper).
    cap: usize,
}

impl RTable {
    /// Build `R_1 … R_{m-1}` for `pattern` with mismatch budget `k`.
    ///
    /// Direct construction: each shift stops after `k + 2` mismatches, so
    /// the cost is `O(m)` per shift on random patterns and `O(m^2)` in the
    /// pathological all-matching case — at read scale (`m <= ~300`) this is
    /// faster than the `O(m log m)` doubling scheme the paper cites
    /// (DESIGN.md D7).
    pub fn new(pattern: &[u8], k: usize) -> Self {
        let m = pattern.len();
        let cap = k + 2;
        let mut arrays = Vec::with_capacity(m.saturating_sub(1));
        for i in 1..m {
            arrays.push(mismatches_direct(&pattern[..m - i], &pattern[i..], cap));
        }
        RTable {
            pattern: pattern.to_vec(),
            arrays,
            cap,
        }
    }

    /// The pattern the table was built for.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    /// The entry cap (`k + 2`).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// `R_i` (shift `1 <= i < m`), capped at `cap` entries.
    pub fn shift(&self, i: usize) -> &[u32] {
        assert!(i >= 1 && i < self.pattern.len(), "shift {i} out of range");
        cost::bump(Counter::RarrayProbes, 1);
        &self.arrays[i - 1]
    }

    /// Number of non-empty entries the paper calls `|(R_i)|`.
    pub fn shift_len(&self, i: usize) -> usize {
        self.shift(i).len()
    }

    /// True if `R_i` is complete (the overlap has fewer than `cap`
    /// mismatches in total, so no entry was dropped).
    fn shift_complete(&self, i: usize) -> bool {
        self.shift(i).len() < self.cap
    }

    /// The validity horizon of `R_i`: positions `< horizon` are fully
    /// described by the stored entries.
    fn shift_horizon(&self, i: usize) -> u32 {
        if self.shift_complete(i) {
            (self.pattern.len() - i) as u32
        } else {
            // The last stored entry is known; beyond it we know nothing.
            self.shift(i).last().copied().map_or(0, |p| p + 1)
        }
    }

    /// Build the complete pairwise array `R_ij`: all positions `p` with
    /// `r[i + p] != r[j + p]`, `p < m - max(i, j)`.
    ///
    /// Seeds the result by `merge(R_i, R_j, r[i..], r[j..])` (valid up to
    /// the horizon of the capped inputs) and completes the tail by direct
    /// scan.
    pub fn rij(&self, i: usize, j: usize) -> Vec<u32> {
        let m = self.pattern.len();
        assert!(i < m && j < m && i != j, "bad shift pair ({i}, {j})");
        cost::bump(Counter::RarrayProbes, 1);
        let limit = (m - i.max(j)) as u32;
        let alpha = &self.pattern[i..];
        let beta = &self.pattern[j..];
        if i == 0 {
            // R_0j is literally R_j truncated to the limit.
            return self
                .completed_shift(j, limit)
                .into_iter()
                .filter(|&p| p < limit)
                .collect();
        }
        if j == 0 {
            return self
                .completed_shift(i, limit)
                .into_iter()
                .filter(|&p| p < limit)
                .collect();
        }
        let horizon = self.shift_horizon(i).min(self.shift_horizon(j)).min(limit);
        let mut out: Vec<u32> = merge(self.shift(i), self.shift(j), alpha, beta, usize::MAX)
            .into_iter()
            .filter(|&p| p < horizon)
            .collect();
        // Complete the tail directly.
        for p in horizon..limit {
            if alpha[p as usize] != beta[p as usize] {
                out.push(p);
            }
        }
        out
    }

    /// A complete (uncapped) `R_i` up to `limit`, extending the stored
    /// prefix by scanning.
    fn completed_shift(&self, i: usize, limit: u32) -> Vec<u32> {
        let horizon = self.shift_horizon(i).min(limit);
        let mut out: Vec<u32> = self
            .shift(i)
            .iter()
            .copied()
            .filter(|&p| p < horizon)
            .collect();
        let alpha = &self.pattern[..self.pattern.len() - i];
        let beta = &self.pattern[i..];
        for p in horizon..limit {
            if alpha[p as usize] != beta[p as usize] {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure4_tables() {
        // Fig. 4: r = tcacg, k = 2 (cap = 4 shown in the figure as 5 slots).
        let r = kmm_dna::encode(b"tcacg").unwrap();
        let t = RTable::new(&r, 2);
        // R_1: tcac vs cacg -> every position differs -> [0,1,2,3] (first 4).
        assert_eq!(t.shift(1), &[0, 1, 2, 3]);
        // R_2: tca vs acg -> positions 0 and 2 differ ([1,3] 1-based).
        assert_eq!(t.shift(2), &[0, 2]);
        // R_3: tc vs cg -> both differ.
        assert_eq!(t.shift(3), &[0, 1]);
        // R_4: t vs g -> differ.
        assert_eq!(t.shift(4), &[0]);
        assert_eq!(t.shift_len(1), 4);
        assert_eq!(t.shift_len(2), 2);
    }

    #[test]
    fn periodic_pattern_has_empty_shift() {
        // r = acacac: shift 2 aligns the pattern with itself perfectly.
        let r = kmm_dna::encode(b"acacac").unwrap();
        let t = RTable::new(&r, 3);
        assert_eq!(t.shift(2), &[] as &[u32]);
        assert_eq!(t.shift(4), &[] as &[u32]);
        assert_eq!(t.shift(1).len(), 5); // ac vs ca everywhere (5-long overlap, cap k+2=5)
    }

    #[test]
    fn rij_matches_direct_scan_everywhere() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..100 {
            let m = rng.gen_range(2..40);
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=2)).collect();
            let k = rng.gen_range(0..4usize);
            let t = RTable::new(&r, k);
            for i in 0..m {
                for j in 0..m {
                    if i == j {
                        continue;
                    }
                    let want = mismatches_direct(&r[i..], &r[j..], usize::MAX);
                    assert_eq!(t.rij(i, j), want, "r={r:?} i={i} j={j} k={k}");
                }
            }
        }
    }

    #[test]
    fn rij_is_symmetric() {
        let r = kmm_dna::encode(b"acgtacgaacgt").unwrap();
        let t = RTable::new(&r, 2);
        for i in 0..r.len() {
            for j in 0..r.len() {
                if i != j {
                    assert_eq!(t.rij(i, j), t.rij(j, i));
                }
            }
        }
    }

    #[test]
    fn rij_with_zero_shift() {
        let r = kmm_dna::encode(b"acgtataa").unwrap();
        let t = RTable::new(&r, 1);
        for j in 1..r.len() {
            assert_eq!(t.rij(0, j), mismatches_direct(&r, &r[j..], usize::MAX));
        }
    }

    #[test]
    #[should_panic(expected = "bad shift pair")]
    fn rij_rejects_equal_shifts() {
        let r = kmm_dna::encode(b"acgt").unwrap();
        RTable::new(&r, 1).rij(2, 2);
    }

    #[test]
    fn single_symbol_pattern() {
        let r = kmm_dna::encode(b"a").unwrap();
        let t = RTable::new(&r, 2);
        assert_eq!(t.pattern(), &[1]);
        // No shifts exist for m = 1.
        assert_eq!(t.cap(), 4);
    }
}
