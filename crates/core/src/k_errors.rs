//! String matching with k errors (Levenshtein distance) over the BWT
//! index — the companion problem the paper's Section II surveys and a
//! natural extension of the k-mismatch machinery.
//!
//! The search walks the same backward-extension trie as the k-mismatch
//! methods, but each node carries a dynamic-programming row
//! `D[j] = Lev(w, r[0..j])` for its spelled substring `w` (the classic
//! trie-DP of the k-errors literature the paper cites [6, 52]-style).
//! A branch dies when its entire row exceeds `k`; a node reports when
//! `D[m] <= k`. Every matching `(position, length, distance)` triple is
//! returned — unlike the Hamming case, occurrences have variable length.

use kmm_bwt::{FmIndex, Interval};
use kmm_dna::BASES;
use kmm_telemetry::{NoopRecorder, PruneCause, Recorder, SearchStats};

/// One k-errors occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EditOccurrence {
    /// 0-based start position in the target.
    pub position: usize,
    /// Length of the matched target substring.
    pub length: usize,
    /// Levenshtein distance to the pattern.
    pub distance: usize,
}

/// Per-query DP row arena: one row slot per trie depth, written in place
/// as the descent advances. Replaces the per-child `Vec` the walk used to
/// allocate at every node — the slot for depth `d + 1` is safely reusable
/// across siblings because a child's recursion only writes deeper slots.
struct RowArena {
    /// `(m + k + 1)` rows of `stride` entries each, indexed by depth.
    rows: Vec<u32>,
    /// Row width (`m + 1`).
    stride: usize,
    /// Deepest slot written so far; refills of shallower slots are the
    /// allocations the arena saved.
    high: usize,
}

/// k-errors searcher over a reverse-text FM-index.
#[derive(Debug, Clone, Copy)]
pub struct KErrorsSearch<'a> {
    fm: &'a FmIndex,
    text_len: usize,
}

impl<'a> KErrorsSearch<'a> {
    /// `fm` must index `reverse(s) + $`; `text_len = |s|`.
    pub fn new(fm: &'a FmIndex, text_len: usize) -> Self {
        debug_assert_eq!(fm.len(), text_len + 1);
        KErrorsSearch { fm, text_len }
    }

    /// All substrings of the target within Levenshtein distance `k` of
    /// `pattern`, as `(position, length, distance)` triples sorted by
    /// position, length.
    pub fn search(&self, pattern: &[u8], k: usize) -> (Vec<EditOccurrence>, SearchStats) {
        self.search_recorded(pattern, k, &NoopRecorder)
    }

    /// [`Self::search`] with telemetry: the depth-profile hooks (node
    /// expansions plus pruned children split by cause) fire on every
    /// recorder, so under an [`kmm_telemetry::ExplainRecorder`] the
    /// k-errors walk is EXPLAIN-able like the k-mismatch methods.
    pub fn search_recorded<R: Recorder>(
        &self,
        pattern: &[u8],
        k: usize,
        recorder: &R,
    ) -> (Vec<EditOccurrence>, SearchStats) {
        let mut stats = SearchStats::default();
        let m = pattern.len();
        let mut out = Vec::new();
        if m == 0 {
            return (out, stats);
        }
        // One arena sized for the deepest possible path (depth <= m + k)
        // holds every DP row of the descent; no per-node allocation.
        let stride = m + 1;
        let mut arena = RowArena {
            rows: vec![0u32; (m + k + 1) * stride],
            stride,
            high: 0,
        };
        // Root row: converting the empty substring into r[0..j] costs j
        // insertions. The empty substring itself matches if m <= k — by
        // convention we do not report empty occurrences.
        for (j, slot) in arena.rows[..stride].iter_mut().enumerate() {
            *slot = j as u32;
        }
        self.dfs(
            self.fm.whole(),
            0,
            pattern,
            k,
            &mut arena,
            &mut out,
            &mut stats,
            recorder,
        );
        out.sort_unstable();
        stats.occurrences = out.len() as u64;
        (out, stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs<R: Recorder>(
        &self,
        iv: Interval,
        depth: usize,
        pattern: &[u8],
        k: usize,
        arena: &mut RowArena,
        out: &mut Vec<EditOccurrence>,
        stats: &mut SearchStats,
        recorder: &R,
    ) {
        stats.nodes_visited += 1;
        recorder.depth_expand(depth);
        let m = pattern.len();
        // Depth bound: any match within distance k has length <= m + k.
        if depth == m + k {
            stats.leaves += 1;
            recorder.depth_prune(depth, PruneCause::Cutoff);
            return;
        }
        if iv.is_empty() {
            recorder.depth_prune(depth, PruneCause::EmptyInterval);
            return;
        }
        // One fused rank sweep resolves all four children; empty ones are
        // skipped before any DP work on their rows.
        stats.rank_extensions += 1;
        stats.occ_fused += 1;
        let children = self.fm.extend_all(iv);
        // Pull each surviving child's boundary rank blocks toward cache
        // while the DP rows below are filled — the recursive extend_all
        // on that child is the very next rank access to those blocks.
        for child in &children {
            if !child.is_empty() {
                self.fm.prefetch_interval(*child);
            }
        }
        let mut any_child = false;
        for y in 1..=BASES as u8 {
            let child = children[(y - 1) as usize];
            if child.is_empty() {
                recorder.depth_prune(depth + 1, PruneCause::EmptyInterval);
                continue;
            }
            // Fill the child's DP row into the arena slot for depth + 1;
            // the parent row lives in slot depth.
            let (alive, final_d) = {
                let stride = arena.stride;
                let (parents, childs) = arena.rows.split_at_mut((depth + 1) * stride);
                let row = &parents[depth * stride..];
                let next = &mut childs[..stride];
                if depth < arena.high {
                    stats.alloc_reused += 1;
                } else {
                    arena.high = depth + 1;
                }
                next[0] = row[0] + 1;
                let mut alive = next[0] <= k as u32;
                for j in 1..=m {
                    let cost = u32::from(pattern[j - 1] != y);
                    let v = (row[j] + 1).min(next[j - 1] + 1).min(row[j - 1] + cost);
                    alive |= v <= k as u32;
                    next[j] = v;
                }
                (alive, next[m])
            };
            if !alive {
                // The whole DP row exceeds k: the child dies on the
                // mismatch/edit budget, not on an empty interval.
                recorder.depth_prune(depth + 1, PruneCause::Budget);
                continue;
            }
            any_child = true;
            if final_d <= k as u32 {
                // Every row of the child interval is an occurrence of this
                // substring.
                let length = depth + 1;
                for r in child.rows() {
                    let p_rev = self.fm.sa_value(r) as usize;
                    out.push(EditOccurrence {
                        position: self.text_len - p_rev - length,
                        length,
                        distance: final_d as usize,
                    });
                }
            }
            self.dfs(child, depth + 1, pattern, k, arena, out, stats, recorder);
        }
        if !any_child {
            stats.leaves += 1;
        }
    }
}

/// Reference implementation by direct DP from every start position; used
/// by tests and small-scale verification.
pub fn find_k_errors_naive(text: &[u8], pattern: &[u8], k: usize) -> Vec<EditOccurrence> {
    let (n, m) = (text.len(), pattern.len());
    let mut out = Vec::new();
    if m == 0 {
        return out;
    }
    for start in 0..n {
        let max_len = (m + k).min(n - start);
        // row[j] = Lev(text[start..start+l], pattern[0..j])
        let mut row: Vec<u32> = (0..=m as u32).collect();
        for l in 1..=max_len {
            let c = text[start + l - 1];
            let mut next = Vec::with_capacity(m + 1);
            next.push(row[0] + 1);
            for j in 1..=m {
                let cost = u32::from(pattern[j - 1] != c);
                next.push((row[j] + 1).min(next[j - 1] + 1).min(row[j - 1] + cost));
            }
            row = next;
            if row[m] <= k as u32 {
                out.push(EditOccurrence {
                    position: start,
                    length: l,
                    distance: row[m] as usize,
                });
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmm_bwt::FmBuildConfig;

    fn setup(s: &[u8]) -> (FmIndex, usize) {
        let mut rev = s.to_vec();
        rev.reverse();
        rev.push(0);
        (FmIndex::new(&rev, FmBuildConfig::default()), s.len())
    }

    #[test]
    fn exact_matches_have_distance_zero() {
        let s = kmm_dna::encode(b"acagaca").unwrap();
        let r = kmm_dna::encode(b"aca").unwrap();
        let (fm, n) = setup(&s);
        let ke = KErrorsSearch::new(&fm, n);
        let (occ, _) = ke.search(&r, 0);
        let exact: Vec<&EditOccurrence> = occ.iter().filter(|o| o.distance == 0).collect();
        assert_eq!(
            exact.iter().map(|o| o.position).collect::<Vec<_>>(),
            vec![0, 4]
        );
        assert!(exact.iter().all(|o| o.length == 3));
    }

    #[test]
    fn single_insertion_and_deletion_found() {
        // s contains "acgga"; pattern "acga" is one deletion away, pattern
        // "acggta" ... keep it simple and assert against the reference.
        let s = kmm_dna::encode(b"ttacggatt").unwrap();
        let (fm, n) = setup(&s);
        let ke = KErrorsSearch::new(&fm, n);
        let r = kmm_dna::encode(b"acga").unwrap();
        let (occ, _) = ke.search(&r, 1);
        assert_eq!(occ, find_k_errors_naive(&s, &r, 1));
        // The deletion alignment acg|g|a must be present.
        assert!(occ
            .iter()
            .any(|o| o.position == 2 && o.length == 5 && o.distance == 1));
    }

    #[test]
    fn random_agrees_with_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(707);
        for _ in 0..40 {
            let n = rng.gen_range(1..120);
            let s: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=4)).collect();
            let m = rng.gen_range(1..=n.min(8));
            let r: Vec<u8> = (0..m).map(|_| rng.gen_range(1..=4)).collect();
            for k in 0..3usize {
                let (fm, len) = setup(&s);
                let ke = KErrorsSearch::new(&fm, len);
                assert_eq!(
                    ke.search(&r, k).0,
                    find_k_errors_naive(&s, &r, k),
                    "s={s:?} r={r:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn k_errors_supersets_k_mismatches() {
        use kmm_classic::naive;
        let s = kmm_dna::encode(b"gattacagtacagatt").unwrap();
        let r = kmm_dna::encode(b"tacag").unwrap();
        let (fm, n) = setup(&s);
        let ke = KErrorsSearch::new(&fm, n);
        for k in 0..3usize {
            let (edits, _) = ke.search(&r, k);
            for h in naive::find_k_mismatch(&s, &r, k) {
                assert!(
                    edits.iter().any(|o| o.position == h.position
                        && o.length == r.len()
                        && o.distance <= h.mismatches),
                    "hamming hit at {} (d={}) missing for k={k}",
                    h.position,
                    h.mismatches
                );
            }
        }
    }

    #[test]
    fn empty_pattern_yields_nothing() {
        let s = kmm_dna::encode(b"acg").unwrap();
        let (fm, n) = setup(&s);
        let ke = KErrorsSearch::new(&fm, n);
        assert!(ke.search(&[], 2).0.is_empty());
    }
}
