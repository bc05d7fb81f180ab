//! The mismatching-tree arena behind Algorithm A.
//!
//! The paper's Algorithm A (Section IV-D) keeps a hash table of every
//! `<x, [α, β]>` pair produced by `search()`, and when a pair recurs
//! (necessarily at a different level — Lemma 1) it derives the repeated
//! subtree from stored mismatch information instead of re-running
//! `search()`. The structure that makes this sound is that a pair's
//! *children intervals* depend only on the pair's interval, never on the
//! pattern position it is aligned to: `search(y, L_{<x,[α,β]>})` is a pure
//! function of `(y, α, β)`.
//!
//! We therefore materialise the explored part of the search tree exactly
//! once per query as a shared arena ("M-tree"): each node is a pair with
//! its interval and four lazily-resolved child slots. A repeated pair maps
//! to the *same* node, so its subtree is walked — matching and mismatching
//! positions re-derived against the new alignment, the paper's
//! `node-creation` — with **zero** further rank lookups, and deeper
//! exploration demanded by a larger remaining budget at the new alignment
//! materialises on demand (the "extension" of the paper's case (ii) and
//! our DESIGN.md D2 resume rule, handled uniformly by the `Unknown` child
//! state).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use kmm_bwt::Interval;
use kmm_dna::BASES;
use kmm_telemetry::cost::{self, CostKind};

/// Child-slot marker: this symbol has not been looked up yet.
pub const UNKNOWN: u32 = u32::MAX;
/// Child-slot marker: this symbol was looked up and does not occur.
pub const ABSENT: u32 = u32::MAX - 1;

/// One materialised pair node.
#[derive(Debug, Clone)]
pub struct MTreeNode {
    /// Symbol consumed when this pair was produced (the `x` of
    /// `<x, [α, β]>`).
    pub sym: u8,
    /// Pattern position (0-based) the node was aligned to when first
    /// materialised — the paper's "compared to r\[i\]".
    pub align: u32,
    /// The pair's SA interval in the reverse-text index.
    pub interval: Interval,
    /// Child node ids per base symbol (index = code − 1); [`UNKNOWN`] /
    /// [`ABSENT`] markers for unresolved / empty extensions.
    pub children: [u32; BASES],
}

/// A fast integer hasher (FxHash-style multiply-xor), adequate for the
/// well-mixed `(lo, hi)` interval keys and free of dependencies.
#[derive(Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// The per-query arena plus the pair hash table.
#[derive(Debug, Default)]
pub struct MTree {
    nodes: Vec<MTreeNode>,
    /// Pair identity: the interval alone determines the symbol (it lies in
    /// that symbol's F-block), so the interval is the key.
    by_interval: HashMap<u64, u32, FxBuild>,
}

impl MTree {
    /// Fresh arena with capacity hints for one query.
    pub fn new() -> Self {
        MTree::default()
    }

    #[inline]
    fn key(iv: Interval) -> u64 {
        ((iv.lo as u64) << 32) | iv.hi as u64
    }

    /// Number of materialised nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True before anything is materialised.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: u32) -> &MTreeNode {
        &self.nodes[id as usize]
    }

    /// Look up the node for an interval, if already materialised.
    #[inline]
    pub fn find(&self, iv: Interval) -> Option<u32> {
        self.by_interval.get(&Self::key(iv)).copied()
    }

    /// Materialise (or share) the node for a non-empty interval produced by
    /// consuming `sym` while aligned at pattern position `align`.
    ///
    /// Returns `(id, was_shared)`.
    #[inline]
    pub fn intern(&mut self, sym: u8, align: u32, iv: Interval) -> (u32, bool) {
        debug_assert!(!iv.is_empty());
        match self.by_interval.entry(Self::key(iv)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                cost::bump(CostKind::MtreeReused, 1);
                (*e.get(), true)
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.nodes.len() as u32;
                self.nodes.push(MTreeNode {
                    sym,
                    align,
                    interval: iv,
                    children: [UNKNOWN; BASES],
                });
                e.insert(id);
                cost::bump(CostKind::MtreeBuilt, 1);
                (id, false)
            }
        }
    }

    /// Create a node without registering it in the pair table (used by the
    /// no-reuse ablation mode, where every encounter explores afresh).
    #[inline]
    pub fn push_unshared(&mut self, sym: u8, align: u32, iv: Interval) -> u32 {
        cost::bump(CostKind::MtreeBuilt, 1);
        let id = self.nodes.len() as u32;
        self.nodes.push(MTreeNode {
            sym,
            align,
            interval: iv,
            children: [UNKNOWN; BASES],
        });
        id
    }

    /// Read a child slot (symbol codes 1..=4).
    #[inline]
    pub fn child(&self, id: u32, sym: u8) -> u32 {
        self.nodes[id as usize].children[(sym - 1) as usize]
    }

    /// Write a child slot.
    #[inline]
    pub fn set_child(&mut self, id: u32, sym: u8, value: u32) {
        self.nodes[id as usize].children[(sym - 1) as usize] = value;
    }

    /// Approximate heap usage, for memory accounting in experiments.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<MTreeNode>()
            + self.by_interval.capacity() * (std::mem::size_of::<(u64, u32)>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_shares_equal_intervals() {
        let mut t = MTree::new();
        let iv = Interval::new(5, 7);
        let (a, shared_a) = t.intern(2, 1, iv);
        assert!(!shared_a);
        let (b, shared_b) = t.intern(2, 3, iv);
        assert!(shared_b);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        // The stored alignment stays the first one.
        assert_eq!(t.node(a).align, 1);
    }

    #[test]
    fn distinct_intervals_get_distinct_nodes() {
        let mut t = MTree::new();
        let (a, _) = t.intern(1, 0, Interval::new(1, 5));
        let (b, _) = t.intern(1, 0, Interval::new(1, 4));
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn children_default_unknown_and_are_settable() {
        let mut t = MTree::new();
        let (id, _) = t.intern(1, 0, Interval::new(0, 8));
        for sym in 1..=4u8 {
            assert_eq!(t.child(id, sym), UNKNOWN);
        }
        t.set_child(id, 2, ABSENT);
        assert_eq!(t.child(id, 2), ABSENT);
        t.set_child(id, 3, 0);
        assert_eq!(t.child(id, 3), 0);
    }

    #[test]
    fn find_matches_intern() {
        let mut t = MTree::new();
        let iv = Interval::new(2, 9);
        assert_eq!(t.find(iv), None);
        let (id, _) = t.intern(4, 7, iv);
        assert_eq!(t.find(iv), Some(id));
    }

    #[test]
    fn hasher_differentiates_lo_hi() {
        // (1, 2) vs (2, 1) must not collide into the same key.
        assert_ne!(
            MTree::key(Interval::new(1, 2)),
            MTree::key(Interval { lo: 2, hi: 1 })
        );
    }

    #[test]
    fn heap_bytes_grows() {
        let mut t = MTree::new();
        let before = t.heap_bytes();
        for i in 0..100u32 {
            t.intern(1, 0, Interval::new(i, i + 1));
        }
        assert!(t.heap_bytes() > before);
    }
}
