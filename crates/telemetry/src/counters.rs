//! The counter table: every telemetry counter, declared once.
//!
//! The `counters!` invocation below lists each counter in its
//! canonical order — the order of `/metrics`, `/stats.json`, `--stats`
//! tables and trace counters. An entry is a doc comment plus either
//!
//! * `Variant = "dotted.name";` — an aggregate-only counter (mapper,
//!   multi-record, serving and index gauges), or
//! * `Variant => field, "label";` — a per-query counter: also a
//!   [`SearchStats`] field, named `search.<field>` and shown as
//!   `label=<value>` by `SearchStats`' `Display`.
//!
//! From that one list the macro generates [`Counter`] (`ALL`, `COUNT`,
//! `name`), [`SearchStats`] and its `COUNTERS`, `accumulate`,
//! `as_pairs`, `add`, `record_into` and `Display`, so adding a counter
//! is one entry.

use std::fmt;

use crate::recorder::Recorder;

macro_rules! counters {
    (@variant $variant:ident $field:ident) => {
        Counter::$variant
    };
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident $(= $name:literal)? $(=> $field:ident, $label:literal)?;
    )*) => {
        /// Monotonic event counters, in the table's order. The per-query
        /// ones mirror the fields of [`SearchStats`] one-to-one; the rest
        /// cover the mapper, multi-record, serving and index layers.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)*
        }

        impl Counter {
            pub const COUNT: usize = [$(Counter::$variant),*].len();
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),*];

            /// Stable dotted name; per-query counters are `search.<field>`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $($name)? $(concat!("search.", stringify!($field)))?,)*
                }
            }
        }

        /// Counters collected during one search. All counts are per query;
        /// each field feeds the `search.<field>` [`Counter`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SearchStats {
            $($(#[doc = concat!("Per-query value of [`Counter::", stringify!($variant), "`].")] pub $field: u64,)?)*
        }

        impl SearchStats {
            /// The counter each field feeds, in field order.
            pub const COUNTERS: &'static [Counter] = &[$($(counters!(@variant $variant $field),)?)*];

            /// Merge counters from another search (used when batching reads).
            pub fn accumulate(&mut self, other: &SearchStats) {
                $($(self.$field += other.$field;)?)*
            }

            /// Every field as a `(canonical_name, value)` pair, in
            /// declaration order. The names are the stable keys used by
            /// the JSON emitters.
            pub fn as_pairs(&self) -> [(&'static str, u64); SearchStats::COUNTERS.len()] {
                [$($((stringify!($field), self.$field),)?)*]
            }

            /// Add `delta` to the field `counter` mirrors; a no-op for an
            /// aggregate-only counter.
            pub(crate) fn add(&mut self, counter: Counter, delta: u64) {
                match counter {
                    $($(Counter::$variant => self.$field += delta,)?)*
                    _ => {}
                }
            }

            /// Add every field to the matching `search.*` telemetry counter.
            pub fn record_into<R: Recorder>(&self, recorder: &R) {
                $($(recorder.add(Counter::$variant, self.$field);)?)*
            }
        }

        impl fmt::Display for SearchStats {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $($(write!(f, concat!($label, "={} "), self.$field)?;)?)*
                write!(f, "reuse_ratio={:.3}", self.reuse_ratio())
            }
        }
    };
}

counters! {
    /// Top-level queries answered.
    Queries = "search.queries";
    /// Leaf nodes of the search tree (paths at which the walk
    /// terminated): the paper's `n'` (Table 2) for Algorithm A and the
    /// S-tree leaf count for the BWT baseline.
    Leaves => leaves, "n'(leaves)";
    /// Tree nodes visited (including revisits of shared subtrees).
    NodesVisited => nodes_visited, "visited";
    /// Nodes newly materialised by live BWT search.
    NodesMaterialized => nodes_materialized, "materialized";
    /// `search()` steps, i.e. backward-extension rank lookups (each is two
    /// `occ` calls on the rankall arrays).
    RankExtensions => rank_extensions, "rank_ext";
    /// Hash-table hits that let a subtree be derived instead of re-searched.
    ReuseHits => reuse_hits, "reuse";
    /// `R_ij` tables derived (paper's `merge(R_i, R_j, …)` executions).
    Merges => merges, "merges";
    /// Subtree walks resumed with live search because the stored subtree
    /// was not materialised deeply enough for the new alignment's budget
    /// (DESIGN.md D2).
    Resumes => resumes, "resumes";
    /// Occurrences reported.
    Occurrences => occurrences, "occ";
    /// Branches pruned by the `φ` heuristic (BWT baseline only).
    PhiPrunes => phi_prunes, "phi_prunes";
    /// Reads that produced at least one hit (mapper).
    ReadsMapped = "map.reads_mapped";
    /// Reads processed (mapper).
    ReadsTotal = "map.reads_total";
    /// Hits dropped for straddling a chromosome boundary (multi).
    BoundaryFiltered = "multi.boundary_filtered";
    /// HTTP requests answered by `kmm serve`.
    ServeRequests = "serve.requests";
    /// HTTP requests that failed (bad input, handler panic, i/o error).
    ServeErrors = "serve.errors";
    /// Searches truncated by a deadline or cancellation before the walk
    /// finished (0 or 1 per query; summed across a batch). Partial
    /// results were still reported. It follows the wall clock when a
    /// deadline is set and is 0 without one.
    Timeouts => timeouts, "timeouts";
    /// HTTP requests shed with 429 because the handoff queue was full.
    ServeShed = "serve.shed";
    /// Fused 4-base rank sweeps (`extend_all` node expansions): each
    /// resolves all four children with one pass over the interval's two
    /// rank blocks instead of four independent extensions.
    OccFused => occ_fused, "occ_fused";
    /// Per-node allocations avoided by reusing a per-query arena or
    /// pre-sized tree storage across queries.
    AllocReused => alloc_reused, "alloc_reused";
    /// Deterministic cost: interleaved rank blocks visited by
    /// `occ`/`occ_all`/`symbol` during the query (see [`crate::cost`]).
    /// A pure function of (index, pattern, k, method) — identical across
    /// runs, machines, and thread counts.
    RankBlocksTouched => rank_blocks_touched, "rank_blocks";
    /// Deterministic cost: bytes of rank-block data examined (checkpoint
    /// headers plus the packed payload words the tail scan touched).
    RankBytesScanned => rank_bytes_scanned, "rank_bytes";
    /// Deterministic cost: R-array lookups (`shift` / `R_ij`
    /// derivations) during preprocessing and descent.
    RarrayProbes => rarray_probes, "rarray_probes";
    /// Deterministic cost: mismatching-tree nodes materialised into the
    /// arena.
    MtreeNodesBuilt => mtree_nodes_built, "mtree_built";
    /// Deterministic cost: pair-table hits that shared an existing
    /// mismatching-tree node instead of building one.
    MtreeNodesReused => mtree_nodes_reused, "mtree_reused";
    /// Bytes of 2-bit packed BWT payload in the loaded index's rank
    /// structure (gauge, set at load).
    RankPayloadBytes = "index.rankall_payload_bytes";
    /// Bytes of interleaved checkpoint headers in the loaded index's rank
    /// structure — the block overhead on top of the packed text.
    RankOverheadBytes = "index.rankall_block_overhead_bytes";
    /// Bytes of the loaded index's sampled suffix array (gauge, set at
    /// load) — completes the per-structure byte attribution.
    SampledSaBytes = "index.sampled_sa_bytes";
    /// Bytes of the index file pulled through `read(2)` at load (gauge,
    /// set at load; 0 for a zero-copy mmap open).
    IndexLoadIoBytes = "index.load.io_bytes";
    /// Bytes of the index file mapped into the address space at load
    /// (gauge, set at load; 0 for a buffered-read open).
    IndexLoadMappedBytes = "index.load.bytes_mapped";
    /// How the index got into memory: 1 = buffered read (full checksum
    /// verification), 2 = mmap (zero-copy, table-only verification).
    /// Gauge, set at load.
    IndexLoadMode = "index.load.mode";
    /// Deterministic cost: `occ_all_pair` calls answered with a single
    /// shared block visit (both interval boundaries in one interleaved
    /// block) instead of two independent `occ_all` sweeps.
    OccPairFused => occ_pair_fused, "occ_pair_fused";
    /// Deterministic cost: advisory rank-block prefetch hints issued for
    /// in-range LF targets ahead of backward extensions — a function of
    /// the search path alone.
    PrefetchIssued => prefetch_issued, "prefetch";
    /// Connections accepted by `kmm serve` (the open-connection gauge is
    /// `conns_opened - conns_closed`).
    ServeConnsOpened = "serve.conns_opened";
    /// Connections closed by `kmm serve`, for any reason.
    ServeConnsClosed = "serve.conns_closed";
    /// Keep-alive reuses: requests after the first on one connection.
    ServeKeepaliveReuses = "serve.keepalive_reuses";
    /// Requests shed with 429 by the per-tenant token bucket.
    ServeShedTenant = "serve.shed_tenant";
    /// Connections evicted for lack of progress (slow-loris defense:
    /// idle keep-alive or a stalled header/body never completing).
    ServeShedStall = "serve.shed_stall";
    /// Connections refused because `--max-conns` was reached.
    ServeShedConns = "serve.shed_conns";
}

impl Counter {
    /// Position of this counter in [`Counter::ALL`].
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl SearchStats {
    /// Fraction of extension work answered by reuse instead of live
    /// ranking: `reuse_hits / (reuse_hits + rank_extensions)`. Zero when
    /// no extension work happened.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.reuse_hits + self.rank_extensions;
        if total == 0 {
            0.0
        } else {
            self.reuse_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRecorder;

    /// Stats whose `i`-th field holds `i + 1`.
    fn numbered() -> SearchStats {
        let mut stats = SearchStats::default();
        for (i, &c) in SearchStats::COUNTERS.iter().enumerate() {
            stats.add(c, i as u64 + 1);
        }
        stats
    }

    #[test]
    fn names_are_distinct_and_per_query_names_follow_fields() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (&c, (field, _)) in SearchStats::COUNTERS.iter().zip(numbered().as_pairs()) {
            assert_eq!(c.name(), format!("search.{field}"));
        }
    }

    #[test]
    fn as_pairs_follows_the_filtered_counter_order() {
        let filtered: Vec<Counter> = Counter::ALL
            .into_iter()
            .filter(|c| SearchStats::COUNTERS.contains(c))
            .collect();
        assert_eq!(filtered, SearchStats::COUNTERS);
        let pairs = numbered().as_pairs();
        assert_eq!(pairs.len(), 19);
        let values: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=19).collect::<Vec<u64>>());
    }

    #[test]
    fn accumulate_sums_every_field() {
        let mut a = numbered();
        a.accumulate(&numbered());
        a.accumulate(&SearchStats::default());
        for (i, (field, v)) in a.as_pairs().into_iter().enumerate() {
            assert_eq!(v, 2 * (i as u64 + 1), "{field}");
        }
    }

    #[test]
    fn add_ignores_aggregate_only_counters() {
        let mut stats = SearchStats::default();
        for c in Counter::ALL {
            if !SearchStats::COUNTERS.contains(&c) {
                stats.add(c, 7);
            }
        }
        assert_eq!(stats, SearchStats::default());
    }

    #[test]
    fn record_into_lands_each_field_on_its_counter() {
        let stats = numbered();
        let rec = MetricsRecorder::new();
        stats.record_into(&rec);
        stats.record_into(&rec);
        for (&c, (field, v)) in SearchStats::COUNTERS.iter().zip(stats.as_pairs()) {
            assert_eq!(rec.counter(c), 2 * v, "{field}");
        }
        for c in Counter::ALL {
            if !SearchStats::COUNTERS.contains(&c) {
                assert_eq!(rec.counter(c), 0, "{}", c.name());
            }
        }
    }

    #[test]
    fn display_shows_every_label_in_order_then_reuse_ratio() {
        assert_eq!(
            numbered().to_string(),
            "n'(leaves)=1 visited=2 materialized=3 rank_ext=4 reuse=5 merges=6 \
             resumes=7 occ=8 phi_prunes=9 timeouts=10 occ_fused=11 alloc_reused=12 \
             rank_blocks=13 rank_bytes=14 rarray_probes=15 mtree_built=16 mtree_reused=17 \
             occ_pair_fused=18 prefetch=19 reuse_ratio=0.556"
        );
    }

    #[test]
    fn reuse_ratio_is_bounded() {
        assert_eq!(SearchStats::default().reuse_ratio(), 0.0);
        let s = SearchStats {
            reuse_hits: 1,
            rank_extensions: 3,
            ..Default::default()
        };
        assert_eq!(s.reuse_ratio(), 0.25);
        let all_reuse = SearchStats {
            reuse_hits: 5,
            ..Default::default()
        };
        assert_eq!(all_reuse.reuse_ratio(), 1.0);
    }
}
