//! Deterministic cost counters for the hot search paths.
//!
//! Wall-clock timings (the `Phase` spans) answer *how long* a query
//! took; these counters answer *how much work* it did, in units the
//! paper's cost model is stated in: rank blocks touched, packed-BWT
//! bytes scanned, R-array probes, and mismatching-tree nodes built or
//! shared. The counts are pure functions of (index, pattern, k,
//! method) — no clocks, no sampling — so two runs on the same corpus
//! and seed produce bit-identical numbers, which is what lets
//! `kmm bench diff` gate on them in CI where timings are noise.
//!
//! The counters are plain thread-local [`Cell`]s indexed by [`Counter`],
//! always on: a bump is an unsynchronised add (~1 ns), cheap enough for
//! `occ` itself, and keeping them unconditional means the numbers exist
//! even under a [`crate::NoopRecorder`] — observation never changes the
//! work, and the work is always observable. Each query runs on exactly
//! one thread, so a caller brackets a query with [`CostSnapshot::now`]
//! and [`CostSnapshot::delta`] to attribute the work to that query.

use std::cell::Cell;

use crate::counters::{Counter, SearchStats};

thread_local! {
    static COSTS: [Cell<u64>; Counter::COUNT] = const { [const { Cell::new(0) }; Counter::COUNT] };
}

/// Add `delta` to one cost counter on this thread.
#[inline]
pub fn bump(counter: Counter, delta: u64) {
    COSTS.with(|c| {
        let cell = &c[counter.index()];
        cell.set(cell.get().wrapping_add(delta));
    });
}

/// Add to two counters with a single thread-local access (the `occ`
/// hot path bumps blocks and bytes together).
#[inline]
pub fn bump2(a: Counter, da: u64, b: Counter, db: u64) {
    COSTS.with(|c| {
        let ca = &c[a.index()];
        ca.set(ca.get().wrapping_add(da));
        let cb = &c[b.index()];
        cb.set(cb.get().wrapping_add(db));
    });
}

/// Point-in-time reading of this thread's cost counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostSnapshot {
    values: [u64; Counter::COUNT],
}

impl CostSnapshot {
    /// Capture the current counter values of this thread.
    #[inline]
    pub fn now() -> CostSnapshot {
        CostSnapshot {
            values: COSTS.with(|c| std::array::from_fn(|i| c[i].get())),
        }
    }

    /// Work done between `earlier` and `self` (same thread). The
    /// counters only grow, so wrapping subtraction is exact.
    pub fn delta(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            values: std::array::from_fn(|i| self.values[i].wrapping_sub(earlier.values[i])),
        }
    }

    /// Value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Add every counter's value into the matching `stats` field — a
    /// query's [`Self::delta`] attributed to that query.
    pub fn add_to(&self, stats: &mut SearchStats) {
        for counter in Counter::ALL {
            stats.add(counter, self.get(counter));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_are_visible_in_deltas_for_every_counter() {
        let before = CostSnapshot::now();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            bump(c, i as u64 + 1);
        }
        let delta = CostSnapshot::now().delta(&before);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(delta.get(c), i as u64 + 1, "{}", c.name());
        }
        let mut stats = SearchStats::default();
        delta.add_to(&mut stats);
        for (&c, (field, v)) in SearchStats::COUNTERS.iter().zip(stats.as_pairs()) {
            assert_eq!(v, delta.get(c), "{field}");
        }

        let before = CostSnapshot::now();
        bump2(Counter::RankBlocksTouched, 1, Counter::RankBytesScanned, 24);
        let delta = CostSnapshot::now().delta(&before);
        assert_eq!(delta.get(Counter::RankBlocksTouched), 1);
        assert_eq!(delta.get(Counter::RankBytesScanned), 24);
        assert_eq!(delta.get(Counter::MtreeNodesReused), 0);
    }

    #[test]
    fn counters_are_thread_local() {
        let before = CostSnapshot::now();
        std::thread::spawn(|| bump(Counter::RarrayProbes, 1_000_000))
            .join()
            .unwrap();
        let delta = CostSnapshot::now().delta(&before);
        assert_eq!(delta.get(Counter::RarrayProbes), 0);
    }
}
