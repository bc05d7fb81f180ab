//! Sliding-window latency tracking for serving endpoints.
//!
//! A [`SlidingWindow`] buckets observations into fixed-width time slots
//! (seconds of a monotonic clock) and keeps only the most recent N
//! slots; [`SlidingWindow::summary`] merges the live slots into one
//! [`HistogramSnapshot`], so p50/p95/p99 over "the last minute" come
//! from the same log2-bucket interpolation the process-lifetime
//! histograms use. Old slots are pruned lazily on record/summary — no
//! background thread.
//!
//! One instance guards one endpoint; its single mutex is held only for
//! O(BUCKETS) work, which is negligible next to request handling.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::histogram::{bucket_index, HistogramSnapshot, BUCKETS};

/// Per-slot accumulator (plain data; lives under the window's mutex).
#[derive(Debug, Clone)]
struct Slot {
    tick: u64,
    count: u64,
    errors: u64,
    buckets: [u64; BUCKETS],
    sum: u64,
    min: u64,
    max: u64,
}

impl Slot {
    fn new(tick: u64) -> Slot {
        Slot {
            tick,
            count: 0,
            errors: 0,
            buckets: [0; BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Merged view of the window's live slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    /// Observations in the window (errors included).
    pub count: u64,
    /// Error observations in the window.
    pub errors: u64,
    /// Value distribution over the window.
    pub hist: HistogramSnapshot,
}

impl WindowSummary {
    pub fn empty() -> WindowSummary {
        WindowSummary {
            count: 0,
            errors: 0,
            hist: HistogramSnapshot::empty(),
        }
    }
}

/// Rolling last-N-slots observation window.
#[derive(Debug)]
pub struct SlidingWindow {
    epoch: Instant,
    slot_secs: u64,
    slots: usize,
    inner: Mutex<VecDeque<Slot>>,
}

impl SlidingWindow {
    /// A window of `slots` slots, each `slot_secs` wide (e.g. 60 × 1s
    /// for a one-minute window). Both are clamped to at least 1.
    pub fn new(slot_secs: u64, slots: usize) -> SlidingWindow {
        SlidingWindow {
            epoch: Instant::now(),
            slot_secs: slot_secs.max(1),
            slots: slots.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    fn tick_now(&self) -> u64 {
        self.epoch.elapsed().as_secs() / self.slot_secs
    }

    /// Record one observation (a request latency in nanoseconds).
    pub fn record(&self, value: u64, is_error: bool) {
        self.record_at(self.tick_now(), value, is_error);
    }

    /// Merge the live slots.
    pub fn summary(&self) -> WindowSummary {
        self.summary_at(self.tick_now())
    }

    fn record_at(&self, tick: u64, value: u64, is_error: bool) {
        let mut slots = self.lock();
        self.prune(&mut slots, tick);
        let needs_new = slots.back().is_none_or(|s| s.tick != tick);
        if needs_new {
            slots.push_back(Slot::new(tick));
        }
        let slot = slots.back_mut().expect("slot just ensured");
        slot.count += 1;
        if is_error {
            slot.errors += 1;
        }
        slot.buckets[bucket_index(value)] += 1;
        slot.sum = slot.sum.saturating_add(value);
        slot.min = slot.min.min(value);
        slot.max = slot.max.max(value);
    }

    fn summary_at(&self, tick: u64) -> WindowSummary {
        let mut slots = self.lock();
        self.prune(&mut slots, tick);
        let mut summary = WindowSummary::empty();
        let mut min = u64::MAX;
        for slot in slots.iter() {
            summary.count += slot.count;
            summary.errors += slot.errors;
            for (i, &n) in slot.buckets.iter().enumerate() {
                summary.hist.buckets[i] += n;
            }
            summary.hist.count += slot.count;
            summary.hist.sum = summary.hist.sum.saturating_add(slot.sum);
            min = min.min(slot.min);
            summary.hist.max = summary.hist.max.max(slot.max);
        }
        if summary.hist.count > 0 {
            summary.hist.min = min;
        }
        summary
    }

    fn prune(&self, slots: &mut VecDeque<Slot>, tick: u64) {
        let oldest_live = tick.saturating_sub(self.slots as u64 - 1);
        while slots.front().is_some_and(|s| s.tick < oldest_live) {
            slots.pop_front();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Slot>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_across_live_slots() {
        let w = SlidingWindow::new(1, 3);
        w.record_at(0, 10, false);
        w.record_at(1, 20, true);
        w.record_at(2, 40, false);
        let s = w.summary_at(2);
        assert_eq!(s.count, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.hist.count, 3);
        assert_eq!(s.hist.min, 10);
        assert_eq!(s.hist.max, 40);
        assert_eq!(s.hist.sum, 70);
        assert!(s.hist.percentile(0.5) >= 10.0);
    }

    #[test]
    fn old_slots_fall_out_of_the_window() {
        let w = SlidingWindow::new(1, 2);
        w.record_at(0, 100, true);
        w.record_at(1, 7, false);
        // At tick 2 the window covers ticks {1, 2}: the error at tick 0
        // is gone.
        let s = w.summary_at(2);
        assert_eq!(s.count, 1);
        assert_eq!(s.errors, 0);
        assert_eq!(s.hist.max, 7);
        // Far future: everything expired.
        assert_eq!(w.summary_at(100), WindowSummary::empty());
    }

    #[test]
    fn recording_after_a_gap_prunes_stale_slots() {
        let w = SlidingWindow::new(1, 2);
        w.record_at(0, 5, false);
        w.record_at(50, 9, false);
        let s = w.summary_at(50);
        assert_eq!(s.count, 1);
        assert_eq!(s.hist.min, 9);
    }

    #[test]
    fn live_clock_path_works() {
        let w = SlidingWindow::new(60, 5);
        w.record(1000, false);
        w.record(3000, true);
        let s = w.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.errors, 1);
    }
}
