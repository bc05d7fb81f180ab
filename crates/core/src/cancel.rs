//! Cooperative cancellation and deadlines.
//!
//! Production mappers bound per-read work: a single pathological query
//! (high `k`, low-complexity pattern) must not monopolise a worker. A
//! [`CancelToken`] carries a shared cancel flag plus an optional
//! wall-clock deadline; search loops poll it at node-expansion
//! granularity through a [`Gate`], which costs one relaxed atomic load
//! per descend and amortises the `Instant::now()` deadline read over
//! [`Gate::POLL_INTERVAL`] expansions. Truncated searches return
//! [`Outcome::Truncated`] with every occurrence verified before the
//! budget expired — partial results are flagged, never silently
//! dropped.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation handle: an atomic cancel flag shared by all
/// clones, plus an optional deadline fixed at construction.
///
/// ```
/// use kmm_core::cancel::CancelToken;
/// use std::time::Duration;
///
/// let t = CancelToken::with_deadline(Duration::from_millis(50));
/// assert!(!t.is_cancelled());
/// t.cancel();
/// assert!(t.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires on its own; only [`CancelToken::cancel`]
    /// (from any clone, any thread) stops it.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that expires `budget` from now. Clones share the same
    /// deadline and cancel flag.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// A token expiring at an absolute instant (used by servers that
    /// stamp the deadline at request-accept time).
    pub fn at(deadline: Instant) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the flag is set (does **not** consult the deadline; use
    /// [`CancelToken::is_expired`] for the full check).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Whether the flag is set or the deadline has passed. Reads the
    /// clock when a deadline exists — hot loops should poll through a
    /// [`Gate`] instead.
    pub fn is_expired(&self) -> bool {
        self.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Whether a search ran to completion or was truncated by its token.
/// Both variants carry the (verified) value; `Truncated` means the
/// result may be missing occurrences the full walk would have found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The search exhausted its space; the value is exact.
    Complete(T),
    /// The budget expired mid-walk; the value holds everything verified
    /// up to that point.
    Truncated(T),
}

impl<T> Outcome<T> {
    /// The carried value, discarding the completeness flag.
    pub fn into_inner(self) -> T {
        match self {
            Outcome::Complete(v) | Outcome::Truncated(v) => v,
        }
    }

    /// Shared reference to the carried value.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete(v) | Outcome::Truncated(v) => v,
        }
    }

    pub fn is_truncated(&self) -> bool {
        matches!(self, Outcome::Truncated(_))
    }

    /// Map the carried value, preserving the flag.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::Truncated(v) => Outcome::Truncated(f(v)),
        }
    }

    /// Rebuild from a value and a truncation flag.
    pub fn from_parts(value: T, truncated: bool) -> Outcome<T> {
        if truncated {
            Outcome::Truncated(value)
        } else {
            Outcome::Complete(value)
        }
    }
}

/// Per-search poll gate: the thing hot loops actually consult.
///
/// `should_stop()` costs, in order: a `Cell` read once tripped (so a
/// truncated walk unwinds without re-checking the token), one relaxed
/// atomic load of the cancel flag, and — only every
/// [`Gate::POLL_INTERVAL`]-th call — an `Instant::now()` against the
/// deadline. With no token at all it is a single `None` discriminant
/// test, keeping the undeadlined path bit-identical and effectively
/// free.
#[derive(Debug)]
pub struct Gate<'t> {
    token: Option<&'t CancelToken>,
    countdown: Cell<u32>,
    tripped: Cell<bool>,
}

impl<'t> Gate<'t> {
    /// Descends between deadline clock reads. S-tree node expansion is
    /// tens of nanoseconds, so 1024 bounds the detection latency to the
    /// order of ~100 µs — far inside the "~10 ms for a 1 ms budget"
    /// acceptance bound — while keeping `Instant::now()` off the hot
    /// path.
    pub const POLL_INTERVAL: u32 = 1024;

    /// A gate for an optional token; `None` makes every check a no-op.
    /// The countdown starts at zero so the *first* poll reads the clock:
    /// an already-expired token truncates even a trivial query instead
    /// of slipping through in under one poll interval.
    pub fn new(token: Option<&'t CancelToken>) -> Self {
        Gate {
            token,
            countdown: Cell::new(0),
            tripped: Cell::new(false),
        }
    }

    /// Poll the token. Returns `true` once the search should unwind;
    /// sticky thereafter.
    #[inline]
    pub fn should_stop(&self) -> bool {
        let Some(token) = self.token else {
            return false;
        };
        if self.tripped.get() {
            return true;
        }
        if token.is_cancelled() {
            self.tripped.set(true);
            return true;
        }
        if let Some(deadline) = token.deadline {
            let n = self.countdown.get();
            if n == 0 {
                self.countdown.set(Self::POLL_INTERVAL);
                if Instant::now() >= deadline {
                    self.tripped.set(true);
                    return true;
                }
            } else {
                self.countdown.set(n - 1);
            }
        }
        false
    }

    /// Whether the gate ever tripped (the search was truncated).
    #[inline]
    pub fn tripped(&self) -> bool {
        self.tripped.get()
    }

    /// Force the deadline check on the next `should_stop` call — used
    /// at coarse checkpoints (per text chunk, per seed) where the call
    /// rate is far below the poll interval.
    #[inline]
    pub fn poll_now(&self) -> bool {
        self.countdown.set(0);
        self.should_stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(b.is_expired());
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_expired());
        assert!(!t.is_cancelled(), "deadline expiry is not the flag");
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_expired());
    }

    #[test]
    fn open_gate_never_stops() {
        let g = Gate::new(None);
        for _ in 0..10_000 {
            assert!(!g.should_stop());
        }
        assert!(!g.tripped());
    }

    #[test]
    fn gate_detects_cancel_immediately() {
        let t = CancelToken::new();
        let g = Gate::new(Some(&t));
        assert!(!g.should_stop());
        t.cancel();
        assert!(g.should_stop());
        assert!(g.tripped());
        // Sticky even if somehow un-cancelled upstream.
        assert!(g.should_stop());
    }

    #[test]
    fn gate_detects_deadline_within_poll_interval() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        let g = Gate::new(Some(&t));
        let mut calls = 0u32;
        while !g.should_stop() {
            calls += 1;
            assert!(calls <= Gate::POLL_INTERVAL + 1, "deadline never noticed");
        }
        assert!(g.tripped());
    }

    #[test]
    fn poll_now_bypasses_countdown() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        let g = Gate::new(Some(&t));
        assert!(g.poll_now());
    }

    #[test]
    fn outcome_helpers() {
        let c: Outcome<u32> = Outcome::Complete(3);
        let t: Outcome<u32> = Outcome::Truncated(4);
        assert!(!c.is_truncated());
        assert!(t.is_truncated());
        assert_eq!(c.map(|v| v + 1), Outcome::Complete(4));
        assert_eq!(t.into_inner(), 4);
        assert_eq!(*c.value(), 3);
        assert_eq!(Outcome::from_parts(9, true), Outcome::Truncated(9));
        assert_eq!(Outcome::from_parts(9, false), Outcome::Complete(9));
    }
}
