//! Cooperative deadlines.
//!
//! Production mappers bound per-read work: a single pathological query
//! (high `k`, low-complexity pattern) must not monopolise a worker. A
//! [`CancelToken`] carries a wall-clock deadline; search loops poll it
//! at node-expansion granularity through a [`Gate`], which amortises
//! the `Instant::now()` read over [`Gate::POLL_INTERVAL`] expansions.
//! Truncated searches return [`Outcome::Truncated`] with every
//! occurrence verified before the budget expired — partial results are
//! flagged, never silently dropped.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// A search deadline, fixed when the token is made.
///
/// ```
/// use kmm_core::cancel::CancelToken;
/// use std::time::Duration;
///
/// assert!(CancelToken::with_deadline(Duration::ZERO).is_expired());
/// assert!(!CancelToken::with_deadline(Duration::from_secs(60)).is_expired());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    /// `None` when the budget overflows `Instant`: it never expires.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that expires `budget` from now. A budget too large for
    /// `Instant` (a request's `timeout_ms` can ask for one) never
    /// expires.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Whether the deadline has passed. Reads the clock — hot loops
    /// should poll through a [`Gate`] instead.
    pub fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
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
/// truncated walk unwinds without re-checking the token), a countdown
/// step, and — only every [`Gate::POLL_INTERVAL`]-th call — an
/// `Instant::now()` against the deadline. With no deadline at all it is
/// a single `None` discriminant test, keeping the undeadlined path
/// bit-identical and effectively free.
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
        let Some(deadline) = self.token.and_then(|t| t.deadline) else {
            return false;
        };
        if self.tripped.get() {
            return true;
        }
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
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_expired());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_expired());
    }

    #[test]
    fn a_budget_past_instant_never_expires() {
        let t = CancelToken::with_deadline(Duration::MAX);
        assert!(!t.is_expired());
        let g = Gate::new(Some(&t));
        assert!(!g.poll_now());
        assert!(!g.tripped());
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
