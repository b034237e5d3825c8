//! Cooperative wall-clock deadlines for driver runs.
//!
//! Fuel bounds *work*: a mutant that loops forever runs out of fuel after a
//! deterministic number of steps. But fuel says nothing about *wall time* —
//! a campaign job with a huge budget (or an expensive per-step workload)
//! can hold a worker for seconds while the queue behind it ages. A
//! [`Deadline`] is the wall-clock complement: a fixed instant the bytecode
//! VM probes **cooperatively** at fuel-burn boundaries (amortised: one
//! `Instant::now()` per [`DEADLINE_CHECK_INTERVAL`] burns, so the ~ns/burn
//! dispatch loop is unaffected) and at the block-I/O / delay builtins (the
//! only single ops that consume unbounded fuel in one dispatch).
//!
//! Crucially the probe never touches fuel or coverage accounting, so runs
//! that finish inside their deadline are bit-identical to unbounded runs —
//! and to the tree-walking interpreter, which takes no deadline, so the
//! VM-vs-interpreter differential contract is untouched. An expired
//! deadline surfaces as [`RunError::DeadlineExpired`], which the kernel
//! layer classifies as its own terminal outcome rather than folding into
//! the fuel-exhaustion (`InfiniteLoop`) bucket.
//!
//! [`RunError::DeadlineExpired`]: crate::interp::RunError::DeadlineExpired

use std::time::{Duration, Instant};

/// How many fuel burns between wall-clock probes. At ~11 ns/burn this
/// bounds overshoot past the deadline to roughly 10 µs.
pub const DEADLINE_CHECK_INTERVAL: u32 = 1024;

/// An absolute wall-clock deadline, cheap to copy and check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now. Saturates far in the future if the
    /// budget overflows `Instant` arithmetic.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        let now = Instant::now();
        let at = now
            .checked_add(budget)
            .unwrap_or_else(|| now + Duration::from_secs(365 * 24 * 3600));
        Deadline { at }
    }

    /// A deadline at an absolute instant (e.g. fixed at job admission, so
    /// time spent queued counts against the budget).
    #[must_use]
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// Has the deadline passed?
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Wall-clock budget left (zero once expired).
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_is_not_expired() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3500));
    }

    #[test]
    fn past_deadline_is_expired() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn huge_budget_saturates_instead_of_panicking() {
        let d = Deadline::after(Duration::from_secs(u64::MAX));
        assert!(!d.expired());
    }
}
