//! Event-kernel primitives: next-activity queries and cooperative
//! cancellation.
//!
//! The simulator's timing loop used to tick every component every CPU
//! cycle. The event kernel instead asks each component when it could
//! next *do* anything and jumps straight there. Two pieces live here so
//! every timing crate can share them without depending on the system
//! crate:
//!
//! * [`NextActivity`] — the "when are you next busy?" query.
//! * [`CancelToken`] — a shared flag polled at event boundaries so a
//!   long simulation can be abandoned cooperatively (e.g. a
//!   `nomad-serve` job attempt that blew its wall-clock budget).

use crate::Cycle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// When could this component next make progress on its own?
///
/// # Contract
///
/// `next_activity_at(now)` is called *after* the component has been
/// ticked at `now` (so `now` itself is fully processed) and returns:
///
/// * `Some(t)` with `t > now` — ticking the component before `t` would
///   do nothing any other component can see, and the component
///   **must** be ticked again at `t` at the latest. Returning a `t`
///   *earlier* than the component's true next activity is always safe
///   (the kernel just ticks it and asks again); returning one *later*
///   is a correctness bug — the skip-parity suite exists to catch it.
/// * `None` — the component is purely reactive: it will not change
///   state until someone pushes new work into it. The kernel may skip
///   it indefinitely.
///
/// Components whose per-cycle work before `t` changes their own state
/// or statistics that appear in a `RunReport` (e.g. a core's commits
/// and stall-cycle breakdown) must provide a bulk advance that replays
/// the skipped cycles identically to dense ticking.
pub trait NextActivity {
    /// Earliest cycle strictly after `now` at which this component
    /// could make progress, or `None` if it is quiescent until poked.
    fn next_activity_at(&self, now: Cycle) -> Option<Cycle>;
}

/// A shared cancellation flag for cooperative abandonment of a
/// simulation.
///
/// Cloning the token clones the *handle*; all clones observe the same
/// flag. The simulation loop polls [`is_cancelled`](Self::is_cancelled)
/// at event boundaries (every few thousand cycles at worst), so a
/// cancelled run returns promptly instead of burning CPU to completion.
/// Relaxed ordering suffices: the flag is a latch, not a
/// synchronization edge. A token made by
/// [`expiring_at`](Self::expiring_at) also reads as cancelled once its
/// deadline passes, so a wall-clock budget needs no second thread to
/// enforce it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    expires: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that is also cancelled from `deadline` on.
    pub fn expiring_at(deadline: Instant) -> Self {
        CancelToken {
            expires: Some(deadline),
            ..Self::default()
        }
    }

    /// Latch the token; every holder observes cancellation from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone,
    /// or the token's deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.expires.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_latches_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn expiring_token_cancels_at_its_deadline() {
        let now = Instant::now();
        assert!(CancelToken::expiring_at(now).is_cancelled());
        let later = CancelToken::expiring_at(now + std::time::Duration::from_secs(3600));
        assert!(!later.is_cancelled());
        later.cancel();
        assert!(later.is_cancelled(), "the flag still latches");
    }
}
