//! Cooperative cancellation and deadlines for long-running searches.
//!
//! A FRaZ tune is an iterative race of compressor invocations — exactly the
//! kind of work a service must be able to stop *mid-flight* when a client's
//! deadline passes or the daemon starts draining.  [`CancelToken`] is the
//! hook: cheap to clone and share, checked cooperatively between objective
//! evaluations by [`FixedRatioSearch`](crate::FixedRatioSearch) and
//! [`FixedQualitySearch`](crate::FixedQualitySearch), so a cancelled search
//! returns its best-so-far answer (flagged `deadline_hit`) instead of
//! hogging a worker until the budget runs out.
//!
//! Every stop in the stack is a token, and a narrower stop is a
//! [`child`](CancelToken::child) of a wider one: a region race's early
//! termination is a child of its search's token, and a service job's token
//! a child of the server's drain token.  Firing a token stops everything
//! below it and nothing above.
//!
//! The token never interrupts an evaluation that has already started — a
//! single compressor call is the atom of work — so cancellation latency is
//! bounded by one evaluation, not by the whole search.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<CancelToken>,
}

/// A shareable cancellation flag with an optional deadline and an optional
/// parent.
///
/// `is_cancelled` is true once [`cancel`](CancelToken::cancel) has been
/// called, the deadline has passed *or* an ancestor has fired; all three
/// are sticky.  Clones share one flag.  Cancelling a child never fires its
/// parent.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels explicitly (no deadline, no parent).
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token that auto-cancels `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Some(Instant::now() + timeout), None)
    }

    /// A token that fires when cancelled or when this one fires.
    pub fn child(&self) -> Self {
        Self::build(None, Some(self.clone()))
    }

    /// A token that fires when cancelled, `timeout` from now, or when this
    /// one fires.
    pub fn child_with_timeout(&self, timeout: Duration) -> Self {
        Self::build(Some(Instant::now() + timeout), Some(self.clone()))
    }

    fn build(deadline: Option<Instant>, parent: Option<CancelToken>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                parent,
            }),
        }
    }

    /// Raise the flag explicitly (idempotent).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once cancelled explicitly, past the deadline, or once an
    /// ancestor fired.
    pub fn is_cancelled(&self) -> bool {
        let inner = &*self.inner;
        if inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let fired = inner.deadline.is_some_and(|d| Instant::now() >= d)
            || inner.parent.as_ref().is_some_and(Self::is_cancelled);
        if fired {
            // Latch, so later checks skip the clock and the ancestors.
            inner.cancelled.store(true, Ordering::Release);
        }
        fired
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_sticky_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let token = CancelToken::with_timeout(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(25));
        assert!(token.is_cancelled());
    }

    #[test]
    fn future_deadline_is_not_cancelled() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn a_parent_fires_its_children_and_a_child_leaves_its_parent_alone() {
        let parent = CancelToken::new();
        let (left, right) = (parent.child(), parent.child());
        let grandchild = left.child();
        left.cancel();
        assert!(left.is_cancelled() && grandchild.is_cancelled());
        assert!(!parent.is_cancelled() && !right.is_cancelled());
        parent.cancel();
        assert!(right.is_cancelled());
        // A child made after its parent fired starts fired.
        assert!(parent.child().is_cancelled());
        assert!(parent
            .child_with_timeout(Duration::from_secs(3600))
            .is_cancelled());
    }

    #[test]
    fn a_childs_own_deadline_fires_it_alone() {
        let parent = CancelToken::with_timeout(Duration::from_secs(3600));
        let child = parent.child_with_timeout(Duration::from_millis(10));
        assert!(!child.is_cancelled());
        std::thread::sleep(Duration::from_millis(25));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn the_latch_is_sticky() {
        // A token that saw its parent fire stays fired, whatever the
        // parent's clones do next: the flag is the child's own.
        let parent = CancelToken::new();
        let child = parent.child();
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(child.inner.cancelled.load(Ordering::Acquire));
        let deadline = CancelToken::with_timeout(Duration::ZERO);
        assert!(deadline.is_cancelled());
        assert!(deadline.inner.cancelled.load(Ordering::Acquire));
        assert!(deadline.is_cancelled());
    }
}
