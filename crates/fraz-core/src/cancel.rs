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
}

/// A shareable cancellation flag with an optional deadline.
///
/// `is_cancelled` is true once [`cancel`](CancelToken::cancel) has been
/// called *or* the deadline has passed; both are sticky.  Clones share one
/// flag.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels explicitly (no deadline).
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A token that auto-cancels `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Some(Instant::now() + timeout))
    }

    fn build(deadline: Option<Instant>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// Raise the flag explicitly (idempotent).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once cancelled explicitly or past the deadline.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so later checks skip the clock read.
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Time left before the deadline (`None` when the token has no
    /// deadline; zero once it passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
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
        assert!(token.remaining().is_none());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let token = CancelToken::with_timeout(Duration::from_millis(10));
        assert!(token.remaining().is_some());
        std::thread::sleep(Duration::from_millis(25));
        assert!(token.is_cancelled());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_is_not_cancelled() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().unwrap() > Duration::from_secs(3000));
        assert!(token.deadline().is_some());
    }
}
