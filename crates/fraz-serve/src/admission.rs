//! Admission control: bounded in-flight work.
//!
//! The service's memory story is simple because this layer makes it so:
//! a job is either *admitted* — it holds a [`Permit`] counted against the
//! global job and byte budgets — or it is *shed* with a typed
//! `Overloaded{retry_after}` before its payload influences anything.
//! Queue depth therefore never exceeds `max_jobs` and queued payload bytes
//! never exceed `max_bytes`, no matter how many clients connect or how
//! fast they push.
//!
//! There is no per-client quota: a connection reads one frame, answers it,
//! then reads the next, so it never holds more than one permit and the
//! global budgets already bound every client.
//!
//! Permits are RAII: dropping one (on any path — success, typed failure,
//! panic unwinding through `catch_unwind`) releases its share of every
//! budget, so a leaked count would require leaking the permit itself.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Budgets enforced by [`Admission`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Global ceiling on concurrently admitted jobs.
    pub max_jobs: usize,
    /// Global ceiling on the summed payload bytes of admitted jobs.
    pub max_bytes: u64,
    /// The retry hint handed to shed clients.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_jobs: 64,
            max_bytes: 256 << 20,
            retry_after: Duration::from_millis(50),
        }
    }
}

/// Why a job was shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overload {
    /// How long the client should wait before retrying.
    pub retry_after: Duration,
    /// Which budget tripped (for logs and tests).
    pub reason: &'static str,
}

/// The shared admission state.
pub struct Admission {
    config: AdmissionConfig,
    jobs: AtomicUsize,
    bytes: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    peak_jobs: AtomicUsize,
    peak_bytes: AtomicU64,
}

impl Admission {
    /// Fresh state under the given budgets.
    pub fn new(config: AdmissionConfig) -> Arc<Self> {
        Arc::new(Self {
            config,
            jobs: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            peak_jobs: AtomicUsize::new(0),
            peak_bytes: AtomicU64::new(0),
        })
    }

    /// The configured budgets.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Try to admit a `bytes`-byte job.  On success the returned
    /// [`Permit`] holds the budget share until dropped.
    pub fn try_admit(self: &Arc<Self>, bytes: u64) -> Result<Permit, Overload> {
        let shed = |reason: &'static str| {
            self.shed.fetch_add(1, Ordering::Relaxed);
            Err(Overload {
                retry_after: self.config.retry_after,
                reason,
            })
        };

        let jobs = self.jobs.fetch_add(1, Ordering::AcqRel) + 1;
        if jobs > self.config.max_jobs {
            self.jobs.fetch_sub(1, Ordering::AcqRel);
            return shed("job budget");
        }
        let total = self.bytes.fetch_add(bytes, Ordering::AcqRel) + bytes;
        if total > self.config.max_bytes {
            self.bytes.fetch_sub(bytes, Ordering::AcqRel);
            self.jobs.fetch_sub(1, Ordering::AcqRel);
            return shed("byte budget");
        }

        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak_jobs.fetch_max(jobs, Ordering::Relaxed);
        self.peak_bytes.fetch_max(total, Ordering::Relaxed);
        Ok(Permit {
            admission: Arc::clone(self),
            bytes,
        })
    }

    /// Jobs currently holding permits.
    pub fn inflight_jobs(&self) -> usize {
        self.jobs.load(Ordering::Acquire)
    }

    /// Payload bytes currently held by permits.
    pub fn inflight_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }

    /// Total jobs ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Total jobs ever shed.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently admitted jobs — the overload suite
    /// asserts this never exceeds `max_jobs`.
    pub fn peak_jobs(&self) -> usize {
        self.peak_jobs.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently admitted payload bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }
}

/// RAII share of the admission budgets; dropping releases it.
pub struct Permit {
    admission: Arc<Admission>,
    bytes: u64,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.admission.bytes.fetch_sub(self.bytes, Ordering::AcqRel);
        self.admission.jobs.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_jobs: usize, max_bytes: u64) -> AdmissionConfig {
        AdmissionConfig {
            max_jobs,
            max_bytes,
            retry_after: Duration::from_millis(25),
        }
    }

    #[test]
    fn budgets_are_enforced_and_released() {
        let admission = Admission::new(config(2, 1000));
        let a = admission.try_admit(400).unwrap();
        let _b = admission.try_admit(400).unwrap();
        let over = admission.try_admit(100).unwrap_err();
        assert_eq!(over.reason, "job budget");
        assert_eq!(over.retry_after, Duration::from_millis(25));
        drop(a);
        assert!(admission.try_admit(100).is_ok(), "release reopens");
        assert_eq!(admission.shed(), 1);
    }

    #[test]
    fn byte_budget_sheds_independently_of_job_budget() {
        let admission = Admission::new(config(10, 500));
        let _a = admission.try_admit(400).unwrap();
        let over = admission.try_admit(200).unwrap_err();
        assert_eq!(over.reason, "byte budget");
        // The failed admission must not leak its transient increments.
        assert_eq!(admission.inflight_jobs(), 1);
        assert_eq!(admission.inflight_bytes(), 400);
    }

    #[test]
    fn peaks_record_high_water_marks() {
        let admission = Admission::new(config(4, 10_000));
        let permits: Vec<_> = (0..3).map(|_| admission.try_admit(100).unwrap()).collect();
        drop(permits);
        assert_eq!(admission.peak_jobs(), 3);
        assert_eq!(admission.peak_bytes(), 300);
        assert_eq!(admission.inflight_jobs(), 0);
        assert_eq!(admission.inflight_bytes(), 0);
    }
}
