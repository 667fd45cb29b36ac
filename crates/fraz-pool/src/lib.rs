//! A work-stealing scoped thread pool for the FRaZ search and orchestrator.
//!
//! The FRaZ task graph has two nested levels of parallelism: independent
//! *field* searches (paper Algorithm 3) and, inside each field, the
//! region-parallel *training* race (Algorithm 2).  Spawning fresh OS threads
//! per level per batch made the tuning harness itself the throughput
//! bottleneck at scale, so this crate provides one long-lived pool both
//! levels share:
//!
//! * every worker owns a local deque — tasks spawned *from* a worker go to
//!   its own deque (popped LIFO for locality) and idle workers steal from
//!   the opposite end (FIFO), in the spirit of rayon's core loop,
//! * tasks spawned from outside the pool land in a global injector queue,
//! * idle workers park on a condvar and are woken by pushes (a long
//!   fallback timeout — not polling — is the only other wake-up source),
//! * [`Pool::scope`] is **re-entrant**: when a task running *on* a worker
//!   opens a scope and waits for its sub-tasks, the worker keeps executing
//!   its own deque's tasks instead of blocking, so nested field→region
//!   scopes on one pool can neither deadlock nor oversubscribe the
//!   machine — while *not* absorbing unrelated stolen work into the
//!   waiting scope's wall-clock.
//!
//! The environment has no crates.io access, so everything here is built on
//! `std::sync` primitives only — no crossbeam deques, no rayon.
//!
//! Users of the pool: `FixedRatioSearch` (region tasks), the
//! `Orchestrator` (field tasks nesting region tasks), and the `fraz` CLI
//! (quality-search tasks side by side with a whole ratio application on
//! one budget) — see ARCHITECTURE.md's threading notes for the full map.
//!
//! # Example
//!
//! Scopes may borrow from the enclosing stack frame, exactly like
//! [`std::thread::scope`], and nest freely:
//!
//! ```
//! use fraz_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let inputs = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
//! let mut squares = vec![0u64; inputs.len()];
//! let pool = &pool;
//! pool.scope(|s| {
//!     for (out, &x) in squares.iter_mut().zip(&inputs) {
//!         s.spawn(move || {
//!             // A nested scope on the same pool is fine: the worker helps
//!             // run queued tasks while it waits.
//!             pool.scope(|inner| inner.spawn(|| *out = x * x));
//!         });
//!     }
//! });
//! assert_eq!(squares, vec![1, 4, 9, 16, 25, 36, 49, 64]);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A queued unit of work.  Lifetimes are erased on the way in
/// ([`Scope::spawn`]) and re-validated by the scope barrier on the way out:
/// `Pool::scope` never returns before every task it spawned has finished.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool identity, worker index)` of the current thread, if it is a
    /// pool worker.  The identity is the address of the pool's `Shared`
    /// allocation, which is stable for the pool's whole life.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// How long a parked worker sleeps before re-scanning the queues.  The
/// condvar protocol below makes lost wakeups impossible (pushes notify
/// while holding the parking lock, sleepers re-check every queue under
/// it), so this is purely a belt-and-braces bound on scheduling oddities;
/// it is long enough that an idle pool's wakeups are negligible (2/s per
/// worker).
const PARK_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a worker waiting for one of *its own* scopes sleeps between
/// checks once its local deque is empty.  Completion is condvar-notified,
/// and nothing can enter the local deque while the worker waits, so like
/// `PARK_TIMEOUT` this is only a safety net.
const HELP_TIMEOUT: Duration = Duration::from_millis(50);

/// State shared between the pool handle and its workers.
struct Shared {
    /// Global injector queue: tasks submitted from non-worker threads.
    /// Its mutex doubles as the parking lock for `wakeup`.
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker local deques: owner pushes/pops the back, thieves and
    /// the owner-after-local-miss pop the front.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Parked workers wait here (paired with the `injector` mutex).
    wakeup: Condvar,
    /// Set once, by `Pool::drop`.
    shutdown: AtomicBool,
}

impl Shared {
    /// The pool identity used to recognize worker threads.
    fn id(&self) -> usize {
        self as *const Shared as usize
    }

    /// The calling thread's worker index in *this* pool, if any.
    fn current_worker(&self) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((pool, index)) if pool == self.id() => Some(index),
            _ => None,
        })
    }

    /// Pop the next runnable task: own deque (LIFO), then the injector,
    /// then steal from the other workers (FIFO), scanning from the slot
    /// after ours so thieves spread out instead of mobbing worker 0.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(i) = me {
            if let Some(task) = lock(&self.locals[i]).pop_back() {
                return Some(task);
            }
        }
        if let Some(task) = lock(&self.injector).pop_front() {
            return Some(task);
        }
        let n = self.locals.len();
        let start = me.map_or(0, |i| i + 1);
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(task) = lock(&self.locals[victim]).pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// True if any queue holds a task.  Callers must hold the injector
    /// lock so the check pairs atomically with going to sleep.
    fn any_queued(&self, injector: &VecDeque<Task>) -> bool {
        !injector.is_empty() || self.locals.iter().any(|q| !lock(q).is_empty())
    }

    /// Enqueue a task: to the submitting worker's own deque when called
    /// from a pool thread; otherwise to the deque of the worker that
    /// *opened* the scope (`home`), so a scope opened on a worker can be
    /// fed from foreign threads and still be drained by its opener's
    /// helping loop; otherwise to the injector.  Always wakes a parked
    /// worker *while holding the injector lock*, which is what makes the
    /// sleep/wake handshake race-free.
    fn push(&self, home: Option<usize>, task: Task) {
        match self.current_worker().or(home) {
            Some(i) => {
                lock(&self.locals[i]).push_back(task);
                let _parking = lock(&self.injector);
                self.wakeup.notify_one();
            }
            None => {
                let mut injector = lock(&self.injector);
                injector.push_back(task);
                self.wakeup.notify_one();
            }
        }
    }
}

/// Lock a mutex, ignoring poisoning (tasks catch their own panics, so a
/// poisoned queue mutex can only mean a panic in this crate's own tiny
/// critical sections; the queues remain structurally valid either way).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.id(), index))));
    loop {
        if let Some(task) = shared.find_task(Some(index)) {
            task();
            continue;
        }
        let guard = lock(&shared.injector);
        if shared.shutdown.load(Ordering::Acquire) {
            // Queues are drained (the scan above came up empty and scopes
            // cannot outlive the pool), so it is safe to leave.
            break;
        }
        if shared.any_queued(&guard) {
            continue; // something arrived between the scan and the lock
        }
        let _ = shared.wakeup.wait_timeout(guard, PARK_TIMEOUT);
    }
}

/// Completion barrier for one scope.
#[derive(Default)]
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: AtomicUsize,
    /// Pairs with `done` for external waiters.
    sync: Mutex<()>,
    done: Condvar,
    /// First panic payload observed in a spawned task.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Mark one task finished, waking waiters when it was the last.
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = lock(&self.sync);
            self.done.notify_all();
        }
    }

    /// Block (no helping) until every spawned task has finished.  Used by
    /// threads that are not workers of the pool.
    fn wait_external(&self) {
        let mut guard = lock(&self.sync);
        while self.pending.load(Ordering::Acquire) != 0 {
            guard = self
                .done
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Wait as a pool worker: keep executing tasks from **our own local
    /// deque** until the scope drains.  This is what makes nested scopes
    /// on one pool deadlock-free even with a single worker: everything
    /// this scope spawned from this thread sits in our deque (or was
    /// already stolen by a worker that will finish it), so draining our
    /// deque always makes progress on our own scope.
    ///
    /// Deliberately *no* stealing of foreign work here: a waiting scope
    /// that picked up an unrelated task (say, a whole other field's
    /// series) could not close until that task finished, which would
    /// corrupt per-field/search `elapsed` timings — the paper's §VI-B3
    /// "longest field" metric — with stolen work.  If our sub-tasks were
    /// all stolen, we briefly park instead; other threads never push into
    /// our deque, so only scope completion can change our state.
    fn wait_helping(&self, shared: &Shared, me: usize) {
        while self.pending.load(Ordering::Acquire) != 0 {
            // Pop as a statement so the deque guard drops before the task
            // runs (the task may push new spawns onto this same deque).
            let task = lock(&shared.locals[me]).pop_back();
            if let Some(task) = task {
                task();
                continue;
            }
            let guard = lock(&self.sync);
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            // Completion is notified through `done`; the timeout is only a
            // belt-and-braces re-scan.
            let _ = self.done.wait_timeout(guard, HELP_TIMEOUT);
        }
    }
}

/// A scope handle passed to the closure of [`Pool::scope`].
///
/// Tasks spawned on a scope may borrow anything that outlives the
/// `Pool::scope` call, exactly like [`std::thread::scope`]; the scope does
/// not end until every task has run to completion.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// The worker that opened the scope, if any.  Spawns coming from
    /// threads outside the pool are routed to this worker's deque so the
    /// opener's helping loop can always drain its own scope — without
    /// this, a `Scope` handed to a foreign thread (it is `Send + Sync`)
    /// would feed the injector, which helping loops deliberately do not
    /// touch, and the scope could never close.
    home: Option<usize>,
    /// Invariant in `'scope`, as for `std::thread::Scope`: covariance
    /// would let a scope be coerced to a shorter lifetime and accept
    /// borrows that die before its tasks do.
    marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Submit `task` to the pool.  It may run on any worker, at any time
    /// before the enclosing [`Pool::scope`] call returns.
    ///
    /// Panics inside `task` are caught and re-thrown from `Pool::scope`
    /// after the whole scope has drained (first panic wins), so one
    /// region's failure cannot leave sibling borrows dangling.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                state.record_panic(payload);
            }
            state.complete_one();
        });
        // SAFETY: the queues require 'static tasks, but `Pool::scope`
        // blocks until `pending` reaches zero before returning — even when
        // its closure panics — so every borrow captured by `wrapped`
        // (lifetime 'scope) strictly outlives the task's execution.  This
        // is the same lifetime-erasure-behind-a-barrier argument as
        // `std::thread::scope` / rayon's `Scope`.
        let erased: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(wrapped) };
        self.shared.push(self.home, erased);
    }
}

/// A fixed-size work-stealing thread pool with scoped, nestable spawns.
///
/// Workers are spawned once, in [`Pool::new`]; running any number of
/// scopes afterwards creates **zero** OS threads.  Dropping the pool joins
/// all workers.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Workers requested but never spawned (thread exhaustion at `new`).
    failed_workers: usize,
}

impl Pool {
    /// Create a pool with `threads` workers; `0` means one per available
    /// hardware thread.
    ///
    /// Worker-spawn failure (thread exhaustion under load) degrades instead
    /// of aborting: the pool runs with the workers that did spawn and
    /// reports the shortfall via [`Pool::failed_workers`].  Even a pool
    /// whose *every* spawn failed stays usable — [`Pool::scope`] then runs
    /// its tasks inline on the calling thread.
    pub fn new(threads: usize) -> Self {
        Self::new_with_spawner(threads, |index, shared| {
            std::thread::Builder::new()
                .name(format!("fraz-pool-{index}"))
                .spawn(move || worker_loop(shared, index))
        })
    }

    fn new_with_spawner(
        threads: usize,
        mut spawn: impl FnMut(usize, Arc<Shared>) -> std::io::Result<JoinHandle<()>>,
    ) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(threads);
        let mut failed_workers = 0usize;
        for index in 0..threads {
            // Indices must stay aligned with `locals`, so a failed slot is
            // skipped, not re-numbered; its (empty) deque is scanned by
            // thieves but never fed — `push` only routes to live workers.
            match spawn(index, Arc::clone(&shared)) {
                Ok(handle) => handles.push(handle),
                Err(_) => failed_workers += 1,
            }
        }
        Self {
            shared,
            handles,
            failed_workers,
        }
    }

    /// Number of live worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Number of requested workers that could not be spawned (thread
    /// exhaustion).  Non-zero means the pool is running degraded; daemons
    /// should surface this as a warning.
    pub fn failed_workers(&self) -> usize {
        self.failed_workers
    }

    /// True when the calling thread is one of this pool's workers — i.e.
    /// a `scope` opened here would be re-entrant.
    pub fn is_worker_thread(&self) -> bool {
        self.shared.current_worker().is_some()
    }

    /// Run `op` with a [`Scope`] on which tasks can be spawned, and block
    /// until **all** of them have completed.
    ///
    /// May be called from any thread.  On a non-worker thread the caller
    /// parks while the workers drain the scope; on a worker thread (a
    /// nested scope) the caller *helps*, executing queued tasks itself, so
    /// re-entrant use neither deadlocks nor idles a core.
    ///
    /// If `op` or any spawned task panics, the panic is re-thrown here —
    /// but only after every task of the scope has finished, preserving the
    /// borrow-safety barrier.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            home: self.shared.current_worker(),
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState::default()),
            marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // The barrier must hold even when `op` itself panicked: tasks it
        // already spawned still borrow `'scope` data.
        match self.shared.current_worker() {
            Some(me) => scope.state.wait_helping(&self.shared, me),
            None if self.handles.is_empty() => {
                // Fully-degraded pool (every worker spawn failed): nobody
                // else will ever drain the queues, so run the scope's tasks
                // inline here.  Spawns from this thread land in the injector
                // (it is not a worker), so `find_task` always sees them.
                while scope.state.pending.load(Ordering::Acquire) != 0 {
                    match self.shared.find_task(None) {
                        Some(task) => task(),
                        None => std::thread::yield_now(),
                    }
                }
            }
            None => scope.state.wait_external(),
        }
        let task_panic = lock(&scope.state.panic).take();
        match result {
            Err(op_panic) => resume_unwind(op_panic),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _parking = lock(&self.shared.injector);
            self.shared.wakeup.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide shared pool, sized to the machine's available
/// parallelism and created on first use.
///
/// [`FixedRatioSearch`](https://docs.rs/fraz-core) instances that were not
/// given an explicit pool run their region tasks here, so standalone
/// searches never re-spawn OS threads per call either.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_and_borrows_stack_data() {
        let pool = Pool::new(3);
        let inputs: Vec<u64> = (0..64).collect();
        let mut outputs = vec![0u64; inputs.len()];
        pool.scope(|s| {
            for (out, &x) in outputs.iter_mut().zip(&inputs) {
                s.spawn(move || *out = x + 1);
            }
        });
        assert!(outputs.iter().zip(&inputs).all(|(o, i)| *o == i + 1));
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = Pool::new(2);
        let value = pool.scope(|_| 41) + 1;
        assert_eq!(value, 42);
    }

    #[test]
    fn nested_scopes_on_a_single_worker_cannot_deadlock() {
        // The canary for the re-entrant guarantee: with ONE worker, a task
        // that opens an inner scope can only finish if the worker executes
        // the inner tasks itself while waiting.
        let pool = Pool::new(1);
        let mut result = 0u64;
        pool.scope(|outer| {
            outer.spawn(|| {
                let mut partial = [0u64; 4];
                pool.scope(|inner| {
                    for (i, slot) in partial.iter_mut().enumerate() {
                        inner.spawn(move || *slot = (i as u64 + 1) * 10);
                    }
                });
                result = partial.iter().sum();
            });
        });
        assert_eq!(result, 100);
    }

    #[test]
    fn deeply_nested_scopes_complete() {
        let pool = Pool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|a| {
            for _ in 0..4 {
                a.spawn(|| {
                    pool.scope(|b| {
                        for _ in 0..4 {
                            b.spawn(|| {
                                pool.scope(|c| {
                                    for _ in 0..4 {
                                        c.spawn(|| {
                                            counter.fetch_add(1, Ordering::Relaxed);
                                        });
                                    }
                                });
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_scopes_from_many_external_threads() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        std::thread::scope(|threads| {
            for _ in 0..6 {
                threads.spawn(|| {
                    for _ in 0..10 {
                        let mut acc = 0u64;
                        pool.scope(|s| {
                            let acc = &mut acc;
                            s.spawn(move || *acc += 7);
                        });
                        total.fetch_add(acc, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 10 * 7);
    }

    #[test]
    fn task_panic_propagates_after_the_scope_drains() {
        let pool = Pool::new(2);
        let finished = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(outcome.is_err(), "the task panic must re-throw");
        // The barrier held: every sibling ran to completion first.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
        // And the pool survives for the next scope.
        let mut ok = false;
        pool.scope(|s| s.spawn(|| ok = true));
        assert!(ok);
    }

    #[test]
    fn foreign_threads_can_feed_a_worker_opened_scope() {
        // A Scope is Send + Sync, so a task may hand it to threads outside
        // the pool.  Their spawns are routed to the opening worker's deque
        // (not the injector), so the opener's helping loop can drain the
        // scope — with ONE worker this would otherwise hang forever.
        let pool = Pool::new(1);
        let hits = AtomicU64::new(0);
        pool.scope(|outer| {
            outer.spawn(|| {
                pool.scope(|inner| {
                    std::thread::scope(|threads| {
                        for _ in 0..3 {
                            threads.spawn(|| {
                                for _ in 0..5 {
                                    inner.spawn(|| {
                                        hits.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        }
                    });
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn worker_identity_is_visible_inside_tasks() {
        let pool = Pool::new(2);
        let other = Pool::new(1);
        assert!(!pool.is_worker_thread());
        let mut seen = (false, false);
        pool.scope(|s| {
            let seen = &mut seen;
            s.spawn(|| *seen = (pool.is_worker_thread(), other.is_worker_thread()));
        });
        assert_eq!(seen, (true, false), "workers belong to exactly one pool");
    }

    #[test]
    fn zero_thread_request_falls_back_to_available_parallelism() {
        let pool = Pool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn partial_spawn_failure_degrades_and_still_completes_scopes() {
        let refuse = |index: usize| index % 2 == 1;
        let pool = Pool::new_with_spawner(4, |index, shared| {
            if refuse(index) {
                Err(std::io::Error::other("thread limit reached"))
            } else {
                std::thread::Builder::new().spawn(move || worker_loop(shared, index))
            }
        });
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.failed_workers(), 2);
        let mut outputs = vec![0u64; 32];
        pool.scope(|s| {
            for (i, out) in outputs.iter_mut().enumerate() {
                s.spawn(move || *out = i as u64 * 3);
            }
        });
        assert!(outputs.iter().enumerate().all(|(i, o)| *o == i as u64 * 3));
    }

    #[test]
    fn total_spawn_failure_runs_scopes_inline() {
        // Thread exhaustion at its worst: zero workers.  Scopes must still
        // complete (inline on the caller), including nested spawns.
        let pool = Pool::new_with_spawner(3, |_, _| Err(std::io::Error::other("no threads left")));
        assert_eq!(pool.threads(), 0);
        assert_eq!(pool.failed_workers(), 3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    pool.scope(|inner| {
                        inner.spawn(|| {
                            counter.fetch_add(10, Ordering::Relaxed);
                        });
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 88);
        drop(pool); // joins nothing, must not hang
    }

    #[test]
    fn healthy_pool_reports_zero_failed_workers() {
        let pool = Pool::new(2);
        assert_eq!(pool.failed_workers(), 0);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = Pool::new(3);
        let mut hits = [false; 16];
        pool.scope(|s| {
            for slot in hits.iter_mut() {
                s.spawn(move || *slot = true);
            }
        });
        drop(pool); // must not hang
        assert!(hits.iter().all(|h| *h));
    }
}
