//! A long-lived, supervised worker pool.
//!
//! `oasys serve` answers every request on one of these: a fixed set of
//! threads for the life of the server, a `Mutex` + `Condvar` job queue,
//! and parked workers that wake only when work arrives — no thread
//! spawn per request.
//!
//! # Scoped, borrow-safe jobs
//!
//! Callers hand their closures references into the calling stack frame
//! (the server's shared state and cache). [`Pool::scope`] keeps that
//! working: like [`std::thread::scope`], jobs spawned inside
//! the scope may borrow anything that outlives it, because the scope
//! does not return until every spawned job has finished — even when the
//! scope body panics. Internally the job closure's lifetime is erased to
//! `'static` before it enters the shared queue; the scope's completion
//! barrier is what makes that sound.
//!
//! # Helping joins
//!
//! [`JobHandle::join`] and the scope's exit barrier do not merely block:
//! while their job is still pending they pop *other* queued jobs and run
//! them inline. Two consequences:
//!
//! * **No deadlocks under nesting.** A job running on a pool worker may
//!   itself open a scope and spawn onto the same pool; its joins execute
//!   those jobs inline if no other worker is free.
//! * **Zero workers is valid.** A `Pool::new(0)` spawns no threads at
//!   all and every job runs inline on the joining thread — same
//!   results, no context switches, no spawn tax.
//!
//! # Panics
//!
//! A job that panics stores its payload; [`JobHandle::join`] re-raises
//! it via [`std::panic::resume_unwind`], preserving the original payload
//! (fault-injection suites assert on it). A panic from a job whose
//! handle was dropped re-raises when the scope exits, matching
//! [`std::thread::scope`] semantics.
//!
//! # Supervision
//!
//! Worker threads are supervised: a panic that escapes the job loop —
//! in practice only the `pool.worker.panic` fault-injection site, since
//! jobs are individually panic-wrapped — kills the thread, and the
//! dying worker records the death and spawns its own replacement with
//! capped exponential backoff. [`Pool::workers_replaced`] exposes the
//! death count so services can report pool health. The fail point sits
//! *between* jobs, so an injected death never loses queued work.

use std::any::Any;
use std::collections::VecDeque;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A queued unit of work, lifetime-erased (see [`Pool::scope`] for why
/// that is sound).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared pool state: the job queue and the condition variable parked
/// workers sleep on.
struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Workers respawned by supervision after a panic escaped
    /// [`worker_loop`]'s per-job catch (see [`run_worker`]).
    replaced: AtomicU64,
}

impl PoolInner {
    /// Pops one queued job, without blocking.
    fn try_pop(&self) -> Option<Job> {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

/// The worker pool: a fixed set of threads for the life of the process
/// that owns it.
pub struct Pool {
    inner: Arc<PoolInner>,
    workers: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool with exactly `workers` long-lived threads (zero is valid:
    /// jobs then run inline on whoever joins them). The threads are
    /// spawned eagerly, parked on the queue's condition variable, and
    /// never exit — intended for process-lifetime pools, not transient
    /// ones.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            replaced: AtomicU64::new(0),
        });
        for i in 0..workers {
            spawn_worker(Arc::clone(&inner), i, 0);
        }
        Self { inner, workers }
    }

    /// The number of worker threads this pool was built with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many workers the supervisor has replaced after a panic
    /// escaped the per-job catch (see `run_worker`). Zero on a
    /// healthy pool; chaos suites and the serve `health` op read this
    /// to prove a `pool.worker.panic` injection was survived.
    #[must_use]
    pub fn workers_replaced(&self) -> u64 {
        self.inner.replaced.load(Ordering::Relaxed)
    }

    /// Pops one queued job and runs it on the calling thread. Returns
    /// `false` when the queue was empty. This is the "helping" primitive
    /// behind joins and the scope barrier: queued work always makes
    /// progress, even with zero workers.
    fn try_help(&self) -> bool {
        match self.inner.try_pop() {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    fn submit(&self, job: Job) {
        self.inner
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(job);
        self.inner.available.notify_one();
    }

    /// Opens a scope in which jobs may borrow from the enclosing stack
    /// frame, exactly like [`std::thread::scope`]. All jobs spawned via
    /// [`Scope::spawn`] are guaranteed to have finished when `scope`
    /// returns — including when `f` panics, in which case the scope
    /// still drains before re-raising.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f`, or from a spawned job whose handle
    /// was dropped without [`JobHandle::join`].
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let shared = Arc::new(ScopeShared::new());
        let scope = Scope {
            pool: self,
            shared: Arc::clone(&shared),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The completion barrier that makes the lifetime erasure in
        // `spawn` sound: no borrow held by a job can dangle, because
        // nothing below this line runs until every job has finished.
        shared.wait_idle(self);
        match result {
            Ok(value) => {
                if let Some(payload) = shared.take_panic() {
                    resume_unwind(payload);
                }
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// First respawn delay after a worker death; doubles per consecutive
/// death of the same worker slot, capped at [`RESPAWN_BACKOFF_CAP_MS`].
const RESPAWN_BACKOFF_BASE_MS: u64 = 5;
/// Ceiling on the respawn backoff, so a crash-looping fault (every
/// replacement dies at startup) costs at most ~4 respawns per second
/// per slot instead of a hot spawn loop.
const RESPAWN_BACKOFF_CAP_MS: u64 = 250;

/// Spawns the supervised worker thread for slot `index`. A failed
/// spawn (resource exhaustion) degrades capacity but not correctness:
/// helping joins run the jobs inline.
fn spawn_worker(inner: Arc<PoolInner>, index: usize, deaths: u32) {
    let _ = std::thread::Builder::new()
        .name(format!("oasys-pool-{index}"))
        .spawn(move || run_worker(&inner, index, deaths));
}

/// The supervised worker body: back off (if this slot has died
/// before), run the job loop, and on a panic escaping the loop record
/// the death and respawn a replacement for the same slot. `deaths` is
/// the slot's lineage depth, driving the exponential backoff.
fn run_worker(inner: &Arc<PoolInner>, index: usize, deaths: u32) {
    if deaths > 0 {
        let shift = (deaths - 1).min(6);
        let backoff = (RESPAWN_BACKOFF_BASE_MS << shift).min(RESPAWN_BACKOFF_CAP_MS);
        std::thread::sleep(std::time::Duration::from_millis(backoff));
    }
    if catch_unwind(AssertUnwindSafe(|| worker_loop(inner))).is_err() {
        inner.replaced.fetch_add(1, Ordering::Relaxed);
        spawn_worker(Arc::clone(inner), index, deaths + 1);
    }
}

/// Runs jobs forever; parks on the condition variable when the queue is
/// empty. Job closures are panic-wrapped by `spawn`, but a stray unwind
/// must still not take the worker down, so the loop catches and drops —
/// and if one ever escapes anyway (or the `pool.worker.panic` fault
/// injects one), [`run_worker`]'s supervisor replaces the thread.
fn worker_loop(inner: &PoolInner) {
    loop {
        // Supervision fail point: evaluated between jobs, never while
        // one is held, so an injected death can lose no queued work.
        if oasys_faults::armed() {
            if let Some(msg) = oasys_faults::eval_err("pool.worker.panic") {
                panic!("injected worker death: {msg}");
            }
        }
        let job = {
            let mut queue = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Per-scope completion tracking: the number of spawned-but-unfinished
/// jobs, and the first panic payload from a job whose handle was
/// dropped without joining.
struct ScopeShared {
    running: Mutex<usize>,
    idle: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeShared {
    fn new() -> Self {
        Self {
            running: Mutex::new(0),
            idle: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn start_one(&self) {
        *self.running.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }

    fn finish_one(&self) {
        let mut running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
        *running = running.saturating_sub(1);
        if *running == 0 {
            self.idle.notify_all();
        }
    }

    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Blocks until every job of this scope has finished, helping with
    /// queued work (this scope's or anyone's) instead of just sleeping.
    fn wait_idle(&self, pool: &Pool) {
        loop {
            {
                let running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
                if *running == 0 {
                    return;
                }
            }
            if pool.try_help() {
                continue;
            }
            // Queue empty but jobs still running on other threads: park
            // on the idle condvar; `finish_one` wakes us. Re-checking
            // under the lock closes the race with a finish between the
            // check above and this wait.
            let mut running = self.running.lock().unwrap_or_else(PoisonError::into_inner);
            while *running > 0 {
                running = self
                    .idle
                    .wait(running)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            return;
        }
    }
}

/// A scope handle, passed to the closure given to [`Pool::scope`].
/// `'env` is the lifetime of borrows captured by spawned jobs.
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    shared: Arc<ScopeShared>,
    /// Invariant over `'env`, like [`std::thread::scope`]'s marker —
    /// keeps the borrow checker from shrinking `'env` under us.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

/// Where a spawned job's outcome lives until someone takes it.
enum JobState<T> {
    /// Not finished yet.
    Pending,
    /// Finished; `Err` carries a panic payload.
    Done(Result<T, Box<dyn Any + Send>>),
    /// Finished and the outcome was consumed (joined, or routed to the
    /// scope's panic slot after the handle was dropped).
    Taken,
    /// The handle was dropped while the job was still pending: on
    /// completion, a panic payload goes to the scope, a value is
    /// discarded.
    Abandoned,
}

/// The rendezvous cell between a job and its handle.
struct Packet<T> {
    state: Mutex<JobState<T>>,
    done: Condvar,
}

impl<'env> Scope<'_, 'env> {
    /// Queues `f` on the pool and returns a handle to its result. The
    /// closure may borrow anything that outlives the scope.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<'_, T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let packet = Arc::new(Packet {
            state: Mutex::new(JobState::Pending),
            done: Condvar::new(),
        });
        let shared = Arc::clone(&self.shared);
        shared.start_one();
        let job_packet = Arc::clone(&packet);
        let job_shared = Arc::clone(&self.shared);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            {
                let mut state = job_packet
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if matches!(*state, JobState::Abandoned) {
                    if let Err(payload) = result {
                        job_shared.store_panic(payload);
                    }
                    *state = JobState::Taken;
                } else {
                    *state = JobState::Done(result);
                }
            }
            job_packet.done.notify_all();
            // Last: the scope's exit barrier must not lift before the
            // packet is written.
            job_shared.finish_one();
        });
        // SAFETY: the only thing shortened here is the closure's
        // lifetime bound. The closure (and every borrow it captures)
        // is guaranteed to be finished — not merely dropped — before
        // `'env` can end, because `Pool::scope` blocks on
        // `ScopeShared::wait_idle` until `running == 0`, and
        // `finish_one` runs strictly after the closure returns.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.submit(job);
        JobHandle {
            pool: self.pool,
            shared,
            packet: ManuallyDrop::new(packet),
        }
    }
}

/// A handle to one spawned job. [`JobHandle::join`] blocks (helping the
/// pool) until the job finishes and returns its value, re-raising the
/// job's panic if it had one. Dropping the handle detaches the job; the
/// scope still waits for it, and a panic then surfaces at scope exit.
pub struct JobHandle<'pool, T> {
    pool: &'pool Pool,
    shared: Arc<ScopeShared>,
    packet: ManuallyDrop<Arc<Packet<T>>>,
}

impl<T> std::fmt::Debug for JobHandle<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").finish_non_exhaustive()
    }
}

impl<T> JobHandle<'_, T> {
    /// Waits for the job and returns its value. While the job is
    /// pending this thread runs other queued jobs ("helping"), which is
    /// what makes nested scopes and zero-worker pools deadlock-free.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic with its original payload.
    pub fn join(self) -> T {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `this` is ManuallyDrop — the Drop impl (which would
        // mark the packet abandoned) never runs, and the Arc is moved
        // out exactly once.
        let packet = unsafe { ManuallyDrop::take(&mut this.packet) };
        loop {
            {
                let mut state = packet.state.lock().unwrap_or_else(PoisonError::into_inner);
                if matches!(*state, JobState::Done(_)) {
                    if let JobState::Done(result) = std::mem::replace(&mut *state, JobState::Taken)
                    {
                        drop(state);
                        match result {
                            Ok(value) => return value,
                            Err(payload) => resume_unwind(payload),
                        }
                    }
                }
            }
            if this.pool.try_help() {
                continue;
            }
            // Nothing left to help with: the job is running on another
            // thread. Park on the packet until it finishes.
            let mut state = packet.state.lock().unwrap_or_else(PoisonError::into_inner);
            while matches!(*state, JobState::Pending) {
                state = packet
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

impl<T> Drop for JobHandle<'_, T> {
    fn drop(&mut self) {
        // SAFETY: drop runs at most once, and `join` (the only other
        // taker) wraps `self` in ManuallyDrop so this never runs there.
        let packet = unsafe { ManuallyDrop::take(&mut self.packet) };
        let mut state = packet.state.lock().unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *state, JobState::Abandoned) {
            // Completed with a panic and never joined: surface it at
            // scope exit, like std::thread::scope does.
            JobState::Done(Err(payload)) => {
                *state = JobState::Taken;
                self.shared.store_panic(payload);
            }
            JobState::Done(Ok(_)) | JobState::Taken => *state = JobState::Taken,
            JobState::Pending | JobState::Abandoned => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_borrow_the_callers_stack() {
        let pool = Pool::new(2);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let (left, right) = data.split_at(4);
        let total = pool.scope(|s| {
            let a = s.spawn(|| left.iter().sum::<u64>());
            let b = s.spawn(|| right.iter().sum::<u64>());
            a.join() + b.join()
        });
        assert_eq!(total, 36);
    }

    #[test]
    fn zero_workers_run_inline_via_helping_join() {
        let pool = Pool::new(0);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn join_returns_values_in_spawn_order() {
        let pool = Pool::new(3);
        let results = pool.scope(|s| {
            let handles: Vec<_> = (0..32).map(|i| s.spawn(move || i * 2)).collect();
            handles.into_iter().map(JobHandle::join).collect::<Vec<_>>()
        });
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panic_payload_survives_join() {
        let pool = Pool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("injected: kaboom")).join())
        }))
        .unwrap_err();
        let text = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| caught.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(text.contains("injected: kaboom"), "{text}");
    }

    #[test]
    fn dropped_handle_panic_surfaces_at_scope_exit() {
        let pool = Pool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                drop(s.spawn(|| panic!("unjoined panic")));
            });
        }));
        assert!(caught.is_err(), "scope exit must re-raise the panic");
    }

    #[test]
    fn scope_waits_for_unjoined_jobs() {
        let pool = Pool::new(2);
        let done = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                drop(s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    done.fetch_add(1, Ordering::Relaxed);
                }));
            }
        });
        // If the barrier were broken this would race; the scope contract
        // says all jobs finished before `scope` returned.
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // 1 worker + nesting would deadlock without helping joins: the
        // outer job occupies the only worker while its inner jobs queue.
        let pool = Pool::new(1);
        let total = pool.scope(|s| {
            let outer = s.spawn(|| {
                pool.scope(|inner| {
                    let a = inner.spawn(|| 20u64);
                    let b = inner.spawn(|| 22u64);
                    a.join() + b.join()
                })
            });
            outer.join()
        });
        assert_eq!(total, 42);
    }

    #[test]
    fn panicked_workers_are_replaced_and_jobs_still_complete() {
        // Every loop-top hit dies while armed (p = 1.0), so this test
        // cannot race other pools in the process for a single one-shot
        // hit: this pool's own workers deterministically die at
        // startup and are counted by its own supervisor.
        oasys_faults::set(
            "pool.worker.panic",
            oasys_faults::FaultSpec::FailRate { p: 1.0, seed: 7 },
        );
        let pool = Pool::new(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.workers_replaced() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "supervisor never replaced the injected worker deaths"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        oasys_faults::remove("pool.worker.panic");
        // Replacements outlive the cleared fault; queued work completes
        // on them (or via helping joins) with nothing lost.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
        assert!(pool.workers_replaced() >= 2);
    }

    #[test]
    fn many_concurrent_scopes_make_progress() {
        let pool = Arc::new(Pool::new(2));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut acc = 0u64;
                    for round in 0..50 {
                        acc += pool.scope(|s| {
                            let h = s.spawn(move || t + round);
                            h.join()
                        });
                    }
                    acc
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
