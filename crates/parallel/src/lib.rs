//! # mmhand-parallel
//!
//! A small, dependency-free scoped fork-join thread pool shared by every
//! hot path in the workspace: the GEMM/conv kernels in `mmhand-nn`; in
//! `mmhand-core`, a window's frames (one cube build each) and its segments
//! (one mmSpaceNet pass each), a session's segments in dataset set-up, and
//! the trainer's shards; the frames pushed since a serve step, a
//! micro-batch's jobs and the shards in `mmhand-serve`; and the concurrent
//! experiment runner in `mmhand-bench`.
//! A single frame's cube stages run inline: each is far too small to pay
//! for a fork-join.
//!
//! Design points:
//!
//! * **Persistent workers.** One global pool is spawned lazily; tasks are
//!   `Box<dyn FnOnce>` pushed onto a shared injector queue. No per-call
//!   thread spawning, so even kernels called thousands of times per
//!   training step can use it.
//! * **Scoped spawning.** [`scope`] lets tasks borrow from the caller's
//!   stack (like `std::thread::scope`), and does not return until every
//!   spawned task has finished — including when the scope body panics.
//! * **Nesting without deadlock.** A thread waiting on its scope *helps*:
//!   it pops and runs queued tasks instead of blocking, so a worker whose
//!   task opens a nested scope (e.g. a live window's segment task calling
//!   a parallel GEMM) can never starve the pool.
//! * **One level where the outer one fills the lanes.** A fan-out whose
//!   equal-sized tasks fill the pool runs each under [`with_thread_cap`]
//!   at `lanes / tasks` (at least 1), so the helpers beneath it run
//!   inline and never pop a sibling's whole task. The trainer's shards and
//!   serve's shard steps do this: on 2 lanes, a step's shards are the only
//!   pool tasks.
//! * **Thread count from `MMHAND_THREADS`.** Unset ⇒
//!   `std::thread::available_parallelism()`. `MMHAND_THREADS=1` (or a
//!   1-CPU machine) makes every helper run inline on the caller — the
//!   sequential fallback adds no queueing or synchronisation.
//! * **Determinism is structural, not accidental.** [`par_map`] returns
//!   results in input order and [`par_chunks_mut`] hands out disjoint
//!   chunks with their index; callers that reduce in chunk order get the
//!   same floating-point result at any thread count.
//!
//! # Examples
//!
//! ```
//! let squares = mmhand_parallel::par_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let mut data = vec![0u32; 8];
//! mmhand_parallel::par_chunks_mut(&mut data, 2, |chunk_idx, chunk| {
//!     for v in chunk.iter_mut() {
//!         *v = chunk_idx as u32;
//!     }
//! });
//! assert_eq!(data, vec![0, 0, 1, 1, 2, 2, 3, 3]);
//! ```

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod scratch;

pub use scratch::ScratchPool;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send>;

/// Pool-wide telemetry handles, resolved once. Queue depth is sampled at
/// push/pop; task counts and busy time are recorded at the execution sites
/// (worker loop, scope help-loop, inline path).
struct PoolMetrics {
    tasks_spawned: mmhand_telemetry::Counter,
    tasks_executed: mmhand_telemetry::Counter,
    inline_tasks: mmhand_telemetry::Counter,
    queue_depth: mmhand_telemetry::Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        tasks_spawned: mmhand_telemetry::counter("parallel.tasks_spawned"),
        tasks_executed: mmhand_telemetry::counter("parallel.tasks_executed"),
        inline_tasks: mmhand_telemetry::counter("parallel.inline_tasks"),
        queue_depth: mmhand_telemetry::gauge("parallel.queue_depth"),
    })
}

struct Injector {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

impl Injector {
    fn push(&self, task: Task) {
        let depth = {
            let mut queue = self.queue.lock().expect("injector queue");
            queue.push_back(task);
            queue.len()
        };
        self.ready.notify_one();
        let m = pool_metrics();
        m.tasks_spawned.inc();
        m.queue_depth.set(depth as f64);
    }

    fn try_pop(&self) -> Option<Task> {
        let (task, depth) = {
            let mut queue = self.queue.lock().expect("injector queue");
            let task = queue.pop_front();
            (task, queue.len())
        };
        if task.is_some() {
            pool_metrics().queue_depth.set(depth as f64);
        }
        task
    }
}

/// A fork-join pool with persistent worker threads.
///
/// Most code should use the free functions ([`par_map`], [`par_chunks_mut`],
/// [`scope`]) which share one process-global pool; constructing private
/// pools is mainly useful in tests.
pub struct ThreadPool {
    injector: Arc<Injector>,
    /// Total execution width including the caller thread (workers + 1).
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool of `threads` execution lanes. One lane is the calling
    /// thread itself (it helps while waiting on scopes), so `threads - 1`
    /// worker threads are spawned; `threads <= 1` spawns none.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        for i in 0..threads - 1 {
            let inj = Arc::clone(&injector);
            std::thread::Builder::new()
                .name(format!("mmhand-worker-{i}"))
                .spawn(move || worker_loop(&inj, i))
                .expect("spawn pool worker");
        }
        ThreadPool { injector, threads }
    }

    /// Execution width of the pool (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] for spawning borrowed tasks, returning
    /// only after every spawned task has completed.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from the scope body or any spawned task
    /// (after all tasks have finished).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));

        // Wait for spawned tasks, helping with queued work meanwhile. This
        // runs even when the body panicked: borrowed tasks must finish
        // before the borrow expires.
        while state.pending.load(Ordering::Acquire) > 0 {
            if let Some(task) = self.injector.try_pop() {
                task();
                pool_metrics().tasks_executed.inc();
            } else {
                let guard = state.done.lock().expect("scope done lock");
                if state.pending.load(Ordering::Acquire) > 0 {
                    // Timed wait: the task we would wait for may be popped
                    // and executed by a thread parked in a different scope,
                    // so a lost-wakeup-free timeout keeps this robust.
                    let _ = state
                        .done_cv
                        .wait_timeout(guard, Duration::from_millis(1))
                        .expect("scope done wait");
                }
            }
        }

        if let Some(payload) = state.panic.lock().expect("scope panic lock").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

fn worker_loop(injector: &Injector, index: usize) {
    let metrics = pool_metrics();
    // Per-worker handles: tasks run and cumulative busy time, the inputs to
    // a per-worker utilization view (busy time over pool uptime).
    let worker_tasks = mmhand_telemetry::counter(&format!("parallel.worker.{index}.tasks"));
    let worker_busy_us = mmhand_telemetry::counter(&format!("parallel.worker.{index}.busy_us"));
    loop {
        let (task, depth) = {
            let mut queue = injector.queue.lock().expect("injector queue");
            loop {
                if let Some(t) = queue.pop_front() {
                    break (t, queue.len());
                }
                queue = injector.ready.wait(queue).expect("injector wait");
            }
        };
        metrics.queue_depth.set(depth as f64);
        if mmhand_telemetry::enabled() {
            let start_ns = mmhand_telemetry::now_ns();
            task();
            let elapsed_ns = mmhand_telemetry::now_ns().saturating_sub(start_ns);
            worker_busy_us.add(elapsed_ns / 1_000);
        } else {
            task();
        }
        metrics.tasks_executed.inc();
        worker_tasks.inc();
    }
}

struct ScopeState {
    pending: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Spawning handle passed to the closure of [`ThreadPool::scope`] /
/// [`scope`]. Tasks may borrow anything that outlives the scope call.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawns `task` onto the pool. With a single-lane pool (or inside
    /// [`sequential_scope`]) the task runs inline on the caller.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.threads <= 1 || in_sequential_scope() || thread_cap() <= 1 {
            task();
            pool_metrics().inline_tasks.inc();
            return;
        }
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        // Carry the spawning thread's cap into the worker so nested
        // helpers (a GEMM inside a trainer shard) observe the same
        // effective width no matter which thread runs the task.
        let cap = thread_cap();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _cap = set_cap(cap);
                task()
            }));
            if let Err(payload) = result {
                let mut slot = state.panic.lock().expect("scope panic lock");
                slot.get_or_insert(payload);
            }
            // Hold the lock while decrementing so the waiter's check-then-
            // wait in `scope` cannot miss the final notification.
            let _guard = state.done.lock().expect("scope done lock");
            state.pending.fetch_sub(1, Ordering::AcqRel);
            state.done_cv.notify_all();
        });
        // SAFETY: this transmute erases the `'env` lifetime of the boxed
        // task so it can pass through the `'static` injector queue. It is
        // sound because the scope API upholds these invariants:
        //
        // * Lifetime: `scope` does not return — on the normal path *or*
        //   when the body panics (the wait loop runs before `resume_unwind`)
        //   — until `pending` reaches zero, and `pending` is decremented
        //   only after the job has run to completion. Every `'env` borrow
        //   captured by the job therefore ends before its referent can be
        //   dropped or moved.
        // * Ordering: the decrement uses `AcqRel` and the waiter re-checks
        //   `pending` with `Acquire` while holding `done`, the same lock the
        //   job takes before decrementing, so the waiter cannot observe
        //   zero before the job's writes to borrowed data are visible.
        // * Aliasing: the transmute changes only the lifetime parameter,
        //   never the pointee type, and spawning requires `F: Send`, so any
        //   `&mut` the job captures was exclusive at spawn time and stays
        //   exclusive — callers hand out disjoint `&mut` chunks (e.g.
        //   `par_chunks_mut` via `chunks_mut`), and the caller thread does
        //   not touch the borrowed data until `scope` returns.
        // * No escape: the queue and worker loop run each `Task` exactly
        //   once and never clone or leak it, so the erased-lifetime box
        //   cannot outlive the scope that spawned it.
        let job: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.injector.push(job);
    }
}

thread_local! {
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn in_sequential_scope() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get)
}

fn thread_cap() -> usize {
    THREAD_CAP.with(Cell::get)
}

/// Restores the previous cap when dropped, including during unwinding, so
/// a panicking task cannot leave a stale cap on a pool worker.
struct CapGuard(usize);

impl Drop for CapGuard {
    fn drop(&mut self) {
        THREAD_CAP.with(|c| c.set(self.0));
    }
}

fn set_cap(cap: usize) -> CapGuard {
    THREAD_CAP.with(|c| CapGuard(c.replace(cap)))
}

/// Runs `f` with [`num_threads`] capped at `cap` on this thread (and on any
/// task spawned from it, transitively). A cap of 1 forces the inline
/// sequential path, like [`sequential_scope`]; nested caps take the
/// minimum. This lets one process compare execution at several effective
/// widths — the scheduler audit trains at caps 1/2/4/8 and asserts
/// bitwise-identical gradients.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    let cap = cap.max(1);
    let _guard = set_cap(cap.min(thread_cap()));
    f()
}

/// Runs `f` with every parallel helper on this thread forced to the inline
/// sequential path — exactly what `MMHAND_THREADS=1` does process-wide.
/// Used by the determinism regression tests to compare one- and
/// many-thread execution inside a single process.
pub fn sequential_scope<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SEQUENTIAL.with(|flag| {
        let prev = flag.replace(true);
        let result = f();
        flag.set(prev);
        result
    })
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
static CONFIGURED: Mutex<Option<usize>> = Mutex::new(None);

/// Requests a specific width for the global pool. Must be called before the
/// pool is first used; returns `Err` with the existing width if it is
/// already running. Tests use this to guarantee a multi-thread pool on
/// single-core CI machines.
pub fn configure_threads(threads: usize) -> Result<(), usize> {
    if let Some(pool) = GLOBAL.get() {
        return if pool.threads() == threads.max(1) { Ok(()) } else { Err(pool.threads()) };
    }
    *CONFIGURED.lock().expect("configure lock") = Some(threads.max(1));
    // Materialise immediately so a racing first use cannot override.
    let got = global().threads();
    if got == threads.max(1) {
        Ok(())
    } else {
        Err(got)
    }
}

fn env_threads() -> usize {
    if let Ok(v) = std::env::var("MMHAND_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 256);
        }
        eprintln!("[mmhand-parallel] ignoring unparsable MMHAND_THREADS={v:?}");
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-global pool, created on first use.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let requested = CONFIGURED.lock().expect("configure lock").take();
        ThreadPool::new(requested.unwrap_or_else(env_threads))
    })
}

/// Effective execution width on this thread: the global pool's width,
/// clamped by any enclosing [`with_thread_cap`] (1 ⇒ everything runs
/// inline).
pub fn num_threads() -> usize {
    global().threads().min(thread_cap())
}

/// `true` when parallel helpers on this thread would run inline.
pub fn is_sequential() -> bool {
    num_threads() <= 1 || in_sequential_scope()
}

/// Scoped fork-join on the global pool; see [`ThreadPool::scope`].
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'_, 'env>) -> R,
{
    global().scope(f)
}

/// Applies `f` to every item, in parallel, returning results in input
/// order. Each item is one task, so use this for coarse work (a CV fold, a
/// user session, a sweep point) rather than per-element math.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() <= 1 || is_sequential() {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    scope(|s| {
        for (item, slot) in items.iter().zip(slots.iter_mut()) {
            let f = &f;
            s.spawn(move || {
                *slot = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map task completed"))
        .collect()
}

/// Splits `data` into consecutive chunks of `chunk_len` (the last may be
/// shorter) and runs `f(chunk_index, chunk)` on each in parallel. Chunks
/// are disjoint, so no synchronisation is needed inside `f`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    if data.len() <= chunk_len || is_sequential() {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    scope(|s| {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            s.spawn(move || f(idx, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..64).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        let mut data = vec![0u32; 103];
        par_chunks_mut(&mut data, 10, |idx, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 10 + i) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let outer: Vec<u64> = (0..8).collect();
        let sums = par_map(&outer, |&o| {
            let inner: Vec<u64> = (0..16).collect();
            par_map(&inner, |&i| o * 100 + i).iter().sum::<u64>()
        });
        for (o, s) in sums.iter().enumerate() {
            assert_eq!(*s, (0..16).map(|i| o as u64 * 100 + i).sum::<u64>());
        }
    }

    #[test]
    fn pool_records_task_telemetry() {
        let spawned = mmhand_telemetry::counter("parallel.tasks_spawned");
        let executed = mmhand_telemetry::counter("parallel.tasks_executed");
        let before_spawned = spawned.get();
        let before_executed = executed.get();
        // A private multi-lane pool guarantees the queued path even on a
        // single-CPU machine (the global pool would run inline there).
        let pool = ThreadPool::new(3);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        // Other tests run concurrently, so assert growth, not exact counts.
        assert!(spawned.get() >= before_spawned + 16, "spawn counter advanced");
        assert!(executed.get() >= before_executed + 16, "execute counter advanced");
    }

    #[test]
    fn scope_waits_for_all_tasks() {
        let counter = AtomicU32::new(0);
        scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn sequential_scope_forces_inline() {
        sequential_scope(|| {
            assert!(is_sequential());
            let tid = std::thread::current().id();
            let ids = par_map(&[0u8; 8], |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == tid));
        });
    }

    #[test]
    fn thread_cap_of_one_forces_inline() {
        let baseline = num_threads();
        with_thread_cap(1, || {
            assert_eq!(num_threads(), 1);
            assert!(is_sequential());
            let tid = std::thread::current().id();
            let ids = par_map(&[0u8; 8], |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == tid));
        });
        assert_eq!(num_threads(), baseline);
    }

    #[test]
    fn nested_caps_take_the_minimum() {
        with_thread_cap(4, || {
            assert!(num_threads() <= 4);
            with_thread_cap(2, || assert!(num_threads() <= 2));
            // A wider nested cap cannot widen past the enclosing one.
            with_thread_cap(8, || assert!(num_threads() <= 4));
            assert!(num_threads() <= 4);
        });
    }

    #[test]
    fn cap_propagates_into_spawned_tasks() {
        with_thread_cap(2, || {
            let caps = par_map(&(0..16).collect::<Vec<u32>>(), |_| num_threads());
            assert!(caps.iter().all(|&c| c <= 2), "observed widths {caps:?}");
        });
    }

    #[test]
    fn cap_restored_after_task_panic() {
        let baseline = num_threads();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_thread_cap(2, || {
                scope(|s| s.spawn(|| panic!("cap boom")));
            });
        }));
        assert!(result.is_err());
        assert_eq!(num_threads(), baseline);
    }

    #[test]
    fn spawned_panic_propagates() {
        let private = ThreadPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            private.scope(|s| {
                s.spawn(|| panic!("task boom"));
                s.spawn(|| {});
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn private_pool_runs_borrowed_tasks() {
        let pool = ThreadPool::new(4);
        let mut out = [0u32; 16];
        pool.scope(|s| {
            for (i, v) in out.iter_mut().enumerate() {
                s.spawn(move || *v = i as u32 + 1);
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }
}
