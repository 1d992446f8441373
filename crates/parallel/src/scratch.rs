//! Per-thread scratch-buffer pools for the workspace's hot kernels.
//!
//! Every hot path in the pipeline — im2col columns in `mmhand-nn`, FFT and
//! filter working buffers in `mmhand-dsp`, cube assembly in `mmhand-core` —
//! needs a sized working buffer per call. Allocating it fresh (`vec![0.0;
//! n]`) pays a malloc/free round trip thousands of times per frame.
//! [`ScratchPool`] keeps returned buffers on a per-thread free list so a
//! steady-state kernel re-checks-out the same allocation every call.
//!
//! # Ownership and thread locality
//!
//! A pool is meant to live in a `thread_local!`: every pool-owning thread —
//! the caller or any `mmhand-parallel` worker — has its own free list, so
//! checkout needs no locks and never migrates buffers across threads. A
//! task that runs on a different worker simply warms that worker's pool.
//!
//! # Determinism
//!
//! Checked-out buffers are always cleared and zero-filled to the requested
//! length before the caller sees them, so their contents never depend on
//! which thread ran the task or what ran before — pooled kernels stay
//! bitwise identical to their allocating ancestors at any thread count and
//! under any scheduler interleaving. The cost of the zero fill equals the
//! `vec![T::default(); n]` it replaces; the saving is the allocator round
//! trip (and the cold-memory faults behind it), not the memset.
//!
//! # Telemetry
//!
//! Pools share global `pool.*` metrics: `pool.checkouts`, `pool.hits`,
//! `pool.misses`, `pool.bytes_reused` counters, plus `pool.outstanding`
//! (buffers currently checked out across all threads) and `pool.hit_rate`
//! gauges. Each pool additionally counts its misses — true allocations — in
//! a per-stage counter `pool.alloc.<stage>`, which is what the per-frame
//! allocation budget in the bench harness is measured against.
//!
//! # Examples
//!
//! ```
//! use mmhand_parallel::ScratchPool;
//!
//! thread_local! {
//!     static POOL: ScratchPool<f32> = const { ScratchPool::new("doc.example") };
//! }
//!
//! let sum = POOL.with(|pool| {
//!     pool.with(128, |buf| {
//!         assert_eq!(buf.len(), 128);
//!         buf.iter_mut().for_each(|v| *v = 1.0);
//!         buf.iter().sum::<f32>()
//!     })
//! });
//! assert_eq!(sum, 128.0);
//! ```

use std::cell::{OnceCell, RefCell};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;

/// Free buffers kept per pool before further returns are dropped. Hot
/// kernels nest at most a handful of checkouts, so a small cap bounds
/// worst-case retained memory without ever evicting a steady-state buffer.
const MAX_FREE_BUFFERS: usize = 16;

/// Buffers currently checked out across every pool and thread.
static OUTSTANDING: AtomicI64 = AtomicI64::new(0);

/// Workspace-wide pool telemetry, resolved once.
struct PoolStats {
    checkouts: mmhand_telemetry::Counter,
    hits: mmhand_telemetry::Counter,
    misses: mmhand_telemetry::Counter,
    bytes_reused: mmhand_telemetry::Counter,
    outstanding: mmhand_telemetry::Gauge,
    hit_rate: mmhand_telemetry::Gauge,
}

fn pool_stats() -> &'static PoolStats {
    static STATS: OnceLock<PoolStats> = OnceLock::new();
    STATS.get_or_init(|| PoolStats {
        checkouts: mmhand_telemetry::counter("pool.checkouts"),
        hits: mmhand_telemetry::counter("pool.hits"),
        misses: mmhand_telemetry::counter("pool.misses"),
        bytes_reused: mmhand_telemetry::counter("pool.bytes_reused"),
        outstanding: mmhand_telemetry::gauge("pool.outstanding"),
        hit_rate: mmhand_telemetry::gauge("pool.hit_rate"),
    })
}

/// A free list of reusable `Vec<T>` buffers for one pipeline stage.
///
/// See the [module documentation](self) for ownership, determinism, and
/// telemetry semantics. `T` must be `Copy + Default` so checkouts can be
/// zero-filled cheaply.
pub struct ScratchPool<T> {
    stage: &'static str,
    free: RefCell<Vec<Vec<T>>>,
    stage_allocs: OnceCell<mmhand_telemetry::Counter>,
}

impl<T: Copy + Default> ScratchPool<T> {
    /// Creates an empty pool for the given stage label (used as the
    /// `pool.alloc.<stage>` counter suffix). `const` so the pool can sit in
    /// a `thread_local!` with a `const` initializer.
    pub const fn new(stage: &'static str) -> Self {
        ScratchPool { stage, free: RefCell::new(Vec::new()), stage_allocs: OnceCell::new() }
    }

    /// Checks out a buffer of exactly `len` elements, zero-filled. Private:
    /// [`with`](Self::with) is the only checkout, so every buffer goes back.
    fn take(&self, len: usize) -> Vec<T> {
        let stats = pool_stats();
        stats.checkouts.inc();
        let reused = self.free.borrow_mut().pop();
        let hit = reused.as_ref().is_some_and(|b| b.capacity() >= len);
        let mut buf = reused.unwrap_or_default();
        if hit {
            stats.hits.inc();
            stats.bytes_reused.add((len * std::mem::size_of::<T>()) as u64);
        } else {
            stats.misses.inc();
            self.stage_allocs
                .get_or_init(|| mmhand_telemetry::counter(&format!("pool.alloc.{}", self.stage)))
                .inc();
        }
        if mmhand_telemetry::enabled() {
            let outstanding = OUTSTANDING.fetch_add(1, Ordering::Relaxed) + 1;
            stats.outstanding.set(outstanding as f64);
            let checkouts = stats.checkouts.get();
            if checkouts > 0 {
                stats.hit_rate.set(stats.hits.get() as f64 / checkouts as f64);
            }
        }
        buf.clear();
        buf.resize(len, T::default());
        buf
    }

    /// Returns a buffer to the free list for reuse.
    fn put(&self, buf: Vec<T>) {
        if mmhand_telemetry::enabled() {
            let outstanding = OUTSTANDING.fetch_sub(1, Ordering::Relaxed) - 1;
            pool_stats().outstanding.set(outstanding as f64);
        }
        let mut free = self.free.borrow_mut();
        if free.len() < MAX_FREE_BUFFERS && buf.capacity() > 0 {
            free.push(buf);
        }
    }

    /// Runs `f` with a zero-filled buffer of `len` elements checked out from
    /// the pool, returning it afterwards (also on panic-free early return;
    /// a panicking `f` simply drops the buffer, which is safe — the pool
    /// just re-allocates on the next miss).
    ///
    /// Checkouts may nest: the buffer is popped before `f` runs, so `f` can
    /// call back into the same pool.
    pub fn with<R>(&self, len: usize, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let mut buf = self.take(len);
        let result = f(&mut buf);
        self.put(buf);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static TEST_POOL: ScratchPool<f32> = const { ScratchPool::new("test.scratch") };
    }

    #[test]
    fn buffers_are_zeroed_and_sized() {
        TEST_POOL.with(|pool| {
            pool.with(8, |buf| {
                assert_eq!(buf.len(), 8);
                assert!(buf.iter().all(|&v| v == 0.0));
                buf.iter_mut().for_each(|v| *v = 7.0);
            });
            // The dirtied buffer comes back clean.
            pool.with(8, |buf| {
                assert!(buf.iter().all(|&v| v == 0.0));
            });
        });
    }

    #[test]
    fn second_checkout_reuses_the_allocation() {
        thread_local! {
            static POOL: ScratchPool<u64> = const { ScratchPool::new("test.reuse") };
        }
        POOL.with(|pool| {
            let first_ptr = pool.with(64, |buf| buf.as_ptr() as usize);
            let second_ptr = pool.with(64, |buf| buf.as_ptr() as usize);
            assert_eq!(first_ptr, second_ptr, "steady-state checkout reuses the buffer");
        });
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        TEST_POOL.with(|pool| {
            pool.with(16, |outer| {
                outer.iter_mut().for_each(|v| *v = 1.0);
                pool.with(16, |inner| {
                    assert!(inner.iter().all(|&v| v == 0.0));
                    assert_ne!(outer.as_ptr(), inner.as_ptr());
                });
                assert!(outer.iter().all(|&v| v == 1.0));
            });
        });
    }

    #[test]
    fn growing_requests_are_counted_as_misses() {
        thread_local! {
            static POOL: ScratchPool<f32> = const { ScratchPool::new("test.grow") };
        }
        let misses = mmhand_telemetry::counter("pool.misses");
        POOL.with(|pool| {
            pool.with(4, |_| {});
            let before = misses.get();
            pool.with(1024, |b| assert_eq!(b.len(), 1024));
            assert!(misses.get() > before, "capacity growth is a miss");
        });
    }

    #[test]
    fn stage_alloc_counter_tracks_fresh_allocations() {
        thread_local! {
            static POOL: ScratchPool<f32> = const { ScratchPool::new("test.stagectr") };
        }
        let ctr = mmhand_telemetry::counter("pool.alloc.test.stagectr");
        let before = ctr.get();
        POOL.with(|pool| {
            pool.with(32, |_| {});
            pool.with(32, |_| {});
        });
        assert_eq!(ctr.get(), before + 1, "one miss then one hit");
    }

    #[test]
    fn free_list_is_bounded() {
        thread_local! {
            static POOL: ScratchPool<f32> = const { ScratchPool::new("test.bound") };
        }
        POOL.with(|pool| {
            let bufs: Vec<_> = (0..2 * MAX_FREE_BUFFERS).map(|_| pool.take(8)).collect();
            for b in bufs {
                pool.put(b);
            }
            assert!(pool.free.borrow().len() <= MAX_FREE_BUFFERS);
        });
    }
}
