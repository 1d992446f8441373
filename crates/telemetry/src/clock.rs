//! Injectable time sources for the telemetry layer.
//!
//! All span timing goes through the [`Clock`] trait so tests can
//! substitute a [`ManualClock`] that only advances when told to. The
//! default [`MonotonicClock`] is the one place in the library crates where
//! wall-clock time is read: its `Instant::now` call is the one library
//! exemption from the workspace's `disallowed-methods` list (`clippy.toml`),
//! and span durations only ever flow into metrics, never into computation
//! results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond time source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed epoch. Must be monotonic.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic process time via [`Instant`].
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock anchored at its moment of construction.
    #[expect(clippy::disallowed_methods, reason = "the one sanctioned wall-clock read")]
    pub fn new() -> Self {
        MonotonicClock { epoch: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // `as_nanos` fits u64 for ~584 years of process uptime.
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A test clock that advances only when explicitly told to, making every
/// span duration fully deterministic.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at `start_ns`.
    pub fn new(start_ns: u64) -> Self {
        ManualClock { now: AtomicU64::new(start_ns) }
    }

    /// Moves the clock forward by `delta_ns`.
    pub fn advance_ns(&self, delta_ns: u64) {
        self.now.fetch_add(delta_ns, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotonic() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new(100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.now_ns(), 100);
        c.advance_ns(50);
        assert_eq!(c.now_ns(), 150);
    }
}
