//! The one seam through which time enters the service.
//!
//! The workspace's determinism lint bans `Instant`/`SystemTime` from
//! `crates/*` so results can never depend on wall time. A service, however,
//! must meter deadlines and pace retry backoff — so time is injected through
//! the [`Clock`] trait instead of read ambiently. Tests and the chaos
//! harness drive a [`TestClock`] whose ticks advance only when the test says
//! so (making deadline expiry a scripted, reproducible event); production
//! callers hand the service a [`WallClock`], the single audited place the
//! monotonic OS clock is read (see the reasoned `xtask/lint-allow.txt`
//! entry for this file).
//!
//! Ticks are dimensionless `u64`s. [`WallClock`] makes one tick one
//! microsecond; a [`TestClock`] tick means whatever the test wants.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotone tick source plus a way to wait, injected into the service so
/// deadline and backoff behaviour is testable without wall time.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Current tick count; monotone non-decreasing across calls.
    fn now(&self) -> u64;

    /// Blocks (or simulates blocking) for `ticks`; used only by retry
    /// backoff, never on the probe hot path.
    fn sleep(&self, ticks: u64);
}

/// The production clock: monotonic wall time, one tick per microsecond since
/// construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose tick 0 is "now".
    #[must_use]
    pub fn new() -> WallClock {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl fmt::Debug for WallClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WallClock").field("elapsed_micros", &self.now()).finish()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sleep(&self, ticks: u64) {
        std::thread::sleep(Duration::from_micros(ticks));
    }
}

/// A deterministic clock for tests and the chaos harness: ticks advance only
/// through [`TestClock::advance`], [`Clock::sleep`], or an optional
/// per-`now` auto-tick.
///
/// The auto-tick makes deadline expiry scriptable without any cooperating
/// thread: a probe under a finite budget calls [`Clock::now`] once when it
/// starts and once per ball-growth step as it polls its cancellation hook,
/// so `TestClock::with_autotick(1)` ages a query by exactly one tick per
/// step — "this query times out after three growth steps" becomes a
/// deterministic assertion. A request with the unbounded budget
/// [`u64::MAX`] has no deadline and reads no clock, so it never ages it.
#[derive(Debug)]
pub struct TestClock {
    ticks: AtomicU64,
    autotick: u64,
}

impl TestClock {
    /// A clock frozen at tick 0 until advanced.
    #[must_use]
    pub fn new() -> TestClock {
        TestClock { ticks: AtomicU64::new(0), autotick: 0 }
    }

    /// A clock that additionally advances by `per_now` ticks on every
    /// [`Clock::now`] call (after the value is read).
    #[must_use]
    pub fn with_autotick(per_now: u64) -> TestClock {
        TestClock { ticks: AtomicU64::new(0), autotick: per_now }
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&self, ticks: u64) {
        // ordering: `Relaxed` — the tick counter carries no other state;
        // deadline checks only need a monotone value, which the RMW total
        // order provides.
        self.ticks.fetch_add(ticks, Ordering::Relaxed);
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> u64 {
        if self.autotick == 0 {
            // ordering: `Relaxed` — reading the monotone tick counter; no
            // other memory is synchronised through it.
            return self.ticks.load(Ordering::Relaxed);
        }
        // ordering: `Relaxed` — same counter; fetch_add returns the
        // pre-increment value, so each `now` observes then ages the clock.
        self.ticks.fetch_add(self.autotick, Ordering::Relaxed)
    }

    fn sleep(&self, ticks: u64) {
        // Simulated blocking: waiting *is* advancing, which keeps backoff
        // loops finite and fully deterministic under test.
        self.advance(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_is_frozen_until_advanced() {
        let clock = TestClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.now(), 0);
        clock.advance(5);
        assert_eq!(clock.now(), 5);
        clock.sleep(2);
        assert_eq!(clock.now(), 7);
    }

    #[test]
    fn autotick_ages_the_clock_once_per_now() {
        let clock = TestClock::with_autotick(3);
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.now(), 3);
        assert_eq!(clock.now(), 6);
        clock.advance(100);
        assert_eq!(clock.now(), 109);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        clock.sleep(50);
        assert!(clock.now() >= b);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> =
            vec![Box::new(WallClock::new()), Box::new(TestClock::new())];
        for clock in &clocks {
            let _ = clock.now();
        }
    }
}
