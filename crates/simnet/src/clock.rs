//! Per-rank virtual clocks.
//!
//! Each simulated process owns a [`VClock`] measuring seconds of virtual
//! time. Clocks are advanced by the cost model on every communication call.
//! Collective operations synchronise the clocks of all participants to the
//! maximum (everyone leaves a barrier together): each participant advances
//! its own clock to the latest arrival plus the collective's cost.
//!
//! A clock has a single writer, the thread of the rank that owns it.
//! mpisim's clock gate (`Shared::advance`) is the only place that moves a
//! rank's clock; collectives and messages carry virtual times to peers as
//! values and never touch a peer's clock. The clock is an atomic `f64`
//! (stored as bits in an `AtomicU64`) so that a runtime's clocks can sit in
//! state shared by all rank threads without a lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically non-decreasing virtual clock, in seconds.
///
/// Aligned to 128 bytes (two cache lines, covering adjacent-line
/// prefetch) so that a runtime's per-rank clocks, stored side by side,
/// never share a line: one rank thread's CAS on its own clock must not
/// invalidate its neighbour's.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct VClock {
    bits: AtomicU64,
}

impl VClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        VClock {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Advances the clock by `dt` seconds. Negative or non-finite `dt` is a
    /// programming error in the cost model and panics in debug builds.
    pub fn advance(&self, dt: f64) {
        debug_assert!(dt.is_finite() && dt >= 0.0, "bad clock delta {dt}");
        // The owning rank is the only writer (see the module doc), so the
        // loop never retries; it keeps the clock sound for any caller.
        let mut cur = self.bits.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(cur) + dt).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Moves the clock forward to at least `t` seconds (no-op if already
    /// past `t`).
    pub fn advance_to(&self, t: f64) {
        let mut cur = self.bits.load(Ordering::Acquire);
        loop {
            if f64::from_bits(cur) >= t {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                t.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Resets the clock to zero. Used between benchmark phases.
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = VClock::new();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VClock::new();
        c.advance(1.5);
        c.advance(0.25);
        assert!((c.now() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VClock::new();
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
        c.advance_to(1.0); // must not go backwards
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = VClock::new();
        c.advance(9.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn clocks_in_a_vec_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<VClock>(), 128);
        let clocks: Vec<VClock> = (0..3).map(|_| VClock::new()).collect();
        let gap = &clocks[1] as *const VClock as usize - &clocks[0] as *const VClock as usize;
        assert!(gap >= 128);
    }

    #[test]
    fn concurrent_advances_are_not_lost() {
        use std::sync::Arc;
        let c = Arc::new(VClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(0.001);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!((c.now() - 8.0).abs() < 1e-6);
    }
}
