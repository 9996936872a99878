//! Passive-target progress modelling (Zhou & Gracia; Casper).
//!
//! In a real MPI implementation a passive-target operation — an
//! accumulate, an atomic, a lock handoff, a flush acknowledgement — only
//! completes once the *target* process enters the MPI library. Under load
//! imbalance the busiest rank therefore serializes everyone targeting it.
//! Historically this simulator priced every one-sided operation as if the
//! target made instantaneous progress (an idealised hardware-offload
//! NIC); this module adds the two realistic regimes:
//!
//! * [`ProgressModel::Host`] — host-side progress only: an operation
//!   round targeting a busy rank waits, in expectation, until the target
//!   next enters the library;
//! * [`ProgressModel::Agent`] — a per-node asynchronous progress agent
//!   drains inbound passive-target traffic on the target's behalf, so a
//!   round pays the (much smaller) agent forward + service cost from
//!   [`simnet::ProgressParams`] instead.
//!
//! # Determinism: the phase-profile expectation model
//!
//! Stall time is priced from **published compute profiles**, never from
//! live peeking at another thread's state (which would make virtual time
//! depend on wall-clock interleaving and can deadlock when two ranks
//! block on each other). Every rank keeps a monotone compute meter
//! (total [`crate::Proc::compute`] seconds and span count). On entry to
//! every **world-sized** collective it appends a [`PhaseProfile`]
//! snapshot to its append-only slot vector on the shared board. Because
//! the collective is a rendezvous, by the time any rank *leaves*
//! collective `k` every rank has published slot `k − 1`; an origin whose
//! own slot count is `k` therefore reads the target's slot `k − 1` —
//! always present, never mutated after publication, and indexed purely
//! by the origin's program order. The expected stall per operation round
//! is then
//!
//! ```text
//! E[stall] = busy_frac(target) · span(target) / 2
//! ```
//!
//! (`busy_frac` = compute seconds / elapsed virtual time, `span` = mean
//! compute-span length: a uniformly-arriving op waits half a span on
//! average, and only when it lands inside one). Before the first world
//! collective no profile exists and no stall is charged — the model
//! warms up over the application's natural synchronisation points.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// How passive-target remote completion is priced for a window handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressModel {
    /// Idealised instantaneous target progress (the historical model and
    /// the default for raw `mpisim` windows): no stall, no agent cost.
    #[default]
    Off,
    /// Host-side progress only: rounds targeting busy ranks stall for the
    /// expected time until the target re-enters the MPI library.
    Host,
    /// A per-node progress agent services inbound rounds at the priced
    /// agent cost, collapsing the host stall.
    Agent,
}

impl ProgressModel {
    /// Provenance string for benchmark rows (`none` = host-side only).
    pub fn name(self) -> &'static str {
        match self {
            ProgressModel::Off => "off",
            ProgressModel::Host => "none",
            ProgressModel::Agent => "agent",
        }
    }
}

/// One rank's compute profile as of a world-collective entry.
#[derive(Debug, Clone, Copy)]
pub struct PhaseProfile {
    /// Cumulative `Proc::compute` seconds since rank start.
    pub compute_s: f64,
    /// Cumulative number of compute spans.
    pub spans: u64,
    /// Virtual time of the snapshot.
    pub elapsed: f64,
}

/// Single-writer compute meter (the owning rank's thread is the only
/// writer; readers take consistent-enough relaxed snapshots at the
/// rendezvous, where the writer is parked inside the collective).
#[derive(Default)]
struct Meter {
    compute_bits: AtomicU64,
    spans: AtomicU64,
}

/// Shared progress board: per-rank meters and append-only profile slots.
pub(crate) struct ProgressBoard {
    meters: Vec<Meter>,
    profiles: Vec<RwLock<Vec<PhaseProfile>>>,
}

impl ProgressBoard {
    pub fn new(nranks: usize) -> ProgressBoard {
        ProgressBoard {
            meters: (0..nranks).map(|_| Meter::default()).collect(),
            profiles: (0..nranks).map(|_| RwLock::new(Vec::new())).collect(),
        }
    }

    /// Adds one compute span of `seconds` to `rank`'s meter. Called only
    /// from the rank's own thread.
    pub(crate) fn note_compute(&self, rank: usize, seconds: f64) {
        let m = &self.meters[rank];
        let total = f64::from_bits(m.compute_bits.load(Ordering::Relaxed)) + seconds;
        m.compute_bits.store(total.to_bits(), Ordering::Relaxed);
        m.spans.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes `rank`'s current profile; called at entry to every
    /// world-sized collective, before the rendezvous.
    pub(crate) fn publish(&self, rank: usize, now: f64) {
        let m = &self.meters[rank];
        let prof = PhaseProfile {
            compute_s: f64::from_bits(m.compute_bits.load(Ordering::Relaxed)),
            spans: m.spans.load(Ordering::Relaxed),
            elapsed: now,
        };
        self.profiles[rank].write().push(prof);
    }

    /// Expected `(busy_frac, mean_span_s)` of `target` as seen by
    /// `origin`, from the freshest profile the rendezvous ordering
    /// guarantees is published. `None` before the first world collective
    /// or when the target has no compute on record.
    pub(crate) fn expected_busy(&self, origin: usize, target: usize) -> Option<(f64, f64)> {
        let k = self.profiles[origin].read().len();
        if k == 0 {
            return None;
        }
        let v = self.profiles[target].read();
        let p = v.get(k - 1)?;
        if p.spans == 0 || p.elapsed <= 0.0 || p.compute_s <= 0.0 {
            return None;
        }
        let busy = (p.compute_s / p.elapsed).clamp(0.0, 1.0);
        let span = p.compute_s / p.spans as f64;
        Some((busy, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_profile_before_first_collective() {
        let b = ProgressBoard::new(2);
        b.note_compute(1, 5.0);
        assert!(b.expected_busy(0, 1).is_none());
    }

    #[test]
    fn busy_fraction_and_span_from_published_profile() {
        let b = ProgressBoard::new(2);
        b.note_compute(1, 3.0);
        b.note_compute(1, 1.0);
        b.publish(0, 8.0);
        b.publish(1, 8.0);
        let (busy, span) = b.expected_busy(0, 1).unwrap();
        assert!((busy - 0.5).abs() < 1e-12);
        assert!((span - 2.0).abs() < 1e-12);
    }

    #[test]
    fn origin_reads_its_own_phase_index() {
        let b = ProgressBoard::new(2);
        b.note_compute(1, 1.0);
        b.publish(0, 2.0);
        b.publish(1, 2.0);
        // Target raced ahead and published again; origin still reads the
        // slot matching its own phase count.
        b.note_compute(1, 99.0);
        b.publish(1, 4.0);
        let (busy, span) = b.expected_busy(0, 1).unwrap();
        assert!((busy - 0.5).abs() < 1e-12);
        assert!((span - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_target_never_stalls() {
        let b = ProgressBoard::new(2);
        b.publish(0, 2.0);
        b.publish(1, 2.0);
        assert!(b.expected_busy(0, 1).is_none());
    }
}
