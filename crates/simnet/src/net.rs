//! Per-link / per-NIC congestion queueing.
//!
//! The base cost model prices every operation independently: two ranks
//! blasting the same target each see the full link bandwidth, which a
//! real NIC does not offer ("Quo Vadis MPI RMA?" makes exactly this
//! complaint about per-op pricing). This module adds a shared-resource
//! layer: each node owns one NIC modelled as a FIFO queue with a
//! busy-until horizon. A transfer occupies both endpoints' NICs for its
//! serialization time (floored by a per-NIC message-rate limit), queues
//! behind whatever is already scheduled, and — when several flows
//! converge on one destination NIC at once — pays an incast penalty for
//! the switch-buffer pressure and reassembly stalls that fan-in causes.
//!
//! The model is deliberately *extra-delay shaped*: [`Network::admit`]
//! returns only the delay **beyond** the independently-priced cost, so a
//! quiet network reproduces the calibrated curves bit-for-bit and the
//! congestion knob defaults to off everywhere.

use std::sync::atomic::{AtomicU64, Ordering};

/// Knobs of the congestion model.
#[derive(Debug, Clone)]
pub struct CongestionParams {
    /// NIC message rate, messages/second: tiny messages occupy the NIC
    /// for at least `1/msg_rate` regardless of their byte count.
    pub msg_rate: f64,
    /// Occupancy multiplier applied at a destination NIC that is already
    /// draining another flow when a new one arrives (incast fan-in).
    pub incast_penalty: f64,
}

impl Default for CongestionParams {
    fn default() -> Self {
        CongestionParams {
            // ~2 M msgs/s is the right order for the QDR-era NICs of
            // Table II; the incast factor is conservative.
            msg_rate: 2.0e6,
            incast_penalty: 1.5,
        }
    }
}

/// One NIC's busy-until horizon, in virtual seconds (f64 bits in an
/// atomic so concurrently-issuing rank threads can reserve without
/// locks, mirroring [`crate::VClock`]).
#[derive(Debug)]
struct Nic {
    busy_until: AtomicU64,
}

impl Nic {
    fn new() -> Nic {
        Nic {
            busy_until: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn busy(&self) -> f64 {
        f64::from_bits(self.busy_until.load(Ordering::Acquire))
    }

    /// Reserves `occ` seconds of NIC time no earlier than `now`; returns
    /// the start of the reservation (= queueing ends).
    fn reserve(&self, now: f64, occ: f64) -> f64 {
        let mut cur = self.busy_until.load(Ordering::Acquire);
        loop {
            let start = f64::from_bits(cur).max(now);
            let next = (start + occ).to_bits();
            match self.busy_until.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return start,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// The congestion model: one `Nic` per node.
#[derive(Debug)]
pub struct Network {
    nics: Vec<Nic>,
    params: CongestionParams,
}

impl Network {
    /// A network of `nodes` NICs, all idle.
    pub fn new(nodes: usize, params: CongestionParams) -> Network {
        Network {
            nics: (0..nodes.max(1)).map(|_| Nic::new()).collect(),
            params,
        }
    }

    pub fn params(&self) -> &CongestionParams {
        &self.params
    }

    /// Admits a transfer of `ser` seconds wire serialization in `msgs`
    /// messages, from node `src` to node `dst`, issued at local virtual
    /// time `now`. Returns the **extra** delay the shared network imposes
    /// beyond the independently-priced cost: source-side injection
    /// queueing, destination-side drain queueing, and the incast
    /// inflation when the destination is already contended. Zero on an
    /// idle network and for node-local transfers.
    pub fn admit(&self, now: f64, src: usize, dst: usize, ser: f64, msgs: u64) -> f64 {
        if src == dst {
            return 0.0;
        }
        let occ = ser.max(msgs as f64 / self.params.msg_rate);
        let s_start = self.nic(src).reserve(now, occ);
        let dnic = self.nic(dst);
        // Another flow is still draining into `dst` → incast: this
        // transfer's drain occupancy inflates.
        let contended = dnic.busy() > now;
        let d_occ = if contended {
            occ * self.params.incast_penalty
        } else {
            occ
        };
        let d_start = dnic.reserve(now, d_occ);
        (s_start.max(d_start) - now) + (d_occ - occ)
    }

    /// All NICs back to idle (between benchmark phases).
    pub fn reset(&self) {
        for n in &self.nics {
            n.busy_until.store(0f64.to_bits(), Ordering::Release);
        }
    }

    fn nic(&self, node: usize) -> &Nic {
        // Out-of-range nodes (custom topologies smaller than the rank
        // count assumed at build time) fold onto the last NIC rather
        // than panicking in the middle of a charge.
        &self.nics[node.min(self.nics.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SER: f64 = 1e-6;

    #[test]
    fn idle_network_adds_nothing() {
        let net = Network::new(4, CongestionParams::default());
        assert_eq!(net.admit(0.0, 1, 0, SER, 1), 0.0);
        // Serial re-use after the wire drained is also free.
        assert_eq!(net.admit(10.0, 1, 0, SER, 1), 0.0);
    }

    #[test]
    fn node_local_transfers_bypass_the_nic() {
        let net = Network::new(2, CongestionParams::default());
        for _ in 0..8 {
            assert_eq!(net.admit(0.0, 1, 1, SER, 1), 0.0);
        }
    }

    /// The satellite requirement: N concurrent operations on one link
    /// must cost strictly more than N serial operations each priced
    /// against an idle network.
    #[test]
    fn concurrent_ops_on_one_link_cost_more_than_independent_pricing() {
        let params = CongestionParams::default();
        let n = 8;
        // Independent pricing: every op sees a fresh, idle network.
        let independent: f64 = (0..n)
            .map(|_| {
                let fresh = Network::new(10, params.clone());
                SER + fresh.admit(0.0, 1, 0, SER, 1)
            })
            .sum();
        assert!((independent - n as f64 * SER).abs() < 1e-18);
        // Concurrent: all ops from distinct sources hit the destination
        // NIC in the same instant and queue behind each other.
        let net = Network::new(10, params);
        let concurrent: f64 = (0..n).map(|i| SER + net.admit(0.0, 1 + i, 0, SER, 1)).sum();
        assert!(
            concurrent > independent,
            "concurrent {concurrent} should exceed independent {independent}"
        );
    }

    #[test]
    fn incast_penalty_inflates_the_second_flow() {
        let p = CongestionParams::default();
        let net = Network::new(4, p.clone());
        assert_eq!(net.admit(0.0, 1, 0, SER, 1), 0.0);
        let second = net.admit(0.0, 2, 0, SER, 1);
        // Queues behind the first drain AND pays the incast factor.
        let expected = SER + (p.incast_penalty - 1.0) * SER;
        assert!((second - expected).abs() < 1e-15, "got {second}");
    }

    #[test]
    fn message_rate_floors_tiny_message_occupancy() {
        let p = CongestionParams {
            msg_rate: 1.0e6,
            incast_penalty: 1.0,
        };
        let net = Network::new(4, p);
        // 1-byte ser is ~0, but the NIC is still held for 1/msg_rate.
        assert_eq!(net.admit(0.0, 1, 0, 1e-12, 1), 0.0);
        let second = net.admit(0.0, 2, 0, 1e-12, 1);
        assert!(second >= 1e-6 - 1e-12, "got {second}");
    }

    #[test]
    fn source_nic_serializes_injection() {
        let net = Network::new(4, CongestionParams::default());
        assert_eq!(net.admit(0.0, 0, 1, SER, 1), 0.0);
        // Same source, different destination: still queues at the source.
        let second = net.admit(0.0, 0, 2, SER, 1);
        assert!(second >= SER - 1e-15, "got {second}");
    }

    #[test]
    fn reset_returns_to_idle() {
        let net = Network::new(4, CongestionParams::default());
        net.admit(0.0, 1, 0, SER, 1);
        net.admit(0.0, 2, 0, SER, 1);
        net.reset();
        assert_eq!(net.admit(0.0, 3, 0, SER, 1), 0.0);
    }
}
