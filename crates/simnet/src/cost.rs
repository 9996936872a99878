//! Communication cost functions.
//!
//! Every simulated backend (native ARMCI or MPI RMA) is described by a
//! [`BackendParams`] value. The functions here convert operation shapes
//! (contiguous size, segment count × segment size, datatype use) into
//! virtual-time durations.

use serde::Serialize;

/// One-sided operation kind. Accumulate pays an extra combine cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Op {
    Get,
    Put,
    Acc,
}

/// Postal-model parameters for one operation class on one backend.
#[derive(Debug, Clone, Serialize)]
pub struct LinkParams {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Asymptotic bandwidth, bytes/second.
    pub peak: f64,
    /// Optional `(threshold_bytes, factor)` large-message bandwidth
    /// penalty: for transfers larger than the threshold the effective
    /// bandwidth is `peak * factor`. Models the Cray XT MPI falloff beyond
    /// 32 KiB observed in Figure 3.
    pub large_penalty: Option<(usize, f64)>,
}

impl LinkParams {
    /// Simple postal model constructor.
    pub fn new(alpha: f64, peak: f64) -> Self {
        LinkParams {
            alpha,
            peak,
            large_penalty: None,
        }
    }

    /// Effective bandwidth for a transfer of `bytes`.
    pub fn effective_peak(&self, bytes: usize) -> f64 {
        match self.large_penalty {
            Some((thresh, factor)) if bytes > thresh => self.peak * factor,
            _ => self.peak,
        }
    }

    /// Time to move `bytes` contiguously: `α + n/β`.
    pub fn xfer_time(&self, bytes: usize) -> f64 {
        self.alpha + bytes as f64 / self.effective_peak(bytes)
    }

    /// Achieved bandwidth (bytes/sec) for a transfer of `bytes`.
    pub fn bandwidth(&self, bytes: usize) -> f64 {
        bytes as f64 / self.xfer_time(bytes)
    }
}

/// Cost parameters for one backend (native ARMCI or MPI RMA) on one
/// platform.
#[derive(Debug, Clone, Serialize)]
pub struct BackendParams {
    pub get: LinkParams,
    pub put: LinkParams,
    pub acc: LinkParams,
    /// Lock + unlock cost of one passive-target epoch (MPI) or of the
    /// native consistency fence (usually much smaller).
    pub epoch_overhead: f64,
    /// Per-operation issue cost inside an epoch (descriptor build, queue
    /// doorbell, ...).
    pub op_overhead: f64,
    /// Per-segment cost of the batched / native strided engines.
    pub seg_overhead: f64,
    /// Pack/unpack rate for datatype-based transfers, bytes/second.
    pub pack_rate: f64,
    /// One-off cost of building and committing a derived datatype.
    pub dtype_setup: f64,
    /// Per-segment cost while flattening / walking a derived datatype.
    pub dtype_seg_overhead: f64,
    /// If set, models the MVAPICH2/MPICH2 batched-ops performance bug on
    /// InfiniBand (Figure 4b): per-op overhead inflates by
    /// `1 + nsegs/scale` once many operations share an epoch.
    pub batched_bug: Option<f64>,
    /// Latency of a hardware / native atomic read-modify-write. For the
    /// MPI-2 backend RMW is built from mutexes instead (see `armci-mpi`);
    /// this value is used by the native backend and by the MPI-3
    /// `fetch_and_op` extension.
    pub rmw_latency: f64,
    /// Accumulate combine rate at the target, bytes/second of operand
    /// consumed (separate from link bandwidth; the effective acc curve
    /// already folds most of this in, this term covers the target-side CPU
    /// work for datatype accs).
    pub acc_combine_rate: f64,
}

/// Intra-node tier of the two-tier cost model: transfers between ranks
/// on one node move through a `Win_allocate_shared` slab by load/store
/// instead of NIC RMA, so they are priced as memcpy plus a slab-lock
/// round trip rather than with [`BackendParams`] wire parameters.
#[derive(Debug, Clone, Serialize)]
pub struct ShmParams {
    /// Contiguous copy through the shared slab (alpha is the per-op cost
    /// of the route decision + cacheline handoff, peak the single-core
    /// memcpy rate).
    pub copy: LinkParams,
    /// Element-wise accumulate into the slab: a read-modify-write stream
    /// at CPU rate, slower than plain memcpy.
    pub acc: LinkParams,
    /// One `MPI_Win_sync` (memory barrier + bookkeeping) under the
    /// separate-memory model.
    pub win_sync: f64,
    /// Acquire + release of the slab lock covering the target section
    /// (the shared window's lock discipline; replaces `epoch_overhead`).
    pub lock_overhead: f64,
}

impl ShmParams {
    /// Link parameters for `op`: accumulates pay the RMW stream rate,
    /// gets and puts the plain copy rate.
    pub fn link(&self, op: Op) -> &LinkParams {
        match op {
            Op::Get | Op::Put => &self.copy,
            Op::Acc => &self.acc,
        }
    }

    /// Virtual time of one intra-node transfer of `bytes` in `nsegs`
    /// pieces under an already-held slab lock: each segment restarts the
    /// copy loop, so alpha is paid per segment, bandwidth once.
    pub fn op_cost(&self, op: Op, bytes: usize, nsegs: usize) -> f64 {
        let link = self.link(op);
        nsegs.max(1) as f64 * link.alpha + bytes as f64 / link.effective_peak(bytes)
    }

    /// One 8-byte atomic on a shared slab: a cacheline-granular RMW
    /// stream of a single element — far below any wire atomic.
    pub fn atomic_cost(&self) -> f64 {
        self.op_cost(Op::Acc, 8, 1)
    }
}

/// Cost parameters for a RAMC-style remote-memory-channel backend
/// ("RAMC: Remote Access Memory Channels over HPE Slingshot"): the
/// initiator writes a descriptor and rings a **doorbell**, the NIC moves
/// contiguous payloads without further CPU involvement, and completions
/// are reaped from a **completion queue**. Anything the NIC cannot
/// express — noncontiguous datatypes, accumulates — runs on a software
/// fallback path built from contiguous channel operations.
#[derive(Debug, Clone, Serialize)]
pub struct ChannelParams {
    /// Wire link for offloaded contiguous transfers. Same NIC as the MPI
    /// backend (same peak and large-message behaviour) but no MPI
    /// software stack on the critical path, so per-message latency is
    /// lower.
    pub link: LinkParams,
    /// CPU cost of ringing the doorbell (descriptor write + MMIO store).
    pub doorbell: f64,
    /// CPU cost of reaping one completion from the queue.
    pub cq_poll: f64,
    /// Per-operation dispatch cost of the software fallback path
    /// (segment walk, bounce staging decisions).
    pub sw_overhead: f64,
    /// Target-side combine rate for software accumulates, bytes/second.
    pub acc_combine_rate: f64,
}

impl ChannelParams {
    /// Channel model derived from a platform's MPI wire parameters: the
    /// NIC is the same, the channel just bypasses the MPI software stack
    /// for contiguous transfers (lower alpha, cheap doorbell/poll) while
    /// the fallback path pays MPI-like per-op dispatch.
    pub fn derived(mpi: &BackendParams) -> ChannelParams {
        ChannelParams {
            link: LinkParams {
                alpha: 0.4 * mpi.put.alpha,
                peak: mpi.put.peak,
                large_penalty: mpi.put.large_penalty,
            },
            doorbell: 0.25 * mpi.op_overhead,
            cq_poll: 0.15 * mpi.op_overhead,
            sw_overhead: mpi.op_overhead,
            acc_combine_rate: mpi.acc_combine_rate,
        }
    }

    /// Offloaded contiguous operation: doorbell, wire transfer, one
    /// completion reaped.
    pub fn contig_cost(&self, bytes: usize) -> f64 {
        self.doorbell + self.link.xfer_time(bytes) + self.cq_poll
    }

    /// Software-fallback operation over `nsegs` segments: dispatch, one
    /// doorbell per segment (segments pipeline on the wire, so latency is
    /// paid once), wire transfer, one completion.
    pub fn sw_cost(&self, bytes: usize, nsegs: usize) -> f64 {
        self.sw_overhead
            + nsegs.max(1) as f64 * self.doorbell
            + self.link.xfer_time(bytes)
            + self.cq_poll
    }

    /// Extra target-side combine time for accumulating `bytes` of
    /// operands on the software path.
    pub fn combine_cost(&self, bytes: usize) -> f64 {
        bytes as f64 / self.acc_combine_rate
    }

    /// Wire serialization time of `bytes` (NIC occupancy for the
    /// congestion model; excludes latency and CPU overheads).
    pub fn ser_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.link.effective_peak(bytes)
    }

    /// One NIC-offloaded 8-byte atomic (fetch-and-op / compare-and-swap):
    /// doorbell, one wire round trip, one completion reaped. No MPI
    /// software stack and no epoch on the critical path.
    pub fn atomic_cost(&self) -> f64 {
        self.doorbell + self.link.alpha + self.cq_poll
    }
}

/// Cost parameters for a per-node **asynchronous progress agent**
/// (Casper / Zhou & Gracia style): one core per node is dedicated to
/// draining passive-target traffic — accumulates, RMW, lock handoffs,
/// flush acknowledgements — on behalf of ranks that are busy inside long
/// compute spans. Without an agent such operations wait on the *target*
/// entering the MPI library; with one, they pay a small intra-node
/// forward plus the agent's service time instead.
#[derive(Debug, Clone, Serialize)]
pub struct ProgressParams {
    /// Agent service time for one passive-target operation (lock grant,
    /// accumulate apply, RMW, flush ack), seconds.
    pub agent_service: f64,
    /// Intra-node forwarding cost to hand an inbound operation from the
    /// NIC/host rank to the agent core (shared-memory queue hop).
    pub agent_forward: f64,
    /// Fractional service-time inflation per additional host rank on the
    /// node: all of a node's ranks share one agent, so its queue deepens
    /// with the node's fan-in.
    pub host_contention: f64,
}

impl ProgressParams {
    /// Agent model derived from a platform's MPI backend parameters: the
    /// agent runs the same software stack (service ≈ one op dispatch +
    /// epoch bookkeeping share) but is always inside the library, and the
    /// forward is one cacheline handoff on the node's memory system.
    pub fn derived(mpi: &BackendParams) -> ProgressParams {
        ProgressParams {
            agent_service: mpi.op_overhead + 0.5 * mpi.epoch_overhead,
            agent_forward: 0.3 * mpi.op_overhead,
            host_contention: 0.15,
        }
    }

    /// Cost of one agent-serviced operation round on a node hosting
    /// `ranks_per_node` application ranks.
    pub fn round_cost(&self, ranks_per_node: usize) -> f64 {
        let extra = ranks_per_node.saturating_sub(1) as f64;
        self.agent_forward + self.agent_service * (1.0 + self.host_contention * extra)
    }
}

impl BackendParams {
    /// Link parameters for `op`.
    pub fn link(&self, op: Op) -> &LinkParams {
        match op {
            Op::Get => &self.get,
            Op::Put => &self.put,
            Op::Acc => &self.acc,
        }
    }

    /// Cost of one contiguous one-sided operation issued in its own epoch.
    pub fn contig_epoch_cost(&self, op: Op, bytes: usize) -> f64 {
        self.epoch_overhead + self.op_overhead + self.link(op).xfer_time(bytes)
    }

    /// Cost of one contiguous operation inside an already-open epoch.
    pub fn contig_op_cost(&self, op: Op, bytes: usize) -> f64 {
        self.op_overhead + self.link(op).xfer_time(bytes)
    }

    /// Extra target-side combine time for accumulating `bytes` of operands.
    pub fn combine_cost(&self, bytes: usize) -> f64 {
        bytes as f64 / self.acc_combine_rate
    }
}

/// Analytic strided-transfer costs priced outside the executable
/// runtime: ARMCI-Native's strided engine and `nwchem_proxy`'s per-task
/// profiles. `nsegs` segments of `seg` bytes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum StridedMethodCost {
    /// One RMA op with a subarray datatype built straight from the strided
    /// descriptor.
    DirectStrided,
    /// The native ARMCI strided engine.
    Native,
}

impl BackendParams {
    /// Virtual time for a strided transfer using the given method.
    pub fn strided_cost(&self, method: StridedMethodCost, op: Op, nsegs: usize, seg: usize) -> f64 {
        let total = nsegs * seg;
        let link = self.link(op);
        let n = nsegs as f64;
        match method {
            StridedMethodCost::DirectStrided => {
                // Build datatype, pack at origin, single wire transfer,
                // unpack at target. Built straight from the strided
                // descriptor, so the per-segment descriptor cost is half
                // an IOV datatype's.
                let combine = if op == Op::Acc {
                    self.combine_cost(total)
                } else {
                    0.0
                };
                self.epoch_overhead
                    + self.op_overhead
                    + self.dtype_setup
                    + n * (0.5 * self.dtype_seg_overhead)
                    + 2.0 * (total as f64 / self.pack_rate)
                    + link.xfer_time(total)
                    + combine
            }
            StridedMethodCost::Native => {
                // Tuned native strided engine: no epochs, pipelined segments.
                link.alpha + n * (self.seg_overhead + seg as f64 / link.effective_peak(seg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BackendParams {
        BackendParams {
            get: LinkParams::new(2e-6, 3e9),
            put: LinkParams::new(2e-6, 3e9),
            acc: LinkParams::new(3e-6, 1e9),
            epoch_overhead: 1e-6,
            op_overhead: 0.5e-6,
            seg_overhead: 0.2e-6,
            pack_rate: 4e9,
            dtype_setup: 2e-6,
            dtype_seg_overhead: 30e-9,
            batched_bug: None,
            rmw_latency: 2e-6,
            acc_combine_rate: 4e9,
        }
    }

    #[test]
    fn postal_model_latency_dominates_small() {
        let l = LinkParams::new(1e-6, 1e9);
        // 1-byte message ≈ latency
        assert!((l.xfer_time(1) - 1.001e-6).abs() < 1e-12);
        // bandwidth of tiny messages is far below peak
        assert!(l.bandwidth(8) < 0.1 * l.peak);
    }

    #[test]
    fn postal_model_bandwidth_approaches_peak() {
        let l = LinkParams::new(1e-6, 1e9);
        let bw = l.bandwidth(64 << 20);
        assert!(bw > 0.99 * l.peak, "bw={bw}");
    }

    #[test]
    fn large_penalty_caps_bandwidth() {
        let mut l = LinkParams::new(1e-6, 2e9);
        l.large_penalty = Some((32 << 10, 0.5));
        assert_eq!(l.effective_peak(32 << 10), 2e9);
        assert_eq!(l.effective_peak((32 << 10) + 1), 1e9);
        let big = 16 << 20;
        assert!(l.bandwidth(big) < 1.01e9);
    }

    #[test]
    fn channel_offload_beats_mpi_own_epoch_contiguous() {
        let p = params();
        let ch = ChannelParams::derived(&p);
        for bytes in [8usize, 1 << 10, 1 << 20] {
            let mpi = p.contig_epoch_cost(Op::Put, bytes);
            let chan = ch.contig_cost(bytes);
            assert!(chan < mpi, "{bytes}B: channel {chan} vs mpi {mpi}");
        }
    }

    #[test]
    fn channel_sw_fallback_costs_more_than_offload() {
        let p = params();
        let ch = ChannelParams::derived(&p);
        let bytes = 64 << 10;
        assert!(ch.sw_cost(bytes, 64) > ch.contig_cost(bytes));
        // One-segment fallback still pays the software dispatch.
        assert!(ch.sw_cost(bytes, 1) > ch.contig_cost(bytes));
    }

    #[test]
    fn acc_pays_combine_cost_in_datatype_path() {
        let p = params();
        let put = p.strided_cost(StridedMethodCost::DirectStrided, Op::Put, 64, 1024);
        let acc = p.strided_cost(StridedMethodCost::DirectStrided, Op::Acc, 64, 1024);
        // acc link itself is slower AND pays the combine
        assert!(acc > put);
    }
}
