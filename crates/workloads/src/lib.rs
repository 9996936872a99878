//! Multi-scenario workload drivers over the GA/ARMCI stack.
//!
//! The paper's evaluation (and every optimisation layered on since —
//! coalescing, shm tier, native atomics, progress agents) is shaped by
//! dense-linear-algebra traffic: strided patches, NXTVAL, CCSD. Real
//! RMA applications also do fine-grained irregular access, neighborhood
//! exchange, and server-style RPC. This crate holds three end-to-end
//! drivers that exercise exactly those shapes:
//!
//! * [`graph`] — BFS plus a fixed-point PageRank sweep over a
//!   deterministic R-MAT-style edge list stored in GA. Fine-grained
//!   random gets, hot-spot `read_inc`/accumulate traffic into
//!   high-degree vertices, irregular per-rank skew.
//! * [`stencil`] — 2D/3D Jacobi with ghost-cell halo exchange
//!   (strided subarray gets through the dtype cache and ctree).
//! * [`kv`] — a key-value/parameter-server loop: many tiny RMW+get
//!   round-trips against a distributed store with a configurable
//!   reader/writer mix.
//!
//! Each driver is deterministic in the virtual-time simulator: the
//! payloads and final state are bit-identical across `Config` arms
//! (transport, atomics, progress, coalesce) — only the clock moves.
//! That is what lets every driver carry a *bit-exact* verification
//! oracle (serial reference for BFS distances, PageRank fixed-point
//! vectors, stencil fields and residual folds; a linearizable-counter
//! check for KV) which the bench sweep and the proptests both run.
//!
//! [`scale`] prices each driver's contended resource through scalesim's
//! discrete-event models, extending the measured 4-rank runs to
//! 10⁵–10⁶ simulated clients.

#![forbid(unsafe_code)]

pub mod graph;
pub mod kv;
pub mod scale;
pub mod stencil;

pub use graph::{GraphOpts, GraphResult};
pub use kv::{KvOpts, KvResult};
pub use scale::ScaleRow;
pub use stencil::{StencilOpts, StencilResult};

/// SplitMix64: the deterministic, seedable stream every driver draws
/// from. Chosen over `rand` so the generated instances (edge lists, key
/// streams) are reproducible from a single `u64` written in the docs,
/// independent of any crate version.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Per-rank derived seed: decorrelates rank streams without losing
/// reproducibility from the instance seed.
pub fn rank_seed(seed: u64, rank: usize) -> u64 {
    seed ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(1);
        assert!(r.next_f64() < 1.0);
        assert!(r.below(7) < 7);
    }

    #[test]
    fn rank_seeds_differ() {
        assert_ne!(rank_seed(9, 0), rank_seed(9, 1));
        assert_eq!(rank_seed(9, 3), rank_seed(9, 3));
    }
}
