//! Virtual-time network simulation substrate.
//!
//! The paper evaluates ARMCI-MPI on four physical platforms (Table II). This
//! crate replaces those machines with *cost models*: every communication
//! primitive in the simulated MPI runtime (`mpisim`) and in the native
//! ARMCI baseline advances a per-rank **virtual clock** by a modelled
//! duration, while the data movement itself happens for real inside the
//! process. Bandwidth figures are then computed from virtual time, which
//! makes the reproduction deterministic and lets a laptop reproduce the
//! *shape* of curves measured on Blue Gene/P, an InfiniBand cluster, a Cray
//! XT5, and a Cray XE6.
//!
//! The model is deliberately simple and fully documented:
//!
//! * contiguous transfers follow the classic `t = α + n/β` postal model,
//!   optionally with a large-message bandwidth penalty (Cray XT MPI);
//! * passive-target epochs add a lock/unlock overhead per epoch and an issue
//!   overhead per operation;
//! * datatype (packed) transfers pay a pack/unpack rate plus per-segment
//!   descriptor costs;
//! * accumulates pay a floating-point combine cost at the target;
//! * InfiniBand memory registration is modelled explicitly (Figure 5):
//!   bounce-buffer copies below a pinning threshold and on-demand page
//!   pinning above it.
//!
//! Calibration targets are the published curves; see `EXPERIMENTS.md` at the
//! workspace root for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod net;
pub mod platform;
pub mod pool;
pub mod registration;

pub use clock::VClock;
pub use cost::{
    BackendParams, ChannelParams, LinkParams, Op, ProgressParams, ShmParams, StridedMethodCost,
};
pub use net::{CongestionParams, Network};
pub use platform::{ComputeParams, Platform, PlatformId};
pub use pool::{BufferPool, PoolBuf, PoolStats, RegistrationPolicy};
pub use registration::{BufferKind, RegParams, RegistrationTracker};
