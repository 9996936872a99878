//! An in-process, MPI-like parallel runtime.
//!
//! This crate is the **substrate substitution** for the MPI libraries and
//! machines the paper ran on: every simulated *process* is an OS thread, and
//! all MPI semantics that ARMCI-MPI depends on are implemented for real:
//!
//! * communicators and groups, including communicator duplication, `split`,
//!   and **noncollective communicator creation** via the recursive
//!   intercommunicator create-and-merge algorithm the paper cites \[9];
//! * two-sided point-to-point messaging with `ANY_SOURCE` / `ANY_TAG`
//!   wildcards (required by the queueing-mutex algorithm of §V-D);
//! * collectives: barrier, broadcast, reduce, allreduce, allgather(v),
//!   alltoall(v);
//! * derived datatypes: contiguous, vector, indexed, and **subarray** (used
//!   by the direct strided method of §VI-C);
//! * **passive-target RMA**: window creation, `lock`/`unlock` with shared
//!   and exclusive modes, `put`/`get`/`accumulate` with datatypes on both
//!   sides, and a *semantics checker* that reports the access patterns MPI-2
//!   declares erroneous (conflicting operations within an epoch, double
//!   locking);
//! * an [`mpi3`] module with the MPI-3 extensions the paper motivates:
//!   `lock_all` (epochless passive mode), `flush`, request-based operations,
//!   and atomic `fetch_and_op` / `compare_and_swap`.
//!
//! Data movement is real (`memcpy` between the per-rank window backings, all
//! under locks, so the simulator is data-race-free even for programs the
//! checker would flag); *time* is virtual, charged from the
//! [`simnet`] cost model of the selected platform. See `DESIGN.md` §2.

pub mod coll;
pub mod comm;
pub mod dtype;
pub mod error;
pub mod mpi3;
pub mod p2p;
pub mod progress;
pub mod runtime;
mod sync;
pub mod win;

pub use comm::Comm;
pub use dtype::{Datatype, DtypeCache, DtypeSig};
pub use error::{MpiError, MpiResult};
pub use p2p::{RecvSrc, Status, ANY_TAG};
pub use progress::ProgressModel;
pub use runtime::{Proc, Runtime, RuntimeConfig};
pub use sync::park;
pub use win::{AccOp, ElemType, LockMode, Origin, RmaClass, ShmSection, WinHandle};
