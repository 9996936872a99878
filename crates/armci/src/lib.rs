//! The ARMCI programming interface (paper §IV).
//!
//! ARMCI — the Aggregate Remote Memory Copy Interface — is the low-level
//! one-sided runtime under Global Arrays. This crate defines the Rust shape
//! of that interface as the [`Armci`] trait plus the shared machinery every
//! implementation needs:
//!
//! * [`GlobalAddr`] — the PGAS address `⟨process id, address⟩`;
//! * [`IovDesc`] — the generalized I/O vector descriptor (`armci_giov_t`);
//! * [`stride`] — Table I strided notation, the Algorithm 1 strided→IOV
//!   iterator, and the backwards translation from strided notation to an
//!   MPI subarray type (§VI-C);
//! * [`acc`] — scaled accumulate kinds (`ARMCI_ACC_DBL` etc.) and their
//!   element-wise combine;
//! * [`ArmciGroup`] — processor groups over [`mpisim::Comm`];
//! * [`AddressSpace`] — the §V-A/§V-B protocol every implementation runs
//!   around its allocations: the address cursor, the base-address
//!   exchange, the translation table and the NULL-member leader election;
//! * [`xfer`] — the shape of one data transfer ([`Remote`], [`Local`])
//!   and the shape check every implementation runs first.
//!
//! The trait's one data method is [`Armci::xfer`]; the fifteen ARMCI
//! get/put/accumulate verbs are provided over it. Three implementations
//! exist in this workspace: `armci-mpi` (the paper's contribution, over
//! MPI passive-target RMA), `armci-native` (the baseline, over direct
//! shared memory with a tuned cost model) and `armci-ds` (the §IX data
//! server over two-sided messaging). Global Arrays (`ga`) is generic over
//! this trait, exactly as NWChem can be relinked against either runtime.

#![forbid(unsafe_code)]

pub mod acc;
pub mod error;
pub mod group;
pub mod ivmap;
pub mod space;
pub mod stride;
pub mod traits;
pub mod types;
pub mod xfer;

pub use acc::AccKind;
pub use error::{ArmciError, ArmciResult};
pub use group::ArmciGroup;
pub use ivmap::IntervalMap;
pub use space::{AddressSpace, Translation};
pub use stride::{strided_to_subarray, StridedIter};
pub use traits::{AccessMode, Armci, ArmciExt, NbHandle, RmwOp, StridedMethod};
pub use types::{GlobalAddr, IovDesc};
pub use xfer::{Local, Remote};
