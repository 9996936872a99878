//! Workspace root: re-exports for examples and integration tests.

#![forbid(unsafe_code)]

pub use armci;
pub use armci_ds;
pub use armci_mpi;
pub use armci_native;
pub use ctree;
pub use ga;
pub use mpisim;
pub use nwchem_proxy;
pub use scalesim;
pub use simnet;
