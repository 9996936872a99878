//! **NWChem proxy** — a CCSD(T)-style blocked tensor-contraction driver
//! standing in for the NWChem computational chemistry suite (§II-A, §VII-C).
//!
//! The paper's application study runs coupled-cluster singles-and-doubles
//! with perturbative triples, CCSD(T), on a water pentamer (w5):
//! `no = 20` occupied and `nv = 435` virtual orbitals, `O(no³nv⁴)` flops
//! over `O(no²nv²)` amplitudes. At the runtime level the calculation is a
//! stream of **tasks** claimed from a shared NXTVAL counter
//! (`GA read_inc`), each performing *get tile → DGEMM → accumulate tile*
//! against Global Arrays — precisely the traffic ARMCI must carry.
//!
//! This crate reproduces that runtime behaviour:
//!
//! * [`ccsd`] — an executable small-scale CCSD-like iteration (the
//!   particle-particle ladder contraction, the dominant `O(no²nv⁴)` term)
//!   and a (T)-like triples energy sweep, both running on real
//!   [`ga::GlobalArray`]s over either ARMCI backend. Synthetic amplitudes
//!   are dyadic rationals so energies are **bit-exact** across backends,
//!   process counts, and tilings — the correctness oracle.
//! * [`profile`] — analytic per-task communication/compute profiles at
//!   full w5 scale, consumed by the `scalesim` discrete-event simulator to
//!   regenerate Figure 6 at 744–12,288 cores.

#![forbid(unsafe_code)]

pub mod ccsd;
pub mod profile;
pub mod tensors;

pub use ccsd::{
    run_ccsd, run_ccsd_pipelined, run_ccsd_skewed, run_triples, CcsdConfig, CcsdResult, CCSD_CHUNK,
};
pub use profile::{nxtval_service, task_profile, Backend, ProxyPhase, TaskProfile};
