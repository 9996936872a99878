//! Read-modify-write operations (§V-D vs §VIII-B).
//!
//! MPI-2 offers no atomic read-modify-write, and a get + put of the same
//! location within one epoch is erroneous (conflicting accesses). The only
//! standard-conforming construction is therefore **mutex + two epochs**:
//! acquire the GMR's mutex for the target, read in one exclusive epoch,
//! write the updated value in a second, release the mutex. The paper calls
//! this out as a high-latency path and motivates MPI-3's `fetch_and_op`
//! (§VIII-B).
//!
//! Every RMW — `ARMCI_Rmw`'s fetch-and-add and swap, and the
//! compare-and-swap extension — enters through one front door,
//! `ArmciMpi::atomic`, as an MPI-3 [`CellOp`]. The **native path is the
//! default**: [`crate::AtomicsMode`] selects between the wire backend's
//! atomic ([`crate::Transport::atomic`], with per-backend pricing) and the
//! Latham-mutex protocol, which is kept as `MutexFallback` — the ablation
//! baseline. Every operand is 8 bytes; asking for another width surfaces
//! [`armci::ArmciError::AtomicUnsupported`] instead of a silent software
//! emulation. Atomics complete before they return and quiesce only the
//! in-flight nonblocking work they order against
//! (`ArmciMpi::nb_quiesce_for_atomic`).

use crate::gmr::Translation;
use crate::{ArmciMpi, AtomicsMode};
use armci::{ArmciError, ArmciResult, GlobalAddr, RmwOp};
use mpisim::mpi3::{CellOp, FetchOp};
use mpisim::{Datatype, LockMode, Origin};

/// Width in bytes of every `ARMCI_Rmw` operand.
const RMW_WIDTH: usize = 8;

impl ArmciMpi {
    /// Whether RMWs take the backend's native atomics (`false` = the
    /// Latham mutex protocol).
    fn atomics_native(&self) -> bool {
        self.cfg.atomics == AtomicsMode::Native
    }

    /// The atomics mode as a provenance string for benchmarks and reports.
    pub fn atomics_mode_name(&self) -> &'static str {
        if self.atomics_native() {
            "native"
        } else {
            "mutex"
        }
    }

    /// `ARMCI_Rmw`: fetch-and-add or swap of the 8-byte integer at
    /// `target`.
    pub(crate) fn rmw_impl(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        self.atomic(cell_op(op), target, RMW_WIDTH)
    }

    /// ARMCI extension: atomic compare-and-swap of a `width`-byte
    /// integer at `target` — if the current value equals `compare`,
    /// stores `swap`; returns the value observed either way. Any width but
    /// 8 surfaces [`ArmciError::AtomicUnsupported`]; under
    /// `MutexFallback` the operation is emulated with the Latham mutex
    /// (same semantics, mutex pricing).
    pub fn compare_and_swap(
        &self,
        compare: i64,
        swap: i64,
        target: GlobalAddr,
        width: usize,
    ) -> ArmciResult<i64> {
        self.atomic(CellOp::CompareAndSwap { compare, swap }, target, width)
    }

    /// The one RMW path: applies `op` to the `width`-byte cell at
    /// `target` through the backend's atomic or, under `MutexFallback`,
    /// the Latham mutex protocol, and returns the cell's old value. A
    /// compare that misses counts as a CAS retry.
    fn atomic(&self, op: CellOp, target: GlobalAddr, width: usize) -> ArmciResult<i64> {
        // Backend atomics and the mutex emulation both work on 8-byte
        // cells; other widths are the unpriceable case the error exists
        // for.
        if width != RMW_WIDTH {
            return Err(ArmciError::AtomicUnsupported {
                backend: self.tx.name(),
                width,
            });
        }
        let native = self.atomics_native();
        let tr = self.space.translate(target, width)?;
        self.stat(|s| s.rmws += 1);
        let t0 = if obs::enabled() { self.vnow() } else { 0.0 };
        let old = if native {
            // RMW atomicity is per-location: retire only the in-flight
            // nonblocking work this atomic orders against.
            self.nb_quiesce_for_atomic(tr.alloc, tr.group_rank, tr.disp, tr.disp + width)?;
            self.stat(|s| s.rmw_native += 1);
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs.get(tr.alloc)?;
            self.tx().atomic(&gmr.win, op, tr.group_rank, tr.disp)?
        } else {
            // The mutex protocol's two exclusive epochs conflict with any
            // in-flight nonblocking work on the allocation; quiesce it whole.
            self.nb_quiesce_gmr(tr.alloc)?;
            self.stat(|s| s.rmw_mutex_fallback += 1);
            self.mutexed_update(op, target, &tr)?
        };
        let (cas, success) = match op {
            CellOp::CompareAndSwap { compare, .. } => (true, old == compare),
            CellOp::Fetch(..) => (false, true),
        };
        if !success {
            self.stat(|s| s.cas_retries += 1);
            if obs::enabled() {
                // A failed CAS is wasted round-trip time the caller will
                // spend again — attribute it to the owning rank.
                let src = {
                    let gmrs = self.gmrs.borrow();
                    gmrs.get(tr.alloc)
                        .map(|g| g.group.comm().world_rank_of(tr.group_rank) as u32)
                        .unwrap_or(tr.group_rank as u32)
                };
                obs::span(
                    obs::EventKind::Wait {
                        cat: obs::WaitCat::CasRetry,
                        src,
                        obj: tr.alloc.id,
                    },
                    t0,
                    self.vnow(),
                );
            }
        }
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::AtomicOp {
                    win: tr.alloc.id,
                    target: tr.group_rank as u32,
                    cas,
                    native,
                    success,
                },
                self.vnow(),
            );
        }
        Ok(old)
    }

    /// The §V-D construction: GMR mutex around a read epoch and (unless
    /// `op` leaves the cell untouched) a write epoch, both exclusive.
    fn mutexed_update(&self, op: CellOp, target: GlobalAddr, tr: &Translation) -> ArmciResult<i64> {
        // One mutex per group member, hosted on the member: serialises
        // RMWs per target process without a global bottleneck.
        self.stat(|s| s.mutex_locks += 1);
        {
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs.get(tr.alloc)?;
            gmr.rmw_mutexes.lock(self.tx(), 0, tr.group_rank)?;
        }
        let result = (|| {
            // Read epoch (always exclusive — the hint system never
            // downgrades the RMW protocol).
            let plan = || {
                let dt = Datatype::contiguous(RMW_WIDTH);
                let mode = |_: &_| Ok(LockMode::Exclusive);
                self.plan_single(target, RMW_WIDTH, mode, dt.clone(), dt, RMW_WIDTH)
            };
            let mut buf = [0u8; RMW_WIDTH];
            let read = plan()?;
            self.run_plans(std::slice::from_ref(&read), &mut Origin::Get(&mut buf))?;
            let old = i64::from_le_bytes(buf);
            if let Some(new) = op.stored(old) {
                // Write epoch.
                let bytes = new.to_le_bytes();
                let write = plan()?;
                self.run_plans(std::slice::from_ref(&write), &mut Origin::Put(&bytes))?;
            }
            Ok(old)
        })();
        // Release the mutex even on error.
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(tr.alloc)?;
        gmr.rmw_mutexes.unlock(self.tx(), 0, tr.group_rank)?;
        result
    }
}

/// Maps an ARMCI RMW op onto the MPI-3 fetch-and-op cell update.
fn cell_op(op: RmwOp) -> CellOp {
    match op {
        RmwOp::FetchAdd(x) => CellOp::Fetch(FetchOp::Sum, x),
        RmwOp::Swap(x) => CellOp::Fetch(FetchOp::Replace, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{
        EpochStyle, MpiRmaTransport, Origin, Transport, TransportKind, TransportStats,
    };
    use crate::{Config, ProgressMode};
    use armci::Armci;
    use mpisim::{MpiError, MpiResult, Proc, RmaClass, Runtime, RuntimeConfig, WinHandle};
    use simnet::{Platform, PlatformId};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Injectable wire faults, shared with the test body: `atomics` fails
    /// every backend atomic while set; `gets_after` lets N blocking gets
    /// through, fails the next one once, then self-heals (a
    /// transient wire blip mid-protocol).
    #[derive(Default)]
    struct Faults {
        atomics: Cell<bool>,
        gets_after: Cell<Option<u32>>,
    }

    impl Faults {
        fn get_ok(&self) -> MpiResult<()> {
            match self.gets_after.get() {
                Some(0) => {
                    self.gets_after.set(None);
                    Err(MpiError::WinFreed)
                }
                Some(n) => {
                    self.gets_after.set(Some(n - 1));
                    Ok(())
                }
                None => Ok(()),
            }
        }

        fn atomic_ok(&self) -> MpiResult<()> {
            if self.atomics.get() {
                Err(MpiError::WinFreed)
            } else {
                Ok(())
            }
        }
    }

    /// A wire backend that delegates to a real one but loses atomics /
    /// gets on command — the "backend lost mid-rmw" scenario, symmetric
    /// to the mid-lock loss test in [`crate::mutex`].
    struct LossyTransport {
        inner: Box<dyn Transport>,
        faults: Rc<Faults>,
    }

    impl Transport for LossyTransport {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn epoch_style(&self) -> EpochStyle {
            self.inner.epoch_style()
        }
        fn transfer(
            &self,
            win: &WinHandle,
            origin: Origin<'_>,
            odt: &Datatype,
            target: usize,
            tdisp: usize,
            tdt: &Datatype,
        ) -> MpiResult<()> {
            if let Origin::Get(_) = origin {
                self.faults.get_ok()?;
            }
            self.inner.transfer(win, origin, odt, target, tdisp, tdt)
        }
        fn issue_merged(
            &self,
            win: &WinHandle,
            class: RmaClass,
            target: usize,
            segs: &[(usize, usize)],
        ) -> MpiResult<f64> {
            self.inner.issue_merged(win, class, target, segs)
        }
        fn atomic(
            &self,
            win: &WinHandle,
            op: CellOp,
            target: usize,
            tdisp: usize,
        ) -> MpiResult<i64> {
            self.faults.atomic_ok()?;
            self.inner.atomic(win, op, target, tdisp)
        }
        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
    }

    /// Runtime with one rank per node and no clock charging.
    fn netcfg() -> RuntimeConfig {
        let mut platform = Platform::get(PlatformId::InfiniBandCluster).customized("rmw-loss");
        platform.sockets_per_node = 1;
        platform.cores_per_socket = 1;
        RuntimeConfig {
            platform,
            charge_time: false,
            ..Default::default()
        }
    }

    /// Builds the runtime and splices the fault-injecting wrapper around
    /// its wire backend.
    fn lossy_runtime(p: &Proc, cfg: Config) -> (ArmciMpi, Rc<Faults>) {
        let mut rt = ArmciMpi::with_config(p, cfg);
        let faults = Rc::new(Faults::default());
        let placeholder: Box<dyn Transport> = Box::new(MpiRmaTransport { epochless: false });
        let inner = std::mem::replace(&mut rt.tx, placeholder);
        rt.tx = Box::new(LossyTransport {
            inner,
            faults: faults.clone(),
        });
        (rt, faults)
    }

    /// The native-path symmetric of the mid-lock loss test: a backend
    /// loss mid-rmw must surface as an error and leak neither epochs nor
    /// nonblocking queue slots — subsequent atomics, nonblocking work and
    /// data epochs on the same target must all still succeed.
    fn native_loss_scenario(cfg: Config) {
        Runtime::run_with(2, netcfg(), move |p: &Proc| {
            let (rt, faults) = lossy_runtime(p, cfg.clone());
            let bases = rt.malloc(256).unwrap();
            rt.barrier();
            if p.rank() == 0 {
                let t = bases[1];
                assert_eq!(rt.atomics_mode_name(), "native");
                assert_eq!(rt.rmw(RmwOp::FetchAdd(1), t).unwrap(), 0);
                // Nonblocking traffic on a disjoint range of the same
                // allocation: it must survive the failed atomic next to it.
                let h = rt.nb_put(&[7u8; 32], t.offset(64)).unwrap();
                faults.atomics.set(true);
                assert!(rt.rmw(RmwOp::FetchAdd(1), t).is_err());
                assert!(rt.compare_and_swap(1, 9, t, 8).is_err());
                faults.atomics.set(false);
                rt.wait(h).unwrap();
                // No leaked epoch or queue slot: everything still works,
                // and the failed attempts mutated nothing.
                assert_eq!(rt.rmw(RmwOp::FetchAdd(1), t).unwrap(), 1);
                let h = rt.nb_put(&[3u8; 8], t.offset(64)).unwrap();
                rt.wait(h).unwrap();
                let mut buf = [0u8; 8];
                rt.get(t, &mut buf).unwrap();
                assert_eq!(i64::from_le_bytes(buf), 2);
            }
            rt.barrier();
            rt.free(bases[p.rank()]).unwrap();
        });
    }

    #[test]
    fn backend_loss_mid_rmw_mpi_rma() {
        native_loss_scenario(Config {
            shm: false,
            ..Default::default()
        });
    }

    #[test]
    fn backend_loss_mid_rmw_mpi_rma_epochless() {
        native_loss_scenario(Config {
            shm: false,
            epochless: true,
            ..Default::default()
        });
    }

    #[test]
    fn backend_loss_mid_rmw_channel() {
        native_loss_scenario(Config {
            shm: false,
            transport: TransportKind::Channel,
            ..Default::default()
        });
    }

    #[test]
    fn backend_loss_mid_mutex_rmw_releases_mutex_and_epochs() {
        // The fallback-path symmetric: the wire blips during the data
        // epochs *inside* the held mutex. The error must surface and the
        // mutex queue slot plus the exclusive data epoch must both be
        // released, or the retry would wedge.
        let cfg = Config {
            shm: false,
            atomics: AtomicsMode::MutexFallback,
            ..Default::default()
        };
        Runtime::run_with(2, netcfg(), move |p: &Proc| {
            let (rt, faults) = lossy_runtime(p, cfg.clone());
            let bases = rt.malloc(256).unwrap();
            rt.barrier();
            if p.rank() == 0 {
                let t = bases[1];
                assert_eq!(rt.atomics_mode_name(), "mutex");
                assert_eq!(rt.rmw(RmwOp::FetchAdd(1), t).unwrap(), 0);
                // Let the lock protocol's snapshot get through, then fail
                // the read epoch's transfer mid-rmw.
                faults.gets_after.set(Some(1));
                assert!(rt.rmw(RmwOp::FetchAdd(1), t).is_err());
                // The blip healed; a leaked mutex slot or epoch would
                // wedge or error this retry.
                assert_eq!(rt.rmw(RmwOp::FetchAdd(1), t).unwrap(), 1);
                assert_eq!(rt.stats().mutex_locks, 3);
            }
            rt.barrier();
            rt.free(bases[p.rank()]).unwrap();
        });
    }

    /// Like [`netcfg`] but with real virtual-time charging, so the
    /// progress agent has busy profiles to price while the wire blips.
    fn timedcfg() -> RuntimeConfig {
        RuntimeConfig {
            charge_time: true,
            ..netcfg()
        }
    }

    #[test]
    fn backend_loss_mid_agent_drain_releases_epochs() {
        // The agent-mode symmetric of the scenarios above: the wire
        // blips while the per-node progress agent is actively draining
        // against a busy target. The error must surface and the agent
        // must leak neither the epoch nor a nonblocking queue slot —
        // blocking, atomic and queued traffic must all still flow (and
        // still be agent-routed) after the blip heals.
        let cfg = Config {
            shm: false,
            progress: ProgressMode::Agent,
            ..Default::default()
        };
        Runtime::run_with(2, timedcfg(), move |p: &Proc| {
            let (rt, faults) = lossy_runtime(p, cfg.clone());
            let bases = rt.malloc(256).unwrap();
            assert_eq!(rt.progress_mode_name(), "agent");
            // Both ranks bank compute so the barrier publishes busy
            // profiles — the agent coupling is hot on the ops below.
            p.compute(50e-6);
            rt.barrier();
            if p.rank() == 0 {
                let t = bases[1];
                let h = rt.nb_put(&[7u8; 32], t.offset(64)).unwrap();
                faults.gets_after.set(Some(0));
                let mut buf = [0u8; 8];
                assert!(rt.get(t, &mut buf).is_err());
                faults.atomics.set(true);
                assert!(rt.rmw(RmwOp::FetchAdd(1), t).is_err());
                faults.atomics.set(false);
                rt.wait(h).unwrap();
                assert_eq!(rt.rmw(RmwOp::FetchAdd(1), t).unwrap(), 0);
                rt.get(t.offset(64), &mut buf).unwrap();
                assert_eq!(buf, [7u8; 8]);
            }
            rt.barrier();
            rt.free(bases[p.rank()]).unwrap();
        });
    }

    /// Asking any backend for a CAS width it cannot price must surface
    /// [`ArmciError::AtomicUnsupported`] — never a silent software
    /// emulation with a different atomicity domain.
    fn assert_width_unsupported(cfg: Config) {
        Runtime::run_with(2, netcfg(), move |p: &Proc| {
            let (rt, _faults) = lossy_runtime(p, cfg.clone());
            let bases = rt.malloc(64).unwrap();
            rt.barrier();
            if p.rank() == 0 {
                match rt.compare_and_swap(0, 1, bases[1], 4) {
                    Err(ArmciError::AtomicUnsupported { width: 4, backend }) => {
                        assert!(!backend.is_empty());
                    }
                    other => panic!("expected AtomicUnsupported, got {other:?}"),
                }
                // The supported width still works on the same runtime.
                assert_eq!(rt.compare_and_swap(0, 1, bases[1], 8).unwrap(), 0);
            }
            rt.barrier();
            rt.free(bases[p.rank()]).unwrap();
        });
    }

    #[test]
    fn unsupported_cas_width_mpi_rma() {
        assert_width_unsupported(Config {
            shm: false,
            ..Default::default()
        });
    }

    #[test]
    fn unsupported_cas_width_channel() {
        assert_width_unsupported(Config {
            shm: false,
            transport: TransportKind::Channel,
            ..Default::default()
        });
    }

    #[test]
    fn unsupported_cas_width_mutex_fallback() {
        assert_width_unsupported(Config {
            shm: false,
            atomics: AtomicsMode::MutexFallback,
            ..Default::default()
        });
    }
}
