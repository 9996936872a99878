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
//! Since the synchronization-stack refactor the **native path is the
//! default**: [`crate::AtomicsMode`] selects between backend atomics
//! (fetch-and-op / compare-and-swap through the [`crate::Transport`]
//! hooks, with per-backend pricing) and the Latham-mutex protocol, which
//! is kept as `MutexFallback` — the ablation baseline. Every operand is
//! 8 bytes; asking for another width surfaces
//! [`armci::ArmciError::AtomicUnsupported`] instead of a silent software
//! emulation. Atomics quiesce only the in-flight nonblocking work they
//! order against (`ArmciMpi::nb_quiesce_for_atomic`), and the nonblocking
//! variant attaches its completion request to the engine's atomic
//! batches so RMWs ride coalesced/epochless batches (§VIII-B(3)+(4)).

use crate::engine::ExecBuf;
use crate::gmr::Translation;
use crate::{ArmciMpi, AtomicsMode};
use armci::{ArmciError, ArmciResult, GlobalAddr, NbHandle, RmwOp};
use mpisim::mpi3::FetchOp;
use mpisim::{Datatype, LockMode};

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

    pub(crate) fn rmw_impl(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        let tr = self.translate(target, RMW_WIDTH)?;
        self.stat(|s| s.rmws += 1);
        if self.atomics_native() {
            // RMW atomicity is per-location: retire only the in-flight
            // nonblocking work this atomic orders against.
            self.nb_quiesce_for_atomic(tr.gmr, tr.group_rank, tr.disp, tr.disp + RMW_WIDTH)?;
            self.stat(|s| s.rmw_native += 1);
            let old = self.rmw_native(op, &tr)?;
            self.note_atomic(tr.gmr, tr.group_rank, false, true, true);
            Ok(old)
        } else {
            // The mutex protocol's two exclusive epochs conflict with any
            // in-flight nonblocking work on the allocation; quiesce it whole.
            self.nb_quiesce_gmr(tr.gmr)?;
            self.stat(|s| s.rmw_mutex_fallback += 1);
            let old = self.rmw_mutex(op, target)?;
            self.note_atomic(tr.gmr, tr.group_rank, false, false, true);
            Ok(old)
        }
    }

    /// Nonblocking RMW: the fetched value is returned immediately (its
    /// ordering against other atomics is decided at issue), while the
    /// completion round trip joins the engine's atomic batch on
    /// `(gmr, target)` and retires at `ARMCI_Wait`/fence like any other
    /// coalesced operation. Backends whose atomics complete inside their
    /// own bracketing (per-op MPI-2 locks, the mutex protocol) return an
    /// eagerly-completed handle.
    pub fn nb_rmw(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<(i64, NbHandle)> {
        let tr = self.translate(target, RMW_WIDTH)?;
        self.stat(|s| s.rmws += 1);
        if !self.atomics_native() {
            self.nb_quiesce_gmr(tr.gmr)?;
            self.stat(|s| s.rmw_mutex_fallback += 1);
            let old = self.rmw_mutex(op, target)?;
            self.note_atomic(tr.gmr, tr.group_rank, false, false, true);
            return Ok((old, NbHandle::eager()));
        }
        self.nb_quiesce_for_atomic(tr.gmr, tr.group_rank, tr.disp, tr.disp + RMW_WIDTH)?;
        self.stat(|s| s.rmw_native += 1);
        let (x, fop) = fetch_op_of(op);
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&tr.gmr)
            .ok_or_else(|| crate::gmr::gmr_vanished(tr.gmr))?;
        let (old, req) = self
            .tx()
            .rfetch_and_op_i64(&gmr.win, x, tr.group_rank, tr.disp, fop)?;
        drop(gmrs);
        self.note_atomic(tr.gmr, tr.group_rank, false, true, true);
        let handle = if self.tx.epoch_style() == crate::transport::EpochStyle::PerOp {
            // The per-op backend completed inside its own lock/unlock;
            // the request is a zero-length deferral.
            let _ = req;
            NbHandle::eager()
        } else {
            self.nb_attach_atomic(tr.gmr, tr.group_rank, req)
        };
        Ok((old, handle))
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
        let tr = self.translate(target, width)?;
        self.stat(|s| s.rmws += 1);
        let t0 = if obs::enabled() { self.vnow() } else { 0.0 };
        let old = if native {
            self.nb_quiesce_for_atomic(tr.gmr, tr.group_rank, tr.disp, tr.disp + width)?;
            self.stat(|s| s.rmw_native += 1);
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs
                .get(&tr.gmr)
                .ok_or_else(|| crate::gmr::gmr_vanished(tr.gmr))?;
            self.tx()
                .compare_and_swap_i64(&gmr.win, compare, swap, tr.group_rank, tr.disp)?
        } else {
            self.nb_quiesce_gmr(tr.gmr)?;
            self.stat(|s| s.rmw_mutex_fallback += 1);
            self.cas_mutex(compare, swap, target)?
        };
        let success = old == compare;
        if !success {
            self.stat(|s| s.cas_retries += 1);
            if obs::enabled() {
                // A failed CAS is wasted round-trip time the caller will
                // spend again — attribute it to the owning rank.
                let src = {
                    let gmrs = self.gmrs.borrow();
                    gmrs.get(&tr.gmr)
                        .map(|g| g.group.comm().world_rank_of(tr.group_rank) as u32)
                        .unwrap_or(tr.group_rank as u32)
                };
                obs::span(
                    obs::EventKind::Wait {
                        cat: obs::WaitCat::CasRetry,
                        src,
                        obj: tr.gmr,
                    },
                    t0,
                    self.vnow(),
                );
            }
        }
        self.note_atomic(tr.gmr, tr.group_rank, true, native, success);
        Ok(old)
    }

    /// Emits the metrics-only atomic-operation event.
    fn note_atomic(&self, gmr: u64, target: usize, cas: bool, native: bool, success: bool) {
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::AtomicOp {
                    win: gmr,
                    target: target as u32,
                    cas,
                    native,
                    success,
                },
                self.vnow(),
            );
        }
    }

    /// The MPI-2 protocol: per-GMR mutex, read epoch, write epoch.
    fn rmw_mutex(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        self.mutexed_update(target, |old| match op {
            RmwOp::FetchAdd(x) => Some(old.wrapping_add(x)),
            RmwOp::Swap(x) => Some(x),
        })
    }

    /// Compare-and-swap emulated under the Latham mutex: read epoch,
    /// conditional write epoch.
    fn cas_mutex(&self, compare: i64, swap: i64, target: GlobalAddr) -> ArmciResult<i64> {
        self.mutexed_update(target, |old| if old == compare { Some(swap) } else { None })
    }

    /// The shared §V-D construction: GMR mutex around a read epoch and
    /// (if `f` returns a new value) a write epoch, both exclusive.
    fn mutexed_update(
        &self,
        target: GlobalAddr,
        f: impl FnOnce(i64) -> Option<i64>,
    ) -> ArmciResult<i64> {
        let tr = self.translate(target, RMW_WIDTH)?;
        // One mutex per group member, hosted on the member: serialises
        // RMWs per target process without a global bottleneck.
        self.stat(|s| s.mutex_locks += 1);
        {
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs
                .get(&tr.gmr)
                .ok_or_else(|| crate::gmr::gmr_vanished(tr.gmr))?;
            gmr.rmw_mutexes.lock(self.tx(), 0, tr.group_rank)?;
        }
        let result = (|| {
            // Read epoch (always exclusive — the hint system never
            // downgrades the RMW protocol).
            let plan = || {
                let dt = Datatype::contiguous(RMW_WIDTH);
                let mode = |_| Ok(LockMode::Exclusive);
                self.plan_single(target, RMW_WIDTH, mode, dt.clone(), dt, RMW_WIDTH)
            };
            let mut buf = [0u8; RMW_WIDTH];
            let read = plan()?;
            self.run_plans(
                std::slice::from_ref(&read),
                &ExecBuf::Get(buf.as_mut_ptr(), RMW_WIDTH),
            )?;
            let old = i64::from_le_bytes(buf);
            if let Some(new) = f(old) {
                // Write epoch.
                let bytes = new.to_le_bytes();
                let write = plan()?;
                self.run_plans(
                    std::slice::from_ref(&write),
                    &ExecBuf::Put(bytes.as_ptr(), RMW_WIDTH),
                )?;
            }
            Ok(old)
        })();
        // Release the mutex even on error.
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&tr.gmr)
            .ok_or_else(|| crate::gmr::gmr_vanished(tr.gmr))?;
        gmr.rmw_mutexes.unlock(self.tx(), 0, tr.group_rank)?;
        result
    }

    /// The native path: one atomic `fetch_and_op` through the backend's
    /// atomic hooks (a shared epoch on MPI-2, the standing `lock_all` on
    /// MPI-3, the NIC on the channel backend).
    fn rmw_native(&self, op: RmwOp, tr: &Translation) -> ArmciResult<i64> {
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&tr.gmr)
            .ok_or_else(|| crate::gmr::gmr_vanished(tr.gmr))?;
        let (x, fop) = fetch_op_of(op);
        Ok(self
            .tx()
            .fetch_and_op_i64(&gmr.win, x, tr.group_rank, tr.disp, fop)?)
    }
}

/// Maps an ARMCI RMW op onto the MPI-3 fetch-and-op operator.
fn fetch_op_of(op: RmwOp) -> (i64, FetchOp) {
    match op {
        RmwOp::FetchAdd(x) => (x, FetchOp::Sum),
        RmwOp::Swap(x) => (x, FetchOp::Replace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{EpochStyle, MpiRmaTransport, Transport, TransportKind, TransportStats};
    use crate::{Config, ProgressMode};
    use armci::Armci;
    use mpisim::dtype::Datatype;
    use mpisim::mpi3::RmaRequest;
    use mpisim::{
        AccOp, ElemType, MpiError, MpiResult, Proc, RmaClass, Runtime, RuntimeConfig, WinHandle,
    };
    use simnet::{Platform, PlatformId};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Injectable wire faults, shared with the test body: `atomics` fails
    /// every backend atomic while set; `gets_after` lets N get-family
    /// transfers through, fails the next one once, then self-heals (a
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
        fn attach(&self, win: &WinHandle) -> MpiResult<()> {
            self.inner.attach(win)
        }
        fn detach(&self, win: &WinHandle) -> MpiResult<()> {
            self.inner.detach(win)
        }
        fn epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
            self.inner.epoch_begin(win, target, mode)
        }
        fn epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
            self.inner.epoch_end(win, target)
        }
        fn atomic_epoch_begin(
            &self,
            win: &WinHandle,
            target: usize,
            mode: LockMode,
        ) -> MpiResult<()> {
            self.inner.atomic_epoch_begin(win, target, mode)
        }
        fn atomic_epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
            self.inner.atomic_epoch_end(win, target)
        }
        fn put(
            &self,
            win: &WinHandle,
            origin: &[u8],
            odt: &Datatype,
            target: usize,
            tdisp: usize,
            tdt: &Datatype,
        ) -> MpiResult<()> {
            self.inner.put(win, origin, odt, target, tdisp, tdt)
        }
        fn get(
            &self,
            win: &WinHandle,
            origin: &mut [u8],
            odt: &Datatype,
            target: usize,
            tdisp: usize,
            tdt: &Datatype,
        ) -> MpiResult<()> {
            self.faults.get_ok()?;
            self.inner.get(win, origin, odt, target, tdisp, tdt)
        }
        fn accumulate(
            &self,
            win: &WinHandle,
            origin: &[u8],
            odt: &Datatype,
            target: usize,
            tdisp: usize,
            tdt: &Datatype,
            elem: ElemType,
            op: AccOp,
        ) -> MpiResult<()> {
            self.inner
                .accumulate(win, origin, odt, target, tdisp, tdt, elem, op)
        }
        fn stage_put(
            &self,
            win: &WinHandle,
            origin: &[u8],
            target: usize,
            pieces: &[(usize, usize, usize)],
        ) -> MpiResult<()> {
            self.inner.stage_put(win, origin, target, pieces)
        }
        fn stage_get(
            &self,
            win: &WinHandle,
            origin: &mut [u8],
            target: usize,
            pieces: &[(usize, usize, usize)],
        ) -> MpiResult<()> {
            self.faults.get_ok()?;
            self.inner.stage_get(win, origin, target, pieces)
        }
        fn stage_acc(
            &self,
            win: &WinHandle,
            origin: &[u8],
            target: usize,
            pieces: &[(usize, usize, usize)],
            elem: ElemType,
            op: AccOp,
        ) -> MpiResult<()> {
            self.inner.stage_acc(win, origin, target, pieces, elem, op)
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
        fn fetch_and_op_i64(
            &self,
            win: &WinHandle,
            operand: i64,
            target: usize,
            tdisp: usize,
            op: FetchOp,
        ) -> MpiResult<i64> {
            self.faults.atomic_ok()?;
            self.inner.fetch_and_op_i64(win, operand, target, tdisp, op)
        }
        fn compare_and_swap_i64(
            &self,
            win: &WinHandle,
            compare: i64,
            swap: i64,
            target: usize,
            tdisp: usize,
        ) -> MpiResult<i64> {
            self.faults.atomic_ok()?;
            self.inner
                .compare_and_swap_i64(win, compare, swap, target, tdisp)
        }
        fn rfetch_and_op_i64(
            &self,
            win: &WinHandle,
            operand: i64,
            target: usize,
            tdisp: usize,
            op: FetchOp,
        ) -> MpiResult<(i64, RmaRequest)> {
            self.faults.atomic_ok()?;
            self.inner
                .rfetch_and_op_i64(win, operand, target, tdisp, op)
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
                assert!(rt.nb_rmw(RmwOp::FetchAdd(1), t).is_err());
                faults.atomics.set(false);
                rt.wait(h).unwrap();
                // No leaked epoch or queue slot: everything still works,
                // and the failed attempts mutated nothing.
                assert_eq!(rt.rmw(RmwOp::FetchAdd(1), t).unwrap(), 1);
                let (old, h) = rt.nb_rmw(RmwOp::FetchAdd(1), t).unwrap();
                assert_eq!(old, 2);
                rt.wait(h).unwrap();
                let h = rt.nb_put(&[3u8; 8], t.offset(64)).unwrap();
                rt.wait(h).unwrap();
                let mut buf = [0u8; 8];
                rt.get(t, &mut buf).unwrap();
                assert_eq!(i64::from_le_bytes(buf), 3);
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
