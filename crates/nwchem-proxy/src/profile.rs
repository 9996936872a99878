//! Analytic per-task profiles at full problem scale.
//!
//! `scalesim` replays Figure 6 with thousands of logical processes; it
//! needs, per backend and platform, the virtual-time cost of one task's
//! communication and computation plus the NXTVAL service time. Those are
//! derived here from [`simnet`]'s analytic strided costs
//! (`BackendParams::strided_cost`: `DirectStrided` for ARMCI-MPI,
//! `Native` for ARMCI-Native).
//!
//! The executable ARMCI-MPI does not charge the same formula, so the DES
//! and the thread-level simulation do not agree by construction: mpisim
//! prices each RMA operation with its own per-op cost, which charges the
//! full `dtype_seg_overhead` per segment where `DirectStrided` charges
//! half, and waives `dtype_setup` on a committed-datatype cache hit where
//! `DirectStrided` always pays it. Driving the DES from measured
//! executable profiles instead is ROADMAP item 9.

use crate::ccsd::CcsdConfig;
use simnet::{Op, Platform, StridedMethodCost};

/// Which runtime carries the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    ArmciMpi,
    Native,
}

/// Which proxy phase is being profiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProxyPhase {
    Ccsd,
    Triples,
}

/// Cost profile of one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskProfile {
    /// Tasks per iteration.
    pub ntasks: usize,
    /// Origin-side communication time per task, seconds.
    pub comm_time: f64,
    /// Local computation time per task, seconds.
    pub compute_time: f64,
    /// NXTVAL (fetch-and-add) service time at the counter host, seconds.
    pub nxtval_service: f64,
}

/// Strided transfer cost for a 2-D tile of `rows × row_bytes` using the
/// backend's best strided method.
fn tile_cost(
    params: &simnet::BackendParams,
    backend: Backend,
    op: Op,
    rows: usize,
    row_bytes: usize,
) -> f64 {
    let method = match backend {
        Backend::ArmciMpi => StridedMethodCost::DirectStrided,
        Backend::Native => StridedMethodCost::Native,
    };
    params.strided_cost(method, op, rows, row_bytes)
}

/// NXTVAL service time: the time the counter host is occupied per
/// request.
///
/// * Native: the CHT services a hardware fetch-and-add.
/// * ARMCI-MPI: the §V-D mutex protocol — mutex lock epoch, read epoch,
///   write epoch, mutex unlock epoch (four exclusive epochs plus two
///   notification latencies when contended).
pub fn nxtval_service(platform: &Platform, backend: Backend) -> f64 {
    match backend {
        Backend::Native => platform.native.rmw_latency,
        Backend::ArmciMpi => {
            let p = &platform.mpi;
            let epoch = p.epoch_overhead + p.op_overhead + p.put.alpha;
            4.0 * epoch + 2.0 * p.put.alpha
        }
    }
}

/// Builds the per-task profile for a phase.
pub fn task_profile(
    cfg: &CcsdConfig,
    platform: &Platform,
    backend: Backend,
    phase: ProxyPhase,
) -> TaskProfile {
    let params = match backend {
        Backend::ArmciMpi => &platform.mpi,
        Backend::Native => &platform.native,
    };
    let flop_rate = platform.compute.flops_per_core;
    let (to, tv, vt) = (cfg.tile_o, cfg.tile_v, cfg.vt());
    match phase {
        ProxyPhase::Ccsd => {
            // per cd-tile: get V tile (tv² rows × tv²·8 bytes... tiles are
            // 4-D patches; model as (rows = tv·tv) strided gets of tv·8-byte
            // rows for V and (to·to) rows of tv·8 for T, per (c,d) plane.
            let v_get = tile_cost(params, backend, Op::Get, tv * tv * tv, tv * 8);
            let t_get = tile_cost(params, backend, Op::Get, to * to * tv, tv * 8);
            let acc = tile_cost(params, backend, Op::Acc, to * to * tv, tv * 8);
            let comm = (v_get + t_get) * (vt * vt) as f64 + acc;
            TaskProfile {
                ntasks: cfg.ccsd_tasks(),
                comm_time: comm,
                compute_time: cfg.ccsd_task_flops() / flop_rate,
                nxtval_service: nxtval_service(platform, backend),
            }
        }
        ProxyPhase::Triples => {
            // (T) fetches the same V/T tile stream as the ladder (energy
            // only — no accumulates) but performs no·nv² work per
            // amplitude pair, so one sweep is Θ(no³·nv⁴) flops: the
            // compute-dominant (T) character.
            let v_get = tile_cost(params, backend, Op::Get, tv * tv * tv, tv * 8);
            let t_get = tile_cost(params, backend, Op::Get, to * to * tv, tv * 8);
            let comm = (v_get + t_get) * (vt * vt) as f64;
            let amp = (to * to * tv * tv) as f64;
            let flops = amp * 3.0 * (cfg.no * cfg.nv * cfg.nv) as f64;
            TaskProfile {
                ntasks: cfg.ot() * cfg.ot() * cfg.vt() * cfg.vt(),
                comm_time: comm,
                compute_time: flops / flop_rate,
                nxtval_service: nxtval_service(platform, backend),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::PlatformId;

    #[test]
    fn mpi_nxtval_much_slower_than_native() {
        for id in PlatformId::ALL {
            let p = Platform::get(id);
            let mpi = nxtval_service(&p, Backend::ArmciMpi);
            let nat = nxtval_service(&p, Backend::Native);
            assert!(mpi > 2.0 * nat, "{id:?}: mpi {mpi} native {nat}");
        }
    }

    #[test]
    fn triples_has_higher_flop_to_byte_ratio() {
        let cfg = CcsdConfig::w5();
        let p = Platform::get(PlatformId::InfiniBandCluster);
        let c = task_profile(&cfg, &p, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let t = task_profile(&cfg, &p, Backend::ArmciMpi, ProxyPhase::Triples);
        let c_ratio = c.compute_time / c.comm_time;
        let t_ratio = t.compute_time / t.comm_time;
        assert!(t_ratio > c_ratio, "ccsd {c_ratio} triples {t_ratio}");
    }

    #[test]
    fn native_comm_cheaper_on_infiniband() {
        let cfg = CcsdConfig::w5();
        let p = Platform::get(PlatformId::InfiniBandCluster);
        let m = task_profile(&cfg, &p, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let n = task_profile(&cfg, &p, Backend::Native, ProxyPhase::Ccsd);
        assert!(n.comm_time < m.comm_time);
        // compute identical across backends
        assert_eq!(n.compute_time, m.compute_time);
    }

    #[test]
    fn mpi_comm_cheaper_on_cray_xe() {
        let cfg = CcsdConfig::w5();
        let p = Platform::get(PlatformId::CrayXE6);
        let m = task_profile(&cfg, &p, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let n = task_profile(&cfg, &p, Backend::Native, ProxyPhase::Ccsd);
        assert!(
            m.comm_time < n.comm_time,
            "mpi {} native {}",
            m.comm_time,
            n.comm_time
        );
    }
}
