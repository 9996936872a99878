//! Figure 6 series generation: NWChem CCSD and (T) execution time versus
//! core count, for ARMCI-MPI and ARMCI-Native on all four platforms.
//!
//! Beyond the per-task profile two scale effects are modelled here:
//!
//! * **Target serialisation under exclusive epochs.** ARMCI-MPI (without
//!   the §VIII-A access-mode hints) must lock every target exclusively, so
//!   concurrent gets of the same hot integral blocks queue behind one
//!   another, while native RDMA reads proceed concurrently. With uniform
//!   traffic each target's utilisation equals the communication fraction
//!   ρ = comm/(comm+compute); M/M/1-style waiting inflates effective
//!   communication time by `1/(1 - 0.7·ρ)`. This term is what produces
//!   the ~2× application-level gap on InfiniBand (paper §VII-D) although
//!   the raw bandwidth gap is smaller, and it shrinks where compute
//!   dominates — exactly the (T) behaviour.
//! * **Dev-release congestion on the Cray XE6 native port** — the
//!   quadratic comm degradation of [`crate::SimConfig::congestion_scale`],
//!   reproducing the native XE curves that flatten for (T) and worsen for
//!   CCSD at high core counts while ARMCI-MPI keeps improving.

use crate::{simulate, simulate_sharded, SimConfig};
use nwchem_proxy::{task_profile, Backend, CcsdConfig, ProxyPhase};
use simnet::{Platform, PlatformId};

/// One point of a Figure 6 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    pub cores: usize,
    pub minutes: f64,
}

/// The proxy configuration used for Figure 6 (w5 at production tiling).
pub fn fig6_config() -> CcsdConfig {
    CcsdConfig {
        no: 20,
        nv: 435,
        tile_o: 5,
        tile_v: 15,
        iterations: 10,
    }
}

/// Core counts plotted per platform (from the paper's x-axes; Blue Gene/P
/// is plotted in nodes × 4 cores).
pub fn core_counts(id: PlatformId) -> Vec<usize> {
    match id {
        PlatformId::BlueGeneP => vec![256 * 4, 512 * 4, 768 * 4, 1024 * 4],
        PlatformId::InfiniBandCluster => vec![192, 224, 256, 288, 320, 352, 384],
        PlatformId::CrayXT5 => vec![1536, 3072, 6144, 9216, 12288],
        PlatformId::CrayXE6 => vec![744, 1488, 2232, 2976, 3720, 4464, 5208, 5952],
    }
}

/// Which phases the paper plots per platform.
pub fn phases(id: PlatformId) -> Vec<ProxyPhase> {
    match id {
        PlatformId::InfiniBandCluster | PlatformId::CrayXE6 => {
            vec![ProxyPhase::Ccsd, ProxyPhase::Triples]
        }
        _ => vec![ProxyPhase::Ccsd],
    }
}

/// Exclusive-epoch target-serialisation multiplier for ARMCI-MPI.
/// `coeff` is the fraction of a target's utilisation that actually
/// blocks remote service: 0.7 when the host CPU must enter the MPI
/// library, collapsing to the agent's residual contention share when a
/// per-node progress agent drains passive-target traffic instead.
fn target_serialisation(comm: f64, compute: f64, coeff: f64) -> f64 {
    let rho = comm / (comm + compute);
    1.0 / (1.0 - coeff * rho)
}

/// Host-side utilisation coefficient without asynchronous progress.
const HOST_SERIAL_COEFF: f64 = 0.7;

/// The XE6 native port's congestion scale (cores); other combinations are
/// congestion-free.
fn congestion(id: PlatformId, backend: Backend) -> Option<f64> {
    match (id, backend) {
        (PlatformId::CrayXE6, Backend::Native) => Some(2000.0),
        _ => None,
    }
}

/// Ablation switches for ARMCI-MPI (paper §VIII).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig6Opts {
    /// §VIII-A access-mode hints: integral/amplitude arrays marked
    /// read-only / accumulate-only, so shared locks replace exclusive
    /// epochs and the target-serialisation penalty disappears.
    pub access_modes: bool,
    /// §VIII-B MPI-3 atomics: NXTVAL served by `fetch_and_op` instead of
    /// the mutex protocol.
    pub mpi3_rmw: bool,
    /// Sharded NXTVAL (`armci_mpi::NxtvalCounter`) with this refill
    /// block: node peers claim tickets from a per-node shard at slab
    /// atomic cost and the home counter serves one refill per block.
    /// Implies native home atomics (the shard protocol is CAS-based).
    pub nxtval_shard: Option<usize>,
    /// Per-node asynchronous progress agent (`ProgressMode::Agent`,
    /// Casper / Zhou & Gracia style): passive-target service no longer
    /// waits on the target host entering MPI, so the serialisation
    /// coefficient collapses to the agent's residual contention share —
    /// but every op pays the node's agent round (forward + service,
    /// inflated by host fan-in) and each node gives up one core to the
    /// agent. Helps where serialisation dominates (CCSD), taxes where
    /// compute does ((T)).
    pub progress_agent: bool,
}

/// Computes one Figure 6 point with explicit ablation options.
pub fn point_with(
    platform: &Platform,
    backend: Backend,
    phase: ProxyPhase,
    cores: usize,
    opts: Fig6Opts,
) -> Fig6Point {
    let cfg = fig6_config();
    let prof = task_profile(&cfg, platform, backend, phase);
    let agent = opts.progress_agent && backend == Backend::ArmciMpi;
    let cpn = platform.cores_per_node() as usize;
    let comm = match backend {
        Backend::ArmciMpi if !opts.access_modes => {
            let coeff = if agent {
                HOST_SERIAL_COEFF * platform.progress.host_contention
            } else {
                HOST_SERIAL_COEFF
            };
            prof.comm_time * target_serialisation(prof.comm_time, prof.compute_time, coeff)
        }
        _ => prof.comm_time,
    };
    // The agent's price: one service round per task's communication plus
    // one core per node handed to the agent.
    let comm = if agent {
        comm + platform.progress.round_cost(cpn)
    } else {
        comm
    };
    let workers = if agent {
        (cores - cores.div_ceil(cpn)).max(1)
    } else {
        cores
    };
    let sharded = opts.nxtval_shard.filter(|_| backend == Backend::ArmciMpi);
    let nxtval = if (opts.mpi3_rmw || sharded.is_some()) && backend == Backend::ArmciMpi {
        platform.mpi.rmw_latency
    } else {
        prof.nxtval_service
    };
    let iterations = match phase {
        ProxyPhase::Ccsd => cfg.iterations,
        ProxyPhase::Triples => 1,
    };
    let sim = SimConfig {
        nprocs: workers,
        ntasks: prof.ntasks,
        task_compute: prof.compute_time,
        task_comm: comm,
        nxtval_service: nxtval,
        nxtval_latency: 2.0 * nxtval,
        congestion_scale: congestion(platform.id, backend),
        startup: 0.05,
        iterations,
    };
    let res = match sharded {
        Some(block) => simulate_sharded(
            &sim,
            &crate::ShardedCounter {
                ranks_per_node: platform.cores_per_node() as usize,
                block,
                shard_service: platform.shm.atomic_cost(),
                shard_latency: 2.0 * platform.shm.atomic_cost(),
            },
        ),
        None => simulate(&sim),
    };
    Fig6Point {
        cores,
        minutes: res.makespan / 60.0,
    }
}

/// Computes one Figure 6 point (paper configuration: no §VIII extensions).
pub fn point(platform: &Platform, backend: Backend, phase: ProxyPhase, cores: usize) -> Fig6Point {
    point_with(platform, backend, phase, cores, Fig6Opts::default())
}

/// ARMCI-MPI series with ablation options.
pub fn series_with(id: PlatformId, phase: ProxyPhase, opts: Fig6Opts) -> Vec<Fig6Point> {
    let platform = Platform::get(id);
    core_counts(id)
        .into_iter()
        .map(|c| point_with(&platform, Backend::ArmciMpi, phase, c, opts))
        .collect()
}

/// A full series for one platform/backend/phase.
pub fn series(id: PlatformId, backend: Backend, phase: ProxyPhase) -> Vec<Fig6Point> {
    let platform = Platform::get(id);
    core_counts(id)
        .into_iter()
        .map(|c| point(&platform, backend, phase, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_ratio(id: PlatformId, phase: ProxyPhase) -> (Vec<Fig6Point>, Vec<Fig6Point>, f64) {
        let mpi = series(id, Backend::ArmciMpi, phase);
        let nat = series(id, Backend::Native, phase);
        let r = mpi[0].minutes / nat[0].minutes;
        (mpi, nat, r)
    }

    #[test]
    fn all_series_have_positive_times() {
        for id in PlatformId::ALL {
            for phase in phases(id) {
                for backend in [Backend::ArmciMpi, Backend::Native] {
                    for p in series(id, backend, phase) {
                        assert!(p.minutes > 0.0, "{id:?} {backend:?} {phase:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ccsd_time_decreases_with_cores_for_mpi_everywhere() {
        for id in PlatformId::ALL {
            let s = series(id, Backend::ArmciMpi, ProxyPhase::Ccsd);
            for w in s.windows(2) {
                assert!(
                    w[1].minutes <= w[0].minutes * 1.02,
                    "{id:?}: {} cores {:.2} min → {} cores {:.2} min",
                    w[0].cores,
                    w[0].minutes,
                    w[1].cores,
                    w[1].minutes
                );
            }
        }
    }

    #[test]
    fn infiniband_native_wins_ccsd_by_sizeable_factor() {
        let (_, _, r) = last_ratio(PlatformId::InfiniBandCluster, ProxyPhase::Ccsd);
        assert!(r > 1.4 && r < 3.0, "IB CCSD mpi/native ratio {r}");
    }

    #[test]
    fn infiniband_triples_gap_smaller_than_ccsd_gap() {
        let (_, _, rc) = last_ratio(PlatformId::InfiniBandCluster, ProxyPhase::Ccsd);
        let (_, _, rt) = last_ratio(PlatformId::InfiniBandCluster, ProxyPhase::Triples);
        assert!(rt < rc, "triples ratio {rt} vs ccsd ratio {rc}");
        assert!(rt > 0.9, "triples should not flip on IB: {rt}");
    }

    #[test]
    fn blue_gene_is_comparable() {
        let (_, _, r) = last_ratio(PlatformId::BlueGeneP, ProxyPhase::Ccsd);
        assert!(r > 0.95 && r < 1.5, "BG/P CCSD ratio {r}");
    }

    #[test]
    fn cray_xt_mpi_modestly_slower() {
        let (_, _, r) = last_ratio(PlatformId::CrayXT5, ProxyPhase::Ccsd);
        assert!(r > 1.05 && r < 1.6, "XT5 CCSD ratio {r}");
    }

    #[test]
    fn cray_xe_mpi_wins_and_native_worsens_at_scale() {
        let mpi = series(PlatformId::CrayXE6, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let nat = series(PlatformId::CrayXE6, Backend::Native, ProxyPhase::Ccsd);
        // ARMCI-MPI faster at every plotted point
        for (m, n) in mpi.iter().zip(&nat) {
            assert!(m.minutes < n.minutes, "{} cores", m.cores);
        }
        // ARMCI-MPI keeps improving to the end
        assert!(mpi.last().unwrap().minutes < mpi[0].minutes);
        // the native curve turns around (worsens) at high core counts
        let min_nat = nat.iter().map(|p| p.minutes).fold(f64::INFINITY, f64::min);
        let last_nat = nat.last().unwrap().minutes;
        assert!(
            last_nat > 1.2 * min_nat,
            "native XE should worsen: min {min_nat} last {last_nat}"
        );
    }

    #[test]
    fn cray_xe_triples_native_flattens_while_mpi_improves() {
        let mpi = series(PlatformId::CrayXE6, Backend::ArmciMpi, ProxyPhase::Triples);
        let nat = series(PlatformId::CrayXE6, Backend::Native, ProxyPhase::Triples);
        let mpi_gain = mpi[0].minutes / mpi.last().unwrap().minutes;
        let nat_gain = nat[0].minutes / nat.last().unwrap().minutes;
        assert!(
            mpi_gain > nat_gain,
            "mpi gain {mpi_gain} vs native {nat_gain}"
        );
    }

    #[test]
    fn access_modes_close_most_of_the_infiniband_gap() {
        // §VIII-A ablation: with read-only/accumulate-only hints the
        // exclusive-epoch serialisation vanishes and ARMCI-MPI approaches
        // the raw-bandwidth gap.
        let id = PlatformId::InfiniBandCluster;
        let std = series(id, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let hinted = series_with(
            id,
            ProxyPhase::Ccsd,
            Fig6Opts {
                access_modes: true,
                mpi3_rmw: false,
                nxtval_shard: None,
                progress_agent: false,
            },
        );
        let nat = series(id, Backend::Native, ProxyPhase::Ccsd);
        let gap_std = std[0].minutes / nat[0].minutes;
        let gap_hinted = hinted[0].minutes / nat[0].minutes;
        assert!(
            gap_hinted < gap_std,
            "hints should help: {gap_hinted} vs {gap_std}"
        );
        assert!(
            gap_hinted < 1.4,
            "hinted gap should be near raw bandwidth: {gap_hinted}"
        );
    }

    #[test]
    fn mpi3_rmw_matters_only_when_counter_contended() {
        // At moderate scale the NXTVAL server is uncontended and MPI-3
        // atomics barely move the needle; they are insurance at scale.
        let id = PlatformId::CrayXT5;
        let std = series(id, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let fast = series_with(
            id,
            ProxyPhase::Ccsd,
            Fig6Opts {
                access_modes: false,
                mpi3_rmw: true,
                nxtval_shard: None,
                progress_agent: false,
            },
        );
        for (a, b) in std.iter().zip(&fast) {
            assert!(b.minutes <= a.minutes * 1.001, "mpi3 rmw must not hurt");
        }
    }

    #[test]
    fn progress_agent_collapses_serialisation_on_infiniband_ccsd() {
        // Agent ablation: with passive-target service offloaded to the
        // per-node agent, the exclusive-epoch serialisation collapses to
        // the agent's residual contention and ARMCI-MPI closes most of
        // the CCSD gap — despite donating one core per node.
        let id = PlatformId::InfiniBandCluster;
        let std = series(id, Backend::ArmciMpi, ProxyPhase::Ccsd);
        let agented = series_with(
            id,
            ProxyPhase::Ccsd,
            Fig6Opts {
                progress_agent: true,
                ..Fig6Opts::default()
            },
        );
        let nat = series(id, Backend::Native, ProxyPhase::Ccsd);
        for (a, s) in agented.iter().zip(&std) {
            assert!(a.minutes < s.minutes, "{} cores", a.cores);
        }
        let gap_std = std[0].minutes / nat[0].minutes;
        let gap_agent = agented[0].minutes / nat[0].minutes;
        assert!(
            gap_agent < gap_std && gap_agent < 1.5,
            "agent gap {gap_agent} vs std {gap_std}"
        );
    }

    #[test]
    fn progress_agent_taxes_compute_bound_phases() {
        // With access-mode hints there is no serialisation left to
        // collapse; the agent is pure cost (a donated core per node and
        // a service round per task) and must not look like a free win.
        let id = PlatformId::InfiniBandCluster;
        let hinted = Fig6Opts {
            access_modes: true,
            ..Fig6Opts::default()
        };
        let std = series_with(id, ProxyPhase::Triples, hinted);
        let agented = series_with(
            id,
            ProxyPhase::Triples,
            Fig6Opts {
                progress_agent: true,
                ..hinted
            },
        );
        for (a, s) in agented.iter().zip(&std) {
            assert!(
                a.minutes >= s.minutes,
                "{} cores: agent {:.2} vs hinted {:.2}",
                a.cores,
                a.minutes,
                s.minutes
            );
        }
    }

    #[test]
    fn triples_costs_more_than_one_ccsd_iteration() {
        let p = Platform::get(PlatformId::InfiniBandCluster);
        let c = point(&p, Backend::Native, ProxyPhase::Ccsd, 256);
        let t = point(&p, Backend::Native, ProxyPhase::Triples, 256);
        // (T) (one sweep) costs more than CCSD-per-iteration (10 sweeps
        // are in c.minutes)
        assert!(t.minutes > c.minutes / 10.0);
    }
}
