//! Tests of the data-server ARMCI: server-side fetch-add tickets and
//! mutexes under contention, the GA stack and the CCSD proxy on data
//! servers, and the three-way cost comparison the paper's §IX implies.
//! Its raw verbs (put/get/acc, strided, RMW, mutexes, DLA) are checked
//! against the model by the differential oracle
//! (`crates/core/tests/differential.rs`).

use armci::{Armci, ArmciExt};
use armci_ds::run_with_servers;
use ga::{GaType, GlobalArray};
use mpisim::{Runtime, RuntimeConfig};
use nwchem_proxy::{run_ccsd, CcsdConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

#[test]
fn rmw_tickets_unique() {
    let n = 4;
    let iters = 25;
    let all = run_with_servers(n, quiet(), move |_p, rt| {
        let bases = rt.malloc(8).unwrap();
        rt.barrier();
        let mut got = Vec::new();
        for _ in 0..iters {
            got.push(rt.fetch_add(bases[0], 1).unwrap());
        }
        rt.barrier();
        rt.free(bases[rt.rank()]).unwrap();
        got
    });
    let mut tickets: Vec<i64> = all.into_iter().flatten().collect();
    tickets.sort_unstable();
    assert_eq!(tickets, (0..(n * iters) as i64).collect::<Vec<_>>());
}

#[test]
fn server_mutexes_protect_counter() {
    let n = 4;
    let iters = 15;
    run_with_servers(n, quiet(), move |_p, rt| {
        let bases = rt.malloc(8).unwrap();
        let h = rt.create_mutexes(1).unwrap();
        rt.barrier();
        for _ in 0..iters {
            rt.lock_mutex(h, 0, 0).unwrap();
            let v = rt.get_f64s(bases[0], 1).unwrap()[0];
            rt.put_f64s(&[v + 1.0], bases[0]).unwrap();
            rt.fence(0).unwrap();
            rt.unlock_mutex(h, 0, 0).unwrap();
        }
        rt.barrier();
        assert_eq!(rt.get_f64s(bases[0], 1).unwrap()[0], (n * iters) as f64);
        rt.barrier();
        rt.destroy_mutexes(h).unwrap();
        rt.free(bases[rt.rank()]).unwrap();
    });
}

#[test]
fn full_ga_stack_runs_on_data_servers() {
    run_with_servers(3, quiet(), |_p, rt| {
        let a = GlobalArray::create(rt, "ds", GaType::F64, &[9, 9]).unwrap();
        a.fill(1.0).unwrap();
        a.acc_patch(0.5, &[2, 2], &[7, 7], &[2.0; 25]).unwrap();
        a.sync();
        let v = a.get_patch(&[4, 4], &[5, 5]).unwrap()[0];
        assert_eq!(v, 1.0 + 3.0 * 0.5 * 2.0);
        assert_eq!(a.dot(&a).unwrap(), {
            let inner = (1.0f64 + 3.0).powi(2) * 25.0;
            inner + (81.0 - 25.0)
        });
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn ccsd_proxy_energy_matches_rma_backends() {
    let cfg = CcsdConfig::tiny();
    let e_ds = run_with_servers(3, quiet(), move |p, rt| run_ccsd(p, rt, &cfg).energy)[0];
    let e_rma = Runtime::run_with(3, quiet(), move |p| {
        let rt = armci_mpi::ArmciMpi::new(p);
        run_ccsd(p, &rt, &cfg).energy
    })[0];
    assert_eq!(e_ds, e_rma);
}

#[test]
fn data_server_slower_than_rma_for_gets() {
    // §IX: the data-server design pays two-sided overheads on every
    // access; one-sided RMA beats it for bandwidth-bound gets.
    let size = 1 << 20;
    let t_ds = run_with_servers(2, RuntimeConfig::default(), move |p, rt| {
        let bases = rt.malloc(size).unwrap();
        rt.barrier();
        let mut t = 0.0;
        if rt.rank() == 0 {
            let mut buf = vec![0u8; size];
            let t0 = p.clock().now();
            for _ in 0..4 {
                rt.get(bases[1], &mut buf).unwrap();
            }
            t = p.clock().now() - t0;
        }
        rt.barrier();
        rt.free(bases[rt.rank()]).unwrap();
        t
    })[0];
    let t_rma = Runtime::run(2, move |p| {
        let rt = armci_mpi::ArmciMpi::new(p);
        let bases = rt.malloc(size).unwrap();
        rt.barrier();
        let mut t = 0.0;
        if rt.rank() == 0 {
            let mut buf = vec![0u8; size];
            let t0 = p.clock().now();
            for _ in 0..4 {
                rt.get(bases[1], &mut buf).unwrap();
            }
            t = p.clock().now() - t0;
        }
        rt.barrier();
        rt.free(bases[rt.rank()]).unwrap();
        t
    })[0];
    assert!(
        t_ds > t_rma,
        "data server ({t_ds}s) should be slower than RMA ({t_rma}s)"
    );
}
