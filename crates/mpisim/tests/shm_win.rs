//! Shared-memory window subsystem: `allocate_shared`,
//! `shared_query` load/store, `win_sync`, and the shm route's
//! `shm_transfer`.

use mpisim::{
    AccOp, Datatype, ElemType, LockMode, MpiError, Origin, Proc, Runtime, RuntimeConfig, WinHandle,
};
use simnet::{Platform, PlatformId};

/// Runtime config with `ranks_per_node` cores per node and no clock
/// charging, so tests reason about bytes, not virtual time.
fn quiet_nodes(ranks_per_node: u32) -> RuntimeConfig {
    let mut platform = Platform::get(PlatformId::InfiniBandCluster).customized("shm-test");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = ranks_per_node;
    RuntimeConfig {
        platform,
        charge_time: false,
        ..Default::default()
    }
}

#[test]
fn shared_query_gives_load_store_to_node_peers_only() {
    Runtime::run_with(4, quiet_nodes(2), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 64);
        let me = w.rank();
        let peer = me ^ 1; // same node under 2 ranks/node
        let far = (me + 2) % 4; // other node

        // Write my own section through the peer-visible handle.
        let mine = win.shared_query(me).unwrap();
        assert_eq!(mine.len(), 64);
        mine.store(0, &[me as u8 + 1; 8]).unwrap();
        w.barrier();

        // Load the node peer's section directly.
        let sec = win.shared_query(peer).unwrap();
        let mut got = [0u8; 8];
        sec.load(0, &mut got).unwrap();
        assert_eq!(got, [peer as u8 + 1; 8]);

        // A rank on another node has no slab here.
        assert_eq!(
            win.shared_query(far).unwrap_err(),
            MpiError::ShmUnavailable { target: far }
        );
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn shared_query_rejects_per_rank_windows() {
    Runtime::run_with(2, quiet_nodes(2), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 32);
        assert_eq!(
            win.shared_query(0).unwrap_err(),
            MpiError::ShmUnavailable { target: 0 }
        );
        win.free().unwrap();
    });
}

#[test]
fn section_access_after_free_errors_instead_of_dangling() {
    Runtime::run_with(2, quiet_nodes(2), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 16);
        let sec = win.shared_query(w.rank() ^ 1).unwrap();
        win.free().unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(sec.load(0, &mut buf).unwrap_err(), MpiError::WinFreed);
        assert_eq!(sec.store(0, &buf).unwrap_err(), MpiError::WinFreed);
    });
}

#[test]
fn rma_path_still_works_on_shared_backed_windows() {
    // Inter-node pairs (and anyone who prefers RMA) use the ordinary
    // put/get path on the same window; bytes land in the same slab the
    // node peers read by load/store.
    Runtime::run_with(4, quiet_nodes(2), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 8);
        if w.rank() == 0 {
            let far = 2; // other node: RMA is the only route
            win.lock(LockMode::Exclusive, far).unwrap();
            win.put_bytes(&7u64.to_le_bytes(), far, 0).unwrap();
            win.unlock(far).unwrap();
        }
        w.barrier();
        if w.rank() == 3 {
            // Node peer of rank 2 observes the remotely-put bytes.
            let sec = win.shared_query(2).unwrap();
            let mut got = [0u8; 8];
            sec.load(0, &mut got).unwrap();
            assert_eq!(u64::from_le_bytes(got), 7);
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn shm_movers_respect_epochs_and_reach() {
    Runtime::run_with(4, quiet_nodes(2), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 32);
        let dt = Datatype::contiguous(8);
        if w.rank() == 0 {
            // No epoch → NoEpoch, same discipline as the wire path.
            assert_eq!(
                win.shm_transfer(Origin::Put(&[1; 8]), &dt, 1, 0, &dt)
                    .unwrap_err(),
                MpiError::NoEpoch { target: 1 }
            );
            // Remote node → ShmUnavailable even under an epoch.
            win.lock(LockMode::Exclusive, 2).unwrap();
            assert_eq!(
                win.shm_transfer(Origin::Put(&[1; 8]), &dt, 2, 0, &dt)
                    .unwrap_err(),
                MpiError::ShmUnavailable { target: 2 }
            );
            win.unlock(2).unwrap();

            // One op per exclusive epoch (§V-C discipline), each bracketed
            // by win_sync.
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.win_sync().unwrap();
            let cost = win
                .shm_transfer(Origin::Put(&3.5f64.to_le_bytes()), &dt, 1, 0, &dt)
                .unwrap();
            assert!(cost > 0.0);
            win.win_sync().unwrap();
            win.unlock(1).unwrap();

            win.lock(LockMode::Exclusive, 1).unwrap();
            win.win_sync().unwrap();
            let origin = Origin::Acc(&1.5f64.to_le_bytes(), ElemType::F64, AccOp::Sum);
            win.shm_transfer(origin, &dt, 1, 0, &dt).unwrap();
            win.win_sync().unwrap();
            win.unlock(1).unwrap();

            win.lock(LockMode::Exclusive, 1).unwrap();
            win.win_sync().unwrap();
            let mut back = [0u8; 8];
            win.shm_transfer(Origin::Get(&mut back), &dt, 1, 0, &dt)
                .unwrap();
            assert_eq!(f64::from_le_bytes(back), 5.0);
            win.win_sync().unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        if w.rank() == 1 {
            win.lock(LockMode::Shared, 1).unwrap();
            let v = win.with_local(|b| f64::from_le_bytes(b[..8].try_into().unwrap()));
            assert_eq!(v.unwrap(), 5.0);
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn win_sync_requires_an_open_epoch() {
    Runtime::run_with(2, quiet_nodes(2), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 8);
        assert!(matches!(
            win.win_sync().unwrap_err(),
            MpiError::NoEpoch { .. }
        ));
        win.lock_all().unwrap();
        win.win_sync().unwrap();
        win.unlock_all().unwrap();
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn rmw_lands_in_the_shared_slab_section() {
    // fetch_and_op goes through the window section, which must apply the
    // section offset inside the node slab — rank 1's cell, not rank 0's.
    Runtime::run_with(2, quiet_nodes(2), |p: &Proc| {
        use mpisim::mpi3::FetchOp;
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 16);
        if w.rank() == 0 {
            win.lock_all().unwrap();
            win.fetch_and_op_i64(41, 1, 8, FetchOp::Sum).unwrap();
            win.unlock_all().unwrap();
        }
        w.barrier();
        if w.rank() == 1 {
            let sec = win.shared_query(1).unwrap();
            let mut cell = [0u8; 8];
            sec.load(8, &mut cell).unwrap();
            assert_eq!(i64::from_le_bytes(cell), 41);
            // Rank 0's section must be untouched.
            let sec0 = win.shared_query(0).unwrap();
            sec0.load(8, &mut cell).unwrap();
            assert_eq!(i64::from_le_bytes(cell), 0);
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn shm_cost_tier_is_cheaper_than_wire() {
    // With clocks on, an intra-node shm transfer must cost strictly less
    // virtual time than the same transfer priced by the NIC model.
    let cfg = RuntimeConfig {
        charge_time: true,
        ..quiet_nodes(2)
    };
    Runtime::run_with(2, cfg, |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 1 << 16);
        if w.rank() == 0 {
            let dt = Datatype::contiguous(1 << 16);
            let buf = vec![9u8; 1 << 16];
            win.lock(LockMode::Exclusive, 1).unwrap();
            let t0 = w.clock_now();
            let shm_cost = win.shm_transfer(Origin::Put(&buf), &dt, 1, 0, &dt).unwrap();
            w.charge_time(shm_cost);
            let shm_elapsed = w.clock_now() - t0;
            win.unlock(1).unwrap();
            win.lock(LockMode::Exclusive, 1).unwrap();
            let t1 = w.clock_now();
            win.put(&buf, &dt, 1, 0, &dt).unwrap();
            let wire_elapsed = w.clock_now() - t1;
            assert!(
                shm_elapsed < wire_elapsed,
                "shm {shm_elapsed} !< wire {wire_elapsed}"
            );
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}
