//! Allocation budget of the transfer hot paths.
//!
//! A counting global allocator tallies the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) made by rank 0's thread while it issues
//! calls in steady state, after warm-up calls have grown every reusable
//! buffer (the windows' flattening scratch, the scheduler's scratch, the
//! datatype cache's key, the epoch record list). Each scenario asserts a
//! per-call budget. A regression that re-introduces per-segment or
//! per-call churn on these paths fails here before it shows up as host
//! time in the benchmark.

use armci::{AccKind, Armci, GlobalAddr, IovDesc, RmwOp};
use armci_mpi::{ArmciMpi, Config, TransportKind};
use ga::ghosts::GhostBlock;
use ga::{GaType, GlobalArray};
use mpisim::{Runtime, RuntimeConfig};
use simnet::{Platform, PlatformId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::stencil;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts the current thread's allocations while its `COUNTING` flag is
/// set; every other thread (the idle peer rank, parallel tests) is
/// ignored.
struct Counting;

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mean allocations per call of `call`, over `calls` calls after `warm`
/// warm-up calls. `call` runs `per` operations, so the result is per
/// operation.
fn per_op(warm: usize, calls: usize, per: usize, mut call: impl FnMut()) -> f64 {
    for _ in 0..warm {
        call();
    }
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    for _ in 0..calls {
        call();
    }
    COUNTING.with(|c| c.set(false));
    COUNT.with(Cell::get) as f64 / (calls * per) as f64
}

/// Two ranks with `ranks_per_node` cores per node: 1 puts them on
/// separate nodes (every transfer rides the wire), 2 on one node (the
/// shm tier). Semantic checks and time charging stay on, as in the
/// benchmark.
fn layout(ranks_per_node: u32) -> RuntimeConfig {
    let mut platform = Platform::get(PlatformId::InfiniBandCluster).customized("alloc-budget");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = ranks_per_node;
    RuntimeConfig {
        platform,
        ..Default::default()
    }
}

/// The array the tile scenarios read: 8×8×8×16 doubles, split over two
/// ranks along the last dimension, so rank 1 owns `[.., .., .., 8..16]`.
const DIMS: [usize; 4] = [8, 8, 8, 16];
/// A 4×4×4×4 tile inside rank 1's block: 64 segments of 32 bytes, the
/// CCSD tile shape.
const TILE_LO: [usize; 4] = [2, 2, 2, 10];
const TILE_HI: [usize; 4] = [6, 6, 6, 14];

/// Runs `measure` on rank 0 against an initialised tile array, and
/// returns what it measured.
fn with_tile_array(
    ranks_per_node: u32,
    measure: impl Fn(&GlobalArray<'_, ArmciMpi>) -> f64 + Sync,
) -> f64 {
    let out = Runtime::run_with(2, layout(ranks_per_node), |p| {
        let rt = ArmciMpi::new(p);
        let a = GlobalArray::create(&rt, "tiles", GaType::F64, &DIMS).unwrap();
        a.zero().unwrap();
        assert_eq!(a.locate(&TILE_LO), 1, "the tile lives on rank 1");
        let got = if rt.rank() == 0 { measure(&a) } else { 0.0 };
        a.sync();
        a.destroy().unwrap();
        got
    });
    out[0]
}

/// Tiles issued per volley before waiting, as the CCSD prefetch does.
const VOLLEY: usize = 8;

#[test]
fn remote_nonblocking_tile_get_budget() {
    let per_get = with_tile_array(1, |a| {
        let mut bufs = vec![vec![0.0f64; 256]; VOLLEY];
        let mut handles = Vec::with_capacity(VOLLEY);
        per_op(4, 32, VOLLEY, || {
            for buf in bufs.iter_mut() {
                handles.push(a.nb_get_patch_into(&TILE_LO, &TILE_HI, buf).unwrap());
            }
            for h in handles.drain(..) {
                a.nb_wait(h).unwrap();
            }
        })
    });
    println!("remote nb tile get: {per_get:.2} allocations per get");
    // Per get: its plan's two datatypes and its GA handle list. Its
    // flattened target segments, its queue and the flush's run formation
    // reuse the scheduler's buffers (4.62 before they did, 3.00 after).
    assert!(per_get <= 4.0, "{per_get} allocations per remote tile get");
}

#[test]
fn shm_local_tile_get_budget() {
    let per_get = with_tile_array(2, |a| {
        let mut buf = vec![0.0f64; 256];
        per_op(4, 64, 1, || {
            let h = a.nb_get_patch_into(&TILE_LO, &TILE_HI, &mut buf).unwrap();
            a.nb_wait(h).unwrap();
        })
    });
    println!("shm-local nb tile get: {per_get:.2} allocations per get");
    assert!(
        per_get <= 4.0,
        "{per_get} allocations per shm-local tile get"
    );
}

#[test]
fn ga_get_patch_budget() {
    let per_get = with_tile_array(1, |a| {
        per_op(4, 64, 1, || {
            let v = a.get_patch(&TILE_LO, &TILE_HI).unwrap();
            assert_eq!(v.len(), 256);
        })
    });
    println!("GA get_patch: {per_get:.2} allocations per get");
    // The returned vector plus the plan's datatypes and plan list.
    assert!(per_get <= 3.0, "{per_get} allocations per get_patch");
}

/// Allocations per blocking contiguous call of `call` on rank 0 of a
/// runtime built with `cfg`, with two ranks laid out `ranks_per_node` to
/// a node and `dst` 256 bytes inside rank 1's slice.
fn blocking_allocs(
    cfg: Config,
    ranks_per_node: u32,
    call: impl Fn(&ArmciMpi, GlobalAddr) + Sync,
) -> f64 {
    let out = Runtime::run_with(2, layout(ranks_per_node), |p| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(4096).unwrap();
        let got = if rt.rank() == 0 {
            per_op(4, 256, 1, || call(&rt, bases[1].offset(512)))
        } else {
            0.0
        };
        rt.barrier();
        rt.free(bases[rt.rank()]).unwrap();
        got
    });
    out[0]
}

/// Allocations per blocking contiguous put, get and accumulate under
/// `cfg` with `ranks_per_node` ranks to a node.
fn blocking_put_get_acc_allocs(cfg: Config, ranks_per_node: u32) -> [f64; 3] {
    let src = 1.5f64.to_le_bytes().repeat(32);
    let put = |rt: &ArmciMpi, dst| rt.put(&src, dst).unwrap();
    let get = |rt: &ArmciMpi, src| {
        let mut dst = [0u8; 256];
        rt.get(src, &mut dst).unwrap();
    };
    let acc = |rt: &ArmciMpi, dst| rt.acc(AccKind::Double(2.0), &src, dst).unwrap();
    [
        blocking_allocs(cfg.clone(), ranks_per_node, put),
        blocking_allocs(cfg.clone(), ranks_per_node, get),
        blocking_allocs(cfg, ranks_per_node, acc),
    ]
}

#[test]
fn blocking_contiguous_put_budget() {
    let src = vec![7u8; 256];
    let per_put = blocking_allocs(Config::default(), 1, |rt, dst| rt.put(&src, dst).unwrap());
    println!("blocking contiguous put: {per_put:.2} allocations per put");
    // One probe translates the address, the plan keeps its one
    // operation inline and the window's epoch table is indexed by
    // target: nothing on the path allocates.
    assert_eq!(per_put, 0.0, "allocations per contiguous put");
}

#[test]
fn blocking_contiguous_get_budget() {
    let per_get = blocking_allocs(Config::default(), 1, |rt, src| {
        let mut dst = [0u8; 256];
        rt.get(src, &mut dst).unwrap();
    });
    println!("blocking contiguous get: {per_get:.2} allocations per get");
    assert_eq!(per_get, 0.0, "allocations per contiguous get");
}

#[test]
fn blocking_contiguous_acc_budget() {
    let src = 1.5f64.to_le_bytes().repeat(32);
    let per_acc = blocking_allocs(Config::default(), 1, |rt, dst| {
        rt.acc(AccKind::Double(2.0), &src, dst).unwrap()
    });
    println!("blocking contiguous acc: {per_acc:.2} allocations per acc");
    // The pre-scaled source is staged in pooled scratch, which the
    // warm-up calls have already grown.
    assert_eq!(per_acc, 0.0, "allocations per contiguous acc");
}

#[test]
fn blocking_contiguous_channel_budget() {
    let cfg = Config {
        transport: TransportKind::Channel,
        ..Config::default()
    };
    let [put, get, acc] = blocking_put_get_acc_allocs(cfg, 1);
    println!("blocking contiguous channel put/get/acc: {put:.2}/{get:.2}/{acc:.2} allocations");
    // The channel backend flattens into its own reused scratch and moves
    // through the window's mover, which packs an accumulate's origin
    // into the window's pooled scratch.
    assert_eq!([put, get, acc], [0.0; 3], "channel put/get/acc allocations");
}

#[test]
fn blocking_contiguous_shm_budget() {
    let [put, get, acc] = blocking_put_get_acc_allocs(Config::default(), 2);
    println!("blocking contiguous shm put/get/acc: {put:.2}/{get:.2}/{acc:.2} allocations");
    assert_eq!([put, get, acc], [0.0; 3], "shm put/get/acc allocations");
}

/// Allocations per IOV put under the default `StridedMethod::Auto`: 16
/// segments of 16 bytes into rank 1's slice, `stride` bytes apart.
fn iov_auto_put_allocs(stride: usize) -> f64 {
    let out = Runtime::run_with(2, layout(1), |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(4096).unwrap();
        let got = if rt.rank() == 0 {
            let desc = IovDesc {
                rank: 1,
                bytes: 16,
                local_offsets: (0..16).map(|i| i * 16).collect(),
                remote_addrs: (0..16).map(|i| bases[1].addr + i * stride).collect(),
            };
            let src = vec![3u8; 256];
            per_op(4, 64, 1, || rt.put_iov(&desc, &src).unwrap())
        } else {
            0.0
        };
        rt.barrier();
        rt.free(bases[rt.rank()]).unwrap();
        got
    });
    out[0]
}

#[test]
fn iov_auto_clean_budget() {
    let per_put = iov_auto_put_allocs(64);
    println!("IOV auto put, clean: {per_put:.2} allocations per put");
    // One resolution of the descriptor, the datatype plan's two block
    // lists and its plan list; the overlap scan reuses the engine's
    // sweep (9 when the descriptor was resolved twice and each scan
    // built a segment list and a tree).
    assert!(per_put <= 4.0, "{per_put} allocations per clean IOV put");
}

#[test]
fn iov_auto_overlapping_budget() {
    let per_put = iov_auto_put_allocs(8);
    println!("IOV auto put, overlapping: {per_put:.2} allocations per put");
    // The conservative plan: one block list per segment and its plan
    // list, plus the resolution that found the descriptor single-GMR
    // (20 with a segment list and a tree per scan).
    assert!(
        per_put <= 18.0,
        "{per_put} allocations per overlapping IOV put"
    );
}

/// Allocations per call of `call` on rank 0, with two ranks laid out
/// `ranks_per_node` to a node and `cell` an 8-byte cell in rank 1's
/// slice.
fn atomic_allocs(ranks_per_node: u32, call: impl Fn(&ArmciMpi, armci::GlobalAddr) + Sync) -> f64 {
    let out = Runtime::run_with(2, layout(ranks_per_node), |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(64).unwrap();
        let got = if rt.rank() == 0 {
            per_op(4, 256, 1, || call(&rt, bases[1].offset(8)))
        } else {
            0.0
        };
        rt.barrier();
        rt.free(bases[rt.rank()]).unwrap();
        got
    });
    out[0]
}

#[test]
fn atomics_budget() {
    let fetch_add = |rt: &ArmciMpi, cell| {
        rt.rmw(RmwOp::FetchAdd(1), cell).unwrap();
    };
    let remote_add = atomic_allocs(1, fetch_add);
    let remote_cas = atomic_allocs(1, |rt, cell| {
        rt.compare_and_swap(0, 1, cell, 8).unwrap();
    });
    let shm_add = atomic_allocs(2, fetch_add);
    println!(
        "remote rmw fetch-add: {remote_add:.2}, remote CAS: {remote_cas:.2}, \
         shm-local rmw fetch-add: {shm_add:.2} allocations per call"
    );
    // Atomics work on a stack cell and borrow their window: none of
    // them allocates.
    assert!(
        remote_add <= 0.0,
        "{remote_add} allocations per remote fetch-add"
    );
    assert!(remote_cas <= 0.0, "{remote_cas} allocations per remote CAS");
    assert!(
        shm_add <= 0.0,
        "{shm_add} allocations per shm-local fetch-add"
    );
}

/// Allocations of one steady-state stencil step on rank 0 of an `n`×`n`
/// array split by columns over two nodes: a periodic radius-2 ghost
/// refresh into a reused block, one Jacobi sweep into a reused buffer,
/// and the interior written back.
fn stencil_step_allocs(n: usize) -> f64 {
    let out = Runtime::run_with(2, layout(1), |p| {
        let rt = ArmciMpi::new(p);
        let a = GlobalArray::create(&rt, "stencil", GaType::F64, &[n, n]).unwrap();
        a.fill(1.0).unwrap();
        let got = if rt.rank() == 0 {
            let (lo, hi) = a.my_block();
            let mut gb = GhostBlock::default();
            let mut new = vec![0.0f64; (hi[0] - lo[0]) * (hi[1] - lo[1])];
            per_op(4, 32, 1, || {
                a.fetch_ghosted_into(&[2, 2], true, &mut gb).unwrap();
                stencil::sweep(&gb, 2, &mut new);
                a.put_patch(&lo, &hi, &new).unwrap();
            })
        } else {
            0.0
        };
        a.sync();
        a.destroy().unwrap();
        got
    });
    out[0]
}

#[test]
fn stencil_step_budget_independent_of_grid_size() {
    for n in [64, 256] {
        let per_step = stencil_step_allocs(n);
        println!("stencil step {n}x{n}: {per_step:.2} allocations per step");
        // Six halo pieces fan out to nine per-owner strided gets, each
        // with its plan's datatypes; plus the block bounds, the sweep's
        // offset table and the put's datatypes. None of it scales with
        // the cell count (24 at both sizes).
        assert!(
            per_step <= 36.0,
            "{per_step} allocations per {n}x{n} stencil step"
        );
    }
}
