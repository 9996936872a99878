//! The distributed array object and its one-sided patch operations.

use crate::dist::{Distribution, Region, MAX_DIM};
use crate::GaResult;
use armci::{AccKind, Armci, ArmciError, ArmciGroup, GlobalAddr, Local, NbHandle, Remote, RmwOp};
use std::borrow::Cow;

/// Handle for a nonblocking patch operation (`NGA_NbPut`/`NbGet`/`NbAcc`):
/// one ARMCI handle per owner the patch fans out to. Complete it with
/// [`GlobalArray::nb_wait`] (or a `sync`, which retires all outstanding
/// nonblocking work).
#[must_use = "nonblocking patch operations must be completed with nb_wait or sync"]
pub struct GaNbHandle {
    /// The per-owner ARMCI handles, in fan-out order.
    pub handles: Vec<NbHandle>,
}

/// Element type of a global array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaType {
    /// 64-bit floats (the workhorse of NWChem).
    F64,
    /// 64-bit signed integers (shared counters, index structures).
    I64,
}

impl GaType {
    /// Element width in bytes.
    pub fn elem(self) -> usize {
        8
    }
}

/// A distributed, shared, multidimensional array (one `GA_Create`).
///
/// The array lives in ARMCI global memory allocated over `group`; block
/// `cell` of the distribution lives on group rank `cell`. All patch
/// bounds are half-open `[lo, hi)` and element order is row-major.
///
/// ```
/// use armci::Armci;
/// use armci_mpi::ArmciMpi;
/// use ga::{GaType, GlobalArray};
/// use mpisim::Runtime;
///
/// Runtime::run(4, |p| {
///     let rt = ArmciMpi::new(p);
///     let a = GlobalArray::create(&rt, "demo", GaType::F64, &[8, 8]).unwrap();
///     a.zero().unwrap();
///     if rt.rank() == 0 {
///         a.put_patch(&[2, 2], &[4, 4], &[1.0; 4]).unwrap();
///     }
///     a.sync();
///     assert_eq!(a.get_patch(&[3, 3], &[4, 4]).unwrap(), vec![1.0]);
///     a.sync();
///     a.destroy().unwrap();
/// });
/// ```
pub struct GlobalArray<'a, A: Armci + ?Sized> {
    rt: &'a A,
    name: String,
    ty: GaType,
    dist: Distribution,
    group: ArmciGroup,
    bases: Vec<GlobalAddr>,
}

/// 8-byte element types a patch moves as little-endian words.
trait Word: Copy {
    /// Converts between native and little-endian order (the same swap
    /// both ways; a no-op on little-endian hosts).
    fn swap_le(self) -> Self;
}

impl Word for f64 {
    fn swap_le(self) -> f64 {
        f64::from_bits(u64::from_le(self.to_bits()))
    }
}

impl Word for i64 {
    fn swap_le(self) -> i64 {
        i64::from_le(self)
    }
}

/// The raw bytes of a word slice.
fn bytes_of<T: Word>(v: &[T]) -> &[u8] {
    // SAFETY: `Word` is private and implemented only for `f64` and `i64`:
    // 8-byte numbers without padding, so every byte is initialised, and
    // `u8` needs no alignment. The view borrows `v` for its lifetime.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// The raw bytes of a word slice, writable: a patch read lands in the
/// caller's buffer in place.
fn bytes_of_mut<T: Word>(v: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `bytes_of`; writes through the view are sound because
    // every bit pattern is a valid `f64`/`i64`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// A patch's elements as the little-endian bytes global memory holds: a
/// view of `data` on little-endian hosts, a converted copy elsewhere.
fn le_bytes<T: Word>(data: &[T]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        Cow::Borrowed(bytes_of(data))
    } else {
        let swapped: Vec<T> = data.iter().map(|x| x.swap_le()).collect();
        Cow::Owned(bytes_of(&swapped).to_vec())
    }
}

/// Turns words read as little-endian bytes into native order in place.
fn from_le_in_place<T: Word>(v: &mut [T]) {
    if cfg!(target_endian = "big") {
        for x in v {
            *x = x.swap_le();
        }
    }
}

/// Where a patch sits in the caller's buffer: a row-major array of
/// extents `ld` (GA's leading dimensions) with the patch's first element
/// at index `at`. A dense patch buffer has `ld = hi - lo` and `at = 0`.
struct LocalLayout {
    ld: [usize; MAX_DIM],
    at: [usize; MAX_DIM],
}

impl LocalLayout {
    fn dense(lo: &[usize], hi: &[usize]) -> LocalLayout {
        let mut l = LocalLayout {
            ld: [0; MAX_DIM],
            at: [0; MAX_DIM],
        };
        for (d, (&l0, &h)) in lo.iter().zip(hi).enumerate() {
            l.ld[d] = h - l0;
        }
        l
    }
}

/// ARMCI strided arguments for one owner's share of a patch, in
/// fixed-size arrays: `n - 1` stride levels and `n` counts.
struct StridedArgs {
    raddr: GlobalAddr,
    loff: usize,
    n: usize,
    rstrides: [usize; MAX_DIM],
    lstrides: [usize; MAX_DIM],
    count: [usize; MAX_DIM],
}

impl StridedArgs {
    fn rstrides(&self) -> &[usize] {
        &self.rstrides[..self.n - 1]
    }

    fn lstrides(&self) -> &[usize] {
        &self.lstrides[..self.n - 1]
    }

    fn count(&self) -> &[usize] {
        &self.count[..self.n]
    }
}

/// The trace name of a GA patch operation moving `local`.
fn op_name(local: &Local<'_>, nb: bool) -> &'static str {
    match (local, nb) {
        (Local::Put(_), false) => "ga_put",
        (Local::Get(_), false) => "ga_get",
        (Local::Acc(..), false) => "ga_acc",
        (Local::Put(_), true) => "ga_nb_put",
        (Local::Get(_), true) => "ga_nb_get",
        (Local::Acc(..), true) => "ga_nb_acc",
    }
}

impl<'a, A: Armci + ?Sized> GlobalArray<'a, A> {
    /// Collectively creates an array with GA's regular block distribution
    /// over the world group.
    pub fn create(rt: &'a A, name: &str, ty: GaType, dims: &[usize]) -> GaResult<Self> {
        let group = rt.world_group();
        Self::create_on(rt, name, ty, dims, group)
    }

    /// Collectively creates an array over an explicit group.
    pub fn create_on(
        rt: &'a A,
        name: &str,
        ty: GaType,
        dims: &[usize],
        group: ArmciGroup,
    ) -> GaResult<Self> {
        let dist = Distribution::regular(dims, group.size());
        Self::create_with_dist(rt, name, ty, dist, group)
    }

    /// Collectively creates an array with an explicit (possibly
    /// irregular) distribution. `dist.ncells()` must equal the group
    /// size.
    pub fn create_with_dist(
        rt: &'a A,
        name: &str,
        ty: GaType,
        dist: Distribution,
        group: ArmciGroup,
    ) -> GaResult<Self> {
        if dist.ndim() > MAX_DIM {
            return Err(ArmciError::BadDescriptor(format!(
                "{} dimensions exceed the supported {MAX_DIM}",
                dist.ndim()
            )));
        }
        if dist.ncells() != group.size() {
            return Err(ArmciError::BadDescriptor(format!(
                "distribution has {} cells for a group of {}",
                dist.ncells(),
                group.size()
            )));
        }
        let my_len = dist.cell_len(group.rank());
        let bases = rt.malloc_group(my_len * ty.elem(), &group)?;
        Ok(GlobalArray {
            rt,
            name: name.to_string(),
            ty,
            dist,
            group,
            bases,
        })
    }

    /// Collectively destroys the array (`GA_Destroy`).
    pub fn destroy(self) -> GaResult<()> {
        let me = self.group.rank();
        self.rt.free_group(self.bases[me], &self.group)
    }

    /// Array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type.
    pub fn ty(&self) -> GaType {
        self.ty
    }

    /// Array dimensions (elements).
    pub fn dims(&self) -> &[usize] {
        &self.dist.dims
    }

    /// The distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// The group the array lives on.
    pub fn group(&self) -> &ArmciGroup {
        &self.group
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &'a A {
        self.rt
    }

    /// This process's block `[lo, hi)` (`NGA_Distribution`).
    pub fn my_block(&self) -> (Vec<usize>, Vec<usize>) {
        self.dist.cell_block(self.group.rank())
    }

    /// Base global address of cell `c`'s slice (crate-internal).
    pub(crate) fn base_of(&self, cell: usize) -> GlobalAddr {
        self.bases[cell]
    }

    /// Owner (group rank) of a global index (`NGA_Locate`).
    pub fn locate(&self, idx: &[usize]) -> usize {
        self.dist.locate(idx)
    }

    /// Synchronises the group: all outstanding operations complete
    /// everywhere (`GA_Sync`).
    pub fn sync(&self) {
        let t0 = obs::enabled().then(|| self.rt.vtime());
        self.rt.fence_all().expect("fence_all");
        self.group.barrier();
        if let Some(t0) = t0 {
            obs::span(
                obs::EventKind::GaOp {
                    name: "ga_sync",
                    bytes: 0,
                },
                t0,
                self.rt.vtime(),
            );
        }
    }

    // -----------------------------------------------------------------
    // Index math
    // -----------------------------------------------------------------

    fn patch_len(lo: &[usize], hi: &[usize]) -> usize {
        lo.iter().zip(hi).map(|(&l, &h)| h - l).product()
    }

    /// Bytes a patch moves (what the trace reports per GA verb).
    fn patch_bytes(&self, lo: &[usize], hi: &[usize]) -> u64 {
        (Self::patch_len(lo, hi) * self.ty.elem()) as u64
    }

    /// Byte offset of `idx` in the row-major array spanning `[lo, hi)`.
    fn offset_in(&self, idx: &[usize], lo: &[usize], hi: &[usize]) -> usize {
        let mut off = 0usize;
        for d in 0..lo.len() {
            off = off * (hi[d] - lo[d]) + (idx[d] - lo[d]);
        }
        off * self.ty.elem()
    }

    /// Byte offset of global index `idx` in the local buffer of a patch
    /// starting at `lo` and laid out as `local`.
    fn local_offset(&self, idx: &[usize], lo: &[usize], local: &LocalLayout) -> usize {
        let mut off = 0usize;
        for d in 0..lo.len() {
            off = off * local.ld[d] + (idx[d] - lo[d] + local.at[d]);
        }
        off * self.ty.elem()
    }

    /// Builds ARMCI strided arguments for moving the intersection of
    /// region `r` between its owner's block and the local buffer of the
    /// patch starting at `lo`, laid out as `local`.
    fn strided_args(&self, r: &Region, lo: &[usize], local: &LocalLayout) -> StridedArgs {
        let n = self.dist.ndim();
        let elem = self.ty.elem();
        let (ilo, ihi, blo, bhi) = (r.ilo(), r.ihi(), r.blo(), r.bhi());
        let mut a = StridedArgs {
            raddr: self.bases[r.cell].offset(self.offset_in(ilo, blo, bhi)),
            loff: self.local_offset(ilo, lo, local),
            n,
            rstrides: [0; MAX_DIM],
            lstrides: [0; MAX_DIM],
            count: [0; MAX_DIM],
        };
        // count[0] = contiguous bytes along the last dimension; count[j]
        // (j >= 1) covers dimension n-1-j, and stride level j-1 steps it:
        // the byte size of everything inside it, in the block (remote)
        // and in the local buffer.
        a.count[0] = (ihi[n - 1] - ilo[n - 1]) * elem;
        let (mut rs, mut ls) = (elem, elem);
        for j in 1..n {
            let d = n - j;
            a.count[j] = ihi[d - 1] - ilo[d - 1];
            rs *= bhi[d] - blo[d];
            ls *= local.ld[d];
            a.rstrides[j - 1] = rs;
            a.lstrides[j - 1] = ls;
        }
        a
    }

    fn check_patch(&self, lo: &[usize], hi: &[usize], buf_len_bytes: usize) -> GaResult<()> {
        self.check_bounds(lo, hi)?;
        let need = Self::patch_len(lo, hi) * self.ty.elem();
        if buf_len_bytes != need {
            return Err(ArmciError::BadDescriptor(format!(
                "patch needs {need} bytes, buffer has {buf_len_bytes}"
            )));
        }
        Ok(())
    }

    /// Checks that `[lo, hi)` is a nonempty patch inside the array.
    fn check_bounds(&self, lo: &[usize], hi: &[usize]) -> GaResult<()> {
        let n = self.dist.ndim();
        if lo.len() != n || hi.len() != n {
            return Err(ArmciError::BadDescriptor(format!(
                "patch rank {} vs array rank {n}",
                lo.len()
            )));
        }
        for d in 0..n {
            if lo[d] >= hi[d] || hi[d] > self.dist.dims[d] {
                return Err(ArmciError::BadDescriptor(format!(
                    "bad patch bounds in dim {d}: [{}, {}) of {}",
                    lo[d], hi[d], self.dist.dims[d]
                )));
            }
        }
        Ok(())
    }

    /// The Figure 2 fan-out: decompose the patch over owners and issue
    /// one strided ARMCI transfer per owner, against `local`'s buffer laid
    /// out as `layout` (`None`: the dense patch buffer). With `nb` the
    /// transfers are nonblocking and their handles come back unwaited, so
    /// transfers to distinct owners stay in flight concurrently; a
    /// blocking fan-out returns no handles.
    fn xfer(
        &self,
        lo: &[usize],
        hi: &[usize],
        layout: Option<&LocalLayout>,
        mut local: Local<'_>,
        nb: bool,
    ) -> GaResult<GaNbHandle> {
        let trace = obs::enabled().then(|| {
            (
                op_name(&local, nb),
                self.patch_bytes(lo, hi),
                self.rt.vtime(),
            )
        });
        let dense;
        let layout = match layout {
            Some(l) => l,
            None => {
                dense = LocalLayout::dense(lo, hi);
                &dense
            }
        };
        let mut handles = Vec::new();
        self.dist.for_each_region(lo, hi, |r| {
            let a = self.strided_args(r, lo, layout);
            let remote = Remote::Strided {
                addr: a.raddr,
                strides: a.rstrides(),
                local_strides: a.lstrides(),
                count: a.count(),
            };
            let end = local.len();
            let h = self.rt.xfer(remote, local.slice(a.loff..end), nb)?;
            if nb {
                handles.push(h);
            }
            Ok::<(), ArmciError>(())
        })?;
        if let Some((name, bytes, t0)) = trace {
            obs::span(obs::EventKind::GaOp { name, bytes }, t0, self.rt.vtime());
        }
        Ok(GaNbHandle { handles })
    }

    // -----------------------------------------------------------------
    // Typed patch operations
    // -----------------------------------------------------------------

    fn want(&self, ty: GaType) -> GaResult<()> {
        if self.ty != ty {
            return Err(ArmciError::BadDescriptor(format!(
                "array {} is {:?}, operation wants {ty:?}",
                self.name, self.ty
            )));
        }
        Ok(())
    }

    /// `NGA_Put`: writes the dense row-major `data` into the patch.
    pub fn put_patch(&self, lo: &[usize], hi: &[usize], data: &[f64]) -> GaResult<()> {
        self.want(GaType::F64)?;
        self.check_patch(lo, hi, data.len() * 8)?;
        self.xfer(lo, hi, None, Local::Put(&le_bytes(data)), false)
            .map(drop)
    }

    /// `NGA_Get`: reads the patch into a dense row-major vector.
    pub fn get_patch(&self, lo: &[usize], hi: &[usize]) -> GaResult<Vec<f64>> {
        self.want(GaType::F64)?;
        self.check_bounds(lo, hi)?;
        let mut out = vec![0.0f64; Self::patch_len(lo, hi)];
        self.xfer(lo, hi, None, Local::Get(bytes_of_mut(&mut out)), false)
            .map(drop)?;
        from_le_in_place(&mut out);
        Ok(out)
    }

    /// `NGA_Get` with leading dimensions: reads the patch into `out`, a
    /// row-major buffer of extents `ld`, with the patch's first element at
    /// index `at` of `out`. Elements of `out` outside the patch are left
    /// untouched, so a caller can land several patches in one buffer (the
    /// ghost refresh does). `get_patch` is the case `ld = hi - lo`,
    /// `at = 0`.
    pub fn get_patch_strided(
        &self,
        lo: &[usize],
        hi: &[usize],
        out: &mut [f64],
        ld: &[usize],
        at: &[usize],
    ) -> GaResult<()> {
        self.want(GaType::F64)?;
        let local = self.check_local(lo, hi, out.len(), ld, at)?;
        self.xfer(lo, hi, Some(&local), Local::Get(bytes_of_mut(out)), false)
            .map(drop)?;
        if cfg!(target_endian = "big") {
            // Only the elements the patch wrote: one run per patch row.
            let n = lo.len();
            let row = hi[n - 1] - lo[n - 1];
            let rows = Self::patch_len(&lo[..n - 1], &hi[..n - 1]);
            let mut idx = [0usize; MAX_DIM];
            for _ in 0..rows {
                let mut off = 0usize;
                for d in 0..n {
                    off = off * ld[d] + at[d] + idx[d];
                }
                from_le_in_place(&mut out[off..off + row]);
                for d in (0..n - 1).rev() {
                    idx[d] += 1;
                    if idx[d] < hi[d] - lo[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
        Ok(())
    }

    /// Validates a leading-dimension buffer for the patch `[lo, hi)`:
    /// `ld` and `at` have the array's rank, the patch fits inside `ld`
    /// at `at`, and the buffer holds exactly the `ld` extents.
    fn check_local(
        &self,
        lo: &[usize],
        hi: &[usize],
        buf_len: usize,
        ld: &[usize],
        at: &[usize],
    ) -> GaResult<LocalLayout> {
        self.check_bounds(lo, hi)?;
        let n = self.dist.ndim();
        if ld.len() != n || at.len() != n {
            return Err(ArmciError::BadDescriptor(format!(
                "leading dimensions of rank {} and origin of rank {} for an array of rank {n}",
                ld.len(),
                at.len()
            )));
        }
        let mut local = LocalLayout {
            ld: [0; MAX_DIM],
            at: [0; MAX_DIM],
        };
        for d in 0..n {
            if at[d]
                .checked_add(hi[d] - lo[d])
                .is_none_or(|end| end > ld[d])
            {
                return Err(ArmciError::BadDescriptor(format!(
                    "patch of extent {} at {} overflows leading dimension {} in dim {d}",
                    hi[d] - lo[d],
                    at[d],
                    ld[d]
                )));
            }
            local.ld[d] = ld[d];
            local.at[d] = at[d];
        }
        // An `ld` whose product overflows is a bad descriptor too.
        let need = ld.iter().try_fold(1usize, |acc, &x| acc.checked_mul(x));
        if need != Some(buf_len) {
            return Err(ArmciError::BadDescriptor(format!(
                "leading dimensions {ld:?} do not describe a buffer of {buf_len} elements"
            )));
        }
        Ok(local)
    }

    /// `NGA_Acc`: `patch += scale * data`, atomic per element with
    /// respect to other accumulates.
    pub fn acc_patch(&self, scale: f64, lo: &[usize], hi: &[usize], data: &[f64]) -> GaResult<()> {
        self.want(GaType::F64)?;
        self.check_patch(lo, hi, data.len() * 8)?;
        let local = Local::Acc(AccKind::Double(scale), &le_bytes(data));
        self.xfer(lo, hi, None, local, false).map(drop)
    }

    /// `NGA_NbPut`: nonblocking patch write. The transfer stays in flight
    /// until [`Self::nb_wait`] (or a `sync`); transfers to distinct owners
    /// proceed concurrently, and per-owner fan-out pieces queue in the
    /// runtime's coalescing scheduler, which merges adjacent spans and
    /// coarsens epochs per target (DESIGN §7).
    pub fn nb_put_patch(&self, lo: &[usize], hi: &[usize], data: &[f64]) -> GaResult<GaNbHandle> {
        self.want(GaType::F64)?;
        self.check_patch(lo, hi, data.len() * 8)?;
        self.xfer(lo, hi, None, Local::Put(&le_bytes(data)), true)
    }

    /// `NGA_NbGet`: nonblocking patch read into a caller-owned buffer.
    /// `out` holds the patch data after [`Self::nb_wait`] on the returned
    /// handle; reading it before then is undefined.
    pub fn nb_get_patch_into(
        &self,
        lo: &[usize],
        hi: &[usize],
        out: &mut [f64],
    ) -> GaResult<GaNbHandle> {
        self.want(GaType::F64)?;
        self.check_patch(lo, hi, out.len() * 8)?;
        // The simulator moves bytes at issue, so the patch lands in `out`
        // now; only completion is deferred.
        let h = self.xfer(lo, hi, None, Local::Get(bytes_of_mut(out)), true)?;
        from_le_in_place(out);
        Ok(h)
    }

    /// `NGA_NbAcc`: nonblocking `patch += scale * data`.
    pub fn nb_acc_patch(
        &self,
        scale: f64,
        lo: &[usize],
        hi: &[usize],
        data: &[f64],
    ) -> GaResult<GaNbHandle> {
        self.want(GaType::F64)?;
        self.check_patch(lo, hi, data.len() * 8)?;
        let local = Local::Acc(AccKind::Double(scale), &le_bytes(data));
        self.xfer(lo, hi, None, local, true)
    }

    /// `NGA_NbWait`: completes a nonblocking patch operation.
    pub fn nb_wait(&self, handle: GaNbHandle) -> GaResult<()> {
        self.rt.wait_all(handle.handles)
    }

    /// Integer put.
    pub fn put_patch_i64(&self, lo: &[usize], hi: &[usize], data: &[i64]) -> GaResult<()> {
        self.want(GaType::I64)?;
        self.check_patch(lo, hi, data.len() * 8)?;
        self.xfer(lo, hi, None, Local::Put(&le_bytes(data)), false)
            .map(drop)
    }

    /// Integer get.
    pub fn get_patch_i64(&self, lo: &[usize], hi: &[usize]) -> GaResult<Vec<i64>> {
        self.want(GaType::I64)?;
        self.check_bounds(lo, hi)?;
        let mut out = vec![0i64; Self::patch_len(lo, hi)];
        self.xfer(lo, hi, None, Local::Get(bytes_of_mut(&mut out)), false)
            .map(drop)?;
        from_le_in_place(&mut out);
        Ok(out)
    }

    /// Integer accumulate.
    pub fn acc_patch_i64(
        &self,
        scale: i64,
        lo: &[usize],
        hi: &[usize],
        data: &[i64],
    ) -> GaResult<()> {
        self.want(GaType::I64)?;
        self.check_patch(lo, hi, data.len() * 8)?;
        let local = Local::Acc(AccKind::Long(scale), &le_bytes(data));
        self.xfer(lo, hi, None, local, false).map(drop)
    }

    /// `NGA_Read_inc`: atomically adds `inc` to the I64 element at `idx`
    /// and returns the previous value — GA's NXTVAL primitive.
    pub fn read_inc(&self, idx: &[usize], inc: i64) -> GaResult<i64> {
        self.want(GaType::I64)?;
        let cell = self.dist.locate(idx);
        let (blo, bhi) = self.dist.cell_block(cell);
        let addr = self.bases[cell].offset(self.offset_in(idx, &blo, &bhi));
        let t0 = obs::enabled().then(|| self.rt.vtime());
        let res = self.rt.rmw(RmwOp::FetchAdd(inc), addr);
        if let Some(t0) = t0 {
            obs::span(
                obs::EventKind::GaOp {
                    name: "ga_read_inc",
                    bytes: 8,
                },
                t0,
                self.rt.vtime(),
            );
        }
        res
    }

    // -----------------------------------------------------------------
    // Direct local access (GA_Access/GA_Release, via the DLA extension)
    // -----------------------------------------------------------------

    /// Mutable access to this process's own block as f64 (row-major over
    /// the block extents). No-op (skips the closure) for empty blocks.
    pub fn access_local_mut(&self, f: &mut dyn FnMut(&mut [f64])) -> GaResult<()> {
        self.want(GaType::F64)?;
        let me = self.group.rank();
        let len = self.dist.cell_len(me);
        if len == 0 {
            return Ok(());
        }
        self.rt.access_mut(self.bases[me], len * 8, &mut |bytes| {
            let mut vals = armci::acc::bytes_to_f64s(bytes);
            f(&mut vals);
            bytes.copy_from_slice(&armci::acc::f64s_to_bytes(&vals));
        })
    }

    /// Read-only access to this process's own block.
    pub fn access_local(&self, f: &mut dyn FnMut(&[f64])) -> GaResult<()> {
        self.want(GaType::F64)?;
        let me = self.group.rank();
        let len = self.dist.cell_len(me);
        if len == 0 {
            return Ok(());
        }
        self.rt.access(self.bases[me], len * 8, &mut |bytes| {
            f(&armci::acc::bytes_to_f64s(bytes));
        })
    }

    /// Applies an access-mode hint to the array's memory (§VIII-A).
    pub fn set_access_mode(&self, mode: armci::AccessMode) -> GaResult<()> {
        let me = self.group.rank();
        self.rt.set_access_mode(self.bases[me], &self.group, mode)
    }
}
