//! Kernel execution structures: ND-ranges, work-groups and work-items.
//!
//! Kernels are written against the same concepts OpenCL exposes (global and
//! local IDs, work-groups, barriers, local memory) so the SkelCL skeleton
//! implementations can follow the paper's kernels line by line. A kernel
//! *body* is a Rust closure over a [`WorkGroup`]; the matching OpenCL-C
//! source string travels alongside it in [`crate::Program`] for the code
//! generation, caching and LoC experiments.

use crate::buffer::Buffer;
use crate::error::{Error, Result};
use crate::local::{BankModel, LocalBuf};
use crate::timing::{ATOMIC_CYCLES, BANK_CONFLICT_CYCLES, BARRIER_CYCLES, WARP_SIZE};
use crate::types::{BufferId, Scalar};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Min/max byte envelope of one launch's accesses to one buffer, split by
/// direction. Atomics count as both a read and a write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessEnvelope {
    pub buffer: BufferId,
    pub read: Option<(u64, u64)>,
    pub write: Option<(u64, u64)>,
}

/// The executable semantics of a kernel: called once per work-group.
///
/// Inside, use [`WorkGroup::for_each_item`] for per-item phases and
/// [`WorkGroup::barrier`] between phases (loop fission).
pub type KernelBody = Arc<dyn Fn(&WorkGroup) + Send + Sync>;

/// Index space of a launch: up to two dimensions, like the paper's
/// Mandelbrot (16×16 groups) and SkelCL's default 1-D groups of 256.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NDRange {
    /// Global extent per dimension (`[n, 1]` for 1-D).
    pub global: [usize; 2],
    /// Work-group extent per dimension.
    pub local: [usize; 2],
}

impl NDRange {
    /// One-dimensional range: `global` items in groups of `local`.
    pub fn linear(global: usize, local: usize) -> Self {
        NDRange {
            global: [global, 1],
            local: [local, 1],
        }
    }

    /// Two-dimensional range.
    pub fn two_d(global: (usize, usize), local: (usize, usize)) -> Self {
        NDRange {
            global: [global.0, global.1],
            local: [local.0, local.1],
        }
    }

    /// Items per work-group.
    pub fn local_total(&self) -> usize {
        self.local[0] * self.local[1]
    }

    /// Total work-items in the launch (before group padding).
    pub fn global_total(&self) -> usize {
        self.global[0] * self.global[1]
    }

    /// Work-groups per dimension (global rounded up to group multiples;
    /// items past the global extent are masked out, a convenience real
    /// OpenCL does not offer but every kernel ends up hand-coding).
    pub fn groups(&self) -> [usize; 2] {
        [
            self.global[0].div_ceil(self.local[0].max(1)),
            self.global[1].div_ceil(self.local[1].max(1)),
        ]
    }

    pub fn n_groups(&self) -> usize {
        let g = self.groups();
        g[0] * g[1]
    }

    pub fn validate(&self, max_work_group: usize) -> Result<()> {
        if self.global_total() == 0 {
            return Err(Error::InvalidLaunch("zero global size".into()));
        }
        if self.local_total() == 0 {
            return Err(Error::InvalidLaunch("zero local size".into()));
        }
        if self.local_total() > max_work_group {
            return Err(Error::InvalidLaunch(format!(
                "work-group of {} exceeds device maximum {}",
                self.local_total(),
                max_work_group
            )));
        }
        Ok(())
    }
}

/// Cost contributions of one executed work-group, fed to the CU queues.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupCost {
    pub cycles: f64,
    pub bytes: u64,
    pub bank_conflicts: u64,
    pub barriers: u64,
    pub atomics: u64,
    pub items: usize,
}

/// Execution context of one work-group.
///
/// Interior-mutable counters record the work each item declares
/// ([`Item::work`]) and the global-memory traffic flowing through the typed
/// accessors; they drive the roofline model with warp-divergence awareness:
/// a warp's cost is the *maximum* of its lanes' declared work, so kernels
/// with irregular per-item effort (Mandelbrot!) pay for divergence exactly
/// as the hardware would.
pub struct WorkGroup {
    group: [usize; 2],
    nd: NDRange,
    pes_per_cu: usize,
    local_mem_limit: usize,
    local_mem_used: Cell<usize>,
    item_ops: Box<[Cell<u64>]>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
    atomics: Cell<u64>,
    barriers: Cell<u64>,
    bank: BankModel,
    /// When set, the typed accessors record per-buffer byte envelopes into
    /// `accesses` — the read/write attribution the hazard checker consumes.
    track_access: bool,
    /// Envelopes accumulate across every group this context executes (they
    /// describe the *launch*, not one group), so `reset_for_group` leaves
    /// them alone.
    accesses: RefCell<Vec<AccessEnvelope>>,
    /// Last-hit index into `accesses`: kernels touch few buffers and touch
    /// the same one repeatedly, so this makes tracking O(1) per access.
    access_hint: Cell<usize>,
}

impl WorkGroup {
    pub(crate) fn new(
        nd: NDRange,
        pes_per_cu: usize,
        local_mem_limit: usize,
        banks: usize,
        track_access: bool,
    ) -> Self {
        WorkGroup {
            group: [0, 0],
            nd,
            pes_per_cu,
            local_mem_limit,
            local_mem_used: Cell::new(0),
            item_ops: (0..nd.local_total()).map(|_| Cell::new(0)).collect(),
            bytes_read: Cell::new(0),
            bytes_written: Cell::new(0),
            atomics: Cell::new(0),
            barriers: Cell::new(0),
            bank: BankModel::new(banks),
            track_access,
            accesses: RefCell::new(Vec::new()),
            access_hint: Cell::new(0),
        }
    }

    fn note_access(&self, buffer: BufferId, lo: u64, hi: u64, is_write: bool) {
        let mut v = self.accesses.borrow_mut();
        let hint = self.access_hint.get();
        let idx = if hint < v.len() && v[hint].buffer == buffer {
            hint
        } else if let Some(i) = v.iter().position(|e| e.buffer == buffer) {
            self.access_hint.set(i);
            i
        } else {
            v.push(AccessEnvelope {
                buffer,
                read: None,
                write: None,
            });
            self.access_hint.set(v.len() - 1);
            v.len() - 1
        };
        let slot = if is_write {
            &mut v[idx].write
        } else {
            &mut v[idx].read
        };
        *slot = Some(match *slot {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }

    /// Drain the recorded access envelopes (empty unless tracking was on).
    pub(crate) fn take_accesses(&mut self) -> Vec<AccessEnvelope> {
        self.access_hint.set(0);
        std::mem::take(&mut self.accesses.borrow_mut())
    }

    /// Re-aim this context at work-group `(gx, gy)` and clear counters.
    pub(crate) fn reset_for_group(&mut self, gx: usize, gy: usize) {
        self.group = [gx, gy];
        self.local_mem_used.set(0);
        for c in self.item_ops.iter() {
            c.set(0);
        }
        self.bytes_read.set(0);
        self.bytes_written.set(0);
        self.atomics.set(0);
        self.barriers.set(0);
        self.bank.reset();
    }

    /// This group's ID in dimension `dim` (0 or 1).
    pub fn group_id(&self, dim: usize) -> usize {
        self.group[dim]
    }

    /// Work-group extent in dimension `dim`.
    pub fn local_size(&self, dim: usize) -> usize {
        self.nd.local[dim]
    }

    /// Number of work-groups in dimension `dim`.
    pub fn num_groups(&self, dim: usize) -> usize {
        self.nd.groups()[dim]
    }

    /// Items per group (full group size, including masked lanes).
    pub fn local_total(&self) -> usize {
        self.nd.local_total()
    }

    /// Run `f` once per work-item of this group — **all** lanes, including
    /// those whose global ID falls beyond the global extent (OpenCL pads the
    /// last group; kernels carry the usual `if (gid < n)` guard, here
    /// [`Item::in_bounds`]). Local-memory algorithms rely on out-of-range
    /// lanes still participating in barriers and tree phases.
    pub fn for_each_item(&self, mut f: impl FnMut(&Item<'_>)) {
        let [lx_n, ly_n] = self.nd.local;
        for ly in 0..ly_n {
            let gy = self.group[1] * ly_n + ly;
            for lx in 0..lx_n {
                let gx = self.group[0] * lx_n + lx;
                let item = Item {
                    wg: self,
                    lx,
                    ly,
                    gx,
                    gy,
                };
                f(&item);
            }
        }
    }

    /// Work-group barrier (`barrier(CLK_LOCAL_MEM_FENCE)`): in the
    /// loop-fission execution model this only accounts its cost — phase
    /// separation is provided by consecutive `for_each_item` calls.
    pub fn barrier(&self) {
        self.barriers.set(self.barriers.get() + 1);
    }

    /// Allocate a local-memory array of `len` elements of `T`.
    ///
    /// Panics if the device's per-CU local memory budget is exceeded —
    /// mirroring the launch failure a real runtime would raise.
    pub fn local_buf<T: Scalar>(&self, len: usize) -> LocalBuf<T> {
        let bytes = len * std::mem::size_of::<T>();
        let used = self.local_mem_used.get() + bytes;
        if used > self.local_mem_limit {
            panic!(
                "local memory request of {used} bytes exceeds the device limit of {} bytes",
                self.local_mem_limit
            );
        }
        self.local_mem_used.set(used);
        LocalBuf::new(len)
    }

    /// The bank-conflict model for this group's local memory; kernels that
    /// optimise their access patterns record warp accesses here.
    pub fn bank_model(&self) -> &BankModel {
        &self.bank
    }

    fn count_read(&self, bytes: usize) {
        self.bytes_read.set(self.bytes_read.get() + bytes as u64);
    }

    fn count_write(&self, bytes: usize) {
        self.bytes_written
            .set(self.bytes_written.get() + bytes as u64);
    }

    /// Fold the recorded counters into the group's cycle/traffic cost.
    pub(crate) fn cost(&self) -> GroupCost {
        let lanes = self.nd.local_total();
        let warps = lanes.div_ceil(WARP_SIZE);
        // Lock-step warps: each warp pays for its slowest lane, issued over
        // ceil(warp/PEs) pipeline slots.
        let slots = (WARP_SIZE.min(lanes) as f64 / self.pes_per_cu as f64).ceil();
        let mut cycles = 0.0;
        let mut items = 0usize;
        for w in 0..warps {
            let lo = w * WARP_SIZE;
            let hi = ((w + 1) * WARP_SIZE).min(lanes);
            let mut max_ops = 0u64;
            for c in &self.item_ops[lo..hi] {
                let v = c.get();
                if v > 0 {
                    items += 1;
                }
                max_ops = max_ops.max(v);
            }
            cycles += max_ops as f64 * slots;
        }
        cycles += self.barriers.get() as f64 * BARRIER_CYCLES;
        cycles += self.bank.conflicts() as f64 * BANK_CONFLICT_CYCLES;
        cycles += self.atomics.get() as f64 * ATOMIC_CYCLES;
        GroupCost {
            cycles,
            bytes: self.bytes_read.get() + self.bytes_written.get(),
            bank_conflicts: self.bank.conflicts(),
            barriers: self.barriers.get(),
            atomics: self.atomics.get(),
            items,
        }
    }
}

/// One work-item's view: IDs plus counted global-memory accessors.
pub struct Item<'a> {
    wg: &'a WorkGroup,
    lx: usize,
    ly: usize,
    gx: usize,
    gy: usize,
}

impl<'a> Item<'a> {
    /// Global ID in dimension `dim` (`get_global_id`).
    #[inline]
    pub fn global_id(&self, dim: usize) -> usize {
        if dim == 0 {
            self.gx
        } else {
            self.gy
        }
    }

    /// The `if (gid < n)` guard: false for padding lanes of the last group.
    #[inline]
    pub fn in_bounds(&self) -> bool {
        self.gx < self.wg.nd.global[0] && self.gy < self.wg.nd.global[1]
    }

    /// Local ID in dimension `dim` (`get_local_id`).
    #[inline]
    pub fn local_id(&self, dim: usize) -> usize {
        if dim == 0 {
            self.lx
        } else {
            self.ly
        }
    }

    /// Row-major linearised local ID (the lane index within the group).
    #[inline]
    pub fn local_linear(&self) -> usize {
        self.ly * self.wg.nd.local[0] + self.lx
    }

    /// The warp this lane belongs to.
    #[inline]
    pub fn warp(&self) -> usize {
        self.local_linear() / WARP_SIZE
    }

    /// Declare `ops` units of arithmetic work for this item. Warp cost is
    /// the max over lanes, so divergent items serialise their warp.
    #[inline]
    pub fn work(&self, ops: u64) {
        let c = &self.wg.item_ops[self.local_linear()];
        c.set(c.get() + ops);
    }

    #[inline]
    fn note_elem<T: Scalar>(&self, buf: &Buffer<T>, i: usize, is_write: bool) {
        if self.wg.track_access {
            let sz = std::mem::size_of::<T>() as u64;
            let lo = i as u64 * sz;
            self.wg.note_access(buf.id(), lo, lo + sz, is_write);
        }
    }

    /// Counted global-memory load.
    #[inline]
    pub fn read<T: Scalar>(&self, buf: &Buffer<T>, i: usize) -> T {
        self.wg.count_read(std::mem::size_of::<T>());
        self.note_elem(buf, i, false);
        buf.get(i)
    }

    /// Counted global-memory store.
    #[inline]
    pub fn write<T: Scalar>(&self, buf: &Buffer<T>, i: usize, v: T) {
        self.wg.count_write(std::mem::size_of::<T>());
        self.note_elem(buf, i, true);
        buf.set(i, v)
    }

    /// Counted `atomicAdd` on an `f32` buffer (the OSEM error image).
    /// An atomic is a read-modify-write: 8 bytes of traffic.
    #[inline]
    pub fn atomic_add_f32(&self, buf: &Buffer<f32>, i: usize, v: f32) {
        self.wg.atomics.set(self.wg.atomics.get() + 1);
        self.wg.count_read(4);
        self.wg.count_write(4);
        self.note_elem(buf, i, false);
        self.note_elem(buf, i, true);
        buf.atomic_add(i, v);
    }

    /// Counted `atomic_add` on a `u32` buffer; returns the previous value.
    #[inline]
    pub fn atomic_add_u32(&self, buf: &Buffer<u32>, i: usize, v: u32) -> u32 {
        self.wg.atomics.set(self.wg.atomics.get() + 1);
        self.wg.count_read(4);
        self.wg.count_write(4);
        self.note_elem(buf, i, false);
        self.note_elem(buf, i, true);
        buf.atomic_add(i, v)
    }

    /// Charge additional read traffic beyond the element size — kernels with
    /// *uncoalesced* access patterns use this to account the full memory
    /// segment (32–128 B on Tesla-class hardware) each scattered access
    /// really moves.
    #[inline]
    pub fn traffic_read(&self, bytes: usize) {
        self.wg.count_read(bytes);
    }

    /// Charge additional write traffic (see [`Item::traffic_read`]).
    #[inline]
    pub fn traffic_write(&self, bytes: usize) {
        self.wg.count_write(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DeviceId;
    use std::sync::atomic::AtomicUsize;

    fn mk_buf<T: Scalar>(len: usize) -> Buffer<T> {
        Buffer::new_zeroed(DeviceId(0), len, Arc::new(AtomicUsize::new(0)))
    }

    fn mk_wg(nd: NDRange) -> WorkGroup {
        WorkGroup::new(nd, 8, 16 << 10, 16, false)
    }

    #[test]
    fn ndrange_linear_and_groups() {
        let nd = NDRange::linear(1000, 256);
        assert_eq!(nd.local_total(), 256);
        assert_eq!(nd.global_total(), 1000);
        assert_eq!(nd.groups(), [4, 1]);
        assert_eq!(nd.n_groups(), 4);
    }

    #[test]
    fn ndrange_two_d() {
        let nd = NDRange::two_d((64, 48), (16, 16));
        assert_eq!(nd.groups(), [4, 3]);
        assert_eq!(nd.local_total(), 256);
    }

    #[test]
    fn ndrange_validation() {
        assert!(NDRange::linear(0, 16).validate(256).is_err());
        assert!(NDRange::linear(16, 0).validate(256).is_err());
        assert!(NDRange::linear(16, 512).validate(256).is_err());
        assert!(NDRange::linear(16, 16).validate(256).is_ok());
    }

    #[test]
    fn padding_lanes_run_but_are_out_of_bounds() {
        let nd = NDRange::linear(10, 4); // 3 groups, last has 2 valid items
        let mut wg = mk_wg(nd);
        wg.reset_for_group(2, 0);
        let mut valid = vec![];
        let mut lanes = 0;
        wg.for_each_item(|it| {
            lanes += 1;
            if it.in_bounds() {
                valid.push(it.global_id(0));
            }
        });
        assert_eq!(lanes, 4, "all lanes of the padded group must run");
        assert_eq!(valid, vec![8, 9]);
    }

    #[test]
    fn global_and_local_ids_2d() {
        let nd = NDRange::two_d((8, 8), (4, 4));
        let mut wg = mk_wg(nd);
        wg.reset_for_group(1, 1);
        let mut ids = vec![];
        wg.for_each_item(|it| {
            ids.push((
                it.global_id(0),
                it.global_id(1),
                it.local_id(0),
                it.local_id(1),
            ));
        });
        assert_eq!(ids.len(), 16);
        assert_eq!(ids[0], (4, 4, 0, 0));
        assert_eq!(ids[15], (7, 7, 3, 3));
    }

    #[test]
    fn warp_divergence_costs_max_of_lanes() {
        let nd = NDRange::linear(32, 32); // one warp
        let mut wg = mk_wg(nd);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| {
            // one lane does 100 ops, the rest do 1
            it.work(if it.local_id(0) == 0 { 100 } else { 1 });
        });
        let cost = wg.cost();
        // slots = 32/8 = 4; warp cost = max(100) * 4
        assert_eq!(cost.cycles, 400.0);
    }

    #[test]
    fn uniform_work_normalisation() {
        // 64 items, 8 PEs: total lane-ops 64*10 = 640, 8 per cycle = 80 cycles.
        let nd = NDRange::linear(64, 64);
        let mut wg = mk_wg(nd);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| it.work(10));
        assert_eq!(wg.cost().cycles, 80.0);
    }

    #[test]
    fn memory_traffic_is_counted() {
        let buf = mk_buf::<f32>(64);
        let nd = NDRange::linear(64, 64);
        let mut wg = mk_wg(nd);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| {
            let i = it.global_id(0);
            let v = it.read(&buf, i);
            it.write(&buf, i, v + 1.0);
        });
        let cost = wg.cost();
        assert_eq!(cost.bytes, 64 * 4 * 2);
        assert_eq!(buf.get(7), 1.0);
    }

    #[test]
    fn barriers_and_atomics_add_cycles() {
        let buf = mk_buf::<f32>(1);
        let nd = NDRange::linear(8, 8);
        let mut wg = mk_wg(nd);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| it.atomic_add_f32(&buf, 0, 1.0));
        wg.barrier();
        let cost = wg.cost();
        assert_eq!(cost.atomics, 8);
        assert_eq!(cost.barriers, 1);
        assert!(cost.cycles >= 8.0 * ATOMIC_CYCLES + BARRIER_CYCLES);
        assert_eq!(buf.get(0), 8.0);
    }

    #[test]
    #[should_panic(expected = "local memory request")]
    fn local_mem_budget_is_enforced() {
        let nd = NDRange::linear(8, 8);
        let mut wg = WorkGroup::new(nd, 8, 64, 16, false);
        wg.reset_for_group(0, 0);
        let _ = wg.local_buf::<f64>(16); // 128 bytes > 64-byte budget
    }

    #[test]
    fn access_envelopes_record_touched_byte_ranges() {
        let src = mk_buf::<f32>(64);
        let dst = mk_buf::<f32>(64);
        let nd = NDRange::linear(8, 8);
        let mut wg = WorkGroup::new(nd, 8, 16 << 10, 16, true);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| {
            let i = it.global_id(0) + 2; // touches elements 2..10
            let v = it.read(&src, i);
            it.write(&dst, i, v);
        });
        let acc = wg.take_accesses();
        assert_eq!(acc.len(), 2);
        let src_env = acc.iter().find(|e| e.buffer == src.id()).unwrap();
        assert_eq!(src_env.read, Some((8, 40)));
        assert_eq!(src_env.write, None);
        let dst_env = acc.iter().find(|e| e.buffer == dst.id()).unwrap();
        assert_eq!(dst_env.write, Some((8, 40)));
        // Drained: a second take is empty.
        assert!(wg.take_accesses().is_empty());
    }

    #[test]
    fn untracked_workgroup_records_no_envelopes() {
        let buf = mk_buf::<f32>(8);
        let nd = NDRange::linear(8, 8);
        let mut wg = mk_wg(nd);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| {
            it.write(&buf, it.global_id(0), 1.0);
        });
        assert!(wg.take_accesses().is_empty());
    }

    #[test]
    fn reset_clears_all_counters() {
        let nd = NDRange::linear(8, 8);
        let mut wg = mk_wg(nd);
        wg.reset_for_group(0, 0);
        wg.for_each_item(|it| it.work(5));
        wg.barrier();
        assert!(wg.cost().cycles > 0.0);
        wg.reset_for_group(1, 0);
        let cost = wg.cost();
        assert_eq!(cost.cycles, 0.0);
        assert_eq!(cost.barriers, 0);
    }
}
