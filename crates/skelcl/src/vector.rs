//! The abstract vector: unified host/device memory with lazy transfers and
//! multi-device distributions.
//!
//! Paper, Section III-A: *"SkelCL offers the `Vector` class providing a
//! unified abstraction for a contiguous memory area that is accessible by
//! both, CPU and GPU. [...] Data transfer between these corresponding memory
//! areas is performed implicitly [...] Before every data transfer, the
//! vector implementation checks whether the data transfer is necessary; only
//! then the data is actually transferred. [...] This lazy copying minimizes
//! costly data transfers between host and device."*
//!
//! Section III-D adds the multi-GPU story: a vector is "either completely
//! copied to every device, or evenly divided into one part per device", the
//! user can change a vector's distribution at any time, and "data exchange
//! between multiple devices is performed automatically by SkelCL" — including
//! redistribution *with a combine operator*, which the OSEM case study uses
//! to merge per-GPU error images.
//!
//! A vector of `len` elements is a `len × 1` [`Matrix`]: its distributions
//! are the one-column matrix's `Single`, `Copy` and
//! `RowBlock { halo: 0 }`, so the lazy transfers, uploads (blocking and
//! streamed), downloads and redistribution all run through `matrix.rs`.
//! Skeletons read a vector's device parts as one-column matrix parts:
//! a part's `row_offset`/`rows` are its element range.

use crate::codegen::UserFn;
use crate::context::Context;
use crate::error::Result;
use crate::matrix::{Matrix, MatrixDistribution, MatrixPart, PartsWithChunks};
use parking_lot::MappedMutexGuard;
use vgpu::Scalar;

/// How a vector's data is laid out across the context's devices
/// (paper Section III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// The whole vector lives on one device.
    Single(usize),
    /// Every device holds a full copy.
    Copy,
    /// The vector is evenly divided into one contiguous part per device.
    Block,
}

impl Distribution {
    /// The same layout for the vector's one-column matrix.
    fn to_matrix(self) -> MatrixDistribution {
        match self {
            Distribution::Single(d) => MatrixDistribution::Single(d),
            Distribution::Copy => MatrixDistribution::Copy,
            Distribution::Block => MatrixDistribution::row_block(),
        }
    }

    fn from_matrix(dist: MatrixDistribution) -> Self {
        match dist {
            MatrixDistribution::Single(d) => Distribution::Single(d),
            MatrixDistribution::Copy => Distribution::Copy,
            MatrixDistribution::RowBlock { halo: 0 } => Distribution::Block,
            other => unreachable!("a vector is never laid out as {other:?}"),
        }
    }
}

/// The SkelCL vector. Cloning yields a second handle to the same vector
/// (C++ SkelCL passes vectors by reference).
#[derive(Clone, Debug)]
pub struct Vector<T: Scalar> {
    matrix: Matrix<T>,
}

impl<T: Scalar> Vector<T> {
    /// Create a vector from host data (the paper's
    /// `Vector<float> A(a_ptr, ARRAY_SIZE)`); no device transfer happens
    /// until a skeleton needs the data.
    pub fn from_vec(ctx: &Context, data: Vec<T>) -> Self {
        Vector {
            matrix: Matrix::from_vec(ctx, data.len(), 1, data),
        }
    }

    pub fn from_slice(ctx: &Context, data: &[T]) -> Self {
        Vector::from_vec(ctx, data.to_vec())
    }

    /// A vector of `len` default-initialised elements.
    pub fn zeroed(ctx: &Context, len: usize) -> Self {
        Vector::from_vec(ctx, vec![T::default(); len])
    }

    pub fn ctx(&self) -> &Context {
        self.matrix.ctx()
    }

    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn distribution(&self) -> Distribution {
        Distribution::from_matrix(self.matrix.distribution())
    }

    /// Is the host copy current? (test/introspection aid)
    pub fn host_fresh(&self) -> bool {
        self.matrix.host_fresh()
    }

    /// Are the device copies current? (test/introspection aid)
    pub fn device_fresh(&self) -> bool {
        self.matrix.device_fresh()
    }

    /// Read access to the host data, downloading first only if the device
    /// copies are newer (lazy copying).
    pub fn host_view(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        self.matrix.host_view()
    }

    /// Mutable access to the host data; marks the device copies stale.
    pub fn host_view_mut(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        self.matrix.host_view_mut()
    }

    /// Copy the current contents out to a `Vec` (downloads if needed).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        self.matrix.to_vec()
    }

    /// Copy the current contents out like [`Vector::to_vec`], but **without
    /// blocking the virtual host clock**: each part is downloaded by an
    /// asynchronous read on the device's copy stream, ordered after
    /// everything already scheduled on that device by a marker. Returns the
    /// data plus the virtual time at which the last read completes — the
    /// moment the response is ready. Coherence state is untouched; see
    /// [`Matrix::read_back_async`] for the serving rationale.
    pub fn read_back_async(&self) -> Result<(Vec<T>, f64)> {
        self.matrix.read_back_async()
    }

    /// Declare that a kernel modified this vector on the devices by side
    /// effect (the paper's `dataOnDevicesModified()`, needed after the OSEM
    /// error-image kernel which "produces no result, but updates the error
    /// image by side-effect").
    pub fn mark_devices_modified(&self) {
        self.matrix.mark_devices_modified();
    }

    /// Upload to the devices (per the current distribution) if the device
    /// copies are stale. Skeletons call this implicitly; it is public so
    /// applications can pre-stage data like the paper's OSEM loop does.
    pub fn ensure_on_devices(&self) -> Result<()> {
        self.matrix.ensure_on_devices()
    }

    /// Upload like [`Vector::ensure_on_devices`], but **streamed in chunks
    /// of (at most) `chunk_len` elements on the copy stream**, recording
    /// each chunk's event so a streamed skeleton pass
    /// ([`crate::Map::apply_streamed`]) launches per-chunk kernels that
    /// start while later chunks are still crossing PCIe. A no-op when the
    /// devices are already fresh; bit-identical data either way.
    pub fn ensure_on_devices_streamed(&self, chunk_len: usize) -> Result<()> {
        self.matrix.ensure_on_devices_streamed(chunk_len)
    }

    /// Change the distribution (paper's `setDistribution`). If the devices
    /// hold the newest data, the required inter-device exchange happens
    /// automatically; otherwise only metadata changes and the next upload
    /// uses the new layout.
    pub fn set_distribution(&self, dist: Distribution) -> Result<()> {
        self.matrix.set_distribution(dist.to_matrix())
    }

    /// Change the distribution, merging diverged per-device copies with a
    /// binary operator (paper: `c.setDistribution(Distribution::block, add)`
    /// — "reduce (element-wise add) all copies of error image").
    ///
    /// Only meaningful from `Copy` with fresh device data; in every other
    /// state it behaves like [`Vector::set_distribution`].
    pub fn set_distribution_with<F>(&self, dist: Distribution, combine: &UserFn<F>) -> Result<()>
    where
        F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
    {
        self.matrix
            .set_distribution_with(dist.to_matrix(), Some(combine))
    }

    /// The device-resident one-column parts (uploading first if needed).
    pub(crate) fn parts(&self) -> Result<Vec<MatrixPart<T>>> {
        self.matrix.parts()
    }

    /// The device-resident parts with any pending streamed-upload chunk
    /// events (chunks of `chunk_len` elements), uploading *streamed* first
    /// if the devices are stale. Chunk lists are empty for blocking uploads
    /// and device-born parts.
    pub(crate) fn parts_with_upload_chunks(&self, chunk_len: usize) -> Result<PartsWithChunks<T>> {
        self.matrix.parts_with_upload_chunks(chunk_len)
    }

    /// Wrap freshly computed one-column device parts as a new vector
    /// (skeleton outputs): device data is fresh, host copy is stale.
    pub(crate) fn from_device_parts(
        ctx: &Context,
        len: usize,
        dist: Distribution,
        parts: Vec<MatrixPart<T>>,
    ) -> Self {
        Vector {
            matrix: Matrix::from_device_parts(ctx, len, 1, dist.to_matrix(), parts, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextConfig;

    fn ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("skelcl-vector-tests"),
        )
    }

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn creation_is_lazy_no_transfer() {
        let c = ctx(2);
        let before = c.platform().stats_snapshot();
        let v = Vector::from_vec(&c, data(100));
        assert_eq!(v.len(), 100);
        assert!(!v.device_fresh());
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0, "creation must not transfer");
    }

    #[test]
    fn read_back_async_matches_to_vec_without_host_sync() {
        for (dist, devices) in [
            (Distribution::Block, 3),
            (Distribution::Copy, 2),
            (Distribution::Single(1), 2),
        ] {
            let c = ctx(devices);
            let v = Vector::from_vec(&c, data(40));
            v.set_distribution(dist).unwrap();
            v.ensure_on_devices().unwrap();
            v.mark_devices_modified(); // devices are the truth now
            let host_before = c.host_now_s();
            let (got, ready) = v.read_back_async().unwrap();
            assert_eq!(
                c.host_now_s(),
                host_before,
                "async read-back must not advance the host clock ({dist:?})"
            );
            assert!(ready >= host_before, "{dist:?}");
            assert!(!v.host_fresh(), "coherence state must be untouched");
            assert_eq!(got, data(40), "{dist:?}");
        }
    }

    #[test]
    fn ensure_on_devices_uploads_once() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(100));
        let before = c.platform().stats_snapshot();
        v.ensure_on_devices().unwrap();
        let mid = c.platform().stats_snapshot();
        assert_eq!((mid - before).h2d_transfers, 2, "one upload per block part");
        v.ensure_on_devices().unwrap();
        let delta = c.platform().stats_snapshot() - mid;
        assert_eq!(delta.total_transfers(), 0, "second ensure must be lazy");
    }

    #[test]
    fn roundtrip_through_block_distribution() {
        let c = ctx(3);
        let v = Vector::from_vec(&c, data(101));
        v.ensure_on_devices().unwrap();
        // Pretend the host copy is stale, then lazily download.
        v.mark_devices_modified();
        assert!(!v.host_fresh());
        assert_eq!(v.to_vec().unwrap(), data(101));
        assert!(v.host_fresh());
    }

    #[test]
    fn host_view_mut_invalidates_device_copies() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(10));
        v.ensure_on_devices().unwrap();
        assert!(v.device_fresh());
        v.host_view_mut().unwrap()[0] = 99.0;
        assert!(!v.device_fresh());
        assert_eq!(v.to_vec().unwrap()[0], 99.0);
    }

    #[test]
    fn set_distribution_without_device_data_is_metadata_only() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(10));
        let before = c.platform().stats_snapshot();
        v.set_distribution(Distribution::Copy).unwrap();
        assert_eq!(v.distribution(), Distribution::Copy);
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn copy_distribution_uploads_to_every_device() {
        let c = ctx(3);
        let v = Vector::from_vec(&c, data(10));
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        let parts = v.parts().unwrap();
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.rows, 10);
            assert_eq!(p.buffer.to_vec(), data(10));
        }
    }

    #[test]
    fn block_to_single_gathers_on_target_device() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(20));
        v.ensure_on_devices().unwrap(); // Block by default
        v.set_distribution(Distribution::Single(1)).unwrap();
        let parts = v.parts().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].device, 1);
        assert_eq!(parts[0].buffer.to_vec(), data(20));
    }

    #[test]
    fn single_to_block_scatters() {
        let c = ctx(4);
        let v = Vector::from_vec(&c, data(40));
        v.set_distribution(Distribution::Single(0)).unwrap();
        v.ensure_on_devices().unwrap();
        v.set_distribution(Distribution::Block).unwrap();
        let parts = v.parts().unwrap();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(
                p.buffer.to_vec(),
                data(40)[p.row_offset..p.row_offset + p.rows]
            );
        }
        assert_eq!(v.to_vec().unwrap(), data(40));
    }

    #[test]
    fn copy_to_block_prefers_local_copies() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(16));
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        v.set_distribution(Distribution::Block).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.d2d_transfers, 0,
            "copy->block must use device-local copies only"
        );
        assert_eq!(v.to_vec().unwrap(), data(16));
    }

    #[test]
    fn merge_with_add_combines_diverged_copies() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, vec![0.0f32; 8]);
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        // Diverge the two copies by hand (as a side-effect kernel would).
        {
            let parts = v.parts().unwrap();
            for (d, p) in parts.iter().enumerate() {
                for i in 0..p.rows {
                    p.buffer.set(i, (d + 1) as f32 * 10.0 + i as f32);
                }
            }
        }
        v.mark_devices_modified();
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        let got = v.to_vec().unwrap();
        let want: Vec<f32> = (0..8).map(|i| 30.0 + 2.0 * i as f32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_with_part_len_not_divisible_by_work_group() {
        // Regression: the merge kernel's padding lanes must not touch
        // out-of-range indices (part length 27 with work-group 64).
        let c = ctx(2);
        let n = 54; // 27 per device under Block
        let v = Vector::from_vec(&c, vec![1.0f32; n]);
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified();
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![2.0f32; n]);
    }

    #[test]
    fn merge_from_non_copy_falls_back_to_plain_redistribution() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(8));
        v.ensure_on_devices().unwrap(); // Block
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Single(0), &add)
            .unwrap();
        assert_eq!(v.to_vec().unwrap(), data(8));
    }

    #[test]
    fn invalid_single_device_is_rejected() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(4));
        assert!(v.set_distribution(Distribution::Single(5)).is_err());
    }

    #[test]
    fn redistribution_advances_virtual_time() {
        let c = ctx(4);
        let v = Vector::from_vec(&c, data(1 << 16));
        v.ensure_on_devices().unwrap();
        c.sync();
        let t0 = c.host_now_s();
        v.set_distribution(Distribution::Copy).unwrap();
        c.sync();
        assert!(c.host_now_s() > t0, "allgather must cost virtual time");
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let c = ctx(1);
        let v = Vector::from_vec(&c, data(4));
        let w = v.clone();
        v.host_view_mut().unwrap()[0] = 7.0;
        assert_eq!(w.to_vec().unwrap()[0], 7.0);
    }

    #[test]
    fn empty_device_fresh_vector_downloads_nothing() {
        let sq = crate::skel_fn!(
            fn sq(x: f32) -> f32 {
                x * x
            }
        );
        let map = crate::Map::new(sq);
        for (devices, dist) in [
            (1, Distribution::Single(0)),
            (2, Distribution::Single(0)),
            (2, Distribution::Copy),
        ] {
            let c = ctx(devices);
            let v = Vector::<f32>::from_vec(&c, vec![]);
            v.set_distribution(dist).unwrap();
            let out = map.apply(&v).unwrap();
            assert!(!out.host_fresh());
            c.sync();
            let host_before = c.host_now_s();
            let before = c.platform().stats_snapshot();
            assert!(out.to_vec().unwrap().is_empty());
            let delta = c.platform().stats_snapshot() - before;
            assert_eq!(delta.d2h_transfers, 0, "{dist:?} on {devices}: no d2h");
            assert_eq!(
                c.host_now_s(),
                host_before,
                "{dist:?} on {devices}: the host clock must not move"
            );
        }
    }
}
