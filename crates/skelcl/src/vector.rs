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

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::meter;
use parking_lot::{MappedMutexGuard, Mutex, MutexGuard};
use std::sync::Arc;
use vgpu::{After, Buffer, Event, KernelBody, NDRange, Region, Scalar};

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

/// One device-resident piece of a vector.
#[derive(Clone)]
pub(crate) struct DevicePart<T: Scalar> {
    pub device: usize,
    pub offset: usize,
    pub len: usize,
    pub buffer: Buffer<T>,
}

/// One chunk of a streamed part upload: elements
/// `[start, start + len)` of the part's buffer hold valid data once
/// `event` completes on the device's copy engine (the vector twin of the
/// matrix `UploadChunk`).
#[derive(Clone)]
pub(crate) struct VecUploadChunk {
    pub start: usize,
    pub len: usize,
    pub event: Event,
}

/// Device parts plus their per-part streamed-upload chunk events.
pub(crate) type PartsWithChunks<T> = (Vec<DevicePart<T>>, Vec<Vec<VecUploadChunk>>);

struct State<T: Scalar> {
    host: Vec<T>,
    /// Host copy reflects the newest data.
    host_fresh: bool,
    /// Device copies (under `dist`) reflect the newest data.
    device_fresh: bool,
    dist: Distribution,
    parts: Vec<DevicePart<T>>,
    /// Per part: the chunk events of a streamed upload (empty for blocking
    /// uploads and device-born vectors).
    upload_chunks: Vec<Vec<VecUploadChunk>>,
    /// The platform clock epoch the chunks were recorded under (see the
    /// matrix twin: a `reset_clocks` invalidates recorded events).
    upload_epoch: u64,
}

/// The SkelCL vector. Cloning yields a second handle to the same vector
/// (C++ SkelCL passes vectors by reference).
pub struct Vector<T: Scalar> {
    ctx: Context,
    state: Arc<Mutex<State<T>>>,
}

impl<T: Scalar> Clone for Vector<T> {
    fn clone(&self) -> Self {
        Vector {
            ctx: self.ctx.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Scalar> std::fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Vector")
            .field("len", &st.host.len())
            .field("dist", &st.dist)
            .field("host_fresh", &st.host_fresh)
            .field("device_fresh", &st.device_fresh)
            .finish()
    }
}

/// Contiguous near-equal block ranges of `len` over `n` devices.
pub(crate) fn block_ranges(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.max(1);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut off = 0;
    for d in 0..n {
        let l = base + usize::from(d < extra);
        out.push((off, l));
        off += l;
    }
    out
}

fn default_distribution(ctx: &Context) -> Distribution {
    if ctx.n_devices() == 1 {
        Distribution::Single(0)
    } else {
        Distribution::Block
    }
}

/// Layout of `dist` for a vector of `len` elements: `(device, offset, len)`.
fn layout(dist: Distribution, len: usize, n_devices: usize) -> Vec<(usize, usize, usize)> {
    match dist {
        Distribution::Single(d) => vec![(d, 0, len)],
        Distribution::Copy => (0..n_devices).map(|d| (d, 0, len)).collect(),
        Distribution::Block => block_ranges(len, n_devices)
            .into_iter()
            .enumerate()
            .map(|(d, (off, l))| (d, off, l))
            .collect(),
    }
}

impl<T: Scalar> Vector<T> {
    /// Create a vector from host data (the paper's
    /// `Vector<float> A(a_ptr, ARRAY_SIZE)`); no device transfer happens
    /// until a skeleton needs the data.
    pub fn from_vec(ctx: &Context, data: Vec<T>) -> Self {
        let dist = default_distribution(ctx);
        Vector {
            ctx: ctx.clone(),
            state: Arc::new(Mutex::new(State {
                host: data,
                host_fresh: true,
                device_fresh: false,
                dist,
                parts: Vec::new(),
                upload_chunks: Vec::new(),
                upload_epoch: 0,
            })),
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
        &self.ctx
    }

    pub fn len(&self) -> usize {
        self.state.lock().host.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn distribution(&self) -> Distribution {
        self.state.lock().dist
    }

    /// Is the host copy current? (test/introspection aid)
    pub fn host_fresh(&self) -> bool {
        self.state.lock().host_fresh
    }

    /// Are the device copies current? (test/introspection aid)
    pub fn device_fresh(&self) -> bool {
        self.state.lock().device_fresh
    }

    /// Read access to the host data, downloading first only if the device
    /// copies are newer (lazy copying).
    pub fn host_view(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        Ok(MutexGuard::map(st, |s| s.host.as_mut_slice()))
    }

    /// Mutable access to the host data; marks the device copies stale.
    pub fn host_view_mut(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        st.host_fresh = true;
        st.device_fresh = false;
        st.parts.clear();
        st.upload_chunks.clear();
        Ok(MutexGuard::map(st, |s| s.host.as_mut_slice()))
    }

    /// Copy the current contents out to a `Vec` (downloads if needed).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        Ok(st.host.clone())
    }

    /// Copy the current contents out like [`Vector::to_vec`], but **without
    /// blocking the virtual host clock**: each part is downloaded by an
    /// asynchronous read on the device's copy stream, ordered after
    /// everything already scheduled on that device by a marker. Returns the
    /// data plus the virtual time at which the last read completes — the
    /// moment the response is ready. Coherence state is untouched; see
    /// [`Matrix::read_back_async`](crate::Matrix::read_back_async) for the
    /// serving rationale.
    pub fn read_back_async(&self) -> Result<(Vec<T>, f64)> {
        let st = self.state.lock();
        if st.host_fresh {
            return Ok((st.host.clone(), self.ctx.host_now_s()));
        }
        assert!(
            st.device_fresh,
            "vector has neither fresh host nor fresh device data"
        );
        let mut out = vec![T::default(); st.host.len()];
        let mut ready = self.ctx.host_now_s();
        match st.dist {
            Distribution::Single(_) | Distribution::Copy => {
                let part = st
                    .parts
                    .first()
                    .ok_or_else(|| Error::NotOnDevice("no device parts to download".into()))?;
                if part.len > 0 {
                    let q = self.ctx.copy_queue(part.device);
                    let dep = [q.enqueue_marker()];
                    let ev = q.enqueue_read(
                        &part.buffer,
                        Region::At(0),
                        &mut out,
                        1,
                        false,
                        After::Events(&dep),
                    )?;
                    ready = ready.max(ev.end_s);
                }
            }
            Distribution::Block => {
                let concurrent = st.parts.iter().filter(|p| p.len > 0).count().max(1);
                for p in &st.parts {
                    if p.len == 0 {
                        continue;
                    }
                    let q = self.ctx.copy_queue(p.device);
                    let dep = [q.enqueue_marker()];
                    let ev = q.enqueue_read(
                        &p.buffer,
                        Region::At(0),
                        &mut out[p.offset..p.offset + p.len],
                        concurrent,
                        false,
                        After::Events(&dep),
                    )?;
                    ready = ready.max(ev.end_s);
                }
            }
        }
        Ok((out, ready))
    }

    /// Declare that a kernel modified this vector on the devices by side
    /// effect (the paper's `dataOnDevicesModified()`, needed after the OSEM
    /// error-image kernel which "produces no result, but updates the error
    /// image by side-effect").
    pub fn mark_devices_modified(&self) {
        let mut st = self.state.lock();
        assert!(
            !st.parts.is_empty(),
            "mark_devices_modified on a vector that was never uploaded"
        );
        st.device_fresh = true;
        st.host_fresh = false;
        // The kernel's writes supersede any still-recorded upload events.
        st.upload_chunks.clear();
    }

    /// Upload to the devices (per the current distribution) if the device
    /// copies are stale. Skeletons call this implicitly; it is public so
    /// applications can pre-stage data like the paper's OSEM loop does.
    pub fn ensure_on_devices(&self) -> Result<()> {
        let mut st = self.state.lock();
        ensure_on_devices(&self.ctx, &mut st)
    }

    /// Upload like [`Vector::ensure_on_devices`], but **streamed in chunks
    /// of (at most) `chunk_len` elements on the copy stream**, recording
    /// each chunk's event so a streamed skeleton pass
    /// ([`crate::Map::apply_streamed`]) launches per-chunk kernels that
    /// start while later chunks are still crossing PCIe. A no-op when the
    /// devices are already fresh; bit-identical data either way.
    pub fn ensure_on_devices_streamed(&self, chunk_len: usize) -> Result<()> {
        let mut st = self.state.lock();
        ensure_on_devices_streamed(&self.ctx, &mut st, chunk_len)
    }

    /// Change the distribution (paper's `setDistribution`). If the devices
    /// hold the newest data, the required inter-device exchange happens
    /// automatically; otherwise only metadata changes and the next upload
    /// uses the new layout.
    pub fn set_distribution(&self, dist: Distribution) -> Result<()> {
        if let Distribution::Single(d) = dist {
            if d >= self.ctx.n_devices() {
                return Err(Error::BadDistribution(format!(
                    "device {d} out of range ({} devices)",
                    self.ctx.n_devices()
                )));
            }
        }
        let mut st = self.state.lock();
        if st.dist == dist {
            return Ok(());
        }
        if !st.device_fresh {
            st.dist = dist;
            st.parts.clear();
            st.upload_chunks.clear();
            return Ok(());
        }
        redistribute(&self.ctx, &mut st, dist, None::<&UserFn<fn(T, T) -> T>>)
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
        let mut st = self.state.lock();
        if st.device_fresh && st.dist == Distribution::Copy && st.dist != dist {
            redistribute(&self.ctx, &mut st, dist, Some(combine))
        } else if st.dist == dist {
            Ok(())
        } else if !st.device_fresh {
            st.dist = dist;
            st.parts.clear();
            st.upload_chunks.clear();
            Ok(())
        } else {
            redistribute(&self.ctx, &mut st, dist, None::<&UserFn<F>>)
        }
    }

    /// The device-resident parts (uploading first if needed).
    pub(crate) fn parts(&self) -> Result<Vec<DevicePart<T>>> {
        let mut st = self.state.lock();
        ensure_on_devices(&self.ctx, &mut st)?;
        Ok(st.parts.clone())
    }

    /// The device-resident parts with any pending streamed-upload chunk
    /// events, uploading *streamed* first if the devices are stale. Chunk
    /// lists are empty for blocking uploads and device-born parts.
    pub(crate) fn parts_with_upload_chunks(&self, chunk_len: usize) -> Result<PartsWithChunks<T>> {
        let mut st = self.state.lock();
        ensure_on_devices_streamed(&self.ctx, &mut st, chunk_len)?;
        let live = st.upload_chunks.len() == st.parts.len()
            && st.upload_epoch == self.ctx.platform().clock_epoch();
        let chunks = if live {
            st.upload_chunks.clone()
        } else {
            vec![Vec::new(); st.parts.len()]
        };
        Ok((st.parts.clone(), chunks))
    }

    /// Wrap one freshly computed device buffer as a `Single(device)`
    /// vector — the shape 2D-reduction outputs take when the whole result
    /// lands on one device (no host round trip; the host copy is stale
    /// until first read).
    pub(crate) fn from_single_device_part(
        ctx: &Context,
        device: usize,
        len: usize,
        buffer: Buffer<T>,
    ) -> Self {
        Vector::from_device_parts(
            ctx,
            len,
            Distribution::Single(device),
            vec![DevicePart {
                device,
                offset: 0,
                len,
                buffer,
            }],
        )
    }

    /// Wrap freshly computed device parts as a new vector (skeleton
    /// outputs): device data is fresh, host copy is stale.
    pub(crate) fn from_device_parts(
        ctx: &Context,
        len: usize,
        dist: Distribution,
        parts: Vec<DevicePart<T>>,
    ) -> Self {
        Vector {
            ctx: ctx.clone(),
            state: Arc::new(Mutex::new(State {
                host: vec![T::default(); len],
                host_fresh: false,
                device_fresh: true,
                dist,
                parts,
                upload_chunks: Vec::new(),
                upload_epoch: 0,
            })),
        }
    }
}

/// Upload `st.host` per `st.dist` if the device copies are stale.
fn ensure_on_devices<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.device_fresh {
        return Ok(());
    }
    assert!(
        st.host_fresh,
        "vector has neither fresh host nor fresh device data"
    );
    let mut span = ctx.span("vector.upload");
    span.attr("len", st.host.len().to_string());
    span.attr("distribution", format!("{:?}", st.dist));
    span.attr("devices", ctx.n_devices().to_string());
    let lay = layout(st.dist, st.host.len(), ctx.n_devices());
    let concurrent = lay.iter().filter(|(_, _, l)| *l > 0).count().max(1);
    let mut parts = Vec::with_capacity(lay.len());
    for (d, off, len) in lay {
        let buffer = ctx.device(d).alloc::<T>(len)?;
        if len > 0 {
            ctx.queue(d).enqueue_write(
                &buffer,
                Region::Whole,
                &st.host[off..off + len],
                concurrent,
                After::Device,
            )?;
        }
        parts.push(DevicePart {
            device: d,
            offset: off,
            len,
            buffer,
        });
    }
    st.parts = parts;
    st.upload_chunks.clear();
    st.device_fresh = true;
    Ok(())
}

/// Upload `st.host` like [`ensure_on_devices`], but streamed: each part
/// goes out in `chunk_len`-element asynchronous writes on the device's
/// copy stream, with the chunk events recorded in `st.upload_chunks`.
fn ensure_on_devices_streamed<T: Scalar>(
    ctx: &Context,
    st: &mut State<T>,
    chunk_len: usize,
) -> Result<()> {
    if st.device_fresh {
        return Ok(());
    }
    assert!(
        st.host_fresh,
        "vector has neither fresh host nor fresh device data"
    );
    let chunk_len = chunk_len.max(1);
    let mut span = ctx.span("vector.upload_streamed");
    span.attr("len", st.host.len().to_string());
    span.attr("distribution", format!("{:?}", st.dist));
    span.attr("chunk_len", chunk_len.to_string());
    span.attr("devices", ctx.n_devices().to_string());
    let lay = layout(st.dist, st.host.len(), ctx.n_devices());
    let concurrent = lay.iter().filter(|(_, _, l)| *l > 0).count().max(1);
    let mut parts = Vec::with_capacity(lay.len());
    let mut upload_chunks = Vec::with_capacity(lay.len());
    for (d, off, len) in lay {
        let buffer = ctx.device(d).alloc::<T>(len)?;
        let mut chunks = Vec::new();
        let queue = ctx.copy_queue(d);
        let mut done = 0;
        while done < len {
            let n = chunk_len.min(len - done);
            let event = queue.enqueue_write(
                &buffer,
                Region::At(done),
                &st.host[off + done..off + done + n],
                concurrent,
                After::Events(&[]),
            )?;
            chunks.push(VecUploadChunk {
                start: done,
                len: n,
                event,
            });
            done += n;
        }
        parts.push(DevicePart {
            device: d,
            offset: off,
            len,
            buffer,
        });
        upload_chunks.push(chunks);
    }
    st.parts = parts;
    st.upload_chunks = upload_chunks;
    st.upload_epoch = ctx.platform().clock_epoch();
    st.device_fresh = true;
    Ok(())
}

/// Download into `st.host` if the host copy is stale.
fn ensure_on_host<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.host_fresh {
        return Ok(());
    }
    assert!(
        st.device_fresh,
        "vector has neither fresh host nor fresh device data"
    );
    match st.dist {
        Distribution::Single(_) | Distribution::Copy => {
            let part = st
                .parts
                .first()
                .ok_or_else(|| Error::NotOnDevice("no device parts to download".into()))?;
            let mut tmp = vec![T::default(); part.len];
            ctx.queue(part.device).enqueue_read(
                &part.buffer,
                Region::Whole,
                &mut tmp,
                1,
                true,
                After::Device,
            )?;
            st.host = tmp;
        }
        Distribution::Block => {
            let concurrent = st.parts.iter().filter(|p| p.len > 0).count().max(1);
            let parts = st.parts.clone();
            for p in &parts {
                if p.len == 0 {
                    continue;
                }
                ctx.queue(p.device).enqueue_read(
                    &p.buffer,
                    Region::Whole,
                    &mut st.host[p.offset..p.offset + p.len],
                    concurrent,
                    false,
                    After::Device,
                )?;
            }
            ctx.sync();
        }
    }
    st.host_fresh = true;
    Ok(())
}

/// Move device-fresh data from `st.dist`/`st.parts` into `new_dist`,
/// optionally merging Copy parts with `combine`.
fn redistribute<T: Scalar, F>(
    ctx: &Context,
    st: &mut State<T>,
    new_dist: Distribution,
    combine: Option<&UserFn<F>>,
) -> Result<()>
where
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    let len = st.host.len();
    let n = ctx.n_devices();
    let new_lay = layout(new_dist, len, n);

    // Allocate destination parts.
    let mut new_parts = Vec::with_capacity(new_lay.len());
    for (d, off, l) in &new_lay {
        new_parts.push(DevicePart {
            device: *d,
            offset: *off,
            len: *l,
            buffer: ctx.device(*d).alloc::<T>(*l)?,
        });
    }

    if let Some(f) = combine {
        merge_copy_to(ctx, st, &mut new_parts, f)?;
    } else {
        move_data(ctx, st, &new_parts)?;
    }

    st.parts = new_parts;
    st.upload_chunks.clear();
    st.dist = new_dist;
    Ok(())
}

/// Plain data movement old-parts → new-parts (no combining).
fn move_data<T: Scalar>(ctx: &Context, st: &State<T>, new_parts: &[DevicePart<T>]) -> Result<()> {
    // Contention hint: transfers chain per destination device, so at most
    // ~one per device is in flight at any instant.
    let mut cross = 0usize;
    for np in new_parts {
        if np.len == 0 {
            continue;
        }
        for op in source_copies(st, np) {
            if op.0 != np.device {
                cross += 1;
            }
        }
    }
    let concurrent = cross.min(ctx.n_devices()).max(1);

    for np in new_parts {
        if np.len == 0 {
            continue;
        }
        for (src_dev, src_buf, src_off, dst_off, l) in source_copies(st, np) {
            let _ = src_dev;
            ctx.platform().copy(
                &src_buf,
                src_off,
                &np.buffer,
                dst_off,
                l,
                concurrent,
                After::Device,
            )?;
        }
    }
    ctx.sync();
    Ok(())
}

/// For a destination part, the copies needed to fill it from the old parts:
/// `(src_device, src_buffer, src_offset, dst_offset, len)`.
fn source_copies<T: Scalar>(
    st: &State<T>,
    np: &DevicePart<T>,
) -> Vec<(usize, Buffer<T>, usize, usize, usize)> {
    let mut out = Vec::new();
    let want = np.offset..np.offset + np.len;
    match st.dist {
        Distribution::Single(_) => {
            let op = &st.parts[0];
            out.push((
                op.device,
                op.buffer.clone(),
                want.start - op.offset,
                0,
                np.len,
            ));
        }
        Distribution::Copy => {
            // Prefer the copy already on the destination device.
            let op = st
                .parts
                .iter()
                .find(|p| p.device == np.device)
                .unwrap_or(&st.parts[0]);
            out.push((op.device, op.buffer.clone(), want.start, 0, np.len));
        }
        Distribution::Block => {
            for op in &st.parts {
                let lo = want.start.max(op.offset);
                let hi = want.end.min(op.offset + op.len);
                if lo < hi {
                    out.push((
                        op.device,
                        op.buffer.clone(),
                        lo - op.offset,
                        lo - np.offset,
                        hi - lo,
                    ));
                }
            }
        }
    }
    out
}

/// Copy→(target) with element-wise combining of the diverged per-device
/// copies (the OSEM error-image merge).
fn merge_copy_to<T: Scalar, F>(
    ctx: &Context,
    st: &State<T>,
    new_parts: &mut [DevicePart<T>],
    combine: &UserFn<F>,
) -> Result<()>
where
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    // Each destination folds its sources sequentially; ~n_devices
    // transfers are in flight at once.
    let n = ctx.n_devices();
    let cross = n.max(1);

    let program = codegen::zip_program(
        combine.name(),
        combine.source(),
        T::TYPE_NAME,
        T::TYPE_NAME,
        T::TYPE_NAME,
        0,
    );
    let compiled = ctx.get_or_build(&program)?;
    let static_ops = combine.static_ops();

    for np in new_parts.iter_mut() {
        if np.len == 0 {
            continue;
        }
        // Seed with the destination device's own copy (device-local).
        let own = st
            .parts
            .iter()
            .find(|p| p.device == np.device)
            .ok_or_else(|| Error::NotOnDevice("copy distribution missing a device".into()))?;
        ctx.platform().copy(
            &own.buffer,
            np.offset,
            &np.buffer,
            0,
            np.len,
            1,
            After::Device,
        )?;

        // Fold in every other device's copy of this range.
        for op in st.parts.iter().filter(|p| p.device != np.device) {
            let tmp = ctx.device(np.device).alloc::<T>(np.len)?;
            ctx.platform()
                .copy(&op.buffer, np.offset, &tmp, 0, np.len, cross, After::Device)?;

            let f = combine.func().clone();
            let dst = np.buffer.clone();
            let src = tmp.clone();
            let body: KernelBody = Arc::new(move |wg| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let a = it.read(&dst, i);
                    let b = it.read(&src, i);
                    let (r, dyn_ops) = meter::metered(|| f(a, b));
                    it.write(&dst, i, r);
                    it.work(static_ops + dyn_ops);
                });
            });
            let kernel = compiled.with_body(body);
            ctx.queue(np.device).launch(
                &kernel,
                NDRange::linear(np.len, ctx.work_group().min(np.len)),
                After::Device,
            )?;
        }
    }
    ctx.sync();
    Ok(())
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
    fn block_ranges_cover_exactly() {
        for (len, n) in [(10, 3), (0, 4), (7, 8), (100, 4)] {
            let r = block_ranges(len, n);
            assert_eq!(r.len(), n);
            let mut off = 0;
            for (o, l) in r {
                assert_eq!(o, off);
                off += l;
            }
            assert_eq!(off, len);
        }
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
            assert_eq!(p.len, 10);
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
            assert_eq!(p.buffer.to_vec(), data(40)[p.offset..p.offset + p.len]);
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
                for i in 0..p.len {
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
}
