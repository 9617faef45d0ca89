//! The abstract matrix: a 2D host/device container with lazy transfers and
//! row-block multi-device distribution with halo rows.
//!
//! This is the 2D generalisation of the paper's vector that SkelCL shipped
//! after the paper (the `Matrix<T>` container behind the Gaussian / Sobel /
//! Canny benchmark suite), and the one container the library implements: a
//! [`crate::Vector`] of `len` elements is a `len × 1` matrix whose
//! `Single`/`Copy`/`Block` distributions are `Single`/`Copy`/
//! `RowBlock { halo: 0 }` here, so this module holds the only lazy-transfer,
//! layout, upload, download and redistribution code. Data is row-major.
//!
//! The multi-GPU story follows Section III-D of the paper, extended with the
//! *overlap* idea of SkelCL's stencil work: under
//! [`MatrixDistribution::RowBlock`] each device owns a contiguous block of
//! rows **plus `halo` read-only rows above and below it**, and the library
//! keeps those halo rows coherent by automatic device-to-device exchange —
//! the transfers show up in the platform's [`vgpu::StatsSnapshot`]
//! accounting like every other copy.
//!
//! Every device-to-device copy here — a redistribution, the `Copy` merge,
//! a halo exchange — is built as one list of planned copies and issued by
//! one planner (`issue_copies`): copies wait for events, not whole
//! devices; lock-step plans run their cross-device copies in rounds of
//! disjoint device pairs; and each copy is charged the host-bus contention
//! of the at most ⌊n/2⌋ cross-device copies that can be in flight, since
//! each holds two copy engines.
//!
//! Halo rows wrap around the matrix edges (row `-1` is the last row), which
//! makes every part's halo well-defined regardless of position and lets the
//! `Wrap` boundary mode of [`crate::Stencil2D`] work across devices;
//! `Neumann`/`Zero` boundaries simply never read the wrapped rows.
//!
//! [`MatrixDistribution::ColBlock`] splits *columns* instead: each device
//! owns all rows of a contiguous column block. Host↔device transfers are
//! strided (one per row — each row's column slice is contiguous, the rows
//! are not), and redistribution between row- and column-based layouts
//! splits every row at owner column boundaries, entirely device-to-device
//! (one planned copy per row segment).
//! Column blocks feed the [`crate::AllPairs`] skeleton's `B` operand
//! (matrix multiplication, pairwise distances).

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::meter;
use parking_lot::{MappedMutexGuard, Mutex, MutexGuard};
use std::sync::Arc;
use vgpu::{After, Buffer, Event, KernelBody, NDRange, Region, Scalar};

/// How a matrix's rows are laid out across the context's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixDistribution {
    /// The whole matrix lives on one device.
    Single(usize),
    /// Every device holds a full copy.
    Copy,
    /// Rows are evenly divided into one contiguous block per device; each
    /// part additionally stores `halo` rows of overlap above and below its
    /// block (wrapping at the matrix edges).
    RowBlock { halo: usize },
    /// Columns are evenly divided into one contiguous block per device;
    /// every part stores all rows of its column block. Transfers are
    /// strided (one per row), which is exactly what a real OpenCL
    /// `clEnqueueWriteBufferRect` would batch up.
    ColBlock,
}

impl MatrixDistribution {
    /// Row-block with no overlap rows.
    pub fn row_block() -> Self {
        MatrixDistribution::RowBlock { halo: 0 }
    }

    /// Do parts under this distribution span the full matrix width?
    pub(crate) fn is_full_width(self) -> bool {
        !matches!(self, MatrixDistribution::ColBlock)
    }
}

/// One device-resident piece of a matrix: `halo_above + rows + halo_below`
/// consecutive (mod `n_rows`) rows of the part's column range, of which
/// `rows` starting at global row `row_offset` are *owned* (written back on
/// download / redistribution). Row-based distributions own the full width
/// (`col_offset == 0`, `cols == ` matrix width); under
/// [`MatrixDistribution::ColBlock`] each part owns the `cols` columns
/// starting at `col_offset`. The buffer's row stride is always `cols`.
#[derive(Clone)]
pub(crate) struct MatrixPart<T: Scalar> {
    pub device: usize,
    pub row_offset: usize,
    pub rows: usize,
    pub halo_above: usize,
    pub halo_below: usize,
    pub col_offset: usize,
    pub cols: usize,
    pub buffer: Buffer<T>,
}

impl<T: Scalar> MatrixPart<T> {
    /// A halo-free one-column part owning rows `[row_offset, row_offset +
    /// rows)`: the shape of every vector part.
    pub fn column(device: usize, row_offset: usize, rows: usize, buffer: Buffer<T>) -> Self {
        MatrixPart {
            device,
            row_offset,
            rows,
            halo_above: 0,
            halo_below: 0,
            col_offset: 0,
            cols: 1,
            buffer,
        }
    }

    /// Total rows stored in the buffer (owned + halos).
    pub fn span_rows(&self) -> usize {
        self.halo_above + self.rows + self.halo_below
    }

    /// Element offset of the first *owned* row in the part's buffer — the
    /// base every strided read pattern (column folds, row-segment folds)
    /// must add to skip the halo rows.
    pub fn owned_base(&self) -> usize {
        self.halo_above * self.cols
    }

    /// The global row stored at span row `s` of this part's buffer.
    pub fn global_row(&self, s: usize, n_rows: usize) -> usize {
        debug_assert!(s < self.span_rows());
        (self.row_offset + n_rows + s - self.halo_above) % n_rows
    }
}

/// One chunk of a streamed part upload: span rows
/// `[span_start, span_start + span_len)` of the part's buffer hold valid
/// data once `event` completes on the device's copy engine. A consumer
/// kernel reading those rows waits for `event` (`After::Events`); rows
/// not yet covered by any chunk are still in flight.
#[derive(Clone)]
pub(crate) struct UploadChunk {
    pub span_start: usize,
    pub span_len: usize,
    pub event: Event,
}

/// Device parts plus their per-part streamed-upload chunk events.
pub(crate) type PartsWithChunks<T> = (Vec<MatrixPart<T>>, Vec<Vec<UploadChunk>>);

struct State<T: Scalar> {
    host: Vec<T>,
    rows: usize,
    cols: usize,
    /// Host copy reflects the newest data.
    host_fresh: bool,
    /// Device copies (owned regions, under `dist`) reflect the newest data.
    device_fresh: bool,
    /// Halo rows agree with their owners' current data. Invalidated when a
    /// skeleton writes fresh device parts; re-established by upload,
    /// redistribution or an explicit [`Matrix::halo_exchange`].
    halos_fresh: bool,
    dist: MatrixDistribution,
    parts: Vec<MatrixPart<T>>,
    /// Per part: the chunk events of a streamed upload (empty for blocking
    /// uploads and device-born matrices). Consumed by the streamed skeleton
    /// paths; other consumers may ignore it — their device-serializing
    /// launches wait for the whole device anyway.
    upload_chunks: Vec<Vec<UploadChunk>>,
    /// The platform clock epoch the chunks were recorded under: a
    /// `reset_clocks` between upload and consumption invalidates the
    /// events' timestamps, so stale-epoch chunks are discarded instead of
    /// waited on.
    upload_epoch: u64,
}

/// The SkelCL matrix. Cloning yields a second handle to the same matrix
/// (C++ SkelCL passes containers by reference).
pub struct Matrix<T: Scalar> {
    ctx: Context,
    state: Arc<Mutex<State<T>>>,
}

impl<T: Scalar> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix {
            ctx: self.ctx.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Matrix")
            .field("rows", &st.rows)
            .field("cols", &st.cols)
            .field("dist", &st.dist)
            .field("host_fresh", &st.host_fresh)
            .field("device_fresh", &st.device_fresh)
            .field("halos_fresh", &st.halos_fresh)
            .finish()
    }
}

fn default_distribution(ctx: &Context) -> MatrixDistribution {
    if ctx.n_devices() == 1 {
        MatrixDistribution::Single(0)
    } else {
        MatrixDistribution::RowBlock { halo: 0 }
    }
}

/// Contiguous near-equal block ranges `(offset, len)` of `len` over `n`
/// devices.
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

/// Allocate the parts of `dist` for a `rows × cols` matrix on the
/// context's devices (buffers zeroed; nothing is transferred).
fn alloc_layout<T: Scalar>(
    ctx: &Context,
    dist: MatrixDistribution,
    rows: usize,
    cols: usize,
) -> Result<Vec<MatrixPart<T>>> {
    let n_devices = ctx.n_devices();
    // Part geometry: (device, row_offset, rows, halo rows above and below,
    // col_offset, cols).
    let full_width = |device, row_offset, rows, halo| (device, row_offset, rows, halo, 0, cols);
    let geoms: Vec<_> = match dist {
        MatrixDistribution::Single(d) => vec![full_width(d, 0, rows, 0)],
        MatrixDistribution::Copy => (0..n_devices).map(|d| full_width(d, 0, rows, 0)).collect(),
        MatrixDistribution::RowBlock { halo } => {
            // Wrapped halos are only well-defined up to one full extra copy
            // of the matrix in each direction, so wider requests clamp to
            // `rows`. The clamp is *lossless*: a full-height halo already
            // holds every matrix row within reach of any wrapped or clamped
            // neighbour access, and `Stencil2DView::get` resolves
            // beyond-span deltas modulo the height against exactly that
            // invariant (regression: `tests/degenerate_shapes.rs`).
            let halo = halo.min(rows);
            block_ranges(rows, n_devices)
                .into_iter()
                .enumerate()
                .map(|(d, (off, len))| full_width(d, off, len, if len == 0 { 0 } else { halo }))
                .collect()
        }
        MatrixDistribution::ColBlock => block_ranges(cols, n_devices)
            .into_iter()
            .enumerate()
            .map(|(d, (off, len))| (d, 0, if len == 0 { 0 } else { rows }, 0, off, len))
            .collect(),
    };
    geoms
        .into_iter()
        .map(|(device, row_offset, rows, halo, col_offset, cols)| {
            Ok(MatrixPart {
                device,
                row_offset,
                rows,
                halo_above: halo,
                halo_below: halo,
                col_offset,
                cols,
                buffer: ctx.device(device).alloc::<T>((2 * halo + rows) * cols)?,
            })
        })
        .collect()
}

impl<T: Scalar> Matrix<T> {
    /// Create a matrix from row-major host data; no device transfer happens
    /// until a skeleton needs the data (lazy copying, Section III-A).
    pub fn from_vec(ctx: &Context, rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data must be rows*cols elements"
        );
        let dist = default_distribution(ctx);
        Matrix {
            ctx: ctx.clone(),
            state: Arc::new(Mutex::new(State {
                host: data,
                rows,
                cols,
                host_fresh: true,
                device_fresh: false,
                halos_fresh: false,
                dist,
                parts: Vec::new(),
                upload_chunks: Vec::new(),
                upload_epoch: 0,
            })),
        }
    }

    pub fn from_slice(ctx: &Context, rows: usize, cols: usize, data: &[T]) -> Self {
        Matrix::from_vec(ctx, rows, cols, data.to_vec())
    }

    /// A matrix of `rows × cols` default-initialised elements.
    pub fn zeroed(ctx: &Context, rows: usize, cols: usize) -> Self {
        Matrix::from_vec(ctx, rows, cols, vec![T::default(); rows * cols])
    }

    /// Build from a per-element generator `f(row, col)`.
    pub fn from_fn(ctx: &Context, rows: usize, cols: usize, f: impl Fn(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_vec(ctx, rows, cols, data)
    }

    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    pub fn rows(&self) -> usize {
        self.state.lock().rows
    }

    pub fn cols(&self) -> usize {
        self.state.lock().cols
    }

    /// `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.rows, st.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        let st = self.state.lock();
        st.rows * st.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn distribution(&self) -> MatrixDistribution {
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

    /// Are the halo rows coherent with their owners? (test/introspection aid)
    pub fn halos_fresh(&self) -> bool {
        self.state.lock().halos_fresh
    }

    /// Read access to the row-major host data, downloading first only if the
    /// device copies are newer (lazy copying).
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
        st.halos_fresh = false;
        st.parts.clear();
        st.upload_chunks.clear();
        Ok(MutexGuard::map(st, |s| s.host.as_mut_slice()))
    }

    /// Copy the current contents out to a row-major `Vec` (downloads the
    /// owned regions if needed; halo rows are never written back).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        Ok(st.host.clone())
    }

    /// Copy the current contents out like [`Matrix::to_vec`], but **without
    /// blocking the virtual host clock**: each part's owned region is
    /// downloaded by asynchronous reads on the device's copy stream, ordered
    /// after everything already scheduled on that device by a marker.
    /// Returns the data plus the virtual time at which the last read
    /// completes — the moment the response is ready. Coherence state is
    /// untouched (the matrix's own host copy stays stale), so modeled work
    /// on other devices keeps overlapping instead of serializing behind a
    /// host-wide sync. The executor service materialises every job result
    /// through this path.
    pub fn read_back_async(&self) -> Result<(Vec<T>, f64)> {
        let st = self.state.lock();
        if st.host_fresh {
            return Ok((st.host.clone(), self.ctx.host_now_s()));
        }
        assert!(
            st.device_fresh,
            "matrix has neither fresh host nor fresh device data"
        );
        let cols = st.cols;
        let mut out = vec![T::default(); st.rows * cols];
        let mut ready = self.ctx.host_now_s();
        match st.dist {
            MatrixDistribution::Single(_) | MatrixDistribution::Copy => {
                let part = st
                    .parts
                    .first()
                    .ok_or_else(|| Error::NotOnDevice("no device parts to download".into()))?;
                if !out.is_empty() {
                    let q = self.ctx.copy_queue(part.device);
                    let dep = [q.enqueue_marker()];
                    let ev = q.enqueue_read(
                        &part.buffer,
                        Region::At(part.halo_above * cols),
                        &mut out,
                        1,
                        false,
                        After::Events(&dep),
                    )?;
                    ready = ready.max(ev.end_s);
                }
            }
            MatrixDistribution::RowBlock { .. } => {
                let concurrent = st.parts.iter().filter(|p| p.rows > 0).count().max(1);
                for p in &st.parts {
                    if p.rows == 0 || cols == 0 {
                        continue;
                    }
                    let q = self.ctx.copy_queue(p.device);
                    let dep = [q.enqueue_marker()];
                    let ev = q.enqueue_read(
                        &p.buffer,
                        Region::At(p.halo_above * cols),
                        &mut out[p.row_offset * cols..(p.row_offset + p.rows) * cols],
                        concurrent,
                        false,
                        After::Events(&dep),
                    )?;
                    ready = ready.max(ev.end_s);
                }
            }
            MatrixDistribution::ColBlock => {
                let concurrent = st.parts.iter().filter(|p| p.cols > 0).count().max(1);
                for p in &st.parts {
                    if p.rows == 0 || p.cols == 0 {
                        continue;
                    }
                    let q = self.ctx.copy_queue(p.device);
                    let dep = [q.enqueue_marker()];
                    let (c0, c1) = (p.col_offset, p.col_offset + p.cols);
                    for r in 0..p.rows {
                        let ev = q.enqueue_read(
                            &p.buffer,
                            Region::At(r * p.cols),
                            &mut out[r * cols + c0..r * cols + c1],
                            concurrent,
                            false,
                            After::Events(&dep),
                        )?;
                        ready = ready.max(ev.end_s);
                    }
                }
            }
        }
        Ok((out, ready))
    }

    /// The transposed matrix, built host-side (downloads first if the
    /// devices hold the newest data). The result starts life host-fresh
    /// under the context's default distribution; distribute it explicitly
    /// (e.g. [`MatrixDistribution::ColBlock`]) before feeding skeletons.
    pub fn transpose(&self) -> Result<Matrix<T>> {
        let (rows, cols) = self.dims();
        let src = self.host_view()?;
        let mut out = vec![T::default(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        drop(src);
        Ok(Matrix::from_vec(&self.ctx, cols, rows, out))
    }

    /// Declare that a kernel modified this matrix on the devices by side
    /// effect (the paper's `dataOnDevicesModified()`). Halo rows become
    /// stale until the next exchange; a layout without halo rows (every
    /// vector's) has none to go stale.
    pub fn mark_devices_modified(&self) {
        let mut st = self.state.lock();
        assert!(
            !st.parts.is_empty(),
            "mark_devices_modified on a matrix that was never uploaded"
        );
        st.device_fresh = true;
        st.host_fresh = false;
        st.halos_fresh = st.parts.iter().all(|p| p.halo_above + p.halo_below == 0);
        // The kernel's writes supersede any still-recorded upload events.
        st.upload_chunks.clear();
    }

    /// Upload to the devices (per the current distribution) if the device
    /// copies are stale. Skeletons call this implicitly.
    pub fn ensure_on_devices(&self) -> Result<()> {
        let mut st = self.state.lock();
        upload(&self.ctx, &mut st, None)
    }

    /// Upload to the devices like [`Matrix::ensure_on_devices`], but
    /// **streamed in row chunks on the copy stream**: the upload is issued
    /// as asynchronous chunked writes whose events are kept with the parts,
    /// so a streamed skeleton pass ([`crate::Stencil2D::apply_streamed`])
    /// launches its first kernels while later chunks are still crossing
    /// PCIe. A no-op when the devices are already fresh; bit-identical
    /// data either way.
    pub fn ensure_on_devices_streamed(&self, chunk_rows: usize) -> Result<()> {
        let mut st = self.state.lock();
        upload(&self.ctx, &mut st, Some(chunk_rows))
    }

    /// Refresh every part's halo rows from the rows' owning parts via
    /// device-to-device copies. A no-op when halos are already coherent,
    /// when the distribution has no halos, or when the freshest data is on
    /// the host (the next upload fills halos anyway).
    pub fn halo_exchange(&self) -> Result<()> {
        let mut st = self.state.lock();
        halo_exchange(&self.ctx, &mut st)
    }

    /// Change the distribution (paper's `setDistribution`, rows instead of
    /// elements). If the devices hold the newest data, the required
    /// inter-device exchange — including filling the new layout's halo rows
    /// — happens automatically; otherwise only metadata changes and the
    /// next upload uses the new layout.
    pub fn set_distribution(&self, dist: MatrixDistribution) -> Result<()> {
        self.set_distribution_with(dist, None::<&UserFn<fn(T, T) -> T>>)
    }

    /// [`Matrix::set_distribution`], merging diverged per-device copies
    /// with `combine` when leaving `Copy` with fresh device data (the
    /// vector's `setDistribution(block, add)`); in every other state the
    /// operator is unused.
    pub(crate) fn set_distribution_with<F>(
        &self,
        dist: MatrixDistribution,
        combine: Option<&UserFn<F>>,
    ) -> Result<()>
    where
        F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
    {
        if let MatrixDistribution::Single(d) = dist {
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
        let combine = combine.filter(|_| st.dist == MatrixDistribution::Copy);
        redistribute(&self.ctx, &mut st, dist, combine)
    }

    /// The device-resident parts (uploading first if needed). Halo coherence
    /// is **not** implied; callers that read halo rows go through
    /// [`Matrix::halo_exchange`] first (Stencil2D does this automatically).
    pub(crate) fn parts(&self) -> Result<Vec<MatrixPart<T>>> {
        let mut st = self.state.lock();
        upload(&self.ctx, &mut st, None)?;
        Ok(st.parts.clone())
    }

    /// Like [`Matrix::parts`], but also guarantees halo coherence.
    pub(crate) fn parts_with_fresh_halos(&self) -> Result<Vec<MatrixPart<T>>> {
        let mut st = self.state.lock();
        upload(&self.ctx, &mut st, None)?;
        halo_exchange(&self.ctx, &mut st)?;
        Ok(st.parts.clone())
    }

    /// The device-resident parts together with any pending streamed-upload
    /// chunk events (uploading *streamed* first if the devices are stale —
    /// halos come straight from the host, so they are coherent). The chunk
    /// lists are empty for parts that were uploaded blocking or written by
    /// kernels; consumers then need no upload dependencies.
    pub(crate) fn parts_with_upload_chunks(&self, chunk_rows: usize) -> Result<PartsWithChunks<T>> {
        let mut st = self.state.lock();
        upload(&self.ctx, &mut st, Some(chunk_rows))?;
        halo_exchange(&self.ctx, &mut st)?;
        let live = st.upload_chunks.len() == st.parts.len()
            && st.upload_epoch == self.ctx.platform().clock_epoch();
        let chunks = if live {
            st.upload_chunks.clone()
        } else {
            vec![Vec::new(); st.parts.len()]
        };
        Ok((st.parts.clone(), chunks))
    }

    /// Wrap freshly computed device parts as a new matrix (skeleton
    /// outputs): device data is fresh, host copy is stale. `halos_fresh`
    /// records whether the producer also wrote the halo rows (element-wise
    /// skeletons do; stencils cannot).
    pub(crate) fn from_device_parts(
        ctx: &Context,
        rows: usize,
        cols: usize,
        dist: MatrixDistribution,
        parts: Vec<MatrixPart<T>>,
        halos_fresh: bool,
    ) -> Self {
        Matrix {
            ctx: ctx.clone(),
            state: Arc::new(Mutex::new(State {
                host: vec![T::default(); rows * cols],
                rows,
                cols,
                host_fresh: false,
                device_fresh: true,
                halos_fresh,
                dist,
                parts,
                upload_chunks: Vec::new(),
                upload_epoch: 0,
            })),
        }
    }
}

/// The contiguous global-row runs covering span rows `[0, span_rows)` of a
/// part, as `(span_row_start, global_row_start, n_rows)` — wrapped halos
/// split the span into at most three runs.
fn span_runs<T: Scalar>(p: &MatrixPart<T>, n_rows: usize) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    let mut s = 0usize;
    while s < p.span_rows() {
        let g = p.global_row(s, n_rows);
        // Run until the global row would wrap past the last matrix row.
        let len = (p.span_rows() - s).min(n_rows - g);
        runs.push((s, g, len));
        s += len;
    }
    runs
}

/// Upload `st.host` per `st.dist` if the device copies are stale. Halo rows
/// are filled straight from the host, so they come out coherent.
///
/// Full-width parts upload in contiguous multi-row runs; column-block parts
/// need one strided write per row (each row's column slice is contiguous on
/// the host but the rows are not adjacent).
///
/// With `chunk_rows`, full-width parts are **streamed**: each span run goes
/// out in row chunks of (at most) `chunk_rows` as asynchronous writes on
/// the device's *copy stream*, and the chunks' events are recorded in
/// `st.upload_chunks` so the first dependent kernel can start once its rows
/// have landed — while later chunks are still crossing PCIe. Results are
/// bit-identical to the blocking upload (same bytes, same destination);
/// only the modeled timeline differs. Column-block parts always upload
/// blocking (their per-row strided writes are already minimal and no
/// consumer chunks by rows).
fn upload<T: Scalar>(ctx: &Context, st: &mut State<T>, chunk_rows: Option<usize>) -> Result<()> {
    if st.device_fresh {
        return Ok(());
    }
    assert!(
        st.host_fresh,
        "matrix has neither fresh host nor fresh device data"
    );
    let chunk_rows = chunk_rows
        .filter(|_| st.dist.is_full_width())
        .map(|c| c.max(1));
    let cols = st.cols;
    let mut span = ctx.span("upload");
    span.attr("shape", format!("{}x{cols}", st.rows));
    span.attr("len", st.host.len().to_string());
    span.attr("distribution", format!("{:?}", st.dist));
    if let Some(chunk_rows) = chunk_rows {
        span.attr("chunk_len", chunk_rows.to_string());
    }
    span.attr("devices", ctx.n_devices().to_string());
    let parts = alloc_layout::<T>(ctx, st.dist, st.rows, cols)?;
    let concurrent = parts.iter().filter(|p| p.rows > 0).count().max(1);
    let mut upload_chunks = Vec::with_capacity(parts.len());
    for part in &parts {
        let mut chunks = Vec::new();
        if part.rows > 0 && part.cols > 0 {
            if part.cols != cols {
                let c0 = part.col_offset;
                let c1 = c0 + part.cols;
                for s in 0..part.span_rows() {
                    let g = part.global_row(s, st.rows);
                    ctx.queue(part.device).enqueue_write(
                        &part.buffer,
                        Region::At(s * part.cols),
                        &st.host[g * cols + c0..g * cols + c1],
                        concurrent,
                        After::Device,
                    )?;
                }
            } else if let Some(chunk_rows) = chunk_rows {
                let queue = ctx.copy_queue(part.device);
                for (s, g, len) in span_runs(part, st.rows) {
                    // Split each contiguous run into chunk_rows-row writes; the
                    // copy stream keeps them in order, so chunk k's event also
                    // covers every chunk before it.
                    let mut done = 0;
                    while done < len {
                        let n = chunk_rows.min(len - done);
                        let event = queue.enqueue_write(
                            &part.buffer,
                            Region::At((s + done) * cols),
                            &st.host[(g + done) * cols..(g + done + n) * cols],
                            concurrent,
                            After::Events(&[]),
                        )?;
                        chunks.push(UploadChunk {
                            span_start: s + done,
                            span_len: n,
                            event,
                        });
                        done += n;
                    }
                }
            } else {
                for (s, g, len) in span_runs(part, st.rows) {
                    ctx.queue(part.device).enqueue_write(
                        &part.buffer,
                        Region::At(s * cols),
                        &st.host[g * cols..(g + len) * cols],
                        concurrent,
                        After::Device,
                    )?;
                }
            }
        }
        upload_chunks.push(chunks);
    }
    st.parts = parts;
    st.upload_chunks = upload_chunks;
    st.upload_epoch = ctx.platform().clock_epoch();
    st.device_fresh = true;
    st.halos_fresh = true;
    Ok(())
}

/// Download the owned regions into `st.host` if the host copy is stale.
fn ensure_on_host<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.host_fresh {
        return Ok(());
    }
    assert!(
        st.device_fresh,
        "matrix has neither fresh host nor fresh device data"
    );
    let cols = st.cols;
    match st.dist {
        MatrixDistribution::Single(_) | MatrixDistribution::Copy => {
            let part = st
                .parts
                .first()
                .ok_or_else(|| Error::NotOnDevice("no device parts to download".into()))?;
            let mut tmp = vec![T::default(); part.rows * cols];
            if !tmp.is_empty() {
                ctx.queue(part.device).enqueue_read(
                    &part.buffer,
                    Region::At(0),
                    &mut tmp,
                    1,
                    true,
                    After::Device,
                )?;
            }
            st.host = tmp;
        }
        MatrixDistribution::RowBlock { .. } => {
            let concurrent = st.parts.iter().filter(|p| p.rows > 0).count().max(1);
            let parts = st.parts.clone();
            for p in &parts {
                if p.rows == 0 || cols == 0 {
                    continue;
                }
                ctx.queue(p.device).enqueue_read(
                    &p.buffer,
                    Region::At(p.halo_above * cols),
                    &mut st.host[p.row_offset * cols..(p.row_offset + p.rows) * cols],
                    concurrent,
                    false,
                    After::Device,
                )?;
            }
            ctx.sync();
        }
        MatrixDistribution::ColBlock => {
            // One strided read per owned row per part: each row's column
            // slice is contiguous on both sides, the rows are not.
            let concurrent = st.parts.iter().filter(|p| p.cols > 0).count().max(1);
            let parts = st.parts.clone();
            for p in &parts {
                if p.rows == 0 || p.cols == 0 {
                    continue;
                }
                let (c0, c1) = (p.col_offset, p.col_offset + p.cols);
                for r in 0..p.rows {
                    ctx.queue(p.device).enqueue_read(
                        &p.buffer,
                        Region::At(r * p.cols),
                        &mut st.host[r * cols + c0..r * cols + c1],
                        concurrent,
                        false,
                        After::Device,
                    )?;
                }
            }
            ctx.sync();
        }
    }
    st.host_fresh = true;
    Ok(())
}

/// The part owning global row `g` (for `Copy`, the copy on `prefer`).
fn owner_of_row<T: Scalar>(parts: &[MatrixPart<T>], g: usize, prefer: usize) -> &MatrixPart<T> {
    parts
        .iter()
        .filter(|p| g >= p.row_offset && g < p.row_offset + p.rows)
        .min_by_key(|p| if p.device == prefer { 0 } else { 1 })
        .expect("global row not owned by any part")
}

/// The part owning cell `(g, col)` (for `Copy`, the copy on `prefer`).
fn owner_of_cell<T: Scalar>(
    parts: &[MatrixPart<T>],
    g: usize,
    col: usize,
    prefer: usize,
) -> &MatrixPart<T> {
    parts
        .iter()
        .filter(|p| {
            g >= p.row_offset
                && g < p.row_offset + p.rows
                && col >= p.col_offset
                && col < p.col_offset + p.cols
        })
        .min_by_key(|p| if p.device == prefer { 0 } else { 1 })
        .expect("matrix cell not owned by any part")
}

/// The owner copies that fill span row `s` (holding global row `g`) of
/// destination part `dst`, split at the owners' column boundaries: one
/// strided row segment per owner, appended to `plan`. The column-aware
/// twin of [`owner_row_copies`], used whenever either side of a
/// redistribution is not full-width (`dst` is always a fresh allocation,
/// so no segment is an identity copy).
fn owner_cell_copies<T: Scalar>(
    parts: &[MatrixPart<T>],
    dst: &MatrixPart<T>,
    s: usize,
    g: usize,
    plan: &mut Vec<PlannedCopy<T>>,
) {
    let mut c = dst.col_offset;
    let end = dst.col_offset + dst.cols;
    while c < end {
        let src = owner_of_cell(parts, g, c, dst.device);
        let src_span_row = src.halo_above + (g - src.row_offset);
        let w = end.min(src.col_offset + src.cols) - c;
        plan.push(PlannedCopy {
            src: src.buffer.clone(),
            src_off: src_span_row * src.cols + (c - src.col_offset),
            dst: dst.buffer.clone(),
            dst_off: s * dst.cols + (c - dst.col_offset),
            len: w,
        });
        c += w;
    }
}

/// The owner copies that fill a run of global rows of destination part
/// `dst`: `run` is `(span_row_start, global_row_start, n_rows)`, as
/// produced by [`span_runs`] / [`halo_runs`]. One `(src, src_span_row,
/// dst_span_row, n_rows)` per contiguous owner run. An identity copy (same
/// allocation, same span position) is a no-op and is skipped; a same-buffer
/// copy at a *different* span position is real — that is how single-device
/// wrap halos are filled from the owned rows.
fn owner_row_copies<'a, T: Scalar>(
    parts: &'a [MatrixPart<T>],
    dst: &MatrixPart<T>,
    run: (usize, usize, usize),
) -> Vec<(&'a MatrixPart<T>, usize, usize, usize)> {
    let (mut s, mut g, mut len) = run;
    let mut copies = Vec::new();
    while len > 0 {
        let src = owner_of_row(parts, g, dst.device);
        let src_span_row = src.halo_above + (g - src.row_offset);
        let rows = len.min(src.row_offset + src.rows - g);
        if !(src.buffer.same_allocation(&dst.buffer) && src_span_row == s) {
            copies.push((src, src_span_row, s, rows));
        }
        s += rows;
        g += rows;
        len -= rows;
    }
    copies
}

/// Refresh halo rows from their owners (device-to-device), in lock-step.
fn halo_exchange<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.halos_fresh || !st.device_fresh || st.cols == 0 {
        return Ok(());
    }
    exchange_part_halos(ctx, &st.parts, st.rows, st.cols, false, CopyOrder::Rounds)?;
    ctx.sync();
    st.halos_fresh = true;
    Ok(())
}

/// An issued halo exchange: per part, the events of the copies that wrote
/// into its halo rows (the dependency list of a launch reading them), and
/// per device the marker a lock-step exchange joined it with.
pub(crate) struct HaloCopies {
    pub into_part: Vec<Vec<Event>>,
    pub markers: Vec<Option<Event>>,
}

/// Refresh every part's halo rows from the rows' owning parts — the
/// matrix-independent core of [`Matrix::halo_exchange`], also driven
/// directly by `Stencil2D::iterate` on its device-private ping-pong part
/// sets and by the pipeline's stencil groups. The exchange is one copy
/// plan, one copy per contiguous owner run of a halo run, issued through
/// [`issue_copies`] under `order`: [`CopyOrder::Rounds`] after
/// device-serializing work, [`CopyOrder::Producers`] under the overlapped
/// iterate's per-device producer events (the plan's ascending-part order
/// then lets the devices settle into a phase-shifted wavefront). With
/// `skip_wrapped` the halo runs whose global rows wrap around the matrix
/// edge are left untouched: only the `Wrap` boundary mode ever reads
/// them, so a stencil that knows its boundary is `Neumann`/`Zero` can
/// batch a strictly smaller exchange. An exchange that refreshes any row
/// counts as one exchange event ([`Context::halo_exchange_count`]); one
/// where every run is skipped is a no-op and is not counted.
pub(crate) fn exchange_part_halos<T: Scalar>(
    ctx: &Context,
    parts: &[MatrixPart<T>],
    n_rows: usize,
    cols: usize,
    skip_wrapped: bool,
    order: CopyOrder<'_>,
) -> Result<HaloCopies> {
    let mut into_part = vec![Vec::new(); parts.len()];
    if cols == 0 {
        return Ok(HaloCopies {
            into_part,
            markers: vec![None; ctx.n_devices()],
        });
    }
    let mut span = ctx.span("halo.exchange");
    span.attr("shape", format!("{n_rows}x{cols}"));
    span.attr(
        "overlapped",
        matches!(order, CopyOrder::Producers(_)).to_string(),
    );
    span.attr("devices", ctx.n_devices().to_string());
    // One copy per contiguous owner run of each halo run; `into[k]` is the
    // part copy `k` writes into.
    let (mut plan, mut into) = (Vec::new(), Vec::new());
    for (i, p) in parts.iter().enumerate().filter(|(_, p)| p.rows > 0) {
        for above in [true, false] {
            for run in halo_runs(p, n_rows, above) {
                if skip_wrapped && run_is_wrapped(p, run, n_rows) {
                    continue;
                }
                for (src, src_row, s, rows) in owner_row_copies(parts, p, run) {
                    plan.push(PlannedCopy {
                        src: src.buffer.clone(),
                        src_off: src_row * cols,
                        dst: p.buffer.clone(),
                        dst_off: s * cols,
                        len: rows * cols,
                    });
                    into.push(i);
                }
            }
        }
    }
    if !plan.is_empty() {
        ctx.note_halo_exchange();
    }
    let issued = issue_copies(ctx, &plan, order)?;
    for (ev, i) in issued.copies.into_iter().zip(into) {
        into_part[i].push(ev);
    }
    Ok(HaloCopies {
        into_part,
        markers: issued.markers,
    })
}

/// Does this halo run (as produced by [`halo_runs`]) hold rows that wrap
/// around the matrix edge? Runs never straddle a wrap point ([`halo_runs`]
/// splits there), so testing the first row suffices.
fn run_is_wrapped<T: Scalar>(p: &MatrixPart<T>, run: (usize, usize, usize), n_rows: usize) -> bool {
    let unwrapped = p.row_offset as isize + run.0 as isize - p.halo_above as isize;
    unwrapped < 0 || unwrapped >= n_rows as isize
}

/// The contiguous global-row runs of a part's upper (`above == true`) or
/// lower halo, as `(span_row_start, global_row_start, n_rows)`.
fn halo_runs<T: Scalar>(
    p: &MatrixPart<T>,
    n_rows: usize,
    above: bool,
) -> Vec<(usize, usize, usize)> {
    let (span_start, span_len) = if above {
        (0, p.halo_above)
    } else {
        (p.halo_above + p.rows, p.halo_below)
    };
    let mut runs = Vec::new();
    let mut s = span_start;
    while s < span_start + span_len {
        let g = p.global_row(s, n_rows);
        let len = (span_start + span_len - s).min(n_rows - g);
        runs.push((s, g, len));
        s += len;
    }
    runs
}

/// Move device-fresh data from `st.dist`/`st.parts` into `new_dist`,
/// filling the new layout's owned regions *and* halo rows from the old
/// owners — or, with `combine`, merging the diverged `Copy` parts into it.
fn redistribute<T: Scalar, F>(
    ctx: &Context,
    st: &mut State<T>,
    new_dist: MatrixDistribution,
    combine: Option<&UserFn<F>>,
) -> Result<()>
where
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    let cols = st.cols;
    let n_rows = st.rows;
    let new_parts = alloc_layout::<T>(ctx, new_dist, n_rows, cols)?;

    if let Some(combine) = combine {
        merge_copy_to(ctx, st, &new_parts, combine)?;
    } else if cols > 0 {
        // One planned copy per contiguous run of rows with a single owner
        // when both sides are full-width; otherwise one per row segment
        // between owner column boundaries (strided transfers).
        let mut plan = Vec::new();
        let full_width = st.dist.is_full_width() && new_dist.is_full_width();
        for np in new_parts.iter().filter(|np| np.rows > 0 && np.cols > 0) {
            if full_width {
                for run in span_runs(np, n_rows) {
                    for (src, src_row, s, rows) in owner_row_copies(&st.parts, np, run) {
                        plan.push(PlannedCopy {
                            src: src.buffer.clone(),
                            src_off: src_row * cols,
                            dst: np.buffer.clone(),
                            dst_off: s * cols,
                            len: rows * cols,
                        });
                    }
                }
            } else {
                for s in 0..np.span_rows() {
                    owner_cell_copies(&st.parts, np, s, np.global_row(s, n_rows), &mut plan);
                }
            }
        }
        issue_copies(ctx, &plan, CopyOrder::Rounds)?;
        ctx.sync();
    }

    st.parts = new_parts;
    st.upload_chunks.clear();
    st.dist = new_dist;
    st.halos_fresh = true;
    Ok(())
}

/// One copy of a planned transfer (a redistribution, a merge or a halo
/// exchange): `len` elements from `src` at `src_off` into `dst` at
/// `dst_off`.
struct PlannedCopy<T: Scalar> {
    src: Buffer<T>,
    src_off: usize,
    dst: Buffer<T>,
    dst_off: usize,
    len: usize,
}

/// What the copies of a plan wait for, and in which order they are issued.
#[derive(Clone, Copy)]
pub(crate) enum CopyOrder<'a> {
    /// Lock-step: each involved device is joined once with a marker, and
    /// every copy waits for exactly its source's and destination's markers.
    /// Same-device copies go first; the cross-device ones follow in rounds
    /// of disjoint device pairs ([`pair_rounds`]), the lower device's
    /// copies of a pair first, in plan order.
    Rounds,
    /// Event-ordered: per device, the producer events a copy touching that
    /// device must wait for — its source's, and its destination's, which
    /// also fence the write-after-read hazard against earlier readers of
    /// the rows the copy overwrites. Copies are issued in plan order.
    Producers(&'a [Vec<Event>]),
}

/// The events of an issued copy plan.
struct IssuedCopies {
    /// Per planned copy, in plan order.
    copies: Vec<Event>,
    /// Per device, the marker that joined it under [`CopyOrder::Rounds`]
    /// (`None` for devices no copy touched, and under `Producers`).
    markers: Vec<Option<Event>>,
}

/// Issue a plan of copies on the copy engines under `order` — the one
/// path every device-to-device copy of this module takes.
///
/// Copies wait for events, not for whole devices, so independent copies
/// overlap. Under [`CopyOrder::Rounds`] the lower device of a pair goes
/// first because a merge folds its sources in ascending device order: the
/// copy a fold chain needs first tends to land first. A cross-device copy
/// holds both devices' copy engines, so at
/// most ⌊n/2⌋ are ever in flight: every copy is charged that much host-bus
/// contention, or the number of cross-device copies in the plan if that is
/// smaller.
fn issue_copies<T: Scalar>(
    ctx: &Context,
    plan: &[PlannedCopy<T>],
    order: CopyOrder<'_>,
) -> Result<IssuedCopies> {
    let n = ctx.n_devices();
    let devices = |i: usize| (plan[i].src.device().0, plan[i].dst.device().0);
    let cross = (0..plan.len()).filter(|&i| devices(i).0 != devices(i).1);
    let concurrent = cross.count().min((n / 2).max(1));
    let sequence: Vec<usize> = match order {
        CopyOrder::Producers(_) => (0..plan.len()).collect(),
        CopyOrder::Rounds => {
            let mut sequence: Vec<usize> = (0..plan.len())
                .filter(|&i| devices(i).0 == devices(i).1)
                .collect();
            for (lo, hi) in pair_rounds(n).into_iter().flatten() {
                for dir in [(lo, hi), (hi, lo)] {
                    sequence.extend((0..plan.len()).filter(|&i| devices(i) == dir));
                }
            }
            sequence
        }
    };

    let mut markers: Vec<Option<Event>> = vec![None; n];
    let mut events: Vec<Option<Event>> = vec![None; plan.len()];
    for i in sequence {
        let (s, d) = devices(i);
        let mut wait_for = |dev: usize| match order {
            CopyOrder::Rounds => vec![markers[dev]
                .get_or_insert_with(|| ctx.queue(dev).enqueue_marker())
                .clone()],
            CopyOrder::Producers(producers) => producers[dev].clone(),
        };
        let mut deps = wait_for(s);
        if s != d {
            deps.extend(wait_for(d));
        }
        let c = &plan[i];
        events[i] = Some(ctx.platform().copy(
            &c.src,
            c.src_off,
            &c.dst,
            c.dst_off,
            c.len,
            concurrent,
            After::Events(&deps),
        )?);
    }
    Ok(IssuedCopies {
        copies: events
            .into_iter()
            .map(|e| e.expect("every planned copy is issued"))
            .collect(),
        markers,
    })
}

/// Rounds of disjoint device pairs `(lo, hi)`, `lo < hi`, that together
/// cover every pair of `n` devices exactly once: XOR pairing (`d ↔ d ^ r`)
/// when `n` is a power of two, else the circle method over an even number
/// of seats, where the device seated against the phantom seat `n` (odd `n`)
/// sits the round out.
fn pair_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        return (1..n)
            .map(|r| (0..n).filter(|&d| d < d ^ r).map(|d| (d, d ^ r)).collect())
            .collect();
    }
    let m = n + n % 2;
    let ring = m - 1;
    (0..ring)
        .map(|r| {
            let mut pairs = vec![(r, ring)];
            pairs.extend((1..m / 2).map(|k| ((r + k) % ring, (r + ring - k) % ring)));
            pairs.retain(|&(a, b)| a < n && b < n);
            pairs
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect()
        })
        .collect()
}

/// Copy→(target) with element-wise combining of the diverged per-device
/// copies (the OSEM error-image merge). Only halo-free full-width targets
/// (a vector's `Single`/`Block`) are ever merged into.
///
/// Each target range is seeded with its own device's copy, and every other
/// device's copy lands in a temporary on the target device; all of these
/// copies run as one plan ([`issue_copies`]). The fold kernels then run on
/// the target's queue, each waiting only for the previous fold (or the
/// seed) and its own temporary's copy. The fold order — own copy first,
/// then ascending source device — is fixed, so the merged values do not
/// depend on when the copies land.
fn merge_copy_to<T: Scalar, F>(
    ctx: &Context,
    st: &State<T>,
    new_parts: &[MatrixPart<T>],
    combine: &UserFn<F>,
) -> Result<()>
where
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
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

    // Per target part: its seed copy's plan index and its temporaries'.
    let mut plan = Vec::new();
    let mut folds = Vec::new();
    for np in new_parts {
        debug_assert!(np.halo_above + np.halo_below == 0 && np.cols == st.cols);
        let (offset, len) = (np.row_offset * st.cols, np.rows * st.cols);
        if len == 0 {
            continue;
        }
        let own = st
            .parts
            .iter()
            .find(|p| p.device == np.device)
            .ok_or_else(|| Error::NotOnDevice("copy distribution missing a device".into()))?;
        let seed = plan.len();
        plan.push(PlannedCopy {
            src: own.buffer.clone(),
            src_off: offset,
            dst: np.buffer.clone(),
            dst_off: 0,
            len,
        });
        let mut temps = Vec::new();
        for op in st.parts.iter().filter(|p| p.device != np.device) {
            temps.push(plan.len());
            plan.push(PlannedCopy {
                src: op.buffer.clone(),
                src_off: offset,
                dst: ctx.device(np.device).alloc::<T>(len)?,
                dst_off: 0,
                len,
            });
        }
        folds.push((np, len, seed, temps));
    }
    let copied = issue_copies(ctx, &plan, CopyOrder::Rounds)?.copies;

    for (np, len, seed, temps) in folds {
        let mut last = copied[seed].clone();
        for i in temps {
            let f = combine.func().clone();
            let dst = np.buffer.clone();
            let src = plan[i].dst.clone();
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
            last = ctx.queue(np.device).launch(
                &kernel,
                NDRange::linear(len, ctx.work_group().min(len)),
                After::Events(&[last, copied[i].clone()]),
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
                .work_group(64)
                .cache_tag("skelcl-matrix-tests"),
        )
    }

    fn data(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|i| i as f32).collect()
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
    fn pair_rounds_cover_every_pair_once_in_disjoint_rounds() {
        for n in 0..=9 {
            let rounds = pair_rounds(n);
            assert_eq!(rounds.len(), if n < 2 { 0 } else { n - 1 + n % 2 }, "n={n}");
            let mut seen = std::collections::HashSet::new();
            for round in &rounds {
                let mut busy = vec![false; n];
                for &(a, b) in round {
                    assert!(a < b && b < n, "n={n}: bad pair ({a}, {b})");
                    assert!(!busy[a] && !busy[b], "n={n}: device reused in {round:?}");
                    busy[a] = true;
                    busy[b] = true;
                    assert!(seen.insert((a, b)), "n={n}: ({a}, {b}) twice");
                }
                assert!(
                    round.len() >= n / 2,
                    "n={n}: round {round:?} leaves pairs idle"
                );
            }
            assert_eq!(seen.len(), n * n.saturating_sub(1) / 2, "n={n}");
        }
        assert_eq!(pair_rounds(4)[0], vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn creation_is_lazy_no_transfer() {
        let c = ctx(2);
        let before = c.platform().stats_snapshot();
        let m = Matrix::from_vec(&c, 10, 8, data(10, 8));
        assert_eq!(m.dims(), (10, 8));
        assert!(!m.device_fresh());
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0, "creation must not transfer");
    }

    #[test]
    fn roundtrip_through_row_block() {
        let c = ctx(3);
        let m = Matrix::from_vec(&c, 11, 7, data(11, 7));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        assert!(!m.host_fresh());
        assert_eq!(m.to_vec().unwrap(), data(11, 7));
        assert!(m.host_fresh());
    }

    #[test]
    fn read_back_async_matches_to_vec_without_host_sync() {
        for (dist, devices) in [
            (MatrixDistribution::RowBlock { halo: 1 }, 3),
            (MatrixDistribution::ColBlock, 2),
            (MatrixDistribution::Copy, 2),
            (MatrixDistribution::Single(1), 2),
        ] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, 9, 7, data(9, 7));
            m.set_distribution(dist).unwrap();
            m.ensure_on_devices().unwrap();
            m.mark_devices_modified(); // devices are the truth now
            let host_before = c.host_now_s();
            let (got, ready) = m.read_back_async().unwrap();
            assert_eq!(
                c.host_now_s(),
                host_before,
                "async read-back must not advance the host clock ({dist:?})"
            );
            assert!(
                ready >= host_before,
                "ready time must not precede the enqueue ({dist:?})"
            );
            assert!(!m.host_fresh(), "coherence state must be untouched");
            assert_eq!(got, data(9, 7), "{dist:?}");
        }
    }

    #[test]
    fn read_back_async_on_host_fresh_data_is_free() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        let before = c.platform().stats_snapshot();
        let (got, ready) = m.read_back_async().unwrap();
        assert_eq!(got, data(4, 4));
        assert_eq!(ready, c.host_now_s());
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn upload_fills_halos_with_wrapped_rows() {
        let c = ctx(2);
        let rows = 6;
        let cols = 3;
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 2);
        let p0 = &parts[0]; // owns rows 0..3, halo above wraps to row 5
        assert_eq!(p0.span_rows(), 5);
        assert_eq!(p0.global_row(0, rows), 5);
        let host = data(rows, cols);
        assert_eq!(p0.buffer.to_vec()[0..cols], host[5 * cols..6 * cols]);
        // Lower halo of part 0 is the first owned row of part 1 (row 3).
        assert_eq!(
            p0.buffer.to_vec()[4 * cols..5 * cols],
            host[3 * cols..4 * cols]
        );
    }

    #[test]
    fn halo_exchange_updates_neighbour_halos() {
        let c = ctx(2);
        let rows = 8;
        let cols = 4;
        let m = Matrix::from_vec(&c, rows, cols, vec![0.0f32; rows * cols]);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        // Device 1 rewrites its first owned row (global row 4) in place.
        {
            let parts = m.parts().unwrap();
            let p1 = &parts[1];
            for col in 0..cols {
                p1.buffer.set(p1.halo_above * cols + col, 9.0);
            }
        }
        m.mark_devices_modified();
        assert!(!m.halos_fresh());
        let before = c.platform().stats_snapshot();
        m.halo_exchange().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(delta.d2d_transfers > 0, "halo exchange crosses devices");
        assert!(m.halos_fresh());
        // Device 0's lower halo row must now hold the updated row 4.
        let parts = m.parts().unwrap();
        let p0 = &parts[0];
        let lower_halo_start = (p0.halo_above + p0.rows) * cols;
        for col in 0..cols {
            assert_eq!(p0.buffer.get(lower_halo_start + col), 9.0);
        }
    }

    #[test]
    fn halo_exchange_is_lazy_when_fresh() {
        let c = ctx(3);
        let m = Matrix::from_vec(&c, 9, 5, data(9, 5));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        m.halo_exchange().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.total_transfers(),
            0,
            "upload already filled the halos"
        );
    }

    #[test]
    fn copy_distribution_replicates() {
        let c = ctx(3);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        m.set_distribution(MatrixDistribution::Copy).unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.buffer.to_vec(), data(4, 4));
        }
    }

    #[test]
    fn row_block_to_single_gathers() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 10, 3, data(10, 3));
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        m.set_distribution(MatrixDistribution::Single(1)).unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].device, 1);
        assert_eq!(parts[0].buffer.to_vec(), data(10, 3));
        assert_eq!(m.to_vec().unwrap(), data(10, 3));
    }

    #[test]
    fn single_to_row_block_scatters_and_fills_halos() {
        let c = ctx(4);
        let rows = 12;
        let m = Matrix::from_vec(&c, rows, 2, data(rows, 2));
        m.set_distribution(MatrixDistribution::Single(0)).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        assert!(m.halos_fresh());
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 4);
        let host = data(rows, 2);
        for p in &parts {
            let buf = p.buffer.to_vec();
            for s in 0..p.span_rows() {
                let g = p.global_row(s, rows);
                assert_eq!(
                    buf[s * 2..(s + 1) * 2],
                    host[g * 2..(g + 1) * 2],
                    "device {} span row {s} (global {g})",
                    p.device
                );
            }
        }
        assert_eq!(m.to_vec().unwrap(), host);
    }

    #[test]
    fn growing_the_halo_redistributes_device_side() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 4, data(8, 4));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert!(delta.d2d_transfers > 0, "halo fill crosses devices");
        assert_eq!(m.to_vec().unwrap(), data(8, 4));
    }

    #[test]
    fn metadata_only_redistribution_when_host_fresh() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 6, 6, data(6, 6));
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::Copy).unwrap();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 3 })
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn host_view_mut_invalidates_device_copies() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        m.ensure_on_devices().unwrap();
        assert!(m.device_fresh());
        m.host_view_mut().unwrap()[5] = 99.0;
        assert!(!m.device_fresh());
        assert_eq!(m.to_vec().unwrap()[5], 99.0);
    }

    #[test]
    fn invalid_single_device_is_rejected() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 2, 2, data(2, 2));
        assert!(m.set_distribution(MatrixDistribution::Single(7)).is_err());
    }

    #[test]
    fn oversized_halo_is_clamped_to_the_matrix_height() {
        let c = ctx(2);
        let rows = 4;
        let m = Matrix::from_vec(&c, rows, 2, data(rows, 2));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 100 })
            .unwrap();
        let parts = m.parts().unwrap();
        for p in &parts {
            assert!(p.halo_above <= rows);
            assert!(p.halo_below <= rows);
        }
        assert_eq!(m.to_vec().unwrap(), data(rows, 2));
    }

    #[test]
    fn col_block_scatters_column_slices_with_strided_writes() {
        let c = ctx(3);
        let (rows, cols) = (5, 11);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        let before = c.platform().stats_snapshot();
        let parts = m.parts().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // One strided write per row per part.
        assert_eq!(delta.h2d_transfers as usize, 3 * rows);
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts.iter().map(|p| p.cols).collect::<Vec<_>>(),
            vec![4, 4, 3],
            "11 columns over 3 devices"
        );
        let host = data(rows, cols);
        for p in &parts {
            let buf = p.buffer.to_vec();
            for r in 0..rows {
                assert_eq!(
                    buf[r * p.cols..(r + 1) * p.cols],
                    host[r * cols + p.col_offset..r * cols + p.col_offset + p.cols],
                    "device {} row {r}",
                    p.device
                );
            }
        }
        assert_eq!(m.to_vec().unwrap(), host);
    }

    #[test]
    fn col_block_round_trip_after_device_modification() {
        let c = ctx(2);
        let (rows, cols) = (6, 7);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        assert!(!m.host_fresh());
        assert_eq!(m.to_vec().unwrap(), data(rows, cols));
    }

    #[test]
    fn row_block_to_col_block_redistributes_device_side() {
        let c = ctx(3);
        let (rows, cols) = (9, 8);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert!(delta.d2d_transfers > 0, "column split crosses devices");
        assert_eq!(m.to_vec().unwrap(), data(rows, cols));
        // And back again, still device-side.
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert_eq!(m.to_vec().unwrap(), data(rows, cols));
    }

    #[test]
    fn more_devices_than_columns_leaves_empty_col_parts() {
        let c = ctx(4);
        let m = Matrix::from_vec(&c, 3, 2, data(3, 2));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.cols).sum::<usize>(), 2);
        assert!(parts.iter().filter(|p| p.cols == 0).all(|p| p.rows == 0));
        assert_eq!(m.to_vec().unwrap(), data(3, 2));
    }

    #[test]
    fn transpose_flips_dims_and_data() {
        let c = ctx(2);
        let (rows, cols) = (4, 7);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        let t = m.transpose().unwrap();
        assert_eq!(t.dims(), (cols, rows));
        let tv = t.to_vec().unwrap();
        let host = data(rows, cols);
        for r in 0..rows {
            for col in 0..cols {
                assert_eq!(tv[col * rows + r], host[r * cols + col]);
            }
        }
        // Double transpose is the identity.
        assert_eq!(t.transpose().unwrap().to_vec().unwrap(), host);
    }

    #[test]
    fn transpose_downloads_device_fresh_data_first() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        m.ensure_on_devices().unwrap();
        // Rewrite element (0, 0) on the device, then transpose.
        {
            let parts = m.parts().unwrap();
            parts[0].buffer.set(0, 42.0);
        }
        m.mark_devices_modified();
        let t = m.transpose().unwrap();
        assert_eq!(t.to_vec().unwrap()[0], 42.0);
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let c = ctx(1);
        let m = Matrix::from_vec(&c, 2, 2, data(2, 2));
        let w = m.clone();
        m.host_view_mut().unwrap()[0] = 7.0;
        assert_eq!(w.to_vec().unwrap()[0], 7.0);
    }

    #[test]
    fn halo_exchange_events_are_counted_once_each() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 4, data(8, 4));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let base = c.halo_exchange_count();
        m.halo_exchange().unwrap(); // upload left halos coherent: no event
        assert_eq!(c.halo_exchange_count(), base);
        m.mark_devices_modified();
        m.halo_exchange().unwrap();
        assert_eq!(c.halo_exchange_count(), base + 1);
        m.halo_exchange().unwrap(); // coherent again: no event
        assert_eq!(c.halo_exchange_count(), base + 1);
    }

    #[test]
    fn halo_free_exchange_is_not_an_event() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 4, data(8, 4));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        let base = c.halo_exchange_count();
        m.halo_exchange().unwrap();
        assert_eq!(c.halo_exchange_count(), base, "no halo rows, no event");
    }

    /// Did a lock-step exchange over `parts` count as an exchange event?
    fn exchange(c: &Context, parts: &[MatrixPart<f32>], rows: usize, skip_wrapped: bool) -> bool {
        let before = c.halo_exchange_count();
        let cols = parts[0].cols;
        exchange_part_halos(c, parts, rows, cols, skip_wrapped, CopyOrder::Rounds).unwrap();
        c.halo_exchange_count() == before + 1
    }

    #[test]
    fn skipping_wrapped_runs_moves_fewer_transfers() {
        // 4 parts with halo 1: a full exchange crosses devices 8 times; a
        // wrap-skipping one 6 (the matrix-edge halos of the first part's
        // top and the last part's bottom are omitted).
        let c = ctx(4);
        let (rows, cols) = (8, 2);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        let before = c.platform().stats_snapshot();
        assert!(exchange(&c, &parts, rows, true));
        let skipping = (c.platform().stats_snapshot() - before).d2d_transfers;
        let before = c.platform().stats_snapshot();
        assert!(exchange(&c, &parts, rows, false));
        let full = (c.platform().stats_snapshot() - before).d2d_transfers;
        assert_eq!(full, 8);
        assert_eq!(skipping, 6);
    }

    #[test]
    fn all_runs_skipped_is_not_an_exchange() {
        // One part owning the whole matrix: both halos are wrapped edge
        // rows, so a wrap-skipping exchange refreshes nothing and must not
        // report an event.
        let c = ctx(1);
        let (rows, cols) = (6, 3);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        assert!(!exchange(&c, &parts, rows, true));
        assert!(exchange(&c, &parts, rows, false));
    }

    #[test]
    fn more_devices_than_rows_leaves_empty_parts() {
        let c = ctx(4);
        let m = Matrix::from_vec(&c, 2, 3, data(2, 3));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.rows).sum::<usize>(), 2);
        assert!(parts
            .iter()
            .filter(|p| p.rows == 0)
            .all(|p| p.span_rows() == 0));
        assert_eq!(m.to_vec().unwrap(), data(2, 3));
    }
}
