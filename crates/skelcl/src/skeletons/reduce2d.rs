//! The 2D reduction skeletons: [`ReduceRows`], [`ReduceCols`] and the
//! index-carrying [`ReduceRowsArg`] / [`ReduceColsArg`] —
//! `Matrix<T> → Vector<T>` reductions that keep every intermediate on the
//! devices. All four share one axis-parameterized distribution dispatch
//! ([`dispatch_reduce`]): Single/Copy inputs reduce in place, the
//! axis-aligned block distribution concatenates per-part results with zero
//! transfers, and the split axis chains seeded partials device-to-device.
//!
//! These are the matrix counterparts of the 1D [`crate::Reduce`]: where
//! Reduce folds a whole vector to one scalar, `ReduceRows` folds every
//! matrix row to one element (a length-`rows` vector) and `ReduceCols`
//! folds every column (a length-`cols` vector). They are the missing
//! composition step of the paper's skeleton algebra — AllPairs and
//! Stencil2D produce matrices, and pipelines like 1-NN (per-row argmin of
//! a distance matrix) or gradient histograms (per-row reductions of a
//! Sobel magnitude image) previously had to download the whole matrix to
//! finish on the host.
//!
//! ## Fold order and bitwise reproducibility
//!
//! Every output element is a **left fold in ascending row/column order
//! from the identity** — the same order a sequential host fold uses. The
//! 1D Reduce's local-memory tree cannot give that guarantee for floats
//! (tree shape depends on work-group geometry); the 2D skeletons have a
//! whole row/column of parallelism across work-items already, so each
//! item folds its segment sequentially and the results are bit-identical
//! across 1/2/4 devices and every [`MatrixDistribution`].
//!
//! ## Cross-part combining
//!
//! * Under [`MatrixDistribution::RowBlock`], every row lives wholly inside
//!   one part, so `ReduceRows` is embarrassingly local: each device folds
//!   its owned rows (halo rows are skipped) and the output vector simply
//!   *concatenates* the per-device results — the row partition equals the
//!   output's `Block` distribution, so **zero** device-to-device transfers
//!   happen.
//! * Under [`MatrixDistribution::ColBlock`] (and symmetrically,
//!   `ReduceCols` under `RowBlock`), the reduced dimension is split across
//!   parts. The parts are chained **in ascending column (row) order**:
//!   each device folds its segment seeded with the previous device's
//!   per-row (per-column) partials, which travel device-to-device — one
//!   vector-sized copy per boundary, never through the host. Seeding the
//!   running fold (rather than combining independent partials) is what
//!   preserves the exact sequential fold order, and with it bitwise
//!   identity across device counts.
//! * `Single`/`Copy` inputs reduce on the (first) device holding the data.

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{Matrix, MatrixDistribution, MatrixPart};
use crate::meter;
use crate::skeletons::linear_range;
use crate::vector::{Distribution, Vector};
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{After, Buffer, CompiledKernel, KernelBody, Program, Scalar as Element};

/// A (best value, best index) buffer pair — the running state the chained
/// argbest launches carry across parts.
type ArgPair<T> = (Buffer<T>, Buffer<u32>);

/// Move the previous segment's partials to `device` if they live elsewhere
/// (the one device-to-device hop per chained part boundary).
fn stage_on<T: Element>(
    ctx: &Context,
    acc: (usize, Buffer<T>),
    device: usize,
    len: usize,
) -> Result<Buffer<T>> {
    let (home, buf) = acc;
    if home == device {
        return Ok(buf);
    }
    let staged = ctx.device(device).alloc::<T>(len)?;
    ctx.platform()
        .copy(&buf, 0, &staged, 0, len, 1, After::Device)?;
    Ok(staged)
}

/// Which output axis a 2D reduction produces: one element per matrix row
/// (the column dimension folds away) or one per column (rows fold away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    Rows,
    Cols,
}

impl Axis {
    /// Is `dist` the distribution that keeps this reduction's *reduced*
    /// dimension intact inside every part, so per-part results simply
    /// concatenate into the output's `Block` layout with zero transfers?
    fn concatenates_under(self, dist: MatrixDistribution) -> bool {
        matches!(
            (self, dist),
            (Axis::Rows, MatrixDistribution::RowBlock { .. })
                | (Axis::Cols, MatrixDistribution::ColBlock)
        )
    }

    /// Output elements a part contributes under the concat layout.
    fn part_items<T: Element>(self, p: &MatrixPart<T>) -> usize {
        match self {
            Axis::Rows => p.rows,
            Axis::Cols => p.cols,
        }
    }

    /// The part's offset in the concatenated output vector.
    fn part_offset<T: Element>(self, p: &MatrixPart<T>) -> usize {
        match self {
            Axis::Rows => p.row_offset,
            Axis::Cols => p.col_offset,
        }
    }

    /// The part's extent along the *reduced* dimension — zero-extent parts
    /// contribute nothing to a chained fold and are skipped.
    fn reduced_extent<T: Element>(self, p: &MatrixPart<T>) -> usize {
        match self {
            Axis::Rows => p.cols,
            Axis::Cols => p.rows,
        }
    }
}

/// The running device-resident state a chained reduction carries across
/// part boundaries: a partials buffer for the value folds, a (value,
/// index) pair for the argbest skeletons.
trait ChainState: Sized {
    fn stage(self, ctx: &Context, from: usize, to: usize, len: usize) -> Result<Self>;
}

impl<T: Element> ChainState for Buffer<T> {
    fn stage(self, ctx: &Context, from: usize, to: usize, len: usize) -> Result<Self> {
        stage_on(ctx, (from, self), to, len)
    }
}

impl<T: Element> ChainState for ArgPair<T> {
    fn stage(self, ctx: &Context, from: usize, to: usize, len: usize) -> Result<Self> {
        let (v, i) = self;
        Ok((
            stage_on(ctx, (from, v), to, len)?,
            stage_on(ctx, (from, i), to, len)?,
        ))
    }
}

/// Where a dispatched reduction's output landed.
enum Reduced<S> {
    /// One state per part, placed at `offset` (length `len`) of the output:
    /// the part layout *is* the output's `Block` distribution.
    Concat(Vec<(usize, usize, usize, S)>),
    /// The whole output on one device (`Single`/`Copy` inputs and chained
    /// folds).
    Single(usize, S),
}

/// The Single/Copy-vs-concat-vs-chain distribution dispatch shared by all
/// four 2D reduction skeletons (previously copied into each `apply` body):
///
/// * `Single`/`Copy` inputs reduce on the (first) device holding the data;
/// * under the distribution that keeps the reduced dimension intact
///   ([`Axis::concatenates_under`]) every part folds its own output slice
///   locally and the results concatenate — zero inter-device transfers;
/// * otherwise the parts are chained in ascending row/column order, each
///   launch seeded with the previous part's staged partials (one
///   device-to-device hop per boundary, never through the host) — the
///   seeding is what preserves the exact sequential fold order, and with
///   it bitwise identity across device counts.
///
/// `launch(part, n_items, seed)` runs one kernel over a part and returns
/// its output state.
fn dispatch_reduce<T, S, L>(
    input: &Matrix<T>,
    axis: Axis,
    out_len: usize,
    mut launch: L,
) -> Result<Reduced<S>>
where
    T: Element,
    S: ChainState,
    L: FnMut(&MatrixPart<T>, usize, Option<S>) -> Result<S>,
{
    let ctx = input.ctx().clone();
    let parts = input.parts()?;
    match input.distribution() {
        MatrixDistribution::Single(_) | MatrixDistribution::Copy => {
            let p = &parts[0];
            let s = launch(p, out_len, None)?;
            Ok(Reduced::Single(p.device, s))
        }
        dist if axis.concatenates_under(dist) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in &parts {
                let s = launch(p, axis.part_items(p), None)?;
                out.push((p.device, axis.part_offset(p), axis.part_items(p), s));
            }
            Ok(Reduced::Concat(out))
        }
        _ => {
            let mut acc: Option<(usize, S)> = None;
            for p in parts.iter().filter(|p| axis.reduced_extent(p) > 0) {
                let seed = match acc.take() {
                    Some((home, s)) => Some(s.stage(&ctx, home, p.device, out_len)?),
                    None => None,
                };
                let s = launch(p, out_len, seed)?;
                acc = Some((p.device, s));
            }
            let (device, s) =
                acc.expect("a non-empty matrix has a part with non-zero reduced extent");
            Ok(Reduced::Single(device, s))
        }
    }
}

/// Wrap one device buffer holding the whole output as a `Single(device)`
/// vector (no host round trip; the host copy is stale until first read).
fn single_device_vector<T: Element>(
    ctx: &Context,
    device: usize,
    len: usize,
    buffer: Buffer<T>,
) -> Vector<T> {
    let part = MatrixPart::column(device, 0, len, buffer);
    Vector::from_device_parts(ctx, len, Distribution::Single(device), vec![part])
}

/// Wrap a dispatched value reduction as the output vector.
fn reduced_to_vector<T: Element>(
    ctx: &Context,
    out_len: usize,
    reduced: Reduced<Buffer<T>>,
) -> Vector<T> {
    match reduced {
        Reduced::Single(device, buffer) => single_device_vector(ctx, device, out_len, buffer),
        Reduced::Concat(items) => Vector::from_device_parts(
            ctx,
            out_len,
            Distribution::Block,
            items
                .into_iter()
                .map(|(device, offset, len, buffer)| {
                    MatrixPart::column(device, offset, len, buffer)
                })
                .collect(),
        ),
    }
}

/// Wrap a dispatched argbest reduction as its (values, indices) vectors.
fn reduced_to_arg_vectors<T: Element>(
    ctx: &Context,
    out_len: usize,
    reduced: Reduced<ArgPair<T>>,
) -> (Vector<T>, Vector<u32>) {
    match reduced {
        Reduced::Single(device, (val, idx)) => (
            single_device_vector(ctx, device, out_len, val),
            single_device_vector(ctx, device, out_len, idx),
        ),
        Reduced::Concat(items) => {
            let mut val_parts = Vec::with_capacity(items.len());
            let mut idx_parts = Vec::with_capacity(items.len());
            for (device, offset, len, (val, idx)) in items {
                val_parts.push(MatrixPart::column(device, offset, len, val));
                idx_parts.push(MatrixPart::column(device, offset, len, idx));
            }
            (
                Vector::from_device_parts(ctx, out_len, Distribution::Block, val_parts),
                Vector::from_device_parts(ctx, out_len, Distribution::Block, idx_parts),
            )
        }
    }
}

/// Launch one segmented-fold kernel on `device`: `n_items` work-items each
/// fold `seg_len` elements of `src` (item `i` reads
/// `base + i*item_pitch + k*elem_pitch` for ascending `k`), starting from
/// `seed[i]` when chaining or from `identity` on the first segment.
/// `ReduceRows` uses `(item_pitch, elem_pitch) = (stride, 1)`;
/// `ReduceCols` uses `(1, stride)` — the column-strided read pattern.
#[allow(clippy::too_many_arguments)]
fn launch_fold<T, F>(
    ctx: &Context,
    compiled: &CompiledKernel,
    device: usize,
    src: &Buffer<T>,
    base: usize,
    n_items: usize,
    seg_len: usize,
    item_pitch: usize,
    elem_pitch: usize,
    seed: Option<Buffer<T>>,
    identity: T,
    user: &UserFn<F>,
) -> Result<Buffer<T>>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    let out = ctx.device(device).alloc::<T>(n_items)?;
    if n_items == 0 || seg_len == 0 {
        return Ok(out);
    }
    // Kernel-body snapshots of the operands: the fold loop runs seg_len
    // times per item, so per-access counted reads would dominate wall
    // time; traffic and work are charged in bulk per item instead (the
    // AllPairs accounting scheme).
    let snap: Arc<Vec<T>> = Arc::new(src.to_vec());
    let seed_snap: Option<Arc<Vec<T>>> = seed.map(|b| Arc::new(b.to_vec()));
    let f = user.func().clone();
    let static_ops = user.static_ops();
    let dst = out.clone();
    let elem_bytes = std::mem::size_of::<T>();
    let seeded = seed_snap.is_some();
    let body: KernelBody = Arc::new(move |wg| {
        wg.for_each_item(|it| {
            if !it.in_bounds() {
                return;
            }
            let i = it.global_id(0);
            let (acc, dyn_ops) = meter::metered(|| {
                let mut acc = match &seed_snap {
                    Some(s) => s[i],
                    None => identity,
                };
                for k in 0..seg_len {
                    acc = f(acc, snap[base + i * item_pitch + k * elem_pitch]);
                }
                acc
            });
            it.write(&dst, i, acc);
            it.work(seg_len as u64 * static_ops + dyn_ops);
            it.traffic_read((seg_len + usize::from(seeded)) * elem_bytes);
        });
    });
    ctx.queue(device).launch(
        &compiled.with_body(body),
        linear_range(ctx, n_items),
        After::Device,
    )?;
    Ok(out)
}

/// The ReduceRows skeleton: `out[r] = f(...f(f(id, m[r][0]), m[r][1])...)`
/// — one output element per matrix row, folded in ascending column order.
pub struct ReduceRows<T: Element, F> {
    user: UserFn<F>,
    identity: T,
    program: Program,
    _pd: PhantomData<fn(T, T) -> T>,
}

impl<T, F> ReduceRows<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    /// `ReduceRows<float> sums(sum, 0.0)` — an associative operator plus
    /// its identity, like the 1D Reduce.
    pub fn new(user: UserFn<F>, identity: T) -> Self {
        let program = codegen::reduce_rows_program(user.name(), user.source(), T::TYPE_NAME);
        ReduceRows {
            user,
            identity,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply the skeleton. The result is a device-resident length-`rows`
    /// vector: `Block`-distributed (concatenating the per-part results with
    /// zero transfers) for a `RowBlock` input, `Single` on the last chained
    /// device for `ColBlock`, `Single` on the holding device otherwise.
    /// Zero-extent edges fold to the identity: a 0-column matrix reduces to
    /// `identity` per row, a 0-row matrix to the empty vector.
    pub fn apply(&self, input: &Matrix<T>) -> Result<Vector<T>> {
        let ctx = input.ctx().clone();
        let (rows, cols) = input.dims();
        let mut span = ctx.span("reduce_rows.apply");
        span.attr("shape", format!("{rows}x{cols}"));
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        if rows == 0 {
            return Ok(Vector::from_vec(&ctx, Vec::new()));
        }
        if cols == 0 {
            return Ok(Vector::from_vec(&ctx, vec![self.identity; rows]));
        }
        let compiled = ctx.get_or_build(&self.program)?;
        let reduced = dispatch_reduce(input, Axis::Rows, rows, |p, n_items, seed| {
            launch_fold(
                &ctx,
                &compiled,
                p.device,
                &p.buffer,
                p.owned_base(),
                n_items,
                p.cols,
                p.cols,
                1,
                seed,
                self.identity,
                &self.user,
            )
        })?;
        Ok(reduced_to_vector(&ctx, rows, reduced))
    }
}

/// The ReduceCols skeleton: `out[c] = f(...f(f(id, m[0][c]), m[1][c])...)`
/// — one output element per matrix column, folded in ascending row order
/// with column-strided reads.
pub struct ReduceCols<T: Element, F> {
    user: UserFn<F>,
    identity: T,
    program: Program,
    _pd: PhantomData<fn(T, T) -> T>,
}

impl<T, F> ReduceCols<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, identity: T) -> Self {
        let program = codegen::reduce_cols_program(user.name(), user.source(), T::TYPE_NAME);
        ReduceCols {
            user,
            identity,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply the skeleton. `Block`-distributed output (zero transfers) for
    /// a `ColBlock` input — the column partition equals the output layout —
    /// `Single` on the last chained device for `RowBlock`, `Single` on the
    /// holding device otherwise. Zero-extent edges fold to the identity.
    pub fn apply(&self, input: &Matrix<T>) -> Result<Vector<T>> {
        let ctx = input.ctx().clone();
        let (rows, cols) = input.dims();
        let mut span = ctx.span("reduce_cols.apply");
        span.attr("shape", format!("{rows}x{cols}"));
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        if cols == 0 {
            return Ok(Vector::from_vec(&ctx, Vec::new()));
        }
        if rows == 0 {
            return Ok(Vector::from_vec(&ctx, vec![self.identity; cols]));
        }
        let compiled = ctx.get_or_build(&self.program)?;
        // Only a part's owned rows are folded (halo rows are other parts'
        // data): the base skips them and the segment is `p.rows` long.
        let reduced = dispatch_reduce(input, Axis::Cols, cols, |p, n_items, seed| {
            launch_fold(
                &ctx,
                &compiled,
                p.device,
                &p.buffer,
                p.owned_base(),
                n_items,
                p.rows,
                1,
                p.cols,
                seed,
                self.identity,
                &self.user,
            )
        })?;
        Ok(reduced_to_vector(&ctx, cols, reduced))
    }
}

/// The index-carrying row reduction: per row, the best value **and its
/// column index** under a strict "is `x` better than the incumbent?"
/// comparison, scanned in ascending column order — so the **lowest index
/// wins ties** (only a strict improvement replaces the incumbent). With
/// `better = <` this is the per-row argmin behind the 1-NN pipeline; with
/// `better = >` a per-row argmax (e.g. the strongest gradient per image
/// row).
pub struct ReduceRowsArg<T: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T, T) -> bool>,
}

impl<T, F> ReduceRowsArg<T, F>
where
    T: Element,
    F: Fn(T, T) -> bool + Send + Sync + Clone + 'static,
{
    /// `ReduceRowsArg<float> argmin(less)` where `less(x, best)` returns
    /// whether `x` is *strictly* better.
    pub fn new(user: UserFn<F>) -> Self {
        let program = codegen::reduce_rows_arg_program(user.name(), user.source(), T::TYPE_NAME);
        ReduceRowsArg {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// One argbest launch over a part's row segment; `seed` carries the
    /// running (value, index) pairs across chained column parts.
    #[allow(clippy::too_many_arguments)]
    fn launch_argbest(
        &self,
        ctx: &Context,
        compiled: &CompiledKernel,
        p: &MatrixPart<T>,
        base: usize,
        n_rows: usize,
        seed: Option<(Buffer<T>, Buffer<u32>)>,
    ) -> Result<(Buffer<T>, Buffer<u32>)> {
        let out_val = ctx.device(p.device).alloc::<T>(n_rows)?;
        let out_idx = ctx.device(p.device).alloc::<u32>(n_rows)?;
        if n_rows == 0 || p.cols == 0 {
            return Ok((out_val, out_idx));
        }
        let snap: Arc<Vec<T>> = Arc::new(p.buffer.to_vec());
        let seeds = seed.map(|(v, i)| (Arc::new(v.to_vec()), Arc::new(i.to_vec())));
        let better = self.user.func().clone();
        let static_ops = self.user.static_ops();
        let (dval, didx) = (out_val.clone(), out_idx.clone());
        let stride = p.cols;
        let seg_len = p.cols;
        let col_offset = p.col_offset;
        let elem_bytes = std::mem::size_of::<T>();
        let seeded = seeds.is_some();
        let body: KernelBody = Arc::new(move |wg| {
            wg.for_each_item(|it| {
                if !it.in_bounds() {
                    return;
                }
                let i = it.global_id(0);
                let ((best, best_i), dyn_ops) = meter::metered(|| {
                    let (mut best, mut best_i) = match &seeds {
                        Some((sv, si)) => (sv[i], si[i]),
                        None => (snap[base + i * stride], col_offset as u32),
                    };
                    let start = usize::from(!seeded);
                    for c in start..seg_len {
                        let x = snap[base + i * stride + c];
                        if better(x, best) {
                            best = x;
                            best_i = (col_offset + c) as u32;
                        }
                    }
                    (best, best_i)
                });
                it.write(&dval, i, best);
                it.write(&didx, i, best_i);
                it.work(seg_len as u64 * static_ops + dyn_ops);
                it.traffic_read((seg_len + 2 * usize::from(seeded)) * elem_bytes);
            });
        });
        ctx.queue(p.device).launch(
            &compiled.with_body(body),
            linear_range(ctx, n_rows),
            After::Device,
        )?;
        Ok((out_val, out_idx))
    }

    /// Apply the skeleton: per-row best value + column index, both as
    /// device-resident vectors distributed like [`ReduceRows::apply`]'s
    /// output. A 0-column matrix has no best element and errors.
    pub fn apply(&self, input: &Matrix<T>) -> Result<(Vector<T>, Vector<u32>)> {
        let ctx = input.ctx().clone();
        let (rows, cols) = input.dims();
        let mut span = ctx.span("reduce_rows_arg.apply");
        span.attr("shape", format!("{rows}x{cols}"));
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        if cols == 0 {
            return Err(Error::Empty("reduce_rows_arg"));
        }
        if rows == 0 {
            return Ok((
                Vector::from_vec(&ctx, Vec::new()),
                Vector::from_vec(&ctx, Vec::new()),
            ));
        }
        let compiled = ctx.get_or_build(&self.program)?;
        let reduced = dispatch_reduce(input, Axis::Rows, rows, |p, n_items, seed| {
            self.launch_argbest(&ctx, &compiled, p, p.owned_base(), n_items, seed)
        })?;
        Ok(reduced_to_arg_vectors(&ctx, rows, reduced))
    }
}

/// The index-carrying column reduction: per column, the best value **and
/// its row index** under the same strict "is `x` better?" comparison as
/// [`ReduceRowsArg`], scanned in ascending row order — lowest row index
/// wins ties. With `better = <` a per-column argmin (e.g. the closest
/// reference point per feature column); with `better = >` a per-column
/// argmax (the strongest gradient per image column). Completes the argmin
/// family the ROADMAP called for: both matrix axes now reduce to
/// device-resident (value, index) pairs.
pub struct ReduceColsArg<T: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T, T) -> bool>,
}

impl<T, F> ReduceColsArg<T, F>
where
    T: Element,
    F: Fn(T, T) -> bool + Send + Sync + Clone + 'static,
{
    /// `ReduceColsArg<float> argmin(less)` where `less(x, best)` returns
    /// whether `x` is *strictly* better.
    pub fn new(user: UserFn<F>) -> Self {
        let program = codegen::reduce_cols_arg_program(user.name(), user.source(), T::TYPE_NAME);
        ReduceColsArg {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// One argbest launch over a part's owned rows; `seed` carries the
    /// running (value, row index) pairs across chained row parts.
    fn launch_argbest(
        &self,
        ctx: &Context,
        compiled: &CompiledKernel,
        p: &MatrixPart<T>,
        n_cols: usize,
        seed: Option<ArgPair<T>>,
    ) -> Result<ArgPair<T>> {
        let out_val = ctx.device(p.device).alloc::<T>(n_cols)?;
        let out_idx = ctx.device(p.device).alloc::<u32>(n_cols)?;
        if n_cols == 0 || p.rows == 0 {
            return Ok((out_val, out_idx));
        }
        let snap: Arc<Vec<T>> = Arc::new(p.buffer.to_vec());
        let seeds = seed.map(|(v, i)| (Arc::new(v.to_vec()), Arc::new(i.to_vec())));
        let better = self.user.func().clone();
        let static_ops = self.user.static_ops();
        let (dval, didx) = (out_val.clone(), out_idx.clone());
        let base = p.owned_base();
        let stride = p.cols;
        let seg_len = p.rows;
        let row_offset = p.row_offset;
        let elem_bytes = std::mem::size_of::<T>();
        let seeded = seeds.is_some();
        let body: KernelBody = Arc::new(move |wg| {
            wg.for_each_item(|it| {
                if !it.in_bounds() {
                    return;
                }
                let i = it.global_id(0);
                let ((best, best_i), dyn_ops) = meter::metered(|| {
                    let (mut best, mut best_i) = match &seeds {
                        Some((sv, si)) => (sv[i], si[i]),
                        None => (snap[base + i], row_offset as u32),
                    };
                    let start = usize::from(!seeded);
                    for r in start..seg_len {
                        let x = snap[base + r * stride + i];
                        if better(x, best) {
                            best = x;
                            best_i = (row_offset + r) as u32;
                        }
                    }
                    (best, best_i)
                });
                it.write(&dval, i, best);
                it.write(&didx, i, best_i);
                it.work(seg_len as u64 * static_ops + dyn_ops);
                it.traffic_read((seg_len + 2 * usize::from(seeded)) * elem_bytes);
            });
        });
        ctx.queue(p.device).launch(
            &compiled.with_body(body),
            linear_range(ctx, n_cols),
            After::Device,
        )?;
        Ok((out_val, out_idx))
    }

    /// Apply the skeleton: per-column best value + row index, both as
    /// device-resident vectors distributed like [`ReduceCols::apply`]'s
    /// output. A 0-row matrix has no best element and errors.
    pub fn apply(&self, input: &Matrix<T>) -> Result<(Vector<T>, Vector<u32>)> {
        let ctx = input.ctx().clone();
        let (rows, cols) = input.dims();
        let mut span = ctx.span("reduce_cols_arg.apply");
        span.attr("shape", format!("{rows}x{cols}"));
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        if rows == 0 {
            return Err(Error::Empty("reduce_cols_arg"));
        }
        if cols == 0 {
            return Ok((
                Vector::from_vec(&ctx, Vec::new()),
                Vector::from_vec(&ctx, Vec::new()),
            ));
        }
        let compiled = ctx.get_or_build(&self.program)?;
        let reduced = dispatch_reduce(input, Axis::Cols, cols, |p, n_items, seed| {
            self.launch_argbest(&ctx, &compiled, p, n_items, seed)
        })?;
        Ok(reduced_to_arg_vectors(&ctx, cols, reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    fn sum_rows() -> ReduceRows<f32, fn(f32, f32) -> f32> {
        ReduceRows::new(
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn sum_cols() -> ReduceCols<f32, fn(f32, f32) -> f32> {
        ReduceCols::new(
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn argmin_rows() -> ReduceRowsArg<f32, fn(f32, f32) -> bool> {
        ReduceRowsArg::new(crate::skel_fn!(
            fn less(x: f32, y: f32) -> bool {
                x < y
            }
        ))
    }

    fn argmin_cols() -> ReduceColsArg<f32, fn(f32, f32) -> bool> {
        ReduceColsArg::new(crate::skel_fn!(
            fn less(x: f32, y: f32) -> bool {
                x < y
            }
        ))
    }

    /// Awkward float values that expose any fold-order deviation bitwise.
    fn messy(rows: usize, cols: usize, salt: u32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((h % 2000) as f32) / 7.0 - 140.0
            })
            .collect()
    }

    fn host_row_folds(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows)
            .map(|r| {
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .fold(0.0, |a, &x| a + x)
            })
            .collect()
    }

    fn host_col_folds(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols)
            .map(|c| (0..rows).fold(0.0, |a, r| a + data[r * cols + c]))
            .collect()
    }

    fn host_row_argmin(data: &[f32], rows: usize, cols: usize) -> (Vec<f32>, Vec<u32>) {
        let mut vals = Vec::with_capacity(rows);
        let mut idxs = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (c, &x) in row.iter().enumerate() {
                if x < row[best] {
                    best = c;
                }
            }
            vals.push(row[best]);
            idxs.push(best as u32);
        }
        (vals, idxs)
    }

    fn host_col_argmin(data: &[f32], rows: usize, cols: usize) -> (Vec<f32>, Vec<u32>) {
        let mut vals = Vec::with_capacity(cols);
        let mut idxs = Vec::with_capacity(cols);
        for c in 0..cols {
            let mut best = 0usize;
            for r in 0..rows {
                if data[r * cols + c] < data[best * cols + c] {
                    best = r;
                }
            }
            vals.push(data[best * cols + c]);
            idxs.push(best as u32);
        }
        (vals, idxs)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn all_dists() -> Vec<MatrixDistribution> {
        vec![
            MatrixDistribution::Single(0),
            MatrixDistribution::Copy,
            MatrixDistribution::RowBlock { halo: 0 },
            MatrixDistribution::RowBlock { halo: 2 },
            MatrixDistribution::ColBlock,
        ]
    }

    #[test]
    fn reduce_rows_matches_host_fold_bitwise_everywhere() {
        let (rows, cols) = (13, 9);
        let data = messy(rows, cols, 1);
        let want = bits(&host_row_folds(&data, rows, cols));
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let got = sum_rows().apply(&m).unwrap().to_vec().unwrap();
                assert_eq!(bits(&got), want, "{devices} devices, {dist:?}");
            }
        }
    }

    #[test]
    fn reduce_cols_matches_host_fold_bitwise_everywhere() {
        let (rows, cols) = (11, 7);
        let data = messy(rows, cols, 2);
        let want = bits(&host_col_folds(&data, rows, cols));
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let got = sum_cols().apply(&m).unwrap().to_vec().unwrap();
                assert_eq!(bits(&got), want, "{devices} devices, {dist:?}");
            }
        }
    }

    #[test]
    fn row_block_reduce_rows_moves_nothing_between_devices() {
        let c = ctx(4);
        let (rows, cols) = (16, 6);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 3));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = sum_rows().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "concat combine needs no copies");
        assert_eq!(delta.d2h_transfers, 0, "result stays on the devices");
        assert_eq!(delta.h2d_transfers, 0, "input was already resident");
        assert_eq!(out.distribution(), Distribution::Block);
        assert!(!out.host_fresh(), "output is device-resident");
    }

    #[test]
    fn col_block_reduce_cols_moves_nothing_between_devices() {
        let c = ctx(3);
        let (rows, cols) = (9, 14);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 4));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = sum_cols().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "concat combine needs no copies");
        assert_eq!(out.distribution(), Distribution::Block);
    }

    #[test]
    fn chained_combines_cross_devices_but_never_the_host() {
        let c = ctx(4);
        let (rows, cols) = (10, 12);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 5));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = sum_rows().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(delta.d2d_transfers > 0, "partials hop between devices");
        assert_eq!(delta.d2h_transfers, 0, "never through the host");
        assert_eq!(delta.h2d_transfers, 0, "never through the host");
        assert_eq!(
            bits(&out.to_vec().unwrap()),
            bits(&host_row_folds(&messy(rows, cols, 5), rows, cols))
        );
    }

    #[test]
    fn argmin_matches_host_scan_with_lowest_index_ties() {
        // Values from a tiny set force plenty of ties.
        let (rows, cols) = (12, 15);
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i * 7) % 4) as f32).collect();
        let (want_v, want_i) = host_row_argmin(&data, rows, cols);
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let (v, i) = argmin_rows().apply(&m).unwrap();
                assert_eq!(
                    bits(&v.to_vec().unwrap()),
                    bits(&want_v),
                    "{devices} {dist:?}"
                );
                assert_eq!(i.to_vec().unwrap(), want_i, "{devices} {dist:?}");
            }
        }
    }

    #[test]
    fn col_argmin_matches_host_scan_with_lowest_index_ties() {
        // Values from a tiny set force plenty of ties.
        let (rows, cols) = (15, 12);
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i * 11) % 4) as f32).collect();
        let (want_v, want_i) = host_col_argmin(&data, rows, cols);
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let (v, i) = argmin_cols().apply(&m).unwrap();
                assert_eq!(
                    bits(&v.to_vec().unwrap()),
                    bits(&want_v),
                    "{devices} {dist:?}"
                );
                assert_eq!(i.to_vec().unwrap(), want_i, "{devices} {dist:?}");
            }
        }
    }

    #[test]
    fn col_block_col_argmin_moves_nothing_between_devices() {
        let c = ctx(3);
        let (rows, cols) = (10, 13);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 9));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let (v, i) = argmin_cols().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "concat combine needs no copies");
        assert_eq!(v.distribution(), Distribution::Block);
        assert_eq!(i.distribution(), Distribution::Block);
    }

    #[test]
    fn degenerate_shapes_reduce_correctly() {
        // 1×N, N×1 and fewer rows/cols than devices, all distributions.
        for (rows, cols) in [(1usize, 9usize), (9, 1), (2, 3), (3, 2), (1, 1)] {
            let data = messy(rows, cols, 6);
            let want_r = bits(&host_row_folds(&data, rows, cols));
            let want_c = bits(&host_col_folds(&data, rows, cols));
            for devices in [1usize, 4] {
                for dist in all_dists() {
                    let c = ctx(devices);
                    let m = Matrix::from_vec(&c, rows, cols, data.clone());
                    m.set_distribution(dist).unwrap();
                    let r = sum_rows().apply(&m).unwrap().to_vec().unwrap();
                    let cc = sum_cols().apply(&m).unwrap().to_vec().unwrap();
                    assert_eq!(bits(&r), want_r, "rows {rows}x{cols} {devices} {dist:?}");
                    assert_eq!(bits(&cc), want_c, "cols {rows}x{cols} {devices} {dist:?}");
                }
            }
        }
    }

    #[test]
    fn zero_extent_edges_fold_to_the_identity() {
        let c = ctx(2);
        let none = Matrix::from_vec(&c, 0, 5, Vec::<f32>::new());
        assert!(sum_rows()
            .apply(&none)
            .unwrap()
            .to_vec()
            .unwrap()
            .is_empty());
        assert_eq!(
            sum_cols().apply(&none).unwrap().to_vec().unwrap(),
            vec![0.0f32; 5]
        );
        let hollow = Matrix::from_vec(&c, 4, 0, Vec::<f32>::new());
        assert_eq!(
            sum_rows().apply(&hollow).unwrap().to_vec().unwrap(),
            vec![0.0f32; 4]
        );
        assert!(sum_cols()
            .apply(&hollow)
            .unwrap()
            .to_vec()
            .unwrap()
            .is_empty());
        assert!(matches!(
            argmin_rows().apply(&hollow),
            Err(Error::Empty("reduce_rows_arg"))
        ));
        assert!(matches!(
            argmin_cols().apply(&none),
            Err(Error::Empty("reduce_cols_arg"))
        ));
        let (v, i) = argmin_cols().apply(&hollow).unwrap();
        assert!(v.to_vec().unwrap().is_empty());
        assert!(i.to_vec().unwrap().is_empty());
    }

    #[test]
    fn reduce2d_programs_have_distinct_cache_keys() {
        let r = sum_rows();
        let c = sum_cols();
        let a = argmin_rows();
        let ca = argmin_cols();
        assert_ne!(r.program().hash(), c.program().hash());
        assert_ne!(r.program().hash(), a.program().hash());
        assert_ne!(c.program().hash(), a.program().hash());
        assert_ne!(ca.program().hash(), a.program().hash());
        assert_ne!(ca.program().hash(), c.program().hash());
    }

    #[test]
    fn second_apply_reuses_the_cached_kernel() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 8, messy(8, 8, 7));
        let skel = sum_rows();
        skel.apply(&m).unwrap();
        let built = c.programs_built();
        skel.apply(&m).unwrap();
        assert_eq!(c.programs_built(), built, "no rebuild on a second run");
    }

    #[test]
    fn max_operator_reduces_rows_too() {
        let c = ctx(3);
        let (rows, cols) = (6, 50);
        let mut data = messy(rows, cols, 8);
        data[2 * cols + 17] = 1e7;
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let maxr = ReduceRows::new(
            crate::skel_fn!(
                fn maxf(x: f32, y: f32) -> f32 {
                    if x > y {
                        x
                    } else {
                        y
                    }
                }
            ),
            f32::NEG_INFINITY,
        );
        let got = maxr.apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(got[2], 1e7);
        for r in 0..rows {
            let want = data[r * cols..(r + 1) * cols]
                .iter()
                .fold(f32::NEG_INFINITY, |a, &x| if x > a { x } else { a });
            assert_eq!(got[r], want, "row {r}");
        }
    }
}
