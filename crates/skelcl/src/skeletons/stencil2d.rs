//! The Stencil2D skeleton: a 2D stencil over [`Matrix`] with automatic
//! inter-device halo exchange.
//!
//! This is the skeleton behind SkelCL's image-processing benchmarks
//! (Gaussian blur, Sobel, Canny); a 1-D stencil is a `Stencil2D` over an
//! N×1 matrix. Each output element is computed from its input element and the
//! `radius`-neighbourhood around it. Under a
//! [`MatrixDistribution::RowBlock`] distribution the neighbourhood crosses
//! device boundaries; the halo rows the distribution maintains (refreshed
//! by an automatic [`Matrix::halo_exchange`] when stale — one planned copy
//! list, see [`crate::matrix`]) provide them without gathering the whole
//! matrix anywhere.
//!
//! Out-of-matrix accesses follow the [`Boundary2D`] mode: `Neumann`
//! replicates the edge element (zero-gradient), `Wrap` treats the matrix as
//! a torus, `Zero` reads the element type's default.

use crate::codegen::{self, FusedStage, UserFn};
use crate::context::Context;
use crate::error::Result;
use crate::matrix::{
    exchange_part_halos, CopyOrder, Matrix, MatrixDistribution, MatrixPart, UploadChunk,
};
use crate::skeletons::pipeline::{Pipeline, PipelineExpr, StencilLauncher};
use std::marker::PhantomData;
use vgpu::{After, Event, Program, Scalar as Element};

/// What out-of-matrix neighbourhood positions read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary2D {
    /// Replicate the nearest edge element (zero-gradient boundary).
    Neumann,
    /// Wrap around: the matrix is a torus.
    Wrap,
    /// Read the element type's default value.
    Zero,
}

impl Boundary2D {
    /// The spelling used in generated program names (part of the kernel
    /// cache key — each boundary mode emits different index arithmetic).
    pub fn codegen_name(self) -> &'static str {
        match self {
            Boundary2D::Neumann => "neumann",
            Boundary2D::Wrap => "wrap",
            Boundary2D::Zero => "zero",
        }
    }
}

/// The customizing function's view of one stencil application: counted
/// access to the `[-radius, +radius]²` neighbourhood of its element.
///
/// This is the one stencil view: a `Stencil2D` call and a pipeline
/// `stencil` stage hand their user functions the same type. A read goes
/// through `read(span_row, col)`, which returns the element the kernel's
/// input holds there — the raw buffer element for a plain stencil, or the
/// value of the element-wise stages fused into the neighbourhood reads.
pub struct Stencil2DView<'a, T: Element> {
    /// The value at `(span row, column)` of the part's span.
    pub(crate) read: &'a (dyn Fn(usize, usize) -> T + 'a),
    /// Matrix width (also the part buffer's row stride).
    pub(crate) cols: usize,
    /// Matrix height.
    pub(crate) n_rows: usize,
    /// The centre's row within the part's span buffer.
    pub(crate) span_row: usize,
    /// Total rows in the part's span buffer.
    pub(crate) span_rows: usize,
    /// The centre's global row.
    pub(crate) g_row: usize,
    /// The centre's column.
    pub(crate) col: usize,
    pub(crate) radius: usize,
    pub(crate) boundary: Boundary2D,
}

impl<'a, T: Element> Stencil2DView<'a, T> {
    /// The neighbour at `(row + dr, col + dc)`; `(0, 0)` is the element
    /// itself. Panics if `|dr|` or `|dc|` exceeds the stencil radius,
    /// mirroring SkelCL's out-of-range checks.
    #[inline]
    pub fn get(&self, dr: isize, dc: isize) -> T {
        assert!(
            dr.unsigned_abs() <= self.radius && dc.unsigned_abs() <= self.radius,
            "stencil access ({dr}, {dc}) exceeds radius {}",
            self.radius
        );
        let n_rows = self.n_rows as isize;
        let n_cols = self.cols as isize;
        // Resolve the row against the boundary, then express it as a span
        // offset: span rows are consecutive global rows (mod n_rows), so an
        // effective delta of d lands at span_row + d.
        let row_delta = match self.boundary {
            Boundary2D::Wrap => dr,
            Boundary2D::Neumann => {
                let clamped = (self.g_row as isize + dr).clamp(0, n_rows - 1);
                clamped - self.g_row as isize
            }
            Boundary2D::Zero => {
                let target = self.g_row as isize + dr;
                if target < 0 || target >= n_rows {
                    return T::default();
                }
                dr
            }
        };
        let col = match self.boundary {
            Boundary2D::Wrap => (self.col as isize + dc).rem_euclid(n_cols),
            Boundary2D::Neumann => (self.col as isize + dc).clamp(0, n_cols - 1),
            Boundary2D::Zero => {
                let target = self.col as isize + dc;
                if target < 0 || target >= n_cols {
                    return T::default();
                }
                target
            }
        };
        let mut span_row = self.span_row as isize + row_delta;
        if span_row < 0 || span_row >= self.span_rows as isize {
            // Reachable in two cases, both with `span_rows >= n_rows`: a
            // part holding the whole matrix with no halo rows (Single/Copy
            // under Wrap), and a RowBlock part whose halo was clamped to
            // the matrix height because the radius meets or exceeds it.
            // Span rows are consecutive global rows (mod n_rows), so
            // reducing the overflowed span position modulo the height
            // lands on a span row holding exactly the wrapped target row.
            debug_assert!(
                self.span_rows >= self.n_rows,
                "beyond-span stencil read with a span narrower than the matrix"
            );
            span_row = span_row.rem_euclid(n_rows);
        }
        (self.read)(span_row as usize, col as usize)
    }

    /// The centre's global position `(row, col)`.
    pub fn position(&self) -> (usize, usize) {
        (self.g_row, self.col)
    }

    /// The matrix dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.n_rows, self.cols)
    }

    pub fn radius(&self) -> usize {
        self.radius
    }
}

/// The Stencil2D skeleton.
///
/// A one-stage [`Pipeline`]: [`Stencil2D::apply`] runs
/// `Pipeline::start().stencil(..)`, while [`Stencil2D::apply_streamed`] and
/// [`Stencil2D::iterate`] keep their own schedules but launch through the
/// planner's stencil launcher. All three launch the one program
/// [`Stencil2D::program`] returns.
pub struct Stencil2D<T: Element, U: Element, F> {
    user: UserFn<F>,
    radius: usize,
    boundary: Boundary2D,
    program: Program,
    _pd: PhantomData<fn(T) -> U>,
}

impl<T, U, F> Stencil2D<T, U, F>
where
    T: Element,
    U: Element,
    F: Fn(&Stencil2DView<'_, T>) -> U + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, radius: usize, boundary: Boundary2D) -> Self {
        let program = codegen::stencil2d_program(
            &[FusedStage::of("stencil", &user)],
            T::TYPE_NAME,
            U::TYPE_NAME,
            radius,
            boundary.codegen_name(),
        );
        Stencil2D {
            user,
            radius,
            boundary,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn radius(&self) -> usize {
        self.radius
    }

    pub fn boundary(&self) -> Boundary2D {
        self.boundary
    }

    /// Apply the skeleton. Under `RowBlock` the input's halo is widened to
    /// the stencil radius if needed and stale halo rows are refreshed by
    /// automatic device-to-device exchange; everything stays on the devices
    /// (lazy copying).
    pub fn apply(&self, input: &Matrix<T>) -> Result<Matrix<U>> {
        let ctx = input.ctx().clone();
        let mut span = ctx.span("stencil2d.apply");
        span.attr("shape", {
            let (r, c) = input.dims();
            format!("{r}x{c}")
        });
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        span.attr("radius", self.radius.to_string());
        // Build before touching the input; the planner's own lookup of the
        // same program is then a registry hit.
        ctx.get_or_build(&self.program)?;
        Pipeline::start::<T>()
            .stencil(self.user.clone(), self.radius, self.boundary)
            .run(input)
    }

    /// Like [`Stencil2D::apply`], but when the input still lives on the
    /// host its upload is **streamed in row chunks on the copy stream** and
    /// the stencil launches in chunk-sized row bands, each waiting only for
    /// the upload chunks covering its read window — so the first bands
    /// compute while later chunks are still crossing PCIe, instead of the
    /// whole upload completing before the first kernel. Bit-identical to
    /// [`Stencil2D::apply`] (same generated program, same per-element
    /// math); on device-fresh input it degrades to exactly `apply`'s
    /// schedule.
    pub fn apply_streamed(&self, input: &Matrix<T>, chunk_rows: usize) -> Result<Matrix<U>> {
        let ctx = input.ctx().clone();
        let mut span = ctx.span("stencil2d.apply_streamed");
        span.attr("shape", {
            let (r, c) = input.dims();
            format!("{r}x{c}")
        });
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        span.attr("radius", self.radius.to_string());
        span.attr("chunk_rows", chunk_rows.to_string());
        let compiled = ctx.get_or_build(&self.program)?;
        ensure_stencil_layout(input, self.radius)?;

        let (n_rows, cols) = input.dims();
        let chunk_rows = chunk_rows.max(1);
        let (in_parts, upload_chunks) = input.parts_with_upload_chunks(chunk_rows)?;

        let out_parts = alloc_mirror_parts::<T, U>(&ctx, &in_parts, cols)?;
        let out_halos_fresh = stale_free(&in_parts);
        let launcher = StencilLauncher::single(
            &ctx,
            compiled,
            &self.user,
            self.radius,
            self.boundary,
            n_rows,
            cols,
        );

        for (pi, ((ip, op), chunks)) in in_parts
            .iter()
            .zip(&out_parts)
            .zip(&upload_chunks)
            .enumerate()
        {
            if ip.rows == 0 || cols == 0 {
                continue;
            }
            if chunks.is_empty() {
                // Already resident: the plain device-serializing launch.
                launcher.launch(pi, ip, op, &[(0, ip.rows)], After::Device)?;
                continue;
            }
            // Launch in chunk-aligned owned-row bands, each depending on
            // the upload chunks covering its radius-widened read window.
            let mut start = 0;
            while start < ip.rows {
                let len = chunk_rows.min(ip.rows - start);
                let deps = covering_chunks(chunks, ip, self.radius, self.boundary, start, len);
                launcher.launch(pi, ip, op, &[(start, len)], After::Events(&deps))?;
                start += len;
            }
        }

        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            input.distribution(),
            out_parts,
            out_halos_fresh,
        ))
    }
}

impl<T, F> Stencil2D<T, T, F>
where
    T: Element,
    F: Fn(&Stencil2DView<'_, T>) -> T + Send + Sync + Clone + 'static,
{
    /// Apply the stencil `n` times, feeding each pass's output to the next
    /// — the iterative form behind heat relaxation, Jacobi sweeps and
    /// game-of-life (bit-identical to `n` chained [`Stencil2D::apply`]
    /// calls, for every boundary mode and device count).
    ///
    /// Unlike the chain, the whole iteration stays inside two
    /// device-resident part sets that ping-pong roles each round:
    ///
    /// * **no intermediate matrices** — two buffers per device total,
    ///   instead of one fresh allocation per pass;
    /// * **one planned halo exchange per iteration** — one copy list
    ///   issued directly on the part buffers through the matrix's copy
    ///   planner, without re-synchronising the host in between, and (under
    ///   `Neumann`/`Zero` boundaries) without the wrapped matrix-edge rows
    ///   only `Wrap` ever reads;
    /// * **one cached kernel across all `n` launches** — the same program
    ///   [`Stencil2D::apply`] launches is built once and rebound to the
    ///   swapped buffers each round.
    ///
    /// `iterate(input, 0)` is the identity: it returns a handle to `input`.
    ///
    /// ## Overlapped schedule (the default)
    ///
    /// Each round is split into an **interior** launch (owned rows more
    /// than the boundary band away from the part edges — they read no halo
    /// rows) and a **boundary** launch (the top and bottom bands, packed
    /// into one kernel). The halo exchange for round *r* is issued on the
    /// copy engines with events tying each copy to round *r−1*'s boundary
    /// kernels on its two devices, so the copies run *underneath* round
    /// *r*'s interior kernels; only the boundary launch waits for them.
    /// The copies are issued in ascending part order rather than in
    /// lock-step pair rounds: each device's copies start as soon as its
    /// own producers finish, which lets the loop settle into a
    /// phase-shifted wavefront instead of forcing the devices into
    /// lock-step. Results are bit-identical to the serial schedule
    /// ([`Stencil2D::iterate_serial`]) — same kernels, same data, only the
    /// modeled timeline changes — and exactly the same exchange events are
    /// counted. Parts that receive no exchanged rows in a round (one
    /// device, halo-free layouts) launch as a single kernel, so the
    /// overlapped schedule never pays the split where there is nothing to
    /// hide.
    pub fn iterate(&self, input: &Matrix<T>, n: usize) -> Result<Matrix<T>> {
        self.iterate_impl(input, n, true)
    }

    /// The serial schedule of [`Stencil2D::iterate`]: one device-serializing
    /// kernel per part per round, each round's halo exchange a lock-step
    /// copy plan (each device joined by a marker, rounds of disjoint device
    /// pairs) between them — the pre-overlap behaviour, kept as the
    /// measurable baseline for `fig_overlap` and the overlap property
    /// suite.
    pub fn iterate_serial(&self, input: &Matrix<T>, n: usize) -> Result<Matrix<T>> {
        self.iterate_impl(input, n, false)
    }

    fn iterate_impl(&self, input: &Matrix<T>, n: usize, overlap: bool) -> Result<Matrix<T>> {
        if n == 0 {
            return Ok(input.clone());
        }
        let ctx = input.ctx().clone();
        let mut span = ctx.span("stencil2d.iterate");
        span.attr("shape", {
            let (r, c) = input.dims();
            format!("{r}x{c}")
        });
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        span.attr("radius", self.radius.to_string());
        span.attr("iterations", n.to_string());
        span.attr("schedule", if overlap { "overlapped" } else { "serial" });
        let compiled = ctx.get_or_build(&self.program)?;
        ensure_stencil_layout(input, self.radius)?;

        let (n_rows, cols) = input.dims();
        let launcher = StencilLauncher::single(
            &ctx,
            compiled,
            &self.user,
            self.radius,
            self.boundary,
            n_rows,
            cols,
        );
        // Round 1 reads the input matrix's own parts (exchanging its halos
        // if stale — counted like any other exchange event).
        let in_parts = input.parts_with_fresh_halos()?;
        let out_halos_fresh = stale_free(&in_parts);

        // Only `Wrap` reads the halo rows that wrap around the matrix
        // edge; for the other boundaries the per-iteration exchange skips
        // them (strictly fewer transfers on the same critical path).
        let skip_wrapped = self.boundary != Boundary2D::Wrap;

        let mut src = in_parts;
        let mut dst = alloc_mirror_parts::<T, T>(&ctx, &src, cols)?;
        let mut spare = if n > 1 {
            Some(alloc_mirror_parts::<T, T>(&ctx, &src, cols)?)
        } else {
            None
        };

        // Per device: the events the next round's exchange must wait for —
        // the kernels that last wrote (and, transitively, read) the rows
        // the copies touch. Round 1 anchors on a marker joining everything
        // already scheduled on the device (the input's upload/exchange).
        let mut producers: Vec<Vec<Event>> = if overlap {
            (0..ctx.n_devices())
                .map(|d| vec![ctx.queue(d).enqueue_marker()])
                .collect()
        } else {
            Vec::new()
        };

        for round in 1..=n {
            if !overlap {
                if round > 1 {
                    // The previous round wrote only owned rows; one
                    // lock-step exchange refreshes this round's input
                    // halos. Its join markers order the copies against the
                    // producing kernels — the host never blocks between
                    // rounds.
                    exchange_part_halos(&ctx, &src, n_rows, cols, skip_wrapped, CopyOrder::Rounds)?;
                }
                for (pi, (ip, op)) in src.iter().zip(&dst).enumerate() {
                    launcher.launch(pi, ip, op, &[(0, ip.rows)], After::Device)?;
                }
            } else {
                // Exchange round r's halos on the copy engines, ordered
                // only against round r-1's boundary kernels: the copies run
                // under this round's interior launches.
                let exchange_events = if round > 1 {
                    let order = CopyOrder::Producers(&producers);
                    exchange_part_halos(&ctx, &src, n_rows, cols, skip_wrapped, order)?.into_part
                } else {
                    vec![Vec::new(); src.len()]
                };
                let mut next_producers: Vec<Vec<Event>> = vec![Vec::new(); ctx.n_devices()];
                for (idx, (ip, op)) in src.iter().zip(&dst).enumerate() {
                    if ip.rows == 0 || cols == 0 {
                        continue;
                    }
                    // Round 1 reads buffers produced by device-serializing
                    // commands; the marker stands in for their events.
                    let base_deps: &[Event] = if round == 1 {
                        &producers[ip.device]
                    } else {
                        &[]
                    };
                    let produced = if exchange_events[idx].is_empty() {
                        // Nothing exchanged into this part this round:
                        // nothing to hide, launch the whole part at once.
                        launcher.launch(idx, ip, op, &[(0, ip.rows)], After::Events(base_deps))?
                    } else {
                        let mut boundary_deps = exchange_events[idx].clone();
                        boundary_deps.extend_from_slice(base_deps);
                        launcher.launch_split(idx, ip, op, base_deps, &boundary_deps)?
                    };
                    if let Some(ev) = produced {
                        // The boundary launch is enqueued last on the
                        // in-order queue, so this single event fences every
                        // round-r command of the device.
                        next_producers[ip.device] = vec![ev];
                    }
                }
                for (d, evs) in next_producers.into_iter().enumerate() {
                    if !evs.is_empty() {
                        producers[d] = evs;
                    }
                }
            }
            if round < n {
                let prev_src = std::mem::replace(&mut src, std::mem::take(&mut dst));
                dst = if round == 1 {
                    // Never write back into the caller's input buffers.
                    spare.take().expect("pong buffers exist when n > 1")
                } else {
                    prev_src
                };
            }
        }

        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            input.distribution(),
            dst,
            out_halos_fresh,
        ))
    }
}

/// Lay `input` out for a stencil of `radius`. A RowBlock halo narrower
/// than the radius cannot supply the neighbourhood; widen it (device-side
/// when data is fresh). Column blocks have no column halos, so a stencil
/// cannot read its horizontal neighbourhood across parts either: fall back
/// to a row-block layout with a radius-wide halo (device-side exchange).
pub(crate) fn ensure_stencil_layout<T: Element>(input: &Matrix<T>, radius: usize) -> Result<()> {
    match input.distribution() {
        MatrixDistribution::RowBlock { halo } if halo < radius => {
            input.set_distribution(MatrixDistribution::RowBlock { halo: radius })?;
        }
        MatrixDistribution::ColBlock => {
            input.set_distribution(MatrixDistribution::RowBlock { halo: radius })?;
        }
        _ => {}
    }
    Ok(())
}

/// Allocate a part set mirroring `parts`' geometry with fresh (element
/// type `V`) buffers on the same devices. Shared with the fused pipeline
/// launcher, whose stencil groups mirror their input layout the same way.
pub(crate) fn alloc_mirror_parts<T: Element, V: Element>(
    ctx: &Context,
    parts: &[MatrixPart<T>],
    cols: usize,
) -> Result<Vec<MatrixPart<V>>> {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        out.push(MatrixPart {
            device: p.device,
            row_offset: p.row_offset,
            rows: p.rows,
            halo_above: p.halo_above,
            halo_below: p.halo_below,
            col_offset: p.col_offset,
            cols: p.cols,
            buffer: ctx.device(p.device).alloc::<V>(p.span_rows() * cols)?,
        });
    }
    Ok(out)
}

/// Can a stencil's output start life with coherent halos? Only when there
/// are none to go stale.
pub(crate) fn stale_free<T: Element>(parts: &[MatrixPart<T>]) -> bool {
    parts.iter().all(|p| p.halo_above == 0 && p.halo_below == 0)
}

/// The upload-chunk events a band launch over owned rows
/// `[start, start + len)` of `p` must wait for: the chunks intersecting the
/// band's radius-widened span-row read window. `Neumann` and `Zero` never
/// read outside the span (they clamp or synthesize), so the window clamps
/// to it; under `Wrap` a window leaving the span wraps modulo the matrix
/// height (`Stencil2DView::get`'s beyond-span rule) and can touch any span
/// row, so every chunk becomes a dependency.
fn covering_chunks<T: Element>(
    chunks: &[UploadChunk],
    p: &MatrixPart<T>,
    radius: usize,
    boundary: Boundary2D,
    start: usize,
    len: usize,
) -> Vec<Event> {
    let span = p.span_rows() as isize;
    let mut lo = (p.halo_above + start) as isize - radius as isize;
    let mut hi = (p.halo_above + start + len - 1) as isize + radius as isize;
    if lo < 0 || hi >= span {
        if boundary == Boundary2D::Wrap {
            return chunks.iter().map(|c| c.event.clone()).collect();
        }
        lo = lo.max(0);
        hi = hi.min(span - 1);
    }
    chunks
        .iter()
        .filter(|c| (c.span_start as isize) <= hi && lo < (c.span_start + c.span_len) as isize)
        .map(|c| c.event.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    /// 5-point Laplacian-style sum, radius 1.
    fn cross_sum() -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        let user = UserFn::new(
            "cross_sum",
            "float cross_sum(__global float* in, int r, int c, uint nr, uint nc) {\n\
             return stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
                  + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1)\n\
                  + stencil_at(in,r,c,nr,nc,0,0);\n}",
            |v: &Stencil2DView<'_, f32>| {
                v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0)
            },
        );
        Stencil2D::new(user, 1, Boundary2D::Neumann)
    }

    fn reference_cross_sum(
        data: &[f32],
        rows: usize,
        cols: usize,
        boundary: Boundary2D,
    ) -> Vec<f32> {
        let at = |r: isize, c: isize| -> f32 {
            let (r, c) = match boundary {
                Boundary2D::Neumann => {
                    (r.clamp(0, rows as isize - 1), c.clamp(0, cols as isize - 1))
                }
                Boundary2D::Wrap => (r.rem_euclid(rows as isize), c.rem_euclid(cols as isize)),
                Boundary2D::Zero => {
                    if r < 0 || r >= rows as isize || c < 0 || c >= cols as isize {
                        return 0.0;
                    }
                    (r, c)
                }
            };
            data[r as usize * cols + c as usize]
        };
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                out.push(at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1) + at(r, c));
            }
        }
        out
    }

    fn test_image(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f32 - 50.0)
            .collect()
    }

    #[test]
    fn stencil_on_one_device_matches_reference() {
        let c = ctx(1);
        let (rows, cols) = (13, 9);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let out = cross_sum().apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(
            out,
            reference_cross_sum(&data, rows, cols, Boundary2D::Neumann)
        );
    }

    #[test]
    fn multi_device_output_is_bit_identical_to_single() {
        let (rows, cols) = (23, 11);
        let data = test_image(rows, cols);
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            cross_sum().apply(&m).unwrap().to_vec().unwrap()
        };
        for devices in [2usize, 3, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = cross_sum().apply(&m).unwrap().to_vec().unwrap();
            assert_eq!(got, single, "{devices}-device run must be bit-identical");
        }
    }

    #[test]
    fn all_boundary_modes_match_the_reference() {
        let (rows, cols) = (10, 7);
        let data = test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            let c = ctx(3);
            let user = UserFn::new(
                "csum",
                "float csum(__global float* in, int r, int c, uint nr, uint nc) { /* as cross_sum */ }",
                |v: &Stencil2DView<'_, f32>| {
                    v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0)
                },
            );
            let st = Stencil2D::new(user, 1, boundary);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = st.apply(&m).unwrap().to_vec().unwrap();
            assert_eq!(
                got,
                reference_cross_sum(&data, rows, cols, boundary),
                "{boundary:?}"
            );
        }
    }

    #[test]
    fn narrow_halo_is_widened_automatically() {
        let c = ctx(2);
        let (rows, cols) = (16, 5);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let user = UserFn::new(
            "wide",
            "float wide(__global float* in, int r, int c, uint nr, uint nc) { /* r3 sum */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-3, 0) + v.get(3, 0),
        );
        let st = Stencil2D::new(user, 3, Boundary2D::Zero);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(
            m.distribution(),
            MatrixDistribution::RowBlock { halo: 3 },
            "halo must be widened to the radius"
        );
        let want: Vec<f32> = (0..rows as isize)
            .flat_map(|r| {
                let data = &data;
                (0..cols as isize).map(move |c| {
                    let up = if r >= 3 {
                        data[(r - 3) as usize * cols + c as usize]
                    } else {
                        0.0
                    };
                    let down = if r + 3 < rows as isize {
                        data[(r + 3) as usize * cols + c as usize]
                    } else {
                        0.0
                    };
                    up + down
                })
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn halo_exchange_shows_up_in_transfer_accounting() {
        let c = ctx(4);
        let (rows, cols) = (32, 8);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let st = cross_sum();
        let first = st.apply(&m).unwrap();
        // The second application consumes a device-fresh matrix whose halos
        // were never written: the skeleton must trigger the exchange.
        assert!(!first.halos_fresh());
        let before = c.platform().stats_snapshot();
        let second = st.apply(&first).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(
            delta.d2d_transfers > 0,
            "chained stencil must exchange halos device-to-device"
        );
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert_eq!(delta.d2h_transfers, 0, "no host round trip");
        // And the result is still right.
        let host = m.to_vec().unwrap();
        let once = reference_cross_sum(&host, rows, cols, Boundary2D::Neumann);
        let twice = reference_cross_sum(&once, rows, cols, Boundary2D::Neumann);
        assert_eq!(second.to_vec().unwrap(), twice);
    }

    #[test]
    fn radius_larger_than_a_part_spans_several_parts() {
        // 4 devices × 2 rows per part, radius 3 reaches two parts away.
        let c = ctx(4);
        let (rows, cols) = (8, 3);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 3 })
            .unwrap();
        let user = UserFn::new(
            "far",
            "float far(__global float* in, int r, int c, uint nr, uint nc) { /* +-3 rows */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-3, 0) + v.get(3, 0),
        );
        let st = Stencil2D::new(user, 3, Boundary2D::Wrap);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        let want: Vec<f32> = (0..rows as isize)
            .flat_map(|r| {
                let data = &data;
                (0..cols as isize).map(move |c| {
                    let up = data[(r - 3).rem_euclid(rows as isize) as usize * cols + c as usize];
                    let down = data[(r + 3).rem_euclid(rows as isize) as usize * cols + c as usize];
                    up + down
                })
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_radius_access_is_a_typed_error() {
        let c = ctx(1);
        let user = UserFn::new(
            "bad",
            "float bad(__global float* in, int r, int c, uint nr, uint nc) { /* in[r-2] */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-2, 0),
        );
        let st = Stencil2D::new(user, 1, Boundary2D::Neumann);
        let m = Matrix::from_vec(&c, 4, 4, vec![1.0f32; 16]);
        let err = st.apply(&m).expect_err("launch must fail");
        assert!(err.to_string().contains("exceeds radius"), "{err}");
    }

    #[test]
    fn iterate_matches_chained_applies_bitwise() {
        let (rows, cols) = (17, 9);
        let data = test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            for devices in [1usize, 2, 4] {
                let c = ctx(devices);
                let user = UserFn::new(
                    "csum",
                    "float csum(__global float* in, int r, int c, uint nr, uint nc) { /* cross */ }",
                    |v: &Stencil2DView<'_, f32>| {
                        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0))
                    },
                );
                let st = Stencil2D::new(user, 1, boundary);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                let chained = {
                    let mut cur = st.apply(&m).unwrap();
                    for _ in 1..5 {
                        cur = st.apply(&cur).unwrap();
                    }
                    cur.to_vec().unwrap()
                };
                let m2 = Matrix::from_vec(&c, rows, cols, data.clone());
                let iterated = st.iterate(&m2, 5).unwrap().to_vec().unwrap();
                assert_eq!(
                    iterated.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    chained.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{boundary:?} on {devices} devices"
                );
            }
        }
    }

    #[test]
    fn iterate_zero_is_the_identity() {
        let c = ctx(2);
        let (rows, cols) = (6, 5);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let out = cross_sum().iterate(&m, 0).unwrap();
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn iterate_never_writes_the_input() {
        let c = ctx(3);
        let (rows, cols) = (12, 4);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let _ = cross_sum().iterate(&m, 3).unwrap();
        assert_eq!(m.to_vec().unwrap(), data, "input must be untouched");
    }

    #[test]
    fn iterate_stays_on_the_devices() {
        let c = ctx(4);
        let (rows, cols) = (32, 8);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = cross_sum().iterate(&m, 8).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert_eq!(delta.d2h_transfers, 0, "no host round trip");
        assert!(delta.d2d_transfers > 0, "halo exchange crosses devices");
        // Still correct after the ping-pong.
        let mut want = m.to_vec().unwrap();
        for _ in 0..8 {
            want = reference_cross_sum(&want, rows, cols, Boundary2D::Neumann);
        }
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn iterate_widens_a_narrow_halo_like_apply() {
        let c = ctx(2);
        let (rows, cols) = (10, 3);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let out = cross_sum().iterate(&m, 2).unwrap();
        assert_eq!(
            m.distribution(),
            MatrixDistribution::RowBlock { halo: 1 },
            "halo must be widened to the radius"
        );
        let mut want = m.to_vec().unwrap();
        for _ in 0..2 {
            want = reference_cross_sum(&want, rows, cols, Boundary2D::Neumann);
        }
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn wrap_free_single_part_iterate_counts_no_exchanges() {
        // One part owning all rows: its halo rows are all wrapped edge
        // rows, which a Neumann stencil never reads — so the per-round
        // exchange refreshes nothing and must not count as an event.
        let c = ctx(1);
        let m = Matrix::from_vec(&c, 12, 5, test_image(12, 5));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let before = c.halo_exchange_count();
        cross_sum().iterate(&m, 5).unwrap();
        assert_eq!(c.halo_exchange_count(), before);
    }

    #[test]
    fn iterate_reuses_one_cached_kernel_for_all_rounds() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 16, 8, test_image(16, 8));
        let st = cross_sum();
        st.iterate(&m, 6).unwrap();
        let built = c.programs_built();
        st.iterate(&m, 6).unwrap();
        assert_eq!(c.programs_built(), built, "no rebuild on a second run");
    }

    #[test]
    fn boundary_modes_produce_distinct_programs() {
        let mk = |b: Boundary2D| {
            let user = UserFn::new(
                "f",
                "float f(__global float* in, int r, int c, uint nr, uint nc) { return 0.0f; }",
                |v: &Stencil2DView<'_, f32>| v.get(0, 0),
            );
            Stencil2D::new(user, 1, b).program().hash()
        };
        let n = mk(Boundary2D::Neumann);
        let w = mk(Boundary2D::Wrap);
        let z = mk(Boundary2D::Zero);
        assert_ne!(n, w);
        assert_ne!(w, z);
        assert_ne!(n, z);
    }
}
