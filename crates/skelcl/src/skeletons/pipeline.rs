//! Lazy skeleton pipelines with kernel fusion.
//!
//! A [`Pipeline`] is an expression template over skeleton calls: `map`,
//! `zip_with`, `stencil` and `stencil_pair` stages compose into a value
//! that *defers* execution. Running the pipeline partitions the stages
//! into **fused groups** — each group is one kernel launch — instead of
//! one launch (and one intermediate [`Matrix`]) per stage:
//!
//! * Element-wise stages (`map` / `zip_with`) never launch on their own.
//!   A chain *before* a stencil fuses into the stencil's neighbourhood
//!   reads; a chain *after* a stencil (or between two stencils) fuses
//!   into the earlier stencil's writes, so each fused value is computed
//!   once per element. An all-element-wise pipeline collapses into a
//!   single fused map kernel; an empty pipeline launches nothing.
//! * Each `stencil` / `stencil_pair` stage anchors one group: radius-wide
//!   neighbourhood reads force materialized input rows (with coherent
//!   halos), exactly as in [`Stencil2D`](crate::Stencil2D). A group whose
//!   input halos are stale refreshes them with one lock-step halo exchange
//!   (a planned copy list, rounds of disjoint device pairs) and counts it.
//!   A part whose incoming halo copies are still in flight when it
//!   launches splits like `Stencil2D::iterate`: its interior runs under
//!   the copies, its boundary bands wait for them.
//! * The terminal decides the output: [`PipelineExpr::run`] writes a
//!   [`Matrix`]; [`PipelineExpr::reduce_rows`] fuses the pending
//!   element-wise chain into the ascending-column row fold of
//!   [`ReduceRows`](crate::ReduceRows) and writes a [`Vector`].
//!
//! The planner is the only way a 2D element-wise or stencil kernel is
//! generated and launched: `Map::apply_matrix`, `Zip::apply_matrix` and
//! [`Stencil2D::apply`](crate::Stencil2D::apply) are one-stage pipelines,
//! and `Stencil2D::apply_streamed` / `iterate` launch through the same
//! [`StencilLauncher`] with their own schedules. Programs come from one
//! `codegen` builder per kernel shape and are cached in the context's
//! program registry like any other program.
//! Stencil stages see their neighbourhood through
//! [`Stencil2DView`](crate::Stencil2DView), the same view a lone
//! `Stencil2D` call hands its user function.
//!
//! The technique follows the expression-template fusion of Demidov et al.
//! ("Programming CUDA and OpenCL: A Case Study Using Modern C++
//! Libraries"): composition happens in the type system, so every fused
//! kernel body is fully monomorphized except for one dynamic read closure
//! inside stencil neighbourhood access.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::codegen::{self, FusedStage, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{exchange_part_halos, CopyOrder, Matrix, MatrixDistribution, MatrixPart};
use crate::meter;
use crate::skeletons::stencil2d::{
    alloc_mirror_parts, ensure_stencil_layout, stale_free, Boundary2D, Stencil2DView,
};
use crate::skeletons::{alloc_matching_matrix_parts, linear_range, range_2d};
use crate::vector::{Distribution, Vector};
use vgpu::{After, CompiledKernel, Event, Item, KernelBody, Scalar as Element};

/// The `+`-joined stage names of a fused group (span attribute and part of
/// the generated program's cache key).
fn chain_label(stages: &[FusedStage]) -> String {
    stages
        .iter()
        .map(|s| s.name.as_str())
        .collect::<Vec<_>>()
        .join("+")
}

/// Reuse a part set as a different element type when the types are in fact
/// the same (`J == I`). The pipeline calls this only for stage-free
/// chains, where the op chain is an identity composition and therefore
/// type-preserving by construction.
fn same_element_parts<J: Element, I: Element>(
    parts: Vec<MatrixPart<J>>,
) -> Option<Vec<MatrixPart<I>>> {
    let mut slot = Some(parts);
    (&mut slot as &mut dyn Any)
        .downcast_mut::<Option<Vec<MatrixPart<I>>>>()
        .and_then(Option::take)
}

/// Context and shape shared by every plan in a pipeline execution.
#[derive(Clone)]
pub struct PlanGeom {
    pub(crate) ctx: Context,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) dist: MatrixDistribution,
}

// ---------------------------------------------------------------------------
// Fused per-pixel operations.
// ---------------------------------------------------------------------------

/// A fused element-wise transformation applied between a raw buffer access
/// and a kernel's compute or write site. Ops compose statically through
/// [`OpSeq`], so a whole `map`/`zip_with` chain monomorphizes into one
/// nested call. `part`/`span_row`/`col` address the element for stages
/// (zip) that read side operands of their own.
pub trait PixelOp<I: Element, O: Element>: Send + Sync + Clone + 'static {
    fn apply(&self, it: &Item<'_>, part: usize, span_row: usize, col: usize, x: I) -> O;
}

/// The identity op: seeds every chain and stands in for "no post stages".
pub struct OpId<T>(PhantomData<fn(T) -> T>);

impl<T> OpId<T> {
    pub(crate) fn new() -> Self {
        OpId(PhantomData)
    }
}

impl<T> Clone for OpId<T> {
    fn clone(&self) -> Self {
        OpId(PhantomData)
    }
}

impl<T: Element> PixelOp<T, T> for OpId<T> {
    #[inline]
    fn apply(&self, _it: &Item<'_>, _part: usize, _sr: usize, _col: usize, x: T) -> T {
        x
    }
}

/// One fused `map` stage.
#[derive(Clone)]
pub struct OpMap<F, M, O> {
    f: F,
    _pd: PhantomData<fn(M) -> O>,
}

impl<M, O, F> PixelOp<M, O> for OpMap<F, M, O>
where
    M: Element,
    O: Element,
    F: Fn(M) -> O + Send + Sync + Clone + 'static,
{
    #[inline]
    fn apply(&self, _it: &Item<'_>, _part: usize, _sr: usize, _col: usize, x: M) -> O {
        (self.f)(x)
    }
}

/// One fused `zip_with` stage: combines the chained value with the
/// matching element of a side operand's device part (a counted read, so
/// fused zips still charge their global traffic).
#[derive(Clone)]
pub struct OpZip<F, B: Element, M, O> {
    parts: Arc<Vec<MatrixPart<B>>>,
    f: F,
    _pd: PhantomData<fn(M, B) -> O>,
}

impl<B, M, O, F> PixelOp<M, O> for OpZip<F, B, M, O>
where
    B: Element,
    M: Element,
    O: Element,
    F: Fn(M, B) -> O + Send + Sync + Clone + 'static,
{
    #[inline]
    fn apply(&self, it: &Item<'_>, part: usize, sr: usize, col: usize, x: M) -> O {
        let p = &self.parts[part];
        (self.f)(x, it.read(&p.buffer, sr * p.cols + col))
    }
}

/// Static composition: `b(a(x))`.
#[derive(Clone)]
pub struct OpSeq<A, B, M> {
    a: A,
    b: B,
    _pd: PhantomData<fn(M)>,
}

impl<I, M, O, A, B> PixelOp<I, O> for OpSeq<A, B, M>
where
    I: Element,
    M: Element,
    O: Element,
    A: PixelOp<I, M>,
    B: PixelOp<M, O>,
{
    #[inline]
    fn apply(&self, it: &Item<'_>, part: usize, sr: usize, col: usize, x: I) -> O {
        let m = self.a.apply(it, part, sr, col, x);
        self.b.apply(it, part, sr, col, m)
    }
}

// ---------------------------------------------------------------------------
// Plans: the runtime state threaded through a pipeline execution.
// ---------------------------------------------------------------------------

/// A *settled* plan: materialized device parts of element type `J` plus a
/// pending element-wise op chain `J -> I` that has not launched yet. Every
/// pipeline execution starts from one of these ([`PipelineExpr::feed`]'s
/// source) and every stencil group produces a fresh one.
pub struct ElemPlan<J: Element, Op, I: Element> {
    geom: PlanGeom,
    parts: Vec<MatrixPart<J>>,
    halos_fresh: bool,
    op: Op,
    stages: Vec<FusedStage>,
    _pd: PhantomData<fn(J) -> I>,
}

/// A plan that yields elements of type `I` when the pipeline runs.
///
/// `settle_with(g, gstages, gfresh)` resolves the plan against a *suffix*
/// op `g` (the stages stacked after it; `gfresh` says whether the halo
/// rows of every side operand `g` reads are coherent): chains with an
/// unlaunched stencil group launch it — folding `g` into that kernel's
/// writes — and return bare parts; pure element-wise chains stay pending
/// (they fuse into whichever kernel consumes them next, halo rows
/// included, so `gfresh` joins the plan's halo freshness). The two cases
/// return different `ElemPlan` instantiations, which the generic
/// associated types encode statically.
pub trait ReadPlan<I: Element>: Sized {
    type Base<V: Element, G: PixelOp<I, V>>: Element;
    type Op<V: Element, G: PixelOp<I, V>>: PixelOp<Self::Base<V, G>, V>;

    /// Does the plan hold an unlaunched stencil group? Stages stacked on
    /// it then fuse into that group's writes (owned rows only).
    const PENDING_STENCIL: bool;

    #[allow(clippy::type_complexity)]
    fn settle_with<V: Element, G: PixelOp<I, V>>(
        self,
        g: G,
        gstages: Vec<FusedStage>,
        gfresh: bool,
    ) -> Result<ElemPlan<Self::Base<V, G>, Self::Op<V, G>, V>>;

    fn geom(&self) -> &PlanGeom;
}

impl<J, Op, I> ReadPlan<I> for ElemPlan<J, Op, I>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    type Base<V: Element, G: PixelOp<I, V>> = J;
    type Op<V: Element, G: PixelOp<I, V>> = OpSeq<Op, G, I>;

    const PENDING_STENCIL: bool = false;

    fn settle_with<V: Element, G: PixelOp<I, V>>(
        mut self,
        g: G,
        gstages: Vec<FusedStage>,
        gfresh: bool,
    ) -> Result<ElemPlan<J, OpSeq<Op, G, I>, V>> {
        self.stages.extend(gstages);
        Ok(ElemPlan {
            geom: self.geom,
            parts: self.parts,
            halos_fresh: self.halos_fresh && gfresh,
            op: OpSeq {
                a: self.op,
                b: g,
                _pd: PhantomData,
            },
            stages: self.stages,
            _pd: PhantomData,
        })
    }

    fn geom(&self) -> &PlanGeom {
        &self.geom
    }
}

/// A pending `map` stage over an inner plan.
pub struct Mapped<P, F, M: Element, V: Element> {
    inner: P,
    f: F,
    stage: FusedStage,
    _pd: PhantomData<fn(M) -> V>,
}

impl<P, F, M, V> ReadPlan<V> for Mapped<P, F, M, V>
where
    P: ReadPlan<M>,
    M: Element,
    V: Element,
    F: Fn(M) -> V + Send + Sync + Clone + 'static,
{
    type Base<W: Element, G: PixelOp<V, W>> = P::Base<W, OpSeq<OpMap<F, M, V>, G, V>>;
    type Op<W: Element, G: PixelOp<V, W>> = P::Op<W, OpSeq<OpMap<F, M, V>, G, V>>;

    const PENDING_STENCIL: bool = P::PENDING_STENCIL;

    fn settle_with<W: Element, G: PixelOp<V, W>>(
        self,
        g: G,
        mut gstages: Vec<FusedStage>,
        gfresh: bool,
    ) -> Result<ElemPlan<Self::Base<W, G>, Self::Op<W, G>, W>> {
        let mut stages = vec![self.stage];
        stages.append(&mut gstages);
        self.inner.settle_with(
            OpSeq {
                a: OpMap {
                    f: self.f,
                    _pd: PhantomData,
                },
                b: g,
                _pd: PhantomData,
            },
            stages,
            gfresh,
        )
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

/// A pending `zip_with` stage over an inner plan.
pub struct Zipped<P, F, B: Element, M: Element, V: Element> {
    inner: P,
    parts: Arc<Vec<MatrixPart<B>>>,
    /// Are the operand parts' halo rows coherent?
    fresh: bool,
    f: F,
    stage: FusedStage,
    _pd: PhantomData<fn(M, B) -> V>,
}

impl<P, F, B, M, V> ReadPlan<V> for Zipped<P, F, B, M, V>
where
    P: ReadPlan<M>,
    B: Element,
    M: Element,
    V: Element,
    F: Fn(M, B) -> V + Send + Sync + Clone + 'static,
{
    type Base<W: Element, G: PixelOp<V, W>> = P::Base<W, OpSeq<OpZip<F, B, M, V>, G, V>>;
    type Op<W: Element, G: PixelOp<V, W>> = P::Op<W, OpSeq<OpZip<F, B, M, V>, G, V>>;

    const PENDING_STENCIL: bool = P::PENDING_STENCIL;

    fn settle_with<W: Element, G: PixelOp<V, W>>(
        self,
        g: G,
        mut gstages: Vec<FusedStage>,
        gfresh: bool,
    ) -> Result<ElemPlan<Self::Base<W, G>, Self::Op<W, G>, W>> {
        let mut stages = vec![self.stage];
        stages.append(&mut gstages);
        self.inner.settle_with(
            OpSeq {
                a: OpZip {
                    parts: self.parts,
                    f: self.f,
                    _pd: PhantomData,
                },
                b: g,
                _pd: PhantomData,
            },
            stages,
            gfresh && self.fresh,
        )
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

/// An unlaunched stencil group over an inner plan. Settling it launches
/// one fused kernel per part: the inner chain's pending element-wise
/// stages run inside the neighbourhood reads, the suffix op runs at the
/// write site, and the output starts a fresh stage-free [`ElemPlan`].
pub struct LazyStencil<P, E, A: Element, I: Element> {
    inner: P,
    eval: E,
    stage: FusedStage,
    radius: usize,
    boundary: Boundary2D,
    _pd: PhantomData<fn(A) -> I>,
}

impl<P, E, A, I> ReadPlan<I> for LazyStencil<P, E, A, I>
where
    P: ReadPlan<A>,
    A: Element,
    I: Element,
    E: for<'v> Fn(&Stencil2DView<'v, A>) -> I + Send + Sync + Clone + 'static,
{
    type Base<V: Element, G: PixelOp<I, V>> = V;
    type Op<V: Element, G: PixelOp<I, V>> = OpId<V>;

    const PENDING_STENCIL: bool = true;

    /// `g` runs at the write site, on owned rows only, so its operands'
    /// halo rows are never read (`_gfresh` is moot).
    fn settle_with<V: Element, G: PixelOp<I, V>>(
        self,
        g: G,
        gstages: Vec<FusedStage>,
        _gfresh: bool,
    ) -> Result<ElemPlan<V, OpId<V>, V>> {
        // Settle everything beneath first: a deeper stencil group launches
        // with its own post chain fused; element-wise stages directly
        // beneath this stencil stay pending and fuse into its reads.
        let pre = self.inner.settle_with(OpId::new(), Vec::new(), true)?;
        launch_stencil_group(
            pre,
            self.eval,
            self.stage,
            self.radius,
            self.boundary,
            g,
            gstages,
        )
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

// ---------------------------------------------------------------------------
// The stencil launcher.
// ---------------------------------------------------------------------------

/// The planner's stencil launcher: one stencil kernel shape bound to its
/// user functions — `pre` runs on every neighbourhood read, `eval` at the
/// centre, `post` on the result before the single write — plus the
/// compiled program and the `rows × cols` matrix it launches over.
/// Pipeline stencil groups, `Stencil2D::apply_streamed` and every round of
/// `Stencil2D::iterate` launch through it.
pub(crate) struct StencilLauncher<Pre, E, Post, A, I> {
    ctx: Context,
    compiled: CompiledKernel,
    pre: Pre,
    eval: E,
    post: Post,
    radius: usize,
    boundary: Boundary2D,
    /// Summed static cost of every stage in the kernel.
    static_ops: u64,
    rows: usize,
    cols: usize,
    _pd: PhantomData<fn(A) -> I>,
}

impl<E, A: Element, I: Element> StencilLauncher<OpId<A>, E, OpId<I>, A, I> {
    /// The launcher of a lone stencil stage: nothing fused into its reads
    /// or its write.
    pub(crate) fn single(
        ctx: &Context,
        compiled: CompiledKernel,
        user: &UserFn<E>,
        radius: usize,
        boundary: Boundary2D,
        rows: usize,
        cols: usize,
    ) -> Self
    where
        E: Clone,
    {
        StencilLauncher {
            ctx: ctx.clone(),
            compiled,
            pre: OpId::new(),
            eval: user.func().clone(),
            post: OpId::new(),
            radius,
            boundary,
            static_ops: user.static_ops(),
            rows,
            cols,
            _pd: PhantomData,
        }
    }
}

impl<Pre, E, Post, A, I> StencilLauncher<Pre, E, Post, A, I>
where
    A: Element,
    I: Element,
    E: for<'v> Fn(&Stencil2DView<'v, A>) -> I + Send + Sync + Clone + 'static,
{
    /// Launch one stencil pass of part `pi` over `segments` of its owned
    /// rows: each `(start, len)` names owned rows `[start, start + len)`,
    /// and the launch covers their disjoint union in one kernel (the
    /// interior / boundary split of the overlapped iterate packs the top
    /// and bottom bands into a single launch this way). `src` is read with
    /// its halo rows assumed coherent for the rows the segments read; the
    /// same owned rows of `dst` are written. Halo rows of `dst` are never
    /// written, so they go stale.
    ///
    /// `after` is the launch's dependency policy on the main queue:
    /// [`After::Device`] serializes against the whole device, while
    /// [`After::Events`] orders the kernel only by the queue, the events,
    /// and the compute engine. Returns the launch event (`None` when the
    /// segments are empty). Either way every covered element computes the
    /// exact same value — the split changes the modeled timeline, never
    /// the data.
    pub(crate) fn launch<J: Element, V: Element>(
        &self,
        pi: usize,
        src: &MatrixPart<J>,
        dst: &MatrixPart<V>,
        segments: &[(usize, usize)],
        after: After<'_>,
    ) -> Result<Option<Event>>
    where
        Pre: PixelOp<J, A>,
        Post: PixelOp<I, V>,
    {
        let launch_rows: usize = segments.iter().map(|&(_, len)| len).sum();
        let (rows, cols) = (self.rows, self.cols);
        if launch_rows == 0 || cols == 0 {
            return Ok(None);
        }
        let (radius, boundary, static_ops) = (self.radius, self.boundary, self.static_ops);
        let (pre, eval, post) = (self.pre.clone(), self.eval.clone(), self.post.clone());
        let src_buf = src.buffer.clone();
        let dst_buf = dst.buffer.clone();
        let halo_above = src.halo_above;
        let row_offset = src.row_offset;
        let span_rows = src.span_rows();
        let segs: Arc<[(usize, usize)]> = segments.into();
        let body: KernelBody = Arc::new(move |wg| {
            wg.for_each_item(|it| {
                if !it.in_bounds() {
                    return;
                }
                let col = it.global_id(0);
                // Map the compact launch row back to its owned row through
                // the segment list (at most two segments).
                let mut launch_row = it.global_id(1);
                let mut local_row = 0;
                for &(start, len) in segs.iter() {
                    if launch_row < len {
                        local_row = start + launch_row;
                        break;
                    }
                    launch_row -= len;
                }
                let span_row = halo_above + local_row;
                let read = |sr: usize, c: usize| -> A {
                    let raw = it.read(&src_buf, sr * cols + c);
                    pre.apply(it, pi, sr, c, raw)
                };
                let view = Stencil2DView {
                    read: &read,
                    cols,
                    n_rows: rows,
                    span_row,
                    span_rows,
                    g_row: row_offset + local_row,
                    col,
                    radius,
                    boundary,
                };
                let (y, dyn_ops) = meter::metered(|| {
                    let v = eval(&view);
                    post.apply(it, pi, span_row, col, v)
                });
                it.write(&dst_buf, span_row * cols + col, y);
                it.work(static_ops + dyn_ops);
            });
        });
        let kernel = self.compiled.with_body(body);
        let nd = range_2d(&self.ctx, cols, launch_rows);
        Ok(Some(self.ctx.queue(src.device).launch(&kernel, nd, after)?))
    }

    /// Launch part `pi` in two pieces while its halo rows are still
    /// arriving: first the **interior** — owned rows more than a boundary
    /// band away from the part's edges, which read no halo row — under
    /// `interior`, so it runs while the halo copies are in flight; then the
    /// top and bottom bands as one launch under `boundary` (the copies that
    /// fill the halos, plus whatever else the part waits for). The band
    /// covers both the rows that read the halos (`radius`) and the rows
    /// the neighbours' halos copy out of this part (`halo`). A part with no
    /// interior launches whole under `boundary`. Returns the last launch's
    /// event: enqueued last on the in-order queue, it fences the whole part.
    pub(crate) fn launch_split<J: Element, V: Element>(
        &self,
        pi: usize,
        src: &MatrixPart<J>,
        dst: &MatrixPart<V>,
        interior: &[Event],
        boundary: &[Event],
    ) -> Result<Option<Event>>
    where
        Pre: PixelOp<J, A>,
        Post: PixelOp<I, V>,
    {
        let rows = src.rows;
        let band = self
            .radius
            .max(src.halo_above)
            .max(src.halo_below)
            .min(rows);
        if 2 * band >= rows {
            return self.launch(pi, src, dst, &[(0, rows)], After::Events(boundary));
        }
        self.launch(
            pi,
            src,
            dst,
            &[(band, rows - 2 * band)],
            After::Events(interior),
        )?;
        self.launch(
            pi,
            src,
            dst,
            &[(0, band), (rows - band, band)],
            After::Events(boundary),
        )
    }
}

// ---------------------------------------------------------------------------
// Fused launches.
// ---------------------------------------------------------------------------

/// Launch one fused stencil group: per part, one kernel whose neighbourhood
/// reads run `pre`'s pending chain, whose centre runs `eval`, and whose
/// single write runs `post_op` — or, while the part's halo copies are
/// still in flight, an interior and a boundary launch of that kernel
/// ([`StencilLauncher::launch_split`]). Owned rows only — halo rows of the
/// output go stale exactly as for `Stencil2D`.
fn launch_stencil_group<J, OpPre, A, E, I, V, G>(
    pre: ElemPlan<J, OpPre, A>,
    eval: E,
    stage: FusedStage,
    radius: usize,
    boundary: Boundary2D,
    post_op: G,
    post_stages: Vec<FusedStage>,
) -> Result<ElemPlan<V, OpId<V>, V>>
where
    J: Element,
    A: Element,
    I: Element,
    V: Element,
    OpPre: PixelOp<J, A>,
    E: for<'v> Fn(&Stencil2DView<'v, A>) -> I + Send + Sync + Clone + 'static,
    G: PixelOp<I, V>,
{
    let ElemPlan {
        geom,
        parts,
        halos_fresh,
        op: pre_op,
        stages: pre_stages,
        ..
    } = pre;
    let ctx = geom.ctx.clone();
    let (rows, cols) = (geom.rows, geom.cols);

    let mut all_stages = pre_stages;
    all_stages.push(stage);
    all_stages.extend(post_stages);

    let mut span = ctx.span("pipeline.group");
    span.attr("kind", "stencil2d");
    span.attr("stages", chain_label(&all_stages));
    span.attr("radius", radius.to_string());
    span.attr("devices", ctx.n_devices().to_string());

    // The outputs are allocated before the exchange's bookkeeping, so that
    // the host allocator does not place it between the input and output
    // part buffers (measured: +1 MiB of peak RSS on a 1024² image).
    let out_parts: Vec<MatrixPart<V>> = alloc_mirror_parts(&ctx, &parts, cols)?;
    // Halo coherence before reading beyond owned rows: one lock-step
    // exchange (wrapped runs only refresh under Wrap, as in Stencil2D).
    let skip_wrapped = boundary != Boundary2D::Wrap;
    let halos = (!halos_fresh)
        .then(|| exchange_part_halos(&ctx, &parts, rows, cols, skip_wrapped, CopyOrder::Rounds))
        .transpose()?;

    let program = codegen::stencil2d_program(
        &all_stages,
        J::TYPE_NAME,
        V::TYPE_NAME,
        radius,
        boundary.codegen_name(),
    );
    let compiled = ctx.get_or_build(&program)?;
    let launcher = StencilLauncher {
        ctx: ctx.clone(),
        compiled,
        pre: pre_op,
        eval,
        post: post_op,
        radius,
        boundary,
        static_ops: all_stages.iter().map(|s| s.static_ops).sum(),
        rows,
        cols,
        _pd: PhantomData,
    };
    for (pi, (ip, op_part)) in parts.iter().zip(&out_parts).enumerate() {
        // A part whose incoming halo copies are still in flight at launch
        // (the status `clGetEventInfo` would report) splits: its interior
        // runs under the copies, ordered on the device's join marker. If
        // they have landed — say behind a program build — there is nothing
        // to hide, and the part launches whole.
        let in_flight = halos
            .as_ref()
            .filter(|h| h.into_part[pi].iter().any(|e| e.end_s > ctx.host_now_s()));
        if let Some(h) = in_flight {
            let join = h.markers[ip.device].clone();
            let join = join.expect("a device receiving halo copies was joined");
            launcher.launch_split(pi, ip, op_part, &[join], &h.into_part[pi])?;
        } else {
            launcher.launch(pi, ip, op_part, &[(0, ip.rows)], After::Device)?;
        }
    }
    ctx.metrics().counter("skelcl.pipeline.groups").inc();
    ctx.metrics()
        .counter("skelcl.pipeline.stages_fused")
        .add(all_stages.len() as u64);

    let fresh = stale_free(&out_parts);
    Ok(ElemPlan {
        geom,
        parts: out_parts,
        halos_fresh: fresh,
        op: OpId::new(),
        stages: Vec::new(),
        _pd: PhantomData,
    })
}

/// The result of settling and materializing a whole pipeline: output parts
/// ready to wrap as a [`Matrix`].
pub struct FinishedParts<I: Element> {
    geom: PlanGeom,
    parts: Vec<MatrixPart<I>>,
    halos_fresh: bool,
}

impl<J, Op, I> ElemPlan<J, Op, I>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    /// Materialize the pending element-wise chain: one fused map launch
    /// over **all** span rows per part (halo rows are computed locally, so
    /// halo freshness passes through, as for `Map::apply_matrix`). A
    /// stage-free chain launches nothing — the output shares the input's
    /// device buffers, which skeletons never mutate.
    fn finish(self) -> Result<FinishedParts<I>> {
        if self.stages.is_empty() {
            let parts = same_element_parts::<J, I>(self.parts)
                .expect("a stage-free pipeline chain preserves the element type");
            return Ok(FinishedParts {
                geom: self.geom,
                parts,
                halos_fresh: self.halos_fresh,
            });
        }
        let ctx = self.geom.ctx.clone();
        let mut span = ctx.span("pipeline.group");
        span.attr("kind", "map2d");
        span.attr("stages", chain_label(&self.stages));
        span.attr("devices", ctx.n_devices().to_string());

        let program = codegen::map2d_program(&self.stages, J::TYPE_NAME, I::TYPE_NAME);
        let compiled = ctx.get_or_build(&program)?;
        let out_parts: Vec<MatrixPart<I>> = alloc_matching_matrix_parts(&ctx, &self.parts)?;
        let static_ops: u64 = self.stages.iter().map(|s| s.static_ops).sum();

        for (pi, (ip, op_part)) in self.parts.iter().zip(&out_parts).enumerate() {
            let launch_rows = ip.span_rows();
            let stride = ip.cols;
            if launch_rows == 0 || stride == 0 {
                continue;
            }
            let src = ip.buffer.clone();
            let dst = op_part.buffer.clone();
            let op = self.op.clone();
            let body: KernelBody = Arc::new(move |wg| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let col = it.global_id(0);
                    let sr = it.global_id(1);
                    let idx = sr * stride + col;
                    let x = it.read(&src, idx);
                    let (y, dyn_ops) = meter::metered(|| op.apply(it, pi, sr, col, x));
                    it.write(&dst, idx, y);
                    it.work(static_ops + dyn_ops);
                });
            });
            ctx.queue(ip.device).launch(
                &compiled.with_body(body),
                range_2d(&ctx, stride, launch_rows),
                After::Device,
            )?;
        }
        ctx.metrics().counter("skelcl.pipeline.groups").inc();
        ctx.metrics()
            .counter("skelcl.pipeline.stages_fused")
            .add(self.stages.len() as u64);
        Ok(FinishedParts {
            geom: self.geom,
            parts: out_parts,
            halos_fresh: self.halos_fresh,
        })
    }

    /// Fuse the pending chain into a row reduction: per owned row, an
    /// ascending-column left fold from `identity` — the exact fold order
    /// of [`ReduceRows`](crate::ReduceRows), so the fused result is
    /// bit-identical to materializing and then reducing.
    fn reduce_rows<F>(self, reduce: &UserFn<F>, identity: I) -> Result<Vector<I>>
    where
        F: Fn(I, I) -> I + Send + Sync + Clone + 'static,
    {
        let ctx = self.geom.ctx.clone();
        let (rows, cols) = (self.geom.rows, self.geom.cols);
        let mut span = ctx.span("pipeline.group");
        span.attr("kind", "reduce_rows");
        span.attr(
            "stages",
            if self.stages.is_empty() {
                reduce.name().to_string()
            } else {
                format!("{}+{}", chain_label(&self.stages), reduce.name())
            },
        );
        span.attr("devices", ctx.n_devices().to_string());

        let program = codegen::map_reduce_rows_program(
            &self.stages,
            reduce.name(),
            reduce.source(),
            J::TYPE_NAME,
            I::TYPE_NAME,
        );
        let compiled = ctx.get_or_build(&program)?;
        let chain_ops: u64 = self.stages.iter().map(|s| s.static_ops).sum();
        let static_ops = chain_ops + reduce.static_ops();

        // Under a row-based distribution every owned row folds in place
        // and the per-part partials concatenate (same dispatch as
        // ReduceRows); otherwise the first full part folds everything.
        let concat = matches!(self.geom.dist, MatrixDistribution::RowBlock { .. });
        let fold_parts: Vec<(usize, &MatrixPart<J>)> = if concat {
            self.parts.iter().enumerate().collect()
        } else {
            self.parts.iter().enumerate().take(1).collect()
        };

        let mut out_parts = Vec::with_capacity(fold_parts.len());
        for &(pi, p) in &fold_parts {
            let fold_rows = p.rows;
            let buffer = ctx.device(p.device).alloc::<I>(fold_rows)?;
            if fold_rows > 0 && cols > 0 {
                let src = p.buffer.clone();
                let dst = buffer.clone();
                let op = self.op.clone();
                let red = reduce.func().clone();
                let halo_above = p.halo_above;
                let body: KernelBody = Arc::new(move |wg| {
                    wg.for_each_item(|it| {
                        if !it.in_bounds() {
                            return;
                        }
                        let r = it.global_id(0);
                        let sr = halo_above + r;
                        let (acc, dyn_ops) = meter::metered(|| {
                            let mut acc = identity;
                            for c in 0..cols {
                                let x = it.read(&src, sr * cols + c);
                                acc = red(acc, op.apply(it, pi, sr, c, x));
                            }
                            acc
                        });
                        it.write(&dst, r, acc);
                        it.work(cols as u64 * static_ops + dyn_ops);
                    });
                });
                ctx.queue(p.device).launch(
                    &compiled.with_body(body),
                    linear_range(&ctx, fold_rows),
                    After::Device,
                )?;
            }
            out_parts.push(MatrixPart::column(
                p.device,
                p.row_offset,
                fold_rows,
                buffer,
            ));
        }
        ctx.metrics().counter("skelcl.pipeline.groups").inc();
        ctx.metrics()
            .counter("skelcl.pipeline.stages_fused")
            .add(self.stages.len() as u64 + 1);

        Ok(if concat {
            Vector::from_device_parts(&ctx, rows, Distribution::Block, out_parts)
        } else {
            let p = out_parts.remove(0);
            Vector::from_device_parts(&ctx, rows, Distribution::Single(p.device), vec![p])
        })
    }
}

// ---------------------------------------------------------------------------
// Consumers: continuation-passing composition of stages into plans.
// ---------------------------------------------------------------------------

/// A continuation receiving a plan for elements of type `I`. Combinators
/// thread these through [`PipelineExpr::feed`] so each stage wraps the
/// plan (or launches a group) in evaluation order without any type
/// erasure.
pub trait PipeConsumer<I: Element> {
    type Output;

    /// Does a stencil stage read this consumer's input at halo rows (the
    /// pending element-wise chain fuses into its neighbourhood reads)?
    const HALO_READ: bool;

    fn consume<P: ReadPlan<I>>(self, plan: P) -> Result<Self::Output>;
}

pub struct MapConsumer<F, M, V, C> {
    f: F,
    stage: FusedStage,
    next: C,
    _pd: PhantomData<fn(M) -> V>,
}

impl<M, V, F, C> PipeConsumer<M> for MapConsumer<F, M, V, C>
where
    M: Element,
    V: Element,
    F: Fn(M) -> V + Send + Sync + Clone + 'static,
    C: PipeConsumer<V>,
{
    type Output = C::Output;

    const HALO_READ: bool = C::HALO_READ;

    fn consume<P: ReadPlan<M>>(self, plan: P) -> Result<C::Output> {
        self.next.consume(Mapped {
            inner: plan,
            f: self.f,
            stage: self.stage,
            _pd: PhantomData,
        })
    }
}

pub struct ZipConsumer<B: Element, F, M, V, C> {
    other: Matrix<B>,
    f: F,
    stage: FusedStage,
    next: C,
    _pd: PhantomData<fn(M, B) -> V>,
}

impl<B, M, V, F, C> PipeConsumer<M> for ZipConsumer<B, F, M, V, C>
where
    B: Element,
    M: Element,
    V: Element,
    F: Fn(M, B) -> V + Send + Sync + Clone + 'static,
    C: PipeConsumer<V>,
{
    type Output = C::Output;

    const HALO_READ: bool = C::HALO_READ;

    fn consume<P: ReadPlan<M>>(self, plan: P) -> Result<C::Output> {
        let geom = plan.geom().clone();
        if self.other.dims() != (geom.rows, geom.cols) {
            return Err(Error::ShapeMismatch {
                left: (geom.rows, geom.cols),
                right: self.other.dims(),
            });
        }
        // The operand adopts the pipeline's layout: partitioning is a
        // deterministic function of (distribution, dims, context), so its
        // parts then mirror the chain's part geometry index for index.
        if self.other.distribution() != geom.dist {
            self.other.set_distribution(geom.dist)?;
        }
        // The operand's halo rows are read only when a stencil reads
        // through this zip; a zip folded into a stencil's writes or a row
        // fold reads owned rows, and a materialized element-wise chain
        // passes the operand's halo freshness on to its output.
        let (parts, fresh) = if C::HALO_READ && !P::PENDING_STENCIL {
            (self.other.parts_with_fresh_halos()?, true)
        } else {
            let parts = self.other.parts()?;
            (parts, self.other.halos_fresh())
        };
        self.next.consume(Zipped {
            inner: plan,
            parts: Arc::new(parts),
            fresh,
            f: self.f,
            stage: self.stage,
            _pd: PhantomData,
        })
    }
}

pub struct StencilConsumer<E, A, I, C> {
    eval: E,
    stage: FusedStage,
    radius: usize,
    boundary: Boundary2D,
    next: C,
    _pd: PhantomData<fn(A) -> I>,
}

impl<A, I, E, C> PipeConsumer<A> for StencilConsumer<E, A, I, C>
where
    A: Element,
    I: Element,
    E: for<'v> Fn(&Stencil2DView<'v, A>) -> I + Send + Sync + Clone + 'static,
    C: PipeConsumer<I>,
{
    type Output = C::Output;

    const HALO_READ: bool = true;

    fn consume<P: ReadPlan<A>>(self, plan: P) -> Result<C::Output> {
        self.next.consume(LazyStencil {
            inner: plan,
            eval: self.eval,
            stage: self.stage,
            radius: self.radius,
            boundary: self.boundary,
            _pd: PhantomData,
        })
    }
}

/// Terminal consumer of [`PipelineExpr::run`]: settle and materialize.
pub struct FinishConsumer;

impl<I: Element> PipeConsumer<I> for FinishConsumer {
    type Output = FinishedParts<I>;

    const HALO_READ: bool = false;

    fn consume<P: ReadPlan<I>>(self, plan: P) -> Result<FinishedParts<I>> {
        plan.settle_with(OpId::new(), Vec::new(), true)?.finish()
    }
}

/// Terminal consumer of [`PipelineExpr::reduce_rows`].
pub struct ReduceRowsConsumer<F, I> {
    reduce: UserFn<F>,
    identity: I,
}

impl<I, F> PipeConsumer<I> for ReduceRowsConsumer<F, I>
where
    I: Element,
    F: Fn(I, I) -> I + Send + Sync + Clone + 'static,
{
    type Output = Vector<I>;

    const HALO_READ: bool = false;

    fn consume<P: ReadPlan<I>>(self, plan: P) -> Result<Vector<I>> {
        plan.settle_with(OpId::new(), Vec::new(), true)?
            .reduce_rows(&self.reduce, self.identity)
    }
}

// ---------------------------------------------------------------------------
// The public combinator layer.
// ---------------------------------------------------------------------------

/// Entry point: `Pipeline::start::<T>()` opens a pipeline over matrices of
/// `T`.
pub struct Pipeline;

impl Pipeline {
    pub fn start<T: Element>() -> Start<T> {
        Start(PhantomData)
    }
}

/// The empty pipeline (identity). Running it launches nothing.
pub struct Start<T>(PhantomData<fn(T) -> T>);

impl<T> Clone for Start<T> {
    fn clone(&self) -> Self {
        Start(PhantomData)
    }
}

/// A composable, deferred chain of skeleton stages over a `Matrix<T>`.
///
/// Import this trait to use the combinators; see the module docs for the
/// fusion rules. `run` executes the chain; nothing launches before it.
pub trait PipelineExpr<T: Element>: Sized + Clone {
    /// The chain's output element type.
    type Out: Element;

    /// Append this chain's stage descriptors (fusion bookkeeping).
    #[doc(hidden)]
    fn describe(&self, out: &mut Vec<FusedStage>);

    /// The widest stencil radius in the chain (input layout planning).
    #[doc(hidden)]
    fn max_radius(&self) -> usize;

    /// Thread a source plan through the chain into `consumer`.
    #[doc(hidden)]
    fn feed<C: PipeConsumer<Self::Out>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output>;

    /// Append an element-wise stage `V f(Out)`. Never launches alone: it
    /// fuses into the neighbouring group.
    fn map<V, F>(self, user: UserFn<F>) -> PipeMap<Self, F, V>
    where
        V: Element,
        F: Fn(Self::Out) -> V + Send + Sync + Clone + 'static,
    {
        PipeMap {
            prev: self,
            user,
            _pd: PhantomData,
        }
    }

    /// Append an element-wise stage `V f(Out, B)` against a second matrix
    /// of the same shape (it adopts the pipeline's distribution).
    fn zip_with<B, V, F>(self, other: &Matrix<B>, user: UserFn<F>) -> PipeZip<Self, B, F, V>
    where
        B: Element,
        V: Element,
        F: Fn(Self::Out, B) -> V + Send + Sync + Clone + 'static,
    {
        PipeZip {
            prev: self,
            other: other.clone(),
            user,
            _pd: PhantomData,
        }
    }

    /// Append a stencil stage `V f(&Stencil2DView<Out>)` of the given
    /// radius and boundary mode — the same user function a `Stencil2D`
    /// takes. Anchors one fused kernel launch.
    fn stencil<V, F>(
        self,
        user: UserFn<F>,
        radius: usize,
        boundary: Boundary2D,
    ) -> PipeStencil<Self, F, V>
    where
        V: Element,
        F: for<'v> Fn(&Stencil2DView<'v, Self::Out>) -> V + Send + Sync + Clone + 'static,
    {
        PipeStencil {
            prev: self,
            user,
            radius,
            boundary,
            _pd: PhantomData,
        }
    }

    /// Append two stencil stages over the *same* neighbourhood plus a
    /// combiner — `V combine(a(view), b(view))` — fused into **one**
    /// kernel (e.g. the Sobel x/y derivative pair producing a gradient
    /// struct in a single pass over the image).
    fn stencil_pair<V1, V2, V, FA, FB, FC>(
        self,
        a: UserFn<FA>,
        b: UserFn<FB>,
        combine: UserFn<FC>,
        radius: usize,
        boundary: Boundary2D,
    ) -> PipeStencilPair<Self, FA, V1, FB, V2, FC, V>
    where
        V1: Element,
        V2: Element,
        V: Element,
        FA: for<'v> Fn(&Stencil2DView<'v, Self::Out>) -> V1 + Send + Sync + Clone + 'static,
        FB: for<'v> Fn(&Stencil2DView<'v, Self::Out>) -> V2 + Send + Sync + Clone + 'static,
        FC: Fn(V1, V2) -> V + Send + Sync + Clone + 'static,
    {
        PipeStencilPair {
            prev: self,
            a,
            b,
            combine,
            radius,
            boundary,
            _pd: PhantomData,
        }
    }

    /// Execute the chain over `input`: one launch per fused group, zero
    /// intermediate matrices. An empty chain launches nothing and returns
    /// a matrix sharing the input's device buffers.
    fn run(&self, input: &Matrix<T>) -> Result<Matrix<Self::Out>> {
        let src = prepared_source(self, input, false)?;
        let finished = self.feed(src, FinishConsumer)?;
        Ok(Matrix::from_device_parts(
            &finished.geom.ctx,
            finished.geom.rows,
            finished.geom.cols,
            finished.geom.dist,
            finished.parts,
            finished.halos_fresh,
        ))
    }

    /// Execute the chain and fold each row with `reduce` from `identity`
    /// (ascending columns — the [`ReduceRows`](crate::ReduceRows) fold
    /// order), fusing the pending element-wise chain into the fold's
    /// reads: the whole map→…→reduce pipeline is one launch.
    fn reduce_rows<F>(
        &self,
        input: &Matrix<T>,
        reduce: UserFn<F>,
        identity: Self::Out,
    ) -> Result<Vector<Self::Out>>
    where
        F: Fn(Self::Out, Self::Out) -> Self::Out + Send + Sync + Clone + 'static,
    {
        let src = prepared_source(self, input, true)?;
        self.feed(src, ReduceRowsConsumer { reduce, identity })
    }
}

/// Plan the input layout and build the source plan: stencil chains widen a
/// row-block halo to the maximum radius (converting column blocks, as
/// [`ensure_stencil_layout`] does for `Stencil2D`) and guarantee halo
/// coherence; pure element-wise chains take the parts as they are. Opens
/// the `pipeline.run` span.
fn prepared_source<T: Element, E: PipelineExpr<T>>(
    expr: &E,
    input: &Matrix<T>,
    row_fold: bool,
) -> Result<ElemPlan<T, OpId<T>, T>> {
    let ctx = input.ctx().clone();
    let (rows, cols) = input.dims();
    let mut stages = Vec::new();
    expr.describe(&mut stages);
    let n_stencils = stages
        .iter()
        .filter(|s| s.kind.starts_with("stencil"))
        .count();
    let groups = if n_stencils > 0 {
        n_stencils
    } else {
        usize::from(!stages.is_empty() || row_fold)
    };
    let mut span = ctx.span("pipeline.run");
    span.attr("stages", stages.len().to_string());
    span.attr("groups", groups.to_string());
    span.attr("shape", format!("{rows}x{cols}"));
    span.attr("distribution", format!("{:?}", input.distribution()));
    span.attr("devices", ctx.n_devices().to_string());

    let radius = expr.max_radius();
    if n_stencils > 0 {
        ensure_stencil_layout(input, radius)?;
    }
    if row_fold && matches!(input.distribution(), MatrixDistribution::ColBlock) {
        // The fused row fold reads whole rows; column blocks cannot.
        input.set_distribution(MatrixDistribution::RowBlock { halo: radius })?;
    }
    let (parts, halos_fresh) = if n_stencils > 0 {
        (input.parts_with_fresh_halos()?, true)
    } else {
        (input.parts()?, input.halos_fresh())
    };
    Ok(ElemPlan {
        geom: PlanGeom {
            ctx,
            rows,
            cols,
            dist: input.distribution(),
        },
        parts,
        halos_fresh,
        op: OpId::new(),
        stages: Vec::new(),
        _pd: PhantomData,
    })
}

impl<T: Element> PipelineExpr<T> for Start<T> {
    type Out = T;

    fn describe(&self, _out: &mut Vec<FusedStage>) {}

    fn max_radius(&self) -> usize {
        0
    }

    fn feed<C: PipeConsumer<T>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        consumer.consume(src)
    }
}

/// A pipeline ending in a `map` stage.
#[derive(Clone)]
pub struct PipeMap<P, F, V> {
    prev: P,
    user: UserFn<F>,
    _pd: PhantomData<fn() -> V>,
}

impl<T, P, F, V> PipelineExpr<T> for PipeMap<P, F, V>
where
    T: Element,
    P: PipelineExpr<T>,
    V: Element,
    F: Fn(P::Out) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(FusedStage::of("map", &self.user));
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius()
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            MapConsumer {
                f: self.user.func().clone(),
                stage: FusedStage::of("map", &self.user),
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

/// A pipeline ending in a `zip_with` stage.
#[derive(Clone)]
pub struct PipeZip<P, B: Element, F, V> {
    prev: P,
    other: Matrix<B>,
    user: UserFn<F>,
    _pd: PhantomData<fn() -> V>,
}

impl<T, P, B, F, V> PipelineExpr<T> for PipeZip<P, B, F, V>
where
    T: Element,
    P: PipelineExpr<T>,
    B: Element,
    V: Element,
    F: Fn(P::Out, B) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(FusedStage::of("zip", &self.user));
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius()
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            ZipConsumer {
                other: self.other.clone(),
                f: self.user.func().clone(),
                stage: FusedStage::of("zip", &self.user),
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

/// A pipeline ending in a `stencil` stage.
#[derive(Clone)]
pub struct PipeStencil<P, F, V> {
    prev: P,
    user: UserFn<F>,
    radius: usize,
    boundary: Boundary2D,
    _pd: PhantomData<fn() -> V>,
}

impl<T, P, F, V> PipelineExpr<T> for PipeStencil<P, F, V>
where
    T: Element,
    P: PipelineExpr<T>,
    V: Element,
    F: for<'v> Fn(&Stencil2DView<'v, P::Out>) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(FusedStage::of("stencil", &self.user));
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius().max(self.radius)
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            StencilConsumer {
                eval: self.user.func().clone(),
                stage: FusedStage::of("stencil", &self.user),
                radius: self.radius,
                boundary: self.boundary,
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

/// A pipeline ending in a `stencil_pair` stage.
#[derive(Clone)]
pub struct PipeStencilPair<P, FA, V1, FB, V2, FC, V> {
    prev: P,
    a: UserFn<FA>,
    b: UserFn<FB>,
    combine: UserFn<FC>,
    radius: usize,
    boundary: Boundary2D,
    _pd: PhantomData<fn(V1, V2) -> V>,
}

impl<P, FA, V1, FB, V2, FC, V> PipeStencilPair<P, FA, V1, FB, V2, FC, V>
where
    FA: Clone,
    FB: Clone,
    FC: Clone,
{
    fn stage(&self) -> FusedStage {
        FusedStage::new(
            "stencil_pair",
            format!(
                "pair_{}_{}_{}",
                self.a.name(),
                self.b.name(),
                self.combine.name()
            ),
            format!(
                "{}\n{}\n{}",
                self.a.source(),
                self.b.source(),
                self.combine.source()
            ),
            self.a.static_ops() + self.b.static_ops() + self.combine.static_ops(),
        )
    }
}

/// Force a pair-combining closure into the higher-ranked `Fn(&Stencil2DView)`
/// shape the stencil launcher expects.
fn pair_eval<M, V1, V2, V, FA, FB, FC>(
    fa: FA,
    fb: FB,
    fc: FC,
) -> impl for<'v> Fn(&Stencil2DView<'v, M>) -> V + Send + Sync + Clone + 'static
where
    M: Element,
    V1: Element,
    V2: Element,
    V: Element,
    FA: for<'v> Fn(&Stencil2DView<'v, M>) -> V1 + Send + Sync + Clone + 'static,
    FB: for<'v> Fn(&Stencil2DView<'v, M>) -> V2 + Send + Sync + Clone + 'static,
    FC: Fn(V1, V2) -> V + Send + Sync + Clone + 'static,
{
    move |view: &Stencil2DView<'_, M>| fc(fa(view), fb(view))
}

impl<T, P, FA, V1, FB, V2, FC, V> PipelineExpr<T> for PipeStencilPair<P, FA, V1, FB, V2, FC, V>
where
    T: Element,
    P: PipelineExpr<T>,
    V1: Element,
    V2: Element,
    V: Element,
    FA: for<'v> Fn(&Stencil2DView<'v, P::Out>) -> V1 + Send + Sync + Clone + 'static,
    FB: for<'v> Fn(&Stencil2DView<'v, P::Out>) -> V2 + Send + Sync + Clone + 'static,
    FC: Fn(V1, V2) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(self.stage());
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius().max(self.radius)
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            StencilConsumer {
                eval: pair_eval(
                    self.a.func().clone(),
                    self.b.func().clone(),
                    self.combine.func().clone(),
                ),
                stage: self.stage(),
                radius: self.radius,
                boundary: self.boundary,
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;
    use crate::{Map, ReduceRows, Stencil2D, Stencil2DView, Zip};

    fn test_matrix(ctx: &Context, rows: usize, cols: usize, seed: u32) -> Matrix<f32> {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (h % 2000) as f32 - 1000.0
            })
            .collect();
        Matrix::from_vec(ctx, rows, cols, data)
    }

    fn scale_fn() -> UserFn<fn(f32) -> f32> {
        crate::skel_fn!(
            fn scale(x: f32) -> f32 {
                x * 0.5 + 1.0
            }
        )
    }

    fn square_fn() -> UserFn<fn(f32) -> f32> {
        crate::skel_fn!(
            fn square(x: f32) -> f32 {
                x * x
            }
        )
    }

    fn add_fn() -> UserFn<fn(f32, f32) -> f32> {
        crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        )
    }

    fn cross_user() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        UserFn::new(
            "cross_sum",
            "float cross_sum(__global float* in, int r, int c, uint nr, uint nc) {\n\
             return stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
                  + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1)\n\
                  + stencil_at(in,r,c,nr,nc,0,0);\n}",
            |v: &Stencil2DView<'_, f32>| {
                v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0)
            },
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn empty_pipeline_is_identity_with_zero_launches() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 9, 7, 1);
        let before = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        let out = Pipeline::start::<f32>().run(&m).unwrap();
        assert_eq!(bits(&out.to_vec().unwrap()), bits(&m.to_vec().unwrap()));
        let after = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        assert_eq!(before, after, "empty pipeline must launch nothing");
    }

    #[test]
    fn single_map_stage_matches_unfused_map_bitwise() {
        for devices in [1, 2, 3] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 11, 6, 2);
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let fused = Pipeline::start::<f32>().map(scale_fn()).run(&m).unwrap();
            let unfused = Map::new(scale_fn()).apply_matrix(&m).unwrap();
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&unfused.to_vec().unwrap())
            );
        }
    }

    #[test]
    fn single_stencil_stage_matches_unfused_stencil_bitwise() {
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            for devices in [1, 2, 4] {
                let ctx = ctx(devices);
                let m = test_matrix(&ctx, 13, 5, 3);
                let fused = Pipeline::start::<f32>()
                    .stencil(cross_user(), 1, boundary)
                    .run(&m)
                    .unwrap();
                let unfused = Stencil2D::new(cross_user(), 1, boundary).apply(&m).unwrap();
                assert_eq!(
                    bits(&fused.to_vec().unwrap()),
                    bits(&unfused.to_vec().unwrap()),
                    "boundary {boundary:?}, {devices} devices"
                );
            }
        }
    }

    #[test]
    fn map_stencil_map_chain_fuses_to_one_launch_group_and_matches_unfused() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 16, 9, 4);
        let before = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        let fused = Pipeline::start::<f32>()
            .map(scale_fn())
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .map(square_fn())
            .run(&m)
            .unwrap();
        let after = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        assert_eq!(after - before, 1, "pre and post maps fuse into the stencil");

        let step1 = Map::new(scale_fn()).apply_matrix(&m).unwrap();
        let step2 = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann)
            .apply(&step1)
            .unwrap();
        let unfused = Map::new(square_fn()).apply_matrix(&step2).unwrap();
        assert_eq!(
            bits(&fused.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    #[test]
    fn zip_stage_matches_unfused_zip_bitwise() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 10, 8, 5);
        let other = test_matrix(&ctx, 10, 8, 6);
        let fused = Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap();
        let unfused = Zip::new(add_fn()).apply_matrix(&m, &other).unwrap();
        assert_eq!(
            bits(&fused.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    /// A stencil's output with stale halo rows (it writes owned rows only).
    fn stale_halo_matrix(ctx: &Context, seed: u32) -> Matrix<f32> {
        let src = test_matrix(ctx, 12, 7, seed);
        src.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let out = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann)
            .apply(&src)
            .unwrap();
        assert!(!out.halos_fresh());
        out
    }

    #[test]
    fn stencil_groups_count_their_halo_exchanges() {
        for (devices, per_run) in [(1, 0), (2, 1), (4, 1)] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 16, 7, 21);
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            m.ensure_on_devices().unwrap();
            let stencil = || Pipeline::start::<f32>().stencil(cross_user(), 1, Boundary2D::Neumann);
            let base = ctx.halo_exchange_count();
            // The input's halos came with the upload: nothing to exchange.
            stencil().run(&m).unwrap();
            assert_eq!(ctx.halo_exchange_count(), base, "{devices} devices");
            // The second group reads the first group's stale halos. On one
            // device they are all wrapped rows, which Neumann never reads.
            stencil()
                .stencil(cross_user(), 1, Boundary2D::Neumann)
                .run(&m)
                .unwrap();
            assert_eq!(
                ctx.halo_exchange_count(),
                base + per_run,
                "{devices} devices"
            );
        }
    }

    #[test]
    fn element_wise_zip_leaves_stale_operand_halos_alone() {
        let ctx = ctx(2);
        let lhs = test_matrix(&ctx, 12, 7, 11);
        lhs.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        lhs.ensure_on_devices().unwrap();
        let rhs = stale_halo_matrix(&ctx, 12);
        let before = ctx.platform().stats_snapshot();
        let out = Pipeline::start::<f32>()
            .zip_with(&rhs, add_fn())
            .run(&lhs)
            .unwrap();
        let delta = ctx.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "no halo row of the operand is read");
        assert!(!out.halos_fresh(), "the operand's stale halos pass through");
        let unfused = Zip::new(add_fn()).apply_matrix(&lhs, &rhs).unwrap();
        assert_eq!(
            bits(&out.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    #[test]
    fn zip_read_by_a_stencil_refreshes_operand_halos() {
        let ctx = ctx(2);
        let lhs = test_matrix(&ctx, 12, 7, 13);
        lhs.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        lhs.ensure_on_devices().unwrap();
        let rhs = stale_halo_matrix(&ctx, 14);
        let before = ctx.platform().stats_snapshot();
        let fused = Pipeline::start::<f32>()
            .zip_with(&rhs, add_fn())
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .run(&lhs)
            .unwrap();
        let delta = ctx.platform().stats_snapshot() - before;
        assert!(
            delta.d2d_transfers > 0,
            "the stencil reads operand halo rows"
        );
        assert!(rhs.halos_fresh());
        let zipped = Zip::new(add_fn()).apply_matrix(&lhs, &rhs).unwrap();
        let unfused = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann)
            .apply(&zipped)
            .unwrap();
        assert_eq!(
            bits(&fused.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    #[test]
    fn skeleton_calls_and_one_stage_pipelines_share_one_program() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 10, 6, 15);
        let other = test_matrix(&ctx, 10, 6, 16);

        let built = ctx.programs_built();
        Map::new(scale_fn()).apply_matrix(&m).unwrap();
        Pipeline::start::<f32>().map(scale_fn()).run(&m).unwrap();
        assert_eq!(ctx.programs_built() - built, 1, "map");

        let built = ctx.programs_built();
        Zip::new(add_fn()).apply_matrix(&m, &other).unwrap();
        Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap();
        assert_eq!(ctx.programs_built() - built, 1, "zip");

        let built = ctx.programs_built();
        let st = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann);
        st.apply(&m).unwrap();
        st.apply_streamed(&test_matrix(&ctx, 10, 6, 17), 3).unwrap();
        st.iterate(&m, 3).unwrap();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .run(&m)
            .unwrap();
        assert_eq!(ctx.programs_built() - built, 1, "stencil");
    }

    #[test]
    fn zip_shape_mismatch_is_reported() {
        let ctx = ctx(1);
        let m = test_matrix(&ctx, 4, 4, 7);
        let other = test_matrix(&ctx, 4, 5, 8);
        let err = Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
    }

    #[test]
    fn fused_reduce_rows_matches_map_then_reduce_rows() {
        for devices in [1, 2, 4] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 12, 7, 9);
            m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
                .unwrap();
            let fused = Pipeline::start::<f32>()
                .map(square_fn())
                .reduce_rows(&m, add_fn(), 0.0)
                .unwrap();
            let mapped = Map::new(square_fn()).apply_matrix(&m).unwrap();
            let unfused = ReduceRows::new(add_fn(), 0.0).apply(&mapped).unwrap();
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&unfused.to_vec().unwrap()),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn stencil_pair_matches_two_stencils_plus_zip() {
        let shift_user = |dc: isize, name: &'static str| {
            UserFn::new(
                name,
                format!(
                    "float {name}(__global float* in, int r, int c, uint nr, uint nc) {{\n\
                     return stencil_at(in,r,c,nr,nc,0,{dc});\n}}"
                ),
                move |v: &Stencil2DView<'_, f32>| v.get(0, dc),
            )
        };
        for devices in [1, 2] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 9, 9, 10);
            let fused = Pipeline::start::<f32>()
                .stencil_pair(
                    shift_user(-1, "left"),
                    shift_user(1, "right"),
                    add_fn(),
                    1,
                    Boundary2D::Zero,
                )
                .run(&m)
                .unwrap();
            let left = Stencil2D::new(shift_user(-1, "left"), 1, Boundary2D::Zero)
                .apply(&m)
                .unwrap();
            let right = Stencil2D::new(shift_user(1, "right"), 1, Boundary2D::Zero)
                .apply(&m)
                .unwrap();
            let unfused = Zip::new(add_fn()).apply_matrix(&left, &right).unwrap();
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&unfused.to_vec().unwrap()),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn fused_program_names_key_on_stage_order() {
        let a = FusedStage::new("map", "f", "float f(float x){return x;}", 1);
        let b = FusedStage::new("map", "g", "float g(float x){return x;}", 1);
        let ab = codegen::map2d_program(&[a.clone(), b.clone()], "float", "float");
        let ba = codegen::map2d_program(&[b, a], "float", "float");
        assert_ne!(
            ab.hash(),
            ba.hash(),
            "fusion order is part of the cache key"
        );
    }
}
