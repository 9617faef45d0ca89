//! # skelcl — a Rust reproduction of the SkelCL skeleton library
//!
//! Reproduces Steuwer, Kegel & Gorlatch, *SkelCL — A Portable Skeleton
//! Library for High-Level GPU Programming* (IPDPS 2011) on top of the
//! [`vgpu`] virtual OpenCL-like platform:
//!
//! * [`Vector`] — the abstract vector spanning host and device memory with
//!   **lazy, implicit transfers** (Section III-A); a vector of `len`
//!   elements is a `len × 1` [`Matrix`], so both containers share one
//!   transfer, layout and redistribution path,
//! * the four basic skeletons [`Map`], [`Zip`], [`Reduce`], [`Scan`]
//!   (Section III-B), customized by [`UserFn`]s created with [`skel_fn!`],
//! * [`Arguments`] — passing additional scalars and vectors to the
//!   customizing function (Section III-C),
//! * multi-GPU [`Distribution`]s — `Single`, `Copy`, `Block` — with
//!   automatic inter-device exchange on redistribution, including
//!   redistribution with a combine operator (Section III-D),
//! * plus the with-arguments skeleton variants [`MapArgs`], [`MapVoid`]
//!   and [`ZipArgs`] (Section III-C),
//! * the 2D subsystem SkelCL grew next: the [`Matrix`] container with
//!   [`MatrixDistribution::RowBlock`] halo distribution and the
//!   [`Stencil2D`] skeleton behind the image-processing benchmark suite
//!   (Gaussian blur, Sobel, Canny — see the `skelcl-imgproc` crate),
//! * the [`AllPairs`] skeleton with the column-block
//!   [`MatrixDistribution::ColBlock`] distribution behind the dense
//!   linear-algebra workloads (matrix multiplication, pairwise distances —
//!   see the `skelcl-linalg` crate),
//! * the iterative form [`Stencil2D::iterate`] — `n` stencil passes
//!   ping-ponging two device-resident buffers with one batched halo
//!   exchange per iteration — behind the simulation workloads (heat
//!   relaxation, game of life — see the `skelcl-iterative` crate),
//! * the lazy **[`Pipeline`] fusion subsystem**: skeleton calls compose
//!   into a deferred expression that fuses adjacent element-wise stages
//!   into their neighbouring stencil/reduce kernels at launch time —
//!   eliding every intermediate matrix — behind the fused Canny edge
//!   detector (see *Pipelines and fusion* below),
//! * and the **async overlap subsystem**: per-device copy streams with
//!   event-ordered transfers, so the overlapped `iterate` schedule runs
//!   halo exchanges *under* interior kernels and streamed uploads
//!   ([`Stencil2D::apply_streamed`], [`Map::apply_streamed`]) overlap PCIe
//!   with the first dependent kernels (see *Streams and events* below).
//!
//! ## Skeleton overview
//!
//! | Skeleton        | Containers            | Customizing function            | Distributions of the primary input        |
//! |-----------------|-----------------------|---------------------------------|-------------------------------------------|
//! | [`Map`]         | [`Vector`], [`Matrix`]| `U f(T)`                        | `Single`, `Copy`, `Block` / any matrix    |
//! | [`Zip`]         | [`Vector`], [`Matrix`]| `U f(T1, T2)`                   | `Single`, `Copy`, `Block` / any matrix    |
//! | [`Reduce`]      | [`Vector`]            | associative `T f(T, T)` + id    | `Single`, `Copy`, `Block`                 |
//! | [`Scan`]        | [`Vector`]            | associative `T f(T, T)` + id    | `Single`, `Copy`, `Block`                 |
//! | [`Stencil2D`]   | [`Matrix`]            | `U f(view)` over a 2D radius    | `Single`, `Copy`, `RowBlock { halo }`     |
//! | [`Stencil2D::iterate`] | [`Matrix`]     | same, applied `n` times         | `Single`, `Copy`, `RowBlock { halo }`     |
//! | [`AllPairs`]    | [`Matrix`]            | zip `U f(T, T)` + reduce + id   | A: row-based; B: `Copy` / `ColBlock` / …  |
//! | [`ReduceRows`]  | [`Matrix`] → [`Vector`] | associative `T f(T, T)` + id  | any matrix                                |
//! | [`ReduceCols`]  | [`Matrix`] → [`Vector`] | associative `T f(T, T)` + id  | any matrix                                |
//! | [`ReduceRowsArg`] | [`Matrix`] → value + index [`Vector`]s | strict `bool f(T, T)` | any matrix                  |
//! | [`ReduceColsArg`] | [`Matrix`] → value + index [`Vector`]s | strict `bool f(T, T)` | any matrix                  |
//! | [`Pipeline`]    | [`Matrix`]            | lazy `map`/`zip_with`/`stencil` chain, fused per stencil anchor | any matrix |
//! | Canny (`skelcl-imgproc`) | [`Matrix`] → labels + host hysteresis | gauss → sobel → nms → threshold via [`Pipeline`] (3 fused launches) | `Single`, `Copy`, `RowBlock { halo }` |
//!
//! (Plus the with-arguments variants [`MapArgs`], [`MapVoid`], [`ZipArgs`].
//! A 1-D stencil is a [`Stencil2D`] over an N×1 [`Matrix`].)
//! Every program family in this table — including the fused pipeline
//! variants — is vetted by the `skelcheck` kernel lint pass in CI; see
//! *Static analysis* below.
//! Element-wise skeletons accept every distribution; `Stencil2D` widens a
//! too-narrow `RowBlock` halo automatically and re-lays out a `ColBlock`
//! input; `AllPairs` replicates its `B` operand device-to-device when it
//! is not already everywhere. The 2D reductions fold in canonical
//! ascending row/column order, so their results are bit-identical to a
//! sequential host fold on every device count and distribution; under the
//! distribution that keeps the reduced dimension intact (`RowBlock` for
//! rows, `ColBlock` for columns) the output simply concatenates the
//! per-device results with zero inter-device transfers.
//!
//! **Which paths overlap:** [`Stencil2D::iterate`] (halo exchange on the
//! copy stream under interior compute; `iterate_serial` keeps the serial
//! schedule), [`Stencil2D::apply_streamed`] and [`Map::apply_streamed`]
//! (chunked uploads overlapping the first dependent kernels). Every other
//! path is device-serializing, exactly as before the subsystem existed.
//!
//! ## Streams and events
//!
//! Every [`Context`] drives each device through **two in-order command
//! queues over one shared device timeline**: the main queue carrying
//! kernels, and a dedicated *copy stream* ([`Context::copy_queue`])
//! carrying asynchronous transfers. The underlying [`vgpu`] platform
//! models a separate copy (DMA) engine and compute engine per device, and
//! schedules every asynchronous command at
//!
//! ```text
//! start = max(queue-ready, dependency-ready, engine-availability, enqueue time)
//! ```
//!
//! with first-class events (`vgpu::After::Events(&[vgpu::Event])`) expressing
//! cross-stream dependencies — OpenCL's own answer to transfer/compute
//! overlap, expressed through events and multiple command queues. A halo
//! exchange issued on the copy stream therefore genuinely runs *under* an
//! independent kernel, while two kernels (or two transfers) on one device
//! still serialize on their engine.
//!
//! The overlapped paths are **bit-identical to their serial twins** —
//! same generated programs, same per-element arithmetic, only the modeled
//! timeline changes — and the simulator's timeline trace
//! (`vgpu::Platform::enable_timeline_trace`) lets tests assert that no
//! engine ever runs two commands at once (see the `prop_overlap` suite
//! and the `fig_overlap` bench, which measures the overlap win).
//!
//! ## Observability
//!
//! Three layers, cheapest first, all off until asked for:
//!
//! 1. **Metrics** ([`Context::metrics`], the [`metrics`] module) — a named
//!    registry of counters/gauges/histograms. The long-standing one-off
//!    counters (halo exchanges, program-cache hits/misses) are thin
//!    wrappers over registry counters now; [`Context::metrics_snapshot`]
//!    merges them with the platform's transfer/kernel/build counters under
//!    `vgpu.*` names into one sorted map.
//! 2. **Spans** ([`Context::enable_spans`], the [`trace`] module) — every
//!    skeleton entry point (`Map::apply`, `Stencil2D::iterate`, uploads,
//!    halo exchanges, …) records a [`SpanRecord`]: skeleton kind, shape,
//!    distribution, device count, virtual start/end, and exact counter
//!    deltas (bytes by direction, kernel launches, cache hits). Spans
//!    nest — a halo exchange inside `iterate` is a child span — and link
//!    to the engine-level `vgpu::CommandRecord` trace by index range.
//! 3. **Reports** (the [`report`] module) — [`chrome_trace_json`] merges
//!    both layers into a Perfetto-loadable Chrome trace (see
//!    `examples/trace_export.rs`), [`RunReport`] distills a run into
//!    per-device engine utilization, copy-under-compute overlap, and a
//!    roofline verdict (achieved vs. the [`vgpu::timing`] cost model's
//!    peak rates), and its `Display` renders it for humans.
//! 4. **Telemetry export** (the [`telemetry`] module) — everything above
//!    in machine-readable form: [`export_json`] writes a schema-versioned
//!    JSON document (version [`telemetry::SCHEMA_VERSION`]) carrying the
//!    full [`Context::metrics_snapshot`] plus any number of
//!    [`RunReport`]s — roofline %, engine utilization, overlap
//!    efficiency, exact latency quantiles (`null` for empty
//!    distributions, never a fabricated 0), skelcheck counters, and SLO
//!    accounting ([`SloSummary`]) — and [`render_prometheus`] emits the
//!    metrics snapshot in Prometheus text exposition format (histograms
//!    as summaries with nearest-rank quantile series). The bench perf
//!    ledger (`skelcl-bench`'s `BENCH_<fig>.json` artifacts and the
//!    `benchdiff` regression gate) is built on this serializer; see
//!    `examples/telemetry_export.rs`.
//!
//! The executor's serving layer feeds the same pipeline: every job emits
//! queue-wait and service spans into the Chrome trace (one lane per
//! tenant), and per-tenant SLO gauges (deadline misses against a
//! configured latency target, shed rate) ride [`RunReport`] and the JSON
//! export.
//!
//! Clock-epoch hygiene: `vgpu::Platform::reset_clocks` starts a new epoch;
//! spans that straddle a reset are discarded, while metrics (monotonic
//! counters) deliberately survive it — see the [`trace`] module docs.
//!
//! ## Static analysis (the `skelcheck` layer)
//!
//! The companion `skelcheck` crate (re-exported here as [`check`]) vets the
//! two artifacts this library produces that nothing else type-checks:
//!
//! * **Command timelines** — [`check::verify_no_buffer_hazards`]
//!   reconstructs the happens-before relation of a recorded trace (stream
//!   program order, event dependencies, device serialization, host
//!   synchronization) and flags RAW/WAR/WAW pairs on overlapping bytes of
//!   one device buffer with no ordering path: races the virtual timeline
//!   happened to order this run but nothing forced. The **online mode**
//!   ([`Context::enable_online_hazard_check`], or `SKELCL_CHECK=1` in the
//!   environment) installs the same analysis as a command observer and
//!   panics at the exact enqueue that completes a race; each vetted
//!   command bumps the `skelcheck.hazards_checked` counter.
//! * **Generated kernel sources** — [`Context::lint_registry`] runs
//!   [`check::lint_program`] over every program resident in the context's
//!   program registry: barriers under thread-divergent control flow,
//!   `__local` declarations over the device budget, host/kernel
//!   argument-count mismatches ([`Error::KernelArgMismatch`] is the
//!   runtime twin of that lint), and thread-id-indexed global accesses
//!   outside any bounds guard. Findings land in the
//!   `skelcheck.lint_findings` counter; a healthy codegen layer lints
//!   clean (the skeleton table above is covered end-to-end in CI).
//!
//! ## Executor service
//!
//! The `skelcl-executor` crate turns the library into a multi-tenant
//! serving layer: many concurrent clients submit typed skeleton jobs
//! (`Job::{Axpb, RowSum, Jacobi, MatMul}`) against shared devices and get
//! back futures with per-job latency reports. The pieces it builds on
//! live here:
//!
//! * [`Context::fork_streams`] — a sibling context per tenant with fresh
//!   in-order main+copy streams per device. Tenants share the platform,
//!   the device engines, the metrics registry and the span collector, but
//!   each tenant's commands are ordered only among themselves, so one
//!   tenant's backlog never orders another's work.
//! * the compiled-program registry, shared by every fork: a program one
//!   tenant built is a registry hit (`skelcl.program_cache.hits`) for
//!   every other tenant.
//! * [`Matrix::read_back_async`] / [`Vector::read_back_async`] — download
//!   results on the copy stream *without* syncing the host clock, and
//!   report the virtual completion time. The executor derives end-to-end
//!   job latency from it, so concurrent tenants' timelines keep
//!   overlapping where a blocking `to_vec` would serialize them.
//! * [`Histogram`] quantiles ([`metrics::Histogram::quantile`],
//!   `HistogramSnapshot::{p50, p90, p99}`) and the [`RunReport`] latency
//!   line ([`RunReport::with_latency`]) — the `fig_executor` bench reports
//!   jobs/sec with p50/p99 against the modeled peak.
//!
//! On top, the executor adds bounded per-tenant queues with shed-on-full
//! backpressure, weighted round-robin dispatch, and coalescing of
//! consecutive same-kernel/same-shape jobs into one fused launch (a
//! single job *is* a batch of one, so coalescing is bit-transparent).
//!
//! ## Dot product (the paper's Listing 1)
//!
//! ```
//! use skelcl::{Context, ContextConfig, Reduce, Vector, Zip};
//!
//! let ctx = Context::new(ContextConfig::default().cache_tag("doc-dot"));
//!
//! // create skeletons (customizing functions written once, used as both
//! // source string and executable code)
//! let sum  = Reduce::new(skelcl::skel_fn!(fn sum(x: f32, y: f32) -> f32 { x + y }), 0.0);
//! let mult = Zip::new(skelcl::skel_fn!(fn mult(x: f32, y: f32) -> f32 { x * y }));
//!
//! // create input vectors
//! let a = Vector::from_vec(&ctx, vec![1.0f32; 1024]);
//! let b = Vector::from_vec(&ctx, vec![2.0f32; 1024]);
//!
//! // execute skeletons: C = sum(mult(A, B))
//! let c = sum.apply(&mult.apply(&a, &b).unwrap()).unwrap();
//!
//! // fetch result
//! assert_eq!(c.get_value(), 2048.0);
//! ```
//!
//! ## Matrix + Stencil2D (2D containers, multi-GPU halo exchange)
//!
//! A [`Matrix`] distributes *rows* across devices; under
//! [`MatrixDistribution::RowBlock`] each device also stores `halo` overlap
//! rows that [`Stencil2D`] keeps coherent by automatic device-to-device
//! exchange. Element-wise skeletons compose with matrices through
//! [`Map::apply_matrix`]/[`Zip::apply_matrix`] without host round trips.
//!
//! ```
//! use skelcl::{
//!     Boundary2D, Context, ContextConfig, Matrix, MatrixDistribution, Stencil2D,
//!     Stencil2DView, UserFn,
//! };
//!
//! let ctx = Context::new(ContextConfig::default().devices(2).cache_tag("doc-stencil"));
//!
//! // A 2D stencil is customized like any skeleton: source string + twin.
//! let blur = Stencil2D::new(
//!     UserFn::new(
//!         "blur5",
//!         "float blur5(__global float* in, int r, int c, uint nr, uint nc) {\n\
//!              return 0.25f * (stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
//!                            + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1));\n\
//!          }",
//!         |v: &Stencil2DView<'_, f32>| {
//!             0.25 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1))
//!         },
//!     ),
//!     1,                  // radius
//!     Boundary2D::Neumann, // out-of-matrix reads clamp to the edge
//! );
//!
//! // Rows split across both devices with 1 halo row of overlap each way.
//! let img = Matrix::from_fn(&ctx, 64, 64, |r, c| (r + c) as f32);
//! img.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
//!
//! // Chaining stencils stays on the devices; stale halo rows are refreshed
//! // by automatic inter-device exchange before the second pass.
//! let once = blur.apply(&img).unwrap();
//! let twice = blur.apply(&once).unwrap();
//! assert_eq!(twice.dims(), (64, 64));
//! # let _ = twice.to_vec().unwrap();
//! ```
//!
//! ## Iterated stencils (heat relaxation, Jacobi sweeps, game of life)
//!
//! Iterative simulations apply the *same* stencil hundreds of times.
//! [`Stencil2D::iterate`] keeps the whole run on the devices: two buffers
//! per device ping-pong roles each round, one **batched halo exchange per
//! iteration** refreshes exactly the rows the stencil will read (under
//! `Neumann`/`Zero` boundaries the wrapped matrix-edge rows are skipped),
//! and a single cached kernel serves all `n` launches. The result is
//! bit-identical to `n` chained [`Stencil2D::apply`] calls on every device
//! count.
//!
//! ```
//! use skelcl::{
//!     Boundary2D, Context, ContextConfig, Matrix, MatrixDistribution, Stencil2D,
//!     Stencil2DView, UserFn,
//! };
//!
//! let ctx = Context::new(ContextConfig::default().devices(2).cache_tag("doc-iterate"));
//!
//! // Jacobi heat relaxation: each cell moves to the mean of its neighbours.
//! let relax = Stencil2D::new(
//!     UserFn::new(
//!         "relax",
//!         "float relax(__global float* in, int r, int c, uint nr, uint nc) {\n\
//!              return 0.25f * (stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
//!                            + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1));\n\
//!          }",
//!         |v: &Stencil2DView<'_, f32>| {
//!             0.25 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1))
//!         },
//!     ),
//!     1,                   // radius
//!     Boundary2D::Neumann, // insulated edges
//! );
//!
//! // A hot top row diffusing into a cold plate, split across both devices.
//! let plate = Matrix::from_fn(&ctx, 32, 32, |r, _| if r == 0 { 100.0 } else { 0.0 });
//! plate.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
//!
//! // 50 passes, entirely device-resident — and bit-identical to chaining.
//! let relaxed = relax.iterate(&plate, 50).unwrap();
//! let chained = {
//!     let mut cur = relax.apply(&plate).unwrap();
//!     for _ in 1..50 {
//!         cur = relax.apply(&cur).unwrap();
//!     }
//!     cur
//! };
//! assert_eq!(relaxed.to_vec().unwrap(), chained.to_vec().unwrap());
//! ```
//!
//! ## 2D reductions (row/column folds, device-resident argmin)
//!
//! [`ReduceRows`]/[`ReduceCols`] fold a [`Matrix`] to a device-resident
//! [`Vector`] — one element per row or column — and [`ReduceRowsArg`]
//! additionally carries the winning column index (lowest index wins ties),
//! which moves per-row argmin pipelines like 1-NN fully onto the devices:
//! the matrix is never downloaded, only the tiny result vectors are.
//!
//! ```
//! use skelcl::{Context, ContextConfig, Matrix, ReduceRows, ReduceRowsArg};
//!
//! let ctx = Context::new(ContextConfig::default().devices(2).cache_tag("doc-reduce2d"));
//!
//! // Row sums: Matrix (4×3) → Vector (4), folded in ascending column
//! // order from the identity — bit-identical on any device count.
//! let sums = ReduceRows::new(
//!     skelcl::skel_fn!(fn sum(x: f32, y: f32) -> f32 { x + y }),
//!     0.0,
//! );
//! let m = Matrix::from_fn(&ctx, 4, 3, |r, c| (r * 3 + c) as f32);
//! assert_eq!(sums.apply(&m).unwrap().to_vec().unwrap(), vec![3.0, 12.0, 21.0, 30.0]);
//!
//! // Per-row argmin: the strictly-less scan keeps the lowest index on
//! // ties — the row reduction behind the 1-NN pipeline.
//! let argmin = ReduceRowsArg::new(
//!     skelcl::skel_fn!(fn less(x: f32, y: f32) -> bool { x < y }),
//! );
//! let d = Matrix::from_fn(&ctx, 2, 3, |r, c| if c == r { 0.5 } else { 2.0 });
//! let (vals, idxs) = argmin.apply(&d).unwrap();
//! assert_eq!(vals.to_vec().unwrap(), vec![0.5, 0.5]);
//! assert_eq!(idxs.to_vec().unwrap(), vec![0, 1]);
//! ```
//!
//! ## AllPairs (dense linear algebra: matrix multiplication)
//!
//! [`AllPairs`] computes `C[i][j] = reduce(zip(row_i(A), col_j(B)))` — with
//! `zip = ×` and `reduce = +` that is the matrix product. `A`'s rows are
//! partitioned across the devices; `B` is replicated (device-to-device when
//! already resident, e.g. from a [`MatrixDistribution::ColBlock`] layout).
//! The default strategy stages local-memory tiles; naive and tiled results
//! are bit-identical.
//!
//! ```
//! use skelcl::{AllPairs, Context, ContextConfig, Matrix};
//!
//! let ctx = Context::new(ContextConfig::default().devices(2).cache_tag("doc-allpairs"));
//!
//! let matmul = AllPairs::new(
//!     skelcl::skel_fn!(fn mult(x: f32, y: f32) -> f32 { x * y }),
//!     skelcl::skel_fn!(fn sum(x: f32, y: f32) -> f32 { x + y }),
//!     0.0,
//! );
//!
//! // A (4×3) · B (3×2) = C (4×2): rows of C split across both devices.
//! let a = Matrix::from_fn(&ctx, 4, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::from_fn(&ctx, 3, 2, |r, c| if r == c { 1.0 } else { 0.0 });
//! let c = matmul.apply(&a, &b).unwrap();
//! assert_eq!(c.dims(), (4, 2));
//! // B is the leading 3×2 slice of the identity, so C is A's first 2 columns.
//! assert_eq!(c.to_vec().unwrap()[0..2], [0.0, 1.0]);
//! ```
//!
//! ## Pipelines and fusion (lazy skeleton chains)
//!
//! Chained skeleton calls each launch a kernel and materialise a full
//! intermediate matrix — for a chain of cheap element-wise stages the
//! intermediates dominate the memory traffic. [`Pipeline`] makes the
//! chain *lazy*: [`Pipeline::start`] opens a deferred expression, each
//! [`PipelineExpr::map`] / [`PipelineExpr::zip_with`] /
//! [`PipelineExpr::stencil`] records a stage without executing anything,
//! and the terminal [`PipelineExpr::run`] (or
//! [`PipelineExpr::reduce_rows`]) plans the whole chain at once:
//! element-wise stages fold into the *reads* of the next stencil (or the
//! k-fold of a reduction) and into the *writes* of the previous one, so
//! each stencil anchor becomes exactly one fused launch and no
//! intermediate matrix ever exists. The planner is also how a single
//! skeleton call on a matrix runs: `Map::apply_matrix`,
//! `Zip::apply_matrix` and `Stencil2D::apply` are one-stage pipelines, and
//! a stencil stage takes the same [`Stencil2DView`] user function a
//! [`Stencil2D`] does. The OpenCL programs come from one [`codegen`]
//! builder per kernel shape and are cached in the context's program
//! registry under a key derived from the exact stage chain — same chain, same
//! program. Results are **bit-identical** to the unfused skeleton chain on
//! every device count, boundary mode and distribution (the `prop_fusion`
//! suite), and the launch count is observable as the
//! `skelcl.pipeline.groups` counter. The `skelcl-imgproc` Canny detector
//! is the flagship user: gauss → sobel → non-maximum suppression →
//! threshold compiles to three fused launches (the `fig_fusion` bench
//! measures the win over the six-launch unfused chain).
//!
//! ```
//! use skelcl::{
//!     Boundary2D, Context, ContextConfig, Map, Matrix, Pipeline, PipelineExpr, Stencil2D,
//!     Stencil2DView, UserFn,
//! };
//!
//! let ctx = Context::new(ContextConfig::default().devices(2).cache_tag("doc-pipeline"));
//! let img = Matrix::from_fn(&ctx, 32, 32, |r, c| (r * c) as f32);
//!
//! const CROSS_SRC: &str =
//!     "float cross4(__global float* in, int r, int c, uint nr, uint nc) {\n\
//!          return 0.25f * (stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
//!                        + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1));\n\
//!      }";
//!
//! let cross4 = UserFn::new("cross4", CROSS_SRC, |v: &Stencil2DView<'_, f32>| {
//!     0.25 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1))
//! });
//!
//! // scale → blur → square: one fused kernel launch, zero intermediates.
//! let fused = Pipeline::start::<f32>()
//!     .map(skelcl::skel_fn!(fn scale(x: f32) -> f32 { x * 0.5 }))
//!     .stencil(cross4.clone(), 1, Boundary2D::Neumann)
//!     .map(skelcl::skel_fn!(fn square(x: f32) -> f32 { x * x }))
//!     .run(&img)
//!     .unwrap();
//!
//! // The eager three-skeleton chain: three launches (three one-stage
//! // pipelines), two intermediates — and exactly the same bits.
//! let blur = Stencil2D::new(cross4, 1, Boundary2D::Neumann);
//! let step1 = Map::new(skelcl::skel_fn!(fn scale(x: f32) -> f32 { x * 0.5 }))
//!     .apply_matrix(&img).unwrap();
//! let step2 = blur.apply(&step1).unwrap();
//! let unfused = Map::new(skelcl::skel_fn!(fn square(x: f32) -> f32 { x * x }))
//!     .apply_matrix(&step2).unwrap();
//! assert_eq!(fused.to_vec().unwrap(), unfused.to_vec().unwrap());
//! ```

pub mod algorithms;
pub mod arguments;
pub mod codegen;
pub mod context;
pub mod error;
pub mod matrix;
pub mod meter;
pub mod metrics;
pub mod report;
pub mod scalar;
pub mod skeletons;
pub mod telemetry;
pub mod trace;
pub mod vector;

pub use arguments::{ArgMat, ArgVec, Arguments, KernelEnv};
pub use codegen::UserFn;
pub use context::{Context, ContextConfig, DEFAULT_WORK_GROUP};
pub use error::{Error, Result};
pub use matrix::{Matrix, MatrixDistribution};
pub use meter::work;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry};
pub use report::{chrome_trace_json, roofline_report, RooflineReport, RunReport, SloSummary};
pub use scalar::Scalar;
pub use skeletons::{AllPairs, AllPairsStrategy};
pub use skeletons::{Boundary2D, Stencil2D, Stencil2DView};
pub use skeletons::{Map, MapArgs, MapVoid, Reduce, Scan, Zip, ZipArgs};
pub use skeletons::{Pipeline, PipelineExpr};
pub use skeletons::{ReduceCols, ReduceColsArg, ReduceRows, ReduceRowsArg};
pub use skeletons::{ReduceStrategy, ScanStrategy};
pub use telemetry::{export_json, render_prometheus, run_report_json};
pub use trace::{verify_span_nesting, SpanGuard, SpanRecord};
pub use vector::{Distribution, Vector};

/// The `skelcheck` analysis layer: buffer-hazard detection over command
/// timelines and the generated-kernel lint pass (see *Static analysis* in
/// the crate docs).
pub use skelcheck as check;

/// The element trait vectors are generic over (re-exported from the
/// platform; the name `Scalar` is taken by the paper's reduce-result type).
pub use vgpu::Scalar as Element;

/// Commonly used items for glob import.
pub mod prelude {
    pub use crate::skel_fn;
    pub use crate::{
        Arguments, Context, ContextConfig, Distribution, Element, Error, KernelEnv, Map, MapArgs,
        MapVoid, Reduce, Result, Scalar, Scan, UserFn, Vector, Zip, ZipArgs,
    };
}
