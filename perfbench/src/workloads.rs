//! The four workloads. Each one generates its inputs from the seed, hands
//! only the generated data to the library, and calls the library's public
//! functions inside spans named after the layer they enter.

use std::path::PathBuf;

use skelcl::{Boundary2D, Context, Matrix, MatrixDistribution, DEFAULT_WORK_GROUP};
use skelcl_executor::{run_job, Executor, ExecutorConfig, Job, JobHandle, JobOutput, TenantId};
use skelcl_osem::{Event, OsemParams, Volume};
use vgpu::{Platform, PlatformConfig};

use crate::measure::{Span, Tracer};

/// Modeled devices in every workload (the paper's 4-GPU system).
const DEVICES: usize = 4;

/// Problem sizes: `Full` is the benchmark, `Tiny` keeps the benchmark's own
/// tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// SplitMix64: the benchmark's own seeded generator for plates, images and
/// job data.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`, exactly representable steps of 2⁻²⁴.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * u
    }

    pub fn vec(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.uniform(lo, hi)).collect()
    }
}

/// What one measured repetition did.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Operations attempted: skeleton calls, or jobs submitted.
    pub attempted: u64,
    /// Skeleton calls returning `Err`, shed submissions, failed jobs.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Modeled submit→ready latency of every job (empty when the whole
    /// repetition is the request).
    pub job_latency_s: Vec<f64>,
    pub service_s: Vec<f64>,
}

impl RepOutcome {
    fn call<T>(&mut self, r: skelcl::Result<T>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.errors.push(e.to_string());
        })
        .ok()
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Fewest measured repetitions, whatever the time budget.
    const MIN_REPS: usize = 3;

    /// Generate the seeded inputs, create the context (or executor) on
    /// `platform`, upload, and warm up: run the smallest call that builds
    /// every program a repetition uses. `scratch` is this set-up's private
    /// directory.
    fn setup(
        seed: u64,
        size: Size,
        platform: Platform,
        scratch: PathBuf,
        tr: &mut Tracer,
    ) -> Result<Self, String>;

    /// The context whose platform and counters the runner reads.
    fn context(&self) -> &Context;

    /// One measured repetition; child spans hang under `parent`.
    fn rep(&mut self, tr: &mut Tracer, parent: Option<u64>, group: u64) -> RepOutcome;

    /// Compare the last repetition's output with the sequential reference.
    fn check(&mut self) -> Result<(), String>;

    /// Get the next repetition's inputs ready, outside its timing.
    fn prepare(&mut self) {}
}

/// A platform of [`DEVICES`] devices whose kernel binary cache lives in
/// `dir`.
pub fn cache_platform(dir: PathBuf) -> Platform {
    Platform::new(PlatformConfig::default().devices(DEVICES).cache_dir(dir))
}

fn bits_equal(what: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {} but the sequential reference gives {}",
            got[i], want[i]
        )),
    }
}

fn upload(tr: &mut Tracer, m: &Matrix<f32>) -> Result<(), String> {
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .map_err(|e| e.to_string())?;
    let ctx = m.ctx().clone();
    tr.span("skelcl.upload", None, 0, ctx.platform(), || {
        m.ensure_on_devices()
    })
    .map_err(|e| e.to_string())
}

/// Sizes below move with the seed by a few elements, so that modeled
/// times differ between seeds: a deterministic model over a fixed shape
/// would read the same for every seed. They move down from a multiple of
/// the work-group size, so the number of work-groups stays the same.
fn jitter(rng: &mut Rng) -> usize {
    rng.below(4) as usize
}

/// A square-ish grid whose column count the seed moves.
fn grid_dims(seed: u64, size: Size) -> (usize, usize) {
    let cols = match size {
        Size::Full => 1024,
        Size::Tiny => 20,
    };
    let rows = cols;
    (rows, cols - jitter(&mut Rng::new(seed, 7)))
}

// ---------------------------------------------------------------- osem

/// SkelCL list-mode OSEM (paper Fig. 2) at `OsemParams::bench_scale`.
pub struct Osem {
    ctx: Context,
    volume: Volume,
    subsets: Vec<Vec<Event>>,
    last: Vec<f32>,
}

impl Workload for Osem {
    fn setup(
        seed: u64,
        size: Size,
        platform: Platform,
        _scratch: PathBuf,
        _tr: &mut Tracer,
    ) -> Result<Self, String> {
        let base = match size {
            Size::Full => OsemParams::bench_scale(),
            Size::Tiny => OsemParams::test_scale(),
        };
        let params = OsemParams { seed, ..base };
        let subsets = params.generate_subsets();
        let ctx = Context::from_platform(platform, DEFAULT_WORK_GROUP);
        // One subset runs every kernel and redistribution of a full pass.
        skelcl_osem::skelcl_impl::reconstruct(&ctx, &params.volume, &subsets[..1])
            .map_err(|e| e.to_string())?;
        Ok(Osem {
            ctx,
            volume: params.volume,
            subsets,
            last: Vec::new(),
        })
    }

    fn context(&self) -> &Context {
        &self.ctx
    }

    fn rep(&mut self, tr: &mut Tracer, parent: Option<u64>, group: u64) -> RepOutcome {
        let mut out = RepOutcome::default();
        let image = tr.span(
            "osem.reconstruct",
            parent,
            group,
            self.ctx.platform(),
            || skelcl_osem::skelcl_impl::reconstruct(&self.ctx, &self.volume, &self.subsets),
        );
        if let Some(image) = out.call(image) {
            self.last = image;
        }
        out
    }

    fn check(&mut self) -> Result<(), String> {
        let want = skelcl_osem::seq::reconstruct(&self.volume, &self.subsets);
        let diff = skelcl_osem::metrics::relative_l2(&self.last, &want);
        // The osem crate's own tolerance for its SkelCL implementation.
        if diff < 1e-4 {
            Ok(())
        } else {
            Err(format!(
                "osem: relative L2 difference {diff} from the sequential reference"
            ))
        }
    }
}

// ---------------------------------------------------------------- heat

/// Jacobi heat relaxation: `Stencil2D::iterate` (overlapped schedule) on a
/// row-block plate with one halo row.
pub struct Heat {
    ctx: Context,
    rows: usize,
    cols: usize,
    iters: usize,
    plate: Vec<f32>,
    matrix: Matrix<f32>,
    last: Option<Matrix<f32>>,
}

/// A plate at a seeded background temperature with seeded hot and cold
/// rectangles.
fn seeded_plate(seed: u64, rows: usize, cols: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed, 1);
    let mut plate = vec![rng.uniform(-10.0, 10.0); rows * cols];
    for _ in 0..8 {
        let temp = rng.uniform(-100.0, 100.0);
        let (r0, c0) = (
            rng.below(rows as u64) as usize,
            rng.below(cols as u64) as usize,
        );
        let (h, w) = (
            1 + rng.below(rows as u64 / 3) as usize,
            1 + rng.below(cols as u64 / 3) as usize,
        );
        for r in r0..(r0 + h).min(rows) {
            plate[r * cols + c0..r * cols + (c0 + w).min(cols)].fill(temp);
        }
    }
    plate
}

impl Workload for Heat {
    fn setup(
        seed: u64,
        size: Size,
        platform: Platform,
        _scratch: PathBuf,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let (rows, cols) = grid_dims(seed, size);
        let iters = match size {
            Size::Full => 20,
            Size::Tiny => 3,
        };
        let plate = seeded_plate(seed, rows, cols);
        let ctx = Context::from_platform(platform, DEFAULT_WORK_GROUP);
        let matrix = Matrix::from_vec(&ctx, rows, cols, plate.clone());
        upload(tr, &matrix)?;
        skelcl_iterative::skelcl_impl::heat_run(&matrix, 1).map_err(|e| e.to_string())?;
        Ok(Heat {
            ctx,
            rows,
            cols,
            iters,
            plate,
            matrix,
            last: None,
        })
    }

    fn context(&self) -> &Context {
        &self.ctx
    }

    fn prepare(&mut self) {
        // Free the previous result's device buffers outside the timing.
        self.last = None;
    }

    fn rep(&mut self, tr: &mut Tracer, parent: Option<u64>, group: u64) -> RepOutcome {
        let mut out = RepOutcome::default();
        let relaxed = tr.span("skelcl.iterate", parent, group, self.ctx.platform(), || {
            skelcl_iterative::skelcl_impl::heat_run(&self.matrix, self.iters)
        });
        self.last = out.call(relaxed);
        out
    }

    fn check(&mut self) -> Result<(), String> {
        let got = self
            .last
            .as_ref()
            .ok_or("heat: no repetition produced a result")?
            .to_vec()
            .map_err(|e| e.to_string())?;
        let want = skelcl_iterative::seq::heat_run(&self.plate, self.rows, self.cols, self.iters);
        bits_equal("heat", &got, &want)
    }
}

// ---------------------------------------------------------------- canny

/// Hysteresis thresholds of the canny label pipeline.
const CANNY_LO: f32 = 30.0;
const CANNY_HI: f32 = 90.0;

/// The fused canny label `Pipeline`, downloaded to the host.
pub struct Canny {
    ctx: Context,
    rows: usize,
    cols: usize,
    image: Vec<f32>,
    matrix: Matrix<f32>,
    last: Vec<f32>,
}

/// A grayscale image: smooth seeded waves, a seeded checkerboard of hard
/// edges and seeded texture noise.
fn seeded_image(seed: u64, rows: usize, cols: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed, 2);
    let (fr, fc) = (rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5));
    let (tile_r, tile_c) = (5 + rng.below(8) as usize, 5 + rng.below(8) as usize);
    let mut img = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let smooth = ((r as f32 * fr).sin() + (c as f32 * fc).cos()) * 40.0;
            let edge = if (r / tile_r + c / tile_c) % 2 == 0 {
                60.0
            } else {
                0.0
            };
            img.push(smooth + edge + rng.uniform(0.0, 12.0));
        }
    }
    img
}

impl Workload for Canny {
    fn setup(
        seed: u64,
        size: Size,
        platform: Platform,
        _scratch: PathBuf,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let (rows, cols) = grid_dims(seed, size);
        let image = seeded_image(seed, rows, cols);
        let ctx = Context::from_platform(platform, DEFAULT_WORK_GROUP);
        let matrix = Matrix::from_vec(&ctx, rows, cols, image.clone());
        upload(tr, &matrix)?;
        skelcl_imgproc::skelcl_impl::canny_labels(&matrix, Boundary2D::Neumann, CANNY_LO, CANNY_HI)
            .and_then(|m| m.to_vec())
            .map_err(|e| e.to_string())?;
        Ok(Canny {
            ctx,
            rows,
            cols,
            image,
            matrix,
            last: Vec::new(),
        })
    }

    fn context(&self) -> &Context {
        &self.ctx
    }

    fn prepare(&mut self) {
        self.last = Vec::new();
    }

    fn rep(&mut self, tr: &mut Tracer, parent: Option<u64>, group: u64) -> RepOutcome {
        let mut out = RepOutcome::default();
        let platform = self.ctx.platform().clone();
        let labels = tr.span("skelcl.pipeline", parent, group, &platform, || {
            skelcl_imgproc::skelcl_impl::canny_labels(
                &self.matrix,
                Boundary2D::Neumann,
                CANNY_LO,
                CANNY_HI,
            )
        });
        if let Some(labels) = out.call(labels) {
            let host = tr.span("skelcl.download", parent, group, &platform, || {
                labels.to_vec()
            });
            if let Some(host) = out.call(host) {
                self.last = host;
            }
        }
        out
    }

    fn check(&mut self) -> Result<(), String> {
        let want = skelcl_imgproc::seq::canny_labels(
            &self.image,
            self.rows,
            self.cols,
            Boundary2D::Neumann,
            CANNY_LO,
            CANNY_HI,
        );
        bits_equal("canny", &self.last, &want)
    }
}

// ---------------------------------------------------------------- serve

/// The shape of one tenant's jobs; the data is drawn fresh every round.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `a` and `b` are baked into the generated program, so they stay
    /// fixed per tenant: new values would be new programs to build.
    Axpb {
        a: f32,
        b: f32,
        len: usize,
    },
    RowSum {
        len: usize,
    },
    Jacobi {
        side: usize,
        iters: usize,
    },
    MatMul {
        side: usize,
    },
}

struct Tenant {
    id: TenantId,
    home: usize,
    shape: Shape,
    burst: usize,
}

/// One `Executor` serving 16 tenants; every round is a closed burst.
pub struct Serve {
    exec: Executor,
    tenants: Vec<Tenant>,
    rng: Rng,
    scratch: PathBuf,
    /// The next round's jobs as (tenant index, job), generated before the
    /// round is timed, and the generator state that produced them.
    next: Vec<(usize, Job)>,
    next_from: Rng,
    /// The generator state of the last finished round and its outputs by
    /// job index; the check regenerates the jobs from the state.
    last_from: Rng,
    last: Vec<(usize, JobOutput)>,
    /// Picks the jobs of each earlier round that are checked.
    sampler: Rng,
    /// Where jobs run alone for the check; made at the first check.
    alone: Option<Context>,
    /// The first mismatch or failure found in an earlier round.
    mismatch: Option<String>,
}

impl Serve {
    fn make_job(rng: &mut Rng, shape: Shape) -> Job {
        match shape {
            Shape::Axpb { a, b, len } => Job::Axpb {
                a,
                b,
                data: rng.vec(len, -1.0, 1.0),
            },
            Shape::RowSum { len } => Job::RowSum {
                data: rng.vec(len, -1.0, 1.0),
            },
            Shape::Jacobi { side, iters } => Job::Jacobi {
                rows: side,
                cols: side,
                iters,
                data: rng.vec(side * side, -100.0, 100.0),
            },
            Shape::MatMul { side } => Job::MatMul {
                m: side,
                k: side,
                n: side,
                a: rng.vec(side * side, -1.0, 1.0),
                b: rng.vec(side * side, -1.0, 1.0),
            },
        }
    }

    /// One burst: every tenant's backlog, tenant by tenant.
    fn burst(tenants: &[Tenant], rng: &mut Rng) -> Vec<(usize, Job)> {
        let mut jobs = Vec::new();
        for (t, tenant) in tenants.iter().enumerate() {
            for _ in 0..tenant.burst {
                jobs.push((t, Self::make_job(rng, tenant.shape)));
            }
        }
        jobs
    }

    /// Compare the last round's outputs at job indices `picked` (all when
    /// `None`) with each job run alone, as a batch of one, on a platform of
    /// its own.
    fn check_last(&mut self, picked: Option<&[usize]>) -> Result<(), String> {
        let ctx = self.alone.get_or_insert_with(|| {
            Context::from_platform(
                cache_platform(self.scratch.join("alone")),
                DEFAULT_WORK_GROUP,
            )
        });
        let jobs = Self::burst(&self.tenants, &mut self.last_from.clone());
        for (i, got) in &self.last {
            if picked.is_some_and(|p| !p.contains(i)) {
                continue;
            }
            let (t, job) = &jobs[*i];
            let (want, _) = run_job(ctx, self.tenants[*t].home, job).map_err(|e| e.to_string())?;
            outputs_equal(got, &want)
                .map_err(|e| format!("{} job of tenant {t}: {e}", job.kind()))?;
        }
        Ok(())
    }

    /// One seeded job index per tenant of a round.
    fn sample(&mut self) -> Vec<usize> {
        let mut first = 0;
        let mut picked = Vec::with_capacity(self.tenants.len());
        for tenant in &self.tenants {
            picked.push(first + self.sampler.below(tenant.burst as u64) as usize);
            first += tenant.burst;
        }
        picked
    }

    /// Submit the prepared burst, drain, and collect the results.
    fn round(&mut self, tr: &mut Tracer, parent: Option<u64>, group: u64) -> RepOutcome {
        let mut out = RepOutcome::default();
        let platform = self.exec.context().platform().clone();
        self.exec.pause();
        let jobs = std::mem::take(&mut self.next);
        let mut submitted: Vec<(usize, JobHandle, f64)> = Vec::with_capacity(jobs.len());
        let open = tr.begin("executor.submit", parent, group, &platform);
        for (i, (t, job)) in jobs.into_iter().enumerate() {
            out.attempted += 1;
            let at = tr.host_now_s();
            match self.exec.submit(self.tenants[t].id, job) {
                Ok(h) => submitted.push((i, h, at)),
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e.to_string());
                }
            }
        }
        tr.end(open, &platform);
        tr.span("executor.drain", parent, group, &platform, || {
            self.exec.drain()
        });
        self.last_from = self.next_from.clone();
        for (i, handle, submitted_at) in submitted {
            match handle.wait() {
                Ok((output, report)) => {
                    out.job_latency_s.push(report.latency_s());
                    out.service_s.push(report.service_s());
                    if tr.is_on() {
                        let done_at = tr.host_now_s();
                        let span = |name, parent, start, end| Span {
                            id: 0,
                            parent,
                            group: (group << 20) | i as u64,
                            name,
                            host_start_s: submitted_at,
                            host_end_s: done_at,
                            modeled_start_s: start,
                            modeled_end_s: end,
                        };
                        let job_id = tr.record(span(
                            "executor.job",
                            parent,
                            report.submit_s,
                            report.ready_s,
                        ));
                        tr.record(span(
                            "executor.queue_wait",
                            Some(job_id),
                            report.submit_s,
                            report.start_s,
                        ));
                        tr.record(span(
                            "executor.service",
                            Some(job_id),
                            report.start_s,
                            report.ready_s,
                        ));
                    }
                    self.last.push((i, output));
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e.to_string());
                }
            }
        }
        out
    }
}

fn outputs_equal(got: &JobOutput, want: &JobOutput) -> Result<(), String> {
    match (got, want) {
        (JobOutput::Vector(g), JobOutput::Vector(w)) => bits_equal("serve vector", g, w),
        (JobOutput::Scalar(g), JobOutput::Scalar(w)) => bits_equal("serve scalar", &[*g], &[*w]),
        (
            JobOutput::Matrix { rows, cols, data },
            JobOutput::Matrix {
                rows: wr,
                cols: wc,
                data: wd,
            },
        ) if (rows, cols) == (wr, wc) => bits_equal("serve matrix", data, wd),
        _ => Err(format!("serve: output shape {got:?} differs from {want:?}")),
    }
}

impl Workload for Serve {
    /// At least 1000 jobs, so p99 has 10 samples beyond it.
    const MIN_REPS: usize = 5;

    fn setup(
        seed: u64,
        size: Size,
        platform: Platform,
        scratch: PathBuf,
        _tr: &mut Tracer,
    ) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 3);
        let scale = match size {
            Size::Full => 1,
            Size::Tiny => 8,
        };
        let mut shapes = Vec::new();
        for _ in 0..8 {
            let (a, b) = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0));
            let len = (512 - 4 * jitter(&mut rng)) / scale;
            shapes.push((Shape::Axpb { a, b, len }, 16));
        }
        for _ in 0..4 {
            let len = (2048 - 16 * jitter(&mut rng)) / scale;
            shapes.push((Shape::RowSum { len }, 16));
        }
        for _ in 0..2 {
            let side = (128 - jitter(&mut rng)) / scale;
            shapes.push((Shape::Jacobi { side, iters: 8 }, 4));
        }
        for _ in 0..2 {
            let side = (64 - jitter(&mut rng)) / scale;
            shapes.push((Shape::MatMul { side }, 4));
        }
        let burst_max = shapes.iter().map(|s| s.1).max().unwrap_or(1);
        let exec = Executor::from_platform(
            platform,
            ExecutorConfig::default()
                .devices(DEVICES)
                .queue_depth(burst_max)
                .max_batch(16)
                .paused(),
        );
        let tenants = shapes
            .into_iter()
            .enumerate()
            .map(|(i, (shape, burst))| Tenant {
                id: exec.add_tenant(format!("t{i:02}"), 1),
                // `Executor::add_tenant` homes tenants round-robin.
                home: i % DEVICES,
                shape,
                burst,
            })
            .collect();
        let mut serve = Serve {
            exec,
            tenants,
            next_from: rng.clone(),
            last_from: rng.clone(),
            rng,
            scratch,
            next: Vec::new(),
            last: Vec::new(),
            sampler: Rng::new(seed, 4),
            alone: None,
            mismatch: None,
        };
        serve.prepare();
        // The warm-up round's spans would count among the measured ones.
        let warm = serve.round(&mut Tracer::new(false), None, 0);
        if warm.failed > 0 {
            return Err(format!("serve warm-up failed: {}", warm.errors.join("; ")));
        }
        Ok(serve)
    }

    fn context(&self) -> &Context {
        self.exec.context()
    }

    /// Also checks a seeded sample of the finished round (one job per
    /// tenant), so that every round is checked, not only the last one.
    fn prepare(&mut self) {
        if !self.last.is_empty() && self.mismatch.is_none() {
            let picked = self.sample();
            self.mismatch = self
                .check_last(Some(&picked))
                .err()
                .map(|e| format!("serve: an earlier round: {e}"));
        }
        self.last.clear();
        self.next_from = self.rng.clone();
        self.next = Self::burst(&self.tenants, &mut self.rng);
    }

    fn rep(&mut self, tr: &mut Tracer, parent: Option<u64>, group: u64) -> RepOutcome {
        self.round(tr, parent, group)
    }

    fn check(&mut self) -> Result<(), String> {
        if let Some(e) = self.mismatch.take() {
            return Err(e);
        }
        if self.last.is_empty() {
            return Err("serve: no round completed a job".into());
        }
        self.check_last(None)
    }
}
