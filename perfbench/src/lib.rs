//! # perfbench — the repository benchmark
//!
//! Runs one named workload (`osem`, `heat`, `serve`, `canny`) from a seed,
//! checks its output against the sequential references, and reports every
//! metric by name and unit. See `README.md` in this directory for the
//! clocks, the metric table and how to run it.
//!
//! The layers are measured from outside: the benchmark times the public
//! calls it makes and reads the public counters of `vgpu`, `skelcl` and
//! `skelcl-executor`. Nothing inside the library is instrumented.

pub mod measure;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use skelcl::RunReport;
use vgpu::DriverProfile;

use measure::{
    counter_delta, counters, median, modeled_now, peak_rss_mib, quantile, BuildCounters, Tracer,
};
use workloads::{cache_platform, Canny, Heat, Osem, RepOutcome, Serve, Size, Workload};

pub const WORKLOADS: [&str; 4] = ["osem", "heat", "serve", "canny"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("modeled_s", "s"),
    ("setup_s", "s"),
    ("host_rss_mb", "MiB"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup.wall_s", "s"),
    ("vgpu.kernel_launches", "count"),
    ("vgpu.wall_ns_per_launch", "ns"),
    ("vgpu.kernel_cu_cycles", "cycles"),
    ("vgpu.wall_ns_per_kcycle", "ns"),
    ("vgpu.kernel_global_bytes", "bytes"),
    ("vgpu.kernel_busy_s", "s"),
    ("vgpu.h2d_bytes", "bytes"),
    ("vgpu.d2h_bytes", "bytes"),
    ("vgpu.d2d_bytes", "bytes"),
    ("vgpu.transfers", "count"),
    ("vgpu.compute_busy_frac", "ratio"),
    ("vgpu.copy_busy_frac", "ratio"),
    ("vgpu.copy_under_compute_s", "s"),
    ("vgpu.source_builds", "count"),
    ("vgpu.cache_loads", "count"),
    ("vgpu.build_s", "s"),
    ("skelcl.upload.wall_s", "s"),
    ("skelcl.upload.modeled_s", "s"),
    ("skelcl.download.wall_s", "s"),
    ("skelcl.download.modeled_s", "s"),
    ("skelcl.iterate.wall_s", "s"),
    ("skelcl.iterate.modeled_s", "s"),
    ("skelcl.halo_exchanges", "count"),
    ("skelcl.pipeline.wall_s", "s"),
    ("skelcl.pipeline.modeled_s", "s"),
    ("skelcl.pipeline.groups", "count"),
    ("skelcl.pipeline.stages_fused", "count"),
    ("skelcl.program_cache.hits", "count"),
    ("skelcl.program_cache.misses", "count"),
    ("skelcl.program_cache.evictions", "count"),
    ("osem.reconstruct.wall_s", "s"),
    ("osem.reconstruct.modeled_s", "s"),
    ("executor.submit.wall_s", "s"),
    ("executor.drain.wall_s", "s"),
    ("executor.batches", "count"),
    ("executor.coalesced_jobs", "count"),
    ("executor.jobs_per_batch", "ratio"),
    ("executor.service_p50_s", "s"),
    ("executor.service_p99_s", "s"),
    ("executor.jobs.rejected", "count"),
    ("trace.span_overhead_frac", "ratio"),
    ("trace.timeline_overhead_frac", "ratio"),
];

/// Counters reported per repetition under their own names.
const REP_COUNTERS: &[&str] = &[
    "vgpu.kernel_launches",
    "vgpu.kernel_cu_cycles",
    "vgpu.kernel_global_bytes",
    "vgpu.h2d_bytes",
    "vgpu.d2h_bytes",
    "vgpu.d2d_bytes",
    "skelcl.halo_exchanges",
    "skelcl.pipeline.groups",
    "skelcl.pipeline.stages_fused",
    "skelcl.program_cache.hits",
    "executor.batches",
    "executor.coalesced_jobs",
    "executor.jobs.rejected",
];

/// Counters reported for the set-up; each is asserted 0 inside every
/// measured window.
const SETUP_COUNTERS: &[&str] = &[
    "vgpu.source_builds",
    "vgpu.cache_loads",
    "skelcl.program_cache.misses",
    "skelcl.program_cache.evictions",
];

/// Spans whose median host and modeled durations are reported as
/// `<name>.wall_s` and `<name>.modeled_s`.
const TIMED_SPANS: &[&str] = &[
    "skelcl.upload",
    "skelcl.download",
    "skelcl.iterate",
    "skelcl.pipeline",
    "osem.reconstruct",
];

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Host seconds of measured repetitions (the last one may overrun).
    pub seconds: f64,
    /// Off: end-to-end metrics. On: per-layer metrics from a traced run.
    pub trace: bool,
    pub size: Size,
    /// Where per-set-up kernel caches and the span file go.
    pub out_dir: PathBuf,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fills a report's metrics from one of the tables, refusing names the
/// table does not list and checking at the end that none is missing.
struct MetricSink {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSink {
    fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSink {
            table,
            values: BTreeMap::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        let &(key, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric table"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(key, value);
    }

    fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(n, u)| {
                let v = *self
                    .values
                    .get(n)
                    .unwrap_or_else(|| panic!("metric {n} was not measured"));
                (n, v, u)
            })
            .collect()
    }
}

/// What a measured window records besides wall and modeled time. A
/// traced run measures one window of each, so that the span and
/// timeline-trace overheads show against the plain window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing recorded: the end-to-end window.
    Plain,
    /// Benchmark spans and per-repetition counter deltas.
    Spans,
    /// The library's engine timeline trace and counter deltas (no spans).
    Timeline,
}

/// One measured repetition's samples.
struct RepSample {
    wall_s: f64,
    modeled_s: f64,
    outcome: RepOutcome,
    /// Counter deltas (all but the plain phase).
    counters: Option<BTreeMap<String, u64>>,
    /// Compute-busy fraction, copy-busy fraction and copy-under-compute
    /// seconds (timeline phase only).
    engines: Option<(f64, f64, f64)>,
}

/// Run the configured workload. `Err` for a usage error, a failed set-up
/// or a build inside a measured window; a wrong output is a report with
/// `correct: false`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "osem" => run_with::<Osem>(cfg),
        "heat" => run_with::<Heat>(cfg),
        "serve" => run_with::<Serve>(cfg),
        "canny" => run_with::<Canny>(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Engine occupancy of one repetition from its timeline trace.
fn engine_figures(
    platform: &vgpu::Platform,
    delta: vgpu::StatsSnapshot,
    modeled_s: f64,
) -> (f64, f64, f64) {
    let timeline = platform.take_timeline_trace();
    let report = RunReport::collect(
        "perfbench",
        platform,
        DriverProfile::skelcl().compute_efficiency,
        delta,
        &timeline,
        modeled_s,
    );
    let lanes = platform.n_devices() as f64 * modeled_s;
    let sum = |f: fn(&skelcl::report::DeviceUtilization) -> f64| {
        report.devices.iter().map(f).sum::<f64>()
    };
    (
        sum(|d| d.compute_busy_s) / lanes,
        sum(|d| d.copy_busy_s) / lanes,
        sum(|d| d.overlap_s),
    )
}

/// Measure one repetition: reset the modeled clocks, run, join every
/// device, and assert that nothing was built in between.
fn measure_rep<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    phase: Phase,
    group: u64,
) -> Result<RepSample, String> {
    let ctx = w.context().clone();
    let platform = ctx.platform().clone();
    platform.reset_clocks();
    let builds = BuildCounters::read(&ctx);
    let before = (phase != Phase::Plain).then(|| (counters(&ctx), platform.stats_snapshot()));
    let t = Instant::now();
    let open = tr.begin("rep", None, group, &platform);
    let parent = tr.is_on().then(|| open.id());
    let outcome = w.rep(tr, parent, group);
    platform.sync_all();
    tr.end(open, &platform);
    let wall_s = t.elapsed().as_secs_f64();
    let modeled_s = platform.host_now_s();
    BuildCounters::read(&ctx).assert_no_build_since(&builds)?;
    let counters = before
        .as_ref()
        .map(|(c, _)| counter_delta(c, &counters(&ctx)));
    let engines = match (&before, phase) {
        (Some((_, stats)), Phase::Timeline) => Some(engine_figures(
            &platform,
            platform.stats_snapshot() - *stats,
            modeled_s,
        )),
        _ => None,
    };
    Ok(RepSample {
        wall_s,
        modeled_s,
        outcome,
        counters,
        engines,
    })
}

/// Measure repetitions for at least `seconds` and `W::MIN_REPS`; stop
/// early after a repetition with a failed operation. Also returns the peak
/// resident set after `W::MIN_REPS` repetitions: later ones only add the
/// samples a longer (faster) run keeps, which is not the workload's memory.
fn measure_window<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    phase: Phase,
    seconds: f64,
    first_group: u64,
) -> Result<(Vec<RepSample>, f64), String> {
    tr.set_on(phase == Phase::Spans);
    if phase == Phase::Timeline {
        w.context().platform().enable_timeline_trace();
    }
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut rss_mib = None;
    while reps.len() < W::MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        w.prepare();
        let rep = measure_rep(w, tr, phase, first_group + reps.len() as u64)?;
        let failed = rep.outcome.failed > 0;
        reps.push(rep);
        if reps.len() == W::MIN_REPS || failed {
            rss_mib.get_or_insert(peak_rss_mib()?);
        }
        if failed {
            break;
        }
    }
    Ok((reps, rss_mib.expect("MIN_REPS repetitions ran")))
}

/// The duration of one set-up on both clocks.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    /// The modeled frontier when the set-up returns; the platform's
    /// clocks start at 0 when it is created.
    modeled_s: f64,
    wall_s: f64,
}

/// Set up `cfg.setups` times, each on a fresh platform with a cold
/// private kernel cache, and keep the last instance. Returns it with
/// every set-up's times.
fn set_up<W: Workload>(
    cfg: &RunConfig,
    tr: &mut Tracer,
    scratch_dirs: &mut Vec<PathBuf>,
) -> Result<(W, Vec<SetupTime>), String> {
    let setups = cfg.setups.max(1);
    let mut setup_s = Vec::new();
    let mut instance: Option<W> = None;
    tr.set_on(cfg.trace);
    for k in 0..setups {
        drop(instance.take());
        let scratch =
            cfg.out_dir
                .join(format!("setup-{}-{}-{k}", cfg.workload, std::process::id()));
        // A stale directory would make the set-up warm.
        let _ = std::fs::remove_dir_all(&scratch);
        scratch_dirs.push(scratch.clone());
        let t = Instant::now();
        let platform = cache_platform(scratch.join("kernels"));
        let w = W::setup(cfg.seed, cfg.size, platform, scratch, tr)?;
        setup_s.push(SetupTime {
            wall_s: t.elapsed().as_secs_f64(),
            modeled_s: modeled_now(w.context().platform()),
        });
        instance = Some(w);
    }
    Ok((instance.expect("at least one set-up ran"), setup_s))
}

/// The windows of one run, by phase, and the plain window's peak resident
/// set.
struct Windows {
    plain: Vec<RepSample>,
    spans: Vec<RepSample>,
    timeline: Vec<RepSample>,
    rss_mib: f64,
}

fn measure_windows<W: Workload>(
    w: &mut W,
    tr: &mut Tracer,
    cfg: &RunConfig,
) -> Result<Windows, String> {
    if !cfg.trace {
        let (plain, rss_mib) = measure_window(w, tr, Phase::Plain, cfg.seconds, 0)?;
        return Ok(Windows {
            plain,
            spans: Vec::new(),
            timeline: Vec::new(),
            rss_mib,
        });
    }
    let third = cfg.seconds / 3.0;
    let (plain, rss_mib) = measure_window(w, tr, Phase::Plain, third, 0)?;
    let (spans, _) = measure_window(w, tr, Phase::Spans, third, plain.len() as u64)?;
    let next = (plain.len() + spans.len()) as u64;
    let (timeline, _) = measure_window(w, tr, Phase::Timeline, third, next)?;
    Ok(Windows {
        plain,
        spans,
        timeline,
        rss_mib,
    })
}

/// Run workload `W` (any implementation, not only the four named ones).
pub fn run_with<W: Workload>(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let mut tr = Tracer::new(false);
    let mut scratch_dirs = Vec::new();
    let measured = set_up::<W>(cfg, &mut tr, &mut scratch_dirs).and_then(|(mut w, setup_s)| {
        let setup_counters = counters(w.context());
        let windows = measure_windows(&mut w, &mut tr, cfg)?;
        Ok((w, setup_s, setup_counters, windows))
    });
    let (mut w, setup_s, setup_counters, windows) = match measured {
        Ok(m) => m,
        Err(e) => {
            cleanup(&scratch_dirs);
            return Err(e);
        }
    };

    let all = || {
        windows
            .plain
            .iter()
            .chain(&windows.spans)
            .chain(&windows.timeline)
    };
    let attempted: u64 = all().map(|r| r.outcome.attempted).sum();
    let failed: u64 = all().map(|r| r.outcome.failed).sum();
    let mut notes: Vec<String> = all()
        .flat_map(|r| &r.outcome.errors)
        .take(5)
        .map(|e| format!("error: {e}"))
        .collect();

    // Output check, outside every timed window.
    let t = Instant::now();
    let check = if failed == 0 {
        w.check()
    } else {
        Err("operations failed".to_string())
    };
    notes.push(format!(
        "check: {} ({:.2} s)",
        check.as_ref().map_or_else(
            |e| e.as_str(),
            |_| "outputs match the sequential references"
        ),
        t.elapsed().as_secs_f64()
    ));
    drop(w);
    cleanup(&scratch_dirs);
    notes.push(format!(
        "{}: {} measured repetitions, failed_frac {} ({failed}/{attempted})",
        cfg.workload,
        all().count(),
        failed as f64 / attempted.max(1) as f64
    ));

    let metrics = if cfg.trace {
        per_layer_metrics(&windows, &setup_s, &setup_counters, &tr, &mut notes)
    } else {
        end_to_end_metrics(&windows, &setup_s, &mut notes)
    };
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("spans-{}-{}.json", cfg.workload, cfg.seed));
        tr.write_json(&path)?;
        notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        ));
    }
    Ok(Report {
        correct: check.is_ok(),
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn cleanup(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn walls(reps: &[RepSample]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

fn end_to_end_metrics(
    windows: &Windows,
    setups: &[SetupTime],
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let setup_s: Vec<f64> = setups.iter().map(|t| t.modeled_s).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    let plain = &windows.plain;
    let modeled: Vec<f64> = plain.iter().map(|r| r.modeled_s).collect();
    let mut latency: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.outcome.job_latency_s.iter().copied())
        .collect();
    let request = if latency.is_empty() {
        latency = modeled.clone();
        "repetition"
    } else {
        "job"
    };
    let wall = walls(plain);
    notes.push(format!(
        "latency: {} samples, one per {request}; setup_s: median modeled seconds of {} set-ups \
         (min {}, max {}); host wall seconds of a set-up: median {} (min {}, max {})",
        latency.len(),
        setup_s.len(),
        quantile(&setup_s, 0.0),
        quantile(&setup_s, 1.0),
        median(&setup_wall),
        quantile(&setup_wall, 0.0),
        quantile(&setup_wall, 1.0),
    ));
    // Host wall time moves too much with the machine's other load to carry
    // a bound; it is a per-layer metric, and printed here for people.
    notes.push(format!(
        "wall_s = {} s: median of {} repetitions (min {}, p90 {})",
        median(&wall),
        plain.len(),
        quantile(&wall, 0.0),
        quantile(&wall, 0.9),
    ));
    let mut m = MetricSink::new(END_TO_END);
    m.put("modeled_s", median(&modeled));
    m.put("setup_s", median(&setup_s));
    m.put("host_rss_mb", windows.rss_mib);
    m.put("latency_p50_s", quantile(&latency, 0.50));
    m.put("latency_p99_s", quantile(&latency, 0.99));
    m.finish()
}

fn per_layer_metrics(
    windows: &Windows,
    setups: &[SetupTime],
    setup: &BTreeMap<String, u64>,
    tr: &Tracer,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    fn first(reps: &[RepSample]) -> &RepSample {
        reps.first().expect("every traced window ran")
    }
    let rep = first(&windows.spans)
        .counters
        .as_ref()
        .expect("span repetitions count");
    let get = |m: &BTreeMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
    let plain_wall = median(&walls(&windows.plain));
    let spans_wall = median(&walls(&windows.spans));
    let timeline_wall = median(&walls(&windows.timeline));
    notes.push(format!(
        "per-layer counts are per repetition; median wall_s: plain {plain_wall} s, \
         with spans {spans_wall} s, with the timeline trace {timeline_wall} s"
    ));

    let mut m = MetricSink::new(PER_LAYER);
    m.put("wall_s", plain_wall);
    let setup_wall: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    m.put("setup.wall_s", median(&setup_wall));
    for &name in REP_COUNTERS {
        m.put(name, get(rep, name));
    }
    for &name in SETUP_COUNTERS {
        m.put(name, get(setup, name));
    }
    m.put("vgpu.build_s", get(setup, "vgpu.build_virtual_ns") * 1e-9);
    m.put("vgpu.kernel_busy_s", get(rep, "vgpu.kernel_busy_ns") * 1e-9);
    m.put(
        "vgpu.transfers",
        [
            "vgpu.h2d_transfers",
            "vgpu.d2h_transfers",
            "vgpu.d2d_transfers",
        ]
        .iter()
        .map(|k| get(rep, k))
        .sum(),
    );
    let per = |x: f64| if x > 0.0 { plain_wall * 1e9 / x } else { 0.0 };
    m.put(
        "vgpu.wall_ns_per_launch",
        per(get(rep, "vgpu.kernel_launches")),
    );
    m.put(
        "vgpu.wall_ns_per_kcycle",
        per(get(rep, "vgpu.kernel_cu_cycles") / 1e3),
    );
    let (compute, copy, overlap) = first(&windows.timeline)
        .engines
        .expect("timeline repetitions carry engine figures");
    m.put("vgpu.compute_busy_frac", compute);
    m.put("vgpu.copy_busy_frac", copy);
    m.put("vgpu.copy_under_compute_s", overlap);

    for &name in TIMED_SPANS {
        let (wall, modeled) = tr.medians(name).unwrap_or((0.0, 0.0));
        m.put(&format!("{name}.wall_s"), wall);
        m.put(&format!("{name}.modeled_s"), modeled);
    }
    for name in ["executor.submit", "executor.drain"] {
        m.put(
            &format!("{name}.wall_s"),
            tr.medians(name).map_or(0.0, |(w, _)| w),
        );
    }
    let batches = get(rep, "executor.batches");
    let jobs = get(rep, "executor.jobs.completed");
    m.put(
        "executor.jobs_per_batch",
        if batches > 0.0 { jobs / batches } else { 0.0 },
    );
    let services: Vec<f64> = windows
        .spans
        .iter()
        .flat_map(|r| r.outcome.service_s.iter().copied())
        .collect();
    let q = |p: f64| {
        if services.is_empty() {
            0.0
        } else {
            quantile(&services, p)
        }
    };
    m.put("executor.service_p50_s", q(0.50));
    m.put("executor.service_p99_s", q(0.99));
    m.put("trace.span_overhead_frac", spans_wall / plain_wall - 1.0);
    m.put(
        "trace.timeline_overhead_frac",
        timeline_wall / plain_wall - 1.0,
    );
    m.finish()
}
