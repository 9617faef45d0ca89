//! Exporters over the telemetry layer: Chrome trace JSON, plain-text run
//! reports, and the roofline (% of modeled peak) report.
//!
//! Three consumers, three shapes:
//!
//! * [`chrome_trace_json`] merges skeleton [`SpanRecord`]s with the
//!   platform's per-engine [`vgpu::CommandRecord`] timeline into the Chrome
//!   trace-event format — load the file in Perfetto or `chrome://tracing`
//!   and every device shows its compute and copy engine as separate tracks
//!   under the skeleton spans that scheduled the work.
//! * [`RunReport`] (and its `Display`) summarises one measured run:
//!   counter deltas, per-device/per-engine utilization, copy-under-compute
//!   overlap, and the roofline verdict.
//! * [`roofline_report`] compares what a run moved and computed against the
//!   cost model's own peaks ([`vgpu::DeviceSpec`] clock/bandwidth,
//!   [`vgpu::topology::Topology`] link bandwidth) — the "% of modeled peak" number
//!   ROADMAP item 3 asks every figure to print.
//!
//! The crate deliberately has no serde dependency; the exporter hand-rolls
//! its JSON and the [`json`] submodule provides the minimal parser the
//! round-trip tests (and CI's validity gate) use.

use crate::metrics::{HistogramSnapshot, MetricsRegistry};
use crate::trace::SpanRecord;
use std::fmt::Write as _;
use vgpu::{
    compute_copy_overlap_s, engine_usage, CommandRecord, EngineKind, Platform, StatsSnapshot,
};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 as a JSON number (non-finite values degrade to 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Virtual seconds → trace-event microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Process id of the first tenant lane in [`chrome_trace_json`]. Devices
/// occupy `1 + d`, so the base leaves room for 99 devices before a
/// collision — far above any modeled platform.
const TENANT_PID_BASE: usize = 100;

/// Export skeleton spans plus the engine timeline as Chrome trace-event
/// JSON (the `{"traceEvents": [...]}` object form).
///
/// Layout: process 0 is the SkelCL span track (one thread per nesting
/// depth); process `1 + d` is device `d`, with thread 0 the compute engine
/// and thread 1 the copy engine. Executor job spans (name `executor.job*`
/// carrying a `tenant` attr) get one process per tenant starting at pid
/// 100, with thread 0 the whole-job span, thread 1 queue wait, and thread
/// 2 service — so Perfetto shows a serving lane per tenant. All events are
/// `ph: "X"` (complete) events with microsecond timestamps on the virtual
/// clock.
pub fn chrome_trace_json(spans: &[SpanRecord], trace: &[CommandRecord]) -> String {
    let mut events: Vec<String> = Vec::new();

    // Metadata: name the span process/threads.
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"skelcl spans\"}}"
            .to_string(),
    );

    fn tenant_of(s: &SpanRecord) -> Option<&str> {
        if !s.name.starts_with("executor.job") {
            return None;
        }
        s.attrs
            .iter()
            .find(|(k, _)| *k == "tenant")
            .map(|(_, v)| v.as_str())
    }

    // Tenant lanes in first-appearance order, so pid assignment is stable
    // across exports of the same run.
    let mut tenants: Vec<&str> = Vec::new();
    for s in spans {
        if let Some(t) = tenant_of(s) {
            if !tenants.contains(&t) {
                tenants.push(t);
            }
        }
    }
    for (i, t) in tenants.iter().enumerate() {
        let pid = TENANT_PID_BASE + i;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"tenant:{}\"}}}}",
            json_escape(t)
        ));
        for (tid, lane) in [(0, "jobs"), (1, "queue wait"), (2, "service")] {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{lane}\"}}}}"
            ));
        }
    }

    // Span nesting depth = distance to the root through parent links.
    let depth_of = |span: &SpanRecord| -> usize {
        let mut depth = 0;
        let mut cur = span.parent;
        while let Some(pid) = cur {
            depth += 1;
            cur = spans.iter().find(|s| s.id == pid).and_then(|s| s.parent);
            if depth > spans.len() {
                break; // defensive: cycles cannot happen, but never loop
            }
        }
        depth
    };

    for s in spans {
        let mut args = String::new();
        let _ = write!(
            args,
            "\"span_id\":{},\"halo_exchanges\":{},\"program_cache_hits\":{},\
             \"program_cache_misses\":{},\"h2d_bytes\":{},\"d2h_bytes\":{},\
             \"d2d_bytes\":{},\"kernel_launches\":{},\"trace_first\":{},\"trace_len\":{}",
            s.id,
            s.halo_exchanges,
            s.program_cache_hits,
            s.program_cache_misses,
            s.stats.h2d_bytes,
            s.stats.d2h_bytes,
            s.stats.d2d_bytes,
            s.stats.kernel_launches,
            s.trace_first,
            s.trace_len,
        );
        if let Some(p) = s.parent {
            let _ = write!(args, ",\"parent\":{p}");
        }
        for (k, v) in &s.attrs {
            let _ = write!(args, ",\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        // Executor job spans route to their tenant's lane; everything else
        // stacks by nesting depth on the span process.
        let (cat, pid, tid) = match tenant_of(s) {
            Some(t) => {
                let pid = TENANT_PID_BASE + tenants.iter().position(|x| *x == t).unwrap_or(0);
                let tid = match s.name {
                    "executor.job.queue_wait" => 1,
                    "executor.job.service" => 2,
                    _ => 0,
                };
                ("serving", pid, tid)
            }
            None => ("skeleton", 0, depth_of(s)),
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
            json_escape(s.name),
            cat,
            json_num(us(s.start_s)),
            json_num(us(s.duration_s())),
            pid,
            tid,
            args,
        ));
    }

    let mut devices: Vec<usize> = trace.iter().map(|r| r.device.0).collect();
    devices.sort_unstable();
    devices.dedup();
    for d in &devices {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"gpu{}\"}}}}",
            d + 1,
            d
        ));
        for (tid, engine) in [(0, "compute engine"), (1, "copy engine")] {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                d + 1,
                tid,
                engine
            ));
        }
    }

    for (i, r) in trace.iter().enumerate() {
        let (tid, name) = match r.engine {
            EngineKind::Compute => (0, "compute"),
            EngineKind::Copy => (1, "copy"),
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"record\":{},\"device\":{}}}}}",
            name,
            json_num(us(r.start_s)),
            json_num(us((r.end_s - r.start_s).max(0.0))),
            r.device.0 + 1,
            tid,
            i,
            r.device.0,
        ));
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// The roofline verdict for one measured window: what the run computed and
/// moved, against the cost model's own peak rates.
///
/// All "% of peak" numbers are *time floors*: e.g. `compute_floor_s` is how
/// long the window's kernel cycles would take with every device computing
/// at full modeled rate; `pct_peak_compute() = compute_floor_s / window_s`.
/// A run whose dominant floor reaches 100 % is running *at* the model's
/// roofline for that resource.
#[derive(Debug, Clone)]
pub struct RooflineReport {
    /// Measured window (virtual seconds).
    pub window_s: f64,
    pub n_devices: usize,
    /// Busiest-CU cycles summed over all launches in the window.
    pub kernel_cu_cycles: u64,
    /// Device-memory traffic generated by kernels (bytes).
    pub kernel_global_bytes: u64,
    /// Host-link crossings in bytes: h2d + d2h + 2 × d2d (a staged
    /// device-to-device copy crosses the bus twice).
    pub link_bytes: u64,
    /// Time the window's cycles need at full modeled compute rate.
    pub compute_floor_s: f64,
    /// Time the window's kernel memory traffic needs at full device
    /// memory bandwidth.
    pub memory_floor_s: f64,
    /// Time the window's PCIe traffic needs at full host-bus bandwidth.
    pub transfer_floor_s: f64,
    /// Aggregate modeled peak arithmetic rate (ops/s) across devices,
    /// after the driver's achieved-issue efficiency.
    pub peak_ops_s: f64,
    /// Aggregate device-memory bandwidth (bytes/s) across devices.
    pub peak_mem_bytes_s: f64,
    /// Host-bus bandwidth (bytes/s).
    pub peak_link_bytes_s: f64,
}

impl RooflineReport {
    fn pct_peak_compute(&self) -> f64 {
        pct(self.compute_floor_s, self.window_s)
    }

    fn pct_peak_membw(&self) -> f64 {
        pct(self.memory_floor_s, self.window_s)
    }

    fn pct_peak_linkbw(&self) -> f64 {
        pct(self.transfer_floor_s, self.window_s)
    }

    /// Which resource the run is closest to saturating.
    pub fn bound(&self) -> &'static str {
        let c = self.compute_floor_s;
        let m = self.memory_floor_s;
        let t = self.transfer_floor_s;
        if c >= m && c >= t {
            "compute"
        } else if m >= t {
            "memory"
        } else {
            "transfer"
        }
    }

    /// The headline number: how close the run is to the cost model's
    /// roofline bound, i.e. the largest of the three per-resource
    /// percentages. 100 % means the window is fully accounted for by its
    /// dominant resource.
    pub fn pct_of_modeled_peak(&self) -> f64 {
        self.pct_peak_compute()
            .max(self.pct_peak_membw())
            .max(self.pct_peak_linkbw())
    }

    /// Achieved arithmetic rate implied by the window (ops/s estimate).
    fn achieved_ops_s(&self) -> f64 {
        self.peak_ops_s * self.pct_peak_compute() / 100.0
    }

    /// Achieved device-memory bandwidth over the window (bytes/s).
    fn achieved_mem_bytes_s(&self) -> f64 {
        if self.window_s > 0.0 {
            self.kernel_global_bytes as f64 / self.window_s
        } else {
            0.0
        }
    }

    /// Achieved host-link bandwidth over the window (bytes/s).
    fn achieved_link_bytes_s(&self) -> f64 {
        if self.window_s > 0.0 {
            self.link_bytes as f64 / self.window_s
        } else {
            0.0
        }
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

impl std::fmt::Display for RooflineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "roofline over {:.3e} s on {} device(s): {} bound, {:.1}% of modeled peak",
            self.window_s,
            self.n_devices,
            self.bound(),
            self.pct_of_modeled_peak()
        )?;
        writeln!(
            f,
            "  compute : {:>6.1}% of peak ({:.3e} of {:.3e} ops/s)",
            self.pct_peak_compute(),
            self.achieved_ops_s(),
            self.peak_ops_s
        )?;
        writeln!(
            f,
            "  mem bw  : {:>6.1}% of peak ({:.3e} of {:.3e} B/s)",
            self.pct_peak_membw(),
            self.achieved_mem_bytes_s(),
            self.peak_mem_bytes_s
        )?;
        write!(
            f,
            "  link bw : {:>6.1}% of peak ({:.3e} of {:.3e} B/s)",
            self.pct_peak_linkbw(),
            self.achieved_link_bytes_s(),
            self.peak_link_bytes_s
        )
    }
}

/// Compute the roofline verdict for a measured window.
///
/// `delta` is the [`StatsSnapshot`] difference over the window and
/// `window_s` its length in virtual seconds; `compute_efficiency` is the
/// driver's achieved issue rate (e.g.
/// `DriverProfile::skelcl().compute_efficiency`). Device spec and topology
/// come from the platform (specs are uniform across devices here, as on
/// the paper's S1070).
pub fn roofline_report(
    platform: &Platform,
    compute_efficiency: f64,
    delta: StatsSnapshot,
    window_s: f64,
) -> RooflineReport {
    let n = platform.n_devices();
    let spec = *platform.device(0).spec();
    let topo = *platform.topology();
    let link_bytes = delta.h2d_bytes + delta.d2h_bytes + 2 * delta.d2d_bytes;
    let cycle_rate = spec.clock_hz * compute_efficiency;
    let compute_floor_s = delta.kernel_cu_cycles as f64 / (cycle_rate * n as f64);
    let memory_floor_s = delta.kernel_global_bytes as f64 / (spec.mem_bandwidth_bytes_s * n as f64);
    let transfer_floor_s = link_bytes as f64 / topo.host_bus_bytes_s;
    RooflineReport {
        window_s,
        n_devices: n,
        kernel_cu_cycles: delta.kernel_cu_cycles,
        kernel_global_bytes: delta.kernel_global_bytes,
        link_bytes,
        compute_floor_s,
        memory_floor_s,
        transfer_floor_s,
        peak_ops_s: spec.peak_ops_s() * compute_efficiency * n as f64,
        peak_mem_bytes_s: spec.mem_bandwidth_bytes_s * n as f64,
        peak_link_bytes_s: topo.host_bus_bytes_s,
    }
}

/// Per-device engine occupancy over one measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceUtilization {
    pub device: usize,
    pub compute_busy_s: f64,
    pub copy_busy_s: f64,
    /// Seconds during which both engines were busy at once.
    pub overlap_s: f64,
}

impl DeviceUtilization {
    pub fn compute_util(&self, window_s: f64) -> f64 {
        if window_s > 0.0 {
            self.compute_busy_s / window_s
        } else {
            0.0
        }
    }

    pub fn copy_util(&self, window_s: f64) -> f64 {
        if window_s > 0.0 {
            self.copy_busy_s / window_s
        } else {
            0.0
        }
    }
}

/// Service-level-objective accounting for one serving window: completed
/// jobs judged against a latency target, plus submissions shed at the
/// queue. Attached to a [`RunReport`] via [`RunReport::with_slo`] and
/// carried into the JSON export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Latency target (virtual seconds) jobs are judged against.
    pub target_s: f64,
    /// Completed jobs whose submit→ready latency exceeded `target_s`.
    pub deadline_misses: u64,
    /// Completed jobs in the window.
    pub jobs: u64,
    /// Submissions rejected at the admission queue (shed).
    pub shed: u64,
}

impl SloSummary {
    /// Fraction of completed jobs that overshot the target (0 when no jobs
    /// completed).
    pub fn miss_rate(&self) -> f64 {
        if self.jobs > 0 {
            self.deadline_misses as f64 / self.jobs as f64
        } else {
            0.0
        }
    }

    /// Fraction of submissions shed at the queue (0 when nothing arrived).
    pub fn shed_rate(&self) -> f64 {
        let total = self.jobs + self.shed;
        if total > 0 {
            self.shed as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Everything one measured run produced, in reportable form: counter
/// deltas, per-device utilization from the timeline trace, and the
/// roofline verdict.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub label: String,
    pub window_s: f64,
    pub stats: StatsSnapshot,
    /// Per-device engine occupancy (empty when the timeline trace was
    /// disabled for the run).
    pub devices: Vec<DeviceUtilization>,
    pub roofline: RooflineReport,
    /// Optional request-latency distribution for the window (set by serving
    /// benches via [`RunReport::with_latency`]; `None` for plain kernel
    /// figures).
    pub latency: Option<HistogramSnapshot>,
    /// Enqueue groups vetted by the online `skelcheck` hazard checker
    /// during the window (set via [`RunReport::with_hazards_checked`];
    /// `None` when the checker was off).
    pub hazards_checked: Option<u64>,
    /// SLO accounting for serving runs (set via [`RunReport::with_slo`];
    /// `None` for plain kernel figures or when no target was configured).
    pub slo: Option<SloSummary>,
}

impl RunReport {
    /// Build a report from one measured window: the stats delta, the
    /// timeline trace recorded during it (may be empty), and its length in
    /// virtual seconds.
    pub fn collect(
        label: impl Into<String>,
        platform: &Platform,
        compute_efficiency: f64,
        delta: StatsSnapshot,
        trace: &[CommandRecord],
        window_s: f64,
    ) -> RunReport {
        let mut devices: Vec<DeviceUtilization> = (0..platform.n_devices())
            .map(|d| DeviceUtilization {
                device: d,
                ..Default::default()
            })
            .collect();
        for u in engine_usage(trace) {
            if let Some(d) = devices.get_mut(u.device.0) {
                match u.engine {
                    EngineKind::Compute => d.compute_busy_s = u.busy_s,
                    EngineKind::Copy => d.copy_busy_s = u.busy_s,
                }
            }
        }
        for (dev, overlap) in compute_copy_overlap_s(trace) {
            if let Some(d) = devices.get_mut(dev.0) {
                d.overlap_s = overlap;
            }
        }
        if trace.is_empty() {
            devices.clear();
        }
        RunReport {
            label: label.into(),
            window_s,
            stats: delta,
            devices,
            roofline: roofline_report(platform, compute_efficiency, delta, window_s),
            latency: None,
            hazards_checked: None,
            slo: None,
        }
    }

    /// Attach a request-latency distribution (e.g. the executor's per-job
    /// latency histogram) so `summary_line`/`Display`/`publish` include
    /// p50/p99.
    pub fn with_latency(mut self, latency: HistogramSnapshot) -> RunReport {
        self.latency = Some(latency);
        self
    }

    /// Record that the online hazard checker vetted `n` enqueue groups
    /// during the window (the `skelcheck.hazards_checked` counter delta),
    /// so figure output shows the run executed under checking.
    pub fn with_hazards_checked(mut self, n: u64) -> RunReport {
        self.hazards_checked = Some(n);
        self
    }

    /// Attach SLO accounting (deadline misses against a latency target and
    /// queue shed counts) so serving figures report it alongside latency.
    pub fn with_slo(mut self, slo: SloSummary) -> RunReport {
        self.slo = Some(slo);
        self
    }

    /// Seconds of copy-engine work that ran *under* compute, summed over
    /// devices — the quantity the overlap subsystem exists to maximise.
    pub fn total_overlap_s(&self) -> f64 {
        self.devices.iter().map(|d| d.overlap_s).sum()
    }

    /// Fraction of copy-engine busy time hidden under compute (0 when no
    /// copies ran). 1.0 = every transferred byte was free.
    pub fn overlap_efficiency(&self) -> f64 {
        let copy: f64 = self.devices.iter().map(|d| d.copy_busy_s).sum();
        if copy > 0.0 {
            self.total_overlap_s() / copy
        } else {
            0.0
        }
    }

    /// Publish the report into a metrics registry as gauges:
    /// `skelcl.util.gpu<i>.compute.pct`, `…copy.pct`, `…overlap_s`, plus
    /// `skelcl.roofline.pct_of_peak` and `skelcl.overlap.efficiency`.
    pub fn publish(&self, metrics: &MetricsRegistry) {
        for d in &self.devices {
            let base = format!("skelcl.util.gpu{}", d.device);
            metrics
                .gauge(&format!("{base}.compute.pct"))
                .set(100.0 * d.compute_util(self.window_s));
            metrics
                .gauge(&format!("{base}.copy.pct"))
                .set(100.0 * d.copy_util(self.window_s));
            metrics.gauge(&format!("{base}.overlap_s")).set(d.overlap_s);
        }
        metrics
            .gauge("skelcl.roofline.pct_of_peak")
            .set(self.roofline.pct_of_modeled_peak());
        metrics
            .gauge("skelcl.overlap.efficiency")
            .set(self.overlap_efficiency());
        if let Some(lat) = self.latency.filter(|l| l.count > 0) {
            // count > 0 guarantees the quantiles exist.
            metrics
                .gauge("skelcl.latency.p50_s")
                .set(lat.p50.unwrap_or(0.0));
            metrics
                .gauge("skelcl.latency.p90_s")
                .set(lat.p90.unwrap_or(0.0));
            metrics
                .gauge("skelcl.latency.p99_s")
                .set(lat.p99.unwrap_or(0.0));
        }
        if let Some(slo) = &self.slo {
            metrics.gauge("skelcl.slo.target_s").set(slo.target_s);
            metrics.gauge("skelcl.slo.miss_rate").set(slo.miss_rate());
            metrics.gauge("skelcl.slo.shed_rate").set(slo.shed_rate());
        }
    }

    /// One-line summary for bench output: utilization per device and the
    /// roofline headline.
    pub fn summary_line(&self) -> String {
        let mut out = format!("{}: {:.3e} s", self.label, self.window_s);
        if self.devices.is_empty() {
            out.push_str(" | util n/a (trace off)");
        } else {
            for d in &self.devices {
                let _ = write!(
                    out,
                    " | gpu{} c={:.0}% k={:.0}%",
                    d.device,
                    100.0 * d.compute_util(self.window_s),
                    100.0 * d.copy_util(self.window_s),
                );
            }
            let _ = write!(out, " | overlap {:.0}%", 100.0 * self.overlap_efficiency());
        }
        if let Some(lat) = self.latency.filter(|l| l.count > 0) {
            let _ = write!(
                out,
                " | lat p50 {:.2e} s p99 {:.2e} s",
                lat.p50.unwrap_or(0.0),
                lat.p99.unwrap_or(0.0)
            );
        }
        if let Some(slo) = &self.slo {
            let _ = write!(
                out,
                " | slo {:.0e} s miss {}/{} shed {:.0}%",
                slo.target_s,
                slo.deadline_misses,
                slo.jobs,
                100.0 * slo.shed_rate()
            );
        }
        if let Some(n) = self.hazards_checked {
            let _ = write!(out, " | skelcheck {n} enqueues");
        }
        let _ = write!(
            out,
            " | {} bound, {:.0}% of peak",
            self.roofline.bound(),
            self.roofline.pct_of_modeled_peak()
        );
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "run report: {} ({:.3e} virtual s)",
            self.label, self.window_s
        )?;
        let s = &self.stats;
        writeln!(
            f,
            "  transfers: h2d {} ({} B), d2h {} ({} B), d2d {} ({} B)",
            s.h2d_transfers,
            s.h2d_bytes,
            s.d2h_transfers,
            s.d2h_bytes,
            s.d2d_transfers,
            s.d2d_bytes
        )?;
        writeln!(
            f,
            "  kernels  : {} launches, {} CU-cycles, {} B global traffic",
            s.kernel_launches, s.kernel_cu_cycles, s.kernel_global_bytes
        )?;
        writeln!(
            f,
            "  builds   : {} from source, {} from binary cache",
            s.source_builds, s.cache_loads
        )?;
        if self.devices.is_empty() {
            writeln!(f, "  utilization: n/a (timeline trace disabled)")?;
        } else {
            for d in &self.devices {
                writeln!(
                    f,
                    "  gpu{}: compute {:>5.1}% busy, copy {:>5.1}% busy, overlap {:.3e} s",
                    d.device,
                    100.0 * d.compute_util(self.window_s),
                    100.0 * d.copy_util(self.window_s),
                    d.overlap_s
                )?;
            }
            writeln!(
                f,
                "  overlap efficiency: {:.1}% of copy time hidden under compute",
                100.0 * self.overlap_efficiency()
            )?;
        }
        if let Some(lat) = self.latency.filter(|l| l.count > 0) {
            writeln!(
                f,
                "  latency  : n={} p50 {:.3e} s, p90 {:.3e} s, p99 {:.3e} s, max {:.3e} s",
                lat.count,
                lat.p50.unwrap_or(0.0),
                lat.p90.unwrap_or(0.0),
                lat.p99.unwrap_or(0.0),
                lat.max.unwrap_or(0.0)
            )?;
        }
        if let Some(slo) = &self.slo {
            writeln!(
                f,
                "  slo      : target {:.3e} s, {} of {} job(s) missed ({:.1}%), {} shed ({:.1}%)",
                slo.target_s,
                slo.deadline_misses,
                slo.jobs,
                100.0 * slo.miss_rate(),
                slo.shed,
                100.0 * slo.shed_rate()
            )?;
        }
        if let Some(n) = self.hazards_checked {
            writeln!(
                f,
                "  skelcheck: online hazard checker vetted {n} enqueue group(s)"
            )?;
        }
        write!(f, "  {}", self.roofline)
    }
}

/// A minimal JSON parser — just enough for the trace-export round-trip
/// tests and the CI validity gate. No serde in this workspace.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }

        pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
            match self {
                Json::Obj(o) => Some(o),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Member lookup on objects: `v.get("traceEvents")`.
        pub fn get(&self, key: &str) -> Option<&Json> {
            self.as_obj().and_then(|o| o.get(key))
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            match self.bump() {
                Some(got) if got == b => Ok(()),
                Some(got) => Err(format!(
                    "expected {:?} at byte {}, got {:?}",
                    b as char,
                    self.pos - 1,
                    got as char
                )),
                None => Err(format!("expected {:?}, got end of input", b as char)),
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
            for &b in word.as_bytes() {
                self.expect(b)?;
            }
            Ok(value)
        }

        fn value(&mut self) -> Result<Json, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let v = self.value()?;
                map.insert(key, v);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(Json::Obj(map)),
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Json::Arr(items)),
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let mut code = 0u32;
            for _ in 0..4 {
                let d = self
                    .bump()
                    .and_then(|b| (b as char).to_digit(16))
                    .ok_or("bad \\u escape")?;
                code = code * 16 + d;
            }
            Ok(code)
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            // JSON encodes astral code points as a UTF-16
                            // surrogate pair of consecutive \u escapes;
                            // combine them. A lone or mismatched surrogate
                            // degrades to U+FFFD (the second escape, if
                            // any, is re-parsed on its own).
                            let code = if (0xd800..=0xdbff).contains(&unit)
                                && self.peek() == Some(b'\\')
                                && self.bytes.get(self.pos + 1) == Some(&b'u')
                            {
                                let save = self.pos;
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xdc00..=0xdfff).contains(&low) {
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                                } else {
                                    self.pos = save;
                                    unit
                                }
                            } else {
                                unit
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some(b) if b < 0x80 => out.push(b as char),
                    Some(b) => {
                        // Re-decode the UTF-8 sequence starting at b.
                        let start = self.pos - 1;
                        let len = match b {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let end = (start + len).min(self.bytes.len());
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Json};
    use super::*;
    use vgpu::DeviceId;

    #[test]
    fn json_parser_round_trips_basics() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\"y\n","c":true,"d":null,"e":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(v.get("e").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} tail").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let round = parse(&format!("\"{}\"", json_escape("q\"\\\n\tz\u{1}"))).unwrap();
        assert_eq!(round.as_str(), Some("q\"\\\n\tz\u{1}"));
    }

    #[test]
    fn string_escapes_round_trip_adversarially() {
        // Control characters across the whole C0 range, quoting/escaping
        // metacharacters, BMP non-ASCII, and non-BMP code points (which
        // the writer emits as raw UTF-8). Every one must survive
        // escape → parse unchanged.
        let adversarial = [
            "\u{1}\u{2}\u{8}\u{b}\u{c}\u{1f}",   // C0 controls incl. \b \f
            "quote\" backslash\\ slash/ \r\n\t", // metacharacters
            "ünïcødé — π ≈ 3.14159",             // BMP non-ASCII
            "emoji 😀 and math 𝕏 and flag 🇩🇪",   // non-BMP (surrogate pairs in UTF-16)
            "mixed \u{1f}😀\"\\\u{0007}end",
        ];
        for s in adversarial {
            let round = parse(&format!("\"{}\"", json_escape(s))).unwrap();
            assert_eq!(round.as_str(), Some(s), "round-trip of {s:?}");
        }
    }

    #[test]
    fn parser_combines_utf16_surrogate_pairs() {
        // Other Chrome-trace producers escape astral characters as
        // \uXXXX\uXXXX surrogate pairs; the parser must combine them
        // rather than yield two replacement characters.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("😀"),
            "U+1F600 from its surrogate pair"
        );
        assert_eq!(
            parse(r#""\uD835\uDD4F""#).unwrap().as_str(),
            Some("𝕏"),
            "upper-case hex digits"
        );
        // Lone surrogates are not representable: degrade to U+FFFD, and a
        // following *non*-surrogate escape is decoded on its own.
        assert_eq!(
            parse(r#""\ud83d""#).unwrap().as_str(),
            Some("\u{fffd}"),
            "lone high surrogate"
        );
        assert_eq!(
            parse(r#""\ud83dx""#).unwrap().as_str(),
            Some("\u{fffd}x"),
            "high surrogate followed by a plain character"
        );
        assert_eq!(
            parse(r#""\ud83d\u0041""#).unwrap().as_str(),
            Some("\u{fffd}A"),
            "high surrogate followed by a non-surrogate escape"
        );
        assert_eq!(
            parse(r#""\ude00""#).unwrap().as_str(),
            Some("\u{fffd}"),
            "unpaired low surrogate"
        );
    }

    fn cmd(dev: usize, engine: EngineKind, start: f64, end: f64) -> CommandRecord {
        CommandRecord::interval(DeviceId(dev), engine, start, end)
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_structure() {
        let spans = vec![SpanRecord {
            id: 0,
            parent: None,
            name: "stencil2d.iterate",
            attrs: vec![("shape", "8x8".to_string()), ("weird", "a\"b".to_string())],
            start_s: 0.0,
            end_s: 1e-3,
            epoch: 0,
            stats: StatsSnapshot::default(),
            halo_exchanges: 2,
            program_cache_hits: 1,
            program_cache_misses: 0,
            trace_first: 0,
            trace_len: 2,
        }];
        let trace = vec![
            cmd(0, EngineKind::Compute, 0.0, 5e-4),
            cmd(0, EngineKind::Copy, 1e-4, 3e-4),
        ];
        let out = chrome_trace_json(&spans, &trace);
        let v = parse(&out).expect("exporter must emit valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 span process meta + 1 span + 1 device process meta + 2 thread
        // metas + 2 engine events.
        assert_eq!(events.len(), 7);
        let span_ev = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("skeleton"))
            .unwrap();
        assert_eq!(span_ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span_ev.get("dur").unwrap().as_num(), Some(1e3));
        assert_eq!(
            span_ev.get("args").unwrap().get("weird").unwrap().as_str(),
            Some("a\"b")
        );
        let engine_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("engine"))
            .collect();
        assert_eq!(engine_events.len(), 2);
        assert_eq!(engine_events[0].get("pid").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn roofline_pcts_follow_the_floors() {
        let platform = Platform::new(
            vgpu::PlatformConfig::default()
                .devices(2)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("report-roofline-test"),
        );
        let spec = vgpu::DeviceSpec::tiny();
        // Exactly 1 ms of aggregate compute across 2 devices at eff=1.0.
        let delta = StatsSnapshot {
            kernel_cu_cycles: (2.0 * spec.clock_hz * 1e-3) as u64,
            ..Default::default()
        };
        let r = roofline_report(&platform, 1.0, delta, 2e-3);
        assert!((r.pct_peak_compute() - 50.0).abs() < 0.1, "{r:?}");
        assert_eq!(r.bound(), "compute");
        assert!((r.pct_of_modeled_peak() - 50.0).abs() < 0.1);
        // Display renders without panicking.
        assert!(r.to_string().contains("% of modeled peak"));
    }

    #[test]
    fn run_report_summarises_trace_and_publishes_gauges() {
        let platform = Platform::new(
            vgpu::PlatformConfig::default()
                .devices(1)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("report-run-test"),
        );
        let trace = vec![
            cmd(0, EngineKind::Compute, 0.0, 8e-4),
            cmd(0, EngineKind::Copy, 2e-4, 6e-4),
        ];
        let report = RunReport::collect(
            "test",
            &platform,
            1.0,
            StatsSnapshot::default(),
            &trace,
            1e-3,
        );
        assert_eq!(report.devices.len(), 1);
        let d = &report.devices[0];
        assert!((d.compute_util(report.window_s) - 0.8).abs() < 1e-9);
        assert!((d.copy_util(report.window_s) - 0.4).abs() < 1e-9);
        assert!((d.overlap_s - 4e-4).abs() < 1e-12);
        assert!((report.overlap_efficiency() - 1.0).abs() < 1e-9);

        let metrics = MetricsRegistry::default();
        report.publish(&metrics);
        let snap = metrics.snapshot();
        let util = snap["skelcl.util.gpu0.compute.pct"].as_gauge().unwrap();
        assert!((util - 80.0).abs() < 1e-6);
        assert!(snap.contains_key("skelcl.roofline.pct_of_peak"));

        let text = report.to_string();
        assert!(text.contains("gpu0"), "{text}");
        assert!(text.contains("overlap efficiency"), "{text}");
        assert!(report.summary_line().contains("of peak"));
    }

    #[test]
    fn latency_histogram_rides_the_summary_and_gauges() {
        let platform = Platform::new(
            vgpu::PlatformConfig::default()
                .devices(1)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("report-latency-test"),
        );
        let hist = crate::metrics::Histogram::default();
        for i in 1..=100 {
            hist.observe(i as f64 * 1e-6);
        }
        let report = RunReport::collect("svc", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3)
            .with_latency(hist.snapshot());

        let line = report.summary_line();
        assert!(line.contains("lat p50"), "{line}");
        assert!(line.contains("p99"), "{line}");
        let text = report.to_string();
        assert!(text.contains("latency  : n=100"), "{text}");

        let metrics = MetricsRegistry::default();
        report.publish(&metrics);
        let snap = metrics.snapshot();
        let p99 = snap["skelcl.latency.p99_s"].as_gauge().unwrap();
        assert!((p99 - 99e-6).abs() < 1e-12, "p99={p99}");

        // Without latency attached the line stays clean.
        let plain = RunReport::collect("k", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3);
        assert!(!plain.summary_line().contains("lat p50"));
    }

    #[test]
    fn slo_summary_rides_the_summary_and_gauges() {
        let platform = Platform::new(
            vgpu::PlatformConfig::default()
                .devices(1)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("report-slo-test"),
        );
        let slo = SloSummary {
            target_s: 1e-3,
            deadline_misses: 3,
            jobs: 60,
            shed: 20,
        };
        assert!((slo.miss_rate() - 0.05).abs() < 1e-12);
        assert!((slo.shed_rate() - 0.25).abs() < 1e-12);
        let report = RunReport::collect("svc", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3)
            .with_slo(slo);
        let line = report.summary_line();
        assert!(line.contains("slo"), "{line}");
        assert!(line.contains("miss 3/60"), "{line}");
        assert!(
            report.to_string().contains("3 of 60 job(s) missed"),
            "{report}"
        );

        let metrics = MetricsRegistry::default();
        report.publish(&metrics);
        let snap = metrics.snapshot();
        assert!((snap["skelcl.slo.miss_rate"].as_gauge().unwrap() - 0.05).abs() < 1e-12);
        assert!((snap["skelcl.slo.shed_rate"].as_gauge().unwrap() - 0.25).abs() < 1e-12);

        // Without SLO accounting the line stays clean.
        let plain = RunReport::collect("k", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3);
        assert!(!plain.summary_line().contains("slo"));
    }

    #[test]
    fn executor_job_spans_get_tenant_lanes() {
        let mk = |id, name: &'static str, tenant: &str, start: f64, end: f64| SpanRecord {
            id,
            parent: None,
            name,
            attrs: vec![("tenant", tenant.to_string()), ("kind", "axpb".to_string())],
            start_s: start,
            end_s: end,
            epoch: 0,
            stats: StatsSnapshot::default(),
            halo_exchanges: 0,
            program_cache_hits: 0,
            program_cache_misses: 0,
            trace_first: 0,
            trace_len: 0,
        };
        let spans = vec![
            mk(0, "executor.job", "alice", 0.0, 3e-3),
            mk(1, "executor.job.queue_wait", "alice", 0.0, 1e-3),
            mk(2, "executor.job.service", "alice", 1e-3, 3e-3),
            mk(3, "executor.job", "bob\"quoted", 1e-3, 4e-3),
        ];
        let out = chrome_trace_json(&spans, &[]);
        let v = parse(&out).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let serving: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("serving"))
            .collect();
        assert_eq!(serving.len(), 4);
        // All of alice's spans share one pid; lanes split by tid.
        let pid_of = |name: &str, tenant_pid: f64| {
            serving
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .map(|e| {
                    assert_eq!(e.get("pid").unwrap().as_num(), Some(tenant_pid));
                    e.get("tid").unwrap().as_num().unwrap()
                })
                .unwrap()
        };
        assert_eq!(pid_of("executor.job", 100.0), 0.0);
        assert_eq!(pid_of("executor.job.queue_wait", 100.0), 1.0);
        assert_eq!(pid_of("executor.job.service", 100.0), 2.0);
        // Second tenant gets the next pid, with its name escaped in the meta.
        let bob_meta = events
            .iter()
            .find(|e| {
                e.get("name").unwrap().as_str() == Some("process_name")
                    && e.get("pid").unwrap().as_num() == Some(101.0)
            })
            .expect("tenant process meta");
        assert_eq!(
            bob_meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("tenant:bob\"quoted")
        );
        // No serving span leaked onto the depth-stacked pid-0 track.
        assert!(
            events
                .iter()
                .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("skeleton"))
                .count()
                == 0
        );
    }

    #[test]
    fn hazard_checker_activity_rides_the_summary() {
        let platform = Platform::new(
            vgpu::PlatformConfig::default()
                .devices(1)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("report-skelcheck-test"),
        );
        let report = RunReport::collect("chk", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3)
            .with_hazards_checked(42);
        let line = report.summary_line();
        assert!(line.contains("skelcheck 42 enqueues"), "{line}");
        assert!(
            report.to_string().contains("vetted 42 enqueue group(s)"),
            "{report}"
        );

        // With the checker off the line stays clean.
        let plain = RunReport::collect("k", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3);
        assert!(!plain.summary_line().contains("skelcheck"));
    }
}
