//! Machine-readable telemetry export: schema-versioned JSON for the whole
//! metrics snapshot + [`RunReport`]s, and a Prometheus-style text
//! exposition.
//!
//! The in-process observability layers ([`crate::metrics`],
//! [`crate::trace`], [`crate::report`]) answer "what happened" *inside* a
//! run; this module is how those answers leave the process in a form other
//! tools can consume without parsing human-oriented summary lines:
//!
//! * [`export_json`] — one self-describing document carrying
//!   [`SCHEMA_VERSION`], the full [`crate::Context::metrics_snapshot`]
//!   (every counter, gauge, and histogram with exact nearest-rank
//!   quantiles), and any number of [`RunReport`]s (roofline % of modeled
//!   peak, per-engine utilization, overlap efficiency, latency quantiles,
//!   skelcheck activity, SLO accounting). The bench perf ledger
//!   (`skelcl_bench::ledger`) and the `BENCH_*.json` artifacts build on
//!   this serializer.
//! * [`render_prometheus`] — the same metrics snapshot in Prometheus text
//!   exposition format: counters and gauges as single samples, histograms
//!   as summaries with `quantile="0.5" / "0.9" / "0.99"` series (omitted
//!   for empty histograms — an empty distribution has no quantiles) plus
//!   `_sum` / `_count`.
//!
//! Like the rest of the workspace this is serde-free: the writers reuse
//! `report.rs`'s hand-rolled JSON helpers and the round-trip tests reparse
//! with [`crate::report::json`].
//!
//! # Schema stability
//!
//! `schema_version` is bumped whenever a field is renamed, removed, or
//! changes meaning; *adding* fields is not a bump. Consumers (CI gates,
//! `benchdiff`) must reject documents whose major version they don't know.
//! Empty-distribution edge cases are explicit: an empty histogram
//! serializes `min`/`max`/`p50`/`p90`/`p99` as `null` (never a fabricated
//! 0), a singleton histogram serializes every quantile as that sample, and
//! the `dropped` field counts non-finite samples rejected at `observe`.

use crate::metrics::{HistogramSnapshot, MetricValue};
use crate::report::{json_escape, json_num, RunReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the JSON document layout produced by this module (see
/// *Schema stability* in the module docs).
pub const SCHEMA_VERSION: u64 = 1;

/// `Option<f64>` → JSON: `null` when absent, a number otherwise.
fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(v) => json_num(v),
        None => "null".to_string(),
    }
}

/// One histogram snapshot as a JSON object. Empty histograms carry `null`
/// quantiles and min/max; `dropped` is the non-finite-sample reject count.
pub fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\
         \"p99\":{},\"dropped\":{}}}",
        h.count,
        json_num(h.sum),
        opt_num(h.min),
        opt_num(h.max),
        opt_num(h.p50),
        opt_num(h.p90),
        opt_num(h.p99),
        h.dropped,
    )
}

/// One metric value as a self-typed JSON object
/// (`{"type":"counter","value":…}` etc.).
fn metric_json(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => format!("{{\"type\":\"counter\",\"value\":{c}}}"),
        MetricValue::Gauge(g) => {
            format!("{{\"type\":\"gauge\",\"value\":{}}}", json_num(*g))
        }
        MetricValue::Histogram(h) => {
            format!("{{\"type\":\"histogram\",\"value\":{}}}", histogram_json(h))
        }
    }
}

/// A full metrics snapshot (e.g. [`crate::Context::metrics_snapshot`]) as
/// one JSON object keyed by metric name.
fn metrics_json(snap: &BTreeMap<String, MetricValue>) -> String {
    let body: Vec<String> = snap
        .iter()
        .map(|(name, v)| format!("\"{}\":{}", json_escape(name), metric_json(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One [`RunReport`] as a JSON object: label, window, the 13 platform
/// counters, per-device utilization, the roofline verdict (with the
/// derived `% of modeled peak` and bound), overlap efficiency, and the
/// optional latency / skelcheck / SLO sections (`null` when absent).
pub fn run_report_json(r: &RunReport) -> String {
    let mut out = String::new();
    let s = &r.stats;
    let _ = write!(
        out,
        "{{\"label\":\"{}\",\"window_s\":{},\"stats\":{{\
         \"h2d_transfers\":{},\"h2d_bytes\":{},\"d2h_transfers\":{},\"d2h_bytes\":{},\
         \"d2d_transfers\":{},\"d2d_bytes\":{},\"kernel_launches\":{},\
         \"kernel_cu_cycles\":{},\"kernel_global_bytes\":{},\"kernel_busy_ns\":{},\
         \"source_builds\":{},\"cache_loads\":{},\"build_virtual_ns\":{}}}",
        json_escape(&r.label),
        json_num(r.window_s),
        s.h2d_transfers,
        s.h2d_bytes,
        s.d2h_transfers,
        s.d2h_bytes,
        s.d2d_transfers,
        s.d2d_bytes,
        s.kernel_launches,
        s.kernel_cu_cycles,
        s.kernel_global_bytes,
        s.kernel_busy_ns,
        s.source_builds,
        s.cache_loads,
        s.build_virtual_ns,
    );
    let devices: Vec<String> = r
        .devices
        .iter()
        .map(|d| {
            format!(
                "{{\"device\":{},\"compute_busy_s\":{},\"copy_busy_s\":{},\"overlap_s\":{},\
                 \"compute_util\":{},\"copy_util\":{}}}",
                d.device,
                json_num(d.compute_busy_s),
                json_num(d.copy_busy_s),
                json_num(d.overlap_s),
                json_num(d.compute_util(r.window_s)),
                json_num(d.copy_util(r.window_s)),
            )
        })
        .collect();
    let _ = write!(out, ",\"devices\":[{}]", devices.join(","));
    let rf = &r.roofline;
    let _ = write!(
        out,
        ",\"roofline\":{{\"n_devices\":{},\"kernel_cu_cycles\":{},\"kernel_global_bytes\":{},\
         \"link_bytes\":{},\"compute_floor_s\":{},\"memory_floor_s\":{},\"transfer_floor_s\":{},\
         \"peak_ops_s\":{},\"peak_mem_bytes_s\":{},\"peak_link_bytes_s\":{},\
         \"pct_of_modeled_peak\":{},\"bound\":\"{}\"}}",
        rf.n_devices,
        rf.kernel_cu_cycles,
        rf.kernel_global_bytes,
        rf.link_bytes,
        json_num(rf.compute_floor_s),
        json_num(rf.memory_floor_s),
        json_num(rf.transfer_floor_s),
        json_num(rf.peak_ops_s),
        json_num(rf.peak_mem_bytes_s),
        json_num(rf.peak_link_bytes_s),
        json_num(rf.pct_of_modeled_peak()),
        rf.bound(),
    );
    let _ = write!(
        out,
        ",\"total_overlap_s\":{},\"overlap_efficiency\":{}",
        json_num(r.total_overlap_s()),
        json_num(r.overlap_efficiency()),
    );
    match &r.latency {
        Some(lat) => {
            let _ = write!(out, ",\"latency\":{}", histogram_json(lat));
        }
        None => out.push_str(",\"latency\":null"),
    }
    match r.hazards_checked {
        Some(n) => {
            let _ = write!(out, ",\"hazards_checked\":{n}");
        }
        None => out.push_str(",\"hazards_checked\":null"),
    }
    match &r.slo {
        Some(slo) => {
            let _ = write!(
                out,
                ",\"slo\":{{\"target_s\":{},\"deadline_misses\":{},\"jobs\":{},\"shed\":{},\
                 \"miss_rate\":{},\"shed_rate\":{}}}",
                json_num(slo.target_s),
                slo.deadline_misses,
                slo.jobs,
                slo.shed,
                json_num(slo.miss_rate()),
                json_num(slo.shed_rate()),
            );
        }
        None => out.push_str(",\"slo\":null"),
    }
    out.push('}');
    out
}

/// The top-level export document: schema version, one metrics snapshot,
/// and any number of run reports.
pub fn export_json(snap: &BTreeMap<String, MetricValue>, reports: &[RunReport]) -> String {
    let reports: Vec<String> = reports.iter().map(run_report_json).collect();
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"metrics\":{},\"run_reports\":[{}]}}",
        metrics_json(snap),
        reports.join(","),
    )
}

/// Sanitize a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Format a sample value for the exposition text (Prometheus accepts
/// scientific notation; non-finite degrades to 0 like the JSON writer).
fn prom_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Render a metrics snapshot in the Prometheus text exposition format.
///
/// Counters and gauges become single samples under their sanitized name
/// (`skelcl.halo.exchanges` → `skelcl_halo_exchanges`). Histograms become
/// summaries: `quantile="0.5"/"0.9"/"0.99"` series (omitted when the
/// histogram is empty) plus `_sum` and `_count`, and a companion
/// `<name>_dropped` counter when non-finite samples were rejected.
pub fn render_prometheus(snap: &BTreeMap<String, MetricValue>) -> String {
    let mut out = String::new();
    for (name, v) in snap {
        let pname = prom_name(name);
        match v {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "# TYPE {pname} counter");
                let _ = writeln!(out, "{pname} {c}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {}", prom_num(*g));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {pname} summary");
                for (q, val) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                    if let Some(val) = val {
                        let _ = writeln!(out, "{pname}{{quantile=\"{q}\"}} {}", prom_num(val));
                    }
                }
                let _ = writeln!(out, "{pname}_sum {}", prom_num(h.sum));
                let _ = writeln!(out, "{pname}_count {}", h.count);
                if h.dropped > 0 {
                    let _ = writeln!(out, "# TYPE {pname}_dropped counter");
                    let _ = writeln!(out, "{pname}_dropped {}", h.dropped);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricsRegistry};
    use crate::report::json::parse;
    use crate::report::SloSummary;
    use vgpu::StatsSnapshot;

    fn sample_snapshot() -> BTreeMap<String, MetricValue> {
        let reg = MetricsRegistry::default();
        reg.counter("skelcl.test.calls").add(7);
        reg.gauge("skelcl.test.util").set(0.5);
        let h = reg.histogram("skelcl.test.latency_s");
        h.observe(1e-3);
        h.observe(2e-3);
        h.observe(f64::NAN);
        reg.histogram("skelcl.test.empty");
        reg.counter("weird name/with-specials").inc();
        reg.snapshot()
    }

    #[test]
    fn export_is_valid_schema_versioned_json() {
        let snap = sample_snapshot();
        let doc = parse(&export_json(&snap, &[])).expect("exporter must emit valid JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_num(),
            Some(SCHEMA_VERSION as f64)
        );
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("skelcl.test.calls")
                .unwrap()
                .get("value")
                .unwrap()
                .as_num(),
            Some(7.0)
        );
        let hist = metrics
            .get("skelcl.test.latency_s")
            .unwrap()
            .get("value")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_num(), Some(2.0));
        assert_eq!(hist.get("dropped").unwrap().as_num(), Some(1.0));
        assert_eq!(hist.get("p99").unwrap().as_num(), Some(2e-3));
        // Empty histogram: quantiles and min/max are null, never zero.
        let empty = metrics
            .get("skelcl.test.empty")
            .unwrap()
            .get("value")
            .unwrap();
        assert_eq!(empty.get("count").unwrap().as_num(), Some(0.0));
        for key in ["min", "max", "p50", "p90", "p99"] {
            assert_eq!(
                empty.get(key),
                Some(&crate::report::json::Json::Null),
                "{key} of an empty histogram must be null"
            );
        }
    }

    #[test]
    fn singleton_histogram_exports_the_sample_as_every_quantile() {
        let h = Histogram::default();
        h.observe(4.25);
        let doc = parse(&histogram_json(&h.snapshot())).unwrap();
        for key in ["min", "max", "p50", "p90", "p99"] {
            assert_eq!(doc.get(key).unwrap().as_num(), Some(4.25), "{key}");
        }
    }

    #[test]
    fn run_report_exports_roofline_latency_and_slo() {
        let platform = vgpu::Platform::new(
            vgpu::PlatformConfig::default()
                .devices(1)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("telemetry-report-test"),
        );
        let h = Histogram::default();
        h.observe(1e-3);
        let report = RunReport::collect(
            "exp ort\"label",
            &platform,
            1.0,
            StatsSnapshot::default(),
            &[],
            1e-3,
        )
        .with_latency(h.snapshot())
        .with_hazards_checked(3)
        .with_slo(SloSummary {
            target_s: 5e-3,
            deadline_misses: 1,
            jobs: 10,
            shed: 2,
        });
        let doc = parse(&run_report_json(&report)).expect("valid JSON");
        assert_eq!(doc.get("label").unwrap().as_str(), Some("exp ort\"label"));
        let roofline = doc.get("roofline").unwrap();
        assert!(roofline
            .get("pct_of_modeled_peak")
            .unwrap()
            .as_num()
            .is_some());
        assert!(roofline.get("bound").unwrap().as_str().is_some());
        assert_eq!(
            doc.get("latency").unwrap().get("count").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(doc.get("hazards_checked").unwrap().as_num(), Some(3.0));
        let slo = doc.get("slo").unwrap();
        assert_eq!(slo.get("deadline_misses").unwrap().as_num(), Some(1.0));
        assert_eq!(slo.get("shed").unwrap().as_num(), Some(2.0));
        assert!((slo.get("shed_rate").unwrap().as_num().unwrap() - 2.0 / 12.0).abs() < 1e-12);

        // Without the optional sections, the keys are null, not absent.
        let plain = RunReport::collect("p", &platform, 1.0, StatsSnapshot::default(), &[], 1e-3);
        let doc = parse(&run_report_json(&plain)).unwrap();
        for key in ["latency", "hazards_checked", "slo"] {
            assert_eq!(
                doc.get(key),
                Some(&crate::report::json::Json::Null),
                "{key}"
            );
        }
    }

    #[test]
    fn prometheus_rendering_sanitizes_and_summarises() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE skelcl_test_calls counter"), "{text}");
        assert!(text.contains("skelcl_test_calls 7"), "{text}");
        assert!(text.contains("# TYPE skelcl_test_util gauge"), "{text}");
        assert!(
            text.contains("skelcl_test_latency_s{quantile=\"0.99\"} 0.002"),
            "{text}"
        );
        assert!(text.contains("skelcl_test_latency_s_count 2"), "{text}");
        assert!(text.contains("skelcl_test_latency_s_dropped 1"), "{text}");
        // Empty histogram: no quantile series, but sum/count still present.
        assert!(!text.contains("skelcl_test_empty{quantile"), "{text}");
        assert!(text.contains("skelcl_test_empty_count 0"), "{text}");
        // Name sanitization covers spaces, slashes, and dashes.
        assert!(text.contains("weird_name_with_specials 1"), "{text}");
    }
}
