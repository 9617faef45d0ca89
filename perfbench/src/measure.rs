//! Measurement helpers: the two clocks, counter snapshots, the
//! no-build-in-window assertion, quantiles, peak RSS and the span tracer.
//!
//! Everything here observes the library from outside, through its public
//! API: `vgpu::Platform::stats_snapshot`, `Context::metrics_snapshot` and
//! the device timelines. Nothing is instrumented inside the library.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use skelcl::Context;
use vgpu::Platform;

/// The modeled frontier: the latest point on the modeled timeline that
/// anything enqueued so far reaches (host clock or any device engine).
/// Reading it does not synchronise anything, so spans can take it around
/// asynchronous calls without changing the timeline they measure.
pub fn modeled_now(platform: &Platform) -> f64 {
    platform
        .devices()
        .iter()
        .map(|d| d.clock().now_s())
        .fold(platform.host_now_s(), f64::max)
}

/// Every public counter of a context: the `skelcl.*` and `executor.*`
/// registry counters merged with the platform's `vgpu.*` counters.
pub fn counters(ctx: &Context) -> BTreeMap<String, u64> {
    ctx.metrics_snapshot()
        .into_iter()
        .filter_map(|(name, v)| v.as_counter().map(|c| (name, c)))
        .collect()
}

/// `after - before` per counter (counters only grow; a counter that
/// appeared in between counts from 0).
pub fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The counters that must not move inside a measured window: a program
/// build (from source or from the binary cache) or a registry miss there
/// would put build time into `modeled_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCounters {
    source_builds: u64,
    cache_loads: u64,
    registry_misses: u64,
}

impl BuildCounters {
    pub fn read(ctx: &Context) -> Self {
        let s = ctx.platform().stats_snapshot();
        BuildCounters {
            source_builds: s.source_builds,
            cache_loads: s.cache_loads,
            registry_misses: ctx.program_cache_misses(),
        }
    }

    /// `Err` naming the counters that moved between `before` and `self`.
    pub fn assert_no_build_since(&self, before: &BuildCounters) -> Result<(), String> {
        if self == before {
            return Ok(());
        }
        Err(format!(
            "build inside a measured window: {} source builds, {} cache loads, {} registry misses",
            self.source_builds - before.source_builds,
            self.cache_loads - before.cache_loads,
            self.registry_misses - before.registry_misses,
        ))
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q·n` samples
/// at or below it. This is the definition the library's histograms use.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// One recorded span. `group` ties together the spans of one repetition
/// or one job; `parent` is the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub host_start_s: f64,
    pub host_end_s: f64,
    pub modeled_start_s: f64,
    pub modeled_end_s: f64,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.host_end_s - self.host_start_s
    }

    pub fn modeled_s(&self) -> f64 {
        self.modeled_end_s - self.modeled_start_s
    }
}

/// A span that has begun but not ended.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    host_start_s: f64,
    modeled_start_s: f64,
}

impl OpenSpan {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder. Off, it records nothing and costs two clock
/// reads per span; on, spans are kept until [`Tracer::write_json`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Host seconds since the tracer was created.
    pub fn host_now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        platform: &Platform,
    ) -> OpenSpan {
        let id = if self.on { self.alloc_id() } else { 0 };
        OpenSpan {
            id,
            parent,
            group,
            name,
            host_start_s: self.host_now_s(),
            modeled_start_s: if self.on { modeled_now(platform) } else { 0.0 },
        }
    }

    pub fn end(&mut self, open: OpenSpan, platform: &Platform) {
        if !self.on {
            return;
        }
        let host_end_s = self.host_now_s();
        let modeled_end_s = modeled_now(platform);
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            group: open.group,
            name: open.name,
            host_start_s: open.host_start_s,
            host_end_s,
            modeled_start_s: open.modeled_start_s,
            modeled_end_s,
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        group: u64,
        platform: &Platform,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, group, platform);
        let r = f();
        self.end(open, platform);
        r
    }

    /// Record a span whose bounds were observed elsewhere (e.g. the
    /// modeled submit/start/ready times of an executor job report).
    /// Returns its id.
    pub fn record(&mut self, mut span: Span) -> u64 {
        if !self.on {
            return 0;
        }
        span.id = self.alloc_id();
        let id = span.id;
        self.spans.push(span);
        id
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median host and modeled duration of the spans called `name`, or
    /// `None` when there are none.
    pub fn medians(&self, name: &str) -> Option<(f64, f64)> {
        let (wall, modeled): (Vec<f64>, Vec<f64>) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.wall_s(), s.modeled_s()))
            .unzip();
        (!wall.is_empty()).then(|| (median(&wall), median(&modeled)))
    }

    /// Write every span as a JSON array of objects.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \
                 \"host_start_s\": {}, \"host_end_s\": {}, \
                 \"modeled_start_s\": {}, \"modeled_end_s\": {}}}{}",
                s.id,
                s.group,
                s.name,
                s.host_start_s,
                s.host_end_s,
                s.modeled_start_s,
                s.modeled_end_s,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
