//! The benchmark's own tests, at tiny sizes: every metric is printed with
//! its unit, modeled metrics and counts repeat across invocations, and the
//! no-build-in-window assertion and the output check fail a run.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::measure::Tracer;
use perfbench::workloads::{RepOutcome, Size, Workload};
use perfbench::{run_with, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};
use skelcl::{Context, Map, UserFn, Vector, DEFAULT_WORK_GROUP};
use vgpu::Platform;

/// `(name, value, unit)` of every metric in a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    const VALUE: &str = "\": {\"value\": ";
    const UNIT: &str = ", \"unit\": \"";
    let body = line
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(VALUE) {
        let name = rest[..at].rsplit('"').next().unwrap().to_string();
        let after = &rest[at + VALUE.len()..];
        let (value, after) = after.split_once(UNIT).expect("unit follows value");
        let (unit, after) = after.split_once('"').expect("unit is quoted");
        out.push((
            name,
            value.parse().expect("numeric value"),
            unit.to_string(),
        ));
        rest = after;
    }
    out
}

struct Run {
    ok: bool,
    last_line: String,
}

fn run_tiny(workload: &str, seed: u64, trace: bool) -> Run {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("run-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    Run {
        ok: out.status.success(),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

fn assert_table(run: &Run, table: &[(&str, &str)], what: &str) {
    assert!(run.ok, "{what}: {}", run.last_line);
    assert!(
        run.last_line
            .starts_with("{\"correct\": true, \"attempted\": "),
        "{what}"
    );
    assert!(run.last_line.contains("\"failed\": 0, "), "{what}");
    let got: Vec<(String, String)> = parse_metrics(&run.last_line)
        .into_iter()
        .map(|(n, _, u)| (n, u))
        .collect();
    let want: Vec<(String, String)> = table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(got, want, "{what}");
}

/// Metrics that come from the deterministic model or from counters.
fn is_exact(name: &str, unit: &str) -> bool {
    name.contains("modeled")
        || name == "setup_s"
        || name.starts_with("latency_")
        || matches!(unit, "count" | "bytes" | "cycles")
        || name.ends_with("_busy_frac")
        || name.ends_with("copy_under_compute_s")
        || name.ends_with("kernel_busy_s")
        || name.ends_with("build_s")
        || name.contains("service_p")
        || name.ends_with("jobs_per_batch")
}

#[test]
fn every_metric_is_printed_with_its_unit_and_exact_metrics_repeat() {
    for workload in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let a = run_tiny(workload, 7, trace);
            let b = run_tiny(workload, 7, trace);
            let what = format!("{workload} trace={trace}");
            assert_table(&a, table, &what);
            assert_table(&b, table, &what);
            for ((name, va, unit), (_, vb, _)) in parse_metrics(&a.last_line)
                .into_iter()
                .zip(parse_metrics(&b.last_line))
            {
                if is_exact(&name, &unit) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{what}: {name} {va} vs {vb}");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let (head, per_layer) = json.split_once("\"per_layer\"").expect("per_layer section");
    let end_to_end = head
        .split_once("\"end_to_end\"")
        .expect("end_to_end section")
        .1;
    for (section, table) in [(end_to_end, END_TO_END), (per_layer, PER_LAYER)] {
        assert_eq!(section.matches("{\"name\": ").count(), table.len());
        for (name, unit) in table {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                section.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
    }
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
}

#[test]
fn seeds_change_the_inputs_and_the_modeled_time() {
    let a = run_tiny("heat", 1, false);
    let b = run_tiny("heat", 2, false);
    let modeled = |r: &Run| parse_metrics(&r.last_line)[0].1;
    assert!(a.ok && b.ok);
    assert_ne!(modeled(&a), modeled(&b));
}

/// A workload whose every repetition builds a new program (`REBUILD`), or
/// whose output check always fails (`!REBUILD`).
struct Probe<const REBUILD: bool> {
    ctx: Context,
    input: Vector<f32>,
    reps: u32,
}

impl<const REBUILD: bool> Workload for Probe<REBUILD> {
    fn setup(
        _seed: u64,
        _size: Size,
        platform: Platform,
        _scratch: PathBuf,
        _tr: &mut Tracer,
    ) -> Result<Self, String> {
        let ctx = Context::from_platform(platform, DEFAULT_WORK_GROUP);
        let input = Vector::from_vec(&ctx, vec![1.0f32; 1024]);
        let mut probe = Probe {
            ctx,
            input,
            reps: 0,
        };
        probe.rep(&mut Tracer::new(false), None, 0);
        Ok(probe)
    }

    fn context(&self) -> &Context {
        &self.ctx
    }

    fn rep(&mut self, _tr: &mut Tracer, _parent: Option<u64>, _group: u64) -> RepOutcome {
        if REBUILD {
            self.reps += 1;
        }
        let name = format!("scale{}", self.reps);
        let source = format!("float {name}(float x) {{ return x * 2.0f; }}");
        Map::new(UserFn::new(name, source, |x: f32| x * 2.0))
            .apply(&self.input)
            .expect("map runs");
        RepOutcome {
            attempted: 1,
            ..Default::default()
        }
    }

    fn check(&mut self) -> Result<(), String> {
        Err("deliberately wrong".into())
    }
}

fn probe_config(name: &str) -> RunConfig {
    RunConfig {
        workload: name.into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
        setups: 1,
    }
}

#[test]
fn a_build_inside_a_measured_window_fails_the_run() {
    let err = run_with::<Probe<true>>(&probe_config("rebuild")).unwrap_err();
    assert!(err.contains("build inside a measured window"), "{err}");
}

#[test]
fn an_output_mismatch_makes_the_result_incorrect() {
    let report = run_with::<Probe<false>>(&probe_config("mismatch")).unwrap();
    assert!(!report.correct);
    assert_eq!(report.failed, 0);
    assert!(report.json_line().starts_with("{\"correct\": false, "));
}
