//! Command-line entry point of the benchmark:
//!
//! ```text
//! perfbench --workload <osem|heat|serve|canny> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Prints human-readable lines, then one JSON result object as the last
//! line of standard output. Exits 1 when an output is wrong, an operation
//! failed or a program was built inside a measured window; 2 on a usage
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::Size;
use perfbench::{run, RunConfig};

/// Set-ups per run: `setup_s` and `setup.wall_s` report their medians.
const SETUPS: usize = 5;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from(".bench_out"),
        setups: SETUPS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad(&"must be full or tiny")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", report.json_line());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
