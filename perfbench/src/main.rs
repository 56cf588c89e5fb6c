//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_steady --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! metrics and writes its spans as a Chrome trace. The last line of stdout
//! is always the JSON result. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod fleet;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;

use vroom_net::json::Value;

use crate::fleet::Shape;
use crate::report::{to_line, Outcome, END_TO_END, PER_LAYER};
use crate::trace::{chrome_trace, SpanBuf};

const WORKLOADS: [&str; 4] = ["fleet_steady", "fleet_churn", "paper_suite", "wire_staged"];

const USAGE: &str =
    "usage: perfbench --workload <fleet_steady|fleet_churn|paper_suite|wire_staged> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one suite report as a child process.
    child: Option<String>,
    /// Print a fleet workload's seed-0 report (how the goldens are made).
    golden: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => args.child = Some(value()?.clone()),
            "--golden" => args.golden = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.child.is_none() && args.golden.is_none() && !WORKLOADS.contains(&args.workload.as_str())
    {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn shape_of(name: &str) -> Option<Shape> {
    match name {
        "fleet_steady" => Some(Shape::Steady),
        "fleet_churn" => Some(Shape::Churn),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = sys::nproc();
    match (&args.child, &args.golden) {
        (Some(mode), _) => {
            suite::child(mode == "suite-traced", args.seed, workers);
            return ExitCode::SUCCESS;
        }
        (None, Some(name)) => {
            let Some(shape) = shape_of(name) else {
                eprintln!("perfbench: no golden for {name:?}");
                return ExitCode::from(2);
            };
            println!("{}", fleet::golden_report(shape, workers));
            return ExitCode::SUCCESS;
        }
        (None, None) => {}
    }

    let (load_before, steal_before) = (sys::loadavg_1m(), sys::steal_s());
    let mut out = Outcome::default();
    let mut spans = SpanBuf::default();
    let (seed, secs) = (args.seed, args.seconds);
    let result = match (args.workload.as_str(), args.trace) {
        ("paper_suite", false) => suite::run(seed, secs, workers, &mut out),
        ("paper_suite", true) => suite::run_traced(seed, secs, workers, &mut out, &mut spans),
        ("wire_staged", false) => wire::run(seed, secs, &mut out),
        ("wire_staged", true) => wire::run_traced(seed, secs, &mut out, &mut spans),
        (name, traced) => {
            let shape = shape_of(name).expect("workload names were validated");
            if traced {
                fleet::run_traced(shape, seed, secs, workers, &mut out, &mut spans);
            } else {
                fleet::run(shape, seed, secs, workers, &mut out);
            }
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if !out.values.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", sys::vmhwm_kb() as f64 / 1024.0);
    }

    let context = context(&args, workers, load_before, sys::steal_s() - steal_before);
    println!("context: {}", to_line(&context));
    if args.trace {
        match write_trace(&args, &spans, context) {
            Ok(path) => println!("trace: {path} ({} spans)", spans.spans.len()),
            Err(e) => eprintln!("perfbench: trace not written: {e}"),
        }
    }
    let catalogue = if args.trace {
        PER_LAYER
    } else {
        &END_TO_END[..]
    };
    for &(name, unit) in catalogue {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        println!("{name} {v} {unit}");
    }
    println!(
        "failed_frac {} ({} of {} operations failed their output check)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", to_line(&out.result(catalogue)));
    ExitCode::SUCCESS
}

/// What every result is stamped with, so noisy runs can be told apart.
fn context(args: &Args, workers: usize, load_before: f64, steal_s: f64) -> Value {
    let mut c = BTreeMap::new();
    c.insert("workload".into(), Value::Str(args.workload.clone()));
    c.insert("seed".into(), Value::Int(args.seed));
    c.insert("seconds".into(), Value::Float(args.seconds));
    c.insert("trace".into(), Value::Bool(args.trace));
    c.insert("nproc".into(), Value::Int(sys::nproc() as u64));
    c.insert("workers".into(), Value::Int(workers as u64));
    c.insert("loadavg_before".into(), Value::Float(load_before));
    c.insert("loadavg_after".into(), Value::Float(sys::loadavg_1m()));
    c.insert("steal_s".into(), Value::Float(steal_s));
    c.insert("git_revision".into(), Value::Str(sys::git_revision()));
    c.insert("profile".into(), Value::Str(sys::build_profile().into()));
    Value::Object(c)
}

/// Write the run's spans under the build directory, one event per line.
fn write_trace(args: &Args, spans: &SpanBuf, context: Value) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let doc = chrome_trace(&spans.spans, context);
    let mut text = to_line(&doc);
    // One trace event per line, for diffing and grepping.
    text = text.replace("},{\"args\"", "},\n{\"args\"");
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload fleet_churn --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_churn", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload fleet_steady --trace 2",
            "--workload fleet_steady --seconds 0",
            "--workload fleet_steady --seed -1",
            "--workload fleet_steady --frobnicate",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
