//! The `paper_suite` workload: `run_all_report`, the reproduction of every
//! table and figure, one full report per operation.
//!
//! Each report runs in a fresh child process — the report's lower-bound
//! memo is process-wide, so a second report in one process would be served
//! from a warm memo that no `run_all` user ever sees. The untraced child
//! calls `run_all_report`; the traced child calls each section's public
//! runner once, in `run_all` order, with a span around each.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use vroom::experiment::{
    fig01, fig02, fig03, fig04, fig07, fig09, fig11, fig13, fig14, fig15, fig16, fig17, fig18,
    fig19, fig20, fig21, incremental_deployment, run_all_report, top400_sample, ExperimentConfig,
    RUN_ALL_SECTIONS,
};
use vroom_net::json::Value;
use vroom_pages::Corpus;

use crate::report::{to_line, Outcome};
use crate::stats::{describe_spread, median};
use crate::trace::{totals_by_name, Span, SpanBuf};

/// The committed report, relative to the checkout root.
pub const GOLDEN: &str = "results/run_all.txt";

/// Prefix of the child's one-line summary on stderr.
const CHILD_TAG: &str = "perfbench-child ";

/// Span names, one per section, parallel to `RUN_ALL_SECTIONS`.
const SECTION_SPANS: [&str; 18] = [
    "suite.fig01",
    "suite.fig02",
    "suite.fig03",
    "suite.fig04",
    "suite.fig07",
    "suite.fig09",
    "suite.fig11",
    "suite.fig13",
    "suite.fig14",
    "suite.fig15",
    "suite.fig16",
    "suite.fig17",
    "suite.fig18",
    "suite.fig19",
    "suite.fig20",
    "suite.fig21",
    "suite.incr",
    "suite.t100",
];

/// The experiment configuration for `seed`; seed 0 is the committed one.
pub fn config(seed: u64, workers: usize) -> ExperimentConfig {
    let base = ExperimentConfig::default();
    ExperimentConfig {
        corpus_seed: base.corpus_seed ^ seed,
        server_seed: base.server_seed ^ seed,
        workers,
        ..base
    }
}

/// One section's table, through its public runner.
fn section(cfg: &ExperimentConfig, id: &str) -> String {
    match id {
        "fig01" => fig01(cfg).2,
        "fig02" => fig02(cfg).1,
        "fig03" => fig03(cfg).1,
        "fig04" => fig04(cfg).2,
        "fig07" => fig07(cfg).1,
        "fig09" => fig09(cfg).2,
        "fig11" => fig11(cfg).1,
        "fig13" => fig13(cfg).1,
        "fig14" => fig14(cfg).1,
        "fig15" => fig15(cfg).2,
        "fig16" => fig16(cfg).1,
        "fig17" => fig17(cfg).1,
        "fig18" => fig18(cfg).1,
        "fig19" => fig19(cfg).1,
        "fig20" => fig20(cfg).1,
        "fig21" => fig21(cfg).1,
        "incr" => incremental_deployment(cfg).3,
        "t100" => top400_sample(cfg).2,
        other => panic!("run_all has no section {other}"),
    }
}

/// Child entry point: run one report (`traced` or not), print it on
/// stdout and a one-line JSON summary on stderr.
pub fn child(traced: bool, seed: u64, workers: usize) {
    let cfg = config(seed, workers);
    let t = Instant::now();
    let mut spans = SpanBuf::default();
    let report = if traced {
        let root = spans.open("suite.run", None, 0);
        let mut out = String::new();
        for (i, (id, name)) in RUN_ALL_SECTIONS.iter().zip(SECTION_SPANS).enumerate() {
            let table = spans.span(name, Some(root), i as u64, || section(&cfg, id));
            out.push_str(&format!("==== {id} ====\n{table}\n"));
        }
        spans.close(root);
        out
    } else {
        run_all_report(&cfg)
    };
    let wall_s = t.elapsed().as_secs_f64();
    print!("{report}");
    let mut summary = BTreeMap::new();
    summary.insert("wall_s".into(), Value::Float(wall_s));
    summary.insert("vmhwm_kb".into(), Value::Int(crate::sys::vmhwm_kb()));
    let spans: Vec<Value> = spans
        .spans
        .iter()
        .map(|s| {
            Value::Array(vec![
                Value::Str(s.name.into()),
                Value::Int(s.id),
                s.parent.map_or(Value::Null, Value::Int),
                Value::Int(s.op),
                Value::Int(s.start_ns),
                Value::Int(s.end_ns),
            ])
        })
        .collect();
    summary.insert("spans".into(), Value::Array(spans));
    eprintln!("{CHILD_TAG}{}", to_line(&Value::Object(summary)));
}

/// What the parent learns from one child.
struct ChildRun {
    report: String,
    wall_s: f64,
    vmhwm_kb: u64,
    spans: Vec<Span>,
}

fn spawn(traced: bool, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mode = if traced { "suite-traced" } else { "suite" };
    let out = Command::new(exe)
        .args(["--child", mode, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn suite child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("suite child exited with {}: {stderr}", out.status));
    }
    let summary = stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(CHILD_TAG))
        .ok_or("suite child printed no summary")?;
    let summary = Value::parse(summary).map_err(|e| format!("child summary: {e:?}"))?;
    let number = |v: Option<&Value>| match v {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::Int(n)) => Some(*n as f64),
        _ => None,
    };
    let spans = match summary.get("spans") {
        Some(Value::Array(items)) => items.iter().filter_map(parse_span).collect(),
        _ => Vec::new(),
    };
    Ok(ChildRun {
        report: String::from_utf8_lossy(&out.stdout).into_owned(),
        wall_s: number(summary.get("wall_s")).ok_or("child summary lacks wall_s")?,
        vmhwm_kb: summary.get("vmhwm_kb").and_then(Value::as_u64).unwrap_or(0),
        spans,
    })
}

fn parse_span(v: &Value) -> Option<Span> {
    let Value::Array(f) = v else { return None };
    let name = f.first()?.as_str()?;
    let name = std::iter::once("suite.run")
        .chain(SECTION_SPANS)
        .find(|n| *n == name)?;
    Some(Span {
        name,
        id: f.get(1)?.as_u64()?,
        parent: f.get(2)?.as_u64(),
        op: f.get(3)?.as_u64()?,
        start_ns: f.get(4)?.as_u64()?,
        end_ns: f.get(5)?.as_u64()?,
        tid: 1,
    })
}

/// Set-up: load the reference report and build every corpus the suite
/// draws from, with the same constructors its sections call.
fn set_up(seed: u64, workers: usize) -> Result<Option<String>, String> {
    let cfg = config(seed, workers);
    for corpus in [
        Corpus::top100_capped(cfg.corpus_seed, cfg.max_sites),
        Corpus::news_and_sports_capped(cfg.corpus_seed, cfg.max_sites),
        Corpus::top400_sample_capped(cfg.corpus_seed, cfg.max_sites),
        Corpus::accuracy_pages_capped(cfg.corpus_seed, cfg.max_sites),
    ] {
        std::hint::black_box(corpus);
    }
    if seed != 0 {
        return Ok(None);
    }
    std::fs::read_to_string(GOLDEN)
        .map(Some)
        .map_err(|e| format!("{GOLDEN}: {e} (run from the repository root)"))
}

/// Shared loop of both modes: until `seconds` have passed, set up and run
/// a child, checking its report. `traced` alternates untraced and traced
/// children.
fn drive(
    seed: u64,
    seconds: f64,
    workers: usize,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Vec<ChildRun>, Vec<ChildRun>), String> {
    let (mut setup_s, mut first) = (Vec::new(), None);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        for with in [false, true].into_iter().take(1 + usize::from(traced)) {
            let t = Instant::now();
            let golden = set_up(seed, workers)?;
            setup_s.push(t.elapsed().as_secs_f64());
            let run = spawn(with, seed)?;
            let first = first.get_or_insert_with(|| run.report.clone());
            let reference = golden.as_ref().unwrap_or(first);
            let ok = &run.report == reference;
            if !ok {
                eprintln!("paper_suite: report differs from the reference");
            }
            out.check(ok);
            if with {
                with_spans.push(run);
            } else {
                plain.push(run);
            }
        }
    }
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    Ok((plain, with_spans))
}

/// Untraced run.
pub fn run(seed: u64, seconds: f64, workers: usize, out: &mut Outcome) -> Result<(), String> {
    let (plain, _) = drive(seed, seconds, workers, false, out)?;
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let suite_s = median(&walls).unwrap_or(f64::NAN);
    let rss: Vec<f64> = plain.iter().map(|r| r.vmhwm_kb as f64 / 1024.0).collect();
    println!(
        "paper_suite: {} reports at {workers} workers, each in a fresh process",
        plain.len()
    );
    println!("suite_s {suite_s:.4} s");
    println!("report_s {}", describe_spread(&walls, 1.0));
    out.set("ops_per_s", 1.0 / suite_s);
    out.set("peak_rss_mb", median(&rss).unwrap_or(f64::NAN));
    Ok(())
}

/// Traced run: per-section self times, and the overhead of the traced
/// (sequential-section) report over the untraced one.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    workers: usize,
    out: &mut Outcome,
    spans_out: &mut SpanBuf,
) -> Result<(), String> {
    let (plain, traced) = drive(seed, seconds, workers, true, out)?;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in &traced {
        for (name, t) in totals_by_name(&run.spans) {
            by_name
                .entry(name)
                .or_default()
                .push(t.self_ns as f64 / 1e9);
        }
    }
    for (name, values) in &by_name {
        let metric = if *name == "suite.run" {
            "trace.unattributed_s".to_string()
        } else {
            format!("{name}_s")
        };
        out.set(&metric, median(values).unwrap_or(f64::NAN));
    }
    let wall = |runs: &[ChildRun]| median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let (plain_s, traced_s) = (wall(&plain), wall(&traced));
    out.set(
        "trace.overhead_s",
        traced_s.unwrap_or(f64::NAN) - plain_s.unwrap_or(f64::NAN),
    );
    if let Some(last) = traced.last() {
        out.set("trace.spans", last.spans.len() as f64);
        spans_out.spans = last.spans.clone();
    }
    println!(
        "paper_suite: {} untraced reports (median {:.3} s), {} traced (median {:.3} s; sections run one after another)",
        plain.len(),
        plain_s.unwrap_or(f64::NAN),
        traced.len(),
        traced_s.unwrap_or(f64::NAN)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_spans_follow_run_all_order() {
        for (id, name) in RUN_ALL_SECTIONS.iter().zip(SECTION_SPANS) {
            assert_eq!(name.strip_prefix("suite."), Some(*id));
        }
    }

    #[test]
    fn seed_zero_is_the_committed_configuration() {
        let cfg = config(0, 2);
        let base = ExperimentConfig::default();
        assert_eq!(
            (cfg.corpus_seed, cfg.server_seed),
            (base.corpus_seed, base.server_seed)
        );
        assert_eq!(cfg.max_sites, None);
        assert_ne!(config(1, 2).corpus_seed, base.corpus_seed);
    }

    #[test]
    fn child_spans_survive_the_summary_round_trip() {
        let v = Value::Array(vec![
            Value::Str("suite.fig13".into()),
            Value::Int(9),
            Value::Int(1),
            Value::Int(7),
            Value::Int(100),
            Value::Int(250),
        ]);
        let s = parse_span(&v).expect("known span name parses");
        assert_eq!(
            (s.name, s.id, s.parent, s.op, s.dur_ns()),
            ("suite.fig13", 9, Some(1), 7, 150)
        );
        let unknown = Value::Array(vec![Value::Str("suite.nope".into())]);
        assert_eq!(parse_span(&unknown), None);
    }
}
