//! `vroom-bench` — the perf-trajectory harness. Unlike `run_all` (which
//! regenerates the paper's tables), this binary measures *this repo's
//! own* hot paths so optimisation work leaves a committed record:
//!
//! ```sh
//! vroom-bench micro [--iters N] [--check-against BENCH_micro.json]
//! ```
//!
//! `micro` runs the microbenchmarks (URL join + intern, replay-store lookup,
//! HPACK encode/decode, HTTP/2 frame assembly, event-queue churn, a full
//! single-site load) plus two
//! end-to-end `run_all` measurements, and writes `BENCH_micro.json` and
//! `BENCH_e2e.json` into the current directory through the canonical JSON
//! codec (sorted keys, byte-deterministic layout — only the measured numbers
//! change between runs). Each entry records the median, interquartile range,
//! and iteration counts; `BENCH_e2e.json` additionally pins the
//! pre-optimization medians measured before the interning overhaul so the
//! trajectory stays visible in-repo.
//!
//! `--check-against FILE` re-reads a committed `BENCH_micro.json` and exits
//! non-zero if the fresh `full_single_site_load` median regressed more than
//! 25% against it (the CI bench-smoke gate). `check-e2e FILE` gates the
//! committed sites-4 `run_all` median against the ratcheted ceiling without
//! re-measuring anything. Every gate pre-validates its baseline *before*
//! any measuring starts, and exits 2 (after printing usage) when the file
//! it needs is missing or unreadable, so CI can tell a broken invocation
//! from a real regression.
//!
//! ```sh
//! vroom-bench fleet [--clients N] [--sites N] [--shards N] [--seed N]
//!                   [--window MS] [--span MS] [--workers N]
//!                   [--check-against BENCH_fleet.json] [--tolerance PCT]
//! ```
//!
//! `fleet` runs the fleet-scale serving simulation (`vroom-fleet`: N
//! deterministic clients against one shared server with a sharded hint
//! store), times it, and writes `BENCH_fleet.json` with three sections:
//! `config` (the run parameters), `metrics` (the deterministic
//! [`vroom_fleet::FleetReport`] — byte-identical at any worker count), and
//! `timing` (wall-clock throughput, the only machine-dependent part).
//! `--check-against` requires the baseline's `config` and `metrics` to match
//! the fresh run *exactly* (any drift in deterministic output is a bug, not
//! noise) and gates `timing.loads_per_sec` within `--tolerance` percent
//! (default 25).
//!
//! This is wall-clock scaffolding and never runs inside the simulator;
//! the simulation itself stays deterministic.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::BytesMut;
use criterion::{black_box, sample, Measurement};
use vroom::experiment::run_all_report;
use vroom::{run_load, ExperimentConfig, System};
use vroom_browser::metrics::quartiles;
use vroom_hpack::{Decoder, Encoder, HeaderField};
use vroom_html::Url;
use vroom_intern::UrlTable;
use vroom_net::json::Value;
use vroom_net::{NetworkProfile, RecordedResponse, ReplayStore};
use vroom_pages::{LoadContext, PageGenerator, SiteProfile};
use vroom_sim::{EventQueue, SimTime};

/// Medians measured on this repo immediately *before* the interning /
/// shared-body / O(log n)-cancel overhaul, with the same configurations as
/// the entries they annotate. Committed so `BENCH_e2e.json` always shows
/// where the trajectory started.
const PRE_OPT_FULL_W1_MS: u64 = 16_177;
const PRE_OPT_SITES4_W1_MS: u64 = 798;

const USAGE: &str =
    "usage: vroom-bench <micro [OPTIONS] | fleet [OPTIONS] | freshness [OPTIONS] | check-e2e FILE>
  micro                  run the microbenchmarks and write BENCH_micro.json
                         and BENCH_e2e.json into the current directory
  --iters N              samples per microbenchmark (default 10; e2e runs
                         take min(N, 5) samples since each is a full run_all)
  --check-against FILE   compare the fresh full_single_site_load median
                         against the committed BENCH_micro.json at FILE and
                         exit 1 if it regressed by more than 25% (exit 2 if
                         FILE is missing or unreadable; the baseline is
                         validated before anything is measured)
  fleet                  run the fleet serving simulation and write
                         BENCH_fleet.json into the current directory
  --clients N            simulated clients (default 1000)
  --sites N              distinct sites (default 8)
  --shards N             hint-store shards (default 16)
  --seed N               fleet seed (default 990951)
  --window MS            batch window in virtual ms (default 100)
  --span MS              arrival span in virtual ms (default 10000)
  --span-hours N         hour buckets arrivals spread over (default 0)
  --policy P             store eviction policy: never | ttl:N |
                         refresh:N (default never)
  --learn                feed observed client loads back into the store
  --workers N            worker threads (default 1; metrics are identical
                         for every value, only timing moves)
  --check-against FILE   require the committed BENCH_fleet.json at FILE to
                         match the fresh config+metrics exactly and gate
                         timing.loads_per_sec within --tolerance percent
                         (exit 2 if FILE is missing or unreadable)
  --tolerance PCT        allowed loads/sec slowdown in percent (default 25)
  freshness              sweep hint age x eviction policy and write
                         BENCH_freshness.json into the current directory
  --clients N            clients loaded per cell (default 120)
  --sites N              distinct sites (default 6)
  --shards N             hint-store shards (default 8)
  --seed N               sweep seed (default 63717)
  --ages N               sweep hint ages 0..=N hour buckets (default 6)
  --ttl N                TTL for the ttl/refresh columns (default 1, the
                         Fig 7 calibration)
  --corruption F         fraction of served hints the fault layer corrupts
                         (default 0.40; must stay below 0.5, the client's
                         discard threshold)
  --workers N            worker threads (default 1; metrics are identical
                         for every value, only timing moves)
  --check-against FILE   require the committed BENCH_freshness.json at FILE
                         to match the fresh config+metrics exactly and gate
                         timing.loads_per_sec within --tolerance percent
  --tolerance PCT        allowed loads/sec slowdown in percent (default 25)
  check-e2e FILE         read a committed BENCH_e2e.json at FILE and exit 1
                         if runs.run_all_sites4_workers1.median_ms exceeds
                         the ratcheted gate (exit 2 if FILE is missing or
                         unreadable)";

/// A CLI failure: the message to print and the exit code to die with.
/// Code 1 is a measured or argument failure; code 2 is an unusable
/// invocation (missing/unreadable baseline file), reported with usage.
#[derive(Debug)]
struct CliError {
    message: String,
    exit_code: i32,
}

impl CliError {
    fn unusable(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            exit_code: 2,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError {
            message,
            exit_code: 1,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::from(message.to_string())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {}", e.message);
            eprintln!("{USAGE}");
            std::process::exit(e.exit_code);
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err("missing subcommand".into());
    };
    if command == "check-e2e" {
        let path = args.get(1).ok_or("check-e2e takes a file path")?;
        if args.len() > 2 {
            return Err(format!("unexpected argument {:?}", args[2]).into());
        }
        return check_e2e_gate(path);
    }
    if command == "fleet" {
        return fleet_cmd(&args[1..]);
    }
    if command == "freshness" {
        return freshness_cmd(&args[1..]);
    }
    if command != "micro" {
        return Err(format!("unknown subcommand {command:?}").into());
    }
    let mut iters: u64 = 10;
    let mut check_against: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--iters takes a number >= 1")?;
                i += 2;
            }
            "--check-against" => {
                check_against = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or("--check-against takes a file path")?,
                );
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }

    // Pre-validate the baseline before spending minutes measuring: a missing
    // or malformed file should fail the invocation immediately, not after
    // the full benchmark run.
    let baseline = check_against
        .as_deref()
        .map(load_micro_baseline)
        .transpose()?;

    let micro = run_micro(iters);
    write_json("BENCH_micro.json", micro_json(&micro))?;
    println!("wrote BENCH_micro.json");

    let e2e = run_e2e(iters.min(5));
    write_json("BENCH_e2e.json", e2e_json(&e2e))?;
    println!("wrote BENCH_e2e.json");

    if let Some(baseline_us) = baseline {
        check_regression(baseline_us, &micro)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fleet serving benchmark
// ---------------------------------------------------------------------------

/// Parse `fleet` flags, run the simulation, write `BENCH_fleet.json`, and
/// apply the `--check-against` gate. The baseline (when given) is loaded and
/// validated *before* the run starts.
fn fleet_cmd(args: &[String]) -> Result<(), CliError> {
    let mut cfg = vroom_fleet::FleetConfig::default();
    let mut check_against: Option<String> = None;
    let mut tolerance_pct: f64 = 25.0;
    let mut i = 0;
    while i < args.len() {
        let numeric = |name: &str| -> Result<u64, CliError> {
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CliError::from(format!("{name} takes a number")))
        };
        match args[i].as_str() {
            "--clients" => cfg.clients = numeric("--clients")?.max(1) as usize,
            "--sites" => cfg.sites = numeric("--sites")?.max(1) as usize,
            "--shards" => cfg.shards = numeric("--shards")?.max(1) as usize,
            "--seed" => cfg.seed = numeric("--seed")?,
            "--window" => cfg.batch_window_ms = numeric("--window")?.max(1),
            "--span" => cfg.arrival_span_ms = numeric("--span")?.max(1),
            "--span-hours" => cfg.span_hours = numeric("--span-hours")?,
            "--policy" => {
                cfg.policy = parse_policy(
                    args.get(i + 1)
                        .ok_or("--policy takes never | ttl:N | refresh:N")?,
                )?;
            }
            "--learn" => {
                cfg.learn_from_loads = true;
                i += 1;
                continue;
            }
            "--workers" => cfg.workers = numeric("--workers")?.max(1) as usize,
            "--check-against" => {
                check_against = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or("--check-against takes a file path")?,
                );
            }
            "--tolerance" => {
                tolerance_pct = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                    .ok_or("--tolerance takes a percentage >= 0")?;
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
        i += 2;
    }

    let baseline = check_against
        .as_deref()
        .map(load_fleet_baseline)
        .transpose()?;

    let start = Instant::now();
    let clock = || start.elapsed().as_secs_f64();
    let (run, stages) = vroom_fleet::run_fleet_instrumented(&cfg, Some(&clock));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let loads_per_sec = cfg.clients as f64 / (wall_ms / 1e3).max(1e-9);

    print!("{}", run.report.render());
    println!(
        "timing: {wall_ms:.1} ms wall, {loads_per_sec:.1} loads/sec ({} workers)",
        cfg.workers
    );
    println!(
        "stages: pass {:.1} ms, commit {:.1} ms, load {:.1} ms, account {:.1} ms",
        stages.pass_s * 1e3,
        stages.commit_s * 1e3,
        stages.load_s * 1e3,
        stages.account_s * 1e3
    );

    let json = fleet_json(&cfg, &run.report, wall_ms, loads_per_sec, &stages);
    write_json("BENCH_fleet.json", json.clone())?;
    println!("wrote BENCH_fleet.json");

    if let Some(baseline) = baseline {
        check_fleet_gate(&baseline, &json, tolerance_pct)?;
    }
    Ok(())
}

/// The three-section `BENCH_fleet.json` tree: `config` and `metrics` are
/// deterministic (byte-identical at any worker count); `timing` is the only
/// machine-dependent section, so the gate treats them differently.
fn fleet_json(
    cfg: &vroom_fleet::FleetConfig,
    report: &vroom_fleet::FleetReport,
    wall_ms: f64,
    loads_per_sec: f64,
    stages: &vroom_fleet::FleetStageTiming,
) -> Value {
    let mut config = BTreeMap::new();
    config.insert("clients".into(), Value::Int(cfg.clients as u64));
    config.insert("sites".into(), Value::Int(cfg.sites as u64));
    config.insert("shards".into(), Value::Int(cfg.shards as u64));
    config.insert("seed".into(), Value::Int(cfg.seed));
    config.insert("batch_window_ms".into(), Value::Int(cfg.batch_window_ms));
    config.insert("arrival_span_ms".into(), Value::Int(cfg.arrival_span_ms));
    // Freshness keys appear only when the freshness machinery is in play,
    // so a legacy run's file stays byte-identical to the pre-freshness one.
    if cfg.policy != vroom_server::EvictionPolicy::Never
        || cfg.span_hours > 0
        || cfg.learn_from_loads
    {
        config.insert("span_hours".into(), Value::Int(cfg.span_hours));
        config.insert("policy".into(), Value::Str(cfg.policy.label()));
        config.insert("learn_from_loads".into(), Value::Bool(cfg.learn_from_loads));
    }
    let mut timing = BTreeMap::new();
    timing.insert("wall_ms".into(), Value::Float(round3(wall_ms)));
    timing.insert("loads_per_sec".into(), Value::Float(round3(loads_per_sec)));
    timing.insert("workers".into(), Value::Int(cfg.workers as u64));
    // Per-stage breakdown of the pipelined run. Diagnostic and
    // machine-dependent like the rest of `timing`; the gate ignores it.
    timing.insert("pass_ms".into(), Value::Float(round3(stages.pass_s * 1e3)));
    timing.insert(
        "commit_ms".into(),
        Value::Float(round3(stages.commit_s * 1e3)),
    );
    timing.insert("load_ms".into(), Value::Float(round3(stages.load_s * 1e3)));
    timing.insert(
        "account_ms".into(),
        Value::Float(round3(stages.account_s * 1e3)),
    );
    let mut root = BTreeMap::new();
    root.insert("schema".into(), Value::Str("vroom-bench-fleet/1".into()));
    root.insert("config".into(), Value::Object(config));
    root.insert("metrics".into(), report.to_json_value());
    root.insert("timing".into(), Value::Object(timing));
    Value::Object(root)
}

/// Parse a `--policy` argument: `never`, `ttl:N`, or `refresh:N`.
fn parse_policy(s: &str) -> Result<vroom_server::EvictionPolicy, CliError> {
    use vroom_server::EvictionPolicy;
    if s == "never" {
        return Ok(EvictionPolicy::Never);
    }
    let parsed = s
        .split_once(':')
        .and_then(|(name, n)| Some((name, n.parse::<u64>().ok()?)));
    match parsed {
        Some(("ttl", n)) => Ok(EvictionPolicy::Ttl(n)),
        Some(("refresh", n)) => Ok(EvictionPolicy::RefreshOnMiss(n)),
        _ => Err(format!("bad --policy {s:?}: expected never | ttl:N | refresh:N").into()),
    }
}

// ---------------------------------------------------------------------------
// Freshness sweep benchmark
// ---------------------------------------------------------------------------

/// Parse `freshness` flags, run the age x policy sweep, write
/// `BENCH_freshness.json`, and apply the `--check-against` gate (same shape
/// as the fleet gate: exact config+metrics, tolerant timing).
fn freshness_cmd(args: &[String]) -> Result<(), CliError> {
    let mut cfg = vroom_fleet::FreshnessConfig::default();
    let mut check_against: Option<String> = None;
    let mut tolerance_pct: f64 = 25.0;
    let mut i = 0;
    while i < args.len() {
        let numeric = |name: &str| -> Result<u64, CliError> {
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CliError::from(format!("{name} takes a number")))
        };
        match args[i].as_str() {
            "--clients" => cfg.clients = numeric("--clients")?.max(1) as usize,
            "--sites" => cfg.sites = numeric("--sites")?.max(1) as usize,
            "--shards" => cfg.shards = numeric("--shards")?.max(1) as usize,
            "--seed" => cfg.seed = numeric("--seed")?,
            "--ages" => cfg.max_age_hours = numeric("--ages")?,
            "--ttl" => cfg.ttl_hours = numeric("--ttl")?.max(1),
            "--corruption" => {
                cfg.hint_corruption = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&c: &f64| (0.0..0.5).contains(&c))
                    .ok_or("--corruption takes a fraction in [0, 0.5)")?;
            }
            "--workers" => cfg.workers = numeric("--workers")?.max(1) as usize,
            "--check-against" => {
                check_against = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or("--check-against takes a file path")?,
                );
            }
            "--tolerance" => {
                tolerance_pct = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                    .ok_or("--tolerance takes a percentage >= 0")?;
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
        i += 2;
    }

    let baseline = check_against
        .as_deref()
        .map(load_fleet_baseline)
        .transpose()?;

    let start = Instant::now();
    let report = vroom_fleet::run_freshness(&cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // One baseline population plus one per cell.
    let total_loads = cfg.clients as u64 * (report.cells.len() as u64 + 1);
    let loads_per_sec = total_loads as f64 / (wall_ms / 1e3).max(1e-9);

    print!("{}", report.render());
    println!(
        "timing: {wall_ms:.1} ms wall, {loads_per_sec:.1} loads/sec ({} workers)",
        cfg.workers
    );

    let json = freshness_json(&cfg, &report, wall_ms, loads_per_sec);
    write_json("BENCH_freshness.json", json.clone())?;
    println!("wrote BENCH_freshness.json");

    if let Some(baseline) = baseline {
        check_fleet_gate(&baseline, &json, tolerance_pct)?;
    }
    Ok(())
}

/// The three-section `BENCH_freshness.json` tree, mirroring the fleet file:
/// deterministic `config` + `metrics`, machine-dependent `timing`.
fn freshness_json(
    cfg: &vroom_fleet::FreshnessConfig,
    report: &vroom_fleet::FreshnessReport,
    wall_ms: f64,
    loads_per_sec: f64,
) -> Value {
    let mut config = BTreeMap::new();
    config.insert("clients".into(), Value::Int(cfg.clients as u64));
    config.insert("sites".into(), Value::Int(cfg.sites as u64));
    config.insert("shards".into(), Value::Int(cfg.shards as u64));
    config.insert("seed".into(), Value::Int(cfg.seed));
    config.insert("max_age_hours".into(), Value::Int(cfg.max_age_hours));
    config.insert("ttl_hours".into(), Value::Int(cfg.ttl_hours));
    config.insert(
        "hint_corruption".into(),
        Value::Float(round3(cfg.hint_corruption)),
    );
    let mut timing = BTreeMap::new();
    timing.insert("wall_ms".into(), Value::Float(round3(wall_ms)));
    timing.insert("loads_per_sec".into(), Value::Float(round3(loads_per_sec)));
    timing.insert("workers".into(), Value::Int(cfg.workers as u64));
    let mut root = BTreeMap::new();
    root.insert(
        "schema".into(),
        Value::Str("vroom-bench-freshness/1".into()),
    );
    root.insert("config".into(), Value::Object(config));
    root.insert("metrics".into(), report.to_json_value());
    root.insert("timing".into(), Value::Object(timing));
    Value::Object(root)
}

/// A validated fleet baseline: the deterministic sections plus the one
/// timing number the gate compares.
#[derive(Debug)]
struct FleetBaseline {
    path: String,
    config: Value,
    metrics: Value,
    loads_per_sec: f64,
}

/// Read and validate a committed `BENCH_fleet.json`. An unreadable file is
/// an unusable invocation (exit 2); a readable file with the wrong shape is
/// a failure (exit 1).
fn load_fleet_baseline(path: &str) -> Result<FleetBaseline, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::unusable(format!("read {path}: {e}")))?;
    let root = Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Value::Object(map) = &root else {
        return Err(format!("{path}: top level is not an object").into());
    };
    let section = |name: &str| -> Result<Value, CliError> {
        map.get(name)
            .cloned()
            .ok_or_else(|| CliError::from(format!("{path}: missing {name:?} section")))
    };
    let config = section("config")?;
    let metrics = section("metrics")?;
    let Value::Object(timing) = section("timing")? else {
        return Err(format!("{path}: timing is not an object").into());
    };
    let loads_per_sec = match timing.get("loads_per_sec") {
        Some(Value::Float(f)) => *f,
        Some(Value::Int(n)) => *n as f64,
        _ => return Err(format!("{path}: no timing.loads_per_sec").into()),
    };
    Ok(FleetBaseline {
        path: path.to_string(),
        config,
        metrics,
        loads_per_sec,
    })
}

/// The fleet CI gate. Deterministic sections must match exactly — the fleet
/// is byte-identical by construction, so *any* drift in `config` or
/// `metrics` is a correctness failure, not noise. They are compared as
/// canonical bytes, not parsed trees: the codec prints `Float(1500.0)` as
/// `1500`, which parses back as `Int(1500)`. Throughput may wobble with the
/// machine: only a slowdown beyond `tolerance_pct` fails.
fn check_fleet_gate(
    baseline: &FleetBaseline,
    fresh: &Value,
    tolerance_pct: f64,
) -> Result<(), CliError> {
    let Value::Object(fresh) = fresh else {
        return Err("fresh fleet output is not an object".into());
    };
    let path = &baseline.path;
    for (name, want) in [("config", &baseline.config), ("metrics", &baseline.metrics)] {
        let got = fresh
            .get(name)
            .ok_or_else(|| CliError::from(format!("fresh run is missing {name:?}")))?;
        let (want_s, got_s) = (want.to_pretty(), got.to_pretty());
        if got_s != want_s {
            return Err(format!(
                "fleet {name} drifted from the committed baseline at {path} — \
                 deterministic output must match exactly (regenerate the baseline \
                 if the change is intended)\n--- baseline\n{want_s}\n--- fresh\n{got_s}"
            )
            .into());
        }
    }
    let fresh_lps = match fresh.get("timing") {
        Some(Value::Object(t)) => match t.get("loads_per_sec") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(n)) => *n as f64,
            _ => return Err("fresh run has no timing.loads_per_sec".into()),
        },
        _ => return Err("fresh run has no timing section".into()),
    };
    let floor = baseline.loads_per_sec * (1.0 - tolerance_pct / 100.0);
    if fresh_lps < floor {
        return Err(format!(
            "fleet throughput regressed: {fresh_lps:.1} loads/sec vs baseline {:.1} \
             (floor {floor:.1}, -{tolerance_pct:.0}%)",
            baseline.loads_per_sec
        )
        .into());
    }
    println!(
        "fleet gate ok: metrics match {path}; {fresh_lps:.1} loads/sec vs baseline {:.1} \
         (floor {floor:.1})",
        baseline.loads_per_sec
    );
    Ok(())
}

/// The CI e2e ratchet: fail if the committed sites-4 median exceeds the
/// pre-optimization gate. A missing or unreadable file is an unusable
/// invocation (exit 2), distinct from a genuine regression (exit 1).
fn check_e2e_gate(path: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::unusable(format!("read {path}: {e}")))?;
    let root = Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let median = lookup_run_median(&root, "run_all_sites4_workers1")
        .ok_or_else(|| format!("{path}: no runs.run_all_sites4_workers1.median_ms"))?;
    let gate = PRE_OPT_SITES4_W1_MS as f64;
    if median > gate {
        return Err(format!(
            "run_all_sites4_workers1 median {median:.1} ms exceeds the {gate:.0} ms gate"
        )
        .into());
    }
    println!("e2e gate ok: run_all_sites4_workers1 median {median:.1} ms <= {gate:.0} ms");
    Ok(())
}

fn lookup_run_median(root: &Value, run: &str) -> Option<f64> {
    let Value::Object(root) = root else {
        return None;
    };
    let Value::Object(runs) = root.get("runs")? else {
        return None;
    };
    let Value::Object(entry) = runs.get(run)? else {
        return None;
    };
    match entry.get("median_ms")? {
        Value::Float(f) => Some(*f),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// One finished benchmark: its raw measurement reduced to summary stats.
struct BenchStats {
    name: &'static str,
    median_us: f64,
    iqr_us: f64,
    iters_per_sample: u64,
    samples: usize,
}

fn stats(name: &'static str, m: &Measurement) -> BenchStats {
    let us: Vec<f64> = m.per_iter_secs.iter().map(|s| s * 1e6).collect();
    let q = quartiles(&us);
    BenchStats {
        name,
        median_us: q.p50,
        iqr_us: q.p75 - q.p25,
        iters_per_sample: m.iters_per_sample,
        samples: m.samples(),
    }
}

// ---------------------------------------------------------------------------
// Microbenchmarks
// ---------------------------------------------------------------------------

fn run_micro(samples: u64) -> Vec<BenchStats> {
    let mut out = Vec::new();

    // URL join + intern: resolve relative references against a base and
    // intern the results — the parse half of every hint and markup scan.
    let base = Url::https("news.example.com", "/section/front/index.html");
    let refs: Vec<String> = (0..32)
        .map(|i| match i % 4 {
            0 => format!("../assets/app-{i}.js"),
            1 => format!("/img/hero-{i}.jpg"),
            2 => format!("https://cdn{}.example.net/lib.css", i % 3),
            _ => format!("widget-{i}.html?v={i}"),
        })
        .collect();
    let m = sample(samples, 200, || {
        let mut table = UrlTable::new();
        for r in &refs {
            let u = base.join(r).expect("joinable reference");
            black_box(table.intern(u));
        }
        table.len()
    });
    out.push(stats("url_join_intern", &m));
    report(out.last().expect("just pushed"));

    // Replay-store lookup: the per-request hot path of the wire server,
    // by URL (BTreeMap probe over string keys) and by interned id
    // (Vec index) — the spread these two show is the point of interning.
    let page = PageGenerator::new(SiteProfile::news(), 42).snapshot(&LoadContext::reference());
    let mut store = ReplayStore::new();
    for r in &page.resources {
        store.record(r.url.clone(), RecordedResponse::synthetic(r.kind, r.size));
    }
    let urls: Vec<Url> = page.resources.iter().map(|r| r.url.clone()).collect();
    let ids: Vec<_> = urls
        .iter()
        .map(|u| store.id_of(u).expect("recorded url"))
        .collect();
    let m = sample(samples, 500, || {
        let mut hits = 0usize;
        for u in &urls {
            hits += usize::from(store.lookup(u).is_some());
        }
        hits
    });
    out.push(stats("replay_lookup_url", &m));
    report(out.last().expect("just pushed"));
    let m = sample(samples, 500, || {
        let mut hits = 0usize;
        for &id in &ids {
            hits += usize::from(store.lookup_id(id).is_some());
        }
        hits
    });
    out.push(stats("replay_lookup_id", &m));
    report(out.last().expect("just pushed"));

    // HPACK encode/decode of a response carrying dependency hints — the
    // per-response wire overhead of the Vroom protocol.
    let headers: Vec<HeaderField> = vec![
        HeaderField::new(":status", "200"),
        HeaderField::new("content-type", "text/html; charset=utf-8"),
        HeaderField::new(
            "link",
            "<https://cdn.news.com/app.js>; rel=preload; as=script",
        ),
        HeaderField::new("x-semi-important", "https://tp1.net/widget.js"),
        HeaderField::new("x-unimportant", "https://cdn.news.com/hero.jpg"),
        HeaderField::new("cache-control", "max-age=3600"),
    ];
    let m = sample(samples, 1_000, || {
        black_box(Encoder::new().encode(&headers))
    });
    out.push(stats("hpack_encode", &m));
    report(out.last().expect("just pushed"));
    let wire = Encoder::new().encode(&headers);
    let m = sample(samples, 1_000, || {
        black_box(Decoder::new().decode(&wire).expect("valid block"))
    });
    out.push(stats("hpack_decode", &m));
    report(out.last().expect("just pushed"));

    // HTTP/2 frame assembly through the raw emitters: one HEADERS plus
    // sixteen 1 KiB DATA frames written into a reused output buffer — the
    // per-response framing work of the zero-copy wire path.
    let fragment = Encoder::new().encode(&headers);
    let payload = [0xa5u8; 1024];
    let mut buf = BytesMut::with_capacity(32 * 1024);
    let m = sample(samples, 1_000, || {
        buf.clear();
        vroom_http2::frame::encode_headers_raw(&mut buf, 1, &fragment, false, true);
        for i in 0..16 {
            vroom_http2::frame::encode_data_raw(&mut buf, 1, &payload, i == 15);
        }
        black_box(buf.len())
    });
    out.push(stats("h2_frame_assemble", &m));
    report(out.last().expect("just pushed"));

    // Event-queue churn: the simulator's core data structure under the
    // schedule / cancel / pop mix a loaded page produces. Half the events
    // are cancelled, exercising the id-liveness path rather than a drain.
    let m = sample(samples, 50, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let ids: Vec<_> = (0..1024u64)
            .map(|i| q.schedule(SimTime::from_micros(i * 7 % 911), i as u32))
            .collect();
        for id in ids.iter().step_by(2) {
            q.cancel(*id);
        }
        let mut popped = 0usize;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    });
    out.push(stats("event_queue_churn", &m));
    report(out.last().expect("just pushed"));

    // Executor dispatch overhead: a 64-item fan-out of trivial work at
    // width 4, once through `par_map_indexed` (spawns and joins threads
    // every call — the fixed cost each fleet batch used to pay twice) and
    // once through a persistent `Pool` (threads live across calls). The
    // spread between these two is the pool's reason to exist.
    let items: Vec<u64> = (0..64).collect();
    let m = sample(samples, 100, || {
        let v = vroom_exec::par_map_indexed(&items, 4, |i, &x| x.wrapping_mul(i as u64 + 1));
        black_box(v.len())
    });
    out.push(stats("par_map_overhead", &m));
    report(out.last().expect("just pushed"));
    let pool: vroom_exec::Pool<()> = vroom_exec::Pool::new(4);
    let m = sample(samples, 100, || {
        let v = pool.dispatch(items.clone(), |_scratch, i, &x| {
            x.wrapping_mul(i as u64 + 1)
        });
        black_box(v.len())
    });
    out.push(stats("pool_dispatch_overhead", &m));
    report(out.last().expect("just pushed"));
    drop(pool);

    // Full single-site load: one complete deterministic browser run under
    // the Vroom system — the unit the experiment suite repeats thousands
    // of times, so this is the number that moves when hot paths improve.
    let site = PageGenerator::new(SiteProfile::news(), 42);
    let ctx = LoadContext::reference();
    let net = NetworkProfile::lte();
    let m = sample(samples, 3, || {
        black_box(run_load(&site, &ctx, &net, System::Vroom, 7).plt)
    });
    out.push(stats("full_single_site_load", &m));
    report(out.last().expect("just pushed"));

    out
}

fn report(b: &BenchStats) {
    println!(
        "bench {:<28} median {:>12.3} us/iter  iqr {:>10.3} us  ({} samples x {} iters)",
        b.name, b.median_us, b.iqr_us, b.samples, b.iters_per_sample
    );
}

// ---------------------------------------------------------------------------
// End-to-end run_all measurements
// ---------------------------------------------------------------------------

struct E2eStats {
    name: &'static str,
    median_ms: f64,
    iqr_ms: f64,
    samples: usize,
    pre_optimization_median_ms: u64,
}

fn run_e2e(samples: u64) -> Vec<E2eStats> {
    let mut out = Vec::new();
    let configs: [(&'static str, ExperimentConfig, u64); 2] = [
        (
            "run_all_sites4_workers1",
            ExperimentConfig::quick(4),
            PRE_OPT_SITES4_W1_MS,
        ),
        (
            "run_all_full_workers1",
            ExperimentConfig::default(),
            PRE_OPT_FULL_W1_MS,
        ),
    ];
    for (name, cfg, pre) in configs {
        let mut ms = Vec::with_capacity(samples as usize);
        for _ in 0..samples.max(1) {
            let start = Instant::now();
            black_box(run_all_report(&cfg).len());
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let q = quartiles(&ms);
        let e = E2eStats {
            name,
            median_ms: q.p50,
            iqr_ms: q.p75 - q.p25,
            samples: ms.len(),
            pre_optimization_median_ms: pre,
        };
        println!(
            "e2e   {:<28} median {:>12.1} ms     iqr {:>10.1} ms  ({} samples; pre-opt {} ms)",
            e.name, e.median_ms, e.iqr_ms, e.samples, e.pre_optimization_median_ms
        );
        out.push(e);
    }
    out
}

// ---------------------------------------------------------------------------
// JSON emission (canonical codec) + regression check
// ---------------------------------------------------------------------------

/// Round to 3 decimals so the committed files stay tidy; the codec prints
/// floats with Rust's shortest-roundtrip formatting.
fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn micro_json(benches: &[BenchStats]) -> Value {
    let mut by_name = BTreeMap::new();
    for b in benches {
        let mut m = BTreeMap::new();
        m.insert("median_us".into(), Value::Float(round3(b.median_us)));
        m.insert("iqr_us".into(), Value::Float(round3(b.iqr_us)));
        m.insert("iters_per_sample".into(), Value::Int(b.iters_per_sample));
        m.insert("samples".into(), Value::Int(b.samples as u64));
        by_name.insert(b.name.to_string(), Value::Object(m));
    }
    let mut root = BTreeMap::new();
    root.insert("schema".into(), Value::Str("vroom-bench-micro/1".into()));
    root.insert(
        "unit".into(),
        Value::Str("microseconds per iteration".into()),
    );
    root.insert("benches".into(), Value::Object(by_name));
    Value::Object(root)
}

fn e2e_json(runs: &[E2eStats]) -> Value {
    let mut by_name = BTreeMap::new();
    for r in runs {
        let mut m = BTreeMap::new();
        m.insert("median_ms".into(), Value::Float(round3(r.median_ms)));
        m.insert("iqr_ms".into(), Value::Float(round3(r.iqr_ms)));
        m.insert("samples".into(), Value::Int(r.samples as u64));
        m.insert(
            "pre_optimization_median_ms".into(),
            Value::Int(r.pre_optimization_median_ms),
        );
        by_name.insert(r.name.to_string(), Value::Object(m));
    }
    let mut root = BTreeMap::new();
    root.insert("schema".into(), Value::Str("vroom-bench-e2e/1".into()));
    root.insert(
        "unit".into(),
        Value::Str("milliseconds per run_all report".into()),
    );
    root.insert("runs".into(), Value::Object(by_name));
    Value::Object(root)
}

fn write_json(path: &str, v: Value) -> Result<(), String> {
    let mut out = String::with_capacity(4096);
    v.write_pretty_into(&mut out);
    out.push('\n');
    // Round-trip through the codec before writing: a file that does not
    // re-parse byte-identically never lands on disk.
    let reparsed = Value::parse(&out).map_err(|e| format!("{path}: emitted invalid JSON: {e}"))?;
    let mut second = String::with_capacity(out.len());
    reparsed.write_pretty_into(&mut second);
    second.push('\n');
    if out != second {
        return Err(format!("{path}: canonical form is not a fixed point"));
    }
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))
}

/// Read and validate a committed `BENCH_micro.json`, returning its
/// `full_single_site_load` median. Called before any measuring so a broken
/// baseline fails the invocation immediately. An unreadable file is an
/// unusable invocation (exit 2); a readable file with the wrong shape is a
/// failure (exit 1).
fn load_micro_baseline(path: &str) -> Result<f64, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::unusable(format!("read {path}: {e}")))?;
    let root = Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    lookup_median(&root, "full_single_site_load")
        .ok_or_else(|| format!("{path}: no benches.full_single_site_load.median_us").into())
}

/// The CI bench-smoke gate: fail if the fresh `full_single_site_load`
/// median exceeds the committed baseline's by more than 25%.
fn check_regression(baseline: f64, fresh: &[BenchStats]) -> Result<(), CliError> {
    let current = fresh
        .iter()
        .find(|b| b.name == "full_single_site_load")
        .map(|b| b.median_us)
        .ok_or("fresh run is missing full_single_site_load")?;
    let limit = baseline * 1.25;
    if current > limit {
        return Err(format!(
            "full_single_site_load regressed: {current:.1} us vs baseline {baseline:.1} us \
             (limit {limit:.1} us, +25%)"
        )
        .into());
    }
    println!(
        "regression check ok: full_single_site_load {current:.1} us vs baseline {baseline:.1} us \
         (limit {limit:.1} us)"
    );
    Ok(())
}

fn lookup_median(root: &Value, bench: &str) -> Option<f64> {
    let Value::Object(root) = root else {
        return None;
    };
    let Value::Object(benches) = root.get("benches")? else {
        return None;
    };
    let Value::Object(entry) = benches.get(bench)? else {
        return None;
    };
    match entry.get("median_us")? {
        Value::Float(f) => Some(*f),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vroom-bench-{tag}-{}.json", std::process::id()))
    }

    /// A synthetic BENCH_fleet.json tree — just enough shape for the gate.
    fn fleet_fixture(loads_per_sec: f64, store_entries: u64) -> Value {
        Value::parse(&format!(
            r#"{{"schema": "vroom-bench-fleet/1",
                 "config": {{"clients": 10, "seed": 7}},
                 "metrics": {{"store_entries": {store_entries}, "hint_hits": 40}},
                 "timing": {{"loads_per_sec": {loads_per_sec:.1}, "wall_ms": 12.5, "workers": 1}}}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn fleet_gate_requires_exact_metrics_and_tolerates_bounded_slowdown() {
        let path = temp_path("fleet-gate");
        let mut text = String::new();
        fleet_fixture(100.0, 5).write_pretty_into(&mut text);
        std::fs::write(&path, text).expect("write fixture");
        let baseline = load_fleet_baseline(path.to_str().unwrap()).expect("valid baseline");
        assert!((baseline.loads_per_sec - 100.0).abs() < 1e-9);

        // Same metrics, 20% slower: inside the 25% tolerance.
        assert!(check_fleet_gate(&baseline, &fleet_fixture(80.0, 5), 25.0).is_ok());
        // Same metrics, >25% slower: regression, exit 1.
        let err = check_fleet_gate(&baseline, &fleet_fixture(74.0, 5), 25.0).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(
            err.message.contains("throughput regressed"),
            "{}",
            err.message
        );
        // Metric drift fails even with identical throughput: determinism
        // drift is a bug, not noise.
        let err = check_fleet_gate(&baseline, &fleet_fixture(100.0, 6), 25.0).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("metrics drifted"), "{}", err.message);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fleet_gate_compares_canonical_bytes() {
        // A whole-millisecond percentile is emitted as `Float(1500.0)`,
        // printed as `1500`, and read back from the committed file as
        // `Int(1500)`: the same bytes, so the gate must pass.
        let tree = |p50: &str| {
            Value::parse(&format!(
                r#"{{"config": {{"clients": 10}},
                     "metrics": {{"onload_p50_ms": {p50}}},
                     "timing": {{"loads_per_sec": 100.0}}}}"#
            ))
            .expect("fixture parses")
        };
        let path = temp_path("fleet-canonical");
        std::fs::write(&path, tree("1500").to_pretty()).expect("write fixture");
        let baseline = load_fleet_baseline(path.to_str().unwrap()).expect("valid baseline");
        let _ = std::fs::remove_file(path);
        let fresh = tree("1500.0");
        assert_ne!(
            fresh.get("metrics"),
            Some(&baseline.metrics),
            "trees differ"
        );
        assert!(check_fleet_gate(&baseline, &fresh, 25.0).is_ok());
    }

    #[test]
    fn fleet_baseline_with_wrong_shape_is_exit_1() {
        let path = temp_path("fleet-shape");
        std::fs::write(&path, "{\"schema\": \"vroom-bench-fleet/1\"}").expect("write fixture");
        let err = load_fleet_baseline(path.to_str().unwrap()).unwrap_err();
        assert_eq!(
            err.exit_code, 1,
            "readable-but-malformed is a failure, not unusable"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fleet_cli_rejects_bad_arguments() {
        let args = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(run(&args(&["fleet", "--clients"])).is_err());
        assert!(run(&args(&["fleet", "--clients", "many"])).is_err());
        assert!(run(&args(&["fleet", "--tolerance", "-5"])).is_err());
        assert!(run(&args(&["fleet", "--bogus"])).is_err());
        assert!(run(&args(&["fleet", "--policy", "hourly"])).is_err());
        // Missing baseline fails fast with exit 2, before the run starts.
        let err = run(&args(&["fleet", "--check-against", "/nonexistent/f.json"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn policy_argument_parses_all_three_shapes() {
        use vroom_server::EvictionPolicy;
        assert_eq!(parse_policy("never").unwrap(), EvictionPolicy::Never);
        assert_eq!(parse_policy("ttl:4").unwrap(), EvictionPolicy::Ttl(4));
        assert_eq!(
            parse_policy("refresh:2").unwrap(),
            EvictionPolicy::RefreshOnMiss(2)
        );
        for bad in ["", "ttl", "ttl:", "ttl:x", "refresh:-1", "hourly"] {
            assert!(parse_policy(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn freshness_cli_rejects_bad_arguments() {
        let args = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(run(&args(&["freshness", "--clients"])).is_err());
        assert!(run(&args(&["freshness", "--corruption", "0.6"])).is_err());
        assert!(run(&args(&["freshness", "--corruption", "-0.1"])).is_err());
        assert!(run(&args(&["freshness", "--bogus"])).is_err());
        let err = run(&args(&[
            "freshness",
            "--check-against",
            "/nonexistent/f.json",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code, 2);
    }

    #[test]
    fn fleet_config_json_omits_freshness_keys_in_legacy_mode() {
        let report = vroom_fleet::run_fleet(&vroom_fleet::FleetConfig::quick(4, 1)).report;
        let stages = vroom_fleet::FleetStageTiming::default();
        let legacy = vroom_fleet::FleetConfig::quick(4, 1);
        let Value::Object(root) = fleet_json(&legacy, &report, 1.0, 1.0, &stages) else {
            panic!("fleet json is an object");
        };
        let Some(Value::Object(config)) = root.get("config") else {
            panic!("config section");
        };
        assert!(!config.contains_key("policy"), "legacy config unchanged");
        assert!(!config.contains_key("span_hours"));

        let mut fresh = vroom_fleet::FleetConfig::quick(4, 1);
        fresh.policy = vroom_server::EvictionPolicy::Ttl(1);
        let Value::Object(root) = fleet_json(&fresh, &report, 1.0, 1.0, &stages) else {
            panic!("fleet json is an object");
        };
        let Some(Value::Object(config)) = root.get("config") else {
            panic!("config section");
        };
        assert_eq!(config.get("policy"), Some(&Value::Str("ttl(1)".into())));
        assert_eq!(config.get("span_hours"), Some(&Value::Int(0)));
    }

    #[test]
    fn json_shapes_parse_and_are_canonical_fixed_points() {
        let micro = micro_json(&[BenchStats {
            name: "full_single_site_load",
            median_us: 1234.5678,
            iqr_us: 12.3456,
            iters_per_sample: 3,
            samples: 10,
        }]);
        let e2e = e2e_json(&[E2eStats {
            name: "run_all_full_workers1",
            median_ms: 15100.25,
            iqr_ms: 80.5,
            samples: 3,
            pre_optimization_median_ms: PRE_OPT_FULL_W1_MS,
        }]);
        for v in [micro, e2e] {
            let mut s = String::new();
            v.write_pretty_into(&mut s);
            let back = Value::parse(&s).expect("canonical output parses");
            let mut s2 = String::new();
            back.write_pretty_into(&mut s2);
            assert_eq!(s, s2, "canonical form is a fixed point");
        }
    }

    #[test]
    fn regression_gate_reads_baseline_and_trips_at_25_percent() {
        let baseline = micro_json(&[BenchStats {
            name: "full_single_site_load",
            median_us: 1000.0,
            iqr_us: 1.0,
            iters_per_sample: 3,
            samples: 10,
        }]);
        let mut text = String::new();
        baseline.write_pretty_into(&mut text);
        let parsed = Value::parse(&text).expect("baseline parses");
        assert_eq!(
            lookup_median(&parsed, "full_single_site_load"),
            Some(1000.0)
        );
        assert_eq!(lookup_median(&parsed, "missing"), None);
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        let args = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["frobnicate"])).is_err());
        // Flag validation happens before any measuring, so these return
        // quickly despite going through `run`.
        assert!(run(&args(&["micro", "--iters", "0"])).is_err());
        assert!(run(&args(&["micro", "--iters", "many"])).is_err());
        assert!(run(&args(&["micro", "--check-against"])).is_err());
        assert!(run(&args(&["micro", "--bogus"])).is_err());
        assert!(run(&args(&["check-e2e"])).is_err());
        assert!(run(&args(&["check-e2e", "a.json", "extra"])).is_err());
    }

    #[test]
    fn missing_baseline_files_exit_2_not_1() {
        let err = load_micro_baseline("/nonexistent/BENCH_micro.json").unwrap_err();
        assert_eq!(err.exit_code, 2, "unreadable --check-against baseline");
        let err = check_e2e_gate("/nonexistent/BENCH_e2e.json").unwrap_err();
        assert_eq!(err.exit_code, 2, "unreadable check-e2e baseline");
        let err = load_fleet_baseline("/nonexistent/BENCH_fleet.json").unwrap_err();
        assert_eq!(err.exit_code, 2, "unreadable fleet baseline");
        // Argument errors stay exit 1 — only unusable files are exit 2.
        let args: Vec<String> = vec!["frobnicate".to_string()];
        assert_eq!(run(&args).unwrap_err().exit_code, 1);
    }

    #[test]
    fn micro_baseline_is_validated_before_measuring() {
        // `run` with a missing baseline must fail fast with exit 2 — this
        // test completes instantly only because the baseline check happens
        // before `run_micro` (a full measuring pass takes minutes).
        let args: Vec<String> = ["micro", "--check-against", "/nonexistent/b.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code, 2);
        // A readable but malformed baseline is a failure (1), not unusable (2).
        let path = temp_path("micro-malformed");
        std::fs::write(&path, "{\"benches\": {}}").expect("write fixture");
        let err = load_micro_baseline(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn micro_gate_trips_at_25_percent_regression() {
        let baseline = micro_json(&[BenchStats {
            name: "full_single_site_load",
            median_us: 1000.0,
            iqr_us: 1.0,
            iters_per_sample: 3,
            samples: 10,
        }]);
        let mut text = String::new();
        baseline.write_pretty_into(&mut text);
        let path = temp_path("micro-gate");
        std::fs::write(&path, text).expect("write fixture");
        let baseline_us = load_micro_baseline(path.to_str().unwrap()).expect("valid baseline");
        let fresh = |median_us: f64| {
            vec![BenchStats {
                name: "full_single_site_load",
                median_us,
                iqr_us: 1.0,
                iters_per_sample: 3,
                samples: 10,
            }]
        };
        assert!(check_regression(baseline_us, &fresh(1249.0)).is_ok());
        let err = check_regression(baseline_us, &fresh(1251.0)).unwrap_err();
        assert_eq!(err.exit_code, 1, ">25% slower is a regression, exit 1");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn e2e_gate_trips_on_committed_median_above_ceiling() {
        let write = |median_ms: f64| {
            let v = e2e_json(&[E2eStats {
                name: "run_all_sites4_workers1",
                median_ms,
                iqr_ms: 2.0,
                samples: 3,
                pre_optimization_median_ms: PRE_OPT_SITES4_W1_MS,
            }]);
            let mut text = String::new();
            v.write_pretty_into(&mut text);
            let path = std::env::temp_dir().join(format!(
                "vroom-bench-gate-{}-{median_ms}.json",
                std::process::id()
            ));
            std::fs::write(&path, text).expect("write temp baseline");
            path
        };
        let ok = write(PRE_OPT_SITES4_W1_MS as f64 - 100.0);
        assert!(check_e2e_gate(ok.to_str().unwrap()).is_ok());
        let bad = write(PRE_OPT_SITES4_W1_MS as f64 + 100.0);
        let err = check_e2e_gate(bad.to_str().unwrap()).unwrap_err();
        assert_eq!(err.exit_code, 1, "a real regression is exit 1, not 2");
        for p in [ok, bad] {
            let _ = std::fs::remove_file(p);
        }
    }
}
