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
//! 25% against it (the CI bench-smoke gate). Every gate pre-validates its
//! baseline *before* any measuring starts, and exits 2 (after printing
//! usage) when the file it needs is missing or unreadable, so CI can tell a
//! broken invocation from a real regression. The committed sites-4 `run_all`
//! median is held to its ratcheted ceiling by a unit test of this file.
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
//! `timing` (wall-clock throughput and the process's peak RSS, the only
//! machine-dependent part).
//! `--check-against` requires the baseline's `config` and `metrics` to match
//! the fresh run *exactly* (any drift in deterministic output is a bug, not
//! noise) and gates `timing.loads_per_sec` within `--tolerance` percent
//! (default 25).
//!
//! This is wall-clock scaffolding and never runs inside the simulator;
//! the simulation itself stays deterministic.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use vroom::experiment::run_all_report;
use vroom::{ExperimentConfig, SiteLoad, System};
use vroom_browser::metrics::quartiles;
use vroom_hpack::{Decoder, Encoder, HeaderField};
use vroom_html::Url;
use vroom_intern::UrlTable;
use vroom_net::json::Value;
use vroom_net::{NetworkProfile, RecordedResponse, ReplayStore};
use vroom_pages::{Corpus, LoadContext, PageGenerator, SiteProfile};
use vroom_sim::{EventQueue, SimTime};

/// Medians measured on this repo immediately *before* the interning /
/// shared-body / O(log n)-cancel overhaul, with the same configurations as
/// the entries they annotate. Committed so `BENCH_e2e.json` always shows
/// where the trajectory started.
const PRE_OPT_FULL_W1_MS: u64 = 16_177;
const PRE_OPT_SITES4_W1_MS: u64 = 798;

const USAGE: &str = "usage: vroom-bench <micro [OPTIONS] | fleet [OPTIONS] | freshness [OPTIONS]>
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
  --tolerance PCT        allowed loads/sec slowdown in percent (default 25)";

/// A CLI failure: the message to print and the exit code to die with.
/// Code 1 is a measured or argument failure; code 2 is an unusable
/// invocation (missing/unreadable baseline file), reported with usage.
#[derive(Debug)]
struct CliError {
    message: String,
    exit_code: i32,
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
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        None => Err("missing subcommand".into()),
        Some("micro") => micro_cmd(rest),
        Some("fleet") => fleet_cmd(rest),
        Some("freshness") => freshness_cmd(rest),
        Some(other) => Err(format!("unknown subcommand {other:?}").into()),
    }
}

// ---------------------------------------------------------------------------
// Command-line flags and committed baselines
// ---------------------------------------------------------------------------

/// Walk `args` as `--flag VALUE` pairs, except that a flag in `switches`
/// stands alone. `--check-against FILE` is read here for every subcommand
/// and returned; `apply` gets each other flag with its value (`None` when
/// the list ends first, or for a switch) and returns `Ok(false)` for a flag
/// it does not know.
fn parse_flags(
    args: &[String],
    switches: &[&str],
    mut apply: impl FnMut(&str, Option<&str>) -> Result<bool, CliError>,
) -> Result<Option<String>, CliError> {
    let mut check_against = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let switch = switches.contains(&flag);
        let value = args.get(i + 1).map(String::as_str).filter(|_| !switch);
        if flag == "--check-against" {
            check_against = Some(
                value
                    .ok_or("--check-against takes a file path")?
                    .to_string(),
            );
        } else if !apply(flag, value)? {
            return Err(format!("unknown argument {flag:?}").into());
        }
        i += if switch { 1 } else { 2 };
    }
    Ok(check_against)
}

/// `value` as a whole number, or the error "`flag` takes a number".
fn parse_u64(flag: &str, value: Option<&str>) -> Result<u64, CliError> {
    value
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} takes a number").into())
}

/// A `--sites` value: a number from 1 to the size of the News+Sports
/// corpus the sites are drawn from (0 counts as 1).
fn parse_sites(value: Option<&str>) -> Result<usize, CliError> {
    let max = Corpus::NEWS_AND_SPORTS_SITES;
    match parse_u64("--sites", value)? {
        n if n > max as u64 => Err(format!("--sites takes at most {max}, got {n}").into()),
        n => Ok(n.max(1) as usize),
    }
}

/// The number at `keys` below `root`. An integral float in a committed
/// file parses back as `Int`, so both count.
fn number_at(root: &Value, keys: &[&str]) -> Option<f64> {
    match keys.iter().try_fold(root, |v, key| v.get(key))? {
        Value::Float(f) => Some(*f),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// Read and parse a committed baseline. An unreadable file is an unusable
/// invocation (exit 2); an unparsable one is a failure (exit 1).
fn read_baseline(path: &str) -> Result<Value, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("read {path}: {e}"),
        exit_code: 2,
    })?;
    Value::parse(&text).map_err(|e| format!("parse {path}: {e}").into())
}

// ---------------------------------------------------------------------------
// Fleet serving benchmark
// ---------------------------------------------------------------------------

/// Parse `fleet` flags onto the default configuration.
fn fleet_flags(args: &[String]) -> Result<(vroom_fleet::FleetConfig, Gate), CliError> {
    let mut cfg = vroom_fleet::FleetConfig::default();
    let gate = Gate::parse(args, &["--learn"], |flag, value| {
        let number = || parse_u64(flag, value);
        match flag {
            "--clients" => cfg.clients = number()?.max(1) as usize,
            "--sites" => cfg.sites = parse_sites(value)?,
            "--shards" => cfg.shards = number()?.max(1) as usize,
            "--seed" => cfg.seed = number()?,
            "--window" => cfg.batch_window_ms = number()?.max(1),
            "--span" => cfg.arrival_span_ms = number()?.max(1),
            "--span-hours" => cfg.span_hours = number()?,
            "--policy" => {
                cfg.policy =
                    parse_policy(value.ok_or("--policy takes never | ttl:N | refresh:N")?)?;
            }
            "--learn" => cfg.learn_from_loads = true,
            "--workers" => cfg.workers = number()?.max(1) as usize,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((cfg, gate))
}

/// Run the fleet simulation, write `BENCH_fleet.json`, and apply the
/// `--check-against` gate.
fn fleet_cmd(args: &[String]) -> Result<(), CliError> {
    let (cfg, gate) = fleet_flags(args)?;
    let start = Instant::now();
    let clock = || start.elapsed().as_secs_f64();
    let (run, stages) = vroom_fleet::run_fleet_instrumented(&cfg, Some(&clock));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let loads_per_sec = cfg.clients as f64 / (wall_ms / 1e3).max(1e-9);
    let peak_rss_mb = peak_rss_mb();

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
    println!("memory: peak RSS {peak_rss_mb:.2} MB");
    let json = fleet_json(
        &cfg,
        &run.report,
        wall_ms,
        loads_per_sec,
        peak_rss_mb,
        &stages,
    );
    gate.write_and_check("BENCH_fleet.json", &json)
}

/// This process's peak resident set size (`VmHWM` in `/proc/self/status`)
/// in MB, or 0 where that file is missing.
fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .unwrap_or(0);
    kib as f64 / 1024.0
}

/// The three-section `BENCH_fleet.json` tree: `config` and `metrics` are
/// deterministic (byte-identical at any worker count); `timing` is the only
/// machine-dependent section, so the gate treats them differently.
fn fleet_json(
    cfg: &vroom_fleet::FleetConfig,
    report: &vroom_fleet::FleetReport,
    wall_ms: f64,
    loads_per_sec: f64,
    peak_rss_mb: f64,
    stages: &vroom_fleet::FleetStageTiming,
) -> Value {
    let mut config = vec![
        ("clients", Value::Int(cfg.clients as u64)),
        ("sites", Value::Int(cfg.sites as u64)),
        ("shards", Value::Int(cfg.shards as u64)),
        ("seed", Value::Int(cfg.seed)),
        ("batch_window_ms", Value::Int(cfg.batch_window_ms)),
        ("arrival_span_ms", Value::Int(cfg.arrival_span_ms)),
    ];
    if cfg.freshness_in_play() {
        config.extend([
            ("span_hours", Value::Int(cfg.span_hours)),
            ("policy", Value::Str(cfg.policy.label())),
            ("learn_from_loads", Value::Bool(cfg.learn_from_loads)),
        ]);
    }
    let ms = |secs: f64| Value::Float(round3(secs * 1e3));
    let timing = object([
        ("wall_ms", Value::Float(round3(wall_ms))),
        ("loads_per_sec", Value::Float(round3(loads_per_sec))),
        ("workers", Value::Int(cfg.workers as u64)),
        // Per-stage breakdown of the pipelined run. Diagnostic and
        // machine-dependent like the rest of `timing`; the gate ignores it.
        ("pass_ms", ms(stages.pass_s)),
        ("commit_ms", ms(stages.commit_s)),
        ("load_ms", ms(stages.load_s)),
        ("account_ms", ms(stages.account_s)),
        // The whole process's peak, set-up included; CI holds a 16x larger
        // fleet to 1.25x of the default run's.
        ("peak_rss_mb", Value::Float(round3(peak_rss_mb))),
    ]);
    object([
        ("schema", Value::Str("vroom-bench-fleet/1".into())),
        ("config", object(config)),
        ("metrics", report.to_json_value()),
        ("timing", timing),
    ])
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
    let gate = Gate::parse(args, &[], |flag, value| {
        let number = || parse_u64(flag, value);
        match flag {
            "--clients" => cfg.clients = number()?.max(1) as usize,
            "--sites" => cfg.sites = parse_sites(value)?,
            "--shards" => cfg.shards = number()?.max(1) as usize,
            "--seed" => cfg.seed = number()?,
            "--ages" => cfg.max_age_hours = number()?,
            "--ttl" => cfg.ttl_hours = number()?.max(1),
            "--corruption" => {
                cfg.hint_corruption = value
                    .and_then(|s| s.parse().ok())
                    .filter(|&c: &f64| (0.0..0.5).contains(&c))
                    .ok_or("--corruption takes a fraction in [0, 0.5)")?;
            }
            "--workers" => cfg.workers = number()?.max(1) as usize,
            _ => return Ok(false),
        }
        Ok(true)
    })?;

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
    gate.write_and_check("BENCH_freshness.json", &json)
}

/// The three-section `BENCH_freshness.json` tree, mirroring the fleet file:
/// deterministic `config` + `metrics`, machine-dependent `timing`.
fn freshness_json(
    cfg: &vroom_fleet::FreshnessConfig,
    report: &vroom_fleet::FreshnessReport,
    wall_ms: f64,
    loads_per_sec: f64,
) -> Value {
    let config = [
        ("clients", Value::Int(cfg.clients as u64)),
        ("sites", Value::Int(cfg.sites as u64)),
        ("shards", Value::Int(cfg.shards as u64)),
        ("seed", Value::Int(cfg.seed)),
        ("max_age_hours", Value::Int(cfg.max_age_hours)),
        ("ttl_hours", Value::Int(cfg.ttl_hours)),
        ("hint_corruption", Value::Float(round3(cfg.hint_corruption))),
    ];
    let timing = object([
        ("wall_ms", Value::Float(round3(wall_ms))),
        ("loads_per_sec", Value::Float(round3(loads_per_sec))),
        ("workers", Value::Int(cfg.workers as u64)),
    ]);
    object([
        ("schema", Value::Str("vroom-bench-freshness/1".into())),
        ("config", object(config)),
        ("metrics", report.to_json_value()),
        ("timing", timing),
    ])
}

// ---------------------------------------------------------------------------
// The fleet/freshness gate
// ---------------------------------------------------------------------------

/// The `fleet`/`freshness` gate: the committed file `--check-against` named,
/// loaded and validated before anything runs, and the `--tolerance` on its
/// loads/sec.
struct Gate {
    baseline: Option<FleetBaseline>,
    tolerance_pct: f64,
}

impl Gate {
    /// Parse a `fleet`/`freshness` command line: `apply` sets the
    /// subcommand's own flags (see [`parse_flags`]); `--tolerance` and
    /// `--check-against` are common to both.
    fn parse(
        args: &[String],
        switches: &[&str],
        mut apply: impl FnMut(&str, Option<&str>) -> Result<bool, CliError>,
    ) -> Result<Gate, CliError> {
        let mut tolerance_pct = 25.0;
        let check_against = parse_flags(args, switches, |flag, value| {
            if flag != "--tolerance" {
                return apply(flag, value);
            }
            tolerance_pct = value
                .and_then(|s| s.parse().ok())
                .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                .ok_or("--tolerance takes a percentage >= 0")?;
            Ok(true)
        })?;
        let baseline = check_against
            .as_deref()
            .map(load_fleet_baseline)
            .transpose()?;
        Ok(Gate {
            baseline,
            tolerance_pct,
        })
    }

    /// Write the fresh `json` to `path`, then hold it to the baseline.
    fn write_and_check(self, path: &str, json: &Value) -> Result<(), CliError> {
        write_json(path, json)?;
        match self.baseline {
            Some(baseline) => check_fleet_gate(&baseline, json, self.tolerance_pct),
            None => Ok(()),
        }
    }
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
    let root = read_baseline(path)?;
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
    let timing = section("timing")?;
    let Value::Object(_) = timing else {
        return Err(format!("{path}: timing is not an object").into());
    };
    let loads_per_sec = number_at(&timing, &["loads_per_sec"])
        .ok_or_else(|| format!("{path}: no timing.loads_per_sec"))?;
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
    let fresh_lps = number_at(fresh, &["timing", "loads_per_sec"])
        .ok_or("fresh run has no timing.loads_per_sec")?;
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

// ---------------------------------------------------------------------------
// Microbenchmarks
// ---------------------------------------------------------------------------

/// Parse `micro` flags, run the microbenchmarks and the end-to-end timings,
/// write `BENCH_micro.json` and `BENCH_e2e.json`, and apply the
/// `--check-against` gate.
fn micro_cmd(args: &[String]) -> Result<(), CliError> {
    let mut iters: u64 = 10;
    let check_against = parse_flags(args, &[], |flag, value| {
        if flag != "--iters" {
            return Ok(false);
        }
        iters = value
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .ok_or("--iters takes a number >= 1")?;
        Ok(true)
    })?;
    // Pre-validate the baseline before spending minutes measuring: a missing
    // or malformed file should fail the invocation immediately, not after
    // the full benchmark run.
    let baseline = check_against
        .as_deref()
        .map(load_micro_baseline)
        .transpose()?;

    let micro = run_micro(iters);
    write_json("BENCH_micro.json", &micro_json(&micro))?;
    write_json("BENCH_e2e.json", &e2e_json(&run_e2e(iters.min(5))))?;
    match baseline {
        Some(baseline_us) => check_regression(baseline_us, &micro),
        None => Ok(()),
    }
}

/// One finished benchmark: its per-iteration times reduced to summary stats.
struct BenchStats {
    name: &'static str,
    median_us: f64,
    iqr_us: f64,
    iters_per_sample: u64,
    samples: usize,
}

/// Seconds per iteration of `routine`, one entry for each of `samples`
/// samples of `iters` iterations.
fn time_samples<O>(samples: u64, iters: u64, mut routine: impl FnMut() -> O) -> Vec<f64> {
    (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect()
}

/// Time one microbenchmark, print its line, and return its stats.
fn bench<O>(
    name: &'static str,
    samples: u64,
    iters: u64,
    routine: impl FnMut() -> O,
) -> BenchStats {
    let us: Vec<f64> = time_samples(samples, iters, routine)
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let q = quartiles(&us);
    let b = BenchStats {
        name,
        median_us: q.p50,
        iqr_us: q.p75 - q.p25,
        iters_per_sample: iters,
        samples: us.len(),
    };
    println!(
        "bench {:<28} median {:>12.3} us/iter  iqr {:>10.3} us  ({} samples x {} iters)",
        b.name, b.median_us, b.iqr_us, b.samples, b.iters_per_sample
    );
    b
}

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
    out.push(bench("url_join_intern", samples, 200, || {
        let mut table = UrlTable::new();
        for r in &refs {
            let u = base.join(r).expect("joinable reference");
            black_box(table.intern(u));
        }
        table.len()
    }));

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
    out.push(bench("replay_lookup_url", samples, 500, || {
        let mut hits = 0usize;
        for u in &urls {
            hits += usize::from(store.lookup(u).is_some());
        }
        hits
    }));
    out.push(bench("replay_lookup_id", samples, 500, || {
        let mut hits = 0usize;
        for &id in &ids {
            hits += usize::from(store.lookup_id(id).is_some());
        }
        hits
    }));

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
    out.push(bench("hpack_encode", samples, 1_000, || {
        black_box(Encoder::new().encode(&headers))
    }));
    let wire = Encoder::new().encode(&headers);
    out.push(bench("hpack_decode", samples, 1_000, || {
        black_box(Decoder::new().decode(&wire).expect("valid block"))
    }));

    // HTTP/2 frame assembly through the raw emitters: one HEADERS plus
    // sixteen 1 KiB DATA frames written into a reused output buffer — the
    // per-response framing work of the zero-copy wire path.
    let fragment = Encoder::new().encode(&headers);
    let payload = [0xa5u8; 1024];
    let mut buf = Vec::with_capacity(32 * 1024);
    out.push(bench("h2_frame_assemble", samples, 1_000, || {
        buf.clear();
        vroom_http2::frame::encode_headers_raw(&mut buf, 1, &fragment, false, true);
        for i in 0..16 {
            vroom_http2::frame::encode_data_raw(&mut buf, 1, &payload, i == 15);
        }
        black_box(buf.len())
    }));

    // Event-queue churn: the simulator's core data structure under the
    // schedule / pop mix a loaded page produces: 1024 events at colliding
    // timestamps scheduled, then drained in (time, schedule) order.
    out.push(bench("event_queue_churn", samples, 50, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..1024u64 {
            q.schedule(SimTime::from_micros(i * 7 % 911), i as u32);
        }
        let mut popped = 0usize;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    }));

    // Executor dispatch overhead: a 64-item fan-out of trivial work at
    // width 4, once through `par_map_indexed` (spawns and joins threads
    // every call — the fixed cost each fleet batch used to pay twice) and
    // once through a persistent `Pool` (threads live across calls). The
    // spread between these two is the pool's reason to exist.
    let items: Vec<u64> = (0..64).collect();
    out.push(bench("par_map_overhead", samples, 100, || {
        let v = vroom_exec::par_map_indexed(&items, 4, |i, &x| x.wrapping_mul(i as u64 + 1));
        black_box(v.len())
    }));
    let pool: vroom_exec::Pool<()> = vroom_exec::Pool::new(4);
    out.push(bench("pool_dispatch_overhead", samples, 100, || {
        let v = pool.dispatch(items.clone(), |_scratch, i, &x| {
            x.wrapping_mul(i as u64 + 1)
        });
        black_box(v.len())
    }));
    drop(pool);

    // Full single-site load: one complete deterministic browser run under
    // the Vroom system — the unit the experiment suite repeats thousands
    // of times, so this is the number that moves when hot paths improve.
    // The page and its crawls are built once, outside the timed closure,
    // and the page is resolved once, in the first iteration, as the suite
    // builds and resolves them once per site for all of its systems: each
    // later iteration times building the config from that resolution and
    // the engine run.
    let site = PageGenerator::new(SiteProfile::news(), 42);
    let load = SiteLoad::new(&site, &LoadContext::reference(), 7);
    let net = NetworkProfile::lte();
    out.push(bench("full_single_site_load", samples, 3, || {
        black_box(load.run(&net, System::Vroom).plt)
    }));

    out
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
        let ms: Vec<f64> = time_samples(samples, 1, || run_all_report(&cfg).len())
            .iter()
            .map(|s| s * 1e3)
            .collect();
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

/// A JSON object from `(key, value)` pairs.
fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn micro_json(benches: &[BenchStats]) -> Value {
    let by_name = benches.iter().map(|b| {
        let stats = object([
            ("median_us", Value::Float(round3(b.median_us))),
            ("iqr_us", Value::Float(round3(b.iqr_us))),
            ("iters_per_sample", Value::Int(b.iters_per_sample)),
            ("samples", Value::Int(b.samples as u64)),
        ]);
        (b.name, stats)
    });
    object([
        ("schema", Value::Str("vroom-bench-micro/1".into())),
        ("unit", Value::Str("microseconds per iteration".into())),
        ("benches", object(by_name)),
    ])
}

fn e2e_json(runs: &[E2eStats]) -> Value {
    let by_name = runs.iter().map(|r| {
        let stats = object([
            ("median_ms", Value::Float(round3(r.median_ms))),
            ("iqr_ms", Value::Float(round3(r.iqr_ms))),
            ("samples", Value::Int(r.samples as u64)),
            (
                "pre_optimization_median_ms",
                Value::Int(r.pre_optimization_median_ms),
            ),
        ]);
        (r.name, stats)
    });
    object([
        ("schema", Value::Str("vroom-bench-e2e/1".into())),
        ("unit", Value::Str("milliseconds per run_all report".into())),
        ("runs", object(by_name)),
    ])
}

fn write_json(path: &str, v: &Value) -> Result<(), String> {
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
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Read and validate a committed `BENCH_micro.json`, returning its
/// `full_single_site_load` median. Called before any measuring so a broken
/// baseline fails the invocation immediately. An unreadable file is an
/// unusable invocation (exit 2); a readable file with the wrong shape is a
/// failure (exit 1).
fn load_micro_baseline(path: &str) -> Result<f64, CliError> {
    let root = read_baseline(path)?;
    number_at(&root, &["benches", "full_single_site_load", "median_us"])
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

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
        assert!(run(&args(&["fleet", "--clients"])).is_err());
        assert!(run(&args(&["fleet", "--clients", "many"])).is_err());
        assert!(run(&args(&["fleet", "--tolerance", "-5"])).is_err());
        assert!(run(&args(&["fleet", "--bogus"])).is_err());
        assert!(run(&args(&["fleet", "--policy", "hourly"])).is_err());
        // More sites than the corpus holds is a bad argument, not a panic.
        let err = run(&args(&["fleet", "--sites", "150", "--clients", "40"])).unwrap_err();
        assert_eq!(err.exit_code, 1);
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
        assert!(run(&args(&["freshness", "--clients"])).is_err());
        assert!(run(&args(&["freshness", "--corruption", "0.6"])).is_err());
        assert!(run(&args(&["freshness", "--corruption", "-0.1"])).is_err());
        assert!(run(&args(&["freshness", "--bogus"])).is_err());
        let err = run(&args(&["freshness", "--sites", "101", "--ages", "1"])).unwrap_err();
        assert_eq!(err.exit_code, 1);
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
        let Value::Object(root) = fleet_json(&legacy, &report, 1.0, 1.0, 1.0, &stages) else {
            panic!("fleet json is an object");
        };
        let Some(Value::Object(config)) = root.get("config") else {
            panic!("config section");
        };
        assert!(!config.contains_key("policy"), "legacy config unchanged");
        assert!(!config.contains_key("span_hours"));

        let mut fresh = vroom_fleet::FleetConfig::quick(4, 1);
        fresh.policy = vroom_server::EvictionPolicy::Ttl(1);
        let Value::Object(root) = fleet_json(&fresh, &report, 1.0, 1.0, 1.0, &stages) else {
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
        let median = |bench| number_at(&parsed, &["benches", bench, "median_us"]);
        assert_eq!(median("full_single_site_load"), Some(1000.0));
        assert_eq!(median("missing"), None);
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["frobnicate"])).is_err());
        // Flag validation happens before any measuring, so these return
        // quickly despite going through `run`.
        assert!(run(&args(&["micro", "--iters", "0"])).is_err());
        assert!(run(&args(&["micro", "--iters", "many"])).is_err());
        assert!(run(&args(&["micro", "--check-against"])).is_err());
        assert!(run(&args(&["micro", "--bogus"])).is_err());
        assert!(run(&args(&["micro", "--tolerance", "5"])).is_err());
        let err = run(&args(&["check-e2e", "BENCH_e2e.json"])).unwrap_err();
        assert_eq!(err.message, "unknown subcommand \"check-e2e\"");
        assert_eq!(err.exit_code, 1);
    }

    #[test]
    fn flag_walker_takes_switches_anywhere_and_needs_every_value() {
        for order in [
            ["--learn", "--seed", "3", "--policy", "ttl:2"],
            ["--seed", "3", "--learn", "--policy", "ttl:2"],
            ["--seed", "3", "--policy", "ttl:2", "--learn"],
        ] {
            let (cfg, gate) = fleet_flags(&args(&order)).expect("valid flags");
            assert!(cfg.learn_from_loads, "{order:?}");
            assert_eq!(cfg.seed, 3, "{order:?}");
            assert_eq!(
                cfg.policy,
                vroom_server::EvictionPolicy::Ttl(2),
                "{order:?}"
            );
            assert!(gate.baseline.is_none());
            assert_eq!(gate.tolerance_pct, 25.0);
        }
        // A valued flag without its value fails with its own message, also
        // when a switch stands where the value belongs.
        for bad in [
            &["--seed"][..],
            &["--learn", "--seed"],
            &["--seed", "--learn"],
            &["--learn", "--tolerance"],
            &["--policy"],
            &["--check-against"],
        ] {
            let err = fleet_flags(&args(bad)).err().expect("missing value");
            assert_eq!(err.exit_code, 1, "{bad:?}");
            assert!(err.message.contains(" takes "), "{bad:?}: {}", err.message);
        }
    }

    #[test]
    fn missing_baseline_files_exit_2_not_1() {
        let err = load_micro_baseline("/nonexistent/BENCH_micro.json").unwrap_err();
        assert_eq!(err.exit_code, 2, "unreadable --check-against baseline");
        let err = load_fleet_baseline("/nonexistent/BENCH_fleet.json").unwrap_err();
        assert_eq!(err.exit_code, 2, "unreadable fleet baseline");
        // Argument errors stay exit 1 — only unusable files are exit 2.
        assert_eq!(run(&args(&["frobnicate"])).unwrap_err().exit_code, 1);
    }

    #[test]
    fn micro_baseline_is_validated_before_measuring() {
        // `run` with a missing baseline must fail fast with exit 2 — this
        // test completes instantly only because the baseline check happens
        // before `run_micro` (a full measuring pass takes minutes).
        let err = run(&args(&["micro", "--check-against", "/nonexistent/b.json"])).unwrap_err();
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

    /// The e2e ratchet: the committed sites-4 `run_all` median may not give
    /// back the interning overhaul, so it stays at or under the median
    /// measured before it.
    #[test]
    fn committed_sites4_e2e_median_is_under_the_pre_optimization_ceiling() {
        let committed = Value::parse(include_str!("../../../../BENCH_e2e.json"))
            .expect("BENCH_e2e.json parses");
        let median = number_at(
            &committed,
            &["runs", "run_all_sites4_workers1", "median_ms"],
        )
        .expect("BENCH_e2e.json has runs.run_all_sites4_workers1.median_ms");
        assert!(
            median <= PRE_OPT_SITES4_W1_MS as f64,
            "run_all_sites4_workers1 median {median:.1} ms exceeds the {PRE_OPT_SITES4_W1_MS} ms gate"
        );
    }
}
