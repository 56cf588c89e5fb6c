//! The `run_all` command line: `--sites N`, `--seed S`, `--workers N` map
//! to an experiment configuration, and `--only ID,...` picks the sections
//! to print. Malformed arguments print a usage line and exit 2 instead of
//! panicking.

#![forbid(unsafe_code)]

use vroom::experiment::{ABLATION_SECTIONS, RUN_ALL_SECTIONS};
use vroom::ExperimentConfig;

/// Usage text of `run_all`.
pub const USAGE: &str = "usage: run_all [OPTIONS]
  --sites N     cap corpus sizes at N sites (N >= 1; default: the paper's
                full corpus sizes)
  --seed S      corpus seed (default: 7)
  --workers N   worker threads for the deterministic executor (N >= 1;
                1 = sequential, no pool; default: $VROOM_WORKERS if set,
                else the machine's available parallelism). Output is
                byte-identical for every worker count.
  --only IDS    print only these comma-separated sections, in the order
                given: the report's fig01..fig21, incr and t100, plus the
                ablations ablation_bandwidth, ablation_rtt, ablation_cpu,
                ablation_history and ablation_hybrid (default: the full
                report, which leaves the ablations out).";

/// A parsed `run_all` command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The experiment configuration every section runs under.
    pub cfg: ExperimentConfig,
    /// Section ids to print, in order.
    pub sections: Vec<&'static str>,
}

/// Parse the process arguments. On bad input, prints the error plus
/// [`USAGE`] to stderr and exits with status 2.
pub fn args_from_env() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env_workers = std::env::var("VROOM_WORKERS").ok();
    match parse_args(&args, env_workers.as_deref()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// The pure core of [`args_from_env`]: `args` excludes the binary name;
/// `env_workers` is the value of `VROOM_WORKERS`, if set. Precedence for
/// the worker count: `--workers` flag, then env var, then available
/// parallelism.
pub fn parse_args(args: &[String], env_workers: Option<&str>) -> Result<Args, String> {
    let mut cfg = ExperimentConfig::default();
    let mut sections = RUN_ALL_SECTIONS.to_vec();
    let mut workers_flag: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> Result<&str, String> {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--sites" => {
                let n: usize = parse_number(flag, value(i)?)?;
                if n == 0 {
                    return Err("--sites 0 would measure an empty corpus; pass N >= 1".into());
                }
                cfg.max_sites = Some(n);
            }
            "--seed" => {
                cfg.corpus_seed = parse_number(flag, value(i)?)?;
            }
            "--workers" => {
                let n: usize = parse_number(flag, value(i)?)?;
                if n == 0 {
                    return Err("--workers must be >= 1 (1 = sequential)".into());
                }
                workers_flag = Some(n);
            }
            "--only" => {
                sections = parse_sections(value(i)?)?;
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; supported: --sites N, --seed S, --workers N, \
                     --only IDS"
                ))
            }
        }
        i += 2;
    }
    cfg.workers = match (workers_flag, env_workers) {
        (Some(n), _) => n,
        (None, Some(env)) => {
            let n: usize = parse_number("VROOM_WORKERS", env)?;
            if n == 0 {
                return Err("VROOM_WORKERS must be >= 1 (1 = sequential)".into());
            }
            n
        }
        (None, None) => vroom_exec::available_workers(),
    };
    Ok(Args { cfg, sections })
}

/// `fig13,ablation_rtt` → the matching known section ids, in order.
fn parse_sections(list: &str) -> Result<Vec<&'static str>, String> {
    let known = || RUN_ALL_SECTIONS.iter().chain(&ABLATION_SECTIONS);
    let sections = list
        .split(',')
        .filter(|id| !id.is_empty())
        .map(|id| {
            known()
                .find(|k| **k == id)
                .copied()
                .ok_or_else(|| format!("--only: unknown section {id:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if sections.is_empty() {
        return Err("--only needs at least one section id".into());
    }
    Ok(sections)
}

fn parse_number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} takes a number, got {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_use_available_parallelism() {
        let Args { cfg, sections } = parse_args(&[], None).unwrap();
        assert_eq!(sections, RUN_ALL_SECTIONS);
        assert_eq!(cfg.max_sites, None);
        assert_eq!(cfg.corpus_seed, 7);
        assert_eq!(cfg.workers, vroom_exec::available_workers());
    }

    #[test]
    fn flags_parse_and_flag_beats_env() {
        let cfg = parse_args(
            &args(&["--sites", "4", "--seed", "11", "--workers", "8"]),
            Some("3"),
        )
        .unwrap()
        .cfg;
        assert_eq!(cfg.max_sites, Some(4));
        assert_eq!(cfg.corpus_seed, 11);
        assert_eq!(cfg.workers, 8);
        let cfg = parse_args(&[], Some("3")).unwrap().cfg;
        assert_eq!(cfg.workers, 3);
    }

    #[test]
    fn zero_and_malformed_inputs_are_rejected() {
        assert!(parse_args(&args(&["--sites", "0"]), None).is_err());
        assert!(parse_args(&args(&["--workers", "0"]), None).is_err());
        assert!(parse_args(&args(&["--sites", "many"]), None).is_err());
        assert!(parse_args(&args(&["--sites"]), None).is_err());
        assert!(parse_args(&args(&["--frobnicate", "1"]), None).is_err());
        assert!(parse_args(&[], Some("0")).is_err());
        assert!(parse_args(&[], Some("lots")).is_err());
    }

    #[test]
    fn only_selects_report_and_ablation_sections_in_order() {
        let parsed = parse_args(&args(&["--only", "ablation_rtt,fig13,t100"]), None).unwrap();
        assert_eq!(parsed.sections, vec!["ablation_rtt", "fig13", "t100"]);
    }
}
