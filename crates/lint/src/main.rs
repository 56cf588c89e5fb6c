//! CLI for the workspace linter.
//!
//! * `vroom-lint` — lint; exit 1 if violations beyond the baseline exist.
//! * `vroom-lint --format json` — emit a SARIF 2.1.0 report on stdout
//!   (stable and sorted: the same tree always renders the same bytes).
//! * `vroom-lint --rules lock-safety` — restrict the run to one or more
//!   comma-separated rule families (or bare rule ids); unknown names exit 2.
//! * `vroom-lint --update-baseline` — regenerate `lint-baseline.txt` from
//!   the current tree (use only to record that debt shrank).
//! * `vroom-lint --check-baseline` — like the default, but also exit 1 on
//!   stale baseline entries, keeping the ratchet honest in CI.
//!
//! A malformed `lint-hotpaths.toml`, or one whose roots name a fn that does
//! not exist, exits 2 like a bad flag.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut update = false;
    let mut check_baseline = false;
    let mut json = false;
    let mut rules: Option<Vec<&'static str>> = None;
    let parse_rules = |spec: Option<&str>| -> Result<Vec<&'static str>, String> {
        let spec = spec.ok_or("--rules expects a comma-separated list of families")?;
        vroom_lint::rules::resolve_rule_filter(spec)
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--update-baseline" => update = true,
            "--check-baseline" => check_baseline = true,
            "--rules" => match parse_rules(iter.next().map(String::as_str)) {
                Ok(r) => rules = Some(r),
                Err(e) => {
                    eprintln!("vroom-lint: {e}");
                    return ExitCode::from(2);
                }
            },
            s if s.starts_with("--rules=") => match parse_rules(Some(&s["--rules=".len()..])) {
                Ok(r) => rules = Some(r),
                Err(e) => {
                    eprintln!("vroom-lint: {e}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match iter.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "vroom-lint: --format expects `json` or `text`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--format=json" => json = true,
            "--format=text" => json = false,
            "--help" | "-h" => {
                println!(
                    "vroom-lint: call-graph determinism & protocol-invariant checks\n\
                     \n\
                     USAGE: vroom-lint [--format json|text] [--rules <list>]\n\
                     \u{20}                 [--update-baseline | --check-baseline]\n\
                     \n\
                     Default mode parses every workspace file from source, lints it, and fails\n\
                     on violations not covered by lint-baseline.txt.\n\
                     --format json writes a SARIF 2.1.0 report to stdout.\n\
                     --rules restricts the run to a comma-separated list of rule families\n\
                     (e.g. `lock-safety`) or bare rule ids; unknown names exit 2.\n\
                     --check-baseline additionally fails when baseline entries are stale\n\
                     (debt was paid down but the file was not regenerated).\n\
                     --update-baseline rewrites lint-baseline.txt from the current tree."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("vroom-lint: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if update {
        return match vroom_lint::update_baseline(&cwd) {
            Ok(text) => {
                let entries = text
                    .lines()
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .count();
                println!("vroom-lint: wrote lint-baseline.txt ({entries} entries)");
                ExitCode::SUCCESS
            }
            Err(e) => failure(&e),
        };
    }

    match vroom_lint::analyze_with(&cwd, &vroom_lint::Options { rules }) {
        Ok(report) => {
            if json {
                print!("{}", vroom_lint::sarif::render(&report));
            } else {
                for v in &report.new_violations {
                    println!("{}:{}: {}: {}", v.path, v.line, v.rule, v.message);
                }
                for e in &report.stale_entries {
                    println!(
                        "lint-baseline.txt: stale entry ({} in {}: {:?}) — debt paid down, \
                         regenerate with --update-baseline",
                        e.rule, e.path, e.snippet
                    );
                }
                println!(
                    "vroom-lint: {} files, {} raw finding(s), {} new, {} stale baseline entr{}",
                    report.files_scanned,
                    report.raw_count,
                    report.new_violations.len(),
                    report.stale_entries.len(),
                    if report.stale_entries.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                );
            }
            let fail = !report.is_clean() || (check_baseline && !report.stale_entries.is_empty());
            if fail {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => failure(&e),
    }
}

/// Report a run that produced no report: exit 2 for configuration errors,
/// 1 for everything else.
fn failure(e: &vroom_lint::Error) -> ExitCode {
    eprintln!("vroom-lint: {e}");
    match e {
        vroom_lint::Error::Config(_) => ExitCode::from(2),
        vroom_lint::Error::Run(_) => ExitCode::FAILURE,
    }
}
