//! CLI for the workspace linter.
//!
//! * `vroom-lint` — lint the workspace; print each finding and a summary.
//! * `vroom-lint --format json` — emit a SARIF 2.1.0 report on stdout
//!   (stable and sorted: the same tree always renders the same bytes).
//!
//! Exit 0 when clean, 1 on any finding (or a workspace that cannot be
//! read), 2 on a usage or configuration error: an unknown flag, or a
//! hot-path root (`crates/lint/src/hotpaths.rs`) naming a fn that does not
//! exist.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
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
                     USAGE: vroom-lint [--format json|text]\n\
                     \n\
                     Parses every workspace file from source and lints it. Exits 0 when\n\
                     clean, 1 on any finding, 2 on a usage or configuration error.\n\
                     --format json writes a SARIF 2.1.0 report to stdout."
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
    match vroom_lint::analyze(&cwd) {
        Ok(report) => {
            if json {
                print!("{}", vroom_lint::sarif::render(&report));
            } else {
                for v in &report.violations {
                    println!("{}:{}: {}: {}", v.path, v.line, v.rule, v.message);
                }
                println!(
                    "vroom-lint: {} files, {} finding(s)",
                    report.files_scanned,
                    report.violations.len()
                );
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("vroom-lint: {e}");
            match e {
                vroom_lint::Error::Config(_) => ExitCode::from(2),
                vroom_lint::Error::Run(_) => ExitCode::FAILURE,
            }
        }
    }
}
