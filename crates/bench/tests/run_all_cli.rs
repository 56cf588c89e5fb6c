//! The `run_all` binary end to end: `--only` selection reproduces the
//! committed report byte for byte, and bad selections are usage errors.

#![forbid(unsafe_code)]

use std::process::{Command, Output};

use vroom::experiment::RUN_ALL_SECTIONS;

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("run_all starts")
}

#[test]
fn only_rejects_unknown_empty_and_missing_ids_with_exit_2() {
    for args in [
        &["--only", "fig13,fig99"][..],
        &["--only", ""],
        &["--only", ","],
        &["--sites", "1", "--only"],
    ] {
        let out = run_all(args);
        assert_eq!(out.status.code(), Some(2), "run_all {args:?}");
        assert!(out.stdout.is_empty(), "run_all {args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: run_all"), "{stderr}");
    }
}

#[test]
fn only_over_every_section_reproduces_the_sites3_golden() {
    let ids = RUN_ALL_SECTIONS.join(",");
    let out = run_all(&["--sites", "3", "--workers", "2", "--only", &ids]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_str!("../../../results/run_all_sites3.txt");
    assert!(
        out.stdout == golden.as_bytes(),
        "run_all --sites 3 --only <all sections> diverged from results/run_all_sites3.txt"
    );
}
