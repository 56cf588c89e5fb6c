//! The `vroom-cli` binary end to end: `help` prints the usage line and
//! succeeds; malformed flags and unknown commands are usage errors.

#![forbid(unsafe_code)]

use std::process::{Command, Output};

fn vroom_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vroom-cli"))
        .args(args)
        .output()
        .expect("vroom-cli starts")
}

#[test]
fn help_and_no_command_print_usage_and_succeed() {
    for args in [&["help"][..], &[]] {
        let out = vroom_cli(args);
        assert_eq!(out.status.code(), Some(0), "vroom-cli {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: vroom-cli"), "{stdout}");
    }
}

#[test]
fn malformed_flags_and_unknown_commands_exit_2_with_usage() {
    for (args, error) in [
        (&["load", "--seed", "x"][..], "error: --seed takes a number"),
        (&["load", "--seed"], "error: --seed takes a number"),
        (&["load", "--category"], "error: --category takes a name"),
        (&["page", "--bogus", "1"], "error: unknown flag --bogus"),
        (&["frobnicate"], "error: unknown command \"frobnicate\""),
    ] {
        let out = vroom_cli(args);
        assert_eq!(out.status.code(), Some(2), "vroom-cli {args:?}");
        assert!(out.stdout.is_empty(), "vroom-cli {args:?} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(error), "vroom-cli {args:?}: {stderr}");
        assert!(stderr.contains("\nusage: vroom-cli"), "{stderr}");
    }
}

#[test]
fn valid_flags_run_the_command() {
    let out = vroom_cli(&["page", "--category", "sports", "--seed", "3"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("resources"));
}
