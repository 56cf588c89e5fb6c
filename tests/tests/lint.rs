//! Tier-1 enforcement of the workspace's determinism and protocol
//! invariants: the same `vroom-lint` library the CLI runs is invoked here,
//! so `cargo test` fails the moment a violation lands — no separate CI
//! wiring required.

#![forbid(unsafe_code)]

use std::path::Path;
use vroom_lint::source::SourceFile;
use vroom_lint::{analyze, analyze_sources};

fn file(path: &str, source: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    }
}

fn rules_of(v: &[vroom_lint::rules::Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

/// The workspace itself must lint clean: any finding fails, exactly as it
/// fails the `vroom-lint` CLI.
#[test]
fn workspace_is_clean() {
    let report = analyze(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint run");
    assert!(report.files_scanned > 50, "walker found the workspace");
    assert!(
        report.is_clean(),
        "lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {}:{}: {}: {}", v.path, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A wall-clock read reachable from a simulation entrypoint is flagged at
/// the effect site with the call chain in the message; the same code with a
/// justified waiver, or with no path from a sim root, is clean.
#[test]
fn introduced_wall_clock_violation_is_caught() {
    let entry = || {
        file(
            "crates/sim/src/driver.rs",
            "#![forbid(unsafe_code)]\npub fn drive() { tick(); }\n",
        )
    };
    let bad = file(
        "crates/net/src/link.rs",
        "#![forbid(unsafe_code)]\npub fn tick() {\n    let _ = std::time::Instant::now();\n}\n",
    );
    let v = analyze_sources(&[entry(), bad.clone()]);
    assert_eq!(rules_of(&v), vec!["sim-purity"]);
    assert_eq!(v[0].path, "crates/net/src/link.rs");
    assert_eq!(v[0].line, 3);
    assert!(
        v[0].message.contains("sim::drive"),
        "names the root: {}",
        v[0].message
    );
    assert!(
        analyze_sources(&[bad]).is_empty(),
        "no sim entrypoint reaches it, so it is not a violation"
    );

    let waived = file(
        "crates/net/src/link.rs",
        "#![forbid(unsafe_code)]\npub fn tick() {\n    let _ = std::time::Instant::now(); // vroom-lint: allow(sim-purity) -- test fixture\n}\n",
    );
    assert!(analyze_sources(&[entry(), waived]).is_empty());
}

/// Hash-container iteration is an effect like any other: flagged where a sim
/// entrypoint reaches it (every non-test fn in `crates/sim` is a root),
/// clean where none does.
#[test]
fn introduced_unordered_iteration_is_caught() {
    let src = "#![forbid(unsafe_code)]\n\
               use std::collections::HashMap;\n\
               pub fn sum(m: &HashMap<u32, u64>) -> u64 {\n\
               \u{20}   m.values().sum()\n\
               }\n";
    let v = analyze_sources(&[file("crates/sim/src/cache.rs", src)]);
    assert_eq!(rules_of(&v), vec!["sim-purity"]);
    assert_eq!(v[0].line, 4);
    assert!(
        v[0].message.contains("unordered iteration"),
        "names the effect family: {}",
        v[0].message
    );
    assert!(analyze_sources(&[file("crates/hpack/src/cache.rs", src)]).is_empty());
}

/// Matches on protocol enums inside `crates/http2` may not hide variants
/// behind a catch-all arm.
#[test]
fn introduced_protocol_catch_all_is_caught() {
    let src = "#![forbid(unsafe_code)]\n\
               pub enum FrameType { Data, Headers, Ping }\n\
               pub fn kind(t: FrameType) -> u8 {\n\
               \u{20}   match t {\n\
               \u{20}       FrameType::Data => 0,\n\
               \u{20}       _ => 1,\n\
               \u{20}   }\n\
               }\n";
    let v = analyze_sources(&[file("crates/http2/src/kinds.rs", src)]);
    assert_eq!(rules_of(&v), vec!["protocol-exhaustive"]);
    assert_eq!(v[0].line, 4);
}

/// A new `.unwrap()` in protocol code is a finding, and each copy is its
/// own finding: nothing absorbs identical lines.
#[test]
fn unwrap_ratchet_rejects_new_sites_but_honors_baseline() {
    let src = "#![forbid(unsafe_code)]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let violations = analyze_sources(&[file("crates/http2/src/novel.rs", src)]);
    assert_eq!(rules_of(&violations), vec!["unwrap"]);

    let twice = analyze_sources(&[file(
        "crates/http2/src/novel.rs",
        "#![forbid(unsafe_code)]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )]);
    assert_eq!(rules_of(&twice), vec!["unwrap", "unwrap"]);
    assert_eq!((twice[0].line, twice[1].line), (2, 3));
}

/// A loop that issues requests with no retry budget anywhere in scope is a
/// new violation (the fault layer guarantees flaky peers; unbounded retry
/// loops spin forever against them); gating the loop on a budget clears it.
#[test]
fn bare_retry_loop_without_budget_is_caught() {
    let bare = file(
        "crates/server/src/push.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn pump(c: &mut Connection) {\n\
         \u{20}   loop {\n\
         \u{20}       c.send_request(&req, true).ok();\n\
         \u{20}   }\n\
         }\n",
    );
    let v = analyze_sources(&[bare]);
    assert_eq!(rules_of(&v), vec!["retry-budget"]);
    assert_eq!(v[0].line, 3);

    let budgeted = file(
        "crates/server/src/push.rs",
        "#![forbid(unsafe_code)]\n\
         pub fn pump(c: &mut Connection, budget: &RetryBudget) {\n\
         \u{20}   let mut n = 0;\n\
         \u{20}   while budget.allows(n) {\n\
         \u{20}       c.send_request(&req, true).ok();\n\
         \u{20}       n += 1;\n\
         \u{20}   }\n\
         }\n",
    );
    assert!(analyze_sources(&[budgeted]).is_empty());
}

/// The lexer front-end keeps rule patterns from firing inside comments,
/// strings (including raw strings), and doc text.
#[test]
fn comments_and_strings_do_not_trigger_rules() {
    let src = r##"#![forbid(unsafe_code)]
// Instant::now() would break determinism, so we do not call it.
/* thread_rng() inside /* nested */ comments is also fine */
const DOC: &str = "Instant::now and thread_rng in a string";
const RAW: &str = r#"SystemTime::now() // still a string"#;
"##;
    assert!(analyze_sources(&[file("crates/sim/src/doc.rs", src)]).is_empty());
}

/// Waivers demand a reason; a bare `allow(...)` is itself a violation, as is
/// naming a rule that does not exist.
#[test]
fn waiver_without_reason_or_with_unknown_rule_is_rejected() {
    let missing_reason = file(
        "crates/sim/src/clock.rs",
        "#![forbid(unsafe_code)]\npub fn now() {\n    let _ = std::time::Instant::now(); // vroom-lint: allow(sim-purity)\n}\n",
    );
    let v = analyze_sources(&[missing_reason]);
    assert!(
        v.iter().any(|x| x.rule == "waiver-syntax"),
        "bare allow() must be flagged: {v:?}"
    );
    assert!(
        v.iter().any(|x| x.rule == "sim-purity"),
        "malformed waiver grants nothing: {v:?}"
    );

    let unknown = file(
        "crates/net/src/link.rs",
        "#![forbid(unsafe_code)]\nfn f() {} // vroom-lint: allow(not-a-rule) -- oops\n",
    );
    assert_eq!(
        rules_of(&analyze_sources(&[unknown])),
        vec!["waiver-syntax"]
    );
}

/// A crate root without `#![forbid(unsafe_code)]` is flagged, and so is an
/// `unsafe` block anywhere.
#[test]
fn unsafe_is_banned_workspace_wide() {
    let v = analyze_sources(&[file("crates/html/src/lib.rs", "pub fn f() {}\n")]);
    assert_eq!(rules_of(&v), vec!["forbid-unsafe"]);
    let v = analyze_sources(&[file(
        "crates/net/src/fast.rs",
        "#![forbid(unsafe_code)]\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    )]);
    assert_eq!(rules_of(&v), vec!["forbid-unsafe"]);
}
