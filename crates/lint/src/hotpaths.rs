//! Hot-path roots for the `hot-path-alloc` and `lock-in-hot-loop` rules.
//!
//! The roots are `const` tables, so the set is reviewable in diffs and
//! every analysis (workspace runs, fixtures, library tests) sees the same
//! roots. Every listed fn must exist in its file: a root naming no fn is a
//! configuration error (exit 2), reported by `check_roots`.

use crate::parse::FileSummary;

/// `(file path, fn names)` pairs: every listed fn defined in that file is a
/// reachability root.
pub(crate) type Roots = &'static [(&'static str, &'static [&'static str])];

/// Where the tables live, for configuration errors.
const HOTPATHS_FILE: &str = "crates/lint/src/hotpaths.rs";

/// `hot-path-alloc` roots: the per-load serving path. Allocation/copy sites
/// reachable from one are reported, ranked by enclosing loop depth.
pub(crate) const ROOTS: Roots = &[
    ("crates/browser/src/engine.rs", &["load"]),
    (
        "crates/fleet/src/lib.rs",
        &["load_client", "run_fleet_instrumented"],
    ),
    ("crates/hpack/src/decoder.rs", &["decode"]),
    ("crates/hpack/src/encoder.rs", &["encode", "encode_into"]),
    (
        "crates/http2/src/conn.rs",
        &["push_promise", "recv", "send_data", "send_header_block"],
    ),
    ("crates/http2/src/frame.rs", &["decode", "encode"]),
    ("crates/net/src/replay.rs", &["lookup_id"]),
    (
        "crates/server/src/wire.rs",
        &["handle_request", "serve_connection"],
    ),
];

/// Paths never reported even when name-based call resolution makes them
/// look reachable: the bench harness and the linter are off the wire path
/// by definition, crates/vroom is the experiment/reporting frontend, and
/// crates/intern is the allocation machinery the rule steers callers
/// toward. server/resolve.rs is the offline resolver pass: batch-side work
/// amortized across every client of a bucket, not the per-load serving
/// path. crates/pages and crates/html are not exempt: every fleet client
/// materializes its own snapshot, so page generation is per-load work, and
/// the owned strings either crate builds per load carry audited waivers.
pub(crate) const EXEMPT: &[&str] = &[
    "crates/bench/",
    "crates/intern/",
    "crates/lint/",
    "crates/server/src/resolve.rs",
    "crates/vroom/",
];

/// `lock-in-hot-loop` roots: the serving hot paths plus the fleet/batch
/// drivers, whose per-client and per-entry loops multiply every lock
/// acquisition they reach.
pub(crate) const LOCK_ROOTS: Roots = &[
    ("crates/browser/src/engine.rs", &["load"]),
    (
        "crates/fleet/src/lib.rs",
        &["load_client", "run_fleet", "run_fleet_instrumented"],
    ),
    ("crates/server/src/batch.rs", &["commit_pass_at"]),
    (
        "crates/server/src/wire.rs",
        &["handle_request", "serve_connection"],
    ),
];

/// Check that every [`ROOTS`] and [`LOCK_ROOTS`] entry names a fn defined in
/// its file. Root selection matches by (path, name), so a renamed or deleted
/// fn would otherwise drop out of its rule without a word.
pub(crate) fn check_roots(summaries: &[FileSummary]) -> Result<(), String> {
    dangling(&[("ROOTS", ROOTS), ("LOCK_ROOTS", LOCK_ROOTS)], summaries)
}

/// [`check_roots`] over named tables.
fn dangling(tables: &[(&str, Roots)], summaries: &[FileSummary]) -> Result<(), String> {
    let defined = |path: &str, name: &str| {
        summaries
            .iter()
            .any(|s| s.path == path && s.fns.iter().any(|f| f.name == name))
    };
    let mut dangling = Vec::new();
    for (table, entries) in tables {
        for (path, fns) in *entries {
            for name in fns.iter().filter(|n| !defined(path, n)) {
                dangling.push(format!("{table} \"{path}\" = `{name}`"));
            }
        }
    }
    if dangling.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{HOTPATHS_FILE}: root(s) naming no fn in their file: {}",
            dangling.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dangling_roots_are_config_errors() {
        let summaries = [crate::parse::summarize_source(
            "crates/a/src/x.rs",
            "pub fn f() {}\npub fn g() { f(); }\n",
        )];
        let ok: [(&str, Roots); 2] = [
            ("ROOTS", &[("crates/a/src/x.rs", &["f"])]),
            ("LOCK_ROOTS", &[("crates/a/src/x.rs", &["g"])]),
        ];
        assert_eq!(dangling(&ok, &summaries), Ok(()));
        let gone: [(&str, Roots); 1] = [("LOCK_ROOTS", &[("crates/a/src/x.rs", &["g", "commit"])])];
        let err = dangling(&gone, &summaries).unwrap_err();
        assert!(
            err.contains("LOCK_ROOTS") && err.contains("`commit`") && err.contains("hotpaths.rs"),
            "{err}"
        );
        assert!(!err.contains("`g`"), "{err}");
        let wrong_file: [(&str, Roots); 1] = [("ROOTS", &[("crates/a/src/y.rs", &["f"])])];
        assert!(dangling(&wrong_file, &summaries).is_err());
    }
}
