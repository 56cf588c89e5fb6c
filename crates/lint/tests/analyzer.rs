//! Integration tests for the analyzer: fixture golden files and the CLI's
//! exit-code contract.
//!
//! Each directory under `tests/fixtures/` is one case: a set of `.rs` lint
//! inputs (never compiled — the workspace walker skips `fixtures/` dirs)
//! plus an `expected.txt` listing the findings as `rule path:line` lines.
//! The first line of every fixture file is a `// path: <virtual-path>`
//! directive assigning its position in the pretend workspace, which is what
//! the rules key their scoping on; the directive line stays in the source so
//! diagnostic line numbers match the on-disk file.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use vroom_lint::source::SourceFile;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Load one case directory: (fixture sources, expected finding lines).
fn load_case(dir: &Path) -> (Vec<SourceFile>, Vec<String>) {
    let mut files = Vec::new();
    let mut expected = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        if name == "expected.txt" {
            expected = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect();
        } else if name.ends_with(".rs") {
            let first = text.lines().next().unwrap_or("");
            let vpath = first
                .strip_prefix("// path: ")
                .unwrap_or_else(|| panic!("{} is missing its `// path:` directive", path.display()))
                .trim()
                .to_string();
            files.push(SourceFile {
                path: vpath,
                source: text,
            });
        }
    }
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    (files, expected)
}

#[test]
fn fixture_golden() {
    let mut cases: Vec<_> = fs::read_dir(fixtures_dir())
        .expect("tests/fixtures exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "no fixture cases found");
    for case in cases {
        let (files, expected) = load_case(&case);
        let got: Vec<String> = vroom_lint::analyze_sources(&files)
            .iter()
            .map(|v| format!("{} {}:{}", v.rule, v.path, v.line))
            .collect();
        assert_eq!(
            got,
            expected,
            "case {} diverged from expected.txt",
            case.file_name().unwrap().to_string_lossy()
        );
    }
}

/// The golden file pins *where* hot-path-alloc fires; this pins the ranking:
/// the loop-gated alloc must outrank the once-per-call one, and the chain
/// back to the configured root must be named in the message.
#[test]
fn hot_path_alloc_rank_orders_loop_over_once() {
    let (files, _) = load_case(&fixtures_dir().join("hot_path_alloc_rank"));
    let v = vroom_lint::analyze_sources(&files);
    let hot: Vec<_> = v.iter().filter(|v| v.rule == "hot-path-alloc").collect();
    assert_eq!(hot.len(), 2, "{v:?}");
    let in_loop = hot.iter().find(|v| v.line == 14).expect("loop alloc");
    let once = hot.iter().find(|v| v.line == 8).expect("once alloc");
    assert!(
        in_loop.message.contains("loop depth 1, rank 1 of 2"),
        "{}",
        in_loop.message
    );
    assert!(
        once.message.contains("loop depth 0, rank 2 of 2"),
        "{}",
        once.message
    );
    assert!(once.message.contains("encode"), "{}", once.message);
}

/// The CLI's exit codes: 0 on the clean workspace, 2 on a usage or
/// configuration error. The retired flags (`--rules` and the baseline pair)
/// are unknown flags, so a CI step still passing one fails loudly instead
/// of linting something else.
#[test]
fn cli_exit_codes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    let run = |dir: &Path, args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_vroom-lint"))
            .args(args)
            .current_dir(dir)
            .output()
            .expect("spawn vroom-lint")
    };

    let usage_errors: [&[&str]; 5] = [
        &["--rules", "lock-safety"],
        &["--check-baseline"],
        &["--update-baseline"],
        &["--bogus"],
        &["--format", "yaml"],
    ];
    for args in usage_errors {
        let out = run(&root, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
        assert!(err.contains(args[0]), "usage error names the flag: {err}");
    }

    // A hot-path root naming no fn is a configuration error. An empty
    // workspace defines none of the compiled-in roots.
    let empty = std::env::temp_dir().join(format!("vroom-lint-empty-{}", std::process::id()));
    fs::create_dir_all(&empty).expect("create temp workspace");
    fs::write(empty.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    let dangling = run(&empty, &[]);
    let _ = fs::remove_dir_all(&empty);
    assert_eq!(dangling.status.code(), Some(2), "dangling roots exit 2");
    assert!(
        String::from_utf8_lossy(&dangling.stderr).contains("hotpaths.rs"),
        "config error names the file holding the roots"
    );

    let ok = run(&root, &[]);
    let out = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "the workspace lints clean: {out}"
    );
    assert!(
        out.lines()
            .last()
            .is_some_and(|l| l.starts_with("vroom-lint: ") && l.ends_with(" files, 0 finding(s)")),
        "summary line: {out}"
    );
}
