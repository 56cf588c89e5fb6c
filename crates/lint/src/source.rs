//! Workspace discovery: which `.rs` files get linted, and path-derived
//! facts the rules key on (owning crate, test-ness, metrics-ness).

use std::fs;
use std::path::{Path, PathBuf};

/// One source file, with its repo-relative forward-slash path.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub source: String,
}

impl SourceFile {
    /// The crate under `crates/<name>/` owning this file, if any.
    pub fn crate_name(&self) -> Option<&str> {
        crate_of(&self.path)
    }

    /// Crate roots must carry `#![forbid(unsafe_code)]`: every `lib.rs`,
    /// `main.rs`, binary under `src/bin/`, integration test, bench, and
    /// example is a compilation root.
    pub fn is_crate_root(&self) -> bool {
        self.path.ends_with("/lib.rs")
            || self.path.ends_with("/main.rs")
            || self.path.contains("/src/bin/")
            || self.path.contains("/benches/")
            || self.path.starts_with("examples/")
            || self.path.contains("/tests/")
    }

    /// Test-only code: integration-test trees and `*_tests.rs` modules.
    /// (`#[cfg(test)]` regions inside other files are excluded separately.)
    pub fn is_test_file(&self) -> bool {
        self.path.contains("/tests/")
            || self.path.starts_with("tests/")
            || self.path.ends_with("_tests.rs")
    }

    /// Source line `line` (1-based), trimmed: a diagnostic's snippet.
    pub(crate) fn snippet(&self, line: usize) -> String {
        self.source
            .lines()
            .nth(line - 1)
            .unwrap_or("")
            .trim()
            .to_string()
    }

    /// Files holding metric/statistics computations, where the float-eq
    /// rule applies.
    pub fn is_metrics_code(&self) -> bool {
        let stem = self
            .path
            .rsplit('/')
            .next()
            .unwrap_or(&self.path)
            .trim_end_matches(".rs");
        ["metrics", "stats", "accuracy", "ablation", "summary"]
            .iter()
            .any(|k| stem.contains(k))
    }
}

/// The crate under `crates/<name>/` owning `path`, if any.
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Find the workspace root by walking up from `start` until a `Cargo.toml`
/// containing `[workspace]` appears.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = if start.is_dir() {
        start.to_path_buf()
    } else {
        start.parent()?.to_path_buf()
    };
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collect every first-party `.rs` file under the workspace root, sorted by
/// path. `vendor/` (third-party stand-ins), `target/`, and `fixtures/`
/// directories (lint-input test data, deliberately full of violations) are
/// never scanned.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                path: rel,
                source: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(path: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            source: String::new(),
        }
    }

    #[test]
    fn crate_name_extraction() {
        assert_eq!(f("crates/http2/src/conn.rs").crate_name(), Some("http2"));
        assert_eq!(f("tests/tests/lint.rs").crate_name(), None);
    }

    #[test]
    fn root_and_test_classification() {
        assert!(f("crates/sim/src/lib.rs").is_crate_root());
        assert!(f("crates/bench/src/bin/run.rs").is_crate_root());
        assert!(f("tests/tests/lint.rs").is_crate_root());
        assert!(!f("crates/sim/src/rng.rs").is_crate_root());
        assert!(f("tests/tests/lint.rs").is_test_file());
        assert!(f("crates/browser/src/engine_tests.rs").is_test_file());
        assert!(!f("crates/browser/src/engine.rs").is_test_file());
    }

    #[test]
    fn metrics_classification() {
        assert!(f("crates/browser/src/metrics.rs").is_metrics_code());
        assert!(f("crates/server/src/accuracy.rs").is_metrics_code());
        assert!(!f("crates/browser/src/engine.rs").is_metrics_code());
    }
}
