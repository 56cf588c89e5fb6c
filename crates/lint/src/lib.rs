//! `vroom-lint` — call-graph semantic analysis for the Vroom workspace.
//!
//! The simulation's headline guarantee is determinism: the same seed and
//! the same page corpus must produce byte-identical event traces and
//! metrics. That guarantee is easy to break silently — one `Instant::now()`
//! in a helper three calls below the engine, one `HashMap` iteration
//! feeding an event queue — so this crate enforces the invariants
//! *statically*, over the workspace's own source text, with no external
//! dependencies beyond the workspace JSON codec.
//!
//! The pipeline:
//!
//! 1. [`lexer`] blanks comments and literals while preserving byte
//!    positions, and collects per-line waivers;
//! 2. [`parse`] builds one [`parse::FileSummary`] per file, from source on
//!    every run — fns with their call and effect sites, enums, and protocol
//!    matches — plus the per-file rule findings ([`rules`]);
//! 3. [`callgraph`] links the summaries into a conservative workspace call
//!    graph (over-approximating on every ambiguity);
//! 4. [`reach`] walks it for the interprocedural rule families —
//!    `sim-purity`, `panic-reachable`, `hot-path-alloc`,
//!    `protocol-exhaustive`, and the `lock-safety` triple (`lock-order`,
//!    `blocking-under-lock`, `lock-in-hot-loop`);
//! 5. [`baseline`] reconciles findings against the checked-in ratchet, and
//!    [`sarif`] renders the report as canonical SARIF JSON.
//!
//! Escape hatches are explicit and audited: a line can carry
//! `// vroom-lint: allow(<rule>) -- <reason>` (the reason is mandatory),
//! and pre-existing debt lives in a checked-in ratchet baseline
//! (`lint-baseline.txt`) that may only shrink.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod hotpaths;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod source;

use baseline::Reconciled;
use parse::FileSummary;
use rules::Violation;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Outcome of a full lint run.
#[derive(Debug)]
pub struct Report {
    /// Violations not absorbed by the baseline.
    pub new_violations: Vec<Violation>,
    /// Baseline entries whose violation no longer exists.
    pub stale_entries: Vec<baseline::Entry>,
    /// Total raw violations before baseline reconciliation.
    pub raw_count: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means no new violations (stale entries are reported separately
    /// and only fail under `--check-baseline`).
    pub fn is_clean(&self) -> bool {
        self.new_violations.is_empty()
    }
}

/// Why a lint run produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The checked-in configuration is malformed or names code that does
    /// not exist — a usage error, like a bad flag.
    Config(String),
    /// The workspace could not be read or the baseline written.
    Run(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(e) | Error::Run(e) => f.write_str(e),
        }
    }
}

/// Analysis options. `Default` reports every rule.
#[derive(Debug, Default)]
pub struct Options {
    /// Restrict reporting to these rule ids (expanded from `--rules`
    /// families by [`rules::resolve_rule_filter`]). Applies to baseline
    /// entries too — other families' debt must not read as stale when the
    /// run never looked for it.
    pub rules: Option<Vec<&'static str>>,
}

/// Lint in-memory sources — the pure entry point tests and fixtures use.
/// Runs the complete pipeline (per-file rules + call-graph rules) and
/// returns all violations sorted by (path, line, rule).
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Violation> {
    let summaries: Vec<FileSummary> = files.iter().map(parse::summarize).collect();
    violations_of(&summaries, &hotpaths::HotPathConfig::default())
}

fn violations_of(summaries: &[FileSummary], hot: &hotpaths::HotPathConfig) -> Vec<Violation> {
    let mut out: Vec<Violation> = summaries.iter().flat_map(|s| s.local.clone()).collect();
    out.extend(reach::semantic_violations_with(summaries, hot));
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Lint the workspace rooted at (or above) `start`, reconciling against the
/// checked-in baseline if present.
pub fn analyze(start: &Path) -> Result<Report, Error> {
    analyze_with(start, &Options::default())
}

/// Lint the workspace with explicit [`Options`].
pub fn analyze_with(start: &Path, opts: &Options) -> Result<Report, Error> {
    let (root, files_scanned, mut violations) = lint_workspace(start)?;
    if let Some(keep) = &opts.rules {
        violations.retain(|v| keep.contains(&v.rule));
    }
    let raw_count = violations.len();
    let baseline_path = root.join(baseline::BASELINE_FILE);
    let mut entries = if baseline_path.is_file() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| Error::Run(format!("reading {}: {e}", baseline_path.display())))?;
        baseline::parse(&text).map_err(Error::Run)?
    } else {
        Vec::new()
    };
    if let Some(keep) = &opts.rules {
        entries.retain(|e| keep.iter().any(|r| *r == e.rule));
    }
    let Reconciled {
        new_violations,
        stale_entries,
    } = baseline::reconcile(violations, &entries);
    Ok(Report {
        new_violations,
        stale_entries,
        raw_count,
        files_scanned,
    })
}

/// Regenerate the baseline from the current tree and return its contents.
pub fn update_baseline(start: &Path) -> Result<String, Error> {
    let (root, _, violations) = lint_workspace(start)?;
    let text = baseline::render(&violations);
    std::fs::write(root.join(baseline::BASELINE_FILE), &text)
        .map_err(|e| Error::Run(format!("writing baseline: {e}")))?;
    Ok(text)
}

/// Summarize every source file of the workspace above `start` and return
/// its root, the number of files scanned, and every raw violation.
fn lint_workspace(start: &Path) -> Result<(PathBuf, usize, Vec<Violation>), Error> {
    let root = source::workspace_root(start)
        .ok_or_else(|| Error::Run(format!("no workspace Cargo.toml above {}", start.display())))?;
    let files = source::collect_sources(&root)
        .map_err(|e| Error::Run(format!("walking workspace: {e}")))?;
    let hot = hotpaths::load(&root).map_err(Error::Config)?;
    let summaries: Vec<FileSummary> = files.iter().map(parse::summarize).collect();
    hot.check_roots(&summaries).map_err(Error::Config)?;
    Ok((root, files.len(), violations_of(&summaries, &hot)))
}
