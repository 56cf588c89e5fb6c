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
//!    matches — plus the per-file rule findings ([`rules`]); both read the
//!    file's spans (test lines, loop bodies), computed once while lexing;
//! 3. [`callgraph`] links the summaries into a conservative workspace call
//!    graph (over-approximating on every ambiguity);
//! 4. [`reach`] walks it for the interprocedural rule families —
//!    `sim-purity`, `panic-reachable`, `hot-path-alloc`,
//!    `protocol-exhaustive`, and the `lock-safety` triple (`lock-order`,
//!    `blocking-under-lock`, `lock-in-hot-loop`);
//! 5. findings from both merge into one list sorted by (path, line,
//!    rule), and [`sarif`] renders it as canonical SARIF JSON.
//!
//! The roots of `hot-path-alloc` and `lock-in-hot-loop` are the `const`
//! tables in [`hotpaths`], so a run reads nothing but the workspace's
//! source files.
//!
//! Every finding fails the run. The one escape hatch is explicit and
//! audited: a line can carry `// vroom-lint: allow(<rule>) -- <reason>`
//! (the reason is mandatory).

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod hotpaths;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod sarif;
pub mod source;

use parse::FileSummary;
use rules::Violation;
use source::SourceFile;
use std::path::Path;

/// Outcome of a full lint run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, sorted by (path, line, rule). Any one fails the run.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means no findings at all.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Why a lint run produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A [`hotpaths`] root names no fn in its file — a usage error, like a
    /// bad flag.
    Config(String),
    /// The workspace could not be found or read.
    Run(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(e) | Error::Run(e) => f.write_str(e),
        }
    }
}

/// Lint in-memory sources — the pure entry point tests and fixtures use.
/// Runs the complete pipeline (per-file rules + call-graph rules) and
/// returns all violations sorted by (path, line, rule).
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Violation> {
    let summaries: Vec<FileSummary> = files.iter().map(parse::summarize).collect();
    violations_of(&summaries)
}

fn violations_of(summaries: &[FileSummary]) -> Vec<Violation> {
    let mut out: Vec<Violation> = summaries.iter().flat_map(|s| s.local.clone()).collect();
    out.extend(reach::semantic_violations(summaries));
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Lint the workspace rooted at (or above) `start`: summarize every source
/// file, check that each compiled-in hot-path root names a fn, and report
/// every finding.
pub fn analyze(start: &Path) -> Result<Report, Error> {
    let root = source::workspace_root(start)
        .ok_or_else(|| Error::Run(format!("no workspace Cargo.toml above {}", start.display())))?;
    let files = source::collect_sources(&root)
        .map_err(|e| Error::Run(format!("walking workspace: {e}")))?;
    let summaries: Vec<FileSummary> = files.iter().map(parse::summarize).collect();
    hotpaths::check_roots(&summaries).map_err(Error::Config)?;
    Ok(Report {
        violations: violations_of(&summaries),
        files_scanned: files.len(),
    })
}
