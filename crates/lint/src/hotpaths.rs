//! Hot-path root configuration for the `hot-path-alloc` rule.
//!
//! Roots are declared in a checked-in `lint-hotpaths.toml` at the workspace
//! root so the set is reviewable in diffs. The parser handles exactly the
//! subset of TOML the file uses — three sections of `"key" = ["value", ...]`
//! lines — because the workspace vendors no TOML crate. [`Default`] is that
//! file compiled in, and it is the only copy any analysis reads: workspace
//! runs, fixtures and library tests all see the same roots. A malformed
//! file panics there, so every lint test fails on it.

use crate::parse::FileSummary;

/// Workspace-root-relative name of the config file.
pub const HOTPATHS_FILE: &str = "lint-hotpaths.toml";

/// Roots and exemptions for `hot-path-alloc` reachability.
#[derive(Debug, Clone)]
pub struct HotPathConfig {
    /// `(file path, fn names)` — every listed fn defined in that file is a
    /// reachability root.
    pub roots: Vec<(String, Vec<String>)>,
    /// Path prefixes whose allocation sites are never reported even when
    /// name-based call resolution makes them look reachable.
    pub exempt: Vec<String>,
    /// `(file path, fn names)` — reachability roots for `lock-in-hot-loop`.
    /// A superset of `roots`: the serving hot paths plus the fleet/batch
    /// drivers, whose loops multiply every lock acquisition per client or
    /// per entry.
    pub lock_roots: Vec<(String, Vec<String>)>,
}

impl Default for HotPathConfig {
    /// The checked-in `lint-hotpaths.toml`, compiled in.
    fn default() -> Self {
        parse(include_str!("../../../lint-hotpaths.toml"))
            .expect("the checked-in lint-hotpaths.toml parses")
    }
}

impl HotPathConfig {
    /// Check that every `[roots]` and `[lock_roots]` entry names a fn
    /// defined in its file. Root selection matches by (path, name), so a
    /// renamed or deleted fn would otherwise drop out of its rule without a
    /// word.
    pub fn check_roots(&self, summaries: &[FileSummary]) -> Result<(), String> {
        let defined = |path: &str, name: &str| {
            summaries
                .iter()
                .any(|s| s.path == path && s.fns.iter().any(|f| f.name == name))
        };
        let mut dangling = Vec::new();
        for (section, entries) in [("roots", &self.roots), ("lock_roots", &self.lock_roots)] {
            for (path, fns) in entries {
                for name in fns.iter().filter(|n| !defined(path, n)) {
                    dangling.push(format!("[{section}] \"{path}\" = `{name}`"));
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
}

/// Parse the `lint-hotpaths.toml` dialect: `#` comments, `[roots]` /
/// `[exempt]` section headers, and `"key" = ["a", "b"]` entries.
pub fn parse(text: &str) -> Result<HotPathConfig, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Roots,
        Exempt,
        LockRoots,
    }
    let mut section = Section::None;
    let mut cfg = HotPathConfig {
        roots: Vec::new(),
        exempt: Vec::new(),
        lock_roots: Vec::new(),
    };
    for (i, raw) in text.lines().enumerate() {
        let no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[roots]" => {
                section = Section::Roots;
                continue;
            }
            "[exempt]" => {
                section = Section::Exempt;
                continue;
            }
            "[lock_roots]" => {
                section = Section::LockRoots;
                continue;
            }
            _ if line.starts_with('[') => {
                return Err(format!("line {no}: unknown section {line}"));
            }
            _ => {}
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {no}: expected `key = [..]`"))?;
        let key = key_of(key.trim())
            .ok_or_else(|| format!("line {no}: key must be quoted or a bare identifier"))?;
        let items = parse_array(value.trim())
            .ok_or_else(|| format!("line {no}: value must be an array of quoted strings"))?;
        match section {
            Section::Roots => cfg.roots.push((key, items)),
            Section::LockRoots => cfg.lock_roots.push((key, items)),
            Section::Exempt if key == "prefixes" => cfg.exempt.extend(items),
            Section::Exempt => {
                return Err(format!("line {no}: unknown exempt key `{key}`"));
            }
            Section::None => {
                return Err(format!("line {no}: entry before any [section]"));
            }
        }
    }
    Ok(cfg)
}

/// A key is either a quoted string (paths) or a bare TOML identifier.
fn key_of(s: &str) -> Option<String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        if inner.contains('"') {
            return None;
        }
        return Some(inner.to_string());
    }
    if !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Some(s.to_string());
    }
    None
}

/// `["a", "b"]` → `vec!["a", "b"]`. Only quoted strings, commas, and
/// whitespace may appear between the brackets.
fn parse_array(s: &str) -> Option<Vec<String>> {
    let inner = s.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let body = rest.strip_prefix('"')?;
        let end = body.find('"')?;
        out.push(body[..end].to_string());
        rest = body[end + 1..].trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let cfg = parse(
            "# comment\n\
             [roots]\n\
             \"crates/a/src/x.rs\" = [\"f\", \"g\"]\n\
             \n\
             [exempt]\n\
             prefixes = [\"crates/bench/\"]\n\
             \n\
             [lock_roots]\n\
             \"crates/a/src/y.rs\" = [\"h\"]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.roots,
            vec![(
                "crates/a/src/x.rs".to_string(),
                vec!["f".to_string(), "g".to_string()]
            )]
        );
        assert_eq!(cfg.exempt, vec!["crates/bench/".to_string()]);
        assert_eq!(
            cfg.lock_roots,
            vec![("crates/a/src/y.rs".to_string(), vec!["h".to_string()])]
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_silence() {
        assert!(parse("\"a\" = [\"f\"]\n").is_err(), "entry before section");
        assert!(
            parse("[roots]\n\"a\" \"b\" = [\"f\"]\n").is_err(),
            "malformed key"
        );
        assert!(parse("[roots]\n\"a\" = f\n").is_err(), "non-array value");
        assert!(parse("[surprise]\n").is_err(), "unknown section");
        assert!(
            parse("[exempt]\nother = [\"x\"]\n").is_err(),
            "unknown exempt key"
        );
    }

    #[test]
    fn dangling_roots_are_config_errors() {
        let summaries = [crate::parse::summarize_source(
            "crates/a/src/x.rs",
            "pub fn f() {}\npub fn g() { f(); }\n",
        )];
        let cfg = parse(
            "[roots]\n\"crates/a/src/x.rs\" = [\"f\"]\n\
             [lock_roots]\n\"crates/a/src/x.rs\" = [\"g\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.check_roots(&summaries), Ok(()));
        let gone = parse("[lock_roots]\n\"crates/a/src/x.rs\" = [\"g\", \"commit\"]\n").unwrap();
        let err = gone.check_roots(&summaries).unwrap_err();
        assert!(
            err.contains("[lock_roots]") && err.contains("`commit`"),
            "{err}"
        );
        assert!(!err.contains("`g`"), "{err}");
        let wrong_file = parse("[roots]\n\"crates/a/src/y.rs\" = [\"f\"]\n").unwrap();
        assert!(wrong_file.check_roots(&summaries).is_err());
    }
}
