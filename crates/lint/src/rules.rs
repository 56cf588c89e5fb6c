//! Per-file workspace rules. Each one works on lexed (comment- and
//! literal-stripped) source, so string fixtures and docs never trigger it,
//! and consults per-line waivers before reporting.
//!
//! The three call-graph rule families (`sim-purity`, `panic-reachable`,
//! `protocol-exhaustive`) live in [`crate::reach`]; this module only hosts
//! the rules that are decidable from one file in isolation.

use crate::lexer::{close_of, find_word, needle_hits, trailing_ident, Lexed, LoopSpan};
use crate::parse::{PANIC_NEEDLES, RANDOM_NEEDLES};
use crate::source::SourceFile;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id (what waivers reference).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation with a suggested fix.
    pub message: String,
    /// The offending source line, trimmed (the SARIF region snippet).
    pub snippet: String,
}

/// All rule ids, in reporting order. The first seven are interprocedural
/// (driven by the call graph in [`crate::reach`]); the rest are per-file.
/// `lock-order`, `blocking-under-lock` and `lock-in-hot-loop` together form
/// the `lock-safety` family.
pub const RULE_IDS: [&str; 14] = [
    "sim-purity",
    "panic-reachable",
    "protocol-exhaustive",
    "hot-path-alloc",
    "lock-order",
    "blocking-under-lock",
    "lock-in-hot-loop",
    "ambient-randomness",
    "forbid-unsafe",
    "unwrap",
    "float-eq",
    "sort-partial-cmp",
    "retry-budget",
    "waiver-syntax",
];

/// One-line rule descriptions, keyed by id (used by the SARIF driver block).
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        "sim-purity" => {
            "code reachable from a simulation entrypoint must not touch wall-clock, \
             ambient randomness, the filesystem, the network, or unordered iteration"
        }
        "panic-reachable" => {
            "panic/unwrap/expect/indexing sites reachable from the wire server \
             accept loop must return typed errors"
        }
        "protocol-exhaustive" => {
            "matches on protocol enums in crates/http2 must enumerate every \
             variant explicitly; no catch-all arms"
        }
        "hot-path-alloc" => {
            "allocation/copy sites reachable from a declared hot-path root \
             (crates/lint/src/hotpaths.rs), ranked by enclosing loop depth; the wire \
             path must stay zero-copy"
        }
        "lock-order" => {
            "the workspace lock-acquisition graph must be acyclic: two locks \
             acquired in opposite orders on any pair of call paths (shard \
             locks counted per acquisition index) can deadlock"
        }
        "blocking-under-lock" => {
            "I/O, channel operations, sleeps, joins, or a second lock \
             acquisition must not be reachable while a guard is live; slow \
             work under a lock convoys every contending thread"
        }
        "lock-in-hot-loop" => {
            "lock acquisitions inside a loop reachable from a declared \
             hot-path root (crates/lint/src/hotpaths.rs LOCK_ROOTS), ranked by \
             enclosing loop depth; acquisitions amortize per batch or hoist"
        }
        "ambient-randomness" => "randomness must come from the seeded vroom_sim::Rng",
        "forbid-unsafe" => "unsafe code is banned workspace-wide",
        "unwrap" => "unwrap/expect in non-test protocol crate code",
        "float-eq" => "exact float comparison in metrics code",
        "sort-partial-cmp" => {
            "sort/min/max comparators built on partial_cmp panic (or lie) on \
             NaN; use total_cmp or a total-ordered key"
        }
        "retry-budget" => "request/data-frame loops must carry a RetryBudget or backoff",
        "waiver-syntax" => "malformed or unknown-rule waiver comments",
        _ => "unknown rule",
    }
}

/// Crates whose code runs inside the deterministic simulation path.
const SIM_PATH_CRATES: [&str; 5] = ["sim", "browser", "server", "net", "vroom"];

/// Crates whose non-test protocol code may not call `.unwrap()`/`.expect(`.
const PROTOCOL_CRATES: [&str; 3] = ["http2", "hpack", "server"];

/// Run every rule against one file.
pub fn check_file(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Violation>) {
    for err in &lexed.waiver_errors {
        out.push(Violation {
            rule: "waiver-syntax",
            path: file.path.clone(),
            line: err.line,
            message: err.message.clone(),
            snippet: file.snippet(err.line),
        });
    }

    let mut report = |rule: &'static str, line: usize, message: String| {
        if lexed.is_waived(rule, line) {
            return;
        }
        out.push(Violation {
            rule,
            path: file.path.clone(),
            line,
            message,
            snippet: file.snippet(line),
        });
    };

    for w in &lexed.waivers {
        for rule in &w.rules {
            if !RULE_IDS.contains(&rule.as_str()) {
                report(
                    "waiver-syntax",
                    w.line,
                    format!("waiver names unknown rule {rule:?}"),
                );
            }
        }
    }

    let crate_name = file.crate_name();

    ambient_randomness(file, lexed, &mut report);
    forbid_unsafe(file, lexed, &mut report);
    if crate_name.is_some_and(|c| PROTOCOL_CRATES.contains(&c)) && !file.is_test_file() {
        unwrap_in_protocol_code(lexed, &mut report);
    }
    if crate_name.is_some_and(|c| PROTOCOL_CRATES.contains(&c) || SIM_PATH_CRATES.contains(&c))
        && !file.is_test_file()
    {
        retry_budget(lexed, &mut report);
    }
    if file.is_metrics_code() && !file.is_test_file() {
        float_eq(lexed, &mut report);
    }
    // Applies everywhere, tests included: a NaN-panicking comparator in a
    // test is a flake waiting for one bad sample.
    sort_partial_cmp(lexed, &mut report);
}

/// Rule `sort-partial-cmp`: `partial_cmp` inside the comparator argument of
/// a sort/min/max/binary-search call. `partial_cmp(..).unwrap()` panics the
/// first time a NaN shows up, and `unwrap_or(Ordering::Equal)` silently
/// breaks total-order invariants; `f64::total_cmp` is both total and cheap.
/// The comparator span is paren-matched, so multi-line closures are caught.
fn sort_partial_cmp(lexed: &Lexed, report: &mut impl FnMut(&'static str, usize, String)) {
    const METHODS: [&str; 6] = [
        ".sort_by(",
        ".sort_unstable_by(",
        ".max_by(",
        ".min_by(",
        ".binary_search_by(",
        ".partition_point(",
    ];
    let code = &lexed.code;
    for m in METHODS {
        for (at, _) in code.match_indices(m) {
            // Paren-match the argument list from the method's `(`.
            let open = at + m.len() - 1;
            let end = close_of(code, open).unwrap_or(code.len());
            if let Some(rel) = code[open..end].find("partial_cmp") {
                let line = lexed.spans.lines.line(open + rel);
                let method = m.trim_start_matches('.').trim_end_matches('(');
                report(
                    "sort-partial-cmp",
                    line,
                    format!(
                        "`partial_cmp` in a `{method}` comparator is not a total order \
                         (NaN panics the unwrap or corrupts the sort); use \
                         `f64::total_cmp` or compare a total-ordered key"
                    ),
                );
            }
        }
    }
}

/// Rule `ambient-randomness`: the only randomness source is the seeded PRNG
/// in `crates/sim/src/rng.rs`.
fn ambient_randomness(
    file: &SourceFile,
    lexed: &Lexed,
    report: &mut impl FnMut(&'static str, usize, String),
) {
    if file.path == "crates/sim/src/rng.rs" {
        return;
    }
    for (line, text) in lines(&lexed.code) {
        for needle in RANDOM_NEEDLES {
            if text.contains(needle) {
                report(
                    "ambient-randomness",
                    line,
                    format!(
                        "ambient randomness ({needle}); derive a seeded vroom_sim::Rng instead \
                         so runs stay reproducible"
                    ),
                );
            }
        }
    }
}

/// Rule `forbid-unsafe`: every crate root carries `#![forbid(unsafe_code)]`,
/// and no `unsafe` blocks appear anywhere.
fn forbid_unsafe(
    file: &SourceFile,
    lexed: &Lexed,
    report: &mut impl FnMut(&'static str, usize, String),
) {
    if file.is_crate_root() && !lexed.code.contains("#![forbid(unsafe_code)]") {
        report(
            "forbid-unsafe",
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    for (line, text) in lines(&lexed.code) {
        for idx in find_word(text, "unsafe") {
            let after = text[idx + "unsafe".len()..].trim_start();
            if after.starts_with('{')
                || after.starts_with("fn")
                || after.starts_with("impl")
                || after.starts_with("trait")
            {
                report(
                    "forbid-unsafe",
                    line,
                    "unsafe code is banned workspace-wide".to_string(),
                );
            }
        }
    }
}

/// Rule `unwrap`: no `.unwrap()` / `.expect(` in non-test protocol code.
fn unwrap_in_protocol_code(lexed: &Lexed, report: &mut impl FnMut(&'static str, usize, String)) {
    // The method-call panic needles; the macros are `panic-reachable`'s.
    let needles = PANIC_NEEDLES.iter().filter(|n| n.starts_with('.'));
    for (line, text) in lines(&lexed.code) {
        if lexed.spans.in_test(line) {
            continue;
        }
        for needle in needles.clone() {
            if text.contains(needle) {
                report(
                    "unwrap",
                    line,
                    format!(
                        "{needle} in protocol code can panic a connection; \
                         return a protocol error instead"
                    ),
                );
            }
        }
    }
}

/// Rule `retry-budget`: a `loop`/`while` body that issues requests or data
/// frames must reference a retry budget or backoff. A bare retry loop spins
/// forever on a faulted peer; `vroom_net::RetryBudget` bounds attempts and
/// spaces them out.
fn retry_budget(lexed: &Lexed, report: &mut impl FnMut(&'static str, usize, String)) {
    const FETCH_NEEDLES: [&str; 2] = ["send_request(", "send_data("];
    const BUDGET_NEEDLES: [&str; 3] = ["RetryBudget", "backoff", ".allows("];
    // Each `loop`/`while` is read as the text from its keyword through its
    // body's close: including the `while` condition lets a loop gated on
    // `budget.allows(n)` count as budgeted.
    let (code, spans) = (lexed.code.as_str(), &lexed.spans);
    let unbounded = || spans.loops.iter().filter(|lp| !lp.is_for);
    let text = |lp: &LoopSpan| &code[lp.kw..lp.body.1];
    let fetches_in = |text: &str| FETCH_NEEDLES.iter().find(|n| text.contains(*n));
    for lp in unbounded() {
        let start_line = spans.lines.line(lp.kw);
        if spans.in_test(start_line) {
            continue;
        }
        // Innermost-only: if a nested loop inside this body holds the fetch
        // call, the inner block is the one that must carry the budget.
        let (open, end) = lp.body;
        let nested = |inner: &&LoopSpan| open < inner.kw && inner.kw < end;
        if unbounded()
            .filter(nested)
            .any(|inner| fetches_in(text(inner)).is_some())
        {
            continue;
        }
        let body = text(lp);
        let fetches = fetches_in(body);
        let budgeted = BUDGET_NEEDLES.iter().any(|n| body.contains(n));
        if let (Some(needle), false) = (fetches, budgeted) {
            report(
                "retry-budget",
                start_line,
                format!(
                    "bare retry loop: `{}` inside a loop with no RetryBudget/backoff in \
                     sight can spin forever against a faulted peer; thread a \
                     vroom_net::RetryBudget through it",
                    needle.trim_end_matches('(')
                ),
            );
        }
    }
}

/// Rule `float-eq`: exact float comparison in metrics/stats code.
fn float_eq(lexed: &Lexed, report: &mut impl FnMut(&'static str, usize, String)) {
    for (line, text) in lines(&lexed.code) {
        if lexed.spans.in_test(line) {
            continue;
        }
        for op in ["==", "!="] {
            for (at, _) in text.match_indices(op) {
                // Skip `<=`, `>=`, `!=` seen as `=`-suffix, and pattern arms.
                if op == "==" && at > 0 && matches!(&text[at - 1..at], "<" | ">" | "!" | "=") {
                    continue;
                }
                let left = text[..at].trim_end();
                let right = text[at + op.len()..].trim_start();
                if ends_with_float(left) || starts_with_float(right) {
                    report(
                        "float-eq",
                        line,
                        format!(
                            "exact float comparison (`{op}`) in metrics code; \
                             compare against an epsilon or use integer SimTime"
                        ),
                    );
                }
            }
        }
    }
}

/// Hash-container iteration sites in `code`, as `(1-based line, binding
/// name, how)`. Shared with the effect scanner in [`crate::parse`]: under
/// the call-graph model these are *effects* attributed to their enclosing
/// function and reported only when reachable from a simulation entrypoint
/// (rule `sim-purity`).
pub(crate) fn unordered_iter_sites(code: &str) -> Vec<(usize, String, String)> {
    let symbols = hash_container_symbols(code);
    const ITER_METHODS: [&str; 7] = [
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".drain()",
    ];
    let mut out = Vec::new();
    for (line, text) in lines(code) {
        for m in ITER_METHODS {
            for (at, _) in text.match_indices(m) {
                if let Some(name) = trailing_ident(text[..at].trim_end()) {
                    if symbols.contains(&name) {
                        out.push((line, name, m.to_string()));
                    }
                }
            }
        }
        // `for .. in &map` / `for .. in &mut map` / `for .. in map`
        if let Some(pos) = text.find(" in ") {
            let mut expr = text[pos + 4..].trim_start();
            expr = expr.strip_prefix('&').unwrap_or(expr);
            expr = expr.strip_prefix("mut ").unwrap_or(expr).trim_start();
            let ident: String = expr
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
                .collect();
            if let Some(last) = ident.rsplit('.').next() {
                if !last.is_empty() && symbols.contains(&last.to_string()) {
                    out.push((line, last.to_string(), "for-in".to_string()));
                }
            }
        }
    }
    out
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: type-annotated
/// bindings (`x: HashMap<..>`, fields, params) and `x = HashMap::new()`
/// initializers.
fn hash_container_symbols(code: &str) -> Vec<String> {
    let mut symbols = Vec::new();
    for container in ["HashMap", "HashSet"] {
        // `MyHashMapLike` is no hit.
        for at in needle_hits(code, container) {
            let after = &code[at + container.len()..];
            if !(after.starts_with('<') || after.starts_with("::")) {
                continue;
            }
            let before = code[..at].trim_end();
            // `ident : [& [mut]] HashMap<..>` (declaration or parameter).
            if let Some(name) = annotated_ident(before) {
                symbols.push(name);
            }
            // `ident = HashMap::new()` / `= HashMap::with_capacity(..)`.
            if let Some(stripped) = before.strip_suffix('=') {
                let stripped = stripped.trim_end();
                if let Some(name) = trailing_ident(stripped) {
                    symbols.push(name);
                }
            }
        }
    }
    symbols.sort();
    symbols.dedup();
    symbols
}

/// For text ending just before a `HashMap`, extract `ident` from
/// `ident : [& [mut]]`.
fn annotated_ident(before: &str) -> Option<String> {
    let mut t = before.trim_end();
    if let Some(s) = t.strip_suffix(':') {
        return trailing_ident(s.trim_end());
    }
    if let Some(s) = t.strip_suffix("mut") {
        t = s.trim_end();
    }
    let t = t.strip_suffix('&')?.trim_end();
    let t = t.strip_suffix(':')?;
    trailing_ident(t.trim_end())
}

fn lines(code: &str) -> impl Iterator<Item = (usize, &str)> {
    code.lines().enumerate().map(|(i, l)| (i + 1, l))
}

fn ends_with_float(left: &str) -> bool {
    let token: String = left
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '_' || c.is_alphabetic())
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    is_float_token(&token)
}

fn starts_with_float(right: &str) -> bool {
    let token: String = right
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '_' || c.is_alphabetic())
        .collect();
    is_float_token(&token)
}

/// `1.0`, `0.5f64`, `2.`, `1e-3` — but not `3` or `x.y`.
fn is_float_token(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    if t.is_empty() || !t.chars().next().unwrap().is_ascii_digit() {
        return false;
    }
    t.contains('.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile {
            path: path.to_string(),
            source: src.to_string(),
        };
        let lexed = lex(src);
        let mut out = Vec::new();
        check_file(&file, &lexed, &mut out);
        out
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn unordered_iter_sites_found() {
        let src = "use std::collections::HashMap;\n\
                   struct S { streams: HashMap<u32, u8> }\n\
                   impl S { fn f(&self) { for id in self.streams.keys() { drop(id); } } }\n";
        let sites = unordered_iter_sites(src);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].0, 3);
        assert_eq!(sites[0].1, "streams");
        let for_in = "fn f(m: &HashMap<u32, u8>) { for (k, v) in &m { drop((k, v)); } }\n";
        assert_eq!(unordered_iter_sites(for_in).len(), 1);
        let btree = "fn f(m: &BTreeMap<u32, u8>) { for k in m.keys() { drop(k); } }\n";
        assert!(unordered_iter_sites(btree).is_empty(), "btree is ordered");
    }

    #[test]
    fn ambient_randomness_flagged_everywhere_but_rng() {
        let src = "#![forbid(unsafe_code)]\nfn f() { let x = rand::thread_rng(); }\n";
        let v = check("crates/pages/src/generate.rs", src);
        assert_eq!(rules_of(&v), vec!["ambient-randomness"]);
        assert!(check("crates/sim/src/rng.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_roots_and_blocks() {
        let v = check("crates/html/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(rules_of(&v), vec!["forbid-unsafe"]);
        let v = check(
            "crates/html/src/tokenizer.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert_eq!(rules_of(&v), vec!["forbid-unsafe"]);
        assert!(check("crates/html/src/tokenizer.rs", "fn unsafe_name() {}\n").is_empty());
    }

    #[test]
    fn unwrap_ratchet_scope() {
        let src = "#![forbid(unsafe_code)]\nfn f() { x().unwrap(); }\n";
        assert_eq!(
            rules_of(&check("crates/http2/src/conn.rs", src)),
            vec!["unwrap"]
        );
        assert!(
            check("crates/browser/src/engine.rs", src).is_empty(),
            "not a protocol crate"
        );
        let test_src =
            "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests {\n fn f() { x().unwrap(); }\n}\n";
        assert!(
            check("crates/http2/src/conn.rs", test_src).is_empty(),
            "tests exempt"
        );
    }

    #[test]
    fn float_eq_in_metrics_code() {
        let src = "#![forbid(unsafe_code)]\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(
            rules_of(&check("crates/browser/src/metrics.rs", src)),
            vec!["float-eq"]
        );
        assert!(
            check("crates/browser/src/engine.rs", src).is_empty(),
            "only metrics/stats files"
        );
        let int_src = "#![forbid(unsafe_code)]\nfn f(x: u64) -> bool { x == 0 }\n";
        assert!(check("crates/browser/src/metrics.rs", int_src).is_empty());
        let cmp_src = "#![forbid(unsafe_code)]\nfn f(x: f64) -> bool { x >= 0.0 }\n";
        assert!(check("crates/browser/src/metrics.rs", cmp_src).is_empty());
    }

    #[test]
    fn retry_budget_flags_bare_send_loops() {
        let bare = "#![forbid(unsafe_code)]\n\
                    fn f(c: &mut Conn) {\n\
                    \u{20}   loop { c.send_request(&req, true); }\n\
                    }\n";
        let v = check("crates/server/src/wire.rs", bare);
        assert_eq!(rules_of(&v), vec!["retry-budget"]);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("send_request"));
        assert!(
            check("crates/html/src/x.rs", bare).is_empty(),
            "only protocol/sim crates"
        );
    }

    #[test]
    fn retry_budget_accepts_budgeted_loops_and_tests() {
        let budgeted = "#![forbid(unsafe_code)]\n\
                        fn f(c: &mut Conn, b: &RetryBudget) {\n\
                        \u{20}   while b.allows(n) { c.send_request(&req, true); n += 1; }\n\
                        }\n";
        assert!(check("crates/server/src/wire.rs", budgeted).is_empty());
        let in_test = "#![forbid(unsafe_code)]\n\
                       #[cfg(test)]\nmod tests {\n\
                       \u{20}   fn f(c: &mut Conn) { loop { c.send_data(1, b, true); } }\n\
                       }\n";
        assert!(check("crates/server/src/wire.rs", in_test).is_empty());
    }

    #[test]
    fn retry_budget_flags_while_but_not_a_bounded_for_over_pieces() {
        // A `for` over a finite iterator of body pieces ends with the body;
        // a `while` around `send_data` can spin on a stalled peer.
        let bounded = "#![forbid(unsafe_code)]\n\
                       fn f(c: &mut Conn, r: &Rec) {\n\
                       \u{20}   for piece in r.body_pieces(0, n) { c.send_data(1, piece, false); }\n\
                       }\n";
        assert!(check("crates/server/src/wire.rs", bounded).is_empty());
        let spinning = "#![forbid(unsafe_code)]\n\
                        fn f(c: &mut Conn, r: &Rec) {\n\
                        \u{20}   while at < n { at += c.send_data(1, r.body_from(at), false); }\n\
                        }\n";
        let v = check("crates/server/src/wire.rs", spinning);
        assert_eq!(rules_of(&v), vec!["retry-budget"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn retry_budget_blames_the_innermost_loop() {
        // The outer dispatch loop is fine; only the inner bare send loop
        // must carry the budget — and here it does.
        let nested = "#![forbid(unsafe_code)]\n\
                      fn f(c: &mut Conn) {\n\
                      \u{20}   loop {\n\
                      \u{20}       while n < 3 { c.send_data(1, b, false); wait(backoff(n)); }\n\
                      \u{20}   }\n\
                      }\n";
        assert!(check("crates/net/src/x.rs", nested).is_empty());
        let nested_bare = "#![forbid(unsafe_code)]\n\
                           fn f(c: &mut Conn) {\n\
                           \u{20}   loop {\n\
                           \u{20}       while n < 3 { c.send_data(1, b, false); }\n\
                           \u{20}   }\n\
                           }\n";
        let v = check("crates/net/src/x.rs", nested_bare);
        assert_eq!(rules_of(&v), vec!["retry-budget"]);
        assert_eq!(v[0].line, 4, "inner loop is the violation site");
    }

    #[test]
    fn sort_partial_cmp_flags_comparators_even_multiline_and_in_tests() {
        let one_line = "#![forbid(unsafe_code)]\n\
                        fn f(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let v = check("crates/browser/src/engine.rs", one_line);
        assert_eq!(rules_of(&v), vec!["sort-partial-cmp"]);
        assert_eq!(v[0].line, 2);

        // Multi-line closure: the span is paren-matched, not line-scanned.
        let multi = "#![forbid(unsafe_code)]\n\
                     fn f(xs: &mut Vec<R>) {\n\
                     \u{20}   xs.sort_by(|a, b| {\n\
                     \u{20}       a.frac\n\
                     \u{20}           .partial_cmp(&b.frac)\n\
                     \u{20}           .unwrap()\n\
                     \u{20}   });\n\
                     }\n";
        let v = check("crates/browser/src/engine.rs", multi);
        assert_eq!(rules_of(&v), vec!["sort-partial-cmp"]);
        assert_eq!(v[0].line, 5, "blamed on the partial_cmp line");

        // Test code is NOT exempt: a NaN flake in a test is still a flake.
        let in_test = "#![forbid(unsafe_code)]\n\
                       #[cfg(test)]\nmod tests {\n\
                       \u{20}   fn f(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
                       }\n";
        assert_eq!(
            rules_of(&check("crates/browser/src/engine.rs", in_test)),
            vec!["sort-partial-cmp"]
        );
    }

    #[test]
    fn sort_partial_cmp_ignores_total_orders_and_unrelated_calls() {
        let total = "#![forbid(unsafe_code)]\n\
                     fn f(xs: &mut Vec<f64>) { xs.sort_by(f64::total_cmp); }\n";
        assert!(check("crates/browser/src/engine.rs", total).is_empty());
        let keyed = "#![forbid(unsafe_code)]\n\
                     fn f(xs: &mut Vec<(u64, f64)>) { xs.sort_by_key(|x| x.0); }\n";
        assert!(check("crates/browser/src/engine.rs", keyed).is_empty());
        // partial_cmp outside a comparator argument (e.g. a PartialOrd
        // impl) is not this rule's business.
        let imp = "#![forbid(unsafe_code)]\n\
                   impl PartialOrd for T {\n\
                   \u{20}   fn partial_cmp(&self, o: &T) -> Option<Ordering> { self.k.partial_cmp(&o.k) }\n\
                   }\n";
        assert!(check("crates/sim/src/queue.rs", imp).is_empty());
    }

    #[test]
    fn unknown_waiver_rule_is_reported() {
        let v = check(
            "crates/net/src/link.rs",
            "#![forbid(unsafe_code)]\nfn f() {} // vroom-lint: allow(no-such-rule) -- because\n",
        );
        assert_eq!(rules_of(&v), vec!["waiver-syntax"]);
    }
}
