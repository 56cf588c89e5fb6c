//! A small Rust lexer pass: blank out comments and string literals so rule
//! patterns fire on code only, and collect `vroom-lint: allow(...)` waiver
//! comments along the way.
//!
//! The output preserves byte positions — every stripped character becomes a
//! space (newlines are kept) — so line numbers computed against the stripped
//! text match the original source exactly. Lexing also finds the file's
//! spans (`Spans`: line starts, `#[cfg(test)]` lines, loop bodies) once,
//! with the one bracket matcher and header-to-body finder every scanner
//! shares.

/// One waiver comment: `// vroom-lint: allow(rule-a, rule-b) -- reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rules it waives.
    pub rules: Vec<String>,
    /// The justification after `--` (required).
    pub reason: String,
    /// Whether the comment is alone on its line (then it waives the *next*
    /// line as well as its own).
    pub own_line: bool,
}

/// A malformed waiver comment (reported as a violation by the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverError {
    /// 1-based line of the malformed comment.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Result of lexing one file.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// The source with comment and literal contents blanked to spaces.
    pub code: String,
    /// Parsed waiver comments.
    pub waivers: Vec<Waiver>,
    /// Malformed waiver comments.
    pub waiver_errors: Vec<WaiverError>,
    /// Spans of `code`, computed once.
    pub(crate) spans: Spans,
}

impl Lexed {
    /// Whether `rule` is waived on `line` (1-based): either a same-line
    /// waiver, or an own-line waiver on the line above.
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        self.waivers.iter().any(|w| {
            w.rules.iter().any(|r| r == rule)
                && (w.line == line || (w.own_line && w.line + 1 == line))
        })
    }
}

/// Strip comments and literals from Rust source, collecting waivers.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut waivers = Vec::new();
    let mut waiver_errors = Vec::new();
    let mut line = 1usize;
    let mut line_start = true; // only whitespace seen so far on this line
    let mut i = 0;

    macro_rules! keep {
        ($b:expr) => {{
            code.push($b);
            if $b == b'\n' {
                line += 1;
                line_start = true;
            } else if !($b as char).is_ascii_whitespace() {
                line_start = false;
            }
        }};
    }
    macro_rules! blank {
        ($b:expr) => {{
            if $b == b'\n' {
                code.push(b'\n');
                line += 1;
                line_start = true;
            } else {
                code.push(b' ');
            }
        }};
    }

    // Shebang line (`#!/usr/bin/env ...`): not Rust tokens at all — blank it
    // before the scan so an apostrophe or quote in the interpreter path
    // cannot open a bogus literal. `#![...]` inner attributes are real code
    // and are left alone.
    if bytes.starts_with(b"#!") && bytes.get(2) != Some(&b'[') {
        while i < bytes.len() && bytes[i] != b'\n' {
            blank!(bytes[i]);
            i += 1;
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let own_line = line_start;
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            let text = &source[start..i];
            // Waivers live in plain `//` comments only: doc comments
            // (`///`, `//!`) describe code — including, in this crate, the
            // waiver syntax itself — and must not activate it.
            let is_doc = text.starts_with("///") || text.starts_with("//!");
            if !is_doc {
                parse_waiver(text, line, own_line, &mut waivers, &mut waiver_errors);
            }
            for _ in start..i {
                code.push(b' ');
            }
            continue;
        }
        // Block comment (nested).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            blank!(bytes[i]);
            blank!(bytes[i + 1]);
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string literal: r"..." / r#"..."# / br##"..."##.
        if b == b'r' || b == b'b' {
            if let Some((hashes, open)) = raw_string_open(&bytes[i..]) {
                // Keep the introducer, blank the contents.
                for _ in 0..open {
                    keep!(bytes[i]);
                    i += 1;
                }
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat(b'#').take(hashes))
                    .collect();
                while i < bytes.len() && !bytes[i..].starts_with(&closer) {
                    blank!(bytes[i]);
                    i += 1;
                }
                for _ in 0..closer.len().min(bytes.len() - i) {
                    keep!(bytes[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Plain (byte) string literal.
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
            if b == b'b' {
                keep!(b);
                i += 1;
            }
            keep!(bytes[i]); // opening quote
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'"' {
                    keep!(bytes[i]);
                    i += 1;
                    break;
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: treat as a literal when it closes with
        // a quote right after one (possibly escaped) character.
        if b == b'\'' {
            let is_escape = bytes.get(i + 1) == Some(&b'\\');
            let closes = if is_escape {
                true
            } else {
                // 'x' (any byte then quote); multibyte chars also land here
                // via the byte scan below.
                matches!(bytes.get(i + 2), Some(&b'\''))
                    || (bytes.get(i + 1).is_some_and(|c| *c >= 0x80)
                        && char_literal_len(&bytes[i + 1..]).is_some())
            };
            if closes {
                keep!(b);
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' {
                    if bytes[i] == b'\\' {
                        blank!(bytes[i]);
                        i += 1;
                    }
                    if i < bytes.len() {
                        blank!(bytes[i]);
                        i += 1;
                    }
                }
                if i < bytes.len() {
                    keep!(bytes[i]); // closing quote
                    i += 1;
                }
                continue;
            }
        }
        keep!(b);
        i += 1;
    }

    let code = String::from_utf8_lossy(&code).into_owned();
    Lexed {
        spans: Spans::of(&code),
        code,
        waivers,
        waiver_errors,
    }
}

/// `r`/`br` raw-string opener: returns (hash count, total introducer length
/// including the quote) if `bytes` starts one.
fn raw_string_open(bytes: &[u8]) -> Option<(usize, usize)> {
    let mut j = 0;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((hashes, j + 1))
    } else {
        None
    }
}

/// Length in bytes of a UTF-8 char literal body ending in `'`, if any.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    let first = *bytes.first()?;
    let len = match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    (bytes.get(len) == Some(&b'\'')).then_some(len)
}

const WAIVER_TAG: &str = "vroom-lint:";

fn parse_waiver(
    comment: &str,
    line: usize,
    own_line: bool,
    waivers: &mut Vec<Waiver>,
    errors: &mut Vec<WaiverError>,
) {
    let Some(tag_at) = comment.find(WAIVER_TAG) else {
        return;
    };
    let rest = comment[tag_at + WAIVER_TAG.len()..].trim();
    let mut fail = |message: String| {
        errors.push(WaiverError { line, message });
    };
    let Some(args) = rest.strip_prefix("allow(") else {
        fail(format!(
            "malformed waiver; expected `// vroom-lint: allow(<rule>) -- <reason>`, got {rest:?}"
        ));
        return;
    };
    let Some(close) = args.find(')') else {
        fail("waiver is missing the closing `)`".to_string());
        return;
    };
    let rules: Vec<String> = args[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        fail("waiver allows no rules".to_string());
        return;
    }
    let tail = args[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        fail("waiver is missing a `-- <reason>` justification".to_string());
        return;
    };
    let reason = reason.trim().to_string();
    if reason.is_empty() {
        fail("waiver has an empty justification".to_string());
        return;
    }
    waivers.push(Waiver {
        line,
        rules,
        reason,
        own_line,
    });
}

// ---------------------------------------------------------------------------
// Spans: how a span is found, decided once for every scanner.
//
// Three primitives locate every span the rules read: `close_of` matches a
// bracket, `header_end` finds where a header (a fn signature, a loop or
// `match` head, an attributed item) gives way to its body, and `group_end`
// finds where a statement or expression ends. On top of them, `Spans::of`
// computes each file's line map, `#[cfg(test)]` lines and loop bodies once,
// as part of lexing; the per-file rules, the effect scanner and the lock
// scanner all read that one copy. Everything here works on lexed code, so
// brackets in strings and comments never count.
// ---------------------------------------------------------------------------

/// Byte → line mapping.
#[derive(Debug, Clone)]
pub(crate) struct LineMap {
    /// Byte offset of the start of each line.
    pub starts: Vec<usize>,
}

impl LineMap {
    pub fn new(code: &str) -> LineMap {
        let breaks = code.match_indices('\n').map(|(i, _)| i + 1);
        LineMap {
            starts: std::iter::once(0).chain(breaks).collect(),
        }
    }

    /// 1-based line containing byte offset `pos`.
    pub fn line(&self, pos: usize) -> usize {
        self.starts.partition_point(|&s| s <= pos)
    }
}

/// Offset of the bracket closing the `(`, `[` or `{` at `open`, counting
/// only brackets of that kind; `None` if it never closes.
pub(crate) fn close_of(code: &str, open: usize) -> Option<usize> {
    let (o, c) = match code.as_bytes()[open] {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        _ => (b'{', b'}'),
    };
    let mut depth = 0usize;
    for (i, b) in code[open..].bytes().enumerate() {
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return Some(open + i);
            }
        }
    }
    None
}

/// One past the `}` closing the `{` at `open` (`code.len()` if unbalanced).
pub(crate) fn brace_span(code: &str, open: usize) -> usize {
    close_of(code, open).map_or(code.len(), |c| c + 1)
}

/// Where the header starting at `from` ends: the first `{` (its body) or
/// byte of `stops` at zero paren/bracket depth, so return types, `where`
/// clauses, conditions and array types are skipped. `None` if neither
/// appears.
pub(crate) fn header_end(code: &str, from: usize, stops: &[u8]) -> Option<usize> {
    let mut depth = 0i32;
    for (i, b) in code[from..].bytes().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => return Some(from + i),
            b if depth == 0 && stops.contains(&b) => return Some(from + i),
            _ => {}
        }
    }
    None
}

/// Where the expression at `pos` ends: the first byte of `stops` at zero
/// depth (a statement's `;`, a match arm's `,`), or the bracket closing the
/// group `pos` sits in (`code.len()` if neither).
pub(crate) fn group_end(code: &str, pos: usize, stops: &[u8]) -> usize {
    let mut depth = 0i32;
    for (i, b) in code[pos..].bytes().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth < 0 {
                    return pos + i;
                }
            }
            b if depth == 0 && stops.contains(&b) => return pos + i,
            _ => {}
        }
    }
    code.len()
}

/// The `{` opening the body of the header at `from`, unless a `;` ends the
/// header first.
pub(crate) fn body_open(code: &str, from: usize) -> Option<usize> {
    header_end(code, from, b";").filter(|&at| code.as_bytes()[at] == b'{')
}

/// One syntactic loop: `loop { .. }`, `while cond { .. }` or
/// `for pat in expr { .. }`.
#[derive(Debug, Clone)]
pub(crate) struct LoopSpan {
    /// Offset of the keyword.
    pub kw: usize,
    /// The loop is a `for` (bounded by its iterator).
    pub is_for: bool,
    /// Body span: the `{` .. one past its `}`.
    pub body: (usize, usize),
}

/// The per-file facts every scanner reads, computed once per file.
#[derive(Debug, Clone)]
pub(crate) struct Spans {
    pub lines: LineMap,
    /// Per 0-based line: inside an item annotated `#[cfg(test)]`.
    pub test_lines: Vec<bool>,
    /// Every loop, sorted by body span; one entry per body.
    pub loops: Vec<LoopSpan>,
}

impl Spans {
    pub fn of(code: &str) -> Spans {
        let lines = LineMap::new(code);
        Spans {
            test_lines: test_lines(code, &lines),
            loops: loop_spans(code),
            lines,
        }
    }

    /// Whether 1-based `line` is test code.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Loop bodies enclosing byte `pos` — the loop-depth ranking weight.
    /// Closures passed to iterator adapters are not loops: the weight is a
    /// syntactic under-approximation (DESIGN.md §2f), and a depth-0 site is
    /// still reported, just ranked lower.
    pub fn loop_depth(&self, pos: usize) -> usize {
        self.loops
            .iter()
            .filter(|l| l.body.0 < pos && pos < l.body.1)
            .count()
    }
}

/// Map each 0-based line to whether it falls inside an item annotated
/// `#[cfg(test)]`. The region runs from the attribute to the item's end:
/// the close of its block, or its `;` or `,` at zero depth (a `use`, a
/// field, a statement), or the `}` closing the enclosing block.
fn test_lines(code: &str, lines: &LineMap) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let mut in_test = vec![false; code.lines().count()];
    let mut from = 0;
    while let Some(rel) = code[from..].find(ATTR) {
        let attr_at = from + rel;
        let item = attr_at + ATTR.len();
        let end = match header_end(code, item, b";,}") {
            Some(at) if code.as_bytes()[at] == b'{' => close_of(code, at).unwrap_or(code.len()),
            Some(at) => at,
            None => code.len(),
        };
        let (first, last) = (lines.line(attr_at), lines.line(end));
        for flag in in_test.iter_mut().take(last).skip(first - 1) {
            *flag = true;
        }
        from = end.max(item);
    }
    in_test
}

/// Every loop body in `code`. A `for` header must contain `in` at zero
/// depth: `impl Trait for Type {` and `for<'a>` bounds are not loops.
fn loop_spans(code: &str) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    for kw in ["loop", "while", "for"] {
        for at in find_word(code, kw) {
            let head = at + kw.len();
            let Some(open) = body_open(code, head) else {
                continue;
            };
            let is_for = kw == "for";
            if is_for && find_word(&code[head..open], "in").is_empty() {
                continue;
            }
            out.push(LoopSpan {
                kw: at,
                is_for,
                body: (open, brace_span(code, open)),
            });
        }
    }
    out.sort_by_key(|l| l.body);
    out.dedup_by_key(|l| l.body);
    out
}

/// All positions where `word` occurs with non-identifier characters (or
/// boundaries) on both sides.
pub(crate) fn find_word(text: &str, word: &str) -> Vec<usize> {
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(|&at| {
            !text[..at].ends_with(is_ident_char)
                && !text[at + word.len()..].starts_with(is_ident_char)
        })
        .collect()
}

/// Offsets of `needle` in `code`, with an identifier boundary on the left
/// unless the needle itself starts mid-token (`.unwrap()`):
/// `MyInstant::now` is no hit for `Instant::now`.
pub(crate) fn needle_hits<'c>(code: &'c str, needle: &'c str) -> impl Iterator<Item = usize> + 'c {
    let bounded = needle.starts_with(|c: char| c.is_alphanumeric());
    code.match_indices(needle)
        .map(|(at, _)| at)
        .filter(move |&at| !(bounded && code[..at].ends_with(is_ident_char)))
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier characters at the end of `before` (`None` if there are
/// none). A tuple index such as `0` counts.
pub(crate) fn trailing_word(before: &str) -> Option<String> {
    let start = before
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(i, _)| i)?;
    Some(before[start..].to_string())
}

/// [`trailing_word`], unless it starts with a digit.
pub(crate) fn trailing_ident(before: &str) -> Option<String> {
    trailing_word(before).filter(|w| !w.starts_with(|c: char| c.is_numeric()))
}

/// The identifier at the start of `text` (after whitespace), unless it
/// starts with a digit.
pub(crate) fn first_ident(text: &str) -> Option<String> {
    let t = text.trim_start();
    let end = t.find(|c| !is_ident_char(c)).unwrap_or(t.len());
    let ident = &t[..end];
    (!ident.is_empty() && !ident.starts_with(|c: char| c.is_numeric())).then(|| ident.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        lex(src).code
    }

    #[test]
    fn strips_line_comments() {
        let out = code_of("let a = 1; // Instant::now here\nlet b = 2;\n");
        assert!(!out.contains("Instant::now"));
        assert!(out.contains("let a = 1;"));
        assert!(out.contains("let b = 2;"));
        assert_eq!(out.lines().count(), 2, "line structure preserved");
    }

    #[test]
    fn strips_nested_block_comments() {
        let src = "a /* outer /* inner Instant::now */ still comment */ b\n";
        let out = code_of(src);
        assert!(!out.contains("Instant::now"));
        assert!(!out.contains("still comment"));
        assert!(out.starts_with('a'));
        assert!(out.trim_end().ends_with('b'));
        assert_eq!(out.len(), src.len());
    }

    #[test]
    fn block_comment_spanning_lines_keeps_line_numbers() {
        let src = "one /* c\nc2\nc3 */ two\nthree";
        let out = code_of(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(out.lines().nth(2).unwrap().contains("two"));
        assert!(out.lines().nth(3).unwrap().contains("three"));
    }

    #[test]
    fn strips_string_literals_but_keeps_quotes() {
        let out = code_of(r#"let s = "Instant::now // not a comment"; x()"#);
        assert!(!out.contains("Instant::now"));
        assert!(!out.contains("not a comment"));
        assert!(out.contains("let s = \""));
        assert!(out.contains("x()"), "code after the literal survives");
    }

    #[test]
    fn string_embedded_slashes_do_not_open_comments() {
        let out = code_of("let url = \"https://example.com\"; let live = 1;");
        assert!(out.contains("let live = 1;"));
        assert!(!out.contains("example.com"));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        let out = code_of(r#"let s = "say \"HashMap\" now"; keys()"#);
        assert!(!out.contains("HashMap"));
        assert!(out.contains("keys()"));
    }

    #[test]
    fn strips_raw_strings() {
        let out = code_of(r##"let s = r#"Instant::now "quoted" //x"#; f()"##);
        assert!(!out.contains("Instant::now"));
        assert!(!out.contains("quoted"));
        assert!(out.contains("f()"));
    }

    #[test]
    fn raw_string_with_more_hashes() {
        let out = code_of("let s = r##\"body with \"# inside\"##; g()");
        assert!(!out.contains("body"));
        assert!(!out.contains("inside"));
        assert!(out.contains("g()"));
    }

    #[test]
    fn byte_strings_are_literals_too() {
        let out = code_of(r#"let b = b"SystemTime"; let r = br"thread_rng";"#);
        assert!(!out.contains("SystemTime"));
        assert!(!out.contains("thread_rng"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let out = code_of("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\n'; g(x) }");
        assert!(out.contains("fn f<'a>(x: &'a str)"), "lifetimes untouched");
        assert!(
            out.contains("g(x)"),
            "a quote char literal must not eat code"
        );
        assert!(!out.contains("\\n"));
    }

    #[test]
    fn shebang_line_is_blanked() {
        // The interpreter path is not Rust: an apostrophe or quote in it
        // must not open a char/string literal that swallows the real code.
        let src = "#!/usr/bin/env -S cargo 'x\nfn main() { Instant::now(); }\n";
        let out = code_of(src);
        assert!(!out.contains("/usr/bin/env"));
        assert!(out.contains("Instant::now()"), "code after shebang is live");
        assert_eq!(out.lines().count(), 2, "line structure preserved");
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}\n";
        let out = code_of(src);
        assert!(
            out.contains("#![forbid(unsafe_code)]"),
            "`#![...]` is real code, not a shebang"
        );
    }

    #[test]
    fn shebang_only_counts_at_file_start() {
        let src = "fn f() {}\n// #!/usr/bin/env not a shebang\nlet g = 1;\n";
        let out = code_of(src);
        assert!(out.contains("fn f() {}"));
        assert!(out.contains("let g = 1;"));
    }

    #[test]
    fn raw_byte_string_with_hashes() {
        let out = code_of("let b = br##\"thread_rng \"# deep\"##; h()");
        assert!(!out.contains("thread_rng"));
        assert!(!out.contains("deep"));
        assert!(out.contains("h()"));
    }

    #[test]
    fn unbalanced_nested_comment_does_not_panic() {
        // An unterminated inner comment runs to EOF; the lexer must not
        // index past the buffer.
        let out = code_of("a /* outer /* inner\nno close");
        assert!(out.starts_with('a'));
        assert!(!out.contains("inner"));
        assert!(!out.contains("no close"));
    }

    #[test]
    fn lifetime_in_turbofish_is_not_a_char() {
        let out = code_of("fn f() { g::<'static, u8>(1); let c = 'q'; live() }");
        assert!(out.contains("g::<'static, u8>(1)"), "lifetime kept as code");
        assert!(out.contains("live()"), "char literal closed correctly");
        assert!(!out.contains('q'), "char contents blanked");
    }

    #[test]
    fn waiver_parsing_happy_path() {
        let lexed = lex("foo(); // vroom-lint: allow(wall-clock) -- real wire needs it\n");
        assert_eq!(lexed.waivers.len(), 1);
        let w = &lexed.waivers[0];
        assert_eq!(w.line, 1);
        assert_eq!(w.rules, vec!["wall-clock".to_string()]);
        assert_eq!(w.reason, "real wire needs it");
        assert!(!w.own_line);
        assert!(lexed.is_waived("wall-clock", 1));
        assert!(
            !lexed.is_waived("wall-clock", 2),
            "inline waiver is same-line only"
        );
        assert!(!lexed.is_waived("unordered-iter", 1));
    }

    #[test]
    fn own_line_waiver_covers_next_line() {
        let lexed = lex("// vroom-lint: allow(unwrap, float-eq) -- test helper\nfoo();\nbar();\n");
        assert_eq!(lexed.waivers.len(), 1);
        assert!(lexed.waivers[0].own_line);
        assert_eq!(lexed.waivers[0].rules.len(), 2);
        assert!(lexed.is_waived("unwrap", 2));
        assert!(lexed.is_waived("float-eq", 2));
        assert!(!lexed.is_waived("unwrap", 3));
    }

    #[test]
    fn malformed_waivers_are_reported() {
        for bad in [
            "// vroom-lint: allow(wall-clock)",       // missing reason
            "// vroom-lint: allow(wall-clock) -- ",   // empty reason
            "// vroom-lint: allow() -- why",          // no rules
            "// vroom-lint: deny(wall-clock) -- why", // not allow
            "// vroom-lint: allow(wall-clock -- why", // unclosed paren
        ] {
            let lexed = lex(bad);
            assert!(lexed.waivers.is_empty(), "{bad}");
            assert_eq!(lexed.waiver_errors.len(), 1, "{bad}");
        }
    }

    #[test]
    fn waiver_inside_string_is_ignored() {
        let lexed = lex(r#"let s = "// vroom-lint: allow(unwrap) -- nope";"#);
        assert!(lexed.waivers.is_empty());
        assert!(lexed.waiver_errors.is_empty());
    }

    #[test]
    fn waiver_in_doc_comment_is_inert() {
        // Doc comments describe the syntax; they neither grant a waiver nor
        // trip the malformed-waiver check.
        for doc in [
            "//! Write `// vroom-lint: allow(wall-clock)` to waive.\nfn f() {}",
            "/// Use vroom-lint: allow(unwrap) here.\nfn f() {}",
        ] {
            let lexed = lex(doc);
            assert!(lexed.waivers.is_empty(), "{doc}");
            assert!(lexed.waiver_errors.is_empty(), "{doc}");
        }
    }
}
