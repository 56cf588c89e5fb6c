//! Lightweight Rust item/expression parser on top of [`crate::lexer`].
//!
//! Produces one [`FileSummary`] per source file: the functions it defines
//! (with their call sites and effect sites), the enums it declares, and the
//! `match` expressions that scrutinize enum variants. Every run builds each
//! file's summary from source; summaries are the input to the workspace
//! call graph ([`crate::callgraph`]) and the reachability rules
//! ([`crate::reach`]).
//!
//! The parser is deliberately conservative: it never needs to be *right*
//! about Rust's grammar, only to over-approximate. Missing an impl header
//! widens method resolution (more candidate callees); attributing a nested
//! fn's body to both the nested fn and its parent adds edges, never removes
//! them. The one direction it must not err in is dropping calls or effects,
//! and the scanners below are all simple substring/byte scans over lexed
//! code (comments and literals blanked) for exactly that reason.

use crate::lexer::{
    self, body_open, brace_span, close_of, find_word, first_ident, group_end, header_end,
    needle_hits, trailing_word, LineMap, Spans,
};
use crate::rules::{self, Violation};
use crate::source::SourceFile;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(..)` — bare path, resolved by name (same crate preferred).
    Free,
    /// `recv.method(..)` — resolved by name + arity over all methods.
    Method,
    /// `Type::assoc(..)` / `module::helper(..)` — resolved through the
    /// qualifying path segment.
    Qualified,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment).
    pub name: String,
    /// Qualifying segment for [`CallKind::Qualified`] (`Type` in
    /// `Type::assoc`, `module` in `module::helper`, or `Self`).
    pub qualifier: Option<String>,
    pub kind: CallKind,
    /// Number of argument expressions (excluding any receiver).
    pub args: usize,
    /// 1-based line of the call.
    pub line: usize,
    /// For [`CallKind::Method`]: the trailing identifier of the receiver
    /// expression (`map` in `self.map.get(..)`), or `None` when the
    /// receiver is a compound expression (`f(x).get(..)`). The lock-safety
    /// pass uses it to tell calls *on a guard* (which deref to the guarded
    /// std container) from calls that could re-enter workspace code.
    pub recv: Option<String>,
}

/// What an allocation/copy effect site does — the sub-lattice of
/// [`EffectKind::Alloc`] the `hot-path-alloc` rule reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// `.clone()` — may be a deep copy or an `Arc` refcount bump; the rule
    /// over-approximates and waivers audit the cheap ones.
    Clone,
    /// `.to_vec()`.
    ToVec,
    /// `.to_owned()`.
    ToOwned,
    /// `.to_string()`.
    ToString,
    /// `String::from(..)`.
    StringFrom,
    /// `format!(..)`.
    Format,
    /// Slice `.concat()`.
    Concat,
    /// Slice/iterator `.join(..)`.
    Join,
    /// `copy_from_slice(..)` — the workspace's canonical byte-copy.
    CopyFromSlice,
    /// `Vec::new()` inside a loop body (loop-gated: a one-time `Vec::new`
    /// is free).
    VecNew,
    /// `with_capacity(..)` inside a loop body (loop-gated).
    WithCapacity,
}

impl AllocKind {
    /// Short token used in diagnostics ("alloc (clone)", ...).
    pub fn label(self) -> &'static str {
        match self {
            AllocKind::Clone => "clone",
            AllocKind::ToVec => "to_vec",
            AllocKind::ToOwned => "to_owned",
            AllocKind::ToString => "to_string",
            AllocKind::StringFrom => "String::from",
            AllocKind::Format => "format!",
            AllocKind::Concat => "concat",
            AllocKind::Join => "join",
            AllocKind::CopyFromSlice => "copy_from_slice",
            AllocKind::VecNew => "Vec::new in loop",
            AllocKind::WithCapacity => "with_capacity in loop",
        }
    }
}

/// What a blocking primitive does — the sub-lattice of
/// [`EffectKind::Blocking`] the `blocking-under-lock` rule reports on.
/// I/O and thread-spawn effects double as blocking effects but keep their
/// own kinds (their primary rule is `sim-purity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// `thread::sleep(..)`.
    Sleep,
    /// Channel `.recv()` / `.recv_timeout(..)`.
    ChannelRecv,
    /// Channel `.send(..)` — blocks on bounded (sync) channels; the rule
    /// over-approximates the unbounded case.
    ChannelSend,
    /// Zero-arg `.join()` — a thread-handle join. The arg-taking slice
    /// `.join(sep)` stays an [`AllocKind::Join`].
    ThreadJoin,
}

impl BlockKind {
    /// Short token used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            BlockKind::Sleep => "thread::sleep",
            BlockKind::ChannelRecv => "channel recv",
            BlockKind::ChannelSend => "channel send",
            BlockKind::ThreadJoin => "thread join",
        }
    }
}

/// Effect families tracked for the reachability rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    WallClock,
    Randomness,
    Fs,
    Net,
    UnorderedIter,
    ThreadSpawn,
    Panic,
    /// Heap allocation / byte copy (the `hot-path-alloc` rule).
    Alloc(AllocKind),
    /// Blocking primitive (the `blocking-under-lock` rule).
    Blocking(BlockKind),
}

impl EffectKind {
    /// The rule id a waiver references for this effect.
    pub fn rule(self) -> &'static str {
        match self {
            EffectKind::Panic => "panic-reachable",
            EffectKind::Alloc(_) => "hot-path-alloc",
            EffectKind::Blocking(_) => "blocking-under-lock",
            _ => "sim-purity",
        }
    }

    /// Human name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            EffectKind::WallClock => "wall-clock read",
            EffectKind::Randomness => "ambient randomness",
            EffectKind::Fs => "filesystem access",
            EffectKind::Net => "network access",
            EffectKind::UnorderedIter => "unordered iteration",
            EffectKind::ThreadSpawn => "thread spawn",
            EffectKind::Panic => "panic site",
            EffectKind::Alloc(AllocKind::Clone) => "alloc clone",
            EffectKind::Alloc(AllocKind::ToVec) => "alloc to_vec",
            EffectKind::Alloc(AllocKind::ToOwned) => "alloc to_owned",
            EffectKind::Alloc(AllocKind::ToString) => "alloc to_string",
            EffectKind::Alloc(AllocKind::StringFrom) => "alloc string-from",
            EffectKind::Alloc(AllocKind::Format) => "alloc format",
            EffectKind::Alloc(AllocKind::Concat) => "alloc concat",
            EffectKind::Alloc(AllocKind::Join) => "alloc join",
            EffectKind::Alloc(AllocKind::CopyFromSlice) => "alloc copy-from-slice",
            EffectKind::Alloc(AllocKind::VecNew) => "alloc vec-new",
            EffectKind::Alloc(AllocKind::WithCapacity) => "alloc with-capacity",
            EffectKind::Blocking(BlockKind::Sleep) => "blocking sleep",
            EffectKind::Blocking(BlockKind::ChannelRecv) => "blocking channel-recv",
            EffectKind::Blocking(BlockKind::ChannelSend) => "blocking channel-send",
            EffectKind::Blocking(BlockKind::ThreadJoin) => "blocking thread-join",
        }
    }

    /// Whether this effect can block the calling thread — the effect set
    /// `blocking-under-lock` reports when it is reachable with a guard live.
    /// I/O and thread spawns block as well as violating sim-purity.
    pub fn is_blocking(self) -> bool {
        matches!(
            self,
            EffectKind::Fs | EffectKind::Net | EffectKind::ThreadSpawn | EffectKind::Blocking(_)
        )
    }
}

/// One effect occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct EffectSite {
    pub kind: EffectKind,
    /// 1-based line of the effect.
    pub line: usize,
    /// What triggered it (`Instant::now`, `.unwrap()`, `buf[`, ...).
    pub detail: String,
    /// Original (unlexed) source line, trimmed — becomes the diagnostic
    /// snippet.
    pub snippet: String,
    /// A per-call-site waiver covers this line for the effect's rule.
    pub waived: bool,
    /// A waiver covers this line for `blocking-under-lock` specifically
    /// (an I/O effect's primary rule is `sim-purity`, but the same site can
    /// be reported by either family).
    pub waived_blocking: bool,
    /// Number of syntactic `loop`/`while`/`for` bodies enclosing the site —
    /// the `hot-path-alloc` ranking weight (an alloc at depth 1 runs per
    /// iteration; depth 0 runs once per call).
    pub loop_depth: usize,
}

/// Which lock-acquisition method a site calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// `Mutex::lock`.
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl LockOp {
    pub fn label(self) -> &'static str {
        match self {
            LockOp::Lock => "lock",
            LockOp::Read => "read",
            LockOp::Write => "write",
        }
    }
}

/// One lock acquisition inside a function body, with the lexical extent of
/// the guard it produces.
///
/// Spans are line-granular and deliberately **may-hold**: a guard bound
/// with `let` extends to the end of its enclosing block (or to the first
/// textual `drop(binding)`), a chained temporary dies at its statement end
/// (extended through the construct body when the statement is a
/// `for`/`while`/`if`/`match` header, matching Rust's scrutinee temporary
/// lifetimes), and a guard that is returned (`escapes`) is treated as live
/// to the end of every *caller* as well. Over-approximating the span adds
/// findings, never hides them; waivers audit the survivors.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub op: LockOp,
    /// The lock's symbol within its file — the receiver's meaningful
    /// trailing identifier (`map` in `shard.map.read()`). The reach pass
    /// qualifies it with the file path to form the workspace identity;
    /// same-named locks in one file share an identity (over-approximation).
    pub id: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Original (unlexed) source line, trimmed — becomes the diagnostic
    /// snippet.
    pub snippet: String,
    /// Syntactic loop bodies enclosing the acquisition — the
    /// `lock-in-hot-loop` ranking weight.
    pub loop_depth: usize,
    /// 1-based inclusive line range the guard is live, within this fn.
    pub span: (usize, usize),
    /// `Some(name)` when the guard is `let`-bound.
    pub binding: Option<String>,
    /// The guard is returned to the caller (tail expression or `return`).
    pub escapes: bool,
    /// The guard is an unnamed statement temporary (`m.lock().get(..)`):
    /// method calls chained on it deref to the guarded data, so the reach
    /// pass does not resolve them against workspace methods.
    pub stmt_temp: bool,
    /// Per-rule waivers covering the acquisition line.
    pub waived_order: bool,
    pub waived_blocking: bool,
    pub waived_hot: bool,
}

/// One function (free fn, inherent/trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// `Some(TypeName)` for fns inside an `impl Type` / `impl Trait for
    /// Type` / `trait Name` block.
    pub self_type: Option<String>,
    /// Takes a `self` receiver (method-call resolution candidate).
    pub has_self: bool,
    /// Declared `pub` in any form (`pub`, `pub(crate)`, `pub(in path)`).
    pub is_pub: bool,
    /// Sits in an inherent `impl Type` block, not a trait impl or a trait:
    /// unless it is `pub`, only its own crate can call it.
    pub inherent: bool,
    /// Parameter count, excluding `self`.
    pub arity: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inside a `#[cfg(test)]` region or a test file — excluded from the
    /// call graph entirely.
    pub is_test: bool,
    /// 1-based line of the body's closing brace (== `line` for bodyless
    /// trait-method declarations). Escaped guards are live to here.
    pub end_line: usize,
    pub calls: Vec<CallSite>,
    pub effects: Vec<EffectSite>,
    pub locks: Vec<LockSite>,
}

/// One enum declaration (workspace-wide variant table for
/// protocol-exhaustiveness).
#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    pub variants: Vec<String>,
}

/// One `match` whose patterns reference enum variants (`E::V`).
#[derive(Debug, Clone)]
pub struct MatchSite {
    /// The enum the match scrutinizes (majority of variant refs).
    pub enum_name: String,
    /// Variant names covered by explicit patterns, sorted + deduped.
    pub covered: Vec<String>,
    /// Has a `_` or bare-binding catch-all arm.
    pub catch_all: bool,
    /// 1-based line of the `match` keyword.
    pub line: usize,
    pub snippet: String,
    /// Waived via `allow(protocol-exhaustive)` on the match line.
    pub waived: bool,
}

/// Everything the workspace analysis needs to know about one file.
#[derive(Debug, Clone)]
pub struct FileSummary {
    pub path: String,
    pub is_test: bool,
    pub fns: Vec<FnItem>,
    pub enums: Vec<EnumDef>,
    pub matches: Vec<MatchSite>,
    /// `use path::Real as Alias;` renames, as (alias, real) pairs — lets
    /// the call graph resolve `Alias::assoc(..)` through the real type.
    pub aliases: Vec<(String, String)>,
    /// Per-file rule violations ([`rules::check_file`]).
    pub local: Vec<Violation>,
}

/// Parse one file into its summary. This is the only entry point; it runs
/// the lexer, the per-file rules, and the item/expression scans.
pub fn summarize(file: &SourceFile) -> FileSummary {
    let lexed = lexer::lex(&file.source);
    let mut local = Vec::new();
    rules::check_file(file, &lexed, &mut local);

    let code = lexed.code.as_str();
    let spans = &lexed.spans;
    let lines = &spans.lines;

    let is_test_file = file.is_test_file();
    let in_test = |line: usize| is_test_file || spans.in_test(line);
    let snippet_of = |line: usize| file.snippet(line);

    let impls = impl_ranges(code);
    let mut fns = fn_items(code, lines, &impls, &in_test);

    // Effects: scan the whole file once per family, then attribute each
    // site to its innermost enclosing fn. Sites outside any fn body
    // (consts, statics) cannot execute at runtime on the simulated path
    // and are dropped.
    for site in effect_sites(code, spans) {
        let waived = lexed.is_waived(site.kind.rule(), site.line);
        let waived_blocking = lexed.is_waived("blocking-under-lock", site.line);
        if let Some(idx) = innermost_fn(&fns, site.pos) {
            fns[idx].item.effects.push(EffectSite {
                kind: site.kind,
                line: site.line,
                detail: site.detail,
                snippet: snippet_of(site.line),
                waived,
                waived_blocking,
                loop_depth: site.loop_depth,
            });
        }
    }

    // Lock acquisitions, attributed like effects. Sites outside any fn
    // (statics) cannot produce a live guard at runtime and are dropped.
    for site in lock_sites(code, spans) {
        if let Some(idx) = innermost_fn(&fns, site.pos) {
            fns[idx].item.locks.push(LockSite {
                op: site.op,
                id: site.id,
                line: site.line,
                snippet: snippet_of(site.line),
                loop_depth: site.loop_depth,
                span: site.span,
                binding: site.binding,
                escapes: site.escapes,
                stmt_temp: site.stmt_temp,
                waived_order: lexed.is_waived("lock-order", site.line),
                waived_blocking: lexed.is_waived("blocking-under-lock", site.line),
                waived_hot: lexed.is_waived("lock-in-hot-loop", site.line),
            });
        }
    }

    // Calls: scan each fn body. Nested fn bodies are contained in their
    // parent's range, so the parent over-approximates by absorbing the
    // nested calls too; diagnostics dedup by (rule, path, line) downstream.
    for i in 0..fns.len() {
        let (start, end) = fns[i].body;
        fns[i].item.calls = call_sites(code, start, end, lines);
    }

    let enums = enum_defs(code);
    let matches = match_sites(code, lines, &in_test)
        .into_iter()
        .map(|m| MatchSite {
            snippet: snippet_of(m.line),
            waived: lexed.is_waived("protocol-exhaustive", m.line),
            enum_name: m.enum_name,
            covered: m.covered,
            catch_all: m.catch_all,
            line: m.line,
        })
        .collect();

    FileSummary {
        path: file.path.clone(),
        is_test: is_test_file,
        fns: fns.into_iter().map(|f| f.item).collect(),
        enums,
        matches,
        aliases: use_aliases(code),
        local,
    }
}

/// `(alias, real)` pairs from `use` declarations, including grouped lists
/// (`use x::{A as B, C as D};`).
fn use_aliases(code: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for at in find_word(code, "use") {
        let stmt_end = code[at..].find(';').map(|i| at + i).unwrap_or(code.len());
        let stmt = &code[at..stmt_end];
        for as_at in find_word(stmt, "as") {
            let Some(real) = trailing_word(stmt[..as_at].trim_end()) else {
                continue;
            };
            let Some(alias) = first_ident(&stmt[as_at + 2..]) else {
                continue;
            };
            if alias == "_" {
                continue; // `use Trait as _;` — nothing to resolve through
            }
            out.push((alias, real));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Summarize an in-memory source without touching disk (tests, fixtures).
pub fn summarize_source(path: &str, source: &str) -> FileSummary {
    summarize(&SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Items: impl blocks, fns, enums
// ---------------------------------------------------------------------------

struct ImplRange {
    start: usize,
    end: usize,
    self_type: String,
    /// An `impl Type` block; `false` for `impl Trait for Type` and `trait`.
    inherent: bool,
}

/// `impl` and `trait` block ranges with the type (or trait) name that
/// methods inside resolve under. `-> impl Trait` positions are filtered by
/// looking at the previous non-whitespace byte: item-level `impl`/`trait`
/// can only follow `}`, `;`, `]` (attribute), `{` (mod body), or the start
/// of the file.
fn impl_ranges(code: &str) -> Vec<ImplRange> {
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for at in find_word(code, kw) {
            let prev = code[..at].trim_end().bytes().next_back();
            if !matches!(
                prev,
                None | Some(b'}') | Some(b';') | Some(b']') | Some(b'{')
            ) {
                continue;
            }
            // A `;` before the body means this wasn't a block after all
            // (e.g. `trait alias = ...;` — not used here, but cheap to guard).
            let Some(open) = body_open(code, at + kw.len()) else {
                continue;
            };
            // `trait` objects (`dyn trait`) can't appear item-level; for
            // `impl`, the header between the keyword and `{` names the type.
            let header = &code[at + kw.len()..open];
            let name = if kw == "impl" {
                impl_self_type(header)
            } else {
                first_ident(header)
            };
            let Some(name) = name else { continue };
            out.push(ImplRange {
                start: open,
                end: brace_span(code, open),
                self_type: name,
                inherent: kw == "impl" && split_at_word(header, "for").is_none(),
            });
        }
    }
    out
}

/// The self type of an `impl` header: last path segment of the type after
/// `for` (trait impls) or after the generics (inherent impls), with
/// generic arguments and reference sigils stripped.
fn impl_self_type(header: &str) -> Option<String> {
    let ty = match split_at_word(header, "for") {
        Some((_, after)) => after,
        None => strip_leading_generics(header),
    };
    let ty = ty.trim().trim_start_matches('&').trim_start_matches("mut ");
    // Walk path segments up to generics: `hpack::Decoder<'a>` → `Decoder`.
    let base: &str = ty.split('<').next().unwrap_or(ty).trim();
    base.rsplit("::").next().and_then(first_ident)
}

/// Split `text` at the first word-boundary occurrence of `word`.
fn split_at_word<'a>(text: &'a str, word: &str) -> Option<(&'a str, &'a str)> {
    let at = *find_word(text, word).first()?;
    Some((&text[..at], &text[at + word.len()..]))
}

/// Drop a leading `<...>` generics list (angle-bracket matched, `->`-aware).
fn strip_leading_generics(header: &str) -> &str {
    let t = header.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let bytes = t.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {} // `->` in Fn bounds
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
        i += 1;
    }
    t
}

/// `Arc::<str>` → `Arc`: drop a turbofish from the end of a path, so the
/// segment before its generic arguments names the qualifier. A path without
/// one comes back unchanged.
fn strip_trailing_generics(path: &str) -> &str {
    let Some(inner) = path.strip_suffix('>') else {
        return path;
    };
    let bytes = inner.as_bytes();
    let mut depth = 1;
    for i in (0..bytes.len()).rev() {
        match bytes[i] {
            b'>' if i > 0 && bytes[i - 1] == b'-' => {} // `->` in Fn bounds
            b'>' => depth += 1,
            b'<' => {
                depth -= 1;
                if depth == 0 {
                    return inner[..i].trim_end().trim_end_matches("::").trim_end();
                }
            }
            _ => {}
        }
    }
    path
}

struct ParsedFn {
    item: FnItem,
    /// Body byte range (open brace .. one past close), or `pos..pos` for
    /// bodyless trait-method declarations.
    body: (usize, usize),
}

/// All `fn` items in the file, with signatures parsed and bodies located.
fn fn_items(
    code: &str,
    lines: &LineMap,
    impls: &[ImplRange],
    in_test: &dyn Fn(usize) -> bool,
) -> Vec<ParsedFn> {
    let mut out = Vec::new();
    for at in find_word(code, "fn") {
        let after = code[at + 2..].trim_start();
        // `fn(` is a fn-pointer type, not an item.
        let Some(name) = first_ident(after) else {
            continue;
        };
        if name.is_empty() {
            continue;
        }
        let name_at = at + 2 + (code[at + 2..].len() - after.len());
        let mut cursor = name_at + name.len();
        // Optional generics.
        let rest = code[cursor..].trim_start();
        if rest.starts_with('<') {
            let skipped = strip_leading_generics(rest);
            cursor += code[cursor..].len() - skipped.len();
        }
        // Parameter list.
        let rest = code[cursor..].trim_start();
        if !rest.starts_with('(') {
            continue;
        }
        let popen = cursor + (code[cursor..].len() - rest.len());
        let Some(pclose) = close_of(code, popen) else {
            continue;
        };
        let (has_self, arity) = parse_params(&code[popen + 1..pclose]);
        // Body: the header ends at a `{` or, for a declaration, a `;`.
        let Some(end) = header_end(code, pclose + 1, b";") else {
            continue;
        };
        let body = match code.as_bytes()[end] {
            b'{' => (end, brace_span(code, end)),
            _ => (end, end),
        };
        let line = lines.line(at);
        let owner = impls
            .iter()
            .filter(|r| r.start <= at && at < r.end)
            .min_by_key(|r| r.end - r.start);
        out.push(ParsedFn {
            item: FnItem {
                name,
                self_type: owner.map(|r| r.self_type.clone()),
                has_self,
                is_pub: declared_pub(code, at),
                inherent: owner.is_some_and(|r| r.inherent),
                arity,
                line,
                is_test: in_test(line),
                end_line: lines.line(body.1.saturating_sub(1).max(body.0)),
                calls: Vec::new(),
                effects: Vec::new(),
                locks: Vec::new(),
            },
            body,
        });
    }
    out
}

/// Whether the `fn` keyword at `at` is declared `pub` in any form (`pub`,
/// `pub(crate)`, `pub(in path)`), looking back over the qualifiers that can
/// stand between the two (`const`, `async`, `unsafe`, `extern "abi"`).
fn declared_pub(code: &str, at: usize) -> bool {
    let mut head = code[..at].trim_end();
    loop {
        if let Some(abi) = head
            .strip_suffix('"')
            .and_then(|h| h.rfind('"').map(|q| &h[..q]))
        {
            head = abi.trim_end();
            continue;
        }
        match trailing_word(head).as_deref() {
            Some(q @ ("const" | "async" | "unsafe" | "extern" | "default")) => {
                head = head[..head.len() - q.len()].trim_end();
            }
            _ => break,
        }
    }
    if let Some(scope) = head.strip_suffix(')') {
        head = scope
            .rfind('(')
            .map_or(head, |open| scope[..open].trim_end());
    }
    trailing_word(head).as_deref() == Some("pub")
}

/// `(has_self, arity-excluding-self)` from a parameter list's inner text.
fn parse_params(params: &str) -> (bool, usize) {
    let pieces = split_top_level(params, b',');
    let mut has_self = false;
    let mut arity = 0;
    for (i, piece) in pieces.iter().enumerate() {
        let p = piece.trim();
        if p.is_empty() {
            continue;
        }
        if i == 0 && is_self_param(p) {
            has_self = true;
        } else {
            arity += 1;
        }
    }
    (has_self, arity)
}

/// `self`, `&self`, `&mut self`, `&'a self`, `mut self`, `self: Box<Self>`.
fn is_self_param(p: &str) -> bool {
    let mut t = p.trim_start_matches('&').trim_start();
    if t.starts_with('\'') {
        t = t
            .trim_start_matches(|c: char| c == '\'' || c.is_alphanumeric() || c == '_')
            .trim_start();
    }
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    t == "self" || t.starts_with("self:") || t.starts_with("self ")
}

/// Split on `sep` at zero paren/bracket/brace/angle depth.
fn split_top_level(text: &str, sep: u8) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => angle += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => angle = (angle - 1).max(0),
            b if b == sep && depth == 0 && angle == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&text[start..]);
    out
}

/// Innermost fn whose body contains byte `pos`.
fn innermost_fn(fns: &[ParsedFn], pos: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.body.0 < pos && pos < f.body.1)
        .min_by_key(|(_, f)| f.body.1 - f.body.0)
        .map(|(i, _)| i)
}

/// All enum declarations with their variant names.
fn enum_defs(code: &str) -> Vec<EnumDef> {
    let mut out = Vec::new();
    for at in find_word(code, "enum") {
        let Some(name) = first_ident(&code[at + 4..]) else {
            continue;
        };
        let Some(open) = body_open(code, at + 4) else {
            continue;
        };
        let end = brace_span(code, open);
        let body = &code[open + 1..end.saturating_sub(1).max(open + 1)];
        let mut variants = Vec::new();
        for piece in split_top_level(body, b',') {
            // Strip attributes (`#[...]`) — literals are already blanked.
            let mut p = piece.trim();
            while p.starts_with("#[") {
                match p.find(']') {
                    Some(i) => p = p[i + 1..].trim_start(),
                    None => break,
                }
            }
            if let Some(v) = first_ident(p) {
                if v.chars().next().is_some_and(|c| c.is_uppercase()) {
                    variants.push(v);
                }
            }
        }
        if !variants.is_empty() {
            out.push(EnumDef { name, variants });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Effects
// ---------------------------------------------------------------------------

struct RawEffect {
    kind: EffectKind,
    pos: usize,
    line: usize,
    detail: String,
    loop_depth: usize,
}

/// Substring needles per effect family. These are scanned over lexed code,
/// so strings and comments can mention them freely. All needles are matched
/// with an identifier boundary on the left (`MyInstant::now` is not a hit);
/// `fs::` also covers `std::fs::` paths.
const WALL_CLOCK_NEEDLES: [&str; 2] = ["Instant::now", "SystemTime"];
pub(crate) const RANDOM_NEEDLES: [&str; 4] =
    ["thread_rng", "rand::random", "fastrand::", "getrandom"];
const FS_NEEDLES: [&str; 3] = ["fs::", "File::", "OpenOptions"];
const NET_NEEDLES: [&str; 3] = ["TcpStream", "TcpListener", "UdpSocket"];
const THREAD_NEEDLES: [&str; 2] = ["thread::spawn", "thread::scope"];

/// Blocking-primitive needles (the `blocking-under-lock` rule). The
/// zero-arg forms are exact, so `stream.read(&mut buf)` or `parts.join(",")`
/// never match; `.send(` requires the literal method name (`send_data(`
/// does not match).
const BLOCKING_NEEDLES: [(&str, BlockKind); 5] = [
    ("thread::sleep", BlockKind::Sleep),
    (".recv()", BlockKind::ChannelRecv),
    (".recv_timeout(", BlockKind::ChannelRecv),
    (".send(", BlockKind::ChannelSend),
    (".join()", BlockKind::ThreadJoin),
];
pub(crate) const PANIC_NEEDLES: [&str; 6] = [
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    ".unwrap()",
    ".expect(",
];

/// Allocation/copy needles for the `hot-path-alloc` rule. The last two are
/// loop-gated: constructing a container once per call is free, doing it per
/// iteration is the churn the rule exists to catch.
const ALLOC_NEEDLES: [(&str, AllocKind); 11] = [
    (".clone()", AllocKind::Clone),
    (".to_vec()", AllocKind::ToVec),
    (".to_owned()", AllocKind::ToOwned),
    (".to_string()", AllocKind::ToString),
    ("String::from", AllocKind::StringFrom),
    ("format!", AllocKind::Format),
    (".concat()", AllocKind::Concat),
    (".join(", AllocKind::Join),
    ("copy_from_slice(", AllocKind::CopyFromSlice),
    ("Vec::new()", AllocKind::VecNew),
    ("with_capacity(", AllocKind::WithCapacity),
];

/// Keywords that can directly precede a `[` that is *not* an index
/// expression (`&mut [u8]`, `x as [u8; 2]`, `let [a, b] = pair`, ...).
const NON_INDEX_WORDS: [&str; 9] = [
    "mut", "ref", "as", "dyn", "in", "return", "const", "static", "let",
];

fn effect_sites(code: &str, spans: &Spans) -> Vec<RawEffect> {
    let lines = &spans.lines;
    let mut out = Vec::new();
    let families: [(&[&str], EffectKind); 6] = [
        (&WALL_CLOCK_NEEDLES, EffectKind::WallClock),
        (&RANDOM_NEEDLES, EffectKind::Randomness),
        (&FS_NEEDLES, EffectKind::Fs),
        (&NET_NEEDLES, EffectKind::Net),
        (&THREAD_NEEDLES, EffectKind::ThreadSpawn),
        (&PANIC_NEEDLES, EffectKind::Panic),
    ];
    let plain = families
        .iter()
        .flat_map(|&(needles, kind)| needles.iter().map(move |&n| (n, kind)));
    let blocking = BLOCKING_NEEDLES
        .iter()
        .map(|&(n, bk)| (n, EffectKind::Blocking(bk)));
    for (needle, kind) in plain.chain(blocking) {
        for at in needle_hits(code, needle) {
            out.push(RawEffect {
                kind,
                pos: at,
                line: lines.line(at),
                detail: needle
                    .trim_end_matches('(')
                    .trim_end_matches("::")
                    .to_string(),
                loop_depth: spans.loop_depth(at),
            });
        }
    }

    // Allocation/copy sites (`hot-path-alloc`): the container
    // constructors are only effects inside a loop.
    for (needle, ak) in ALLOC_NEEDLES {
        for at in needle_hits(code, needle) {
            let depth = spans.loop_depth(at);
            if depth == 0 && matches!(ak, AllocKind::VecNew | AllocKind::WithCapacity) {
                continue;
            }
            out.push(RawEffect {
                kind: EffectKind::Alloc(ak),
                pos: at,
                line: lines.line(at),
                detail: ak.label().to_string(),
                loop_depth: depth,
            });
        }
    }

    // Indexing: `expr[` where expr ends in an identifier, `)` or `]`.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let before = code[..i].trim_end();
        let Some(prev) = before.bytes().next_back() else {
            continue;
        };
        let is_expr_end =
            prev == b')' || prev == b']' || (prev as char).is_alphanumeric() || prev == b'_';
        if !is_expr_end {
            continue;
        }
        if let Some(word) = trailing_word(before) {
            if NON_INDEX_WORDS.contains(&word.as_str()) {
                continue;
            }
        }
        out.push(RawEffect {
            kind: EffectKind::Panic,
            pos: i,
            line: lines.line(i),
            detail: index_detail(before, code, i),
            loop_depth: spans.loop_depth(i),
        });
    }

    // Hash-container iteration (shared scanner with the legacy per-file
    // rule logic).
    for (line, name, how) in rules::unordered_iter_sites(code) {
        let pos = lines.starts[line - 1];
        out.push(RawEffect {
            kind: EffectKind::UnorderedIter,
            pos,
            line,
            detail: format!("`{name}` {how}"),
            loop_depth: spans.loop_depth(pos),
        });
    }

    out.sort_by(|a, b| (a.pos, a.kind.name()).cmp(&(b.pos, b.kind.name())));
    out.dedup_by(|a, b| a.pos == b.pos && a.kind == b.kind);
    out
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

struct RawLock {
    op: LockOp,
    id: String,
    pos: usize,
    line: usize,
    loop_depth: usize,
    span: (usize, usize),
    binding: Option<String>,
    escapes: bool,
    stmt_temp: bool,
}

/// Wrapper prefixes a lock declaration can hide behind
/// (`a: Arc<Mutex<..>>`, `Arc::new(Mutex::new(..))`).
const LOCK_WRAPPERS: [&str; 6] = ["Arc<", "Box<", "Rc<", "Arc::new(", "Box::new(", "Rc::new("];

/// Identifiers in this file declared (or initialized) as `Mutex`/`RwLock`:
/// field/param type ascriptions (`map: RwLock<..>`), `let` bindings, and
/// type aliases. Used to gate `.read()`/`.write()` acquisition sites —
/// `.lock()` is unambiguous, but `read`/`write` are common method names.
fn lock_symbols(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for ty in ["Mutex", "RwLock"] {
        for at in find_word(code, ty) {
            // Only type/constructor positions: `Mutex<` or `Mutex::new(`.
            let after = &code[at + ty.len()..];
            if !(after.starts_with('<') || after.starts_with("::new(")) {
                continue;
            }
            let mut before = code[..at].trim_end();
            loop {
                let Some(stripped) = LOCK_WRAPPERS.iter().find_map(|w| before.strip_suffix(w))
                else {
                    break;
                };
                before = stripped.trim_end();
            }
            // `name: Mutex<..>` (not a `path::` segment) or `name = ..`.
            let ident = before
                .strip_suffix(':')
                .filter(|b| !b.ends_with(':'))
                .or_else(|| before.strip_suffix('='))
                .and_then(|b| trailing_word(b.trim_end()));
            if let Some(id) = ident {
                if !id.starts_with(|c: char| c.is_numeric()) && id != "mut" {
                    out.push(id);
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The receiver's meaningful trailing identifier for an acquisition at
/// `dot` (the `.` of `.lock()`): the last dotted path segment that is not
/// `self` and not a numeric tuple index (`self.snap_cache.0.lock()` →
/// `snap_cache`). `None` when the receiver ends in `)`/`]` (compound
/// expression — no stable symbol).
fn receiver_symbol(code: &str, dot: usize) -> Option<String> {
    let mut start = dot;
    let bytes = code.as_bytes();
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_alphanumeric() || c == '_' || c == '.' {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..dot]
        .split('.')
        .rev()
        .find(|seg| !seg.is_empty() && *seg != "self" && !seg.starts_with(|c: char| c.is_numeric()))
        .map(str::to_string)
}

/// Statement-start offset for a position: one past the nearest `;`, `{` or
/// `}` before it (lexing already blanked string/char literals).
fn stmt_start(code: &str, pos: usize) -> usize {
    code[..pos]
        .rfind(|c| c == ';' || c == '{' || c == '}')
        .map(|i| i + 1)
        .unwrap_or(0)
}

/// Whether the expression starting right after the acquisition call is
/// *guard-valued*: nothing but poison-recovery adapters and closing parens
/// up to the statement/block end. Returns the offset where the chain test
/// stopped. A chain that keeps going (`.get(`, `.remove(`, ...) means the
/// guard is an unnamed temporary.
fn guard_chain_end(code: &str, mut k: usize) -> (bool, usize) {
    loop {
        let rest = code[k..].trim_start();
        let off = k + (code[k..].len() - rest.len());
        if rest.starts_with(')') || rest.starts_with('?') {
            k = off + 1;
        } else if rest.starts_with(".unwrap()") {
            k = off + ".unwrap()".len();
        } else if rest.starts_with(".expect(")
            || rest.starts_with(".unwrap_or_else(")
            || rest.starts_with(".expect_err(")
        {
            let popen = off + rest.find('(').unwrap_or(0);
            match close_of(code, popen) {
                Some(close) => k = close + 1,
                None => return (false, off),
            }
        } else {
            let guard_valued = rest.is_empty() || rest.starts_with(';') || rest.starts_with('}');
            return (guard_valued, off);
        }
    }
}

/// First keyword of a statement (`let`, `return`, `for`, ...), if any.
fn stmt_keyword(stmt: &str) -> Option<&str> {
    let t = stmt.trim_start();
    ["let", "return", "for", "while", "if", "match"]
        .into_iter()
        .find(|kw| {
            t.starts_with(kw)
                && !t[kw.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        })
}

/// Statement end for a chained temporary: its `;`, or the bracket closing
/// the larger expression it is embedded in (it dies with that).
fn stmt_end(code: &str, pos: usize) -> usize {
    group_end(code, pos, b";")
}

/// `drop(ident)` sites: `(pos, ident)` pairs for explicit guard releases.
fn drop_sites(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for at in find_word(code, "drop") {
        let after = code[at + 4..].trim_start();
        if !after.starts_with('(') {
            continue;
        }
        if let Some(ident) = first_ident(&after[1..]) {
            out.push((at, ident));
        }
    }
    out
}

/// All lock acquisitions in the file, with guard spans. `.lock()` is taken
/// on any identifier-rooted receiver; `.read()`/`.write()` additionally
/// require the receiver symbol to be declared as a `Mutex`/`RwLock` in this
/// file, since those names are common on non-lock types.
fn lock_sites(code: &str, spans: &Spans) -> Vec<RawLock> {
    let lines = &spans.lines;
    let symbols = lock_symbols(code);
    let drops = drop_sites(code);
    let mut out = Vec::new();
    for (needle, op) in [
        (".lock()", LockOp::Lock),
        (".read()", LockOp::Read),
        (".write()", LockOp::Write),
    ] {
        for (at, _) in code.match_indices(needle) {
            let Some(sym) = receiver_symbol(code, at) else {
                continue;
            };
            if op != LockOp::Lock && !symbols.iter().any(|s| *s == sym) {
                continue;
            }
            let line = lines.line(at);
            let ss = stmt_start(code, at);
            let stmt = code[ss..at].trim_start();
            let kw = stmt_keyword(stmt);
            let (guard_valued, chain_end) = guard_chain_end(code, at + needle.len());
            let (span_end_pos, binding, escapes, stmt_temp);
            if guard_valued {
                match kw {
                    Some("let") => {
                        let after_let = stmt.trim_start()[3..].trim_start();
                        let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
                        binding = first_ident(after_mut);
                        escapes = false;
                        stmt_temp = false;
                        let block_end = group_end(code, chain_end, b"");
                        // An explicit `drop(binding)` inside the block ends
                        // the guard early.
                        let dropped = binding.as_ref().and_then(|b| {
                            drops
                                .iter()
                                .filter(|(p, id)| *p > at && *p < block_end && id == b)
                                .map(|(p, _)| *p)
                                .min()
                        });
                        span_end_pos = dropped.unwrap_or(block_end);
                    }
                    Some("return") | None => {
                        // Returned (or tail-expression) guard: it leaves
                        // this fn live; callers extend it via `escapes`.
                        binding = None;
                        escapes = true;
                        stmt_temp = false;
                        span_end_pos = chain_end;
                    }
                    _ => {
                        // Guard-valued inside a `for`/`while`/`if`/`match`
                        // header: scrutinee temporaries live through the
                        // construct body.
                        binding = None;
                        escapes = false;
                        stmt_temp = true;
                        span_end_pos = construct_body_end(code, ss, at);
                    }
                }
            } else {
                binding = None;
                escapes = false;
                stmt_temp = true;
                span_end_pos = match kw {
                    Some("for") | Some("while") | Some("if") | Some("match") => {
                        construct_body_end(code, ss, at)
                    }
                    _ => stmt_end(code, at + needle.len()),
                };
            }
            out.push(RawLock {
                op,
                id: sym,
                pos: at,
                line,
                loop_depth: spans.loop_depth(at),
                span: (
                    line,
                    lines.line(span_end_pos.min(code.len().saturating_sub(1))),
                ),
                binding,
                escapes,
                stmt_temp,
            });
        }
    }
    out.sort_by_key(|l| l.pos);
    out
}

/// End of the brace body following a `for`/`while`/`if`/`match` header
/// whose statement starts at `ss` (falls back to the statement end when no
/// body brace is found).
fn construct_body_end(code: &str, ss: usize, at: usize) -> usize {
    match body_open(code, ss) {
        Some(open) => brace_span(code, open) - 1,
        None => stmt_end(code, at),
    }
}

/// `buf[..n]` → `` `buf[..]` `` — short display of an index expression.
fn index_detail(before: &str, code: &str, open: usize) -> String {
    let base = trailing_word(before).unwrap_or_else(|| "expr".to_string());
    let inner: String = code[open + 1..]
        .chars()
        .take_while(|&c| c != ']' && c != '\n')
        .take(12)
        .collect();
    format!("`{base}[{}]` indexing", inner.trim())
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

/// Rust keywords that look like `ident(` call heads but aren't.
const CALL_KEYWORDS: [&str; 22] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "let", "else", "fn",
    "ref", "mut", "use", "pub", "impl", "where", "break", "continue", "await", "box",
];

/// All call sites in `code[start..end]`. A free call through a local
/// closure binding (`let load = |..| ..; load(x)`) is not a call site: the
/// closure's body is this fn's own code, already summarized here, and the
/// name says nothing about workspace fns that happen to share it.
fn call_sites(code: &str, start: usize, end: usize, lines: &LineMap) -> Vec<CallSite> {
    let mut out = Vec::new();
    let body = &code[start..end];
    let closures = local_closures(body);
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !(b as char).is_alphabetic() && b != b'_' {
            i += 1;
            continue;
        }
        // Read the identifier.
        let id_start = i;
        while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let name = &body[id_start..i];
        // Optional turbofish: `collect::<Vec<_>>(`.
        let mut j = i;
        if body[j..].starts_with("::<") {
            let rest = strip_leading_generics(&body[j + 2..]);
            j = j + 2 + (body[j + 2..].len() - rest.len());
        }
        // Must be immediately followed by `(` (whitespace allowed).
        let after = body[j..].trim_start();
        if !after.starts_with('(') {
            continue;
        }
        // Macros (`name!(...)`) are not calls; panic-family macros are
        // already captured as effects.
        if after.starts_with("!(") || body[j..].starts_with('!') {
            continue;
        }
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let popen = j + (body[j..].len() - after.len());
        let Some(pclose) = close_of(body, popen) else {
            continue;
        };
        let args = count_args(&body[popen + 1..pclose]);
        let abs = start + id_start;
        let before = code[..abs].trim_end();
        let (kind, qualifier, recv) = if let Some(receiver) = before.strip_suffix('.') {
            let recv = trailing_word(receiver.trim_end());
            (CallKind::Method, None, recv)
        } else if let Some(path) = before.strip_suffix("::") {
            let qual = trailing_word(strip_trailing_generics(path.trim_end()));
            match qual {
                Some(q) => (CallKind::Qualified, Some(q), None),
                None => (CallKind::Free, None, None),
            }
        } else {
            (CallKind::Free, None, None)
        };
        let bound = |&(n, at): &(&str, usize)| n == name && at <= id_start;
        if kind == CallKind::Free && closures.iter().any(bound) {
            continue;
        }
        out.push(CallSite {
            name: name.to_string(),
            qualifier,
            kind,
            args,
            line: lines.line(abs),
            recv,
        });
    }
    out
}

/// The closures `body` binds to a local name (`let f = |..|`, `let mut f =
/// move |..|`), each with the offset just past the name: calls by that name
/// after it reach the closure.
fn local_closures(body: &str) -> Vec<(&str, usize)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (at, _) in body.match_indices("let ") {
        if body[..at].ends_with(is_ident) {
            continue;
        }
        let rest = body[at + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").map_or(rest, str::trim_start);
        let (name, tail) = rest.split_at(rest.find(|c| !is_ident(c)).unwrap_or(rest.len()));
        let Some(value) = tail.trim_start().strip_prefix('=') else {
            continue;
        };
        let value = value.trim_start();
        let value = value.strip_prefix("move").map_or(value, str::trim_start);
        if !name.is_empty() && value.starts_with('|') {
            out.push((name, body.len() - tail.len()));
        }
    }
    out
}

/// Argument count of a call's inner text. Closure parameter lists without
/// parens (`|a, b| ...`) can inflate this; resolution falls back to
/// name-only matching when no candidate matches the arity, so an inflated
/// count widens the edge set rather than dropping it.
fn count_args(inner: &str) -> usize {
    let pieces = split_top_level(inner, b',');
    if pieces.len() == 1 && pieces[0].trim().is_empty() {
        0
    } else {
        pieces.len()
    }
}

// ---------------------------------------------------------------------------
// Matches
// ---------------------------------------------------------------------------

struct RawMatch {
    enum_name: String,
    covered: Vec<String>,
    catch_all: bool,
    line: usize,
}

fn match_sites(code: &str, lines: &LineMap, in_test: &dyn Fn(usize) -> bool) -> Vec<RawMatch> {
    let mut out = Vec::new();
    for at in find_word(code, "match") {
        let line = lines.line(at);
        if in_test(line) {
            continue;
        }
        // Struct literals are not allowed in match scrutinees, so the
        // header's first `{` opens the arms.
        let Some(open) = body_open(code, at + 5) else {
            continue;
        };
        let end = brace_span(code, open);
        let body = &code[open + 1..end.saturating_sub(1).max(open + 1)];
        let arms = match_arms(body);
        if arms.is_empty() {
            continue;
        }
        let mut catch_all = false;
        let mut refs: Vec<(String, String)> = Vec::new(); // (enum, variant)
        for pat in &arms {
            let pat = strip_guard(pat);
            if is_catch_all(pat) {
                catch_all = true;
            }
            collect_variant_refs(pat, &mut refs);
        }
        if refs.is_empty() {
            continue;
        }
        // The scrutinized enum is the one with the most variant refs
        // (nested patterns can mention others); ties break toward the
        // first ref.
        let mut counts: Vec<(String, usize, usize)> = Vec::new();
        for (i, (e, _)) in refs.iter().enumerate() {
            match counts.iter_mut().find(|(name, _, _)| name == e) {
                Some((_, n, _)) => *n += 1,
                None => counts.push((e.clone(), 1, i)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
        let enum_name = counts[0].0.clone();
        let mut covered: Vec<String> = refs
            .into_iter()
            .filter(|(e, _)| *e == enum_name)
            .map(|(_, v)| v)
            .collect();
        covered.sort();
        covered.dedup();
        out.push(RawMatch {
            enum_name,
            covered,
            catch_all,
            line,
        });
    }
    out
}

/// Pattern texts (the part before each `=>`) of a match body.
fn match_arms(body: &str) -> Vec<&str> {
    let bytes = body.as_bytes();
    let mut arms = Vec::new();
    let mut depth = 0i32;
    let mut arm_start = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 && bytes.get(i + 1) == Some(&b'>') => {
                arms.push(body[arm_start..i].trim());
                // Skip the arm value: a brace block or an expression up to
                // the next top-level comma.
                i += 2;
                let after = body[i..].trim_start();
                let off = i + (body[i..].len() - after.len());
                i = if after.starts_with('{') {
                    brace_span(body, off)
                } else {
                    group_end(body, i, b",")
                };
                // Skip a trailing comma.
                while i < bytes.len() && (bytes[i] == b',' || (bytes[i] as char).is_whitespace()) {
                    i += 1;
                }
                arm_start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    arms
}

/// Drop a ` if guard` clause from a pattern.
fn strip_guard(pat: &str) -> &str {
    match split_at_word(pat, "if") {
        Some((before, _)) => before.trim(),
        None => pat,
    }
}

/// `_`, a bare lowercase binding, or `name @ _`.
fn is_catch_all(pat: &str) -> bool {
    let pat = pat.trim();
    if pat == "_" {
        return true;
    }
    if let Some((_, sub)) = pat.split_once('@') {
        return is_catch_all(sub);
    }
    !pat.is_empty()
        && pat.chars().all(|c| c.is_alphanumeric() || c == '_')
        && pat
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
}

/// Collect `Enum::Variant` references in a pattern.
fn collect_variant_refs(pat: &str, out: &mut Vec<(String, String)>) {
    for (at, _) in pat.match_indices("::") {
        let Some(enum_name) = trailing_word(pat[..at].trim_end()) else {
            continue;
        };
        let Some(variant) = first_ident(&pat[at + 2..]) else {
            continue;
        };
        let enum_upper = enum_name.chars().next().is_some_and(|c| c.is_uppercase());
        let var_upper = variant.chars().next().is_some_and(|c| c.is_uppercase());
        if enum_upper && var_upper {
            out.push((enum_name, variant));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summ(src: &str) -> FileSummary {
        summarize_source("crates/net/src/x.rs", src)
    }

    #[test]
    fn parses_free_fn_signature() {
        let s = summ("fn helper(a: u32, b: &str) -> bool { a > 0 && !b.is_empty() }\n");
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.name, "helper");
        assert_eq!(f.arity, 2);
        assert!(!f.has_self);
        assert!(f.self_type.is_none());
        assert_eq!(f.line, 1);
    }

    #[test]
    fn parses_methods_with_self_type() {
        let src = "struct Conn;\n\
                   impl Conn {\n\
                       fn open(&mut self, id: u32) -> bool { self.check(id) }\n\
                       fn check(&self, id: u32) -> bool { id > 0 }\n\
                   }\n";
        let s = summ(src);
        assert_eq!(s.fns.len(), 2);
        assert!(s.fns.iter().all(|f| f.self_type.as_deref() == Some("Conn")));
        assert!(s.fns.iter().all(|f| f.has_self));
        assert_eq!(s.fns[0].arity, 1);
        let call = &s.fns[0].calls[0];
        assert_eq!(call.name, "check");
        assert_eq!(call.kind, CallKind::Method);
        assert_eq!(call.args, 1);
    }

    #[test]
    fn records_visibility_and_impl_kind() {
        let src = "struct P;\n\
                   impl P {\n\
                       fn private(&self) {}\n\
                       pub fn open(&self) {}\n\
                       pub(crate) const fn scoped() -> u8 { 0 }\n\
                       pub(in crate::json) unsafe fn inner(&self) {}\n\
                       pub async fn later(&self) {}\n\
                       #[inline]\n\
                       fn attributed(&self) {}\n\
                   }\n\
                   impl Clone for P { fn clone(&self) -> P { P } }\n\
                   trait T { fn tick(&self); }\n\
                   pub extern \"C\" fn exported() {}\n\
                   fn free() {}\n";
        let s = summ(src);
        let facts: Vec<(&str, bool, bool)> = s
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.inherent))
            .collect();
        assert_eq!(
            facts,
            [
                ("private", false, true),
                ("open", true, true),
                ("scoped", true, true),
                ("inner", true, true),
                ("later", true, true),
                ("attributed", false, true),
                ("clone", false, false),
                ("tick", false, false),
                ("exported", true, false),
                ("free", false, false),
            ]
        );
    }

    #[test]
    fn trait_impl_resolves_to_implementing_type() {
        let src = "impl WireClock for MonotonicClock {\n\
                       fn elapsed(&self) -> u64 { 0 }\n\
                   }\n";
        let s = summ(src);
        assert_eq!(s.fns[0].self_type.as_deref(), Some("MonotonicClock"));
    }

    #[test]
    fn use_aliases_capture_renames_including_groups() {
        let src = "use std::collections::HashMap as Map;\n\
                   use crate::wire::{WireServer as Server, WireClient};\n\
                   use std::io::Read as _;\n\
                   fn f() { let x = 1u32 as u64; }\n";
        let s = summ(src);
        assert_eq!(
            s.aliases,
            vec![
                ("Map".to_string(), "HashMap".to_string()),
                ("Server".to_string(), "WireServer".to_string()),
            ],
            "grouped renames captured; `as _` and cast expressions ignored"
        );
    }

    /// Every lock site in the file, in source order, regardless of which
    /// fn owns it.
    fn all_locks(s: &FileSummary) -> Vec<&LockSite> {
        s.fns.iter().flat_map(|f| f.locks.iter()).collect()
    }

    #[test]
    fn lock_guard_binding_spans_to_block_end_and_drop_truncates() {
        let src = "struct S {\n\
                       m: Mutex<u64>,\n\
                   }\n\
                   impl S {\n\
                       fn hold(&self) -> u64 {\n\
                           let g = self.m.lock();\n\
                           let v = *g;\n\
                           v\n\
                       }\n\
                       fn release_early(&self, n: u64) -> u64 {\n\
                           let g = self.m.lock();\n\
                           drop(g);\n\
                           n\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].op, LockOp::Lock);
        assert_eq!(locks[0].id, "m");
        assert_eq!(locks[0].binding.as_deref(), Some("g"));
        assert!(!locks[0].stmt_temp && !locks[0].escapes);
        assert_eq!(locks[0].span, (6, 9), "bound guard lives to block end");
        assert_eq!(locks[1].span, (11, 12), "explicit drop ends the guard");
    }

    #[test]
    fn lock_guard_rebinding_is_conservative() {
        // `let g = g;` moves the guard into a new binding; the original
        // site keeps its block-end span (may-hold: the data is still
        // locked, whatever the binding is called).
        let src = "struct S {\n\
                       m: Mutex<u64>,\n\
                   }\n\
                   impl S {\n\
                       fn go(&self) -> u64 {\n\
                           let g = self.m.lock();\n\
                           let g = g;\n\
                           *g\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].binding.as_deref(), Some("g"));
        assert!(
            locks[0].span.1 >= 8,
            "rebinding must not end the guard early: span {:?}",
            locks[0].span
        );
    }

    #[test]
    fn lock_guard_returned_from_helper_escapes() {
        let src = "struct S {\n\
                       m: Mutex<u64>,\n\
                   }\n\
                   impl S {\n\
                       fn grab(&self) {\n\
                           self.m.lock()\n\
                       }\n\
                       fn grab2(&self) {\n\
                           return self.m.lock();\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 2);
        for l in locks {
            assert!(l.escapes, "guard leaves the fn at line {}", l.line);
            assert_eq!(l.binding, None);
            assert!(!l.stmt_temp);
        }
    }

    #[test]
    fn lock_chained_temporary_dies_at_statement_end() {
        // `.unwrap()` is poison recovery, `.len()` ends the guard chain:
        // an unnamed temporary that dies with its statement, even under a
        // `let` (the binding holds the u64, not the guard).
        let src = "struct S {\n\
                       m: Mutex<Vec<u64>>,\n\
                   }\n\
                   impl S {\n\
                       fn peek(&self) -> u64 {\n\
                           let v = self.m.lock().unwrap().len();\n\
                           helper();\n\
                           v as u64\n\
                       }\n\
                   }\n\
                   fn helper() {}\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 1);
        assert!(locks[0].stmt_temp);
        assert_eq!(locks[0].binding, None);
        assert_eq!(locks[0].span, (6, 6), "temporary dies at the `;`");
    }

    #[test]
    fn lock_in_construct_header_lives_through_body() {
        // A scrutinee temporary (`for .. in m.lock()..`) lives through the
        // construct body, matching Rust's temporary lifetime rules.
        let src = "struct S {\n\
                       m: Mutex<Vec<u64>>,\n\
                   }\n\
                   impl S {\n\
                       fn sum(&self) -> u64 {\n\
                           let mut t = 0;\n\
                           for v in self.m.lock().unwrap().iter() {\n\
                               t += v;\n\
                           }\n\
                           t\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 1);
        assert!(locks[0].stmt_temp);
        assert_eq!(locks[0].span, (7, 9), "guard covers the loop body");
        assert_eq!(locks[0].loop_depth, 0, "the header is outside its own loop");
    }

    #[test]
    fn lock_guard_live_across_early_return_paths() {
        // An early `return` inside the guard's block does not shorten the
        // span: may-hold keeps the guard live to the block end.
        let src = "struct S {\n\
                       m: Mutex<u64>,\n\
                   }\n\
                   impl S {\n\
                       fn go(&self, quick: bool) -> u64 {\n\
                           let g = self.m.lock();\n\
                           if quick {\n\
                               return 0;\n\
                           }\n\
                           *g\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 1);
        assert!(
            locks[0].span.1 >= 10,
            "early return must not end the guard: span {:?}",
            locks[0].span
        );
    }

    #[test]
    fn read_write_sites_require_a_declared_lock_symbol() {
        // `.read()`/`.write()` are common method names; only receivers
        // declared as Mutex/RwLock in this file count as acquisitions.
        let src = "struct S {\n\
                       data: RwLock<u64>,\n\
                   }\n\
                   impl S {\n\
                       fn go(&self, file: &F) -> u64 {\n\
                           let g = self.data.read();\n\
                           let n = file.read();\n\
                           *g + n\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let locks = all_locks(&s);
        assert_eq!(locks.len(), 1, "`file.read()` is not a lock");
        assert_eq!(locks[0].id, "data");
        assert_eq!(locks[0].op, LockOp::Read);
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let src = "fn iter_urls<'a>(v: &'a [u32]) -> impl Iterator<Item = &'a u32> + 'a {\n\
                       v.iter()\n\
                   }\n";
        let s = summ(src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].self_type, None, "no bogus `impl Iterator` block");
    }

    #[test]
    fn qualified_and_free_calls() {
        let src = "fn f() { helper(); Url::parse(1, 2); module::thing(3); Self::go(); }\n";
        let s = summ(src);
        let calls = &s.fns[0].calls;
        assert_eq!(calls.len(), 4);
        assert_eq!((calls[0].kind, calls[0].args), (CallKind::Free, 0));
        assert_eq!(calls[1].qualifier.as_deref(), Some("Url"));
        assert_eq!(calls[1].args, 2);
        assert_eq!(calls[2].qualifier.as_deref(), Some("module"));
        assert_eq!(calls[3].qualifier.as_deref(), Some("Self"));
    }

    #[test]
    fn turbofish_qualified_calls_keep_their_qualifier() {
        let src = "fn f(x: &str) {\n\
                   \u{20}   let a = Arc::<str>::from(x);\n\
                   \u{20}   let m = HashMap::<u32, Vec<u8>>::with_capacity(4);\n\
                   \u{20}   let b = Box::<dyn Fn() -> u8>::new(g);\n\
                   \u{20}   let v = iter.collect::<Vec<_>>();\n\
                   }\n";
        let s = summ(src);
        let call = |name: &str| {
            let c = s.fns[0].calls.iter().find(|c| c.name == name).unwrap();
            (c.kind, c.qualifier.as_deref())
        };
        assert_eq!(call("from"), (CallKind::Qualified, Some("Arc")));
        assert_eq!(
            call("with_capacity"),
            (CallKind::Qualified, Some("HashMap"))
        );
        assert_eq!(call("new"), (CallKind::Qualified, Some("Box")));
        assert_eq!(call("collect"), (CallKind::Method, None));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f(x: u32) -> u32 { if x > 0 { assert!(x < 9); } while x > 1 { } x }\n";
        let s = summ(src);
        assert!(s.fns[0].calls.is_empty(), "{:?}", s.fns[0].calls);
    }

    #[test]
    fn effects_attributed_to_enclosing_fn() {
        let src = "fn quiet() { let x = 1; }\n\
                   fn noisy() { let t = Instant::now(); }\n";
        let s = summ(src);
        assert!(s.fns[0].effects.is_empty());
        assert_eq!(s.fns[1].effects.len(), 1);
        assert_eq!(s.fns[1].effects[0].kind, EffectKind::WallClock);
        assert_eq!(s.fns[1].effects[0].line, 2);
    }

    #[test]
    fn panic_effects_cover_indexing_but_not_types() {
        let src = "fn f(buf: &[u8], n: usize) -> u8 {\n\
                       let head = &buf[..n];\n\
                       let _arr: [u8; 4] = [0; 4];\n\
                       let _s: &mut [u8] = &mut [];\n\
                       head[0]\n\
                   }\n";
        let s = summ(src);
        let panics: Vec<_> = s.fns[0]
            .effects
            .iter()
            .filter(|e| e.kind == EffectKind::Panic)
            .collect();
        assert_eq!(panics.len(), 2, "{panics:?}");
        assert_eq!(panics[0].line, 2);
        assert_eq!(panics[1].line, 5);
    }

    #[test]
    fn waived_effects_are_marked() {
        let src =
            "fn f() { let t = Instant::now(); } // vroom-lint: allow(sim-purity) -- test shim\n";
        let s = summ(src);
        assert!(s.fns[0].effects[0].waived);
    }

    #[test]
    fn enum_defs_and_match_coverage() {
        let src = "enum FrameType { Data, Headers, Ping }\n\
                   fn f(t: FrameType) -> u8 {\n\
                       match t {\n\
                           FrameType::Data => 0,\n\
                           FrameType::Headers | FrameType::Ping => 1,\n\
                       }\n\
                   }\n";
        let s = summ(src);
        assert_eq!(s.enums.len(), 1);
        assert_eq!(s.enums[0].variants, vec!["Data", "Headers", "Ping"]);
        assert_eq!(s.matches.len(), 1);
        let m = &s.matches[0];
        assert_eq!(m.enum_name, "FrameType");
        assert_eq!(m.covered, vec!["Data", "Headers", "Ping"]);
        assert!(!m.catch_all);
    }

    #[test]
    fn catch_all_detected_and_bindings_count() {
        let src = "fn f(t: FrameType) -> u8 {\n\
                       match t { FrameType::Data => 0, _ => 1 }\n\
                   }\n\
                   fn g(t: FrameType) -> u8 {\n\
                       match t { FrameType::Data => 0, other => 1 }\n\
                   }\n\
                   fn h(t: FrameType) -> u8 {\n\
                       match t { FrameType::Data => 0, s @ (FrameType::Ping | FrameType::Headers) => 1 }\n\
                   }\n";
        let s = summ(src);
        assert_eq!(s.matches.len(), 3);
        assert!(s.matches[0].catch_all, "wildcard");
        assert!(s.matches[1].catch_all, "bare binding");
        assert!(!s.matches[2].catch_all, "binding @ explicit variants");
    }

    #[test]
    fn nested_fn_effects_seen_by_both() {
        let src = "fn outer() {\n\
                       fn inner() { let t = Instant::now(); }\n\
                       inner();\n\
                   }\n";
        let s = summ(src);
        let inner = s.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.effects.len(), 1, "innermost fn owns the effect");
        let outer = s.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn alloc_effects_detected_with_loop_depth() {
        let src = "fn f(names: &[String]) -> Vec<String> {\n\
                       let mut out = Vec::new();\n\
                       for n in names {\n\
                           out.push(n.clone());\n\
                       }\n\
                       let once = names.to_vec();\n\
                       out.extend(once);\n\
                       out\n\
                   }\n";
        let s = summ(src);
        let allocs: Vec<_> = s.fns[0]
            .effects
            .iter()
            .filter(|e| matches!(e.kind, EffectKind::Alloc(_)))
            .collect();
        assert_eq!(allocs.len(), 2, "{allocs:?}");
        assert_eq!(allocs[0].kind, EffectKind::Alloc(AllocKind::Clone));
        assert_eq!(allocs[0].loop_depth, 1, "clone is inside the for body");
        assert_eq!(allocs[1].kind, EffectKind::Alloc(AllocKind::ToVec));
        assert_eq!(allocs[1].loop_depth, 0, "to_vec runs once per call");
    }

    #[test]
    fn container_constructors_only_flagged_inside_loops() {
        let src = "fn f(n: usize) {\n\
                       let _outer = Vec::<u8>::new();\n\
                       let mut i = 0;\n\
                       while i < n {\n\
                           let _per_iter: Vec<u8> = Vec::new();\n\
                           let _buf = String::with_capacity(64);\n\
                           i += 1;\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let allocs: Vec<_> = s.fns[0]
            .effects
            .iter()
            .filter(|e| matches!(e.kind, EffectKind::Alloc(_)))
            .collect();
        assert_eq!(allocs.len(), 2, "{allocs:?}");
        assert!(allocs.iter().all(|e| e.loop_depth == 1));
        assert_eq!(allocs[0].kind, EffectKind::Alloc(AllocKind::VecNew));
        assert_eq!(allocs[1].kind, EffectKind::Alloc(AllocKind::WithCapacity));
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "struct T;\n\
                   trait Go { fn go(&self) -> String; }\n\
                   impl Go for T {\n\
                       fn go(&self) -> String { \"x\".to_string() }\n\
                   }\n";
        let s = summ(src);
        let f = s
            .fns
            .iter()
            .find(|f| f.name == "go" && !f.effects.is_empty());
        let f = f.expect("impl'd go has the effect");
        assert_eq!(f.effects[0].kind, EffectKind::Alloc(AllocKind::ToString));
        assert_eq!(f.effects[0].loop_depth, 0, "impl-for block is not a loop");
    }

    #[test]
    fn nested_loops_stack_depth() {
        let src = "fn f(rows: &[Vec<u8>]) {\n\
                       for r in rows {\n\
                           loop {\n\
                               let _ = r.to_vec();\n\
                               break;\n\
                           }\n\
                       }\n\
                   }\n";
        let s = summ(src);
        let alloc = s.fns[0]
            .effects
            .iter()
            .find(|e| e.kind == EffectKind::Alloc(AllocKind::ToVec))
            .expect("to_vec found");
        assert_eq!(alloc.loop_depth, 2);
    }

    /// Each alloc kind has its own diagnostic name: the names order effect
    /// sites that share a position, and tell findings apart in messages.
    #[test]
    fn alloc_effect_names_roundtrip() {
        let mut names = Vec::new();
        for ak in [
            AllocKind::Clone,
            AllocKind::ToVec,
            AllocKind::ToOwned,
            AllocKind::ToString,
            AllocKind::StringFrom,
            AllocKind::Format,
            AllocKind::Concat,
            AllocKind::Join,
            AllocKind::CopyFromSlice,
            AllocKind::VecNew,
            AllocKind::WithCapacity,
        ] {
            let kind = EffectKind::Alloc(ak);
            assert!(kind.name().starts_with("alloc "), "{}", kind.name());
            assert_eq!(kind.rule(), "hot-path-alloc");
            names.push(kind.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "{names:?}");
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { let t = Instant::now(); }\n\
                   }\n";
        let s = summ(src);
        assert!(!s.fns.iter().find(|f| f.name == "prod").unwrap().is_test);
        assert!(s.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
    }

    #[test]
    fn cfg_test_covers_only_the_annotated_item() {
        // On a `use`, a field or a statement the attribute ends at the
        // item's `;` or `,`; on a fn, at the close of its body.
        let src = "#[cfg(test)]\n\
                   use std::time::Instant;\n\
                   struct S {\n\
                       #[cfg(test)]\n\
                       log: Vec<u8>,\n\
                   }\n\
                   fn prod(s: &mut S) {\n\
                       #[cfg(test)]\n\
                       s.log.push(1);\n\
                   }\n\
                   fn after() {}\n\
                   #[cfg(test)]\n\
                   fn helper() {}\n\
                   fn last() {}\n";
        let s = summ(src);
        let is_test = |name: &str| s.fns.iter().find(|f| f.name == name).unwrap().is_test;
        assert!(!is_test("prod") && !is_test("after") && !is_test("last"));
        assert!(is_test("helper"));
    }
}
