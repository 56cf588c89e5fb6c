//! Workspace-wide symbol table and conservative call graph.
//!
//! Nodes are the non-test functions of every [`FileSummary`]; edges come
//! from the call sites the parser recorded. Resolution is deliberately an
//! over-approximation — when in doubt, an edge is added:
//!
//! * free calls resolve by name, preferring candidates in the caller's own
//!   crate, else falling back to every function with that name; a call
//!   through a `let`-bound local closure is no call site at all, since the
//!   parser already attributes the closure's body to the enclosing fn;
//! * method calls resolve by name + arity over every method in the
//!   workspace (trait dispatch collapses to "same name, same shape"); when
//!   no candidate matches exactly, lower-arity candidates are linked —
//!   the parser can only over-count arguments (closure commas), never
//!   under-count them, so the true target is never above the count;
//! * `Type::assoc` resolves through the impl self-type, with `Self::`
//!   mapped to the caller's own impl block and `use .. as ..` renames
//!   mapped back to the defining type;
//! * a fn of an inherent impl that is not `pub` is a candidate for either
//!   form only from its own crate, which alone can name it. Trait methods
//!   and trait-impl methods stay candidates everywhere.
//!
//! A type-qualified call whose type is *not* defined in the workspace
//! (`Vec::new`, `BTreeMap::from`, a vendored type) produces no edge: the
//! callee is std/vendored code that cannot call back into the workspace,
//! and closure arguments are already attributed to the calling function by
//! the parser, so dropping the edge loses no effects.
//!
//! False edges only widen reachability, so the reachability rules in
//! [`crate::reach`] can miss nothing that a precise graph would flag.

use crate::parse::{CallKind, FileSummary};
use crate::source::crate_of;
use std::collections::BTreeMap;

/// One call-graph node: fn `item` of file `file` in `summaries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    pub file: usize,
    pub item: usize,
}

pub struct Graph<'a> {
    pub summaries: &'a [FileSummary],
    /// Dense node table, in (file, item) order.
    pub nodes: Vec<NodeRef>,
    /// Sorted adjacency lists, indexed by node id.
    pub edges: Vec<Vec<usize>>,
    /// Per-call-site resolution: for node id, `(call_idx, callee)` pairs
    /// where `call_idx` indexes the fn's `calls` vec. Unlike `edges`,
    /// self-edges are kept — a recursive call still holds the caller's
    /// guards across the call site.
    pub site_edges: Vec<Vec<(usize, usize)>>,
}

impl<'a> Graph<'a> {
    pub fn build(summaries: &'a [FileSummary]) -> Graph<'a> {
        let mut nodes = Vec::new();
        for (fi, file) in summaries.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                nodes.push(NodeRef { file: fi, item: ii });
            }
        }

        // Name-keyed candidate indices.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            let f = &summaries[n.file].fns[n.item];
            by_name.entry(&f.name).or_default().push(id);
            if f.has_self {
                methods.entry(&f.name).or_default().push(id);
            }
            if let Some(ty) = &f.self_type {
                by_type.entry((ty.as_str(), &f.name)).or_default().push(id);
            }
        }

        let mut edges = vec![Vec::new(); nodes.len()];
        let mut site_edges = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            let file = &summaries[n.file];
            let caller = &file.fns[n.item];
            let caller_crate = crate_of(&file.path);
            // A private inherent fn cannot be named outside its crate.
            let visible = |c: usize| {
                let nf = nodes[c];
                let f = &summaries[nf.file].fns[nf.item];
                f.is_pub || !f.inherent || crate_of(&summaries[nf.file].path) == caller_crate
            };
            let mut sites: Vec<(usize, usize)> = Vec::new();
            for (call_idx, call) in caller.calls.iter().enumerate() {
                let name = call.name.as_str();
                let mut out: Vec<usize> = Vec::new();
                match call.kind {
                    CallKind::Method => {
                        let all: Vec<usize> = methods
                            .get(name)
                            .map_or(&[][..], Vec::as_slice)
                            .iter()
                            .copied()
                            .filter(|&c| visible(c))
                            .collect();
                        let arity_of = |c: usize| {
                            let nf = nodes[c];
                            summaries[nf.file].fns[nf.item].arity
                        };
                        let exact: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&c| arity_of(c) == call.args)
                            .collect();
                        if exact.is_empty() {
                            // The parser can only over-count args (commas
                            // inside closure parameter lists), so the true
                            // target can sit below the count — never above.
                            out.extend(all.iter().copied().filter(|&c| arity_of(c) < call.args));
                        } else {
                            out.extend(exact);
                        }
                    }
                    CallKind::Qualified => {
                        let qual = call.qualifier.as_deref().unwrap_or("");
                        let type_qualified = qual.chars().next().is_some_and(|c| c.is_uppercase())
                            || PRIMITIVE_TYPES.contains(&qual);
                        if type_qualified {
                            let ty = if qual == "Self" {
                                caller.self_type.as_deref().unwrap_or(qual)
                            } else {
                                // Map `use path::Real as Alias` back to the
                                // defining type before the table lookup.
                                file.aliases
                                    .iter()
                                    .find(|(alias, _)| alias == qual)
                                    .map(|(_, real)| real.as_str())
                                    .unwrap_or(qual)
                            };
                            if let Some(c) = by_type.get(&(ty, name)) {
                                out.extend(c.iter().copied().filter(|&c| visible(c)));
                            }
                            // else: the type is not defined in the workspace
                            // (std or vendored) — its associated fns cannot
                            // call back into workspace code, and closures in
                            // the argument list are already attributed to
                            // this caller. No edge.
                        } else {
                            // Module-qualified: same resolution as a free
                            // call (the module path is not tracked).
                            resolve_free(name, caller_crate, summaries, &nodes, &by_name, &mut out);
                        }
                    }
                    CallKind::Free => {
                        // `drop(x)` is std's consuming free fn — the
                        // guard-release idiom. It cannot invoke a workspace
                        // `Drop::drop` method by name (that requires
                        // `Drop::drop(&mut x)`), so linking it would make
                        // every explicit guard release look like a call
                        // made while the lock is held.
                        if name != "drop" {
                            resolve_free(name, caller_crate, summaries, &nodes, &by_name, &mut out);
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                sites.extend(out.into_iter().map(|c| (call_idx, c)));
            }
            // The legacy adjacency list is derived from the per-site
            // resolution: flattened, deduped, self-edges removed.
            let mut out: Vec<usize> = sites.iter().map(|&(_, c)| c).collect();
            out.sort_unstable();
            out.dedup();
            out.retain(|&c| c != id);
            edges[id] = out;
            site_edges[id] = sites;
        }

        Graph {
            summaries,
            nodes,
            edges,
            site_edges,
        }
    }

    /// Node ids whose fn satisfies `pred`, in deterministic node order.
    pub fn select(&self, mut pred: impl FnMut(&str, &crate::parse::FnItem) -> bool) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                let file = &self.summaries[n.file];
                pred(&file.path, &file.fns[n.item])
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// BFS from `roots`. Returns, per node, `Some(predecessor)` if
    /// reachable (`pred == self` for roots). Deterministic: roots and
    /// adjacency lists are processed in sorted order.
    pub fn reachable(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut pred: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            pred[r] = Some(r);
            queue.push_back(r);
        }
        while let Some(at) = queue.pop_front() {
            for &next in &self.edges[at] {
                if pred[next].is_none() {
                    pred[next] = Some(at);
                    queue.push_back(next);
                }
            }
        }
        pred
    }

    /// Display name for diagnostics: `crate::Type::fn` / `crate::fn`.
    pub fn display(&self, id: usize) -> String {
        let n = self.nodes[id];
        let file = &self.summaries[n.file];
        let f = &file.fns[n.item];
        let krate = crate_of(&file.path).unwrap_or("workspace");
        match &f.self_type {
            Some(ty) => format!("{krate}::{ty}::{}", f.name),
            None => format!("{krate}::{}", f.name),
        }
    }

    /// Walk predecessors back to a root: `root -> ... -> id`, capped for
    /// readable messages.
    pub fn chain(&self, pred: &[Option<usize>], id: usize) -> Vec<usize> {
        let mut chain = vec![id];
        let mut at = id;
        for _ in 0..64 {
            match pred[at] {
                Some(p) if p != at => {
                    chain.push(p);
                    at = p;
                }
                _ => break,
            }
        }
        chain.reverse();
        chain
    }
}

/// Lower-case qualifiers that name a type, not a module: `u64::from(x)`
/// resolves like `Type::from(x)`, never to every workspace `from`.
const PRIMITIVE_TYPES: [&str; 17] = [
    "bool", "char", "str", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize", "f32", "f64",
];

fn resolve_free(
    name: &str,
    caller_crate: Option<&str>,
    summaries: &[FileSummary],
    nodes: &[NodeRef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    out: &mut Vec<usize>,
) {
    let Some(all) = by_name.get(name) else { return };
    let same_crate: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&c| crate_of(&summaries[nodes[c].file].path) == caller_crate)
        .collect();
    if same_crate.is_empty() {
        out.extend_from_slice(all);
    } else {
        out.extend(same_crate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::summarize_source;

    fn graph_of(files: &[(&str, &str)]) -> Vec<FileSummary> {
        files.iter().map(|(p, s)| summarize_source(p, s)).collect()
    }

    fn find(g: &Graph, name: &str) -> usize {
        g.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| g.summaries[n.file].fns[n.item].name == name)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn direct_free_call_links() {
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "pub fn entry() { helper(); }\nfn helper() {}\n",
        )]);
        let g = Graph::build(&s);
        let (entry, helper) = (find(&g, "entry"), find(&g, "helper"));
        assert_eq!(g.edges[entry], vec![helper]);
        let pred = g.reachable(&[entry]);
        assert!(pred[helper].is_some());
    }

    #[test]
    fn free_call_prefers_same_crate() {
        let s = graph_of(&[
            (
                "crates/sim/src/a.rs",
                "pub fn entry() { helper(); }\npub fn helper() {}\n",
            ),
            ("crates/net/src/b.rs", "pub fn helper() {}\n"),
        ]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert_eq!(g.edges[entry].len(), 1, "same-crate helper wins");
    }

    #[test]
    fn free_call_to_local_closure_adds_no_edge() {
        // `load(run)` calls the closure bound just above it, not the
        // unrelated `load` in another crate; a same-named fn called before
        // the binding still links.
        let s = graph_of(&[
            (
                "crates/vroom/src/a.rs",
                "pub fn entry(run: u32) -> u32 { let load = |run: u32| run; load(run) }\n\
                 pub fn early(run: u32) { store(run); let mut store = move |r: u32| r; store(run); }\n",
            ),
            (
                "crates/net/src/b.rs",
                "pub fn load(path: &str) {}\npub fn store(path: &str) {}\n",
            ),
        ]);
        let g = Graph::build(&s);
        assert!(g.edges[find(&g, "entry")].is_empty(), "closure call linked");
        assert_eq!(g.edges[find(&g, "early")], vec![find(&g, "store")]);
    }

    #[test]
    fn free_drop_never_links_to_drop_impls() {
        // `drop(guard)` is std's consuming release; a workspace `Drop::drop`
        // method is not callable by that name, so no edge may appear.
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "struct S;\n\
             impl Drop for S { fn drop(&mut self) { helper(); } }\n\
             fn helper() {}\n\
             pub fn entry(s: S) { drop(s); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert!(g.edges[entry].is_empty(), "drop(x) must stay unresolved");
    }

    #[test]
    fn method_call_resolves_by_name_and_arity() {
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "struct A;\n\
             impl A { fn go(&self, x: u32) {} fn go2(&self) {} }\n\
             struct B;\n\
             impl B { fn go(&self, x: u32, y: u32) {} }\n\
             pub fn entry(a: &A) { a.go(1); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        // Only the 1-arg `go` matches; B::go has arity 2.
        assert_eq!(g.edges[entry], vec![find(&g, "go")]);
    }

    #[test]
    fn private_inherent_fns_link_only_within_their_crate() {
        // `expect` is private to `Parser`'s inherent impl in `net`, so the
        // `Option::expect` call in `fleet` cannot reach it; `net`'s own call
        // and the `pub` and trait-impl methods of the same name still link.
        let s = graph_of(&[
            (
                "crates/net/src/json.rs",
                "struct Parser;\n\
                 impl Parser {\n\
                     fn expect(&self, b: u8) {}\n\
                     fn peek() {}\n\
                     pub fn parse(&self) { self.expect(1); Parser::peek(); }\n\
                 }\n",
            ),
            (
                "crates/exec/src/a.rs",
                "pub struct Cursor;\n\
                 impl Cursor { pub fn expect(&self, what: &str) {} }\n\
                 impl Check for Slot { fn expect(&self, b: u8) {} }\n",
            ),
            (
                "crates/fleet/src/lib.rs",
                "pub fn run(pass: Option<u8>) { pass.expect(\"ran\"); Parser::peek(); }\n",
            ),
        ]);
        let g = Graph::build(&s);
        let named = |ids: &[usize]| -> Vec<String> { ids.iter().map(|&c| g.display(c)).collect() };
        assert_eq!(
            named(&g.edges[find(&g, "run")]),
            ["exec::Cursor::expect", "exec::Slot::expect"]
        );
        assert_eq!(
            named(&g.edges[find(&g, "parse")]),
            [
                "net::Parser::expect",
                "net::Parser::peek",
                "exec::Cursor::expect",
                "exec::Slot::expect"
            ]
        );
    }

    #[test]
    fn trait_methods_over_approximate_across_impls() {
        // Two impls of the same trait method name+arity: a method call
        // links to both (dynamic dispatch collapsed by name+shape).
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "impl Clock for Fast { fn tick(&self) {} }\n\
             impl Clock for Slow { fn tick(&self) { let t = Instant::now(); } }\n\
             pub fn entry(c: &dyn Clock) { c.tick(); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert_eq!(g.edges[entry].len(), 2, "both impls linked");
    }

    #[test]
    fn qualified_call_resolves_through_self_type() {
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "struct A;\n\
             impl A { fn make() -> A { A } }\n\
             struct B;\n\
             impl B { fn make() -> B { B } }\n\
             pub fn entry() { let _ = A::make(); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert_eq!(g.edges[entry].len(), 1, "only A::make");
    }

    #[test]
    fn qualified_call_on_foreign_type_adds_no_edge() {
        // `BTreeMap::new()` must not link to every workspace fn named
        // `new` — std types cannot call back into the workspace.
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "struct Rng;\n\
             impl Rng { fn new() -> Rng { Rng } }\n\
             pub fn entry() { let m = BTreeMap::new(); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert!(g.edges[entry].is_empty(), "no edge into Rng::new");
    }

    #[test]
    fn qualified_call_on_a_primitive_type_adds_no_edge() {
        // `u64::from(x)` names the primitive's own `From` impl; it must not
        // fall back to the module-path rule and link to another crate's
        // `from` when the caller's crate defines none.
        let s = graph_of(&[
            (
                "crates/intern/src/a.rs",
                "pub fn entry(x: u32) -> u64 { u64::from(x) }\n",
            ),
            (
                "crates/http2/src/b.rs",
                "struct E;\nimpl From<u8> for E { fn from(x: u8) -> E { E } }\n",
            ),
        ]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert!(g.edges[entry].is_empty(), "no edge into E::from");
    }

    #[test]
    fn qualified_call_resolves_through_use_alias() {
        let s = graph_of(&[
            (
                "crates/sim/src/a.rs",
                "pub struct Engine;\nimpl Engine { pub fn boot() {} }\n",
            ),
            (
                "crates/net/src/b.rs",
                "use vroom_sim::Engine as Core;\npub fn entry() { Core::boot(); }\n",
            ),
        ]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert_eq!(
            g.edges[entry],
            vec![find(&g, "boot")],
            "alias maps to Engine"
        );
    }

    #[test]
    fn method_arity_mismatch_above_count_adds_no_edge() {
        // `handle.join()` (0 args) must not link to a 1-arg `join` method:
        // the parser never under-counts arguments.
        let s = graph_of(&[(
            "crates/html/src/a.rs",
            "struct Url;\n\
             impl Url { fn join(&self, other: &str) -> Url { Url } }\n\
             pub fn entry(h: std::thread::JoinHandle<()>) { let _ = h.join(); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert!(g.edges[entry].is_empty(), "0-arg join cannot be Url::join");
    }

    #[test]
    fn method_closure_overcount_falls_back_to_lower_arity() {
        // `|a, b|` commas inflate the count; the real 1-arg method must
        // still be linked.
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "struct Q;\n\
             impl Q { fn drain_with(&self, f: fn(u32, u32) -> u32) {} }\n\
             pub fn entry(q: &Q) { q.drain_with(|a, b| a + b); }\n",
        )]);
        let g = Graph::build(&s);
        let entry = find(&g, "entry");
        assert_eq!(g.edges[entry], vec![find(&g, "drain_with")]);
    }

    #[test]
    fn cycles_terminate_and_stay_reachable() {
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "pub fn a() { b(); }\npub fn b() { a(); c(); }\nfn c() {}\n",
        )]);
        let g = Graph::build(&s);
        let pred = g.reachable(&[find(&g, "a")]);
        assert!(pred[find(&g, "b")].is_some());
        assert!(pred[find(&g, "c")].is_some());
        let chain = g.chain(&pred, find(&g, "c"));
        assert_eq!(chain.len(), 3, "a -> b -> c");
    }

    #[test]
    fn test_fns_are_not_nodes() {
        let s = graph_of(&[(
            "crates/sim/src/a.rs",
            "pub fn prod() {}\n#[cfg(test)]\nmod tests { fn t() { super::prod(); } }\n",
        )]);
        let g = Graph::build(&s);
        assert_eq!(g.nodes.len(), 1);
    }
}
