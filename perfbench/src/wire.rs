//! The `wire_staged` workload: real HTTP/2 over loopback.
//!
//! One recorded news page is served by a `WireServer` (HTML bodies from
//! `render_html`, hints from `scan_served_html`, push policy
//! `HighPriorityLocal`). Each operation opens one `WireClient` connection
//! and performs Vroom's staged fetch: GET the root, parse its hints, then
//! fetch tiers 0 to 2. One server and one client connection exist at a
//! time.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vroom_browser::config::Hint;
use vroom_html::{ResourceKind, Url};
use vroom_intern::{UrlId, UrlTable};
use vroom_net::{RecordedResponse, ReplayStore};
use vroom_pages::{render_html, LoadContext, Page, PageGenerator, SiteProfile};
use vroom_server::online::scan_served_html;
use vroom_server::wire::{FetchedResponse, WireClient, WireServer, WireSite};
use vroom_server::{parse_hints, PushPolicy};

use crate::report::Outcome;
use crate::stats::{describe_tail, median};
use crate::trace::{totals_by_name, SpanBuf, SpanId};

/// Per-stage deadline handed to `WireClient::run`.
const STAGE_DEADLINE: Duration = Duration::from_secs(10);

/// Generator seed of the recorded site (the `wire_demo` example's page).
const SITE_SEED: u64 = 7777;

/// The load context the page is recorded under; seed 0 is the reference
/// context.
fn context(seed: u64) -> LoadContext {
    LoadContext {
        user_id: seed,
        nonce: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..LoadContext::reference()
    }
}

/// A recorded page and the server state built from it.
struct Site {
    page: Page,
    store: Arc<ReplayStore>,
    hints: Arc<BTreeMap<UrlId, Vec<Hint>>>,
}

/// Record the page and run the server's online analysis over its markup,
/// with `html.render` and `html.scan` spans when traced.
fn record(seed: u64, spans: &mut Rec<'_>, parent: Option<SpanId>) -> Site {
    let mut profile = SiteProfile::news();
    profile.n_images = (8, 10);
    profile.n_sync_js = (4, 6);
    let page = PageGenerator::new(profile, SITE_SEED).snapshot(&context(seed));
    let mut store = ReplayStore::new();
    for r in &page.resources {
        let rec = if r.kind == ResourceKind::Html {
            let body = spans.span("html.render", parent, r.id as u64, || {
                render_html(&page, r.id)
            });
            RecordedResponse::with_body(ResourceKind::Html, body)
        } else {
            RecordedResponse::synthetic(r.kind, r.size)
        };
        store.record(r.url.clone(), rec);
    }
    let mut hints = BTreeMap::new();
    for r in &page.resources {
        if r.kind == ResourceKind::Html {
            let hs = spans.span("html.scan", parent, r.id as u64, || {
                scan_served_html(&page, r.id, store.urls_mut())
            });
            hints.insert(store.urls_mut().intern(r.url.clone()), hs);
        }
    }
    Site {
        page,
        store: Arc::new(store),
        hints: Arc::new(hints),
    }
}

fn serve(site: &Site) -> Result<WireServer, String> {
    WireServer::start(WireSite {
        store: Arc::clone(&site.store),
        hints: Arc::clone(&site.hints),
        push: PushPolicy::HighPriorityLocal,
        domain: site.page.url.host.clone(),
        faults: Default::default(),
    })
    .map_err(|e| format!("start wire server: {e}"))
}

/// What one staged page fetch did.
#[derive(Debug, Default)]
struct PageRun {
    wall_s: f64,
    ok: bool,
    body_bytes: u64,
    requests: u64,
    pushed: u64,
    resets: u64,
    hints: u64,
    client_cpu_ns: u64,
    server_cpu_ns: u64,
}

/// Spans only when tracing.
struct Rec<'a>(Option<&'a mut SpanBuf>);

impl Rec<'_> {
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        match self.0.as_deref_mut() {
            Some(buf) => buf.span(name, parent, op, f),
            None => f(),
        }
    }
}

/// Fetch one page the Vroom way and check everything that came back:
/// every status 200, every body equal to its recording, every hinted URL
/// delivered. A stream the server reset and the client fetched again is a
/// stall, not a wrong output, so resets are counted (`wire.resets`) rather
/// than failing the page.
fn fetch_page(addr: SocketAddr, site: &Site, traced: Option<&mut SpanBuf>, op: u64) -> PageRun {
    let mut rec = Rec(traced);
    let cpu_before = rec.0.is_some().then(crate::sys::thread_cpu_ns);
    let page_span = rec.0.as_deref_mut().map(|b| b.open("wire.page", None, op));
    let t = Instant::now();
    let mut run = PageRun::default();
    let result = staged_fetch(addr, site, &mut rec, page_span, op);
    run.wall_s = t.elapsed().as_secs_f64();
    if let (Some(buf), Some(id)) = (rec.0.as_deref_mut(), page_span) {
        buf.close(id);
    }
    let Fetched {
        got,
        hinted,
        resets,
        cpu_after,
    } = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wire_staged: page {op}: {e}");
            return run;
        }
    };
    if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
        let main = u64::from(std::process::id());
        for (tid, ns) in after {
            let used = ns.saturating_sub(before.get(&tid).copied().unwrap_or(0));
            if tid == main {
                run.client_cpu_ns += used;
            } else {
                run.server_cpu_ns += used;
            }
        }
    }

    let received: BTreeSet<&Url> = got.iter().map(|r| &r.url).collect();
    let mut problems = Vec::new();
    for r in &got {
        run.body_bytes += r.body.len() as u64;
        if r.pushed {
            run.pushed += 1;
        } else {
            run.requests += 1;
        }
        if r.response.status != 200 {
            problems.push(format!("{} answered {}", r.url, r.response.status));
        }
        let recorded = site.store.lookup(&r.url).map(RecordedResponse::body_bytes);
        if recorded.as_deref() != Some(r.body.as_slice()) {
            problems.push(format!("{} body differs from the recording", r.url));
        }
    }
    for url in &hinted {
        if !received.contains(url) {
            problems.push(format!("hinted {url} was never fetched"));
        }
    }
    run.hints = hinted.len() as u64;
    run.resets = resets as u64;
    run.ok = problems.is_empty();
    for p in problems.iter().take(5) {
        eprintln!("wire_staged: page {op}: {p}");
    }
    run
}

/// What a staged fetch brought back.
struct Fetched {
    /// Every completed exchange, requested and pushed.
    got: Vec<FetchedResponse>,
    /// Every URL the root's hints named.
    hinted: Vec<Url>,
    resets: usize,
    /// Per-thread CPU, sampled while the connection (and its server
    /// thread) is still open; traced runs only.
    cpu_after: Option<BTreeMap<u64, u64>>,
}

/// GET the root, parse its hints, fetch each tier: the `wire_demo` client.
fn staged_fetch(
    addr: SocketAddr,
    site: &Site,
    rec: &mut Rec<'_>,
    page_span: Option<SpanId>,
    op: u64,
) -> Result<Fetched, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut client = WireClient::connect(addr).map_err(io)?;
    let root_url = &site.page.url;
    let first = rec.span("wire.root", page_span, op, || {
        client.fetch(root_url)?;
        client.run(STAGE_DEADLINE)
    });
    let mut got = first.map_err(io)?;
    let root = got
        .iter()
        .find(|r| &r.url == root_url)
        .ok_or("the root never arrived")?;
    let mut client_urls = UrlTable::new();
    let hints = rec.span("hints.parse", page_span, op, || {
        parse_hints(&root.response, &mut client_urls)
    });
    let already: Vec<Url> = got.iter().map(|r| r.url.clone()).collect();
    for (tier, name) in ["wire.tier0", "wire.tier1", "wire.tier2"]
        .iter()
        .enumerate()
    {
        let batch: Vec<&Url> = hints
            .iter()
            .filter(|h| usize::from(h.tier) == tier)
            .map(|h| client_urls.get(h.url))
            .filter(|u| !already.contains(*u))
            .collect();
        if batch.is_empty() {
            continue;
        }
        let stage = rec.span(name, page_span, op, || {
            for url in &batch {
                client.fetch(url)?;
            }
            client.run(STAGE_DEADLINE)
        });
        got.extend(stage.map_err(io)?);
    }
    let hinted = hints
        .iter()
        .map(|h| client_urls.get(h.url).clone())
        .collect();
    Ok(Fetched {
        got,
        hinted,
        resets: client.resets_seen(),
        cpu_after: rec.0.is_some().then(crate::sys::thread_cpu_ns),
    })
}

/// Set-ups per operation. One set-up takes about a millisecond, so a
/// single sample per page would leave `setup_s` to scheduler noise.
const SETUPS_PER_OP: usize = 5;

/// One operation: set up (record the page, analyze it, start the server)
/// [`SETUPS_PER_OP`] times, keeping the last server; fetch the page over
/// one connection; stop the server. Returns the set-up times, the page,
/// and the spans of the last set-up and the page when traced.
fn operation(seed: u64, op: u64, traced: bool) -> Result<(Vec<f64>, PageRun, SpanBuf), String> {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_OP);
    let mut last: Option<(Site, WireServer, SpanBuf)> = None;
    for _ in 0..SETUPS_PER_OP {
        let mut buf = SpanBuf::default();
        let t = Instant::now();
        let root = traced.then(|| buf.open("wire.setup", None, op));
        let site = record(seed, &mut Rec(traced.then_some(&mut buf)), root);
        let server = serve(&site)?;
        if let Some(id) = root {
            buf.close(id);
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, old, _)) = last.replace((site, server, buf)) {
            old.stop();
        }
    }
    let (site, server, mut buf) = last.expect("at least one set-up");
    let page = fetch_page(server.addr(), &site, traced.then_some(&mut buf), op);
    server.stop();
    Ok((setup_s, page, buf))
}

/// Untraced run: operations, one after another, until `seconds` have
/// passed.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let (mut setup_s, mut pages) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while pages.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let (s, page, _) = operation(seed, pages.len() as u64, false)?;
        if pages.is_empty() {
            out.set("peak_rss_mb", crate::sys::vmhwm_kb() as f64 / 1024.0);
        }
        setup_s.extend(s);
        out.check(page.ok);
        pages.push(page);
    }

    let ms: Vec<f64> = pages.iter().map(|p| p.wall_s * 1e3).collect();
    let p50 = median(&ms).unwrap_or(f64::NAN);
    let bytes: u64 = pages.iter().map(|p| p.body_bytes).sum();
    let wall: f64 = pages.iter().map(|p| p.wall_s).sum();
    println!("wire_staged: {} staged pages over loopback", pages.len());
    println!("page_ms_p50 {p50:.3} ms");
    println!("page_ms tail: {}", describe_tail(&ms));
    println!("wire_mb_per_s {:.4} MB/s", bytes as f64 / wall / 1e6);
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.set("ops_per_s", 1e3 / p50);
    Ok(())
}

/// Traced run: alternate untraced and traced operations; per-stage spans,
/// per-thread CPU, hint parsing and the set-up's online analysis.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    spans_out: &mut SpanBuf,
) -> Result<(), String> {
    let mut plain_s = Vec::new();
    let mut traced: Vec<(PageRun, SpanBuf)> = Vec::new();
    let start = Instant::now();
    while traced.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let op = 2 * traced.len() as u64;
        let (_, page, _) = operation(seed, op, false)?;
        out.check(page.ok);
        plain_s.push(page.wall_s);
        let (_, page, buf) = operation(seed, op + 1, true)?;
        out.check(page.ok);
        traced.push((page, buf));
    }

    let med = |f: &dyn Fn(&PageRun, &SpanBuf) -> f64| {
        median(&traced.iter().map(|(p, b)| f(p, b)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let self_of = |b: &SpanBuf, name: &str| {
        totals_by_name(&b.spans)
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64)
    };
    for (metric, span, scale) in [
        ("wire.root_ms", "wire.root", 1e6),
        ("wire.tier0_ms", "wire.tier0", 1e6),
        ("wire.tier1_ms", "wire.tier1", 1e6),
        ("wire.tier2_ms", "wire.tier2", 1e6),
        ("hints.parse_us", "hints.parse", 1e3),
        ("html.render_ms", "html.render", 1e6),
        ("html.scan_ms", "html.scan", 1e6),
        ("trace.unattributed_s", "wire.page", 1e9),
    ] {
        out.set(metric, med(&|_, b| self_of(b, span) / scale));
    }
    out.set("wire.requests", med(&|p, _| p.requests as f64));
    out.set("wire.pushed", med(&|p, _| p.pushed as f64));
    out.set("wire.resets", med(&|p, _| p.resets as f64));
    out.set("hints.parsed", med(&|p, _| p.hints as f64));
    out.set(
        "wire.client_cpu_ms",
        med(&|p, _| p.client_cpu_ns as f64 / 1e6),
    );
    out.set(
        "wire.server_cpu_ms",
        med(&|p, _| p.server_cpu_ns as f64 / 1e6),
    );
    out.set(
        "wire.idle_frac",
        med(&|p, _| {
            let busy = (p.client_cpu_ns + p.server_cpu_ns) as f64 / 1e9;
            (1.0 - busy / p.wall_s).max(0.0)
        }),
    );
    let traced_s = med(&|p, _| p.wall_s);
    out.set(
        "trace.overhead_s",
        traced_s - median(&plain_s).unwrap_or(f64::NAN),
    );
    println!(
        "wire_staged: {} untraced and {} traced pages, median traced page {:.1} ms",
        plain_s.len(),
        traced.len(),
        traced_s * 1e3
    );
    if let Some((_, buf)) = traced.pop() {
        out.set("trace.spans", buf.spans.len() as f64);
        spans_out.spans = buf.spans;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_reference_context() {
        assert_eq!(context(0), LoadContext::reference());
        assert_ne!(context(4).nonce, 0);
    }

    #[test]
    fn the_recorded_page_carries_hints_for_its_root() {
        let site = record(0, &mut Rec(None), None);
        let root = site.store.id_of(&site.page.url).expect("root recorded");
        assert!(!site.hints[&root].is_empty());
        assert_eq!(site.store.len(), site.page.resources.len());
    }
}
