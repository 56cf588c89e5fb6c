//! Server-side dependency resolution (paper §4.1–§4.2).
//!
//! A Vroom-compliant server combines **offline** resolution (periodic loads
//! of its own pages; URLs seen in *all* recent loads are trusted) with
//! **online** analysis (URLs scanned from the HTML bytes being served right
//! now), while respecting personalization boundaries: dependencies derived
//! from embedded HTML (iframes) are left to the domain serving that HTML,
//! and script-personalized URLs get filtered out by the offline intersection
//! because they never repeat across crawls.
//!
//! Everything here is *mechanical*: the resolver only sees what a real
//! server would see — its own page loads (with its own crawler cookie jar
//! and fresh nonces) and the response bytes it is about to serve. It never
//! peeks at the client's load or at the generator's stability labels.
//!
//! A [`Resolution`] borrows every URL from the pages it was read from (the
//! served page and the input's own loads), so resolving allocates no URL;
//! only callers that need ids intern it ([`Resolution::intern`]).

use std::collections::{BTreeMap, HashSet};
use std::sync::OnceLock;
use vroom_browser::config::Hint;
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_pages::{DeviceClass, LoadContext, Page, PageGenerator, ResourceId};
use vroom_sim::mix;

/// The server's crawler identity (its own cookie jar).
pub const CRAWLER_USER: u64 = 0xC4A3_11E4;

/// How the server decides which dependencies to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Offline intersection + online HTML scan, iframe-scoped — full Vroom.
    Vroom,
    /// Offline intersection only (§4.1.1 strawman 2).
    OfflineOnly,
    /// A fresh on-the-fly server-side load (§4.1.1 strawman 1).
    OnlineOnly,
    /// Everything seen in a single load within the past hour (Fig 17).
    PreviousLoad,
}

/// What the server knows when a request arrives: its own site (it can crawl
/// itself), the wall-clock time, and the client's device class (from the
/// user agent). It does *not* know the client's nonce or cookie contents.
///
/// The input owns the pages it resolves against: each is built on the
/// first call that needs it and dropped with the input, so every
/// resolution through one input reads the same pages. Its fields are fixed
/// at construction for that reason.
pub struct ResolverInput<'g> {
    /// The site being served.
    generator: &'g PageGenerator,
    /// Wall-clock hours at request time.
    hours: f64,
    /// Device class inferred from the request's user agent.
    device: DeviceClass,
    /// Seed for the server's own crawl nonces.
    server_seed: u64,
    /// How many hours back each offline crawl happened.
    crawl_offsets: Vec<u64>,
    /// The crawls, one per offset, built by the first `offline_loads`.
    crawls: OnceLock<Vec<Page>>,
    /// The crawl an hour back, when the window does not start there.
    previous: OnceLock<Page>,
    /// `OnlineOnly`'s on-the-fly server-side load.
    fresh: OnceLock<Page>,
}

impl<'g> ResolverInput<'g> {
    /// The standard configuration: the paper's implementation intersects
    /// the hourly crawls gathered 1, 2, and 3 hours before the request
    /// (§4.1.2 / §6.1).
    pub fn new(
        generator: &'g PageGenerator,
        hours: f64,
        device: DeviceClass,
        server_seed: u64,
    ) -> Self {
        Self::with_crawl_offsets(generator, hours, device, server_seed, vec![1, 2, 3])
    }

    /// Resolve against the crawls `crawl_offsets` hours before the
    /// request, in that order (the history-window ablation sweeps this).
    pub fn with_crawl_offsets(
        generator: &'g PageGenerator,
        hours: f64,
        device: DeviceClass,
        server_seed: u64,
        crawl_offsets: Vec<u64>,
    ) -> Self {
        ResolverInput {
            generator,
            hours,
            device,
            server_seed,
            crawl_offsets,
            crawls: OnceLock::new(),
            previous: OnceLock::new(),
            fresh: OnceLock::new(),
        }
    }

    /// The site being served.
    pub fn generator(&self) -> &'g PageGenerator {
        self.generator
    }

    /// The crawl context for the load `k` hours ago.
    pub(crate) fn crawl_ctx(&self, k: u64) -> LoadContext {
        LoadContext {
            hours: self.hours - k as f64,
            user_id: CRAWLER_USER,
            device: self.device,
            nonce: mix(self.server_seed, 0x0F_F11E ^ k),
        }
    }

    /// The context of the on-the-fly server-side load `OnlineOnly`
    /// resolves against: now, with the crawler's own cookies and nonce.
    pub(crate) fn fresh_ctx(&self) -> LoadContext {
        LoadContext {
            hours: self.hours,
            user_id: CRAWLER_USER,
            device: self.device,
            nonce: mix(self.server_seed, 0xF8E5),
        }
    }

    /// The server's recent offline loads, one per crawl offset, in offset
    /// order. Built on the first call and kept: later calls, and every
    /// strategy resolved through this input, read the same pages.
    pub fn offline_loads(&self) -> &[Page] {
        self.crawls.get_or_init(|| {
            self.crawl_offsets
                .iter()
                .map(|&k| self.generator.snapshot(&self.crawl_ctx(k)))
                .collect()
        })
    }

    /// The crawl an hour before the request, which `PreviousLoad` hints
    /// wholesale: the first offline load when the window starts an hour
    /// back (as the default `[1, 2, 3]` does), else a crawl of its own.
    pub(crate) fn previous_load(&self) -> &Page {
        let first = (self.crawl_offsets.first() == Some(&1))
            .then(|| self.offline_loads().first())
            .flatten();
        first.unwrap_or_else(|| {
            self.previous
                .get_or_init(|| self.generator.snapshot(&self.crawl_ctx(1)))
        })
    }

    /// `OnlineOnly`'s fresh server-side load, built on the first call.
    fn fresh_load(&self) -> &Page {
        self.fresh
            .get_or_init(|| self.generator.snapshot(&self.fresh_ctx()))
    }
}

/// One hint before interning: a [`Hint`] whose URL is borrowed from the
/// page it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlHint<'p> {
    /// The URL the client should fetch.
    pub url: &'p Url,
    /// Priority tier: 0 = preload, 1 = semi-important, 2 = unimportant.
    pub tier: u8,
    /// Size the server would serve for this URL.
    pub size_hint: u64,
}

/// The hint lists a deployment returns for one served page: one per HTML
/// document it resolved, in resolution order (the root, then each iframe
/// in document order), each in processing order. Every URL is borrowed
/// from the served page or the [`ResolverInput`]'s own loads.
#[derive(Debug, Clone, Default)]
pub struct Resolution<'p> {
    /// `(html url, hints)` per resolved document.
    pub(crate) docs: Vec<(&'p Url, Vec<UrlHint<'p>>)>,
}

impl<'p> Resolution<'p> {
    /// The hints of the response served at `url`: the last document
    /// resolved there, as a table keyed by URL would hold.
    pub fn hints_for(&self, url: &Url) -> Option<&[UrlHint<'p>]> {
        self.docs
            .iter()
            .rev()
            .find(|(html, _)| *html == url)
            .map(|(_, hints)| hints.as_slice())
    }

    /// Intern every URL into `urls`, each document's and then its hints',
    /// in resolution order, and key each hint list (in processing order)
    /// by its document's id: a later document at an earlier one's URL
    /// replaces its hints.
    pub fn intern(&self, urls: &mut UrlTable) -> BTreeMap<UrlId, Vec<Hint>> {
        let mut out = BTreeMap::new();
        for (html, hints) in &self.docs {
            let key = urls.intern_ref(html);
            let hints = hints
                .iter()
                .map(|h| Hint {
                    url: urls.intern_ref(h.url),
                    tier: h.tier,
                    size_hint: h.size_hint,
                })
                .collect();
            out.insert(key, hints);
        }
        out
    }
}

/// Resolve dependencies for the given client load.
///
/// `client_page` stands for the response bytes the servers are about to
/// serve: the online component reads only markup-visible children of each
/// HTML — exactly what [`vroom_html::scan_html`] extracts from the rendered
/// document (see `vroom_pages::render`).
///
/// Resolution works on borrowed URLs throughout: the offline intersection
/// is set algebra over crawled URLs, and the result borrows from
/// `client_page` and from the pages `input` holds.
pub fn resolve<'p>(
    input: &'p ResolverInput<'_>,
    client_page: &'p Page,
    strategy: Strategy,
) -> Resolution<'p> {
    let mut out = Resolution::default();
    let frames = embedded_htmls(client_page);
    let frame_url = |frame: ResourceId| &client_page.resources[frame].url;
    match strategy {
        Strategy::Vroom | Strategy::OfflineOnly => {
            let online = strategy == Strategy::Vroom;
            let crawls = Crawls::new(input.offline_loads());
            // Root HTML: offline (∪ online), excluding iframe-derived deps.
            let mut hints = crawls.intersection(|r| r.iframe_root.is_none() && r.id != 0);
            if online {
                merge_online(&mut hints, client_page, 0);
            }
            out.docs.push((&client_page.url, finish(hints)));

            // Each iframe HTML: its own domain resolves its subtree the same
            // way (paper Fig 10: the ad server returns the red envelope).
            for frame in frames {
                let mut fh = crawls.intersection(|r| r.iframe_root == Some(frame));
                if online {
                    merge_online(&mut fh, client_page, frame);
                }
                out.docs.push((frame_url(frame), finish(fh)));
            }
        }
        Strategy::OnlineOnly => {
            // One fresh server-side load right now, with the crawler's own
            // cookies and nonce.
            let fresh = &input.fresh_load().resources;
            let hints = candidates(fresh, |r| r.iframe_root.is_none() && r.id != 0);
            out.docs.push((&client_page.url, finish(hints)));
            for frame in frames {
                let fh = candidates(fresh, |r| r.iframe_root == Some(frame));
                out.docs.push((frame_url(frame), finish(fh)));
            }
        }
        Strategy::PreviousLoad => {
            // Everything from a single load an hour ago — including
            // iframe-derived and per-load-random URLs. The Fig 17 strawman.
            let hints = candidates(&input.previous_load().resources, |r| r.id != 0);
            out.docs.push((&client_page.url, finish(hints)));
        }
    }
    out
}

/// One hint candidate before ordering: `(tier, url, size, document
/// position)`, borrowing its URL from the page it was read from.
type Candidate<'p> = (u8, &'p Url, u64, ResourceId);

/// The candidate form of one resource.
fn candidate(r: &vroom_pages::Resource) -> Candidate<'_> {
    (r.hint_tier(), &r.url, r.size, r.id)
}

/// Every resource within the scope `keep`, in document order.
fn candidates(
    resources: &[vroom_pages::Resource],
    keep: impl Fn(&vroom_pages::Resource) -> bool,
) -> Vec<Candidate<'_>> {
    resources
        .iter()
        .filter(|r| keep(r))
        .map(candidate)
        .collect()
}

/// The server's offline crawls, with the URL set of every crawl after the
/// first built once per [`resolve`] call and shared by the root and every
/// iframe scope.
pub(crate) struct Crawls<'p> {
    /// The first crawl's resources: the candidates, in document order.
    first: &'p [vroom_pages::Resource],
    later: Vec<HashSet<&'p Url>>,
}

impl<'p> Crawls<'p> {
    pub(crate) fn new(loads: &'p [Page]) -> Self {
        let mut loads = loads.iter();
        let first = loads
            .next()
            .map(|p| p.resources.as_slice())
            .unwrap_or_default();
        Crawls {
            first,
            later: loads
                .map(|p| p.resources.iter().map(|r| &r.url).collect())
                .collect(),
        }
    }

    /// URLs present in *all* offline loads, within the scope `keep`
    /// (evaluated on the first load's resources; node identity is
    /// positional, but matching is by URL — a rotated URL simply fails the
    /// intersection).
    pub(crate) fn intersection(
        &self,
        keep: impl Fn(&vroom_pages::Resource) -> bool,
    ) -> Vec<Candidate<'p>> {
        candidates(self.first, |r| {
            keep(r) && self.later.iter().all(|set| set.contains(&r.url))
        })
    }
}

/// Add the markup-visible children of `html_id` from the served bytes,
/// skipping URLs already hinted.
fn merge_online<'p>(hints: &mut Vec<Candidate<'p>>, client_page: &'p Page, html_id: ResourceId) {
    let mut seen: HashSet<&Url> = hints.iter().map(|h| h.1).collect();
    for child in client_page.children(html_id) {
        if child.via_markup && seen.insert(&child.url) {
            hints.push(candidate(child));
        }
    }
}

/// Order by (tier, document position) — the order the client must process
/// them (§5.1) — and drop repeats of a URL. Sorting and dedup happen on the
/// real URLs, so the emitted order (and therefore the client's staged fetch
/// order) does not depend on intern history.
fn finish(mut hints: Vec<Candidate<'_>>) -> Vec<UrlHint<'_>> {
    hints.sort_by(|a, b| a.0.cmp(&b.0).then(a.3.cmp(&b.3)).then(a.1.cmp(b.1)));
    hints.dedup_by(|a, b| a.1 == b.1);
    hints
        .into_iter()
        .map(|(tier, url, size_hint, _)| UrlHint {
            url,
            tier,
            size_hint,
        })
        .collect()
}

/// The iframe documents of a page.
pub fn embedded_htmls(page: &Page) -> Vec<ResourceId> {
    page.resources
        .iter()
        .filter(|r| r.id != 0 && r.kind == vroom_html::ResourceKind::Html)
        .map(|r| r.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vroom_pages::{SiteProfile, Stability};

    fn setup() -> (PageGenerator, LoadContext, Page) {
        let generator = PageGenerator::new(SiteProfile::news(), 1234);
        let ctx = LoadContext {
            hours: 2000.0,
            user_id: 7,
            device: DeviceClass::PhoneLarge,
            nonce: 99,
        };
        let page = generator.snapshot(&ctx);
        (generator, ctx, page)
    }

    fn input<'g>(generator: &'g PageGenerator, ctx: &LoadContext) -> ResolverInput<'g> {
        ResolverInput::new(generator, ctx.hours, ctx.device, 555)
    }

    fn run(
        generator: &PageGenerator,
        ctx: &LoadContext,
        page: &Page,
        strategy: Strategy,
    ) -> (UrlTable, BTreeMap<UrlId, Vec<Hint>>) {
        let mut urls = UrlTable::new();
        let deps = resolve(&input(generator, ctx), page, strategy).intern(&mut urls);
        (urls, deps)
    }

    fn hints_for<'a>(
        urls: &UrlTable,
        deps: &'a BTreeMap<UrlId, Vec<Hint>>,
        url: &Url,
    ) -> &'a [Hint] {
        &deps[&urls.lookup(url).expect("html url interned")]
    }

    #[test]
    fn vroom_hints_cover_most_stable_resources() {
        let (generator, ctx, page) = setup();
        let (urls, deps) = run(&generator, &ctx, &page, Strategy::Vroom);
        let root_hints = hints_for(&urls, &deps, &page.url);
        let hinted: BTreeSet<&Url> = root_hints.iter().map(|h| urls.get(h.url)).collect();
        let stable_main: Vec<&vroom_pages::Resource> = page
            .resources
            .iter()
            .filter(|r| r.id != 0 && r.iframe_root.is_none() && r.stability == Stability::Stable)
            .collect();
        let missed = stable_main
            .iter()
            .filter(|r| !hinted.contains(&r.url))
            .count();
        assert_eq!(
            missed, 0,
            "every permanently-stable main-page resource must be hinted"
        );
    }

    #[test]
    fn vroom_excludes_iframe_descendants_from_root_hints() {
        let (generator, ctx, page) = setup();
        let (urls, deps) = run(&generator, &ctx, &page, Strategy::Vroom);
        let root_hints = hints_for(&urls, &deps, &page.url);
        let iframe_urls: BTreeSet<&Url> = page
            .resources
            .iter()
            .filter(|r| r.iframe_root.is_some())
            .map(|r| &r.url)
            .collect();
        assert!(
            root_hints
                .iter()
                .all(|h| !iframe_urls.contains(urls.get(h.url))),
            "iframe-derived deps belong to the iframe's own server"
        );
        // But the iframes' own responses do carry hints for their subtrees.
        let frames = embedded_htmls(&page);
        assert!(!frames.is_empty());
        let covered = frames.iter().any(|&f| {
            urls.lookup(&page.resources[f].url)
                .and_then(|id| deps.get(&id))
                .map(|hs| !hs.is_empty())
                .unwrap_or(false)
        });
        assert!(covered, "iframe servers hint their own content");
    }

    #[test]
    fn vroom_never_hints_perload_urls_it_cannot_know() {
        let (generator, ctx, page) = setup();
        let (urls, deps) = run(&generator, &ctx, &page, Strategy::Vroom);
        let all_hinted: Vec<&Hint> = deps.values().flatten().collect();
        for r in &page.resources {
            if r.stability == Stability::PerLoadRandom {
                assert!(
                    all_hinted.iter().all(|h| urls.get(h.url) != &r.url),
                    "per-load URL {} cannot be predicted",
                    r.url
                );
            }
        }
    }

    #[test]
    fn online_component_catches_fresh_markup_content() {
        let (generator, ctx, page) = setup();
        let (vurls, vroom) = run(&generator, &ctx, &page, Strategy::Vroom);
        let (ourls, offline) = run(&generator, &ctx, &page, Strategy::OfflineOnly);
        let vroom_root: BTreeSet<&Url> = hints_for(&vurls, &vroom, &page.url)
            .iter()
            .map(|h| vurls.get(h.url))
            .collect();
        let offline_root: BTreeSet<&Url> = hints_for(&ourls, &offline, &page.url)
            .iter()
            .map(|h| ourls.get(h.url))
            .collect();
        // Flux children in the markup that rotated recently are missed by
        // offline-only but present in Vroom's online component.
        let caught_online: Vec<&vroom_pages::Resource> = page
            .children(0)
            .filter(|r| r.via_markup && !offline_root.contains(&r.url))
            .collect();
        assert!(
            !caught_online.is_empty(),
            "news pages rotate content hourly; something must be fresh"
        );
        for r in &caught_online {
            assert!(
                vroom_root.contains(&r.url),
                "online analysis must catch fresh markup URL {}",
                r.url
            );
        }
    }

    #[test]
    fn hints_are_ordered_by_tier_then_position() {
        let (generator, ctx, page) = setup();
        let (urls, deps) = run(&generator, &ctx, &page, Strategy::Vroom);
        let hints = hints_for(&urls, &deps, &page.url);
        let tiers: Vec<u8> = hints.iter().map(|h| h.tier).collect();
        let mut sorted = tiers.clone();
        sorted.sort_unstable();
        assert_eq!(tiers, sorted, "hints must be tier-ordered");
        assert!(hints.iter().any(|h| h.tier == 0));
        assert!(hints.iter().any(|h| h.tier == 2));
    }

    #[test]
    fn previous_load_includes_stale_and_random_urls() {
        let (generator, ctx, page) = setup();
        let (urls, deps) = run(&generator, &ctx, &page, Strategy::PreviousLoad);
        let hints = hints_for(&urls, &deps, &page.url);
        let current: BTreeSet<&Url> = page.resources.iter().map(|r| &r.url).collect();
        let stale = hints
            .iter()
            .filter(|h| !current.contains(urls.get(h.url)))
            .count();
        assert!(
            stale > 0,
            "a raw previous load must contain URLs the client will never fetch"
        );
    }

    #[test]
    fn online_only_tracks_current_load_closely_but_not_exactly() {
        let (generator, ctx, page) = setup();
        let (urls, deps) = run(&generator, &ctx, &page, Strategy::OnlineOnly);
        let hints = hints_for(&urls, &deps, &page.url);
        let current: BTreeSet<&Url> = page.resources.iter().map(|r| &r.url).collect();
        let (good, bad): (Vec<&Hint>, Vec<&Hint>) = hints
            .iter()
            .partition(|h| current.contains(urls.get(h.url)));
        assert!(good.len() > bad.len() * 2, "mostly accurate");
        assert!(
            !bad.is_empty(),
            "the fresh crawl's own nonce must produce mismatched random URLs"
        );
    }

    #[test]
    fn offline_loads_are_built_once_over_the_constructor_window() {
        let (generator, ctx, _) = setup();
        let urls =
            |page: &Page| -> Vec<Url> { page.resources.iter().map(|r| r.url.clone()).collect() };
        let windowed =
            ResolverInput::with_crawl_offsets(&generator, ctx.hours, ctx.device, 555, vec![1, 4]);
        let first = windowed.offline_loads();
        assert_eq!(
            windowed.offline_loads().as_ptr(),
            first.as_ptr(),
            "a second call reads the pages the first one built"
        );
        assert_eq!(first.len(), 2, "one crawl per offset");
        for (page, k) in first.iter().zip([1u64, 4]) {
            let crawl = generator.snapshot(&LoadContext {
                hours: ctx.hours - k as f64,
                user_id: CRAWLER_USER,
                device: ctx.device,
                nonce: mix(555, 0x0F_F11E ^ k),
            });
            assert_eq!(urls(page), urls(&crawl), "the crawl {k} hours back");
        }
        assert_eq!(
            input(&generator, &ctx).offline_loads().len(),
            3,
            "the default window is the hourly crawls 1, 2 and 3 hours back"
        );
    }

    /// `PreviousLoad` hints the crawl an hour back, reusing the window's
    /// first crawl when the window starts there.
    #[test]
    fn previous_load_hints_the_crawl_an_hour_back_for_any_window() {
        let (generator, ctx, page) = setup();
        let crawl = generator.snapshot(&LoadContext {
            hours: ctx.hours - 1.0,
            user_id: CRAWLER_USER,
            device: ctx.device,
            nonce: mix(555, 0x0F_F11E ^ 1),
        });
        let want = finish(candidates(&crawl.resources, |r| r.id != 0));
        assert!(!want.is_empty());
        for window in [vec![1, 2, 3], vec![2, 3]] {
            let input =
                ResolverInput::with_crawl_offsets(&generator, ctx.hours, ctx.device, 555, window);
            let resolution = resolve(&input, &page, Strategy::PreviousLoad);
            let got = resolution.hints_for(&page.url).expect("root hints");
            assert_eq!(got, want, "window {:?}", input.crawl_offsets);
            let reused = std::ptr::eq(input.previous_load(), &input.offline_loads()[0]);
            assert_eq!(reused, input.crawl_offsets[0] == 1);
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let (generator, ctx, page) = setup();
        let (ua, a) = run(&generator, &ctx, &page, Strategy::Vroom);
        let (ub, b) = run(&generator, &ctx, &page, Strategy::Vroom);
        assert_eq!(ua, ub, "identical runs intern identically");
        assert_eq!(hints_for(&ua, &a, &page.url), hints_for(&ub, &b, &page.url));
    }
}
