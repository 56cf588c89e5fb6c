//! Reference oracle for the resolver and the pass commit.
//!
//! `reference_resolve` is the resolver as it was written before the crawl
//! sets were shared: each scope builds its own `BTreeSet` of every later
//! crawl's URLs, the online merge dedups by a linear scan per child, and
//! every URL is interned into the caller's table as it is emitted.
//! `pass_output` is the pass as it was built from that table, and
//! `reference_commit` interns owned clones of every URL. The production
//! path must agree with all three on every hint list, its order, and
//! every id minted into the caller's table.

use std::collections::{BTreeMap, BTreeSet};

use vroom_browser::config::Hint;
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_pages::{DeviceClass, LoadContext, Page, PageGenerator, ResourceId, SiteProfile};

use crate::batch::{commit_pass_at, hour_bucket, pass_of, run_pass, server_page, PassOutput};
use crate::resolve::{embedded_htmls, resolve, ResolverInput, Strategy};
use crate::store::{HintStore, ShardedStore};

fn reference_resolve(
    input: &ResolverInput<'_>,
    client_page: &Page,
    strategy: Strategy,
    urls: &mut UrlTable,
) -> BTreeMap<UrlId, Vec<Hint>> {
    let mut out = BTreeMap::new();
    match strategy {
        Strategy::Vroom => {
            let offline = input.offline_loads();
            let mut hints =
                offline_intersection_scoped(offline, |r| r.iframe_root.is_none() && r.id != 0);
            merge_online(&mut hints, client_page, 0);
            out.insert(urls.intern(client_page.url.clone()), finish(hints, urls));
            for frame in embedded_htmls(client_page) {
                let mut fh = offline_intersection_scoped(offline, |r| r.iframe_root == Some(frame));
                merge_online(&mut fh, client_page, frame);
                out.insert(
                    urls.intern(client_page.resources[frame].url.clone()),
                    finish(fh, urls),
                );
            }
        }
        Strategy::OfflineOnly => {
            let offline = input.offline_loads();
            let hints =
                offline_intersection_scoped(offline, |r| r.iframe_root.is_none() && r.id != 0);
            out.insert(urls.intern(client_page.url.clone()), finish(hints, urls));
            for frame in embedded_htmls(client_page) {
                let fh = offline_intersection_scoped(offline, |r| r.iframe_root == Some(frame));
                out.insert(
                    urls.intern(client_page.resources[frame].url.clone()),
                    finish(fh, urls),
                );
            }
        }
        Strategy::OnlineOnly => {
            let fresh = input.generator().snapshot(&input.fresh_ctx());
            let hints: Vec<(u8, Url, u64, ResourceId)> = fresh
                .resources
                .iter()
                .filter(|r| r.iframe_root.is_none() && r.id != 0)
                .map(|r| (r.hint_tier(), r.url.clone(), r.size, r.id))
                .collect();
            out.insert(urls.intern(client_page.url.clone()), finish(hints, urls));
            for frame in embedded_htmls(client_page) {
                let fh: Vec<(u8, Url, u64, ResourceId)> = fresh
                    .resources
                    .iter()
                    .filter(|r| r.iframe_root == Some(frame))
                    .map(|r| (r.hint_tier(), r.url.clone(), r.size, r.id))
                    .collect();
                out.insert(
                    urls.intern(client_page.resources[frame].url.clone()),
                    finish(fh, urls),
                );
            }
        }
        Strategy::PreviousLoad => {
            let prev = input.generator().snapshot(&input.crawl_ctx(1));
            let hints: Vec<(u8, Url, u64, ResourceId)> = prev
                .resources
                .iter()
                .filter(|r| r.id != 0)
                .map(|r| (r.hint_tier(), r.url.clone(), r.size, r.id))
                .collect();
            out.insert(urls.intern(client_page.url.clone()), finish(hints, urls));
        }
    }
    out
}

fn offline_intersection_scoped(
    loads: &[Page],
    keep: impl Fn(&vroom_pages::Resource) -> bool,
) -> Vec<(u8, Url, u64, ResourceId)> {
    let later: Vec<BTreeSet<&Url>> = loads[1..]
        .iter()
        .map(|p| p.resources.iter().map(|r| &r.url).collect())
        .collect();
    loads[0]
        .resources
        .iter()
        .filter(|r| keep(r))
        .filter(|r| later.iter().all(|set| set.contains(&r.url)))
        .map(|r| (r.hint_tier(), r.url.clone(), r.size, r.id))
        .collect()
}

fn merge_online(
    hints: &mut Vec<(u8, Url, u64, ResourceId)>,
    client_page: &Page,
    html_id: ResourceId,
) {
    for child in client_page.children(html_id) {
        if child.via_markup && !hints.iter().any(|(_, u, _, _)| *u == child.url) {
            hints.push((child.hint_tier(), child.url.clone(), child.size, child.id));
        }
    }
}

fn finish(mut hints: Vec<(u8, Url, u64, ResourceId)>, urls: &mut UrlTable) -> Vec<Hint> {
    hints.sort_by(|a, b| a.0.cmp(&b.0).then(a.3.cmp(&b.3)).then(a.1.cmp(&b.1)));
    hints.dedup_by(|a, b| a.1 == b.1);
    hints
        .into_iter()
        .map(|(tier, url, size, _)| Hint {
            url: urls.intern(url),
            tier,
            size_hint: size,
        })
        .collect()
}

/// The table-free form of `resolved`, whose ids resolve against `scratch`:
/// entries in document order (root, then iframes by resource id), not id
/// order. A URL two documents share keys one entry, at its first position
/// in the page, with the hints resolved last for it.
fn pass_output(
    page: &Page,
    resolved: &BTreeMap<UrlId, Vec<Hint>>,
    scratch: &UrlTable,
) -> PassOutput {
    let mut order: Vec<UrlId> = Vec::with_capacity(resolved.len());
    if let Some(root) = scratch.lookup(&page.url) {
        if resolved.contains_key(&root) {
            order.push(root);
        }
    }
    for r in &page.resources {
        if let Some(id) = scratch.lookup(&r.url) {
            if resolved.contains_key(&id) && !order.contains(&id) {
                order.push(id);
            }
        }
    }
    let entries = order
        .into_iter()
        .filter_map(|id| {
            let hints = resolved.get(&id)?;
            let html = scratch.url(id)?.clone();
            let targets = hints
                .iter()
                .filter_map(|h| Some((scratch.url(h.url)?.clone(), h.tier, h.size_hint)))
                .collect();
            Some((html, targets))
        })
        .collect();
    PassOutput { entries }
}

/// `commit_pass_at` as it was: one owned clone per URL, one store write
/// per HTML.
fn reference_commit(
    output: &PassOutput,
    store: &dyn HintStore,
    urls: &mut UrlTable,
    bucket: i64,
) -> Vec<UrlId> {
    let mut written = Vec::new();
    for (html, targets) in &output.entries {
        let key = urls.intern(html.clone());
        let hints = targets
            .iter()
            .map(|(url, tier, size_hint)| Hint {
                url: urls.intern(url.clone()),
                tier: *tier,
                size_hint: *size_hint,
            })
            .collect();
        store.put_at(key, hints, bucket);
        written.push(key);
    }
    written
}

const PROFILES: [fn() -> SiteProfile; 4] = [
    SiteProfile::news,
    SiteProfile::sports,
    SiteProfile::top100,
    SiteProfile::top400,
];
const HOURS: [f64; 3] = [2000.0, 2001.5, 2013.0];
const DEVICES: [DeviceClass; 2] = [DeviceClass::PhoneSmall, DeviceClass::PhoneLarge];
const STRATEGIES: [Strategy; 4] = [
    Strategy::Vroom,
    Strategy::OfflineOnly,
    Strategy::OnlineOnly,
    Strategy::PreviousLoad,
];

/// One table per side, shared across the whole grid and seeded with an
/// unrelated URL, so ids depend on everything interned before.
fn seeded_table() -> UrlTable {
    let mut t = UrlTable::new();
    t.intern(Url::https("unrelated.example", "/seed"));
    t
}

/// `page` with the root's non-HTML markup children listed after every
/// other resource: the served bytes order them differently from the
/// crawls, so a URL both the crawls and the markup supply reaches the
/// online merge with a different document position.
fn markup_moved_last(page: &Page) -> Page {
    let mut moved = page.clone();
    let n = moved.resources.len();
    for r in &mut moved.resources {
        if r.parent == Some(0) && r.via_markup && r.kind != vroom_html::ResourceKind::Html {
            r.id += n;
        }
    }
    moved
}

#[test]
fn resolve_matches_the_per_scope_btreeset_reference() {
    let (mut urls, mut ref_urls) = (seeded_table(), seeded_table());
    for (pi, profile) in PROFILES.iter().enumerate() {
        let generator = PageGenerator::new(profile(), 1234 + pi as u64);
        for &hours in &HOURS {
            for device in DEVICES {
                let client = generator.snapshot(&LoadContext {
                    hours,
                    user_id: 7,
                    device,
                    nonce: 99,
                });
                let input = ResolverInput::new(&generator, hours, device, 555);
                for (ci, client) in [markup_moved_last(&client), client].iter().enumerate() {
                    for strategy in STRATEGIES {
                        let got = resolve(&input, client, strategy).intern(&mut urls);
                        let want = reference_resolve(&input, client, strategy, &mut ref_urls);
                        let at = format!("{pi} {hours} {device:?} client {ci} {strategy:?}");
                        assert_eq!(got, want, "hints at {at}");
                        assert!(urls == ref_urls, "table at {at}");
                    }
                }
            }
        }
    }
    assert!(urls.len() > 500, "the grid interns a large shared table");
}

#[test]
fn pass_commit_keys_match_the_reference() {
    let (mut urls, mut ref_urls) = (seeded_table(), seeded_table());
    let (store, ref_store) = (ShardedStore::new(8), ShardedStore::new(8));
    for (pi, profile) in PROFILES.iter().enumerate() {
        let generator = PageGenerator::new(profile(), 4242 + pi as u64);
        for &hours in &HOURS {
            for device in DEVICES {
                let pass = run_pass(&generator, hours, device, 9);
                let bucket = hour_bucket(hours);
                let page = server_page(&generator, bucket as f64, device, 9);
                let input = ResolverInput::new(&generator, bucket as f64, device, 9);
                let mut scratch = UrlTable::new();
                let resolved = reference_resolve(&input, &page, Strategy::Vroom, &mut scratch);
                let ref_pass = pass_output(&page, &resolved, &scratch);
                assert_eq!(pass.entries, ref_pass.entries);

                let keys = commit_pass_at(&pass, &store, &mut urls, bucket);
                let ref_keys = reference_commit(&ref_pass, &ref_store, &mut ref_urls, bucket);
                assert_eq!(keys, ref_keys, "keys at {pi} {hours} {device:?}");
            }
        }
    }
    assert!(urls == ref_urls);
    assert_eq!(store.snapshot_versioned(), ref_store.snapshot_versioned());
}

/// `page` with the URL of HTML document `from` given to document `to`.
fn with_shared_url(page: &Page, from: ResourceId, to: ResourceId) -> Page {
    let mut shared = page.clone();
    shared.resources[to].url = page.resources[from].url.clone();
    shared
}

/// Two HTML documents at one URL: the pass keeps one entry for it, at the
/// first document's position with the last document's hints, as the
/// table-keyed reference does; interning and scoring agree with it too.
#[test]
fn documents_sharing_a_url_match_the_reference() {
    let generator = PageGenerator::new(SiteProfile::news(), 4242);
    let (hours, device) = (2000.0, DeviceClass::PhoneLarge);
    let page = server_page(&generator, hours, device, 9);
    let frames = embedded_htmls(&page);
    assert!(frames.len() >= 3, "a news page embeds several iframes");
    let input = ResolverInput::new(&generator, hours, device, 9);
    let variants = [
        with_shared_url(&page, frames[0], frames[2]),
        with_shared_url(&page, 0, frames[1]),
        page.clone(),
    ];
    for (k, page) in variants.iter().enumerate() {
        let (mut urls, mut ref_urls) = (seeded_table(), seeded_table());
        let resolution = resolve(&input, page, Strategy::Vroom);
        let want = reference_resolve(&input, page, Strategy::Vroom, &mut ref_urls);
        assert_eq!(resolution.intern(&mut urls), want, "variant {k}");
        assert!(urls == ref_urls, "table of variant {k}");

        let pass = pass_of(&resolution);
        let ref_pass = pass_output(page, &want, &ref_urls);
        assert_eq!(pass.entries, ref_pass.entries, "pass of variant {k}");
        assert_eq!(pass.entries.len(), frames.len() + usize::from(k == 2));

        let root = resolution.hints_for(&page.url).expect("root hints");
        let ref_root = &want[&ref_urls.lookup(&page.url).expect("root interned")];
        let ids: Vec<Hint> = root
            .iter()
            .map(|h| Hint {
                url: ref_urls.lookup(h.url).expect("hinted url interned"),
                tier: h.tier,
                size_hint: h.size_hint,
            })
            .collect();
        assert_eq!(&ids, ref_root, "root hints of variant {k}");
    }
}
