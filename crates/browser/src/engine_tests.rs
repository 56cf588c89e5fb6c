//! Behavioural tests of the browser engine, on both hand-built mini pages
//! and generated corpora.

use crate::config::*;
use crate::engine::{BrowserEngine, EngineScratch};
use crate::metrics::LoadResult;
use std::collections::BTreeMap;
use std::sync::Arc;
use vroom_html::{ExecMode, ResourceKind, Url};
use vroom_intern::UrlTable;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{LoadContext, Page, PageGenerator, Resource, SiteProfile, Stability};
use vroom_sim::SimDuration;

/// A small deterministic page:
/// root (a.com) → style.css (b.com), foo.js sync (a.com), hero.jpg (a.com),
/// foo.js → img.jpg (b.com)   [the paper's Figure 5 shape]
fn fig5_page() -> Page {
    let mk = |id: usize,
              url: Url,
              kind: ResourceKind,
              size: u64,
              cpu_ms: u64,
              parent: Option<usize>,
              frac: f64,
              exec: ExecMode,
              via_markup: bool| Resource {
        id,
        url,
        kind,
        size,
        cpu_cost: SimDuration::from_millis(cpu_ms),
        parent,
        discovery_frac: frac,
        exec,
        iframe_root: None,
        above_fold: kind == ResourceKind::Image || kind == ResourceKind::Css,
        visual_weight: if kind == ResourceKind::Image {
            1.0
        } else {
            0.1
        },
        max_age: Some(SimDuration::from_secs(3600)),
        stability: Stability::Stable,
        via_markup,
    };
    let root = Url::https("a.com", "/");
    Page {
        url: root.clone(),
        resources: vec![
            mk(
                0,
                root,
                ResourceKind::Html,
                40_000,
                200,
                None,
                0.0,
                ExecMode::Sync,
                true,
            ),
            mk(
                1,
                Url::https("b.com", "/style.css"),
                ResourceKind::Css,
                20_000,
                30,
                Some(0),
                0.1,
                ExecMode::Sync,
                true,
            ),
            mk(
                2,
                Url::https("a.com", "/foo.js"),
                ResourceKind::Js,
                30_000,
                120,
                Some(0),
                0.3,
                ExecMode::Sync,
                true,
            ),
            mk(
                3,
                Url::https("a.com", "/hero.jpg"),
                ResourceKind::Image,
                200_000,
                10,
                Some(0),
                0.5,
                ExecMode::Sync,
                true,
            ),
            mk(
                4,
                Url::https("b.com", "/img.jpg"),
                ResourceKind::Image,
                80_000,
                5,
                Some(2),
                1.0,
                ExecMode::Sync,
                false,
            ),
        ],
    }
}

fn lte() -> NetworkProfile {
    NetworkProfile::lte()
}

fn load(page: &Page, cfg: &LoadConfig) -> LoadResult {
    BrowserEngine::load(page, &lte(), cfg)
}

/// Vroom-style hints derived from ground truth (the core crate derives them
/// from the server resolver; tests use the oracle). Returns the intern table
/// the model's ids resolve against alongside the model itself.
fn oracle_hints(page: &Page) -> (UrlTable, ServerModel) {
    oracle_hints_into(page, UrlTable::new())
}

/// [`oracle_hints`], interned after whatever `urls` already holds.
fn oracle_hints_into(page: &Page, mut urls: UrlTable) -> (UrlTable, ServerModel) {
    let mut hints: Vec<Hint> = page
        .resources
        .iter()
        .skip(1)
        .map(|r| Hint {
            url: urls.intern(r.url.clone()),
            tier: r.hint_tier(),
            size_hint: r.size,
        })
        .collect();
    hints.sort_by_key(|h| h.tier);
    let mut m = ServerModel::default();
    m.hints
        .insert(urls.intern(page.url.clone()), Arc::new(hints));
    (urls, m)
}

#[test]
fn loads_complete_under_all_http_versions() {
    let page = fig5_page();
    for cfg in [LoadConfig::http1_baseline(), LoadConfig::http2_baseline()] {
        let r = load(&page, &cfg);
        assert!(r.plt > SimDuration::ZERO);
        assert!(r.resources.iter().all(|t| t.processed.is_some()));
        assert_eq!(r.useful_bytes, page.total_bytes());
        assert_eq!(r.wasted_bytes, 0);
    }
}

#[test]
fn determinism() {
    let page = fig5_page();
    let a = load(&page, &LoadConfig::http2_baseline());
    let b = load(&page, &LoadConfig::http2_baseline());
    assert_eq!(a.plt, b.plt);
    assert_eq!(a.speed_index, b.speed_index);
    for (x, y) in a.resources.iter().zip(&b.resources) {
        assert_eq!(x.fetched, y.fetched);
    }
}

#[test]
fn cpu_bound_lower_bound_tracks_total_cpu() {
    let page = fig5_page();
    let cfg = LoadConfig {
        zero_network: true,
        ..LoadConfig::default()
    };
    let r = load(&page, &cfg);
    // All fetches instant: PLT == serialized main-thread CPU. Image/font
    // decodes run off the main thread and overlap, so only resources that
    // need processing count.
    let main_thread_cpu = page
        .resources
        .iter()
        .filter(|res| res.needs_processing())
        .fold(SimDuration::ZERO, |acc, res| acc + res.cpu_cost);
    assert_eq!(r.plt.as_millis(), main_thread_cpu.as_millis());
    assert_eq!(r.network_wait, SimDuration::ZERO);
    assert!(r.resources.iter().all(|t| t.processed.is_some()));
}

#[test]
fn network_bound_lower_bound_tracks_bytes_over_bandwidth() {
    let page = fig5_page();
    let cfg = LoadConfig {
        network_bound: true,
        ..LoadConfig::default()
    };
    let r = load(&page, &cfg);
    let transfer =
        SimDuration::from_secs_f64(page.total_bytes() as f64 * 8.0 / lte().downlink_bps as f64);
    // PLT ≈ handshake + transfer (+RTT); must be within ~3 RTT of the floor.
    assert!(r.plt >= transfer, "plt {} < floor {transfer}", r.plt);
    assert!(
        r.plt < transfer + SimDuration::from_millis(700),
        "plt {} too far above floor {transfer}",
        r.plt
    );
    assert!(r.cpu_busy == SimDuration::ZERO);
}

#[test]
fn h2_beats_h1_on_real_pages() {
    let page = PageGenerator::new(SiteProfile::news(), 42).snapshot(&LoadContext::reference());
    let h1 = load(&page, &LoadConfig::http1_baseline());
    let h2 = load(&page, &LoadConfig::http2_baseline());
    assert!(h2.plt < h1.plt, "H2 {} should beat H1 {}", h2.plt, h1.plt);
}

#[test]
fn hints_accelerate_discovery_and_load() {
    let page = PageGenerator::new(SiteProfile::news(), 43).snapshot(&LoadContext::reference());
    let base = load(&page, &LoadConfig::http2_baseline());
    let (urls, server) = oracle_hints(&page);
    let cfg = LoadConfig {
        urls: Arc::new(urls),
        server,
        fetch_policy: FetchPolicy::VroomStaged,
        ..LoadConfig::default()
    };
    let vroom = load(&page, &cfg);
    assert!(
        vroom.discovery_all < base.discovery_all,
        "vroom discovery {} vs base {}",
        vroom.discovery_all,
        base.discovery_all
    );
    assert!(
        vroom.plt < base.plt,
        "vroom plt {} vs base {}",
        vroom.plt,
        base.plt
    );
    assert!(vroom.network_wait_frac() < base.network_wait_frac());
}

#[test]
fn push_delivers_without_request() {
    let page = fig5_page();
    let mut urls = UrlTable::new();
    let mut server = ServerModel::default();
    // a.com pushes foo.js (same-domain) with the root HTML.
    server.pushes.insert(
        urls.intern(page.url.clone()),
        vec![Hint {
            url: urls.intern(Url::https("a.com", "/foo.js")),
            tier: 0,
            size_hint: 30_000,
        }],
    );
    let cfg = LoadConfig {
        urls: Arc::new(urls),
        server,
        // Vroom serves responses in order, so the push rides right behind
        // the HTML instead of contending with it.
        ordered_responses: true,
        ..LoadConfig::default()
    };
    let r = load(&page, &cfg);
    assert!(r.resources[2].pushed, "foo.js must arrive via push");
    let base = load(&page, &LoadConfig::http2_baseline());
    assert!(
        r.resources[2].fetched < base.resources[2].fetched,
        "push arrives earlier: {} vs {}",
        r.resources[2].fetched,
        base.resources[2].fetched
    );
    assert!(r.plt <= base.plt);
}

#[test]
fn false_positive_hints_waste_bytes_and_slow_the_load() {
    let page = fig5_page();
    let (mut urls, mut server) = oracle_hints(&page);
    // Add junk hints: stale URLs from a "previous load".
    let html_id = urls.lookup(&page.url).unwrap();
    for i in 0..12 {
        let stale = urls.intern(Url::https("a.com", format!("/stale-{i}.jpg")));
        Arc::make_mut(server.hints.get_mut(&html_id).unwrap()).push(Hint {
            url: stale,
            tier: 0,
            size_hint: 150_000,
        });
    }
    let (clean_urls, clean_server) = oracle_hints(&page);
    let clean = load(
        &page,
        &LoadConfig {
            urls: Arc::new(clean_urls),
            server: clean_server,
            fetch_policy: FetchPolicy::VroomStaged,
            ..LoadConfig::default()
        },
    );
    let dirty = load(
        &page,
        &LoadConfig {
            urls: Arc::new(urls),
            server,
            fetch_policy: FetchPolicy::VroomStaged,
            ..LoadConfig::default()
        },
    );
    assert_eq!(dirty.wasted_bytes, 12 * 150_000);
    assert_eq!(clean.wasted_bytes, 0);
    assert!(
        dirty.plt > clean.plt,
        "wasted fetches contend: dirty {} vs clean {}",
        dirty.plt,
        clean.plt
    );
}

#[test]
fn warm_cache_speeds_up_loads() {
    let page = PageGenerator::new(SiteProfile::news(), 44).snapshot(&LoadContext::reference());
    let mut cache = BTreeMap::new();
    for r in &page.resources {
        if let Some(max_age) = r.max_age {
            cache.insert(
                r.url.clone(),
                CacheEntry {
                    age: SimDuration::from_secs(60),
                    max_age,
                },
            );
        }
    }
    let cold = load(&page, &LoadConfig::http2_baseline());
    let warm = load(
        &page,
        &LoadConfig {
            warm_cache: cache,
            ..LoadConfig::default()
        },
    );
    assert!(
        warm.cache_hits > page.len() / 4,
        "cache hits {}",
        warm.cache_hits
    );
    assert!(
        warm.plt < cold.plt,
        "warm {} vs cold {}",
        warm.plt,
        cold.plt
    );
    assert!(warm.useful_bytes < cold.useful_bytes);
}

#[test]
fn stale_cache_entries_are_refetched() {
    let page = fig5_page();
    let mut cache = BTreeMap::new();
    cache.insert(
        Url::https("a.com", "/foo.js"),
        CacheEntry {
            age: SimDuration::from_secs(7200),
            max_age: SimDuration::from_secs(3600),
        },
    );
    let r = load(
        &page,
        &LoadConfig {
            warm_cache: cache,
            ..LoadConfig::default()
        },
    );
    assert_eq!(r.cache_hits, 0);
    assert_eq!(r.useful_bytes, page.total_bytes());
}

#[test]
fn sync_script_blocks_parser_async_does_not() {
    // Identical pages except for the script's exec mode. The sync variant
    // must finish later because parsing stalls on the fetch.
    let mut sync_page = fig5_page();
    let mut async_page = fig5_page();
    async_page.resources[2].exec = ExecMode::Async;
    // Make the script slow to fetch so blocking matters.
    sync_page.resources[2].size = 600_000;
    async_page.resources[2].size = 600_000;
    let a = load(&sync_page, &LoadConfig::http2_baseline());
    let b = load(&async_page, &LoadConfig::http2_baseline());
    // img.jpg (child of foo.js) is on the blocking path either way, but the
    // hero image's *decode* happens earlier when the parser isn't stalled.
    let hero_sync = a.resources[3].processed.unwrap();
    let hero_async = b.resources[3].processed.unwrap();
    assert!(
        hero_async < hero_sync,
        "async keeps the parser moving: {hero_async} vs {hero_sync}"
    );
}

#[test]
fn polaris_discovers_earlier_than_h2_baseline() {
    let page = PageGenerator::new(SiteProfile::news(), 45).snapshot(&LoadContext::reference());
    let base = load(&page, &LoadConfig::http2_baseline());
    let polaris = load(
        &page,
        &LoadConfig {
            fine_grained_dependencies: true,
            ..LoadConfig::default()
        },
    );
    assert!(
        polaris.discovery_all <= base.discovery_all,
        "polaris {} vs base {}",
        polaris.discovery_all,
        base.discovery_all
    );
    assert!(polaris.plt < base.plt);
}

#[test]
fn visual_metrics_are_consistent() {
    let page = PageGenerator::new(SiteProfile::news(), 46).snapshot(&LoadContext::reference());
    let r = load(&page, &LoadConfig::http2_baseline());
    assert!(
        r.aft <= r.plt,
        "AFT {} must not exceed PLT {}",
        r.aft,
        r.plt
    );
    assert!(r.speed_index > 0.0);
    assert!(r.speed_index <= r.aft.as_millis_f64() + 1.0);
}

#[test]
fn accounting_adds_up() {
    let page = PageGenerator::new(SiteProfile::news(), 47).snapshot(&LoadContext::reference());
    let r = load(&page, &LoadConfig::http2_baseline());
    assert!(r.cpu_busy <= r.plt);
    assert!(r.network_wait <= r.plt);
    assert!(r.cpu_busy + r.network_wait <= r.plt + SimDuration::from_millis(1));
    assert!(
        r.cpu_utilization() > 0.2,
        "cpu util {}",
        r.cpu_utilization()
    );
    assert!(
        r.network_wait_frac() > 0.05,
        "network wait {}",
        r.network_wait_frac()
    );
    // Every resource: discovered ≤ fetched; processing after fetch.
    for t in &r.resources {
        assert!(t.discovered <= t.fetched);
        if let Some(p) = t.processed {
            assert!(p >= t.fetched);
        }
    }
}

#[test]
fn faster_cpu_reduces_plt_on_cpu_bound_loads() {
    let page = PageGenerator::new(SiteProfile::news(), 48).snapshot(&LoadContext::reference());
    let slow = load(
        &page,
        &LoadConfig {
            cpu_factor: 1.5,
            ..LoadConfig::default()
        },
    );
    let fast = load(
        &page,
        &LoadConfig {
            cpu_factor: 0.5,
            ..LoadConfig::default()
        },
    );
    assert!(fast.plt < slow.plt);
}

#[test]
fn reused_scratch_matches_fresh_scratch_across_dissimilar_loads() {
    // One scratch carried through loads that differ in everything the
    // scratch buffers are sized by — site, page size, fetch policy, hint
    // tables, fault timers — must give each load exactly what a fresh
    // scratch gives it.
    let ctx = LoadContext::reference();
    let news = PageGenerator::new(SiteProfile::news(), 43).snapshot(&ctx);
    let sports = PageGenerator::new(SiteProfile::sports(), 44).snapshot(&ctx);
    let small = fig5_page();
    let (urls, server) = oracle_hints(&news);
    let staged = LoadConfig {
        urls: Arc::new(urls),
        server,
        fetch_policy: FetchPolicy::VroomStaged,
        ..LoadConfig::default()
    };
    let faulted = LoadConfig {
        fault: FaultPlan::from_seed(9, 0.9),
        ..staged.clone()
    };
    assert!(faulted.fault.is_active());
    // The same hints behind ~50k unrelated URLs of a long-lived shared
    // table: the page's ids are large, and the table dwarfs the page.
    let mut padding = UrlTable::new();
    for i in 0..50_000 {
        padding.intern(Url::https("unrelated.example", format!("/pad/{i}")));
    }
    let (urls, server) = oracle_hints_into(&news, padding);
    let padded = LoadConfig {
        urls: Arc::new(urls),
        server,
        fetch_policy: FetchPolicy::VroomStaged,
        ..LoadConfig::default()
    };
    let loads = [
        (&news, &staged),
        (&small, &LoadConfig::http2_baseline()),
        (&news, &padded),
        (&sports, &LoadConfig::http2_baseline()),
        (&news, &faulted),
        (&small, &staged),
        (&sports, &LoadConfig::http1_baseline()),
        (&news, &staged),
    ];
    let mut scratch = EngineScratch::default();
    for (i, (page, cfg)) in loads.into_iter().enumerate() {
        let reused = BrowserEngine::load_with_scratch(page, &lte(), cfg, &mut scratch);
        assert_eq!(
            reused,
            load(page, cfg),
            "load {i} diverged on a reused scratch"
        );
    }
    assert_ne!(
        load(&news, &faulted),
        load(&news, &staged),
        "the fault plan must actually perturb the load"
    );
    assert_eq!(
        load(&news, &padded),
        load(&news, &staged),
        "the size of the shared URL table must not change a load"
    );
}

#[test]
fn duplicate_url_hints_and_pushes_target_the_later_resource() {
    // Built directly: `Page::validate` rejects duplicate URLs, but the
    // engine still has to pick one resource per URL, and the later one
    // wins. Resource 4 (discovered by foo.js) takes hero.jpg's URL.
    let mut page = fig5_page();
    page.resources[4].url = page.resources[3].url.clone();
    let shared = page.resources[3].url.clone();

    let mut urls = UrlTable::new();
    let root = urls.intern(page.url.clone());
    let hint = Hint {
        url: urls.intern(shared),
        tier: 0,
        size_hint: 80_000,
    };
    let mut hinted = ServerModel::default();
    hinted.hints.insert(root, Arc::new(vec![hint]));
    let urls = Arc::new(urls);
    let hints = load(
        &page,
        &LoadConfig {
            urls: Arc::clone(&urls),
            server: hinted,
            ..LoadConfig::default()
        },
    );
    let base = load(&page, &LoadConfig::http2_baseline());
    // foo.js reveals resource 4 only after it runs; the hint reveals it
    // with the root's headers, before foo.js has even been fetched.
    assert!(base.resources[4].discovered > base.resources[2].fetched);
    assert!(hints.resources[4].discovered < hints.resources[2].fetched);
    assert_eq!(
        hints.resources[3].discovered, base.resources[3].discovered,
        "the earlier resource is left to the parser"
    );

    let mut pushing = ServerModel::default();
    pushing.pushes.insert(root, vec![hint]);
    let pushed = load(
        &page,
        &LoadConfig {
            urls,
            server: pushing,
            ordered_responses: true,
            ..LoadConfig::default()
        },
    );
    assert!(
        pushed.resources[4].pushed,
        "the push lands on the later resource"
    );
    assert!(!pushed.resources[3].pushed);
}
