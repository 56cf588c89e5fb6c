//! One [`System`] per configuration the paper evaluates, and the
//! translation from (site, load context, system) to a browser
//! [`LoadConfig`].
//!
//! This is where the pieces meet: the server-side resolver produces hints,
//! the push policy selects PUSH_PROMISE content, and the client policy picks
//! the scheduler — each combination reproducing one line of the paper's
//! figures.

use std::collections::BTreeMap;
use std::sync::Arc;
use vroom_browser::config::{CacheEntry, FetchPolicy, Hint, HttpVersion, LoadConfig, ServerModel};
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::FaultPlan;
use vroom_pages::{LoadContext, Page};
use vroom_server::push_policy::{select_pushes, PushPolicy};
use vroom_server::resolve::{Resolution, Strategy};

/// Every system in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Status quo: HTTP/1.1 everywhere ("Loads from Web").
    Http1,
    /// HTTP/2 baseline: multiplexing, no push, no hints.
    Http2,
    /// First party pushes all static content it hosts; no hints (Fig 3).
    PushAllStatic,
    /// Polaris-style fine-grained dependency tracking on the client
    /// (Figs 2/14): scripts no longer stall document parsing.
    PolarisLike,
    /// Full Vroom: hints + high-priority local push + staged scheduling +
    /// ordered serving (§4, §5).
    Vroom,
    /// Vroom adopted only by the first-party organization (§6.1).
    VroomFirstPartyOnly,
    /// Vroom's resolver but hints are everything from one prior load
    /// (Fig 17).
    VroomStaleDeps,
    /// Push high-priority local content, no dependency hints (Fig 18).
    PushHighPriorityNoHints,
    /// Push everything local, no dependency hints (Fig 18).
    PushAllNoHints,
    /// Push everything, fetch everything on discovery — the §4.3 strawman
    /// (Figs 11/19).
    PushAllFetchAsap,
    /// The Vroom + Polaris hybrid sketched as future work in §6.1:
    /// server-aided discovery plus fine-grained client-side dependency
    /// tracking for the unpredictable remainder.
    VroomPolarisHybrid,
    /// Network-bound lower bound: fetch everything, evaluate nothing (§2).
    NetworkBound,
    /// CPU-bound lower bound: evaluate everything, fetch for free (§2).
    CpuBound,
}

impl System {
    /// Every system, in declaration order.
    pub const ALL: [System; 13] = [
        System::Http1,
        System::Http2,
        System::PushAllStatic,
        System::PolarisLike,
        System::Vroom,
        System::VroomFirstPartyOnly,
        System::VroomStaleDeps,
        System::PushHighPriorityNoHints,
        System::PushAllNoHints,
        System::PushAllFetchAsap,
        System::VroomPolarisHybrid,
        System::NetworkBound,
        System::CpuBound,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            System::Http1 => "HTTP/1.1",
            System::Http2 => "HTTP/2 Baseline",
            System::PushAllStatic => "Push All Static",
            System::PolarisLike => "Polaris",
            System::Vroom => "Vroom",
            System::VroomFirstPartyOnly => "Vroom (first party only)",
            System::VroomStaleDeps => "Deps from Previous Load",
            System::PushHighPriorityNoHints => "Push High Priority, No Hints",
            System::PushAllNoHints => "Push All, No Hints",
            System::PushAllFetchAsap => "Push All, Fetch ASAP",
            System::VroomPolarisHybrid => "Vroom + Polaris (hybrid)",
            System::NetworkBound => "Network Bottleneck",
            System::CpuBound => "CPU Bottleneck",
        }
    }

    /// The strategy whose resolution this system's servers hint and push
    /// from, or `None` for the systems without server-side dependency
    /// resolution.
    pub(crate) fn strategy(self) -> Option<Strategy> {
        match self {
            System::VroomStaleDeps => Some(Strategy::PreviousLoad),
            System::Vroom
            | System::VroomFirstPartyOnly
            | System::VroomPolarisHybrid
            | System::PushAllStatic
            | System::PushHighPriorityNoHints
            | System::PushAllNoHints
            | System::PushAllFetchAsap => Some(Strategy::Vroom),
            System::Http1
            | System::Http2
            | System::PolarisLike
            | System::NetworkBound
            | System::CpuBound => None,
        }
    }
}

/// One strategy's resolution of a page, interned once into a table of its
/// own. Every config built from it shares the table and the hint lists by
/// `Arc`; [`apply_fault_plan`] copies them on write, so no load can change
/// what another load reads.
#[derive(Debug)]
pub(crate) struct SharedResolution {
    urls: Arc<UrlTable>,
    hints: BTreeMap<UrlId, Arc<Vec<Hint>>>,
}

impl SharedResolution {
    /// Intern `resolution` into a fresh table.
    pub(crate) fn new(resolution: &Resolution) -> Self {
        let mut urls = UrlTable::new();
        let hints = resolution.intern(&mut urls);
        SharedResolution {
            urls: Arc::new(urls),
            hints: hints.into_iter().map(|(id, h)| (id, Arc::new(h))).collect(),
        }
    }
}

/// Build the browser configuration for loading under `system` on the
/// device `ctx` names. A system with a [`System::strategy`] hints and
/// pushes from `resolved(strategy)`, the page's resolution under it;
/// `first_party` is the site's first-party domain.
pub(crate) fn build_config<'r>(
    system: System,
    ctx: &LoadContext,
    first_party: &str,
    resolved: impl FnOnce(Strategy) -> &'r SharedResolution,
) -> LoadConfig {
    let mut cfg = LoadConfig {
        cpu_factor: ctx.device.cpu_factor(),
        ..LoadConfig::http2_baseline()
    };
    let Some(strategy) = system.strategy() else {
        match system {
            System::Http1 => cfg.http = HttpVersion::H1,
            System::PolarisLike => cfg.fine_grained_dependencies = true,
            System::NetworkBound => cfg.network_bound = true,
            System::CpuBound => cfg.zero_network = true,
            _ => {}
        }
        return cfg;
    };
    let resolved = resolved(strategy);

    // First-party-only Vroom serves hints and pushes from the first
    // party's own documents alone.
    let first_party = (system == System::VroomFirstPartyOnly)
        .then(|| Url::parse(&format!("https://{first_party}/")).expect("valid first-party url"));
    let push_policy = match system {
        System::Vroom
        | System::VroomFirstPartyOnly
        | System::VroomStaleDeps
        | System::VroomPolarisHybrid
        | System::PushHighPriorityNoHints => PushPolicy::HighPriorityLocal,
        System::PushAllNoHints | System::PushAllFetchAsap | System::PushAllStatic => {
            PushPolicy::AllLocal
        }
        _ => PushPolicy::None,
    };
    let hints_enabled = !matches!(
        system,
        System::PushAllStatic | System::PushHighPriorityNoHints | System::PushAllNoHints
    );
    let urls = &resolved.urls;
    let mut server = ServerModel::default();
    for (&html_id, hints) in &resolved.hints {
        let html_url = urls.get(html_id);
        if first_party
            .as_ref()
            .is_some_and(|fp| !html_url.same_site(fp))
        {
            continue;
        }
        let pushes = select_pushes(push_policy, &html_url.host, hints, urls);
        if !pushes.is_empty() {
            server.pushes.insert(html_id, pushes);
        }
        if hints_enabled {
            server.hints.insert(html_id, Arc::clone(hints));
        }
    }
    cfg.urls = Arc::clone(urls);
    cfg.server = server;
    cfg.fetch_policy = match system {
        System::Vroom
        | System::VroomFirstPartyOnly
        | System::VroomStaleDeps
        | System::VroomPolarisHybrid => FetchPolicy::VroomStaged,
        _ => FetchPolicy::OnDiscovery,
    };
    cfg.fine_grained_dependencies = system == System::VroomPolarisHybrid;
    // Vroom relies on the modified replay server that returns responses in
    // request order (§5.1); the strawmen and push-only variants run against
    // stock multiplexing.
    cfg.ordered_responses = matches!(
        system,
        System::Vroom
            | System::VroomFirstPartyOnly
            | System::VroomStaleDeps
            | System::VroomPolarisHybrid
    );
    cfg
}

/// A warm HTTP cache produced by loading `page` previously, `age_hours` ago.
pub fn cache_from_prior_load(prior: &Page, age_hours: f64) -> BTreeMap<Url, CacheEntry> {
    let age = vroom_sim::SimDuration::from_secs_f64(age_hours * 3600.0);
    prior
        .resources
        .iter()
        .filter_map(|r| {
            r.max_age
                .map(|max_age| (r.url.clone(), CacheEntry { age, max_age }))
        })
        .collect()
}

/// Hint-corruption rate at or above which the client stops trusting the
/// server's dependency metadata entirely: the whole hint set and push set
/// are discarded and the load degrades to a plain (discovery-driven) HTTP/2
/// load rather than chasing a majority-bogus manifest.
pub const HINT_DISCARD_THRESHOLD: f64 = 0.5;

/// Thread an injected [`FaultPlan`] through a built config — the
/// degradation rules of the fault model:
///
/// * corruption below [`HINT_DISCARD_THRESHOLD`]: each corrupted hint (and
///   push) is replaced by a stale same-host URL, so the client wastes that
///   download exactly like Fig 17's deps-from-previous-load entries;
/// * corruption at/above the threshold: hints and pushes are discarded
///   wholesale (trust nothing, fall back to parser-driven discovery);
/// * the network-level knobs (outages, drops, truncations) ride along in
///   `cfg.fault` for the browser engine.
pub fn apply_fault_plan(cfg: &mut LoadConfig, plan: &FaultPlan) {
    if !plan.is_active() {
        return;
    }
    if plan.hint_corruption >= HINT_DISCARD_THRESHOLD {
        cfg.server.hints.clear();
        cfg.server.pushes.clear();
    } else if plan.hint_corruption > 0.0 {
        // Split borrows: the hint/push maps and the intern table are
        // disjoint fields, and corrupted entries must intern their stale
        // replacement URLs into the same table the config resolves against.
        // The table may be shared (fleet loads resolve against the
        // server's one table, a `SiteLoad`'s configs against its
        // resolution's), so corruption pays a copy-on-write clone — only
        // faulted loads take this branch.
        let urls = Arc::make_mut(&mut cfg.urls);
        for (&html_id, hints) in cfg.server.hints.iter_mut() {
            // Hint lists may be shared with a fleet's store or a
            // `SiteLoad`'s resolution: corrupt a private copy.
            let hints = Arc::make_mut(hints);
            let html = urls.get(html_id).to_string();
            for (i, h) in hints.iter_mut().enumerate() {
                if plan.corrupt_hint(&html, i) {
                    let host = urls.get(h.url).host.clone();
                    h.url = urls.intern(stale_url(&host, i));
                }
            }
        }
        for (&html_id, pushes) in cfg.server.pushes.iter_mut() {
            let html = urls.get(html_id).to_string();
            for (i, p) in pushes.iter_mut().enumerate() {
                // Decouple the push rolls from the hint rolls: the lists
                // overlap but corruption should hit them independently.
                if plan.corrupt_hint(&html, i + 0x1_0000) {
                    // Pushes must stay same-domain as their HTML
                    // (integrity rule), which the hint URL's host preserves.
                    let host = urls.get(p.url).host.clone();
                    p.url = urls.intern(stale_url(&host, i));
                }
            }
        }
    }
    cfg.fault = plan.clone();
}

/// A URL the current page does not contain: fetching it wastes the bytes.
fn stale_url(host: &str, index: usize) -> Url {
    Url::parse(&format!("https://{host}/stale/corrupt-{index}.bin")).expect("valid stale url")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::SiteLoad;
    use vroom_pages::{PageGenerator, SiteProfile};

    fn generator() -> PageGenerator {
        PageGenerator::new(SiteProfile::news(), 2024)
    }

    fn load(generator: &PageGenerator) -> SiteLoad<'_> {
        SiteLoad::new(generator, &LoadContext::reference(), 1)
    }

    #[test]
    fn baselines_have_no_server_aid() {
        let generator = generator();
        let load = load(&generator);
        for system in [System::Http1, System::Http2, System::PolarisLike] {
            let cfg = load.config(system);
            assert!(cfg.server.hints.is_empty(), "{system:?}");
            assert!(cfg.server.pushes.is_empty(), "{system:?}");
        }
    }

    #[test]
    fn vroom_has_hints_and_same_domain_pushes() {
        let generator = generator();
        let cfg = load(&generator).config(System::Vroom);
        assert!(!cfg.server.hints.is_empty());
        assert!(cfg.ordered_responses);
        assert_eq!(cfg.fetch_policy, FetchPolicy::VroomStaged);
        for (&html_id, pushes) in &cfg.server.pushes {
            for p in pushes {
                assert_eq!(
                    cfg.urls.get(p.url).host,
                    cfg.urls.get(html_id).host,
                    "a server can only push what it hosts"
                );
                assert_eq!(p.tier, 0, "Vroom pushes only high-priority content");
            }
        }
    }

    #[test]
    fn push_only_variants_have_no_hints() {
        let generator = generator();
        let load = load(&generator);
        for system in [System::PushHighPriorityNoHints, System::PushAllNoHints] {
            let cfg = load.config(system);
            assert!(cfg.server.hints.is_empty(), "{system:?}");
            assert!(!cfg.server.pushes.is_empty(), "{system:?}");
        }
        let all = load.config(System::PushAllNoHints);
        let hi = load.config(System::PushHighPriorityNoHints);
        let count = |c: &LoadConfig| c.server.pushes.values().map(|v| v.len()).sum::<usize>();
        assert!(
            count(&all) > count(&hi),
            "push-all pushes more than push-hi"
        );
    }

    #[test]
    fn first_party_only_drops_third_party_hints() {
        let generator = generator();
        let load = load(&generator);
        let full = load.config(System::Vroom);
        let partial = load.config(System::VroomFirstPartyOnly);
        assert!(partial.server.hints.len() <= full.server.hints.len());
        let fp = generator.first_party().to_string();
        for &id in partial.server.hints.keys() {
            let url = partial.urls.get(id);
            assert!(
                url.host == fp || url.host.ends_with(&format!(".{fp}")) || {
                    let f = Url::https(fp.clone(), "/");
                    url.same_site(&f)
                },
                "non-first-party HTML {url} must not carry hints"
            );
        }
    }

    #[test]
    fn stale_deps_hint_urls_not_in_current_load() {
        let generator = generator();
        let load = load(&generator);
        let cfg = load.config(System::VroomStaleDeps);
        let current = load.page().url_set();
        let stale = cfg
            .server
            .hints
            .values()
            .flat_map(|hints| hints.iter())
            .filter(|h| !current.contains(cfg.urls.get(h.url)))
            .count();
        assert!(stale > 0, "a previous load must contain stale URLs");
    }

    #[test]
    fn warm_cache_reflects_max_age() {
        let page = generator().snapshot(&LoadContext::reference());
        let cache = cache_from_prior_load(&page, 24.0);
        assert!(!cache.is_empty());
        let fresh = cache.values().filter(|e| e.fresh()).count();
        let stale = cache.len() - fresh;
        assert!(fresh > 0, "long-lived entries survive a day");
        assert!(stale > 0, "short-lived entries expire within a day");
    }

    #[test]
    fn lower_bound_configs() {
        let generator = generator();
        let load = load(&generator);
        let net = load.config(System::NetworkBound);
        assert!(net.network_bound);
        let cpu = load.config(System::CpuBound);
        assert!(cpu.zero_network);
    }
}
