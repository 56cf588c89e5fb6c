//! One [`System`] per configuration the paper evaluates, and the
//! translation from (site, load context, system) to a browser
//! [`LoadConfig`].
//!
//! This is where the pieces meet: the server-side resolver produces hints,
//! the push policy selects PUSH_PROMISE content, and the client policy picks
//! the scheduler — each combination reproducing one line of the paper's
//! figures.

use std::collections::BTreeMap;
use vroom_browser::config::{CacheEntry, FetchPolicy, HttpVersion, LoadConfig, ServerModel};
use vroom_html::Url;
use vroom_intern::UrlTable;
use vroom_net::FaultPlan;
use vroom_pages::{LoadContext, Page, PageGenerator};
use vroom_server::push_policy::{select_pushes, PushPolicy};
use vroom_server::resolve::{resolve, ResolverInput, Strategy};

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

    /// Whether this system needs server-side dependency resolution.
    fn needs_resolver(self) -> bool {
        matches!(
            self,
            System::Vroom
                | System::VroomFirstPartyOnly
                | System::VroomStaleDeps
                | System::VroomPolarisHybrid
                | System::PushAllStatic
                | System::PushHighPriorityNoHints
                | System::PushAllNoHints
                | System::PushAllFetchAsap
        )
    }
}

/// Build the browser configuration for loading `page` under `system` on
/// the device `ctx` names.
pub fn build_config(
    system: System,
    generator: &PageGenerator,
    page: &Page,
    ctx: &LoadContext,
    server_seed: u64,
) -> LoadConfig {
    let mut cfg = LoadConfig {
        cpu_factor: ctx.device.cpu_factor(),
        ..LoadConfig::http2_baseline()
    };
    match system {
        System::Http1 => {
            cfg.http = HttpVersion::H1;
            return cfg;
        }
        System::Http2 => return cfg,
        System::PolarisLike => {
            cfg.fine_grained_dependencies = true;
            return cfg;
        }
        System::NetworkBound => {
            cfg.network_bound = true;
            return cfg;
        }
        System::CpuBound => {
            cfg.zero_network = true;
            return cfg;
        }
        _ => {}
    }
    debug_assert!(system.needs_resolver());

    let strategy = if system == System::VroomStaleDeps {
        Strategy::PreviousLoad
    } else {
        Strategy::Vroom
    };
    let input = ResolverInput::new(generator, ctx.hours, ctx.device, server_seed);
    let mut urls = UrlTable::new();
    let resolved = resolve(&input, page, strategy, &mut urls);

    let first_party = Url::parse(&format!("https://{}/", generator.first_party()))
        .expect("valid first-party url");

    let mut server = ServerModel::default();
    for (&html_id, hints) in &resolved.hints {
        let html_url = urls.get(html_id);
        let vroom_compliant = match system {
            System::VroomFirstPartyOnly => html_url.same_site(&first_party),
            _ => true,
        };
        if !vroom_compliant {
            continue;
        }
        let push_policy = match system {
            System::Vroom
            | System::VroomFirstPartyOnly
            | System::VroomStaleDeps
            | System::VroomPolarisHybrid => PushPolicy::HighPriorityLocal,
            System::PushHighPriorityNoHints => PushPolicy::HighPriorityLocal,
            System::PushAllNoHints | System::PushAllFetchAsap | System::PushAllStatic => {
                PushPolicy::AllLocal
            }
            _ => PushPolicy::None,
        };
        let pushes = select_pushes(push_policy, &html_url.host, hints, &urls);
        if !pushes.is_empty() {
            server.pushes.insert(html_id, pushes);
        }
        let hints_enabled = !matches!(
            system,
            System::PushAllStatic | System::PushHighPriorityNoHints | System::PushAllNoHints
        );
        if hints_enabled {
            server
                .hints
                .insert(html_id, std::sync::Arc::new(hints.clone()));
        }
    }
    cfg.urls = std::sync::Arc::new(urls);
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
        // server's one table), so corruption pays a copy-on-write clone —
        // only faulted loads take this branch.
        let urls = std::sync::Arc::make_mut(&mut cfg.urls);
        for (&html_id, hints) in cfg.server.hints.iter_mut() {
            // Hint lists may be shared with a fleet's store: corrupt a
            // private copy.
            let hints = std::sync::Arc::make_mut(hints);
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
    use vroom_pages::SiteProfile;

    fn setup() -> (PageGenerator, LoadContext, Page) {
        let generator = PageGenerator::new(SiteProfile::news(), 2024);
        let ctx = LoadContext::reference();
        let page = generator.snapshot(&ctx);
        (generator, ctx, page)
    }

    #[test]
    fn baselines_have_no_server_aid() {
        let (generator, ctx, page) = setup();
        for system in [System::Http1, System::Http2, System::PolarisLike] {
            let cfg = build_config(system, &generator, &page, &ctx, 1);
            assert!(cfg.server.hints.is_empty(), "{system:?}");
            assert!(cfg.server.pushes.is_empty(), "{system:?}");
        }
    }

    #[test]
    fn vroom_has_hints_and_same_domain_pushes() {
        let (generator, ctx, page) = setup();
        let cfg = build_config(System::Vroom, &generator, &page, &ctx, 1);
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
        let (generator, ctx, page) = setup();
        for system in [System::PushHighPriorityNoHints, System::PushAllNoHints] {
            let cfg = build_config(system, &generator, &page, &ctx, 1);
            assert!(cfg.server.hints.is_empty(), "{system:?}");
            assert!(!cfg.server.pushes.is_empty(), "{system:?}");
        }
        let all = build_config(System::PushAllNoHints, &generator, &page, &ctx, 1);
        let hi = build_config(System::PushHighPriorityNoHints, &generator, &page, &ctx, 1);
        let count = |c: &LoadConfig| c.server.pushes.values().map(|v| v.len()).sum::<usize>();
        assert!(
            count(&all) > count(&hi),
            "push-all pushes more than push-hi"
        );
    }

    #[test]
    fn first_party_only_drops_third_party_hints() {
        let (generator, ctx, page) = setup();
        let full = build_config(System::Vroom, &generator, &page, &ctx, 1);
        let partial = build_config(System::VroomFirstPartyOnly, &generator, &page, &ctx, 1);
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
        let (generator, ctx, page) = setup();
        let cfg = build_config(System::VroomStaleDeps, &generator, &page, &ctx, 1);
        let current = page.url_set();
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
        let (_generator, _ctx, page) = setup();
        let cache = cache_from_prior_load(&page, 24.0);
        assert!(!cache.is_empty());
        let fresh = cache.values().filter(|e| e.fresh()).count();
        let stale = cache.len() - fresh;
        assert!(fresh > 0, "long-lived entries survive a day");
        assert!(stale > 0, "short-lived entries expire within a day");
    }

    #[test]
    fn lower_bound_configs() {
        let (generator, ctx, page) = setup();
        let net = build_config(System::NetworkBound, &generator, &page, &ctx, 1);
        assert!(net.network_bound);
        let cpu = build_config(System::CpuBound, &generator, &page, &ctx, 1);
        assert!(cpu.zero_network);
    }
}
