//! Top-level page-load entry points: pick a system, load a page, get the
//! paper's metrics.

use crate::policy::{
    apply_fault_plan, build_config, cache_from_prior_load, SharedResolution, System,
};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vroom_browser::config::{CacheEntry, LoadConfig};
use vroom_browser::{BrowserEngine, LoadResult};
use vroom_html::Url;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{LoadContext, Page, PageGenerator};
use vroom_server::resolve::{resolve, ResolverInput, Strategy};

/// One site's page as loaded in one context, ready to be loaded under any
/// number of systems. It holds the page, the [`ResolverInput`] whose
/// crawls every resolving system reads, and the page's resolution under
/// each strategy, resolved and interned on first use, so a caller
/// comparing systems on one page builds each page once and resolves it
/// once per strategy. Sharing is unobservable: every load equals the same
/// load through a fresh `SiteLoad`.
pub struct SiteLoad<'g> {
    ctx: LoadContext,
    page: Page,
    input: ResolverInput<'g>,
    /// One cell per [`Strategy`], indexed by its discriminant.
    resolutions: [OnceLock<SharedResolution>; 4],
}

impl<'g> SiteLoad<'g> {
    /// `generator`'s page in `ctx`, served by a resolver seeded with
    /// `server_seed`.
    pub fn new(generator: &'g PageGenerator, ctx: &LoadContext, server_seed: u64) -> Self {
        SiteLoad {
            ctx: *ctx,
            page: generator.snapshot(ctx),
            input: ResolverInput::new(generator, ctx.hours, ctx.device, server_seed),
            resolutions: Default::default(),
        }
    }

    /// The page every load of this `SiteLoad` fetches.
    pub fn page(&self) -> &Page {
        &self.page
    }

    /// The page's resolution under `strategy`, resolved on the first call.
    fn resolution(&self, strategy: Strategy) -> &SharedResolution {
        self.resolutions[strategy as usize]
            .get_or_init(|| SharedResolution::new(&resolve(&self.input, &self.page, strategy)))
    }

    /// The browser configuration of a cold, fault-free load under
    /// `system`, for callers that vary it further (the CPU sweeps).
    pub fn config(&self, system: System) -> LoadConfig {
        let first_party = self.input.generator().first_party();
        build_config(system, &self.ctx, first_party, |s| self.resolution(s))
    }

    /// Load the page under `system` on `profile`.
    pub fn run(&self, profile: &NetworkProfile, system: System) -> LoadResult {
        self.run_faulted(profile, system, &FaultPlan::none())
    }

    /// Load under `system` with an injected fault plan threaded through
    /// every layer: link capacity schedule, connection drops, body
    /// truncations (network), retry/backoff (client scheduler), and hint
    /// corruption with the discard threshold (policy). Passing an inactive
    /// plan is exactly [`run`](Self::run).
    pub fn run_faulted(
        &self,
        profile: &NetworkProfile,
        system: System,
        plan: &FaultPlan,
    ) -> LoadResult {
        let mut cfg = self.config(system);
        apply_fault_plan(&mut cfg, plan);
        BrowserEngine::load(&self.page, profile, &cfg)
    }

    /// The HTTP cache a visit `age_hours` before this load leaves behind.
    /// It depends on the age alone, so one serves every system's warm
    /// load at that age.
    pub fn warm_cache(&self, age_hours: f64) -> BTreeMap<Url, CacheEntry> {
        let prior = self.input.generator().snapshot(&LoadContext {
            hours: self.ctx.hours - age_hours,
            nonce: self.ctx.nonce ^ 0xCAC4E,
            ..self.ctx
        });
        cache_from_prior_load(&prior, age_hours)
    }

    /// Load with the HTTP cache holding `warm_cache`, a prior visit's
    /// [`warm_cache`](Self::warm_cache).
    pub fn run_warm(
        &self,
        profile: &NetworkProfile,
        system: System,
        warm_cache: &BTreeMap<Url, CacheEntry>,
    ) -> LoadResult {
        let mut cfg = self.config(system);
        cfg.warm_cache = warm_cache.clone();
        BrowserEngine::load(&self.page, profile, &cfg)
    }
}

/// Load a site's page under `system` on `profile`.
pub fn run_load(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    system: System,
    server_seed: u64,
) -> LoadResult {
    SiteLoad::new(generator, ctx, server_seed).run(profile, system)
}

/// Load with a warm cache seeded by a prior load `age_hours` earlier.
pub fn run_load_warm(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    system: System,
    server_seed: u64,
    age_hours: f64,
) -> LoadResult {
    let site = SiteLoad::new(generator, ctx, server_seed);
    site.run_warm(profile, system, &site.warm_cache(age_hours))
}

/// [`SiteLoad::run_faulted`] on a fresh `SiteLoad`.
pub fn run_load_faulted(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    system: System,
    server_seed: u64,
    plan: &FaultPlan,
) -> LoadResult {
    SiteLoad::new(generator, ctx, server_seed).run_faulted(profile, system, plan)
}

/// The combined lower bound of §2: the max of the CPU-bound and
/// network-bound loads (both must be paid; whichever dominates bounds PLT).
pub fn lower_bound_plt(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    server_seed: u64,
) -> vroom_sim::SimDuration {
    let load = SiteLoad::new(generator, ctx, server_seed);
    let cpu = load.run(profile, System::CpuBound).plt;
    let net = load.run(profile, System::NetworkBound).plt;
    cpu.max(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::FIG17_CORRUPTION;
    use std::sync::Arc;
    use vroom_pages::SiteProfile;

    fn setup() -> (PageGenerator, LoadContext, NetworkProfile) {
        (
            PageGenerator::new(SiteProfile::news(), 31),
            LoadContext::reference(),
            NetworkProfile::lte(),
        )
    }

    #[test]
    fn paper_ordering_holds_on_a_typical_site() {
        let (generator, ctx, profile) = setup();
        let h1 = run_load(&generator, &ctx, &profile, System::Http1, 1).plt;
        let h2 = run_load(&generator, &ctx, &profile, System::Http2, 1).plt;
        let vroom = run_load(&generator, &ctx, &profile, System::Vroom, 1).plt;
        let bound = lower_bound_plt(&generator, &ctx, &profile, 1);
        assert!(vroom < h2, "vroom {vroom} < h2 {h2}");
        assert!(h2 < h1, "h2 {h2} < h1 {h1}");
        assert!(bound <= vroom, "bound {bound} <= vroom {vroom}");
    }

    #[test]
    fn warm_cache_beats_cold() {
        let (generator, ctx, profile) = setup();
        let cold = run_load(&generator, &ctx, &profile, System::Vroom, 1);
        let warm = run_load_warm(&generator, &ctx, &profile, System::Vroom, 1, 0.01);
        assert!(warm.cache_hits > 0);
        assert!(warm.plt < cold.plt, "warm {} < cold {}", warm.plt, cold.plt);
    }

    #[test]
    fn loads_are_deterministic_across_calls() {
        let (generator, ctx, profile) = setup();
        let a = run_load(&generator, &ctx, &profile, System::Vroom, 1);
        let b = run_load(&generator, &ctx, &profile, System::Vroom, 1);
        assert_eq!(a.plt, b.plt);
        assert_eq!(a.speed_index, b.speed_index);
    }

    /// The config of `system` built from a fresh resolution of the page,
    /// outside any `SiteLoad`.
    fn fresh_config(generator: &PageGenerator, ctx: &LoadContext, system: System) -> LoadConfig {
        let page = generator.snapshot(ctx);
        let input = ResolverInput::new(generator, ctx.hours, ctx.device, 1);
        let resolved = system
            .strategy()
            .map(|strategy| SharedResolution::new(&resolve(&input, &page, strategy)));
        build_config(system, ctx, generator.first_party(), |_| {
            resolved.as_ref().expect("a resolving system's resolution")
        })
    }

    /// Every field of a config: hints, pushes, table, fetch policy,
    /// ordering and the rest.
    fn fields(cfg: &LoadConfig) -> String {
        format!("{cfg:?}")
    }

    #[test]
    fn configs_through_a_site_load_equal_configs_from_a_fresh_resolution() {
        let (generator, ctx, profile) = setup();
        let load = SiteLoad::new(&generator, &ctx, 1);
        let plan = FaultPlan::hint_corruption_only(0x5EED, FIG17_CORRUPTION);
        let warm_cache = load.warm_cache(24.0);
        let check = |load: &SiteLoad, when: &str| {
            for system in System::ALL {
                let fresh = fresh_config(&generator, &ctx, system);
                assert_eq!(
                    fields(&load.config(system)),
                    fields(&fresh),
                    "{system:?} {when}"
                );
                let corrupted = |mut cfg: LoadConfig| {
                    apply_fault_plan(&mut cfg, &plan);
                    fields(&cfg)
                };
                assert_eq!(
                    corrupted(load.config(system)),
                    corrupted(fresh),
                    "{system:?} corrupted, {when}"
                );
            }
        };
        check(&load, "before any load");
        for system in System::ALL {
            load.run(&profile, system);
            load.run_faulted(&profile, system, &plan);
            load.run_warm(&profile, system, &warm_cache);
        }
        check(&load, "after every system's cold, corrupted and warm loads");
    }

    #[test]
    fn resolving_systems_of_one_site_load_share_its_resolution() {
        let (generator, ctx, _) = setup();
        let load = SiteLoad::new(&generator, &ctx, 1);
        let root = |cfg: &LoadConfig| {
            let id = cfg.urls.lookup(&load.page().url).expect("root interned");
            Arc::clone(&cfg.server.hints[&id])
        };
        let vroom = load.config(System::Vroom);
        let hybrid = load.config(System::VroomPolarisHybrid);
        let push_all = load.config(System::PushAllNoHints);
        let stale = load.config(System::VroomStaleDeps);
        assert!(Arc::ptr_eq(&vroom.urls, &hybrid.urls));
        assert!(Arc::ptr_eq(&vroom.urls, &push_all.urls));
        assert!(Arc::ptr_eq(&root(&vroom), &root(&hybrid)), "one hint list");
        assert!(!Arc::ptr_eq(&vroom.urls, &stale.urls), "one per strategy");
        assert!(Arc::ptr_eq(
            &stale.urls,
            &load.config(System::VroomStaleDeps).urls
        ));
    }

    #[test]
    fn a_corrupted_load_leaves_the_shared_resolution_unchanged() {
        let (generator, ctx, profile) = setup();
        let load = SiteLoad::new(&generator, &ctx, 1);
        let plan = FaultPlan::hint_corruption_only(0x5EED, FIG17_CORRUPTION);
        let clean = load.run(&profile, System::Vroom).to_json();
        let resolution = format!("{:?}", load.resolution(Strategy::Vroom));
        let corrupted = load.run_faulted(&profile, System::Vroom, &plan);
        assert!(corrupted.wasted_bytes > 0, "the plan corrupts some hints");
        assert_eq!(
            format!("{:?}", load.resolution(Strategy::Vroom)),
            resolution
        );
        assert_eq!(load.run(&profile, System::Vroom).to_json(), clean);
    }
}
