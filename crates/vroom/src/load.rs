//! Top-level page-load entry points: pick a system, load a page, get the
//! paper's metrics.

use crate::policy::{apply_fault_plan, build_config, cache_from_prior_load, System};
use vroom_browser::{BrowserEngine, LoadResult};
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{LoadContext, PageGenerator};

/// Load a site's page under `system` on `profile`.
pub fn run_load(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    system: System,
    server_seed: u64,
) -> LoadResult {
    let page = generator.snapshot_arc(ctx);
    let cfg = build_config(system, generator, &page, ctx, server_seed);
    BrowserEngine::load(&page, profile, &cfg)
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
    let prior_ctx = LoadContext {
        hours: ctx.hours - age_hours,
        nonce: ctx.nonce ^ 0xCAC4E,
        ..*ctx
    };
    let prior = generator.snapshot_arc(&prior_ctx);
    let page = generator.snapshot_arc(ctx);
    let mut cfg = build_config(system, generator, &page, ctx, server_seed);
    cfg.warm_cache = cache_from_prior_load(&prior, age_hours);
    BrowserEngine::load(&page, profile, &cfg)
}

/// Load under `system` with an injected fault plan threaded through every
/// layer: link capacity schedule, connection drops, body truncations
/// (network), retry/backoff (client scheduler), and hint corruption with
/// the discard threshold (policy). Passing an inactive plan is exactly
/// [`run_load`].
pub fn run_load_faulted(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    system: System,
    server_seed: u64,
    plan: &FaultPlan,
) -> LoadResult {
    let page = generator.snapshot_arc(ctx);
    let mut cfg = build_config(system, generator, &page, ctx, server_seed);
    apply_fault_plan(&mut cfg, plan);
    BrowserEngine::load(&page, profile, &cfg)
}

/// The combined lower bound of §2: the max of the CPU-bound and
/// network-bound loads (both must be paid; whichever dominates bounds PLT).
pub fn lower_bound_plt(
    generator: &PageGenerator,
    ctx: &LoadContext,
    profile: &NetworkProfile,
    server_seed: u64,
) -> vroom_sim::SimDuration {
    let cpu = run_load(generator, ctx, profile, System::CpuBound, server_seed).plt;
    let net = run_load(generator, ctx, profile, System::NetworkBound, server_seed).plt;
    cpu.max(net)
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
