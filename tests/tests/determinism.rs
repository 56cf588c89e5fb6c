//! The workspace's headline invariant, asserted end to end: the same seed
//! produces byte-identical results — full per-resource event traces and all
//! scalar metrics. This is what the `vroom-lint` rules (no wall clock, no
//! hash-order iteration, no ambient randomness) exist to protect.

#![forbid(unsafe_code)]

use vroom::{run_load, run_load_faulted, run_load_warm, SiteLoad, System};
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, LoadContext, PageGenerator, SiteProfile};

/// Two identically seeded cold loads must agree on every metric and on the
/// entire per-resource timing trace, for every system under test.
#[test]
fn identical_seeds_produce_identical_loads() {
    let ctx = LoadContext::reference();
    let profile = NetworkProfile::lte();
    for system in [
        System::Http1,
        System::Http2,
        System::Vroom,
        System::CpuBound,
        System::NetworkBound,
    ] {
        let gen_a = PageGenerator::new(SiteProfile::news(), 4242);
        let gen_b = PageGenerator::new(SiteProfile::news(), 4242);
        let a = run_load(&gen_a, &ctx, &profile, system, 7);
        let b = run_load(&gen_b, &ctx, &profile, system, 7);
        assert_eq!(a, b, "{system:?}: two identically seeded loads diverged");
        assert_eq!(
            a.resources, b.resources,
            "{system:?}: per-resource event traces diverged"
        );
    }
}

/// Warm (repeat-visit) loads are deterministic too — the cache built from
/// the prior load must not introduce ordering noise.
#[test]
fn warm_loads_are_deterministic() {
    let ctx = LoadContext::reference();
    let profile = NetworkProfile::lte();
    let a = run_load_warm(
        &PageGenerator::new(SiteProfile::news(), 99),
        &ctx,
        &profile,
        System::Vroom,
        7,
        0.003,
    );
    let b = run_load_warm(
        &PageGenerator::new(SiteProfile::news(), 99),
        &ctx,
        &profile,
        System::Vroom,
        7,
        0.003,
    );
    assert_eq!(a, b, "warm loads diverged");
}

/// Different seeds must actually produce different pages — guards against a
/// determinism test that would pass because everything is constant.
#[test]
fn different_seeds_differ() {
    let ctx = LoadContext::reference();
    let profile = NetworkProfile::lte();
    let a = run_load(
        &PageGenerator::new(SiteProfile::news(), 1),
        &ctx,
        &profile,
        System::Vroom,
        7,
    );
    let b = run_load(
        &PageGenerator::new(SiteProfile::news(), 2),
        &ctx,
        &profile,
        System::Vroom,
        7,
    );
    assert_ne!(a, b, "seeds 1 and 2 produced identical loads");
}

/// Fault injection preserves the headline invariant: the same (seed, plan)
/// pair produces byte-identical faulted loads — including the fault
/// counters and the per-resource trace with retries and failures in it.
#[test]
fn faulted_loads_are_deterministic() {
    let ctx = LoadContext::reference();
    let profile = NetworkProfile::lte();
    for system in [System::Http1, System::Http2, System::Vroom] {
        for severity in [0.4, 1.0] {
            let plan = FaultPlan::from_seed(0xFA_u64 ^ system as u64, severity);
            let one = || {
                let site = PageGenerator::new(SiteProfile::news(), 777);
                run_load_faulted(&site, &ctx, &profile, system, 7, &plan)
            };
            let a = one();
            let b = one();
            assert_eq!(a, b, "{system:?} sev {severity}: faulted loads diverged");
            assert_eq!(
                a.resources, b.resources,
                "{system:?} sev {severity}: faulted traces diverged"
            );
        }
    }
}

/// A `SiteLoad` builds its page, its resolver's crawls and one resolution
/// per strategy once and shares them across every load made through it. The sharing must not show: a
/// load through a `SiteLoad` that has already run every other system
/// equals, byte for byte, the same load through a fresh one on a cloned
/// generator, for cold, faulted and warm loads alike (every system's warm
/// load at one age starts from one shared `warm_cache`).
#[test]
fn loads_through_a_shared_site_load_equal_fresh_loads() {
    let site = PageGenerator::new(SiteProfile::news(), 2718);
    let ctx = LoadContext::reference();
    let lte = NetworkProfile::lte();
    let shared = SiteLoad::new(&site, &ctx, 7);
    let first: Vec<String> = System::ALL
        .iter()
        .map(|&system| shared.run(&lte, system).to_json())
        .collect();
    for (system, first) in System::ALL.into_iter().zip(first) {
        let fresh = run_load(&site.clone(), &ctx, &lte, system, 7).to_json();
        assert_eq!(first, fresh, "{system:?}: first shared load");
        assert_eq!(
            shared.run(&lte, system).to_json(),
            fresh,
            "{system:?}: shared load after every other system"
        );
    }
    let plan = FaultPlan::hint_corruption_only(0x5EED, 0.3);
    for system in System::ALL {
        assert_eq!(
            shared.run_faulted(&lte, system, &plan).to_json(),
            run_load_faulted(&site.clone(), &ctx, &lte, system, 7, &plan).to_json(),
            "{system:?}: faulted"
        );
    }
    for age_hours in [0.003, 24.0] {
        let warm_cache = shared.warm_cache(age_hours);
        for system in System::ALL {
            assert_eq!(
                shared.run_warm(&lte, system, &warm_cache).to_json(),
                run_load_warm(&site.clone(), &ctx, &lte, system, 7, age_hours).to_json(),
                "{system:?}: warm at {age_hours} h"
            );
        }
    }
}

/// Fault plans themselves are reproducible: a `(seed, severity)` pair
/// derives the same plan every time.
#[test]
fn fault_plans_are_canonical() {
    let a = FaultPlan::from_seed(0xC0FFEE, 0.8);
    let b = FaultPlan::from_seed(0xC0FFEE, 0.8);
    assert_eq!(a, b, "same seed must derive the same plan");
}

/// A whole small corpus is reproducible: per-site PLTs agree run-to-run.
#[test]
fn corpus_level_metrics_are_reproducible() {
    let plts = || {
        let corpus = Corpus::small(2024, 8);
        let ctx = LoadContext::reference();
        let profile = NetworkProfile::lte();
        corpus
            .sites
            .iter()
            .map(|site| run_load(site, &ctx, &profile, System::Vroom, 5).plt)
            .collect::<Vec<_>>()
    };
    assert_eq!(plts(), plts(), "corpus PLT vector diverged between runs");
}

/// Tier-1 pin of the interning overhaul: the sites-3 `run_all` report is
/// byte-identical to the golden captured before `UrlId` threading. The
/// interning layer changes cost, never observable behaviour.
#[test]
fn run_all_sites3_report_matches_committed_golden() {
    let mut cfg = vroom::experiment::ExperimentConfig::quick(3);
    cfg.workers = 1;
    let report = vroom::experiment::run_all_report(&cfg);
    let golden = include_str!("../../results/run_all_sites3.txt");
    assert!(
        report == golden,
        "run_all --sites 3 diverged from results/run_all_sites3.txt"
    );
}

/// Tier-1 pin of the ablation sweeps (DESIGN.md §5), which neither
/// committed report holds: the five `ABLATION_SECTIONS` at `--sites 3`
/// equal `results/ablations_sites3.txt` byte for byte, at one worker and at
/// three.
#[test]
fn ablation_sections_sites3_match_committed_golden() {
    let golden = include_str!("../../results/ablations_sites3.txt");
    for workers in [1, 3] {
        let mut cfg = vroom::experiment::ExperimentConfig::quick(3);
        cfg.workers = workers;
        let report = vroom::experiment::run_sections(&cfg, &vroom::experiment::ABLATION_SECTIONS);
        assert!(
            report == golden,
            "ablation sections at {workers} worker(s) diverged from results/ablations_sites3.txt"
        );
    }
}
