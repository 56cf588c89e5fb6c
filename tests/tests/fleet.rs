//! Fleet determinism tier: the fleet-scale serving simulation — shared
//! sharded hint store, batched resolver passes, parallel client loads — is
//! byte-identical at any worker count and across repeated runs, and the
//! sharded store agrees with a plain ordered-map model of its specification
//! for arbitrary operation sequences at every shard count.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use vroom_browser::config::{Hint, LoadConfig};
use vroom_browser::BrowserEngine;
use vroom_fleet::{
    run_fleet, run_fleet_observed, run_freshness, ClientOutcome, FleetConfig, FleetRun,
    FreshnessConfig,
};
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::json::Value;
use vroom_net::NetworkProfile;
use vroom_pages::{Corpus, DeviceClass, LoadContext};
use vroom_server::batch::run_pass;
use vroom_server::freshness::observed_pass;
use vroom_server::store::{EvictionPolicy, FreshRead, HintStore, ShardedStore};
use vroom_sim::mix;

/// The two byte-comparable projections of a run: the text report and the
/// deterministic metrics tree of `BENCH_fleet.json` (timings excluded by
/// construction — they are added by `vroom-bench`, outside the simulation).
fn fingerprints(run: &FleetRun) -> (String, String) {
    let mut json = String::new();
    run.report.to_json_value().write_pretty_into(&mut json);
    (run.report.render(), json)
}

/// Run the fleet and collect every client outcome its sink is handed, in
/// arrival order.
fn observe(cfg: &FleetConfig) -> (FleetRun, Vec<ClientOutcome>) {
    let mut outcomes = Vec::new();
    let run = run_fleet_observed(cfg, None, &mut |o| outcomes.push(o)).0;
    (run, outcomes)
}

fn assert_identical_at_all_widths(mut cfg: FleetConfig) {
    cfg.workers = 1;
    let (reference, ref_outcomes) = observe(&cfg);
    let (ref_render, ref_json) = fingerprints(&reference);
    assert!(ref_render.starts_with("==== fleet ===="));
    for workers in [2, 8] {
        cfg.workers = workers;
        let (got, outcomes) = observe(&cfg);
        let (render, json) = fingerprints(&got);
        assert_eq!(ref_render, render, "report diverged at workers={workers}");
        assert_eq!(ref_json, json, "metrics diverged at workers={workers}");
        assert_eq!(
            ref_outcomes, outcomes,
            "per-client outcomes diverged at workers={workers}"
        );
    }
    // Same seed, second run: nothing hidden (allocator state, map order,
    // shard scheduling) may leak into the output.
    cfg.workers = 1;
    let (again, again_outcomes) = observe(&cfg);
    assert_eq!(fingerprints(&again), (ref_render, ref_json));
    assert_eq!(again_outcomes, ref_outcomes);
}

#[test]
fn fleet_is_byte_identical_across_worker_counts_and_runs() {
    assert_identical_at_all_widths(FleetConfig::quick(150, 4));
}

/// The acceptance-scale run: 1000 clients. Costs tens of seconds
/// unoptimized, so the debug tier skips it; CI runs it in release mode
/// alongside the chaos suite.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1000-client fleet is release-only; CI runs it"
)]
fn thousand_client_fleet_is_byte_identical() {
    let cfg = FleetConfig::default();
    assert!(cfg.clients >= 1000);
    assert_identical_at_all_widths(cfg);
}

/// The churn shape at acceptance scale: 64 sites over 24 hour buckets
/// with refresh-on-miss(1) and learning, so about 400 resolver passes and
/// 1000 learning commits land between waves of loads that each span
/// several batches. Release-only; CI runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1000-client churn fleet is release-only; CI runs it"
)]
fn thousand_client_churn_fleet_is_byte_identical() {
    let cfg = FleetConfig {
        sites: 64,
        span_hours: 23,
        policy: EvictionPolicy::RefreshOnMiss(1),
        learn_from_loads: true,
        ..FleetConfig::default()
    };
    assert!(cfg.clients >= 1000);
    assert_identical_at_all_widths(cfg);
}

/// The fact the fleet's wave rule rests on (DESIGN §2w): every URL in a
/// site's resolver passes and observed passes has a host among that
/// site's generator domains. So a commit for one site touches another
/// site's table and store entries only when their domains meet.
#[test]
fn every_pass_url_lies_on_its_sites_domains() {
    let corpus = Corpus::news_and_sports_capped(7, Some(64));
    let profile = NetworkProfile::lte();
    let mut observed_entries = 0;
    for (s, site) in corpus.sites.iter().enumerate() {
        let on_site = |url: &Url| site.domains().contains(&url.host);
        for bucket in [2000u64, 2011, 2023] {
            for device in [DeviceClass::PhoneLarge, DeviceClass::PhoneSmall] {
                let pass = run_pass(site, bucket as f64, device, 77);
                let ctx = LoadContext {
                    hours: bucket as f64 + 0.5,
                    user_id: mix(bucket, s as u64),
                    device,
                    nonce: mix(s as u64, bucket),
                };
                let page = site.snapshot(&ctx);
                let result = BrowserEngine::load(&page, &profile, &LoadConfig::http2_baseline());
                let observed = observed_pass(&page, &result);
                observed_entries += observed.entries.len();
                for (html, hints) in pass.entries.iter().chain(&observed.entries) {
                    assert!(on_site(html), "site {s}: {html:?} is off its domains");
                    for (url, _, _) in hints {
                        assert!(on_site(url), "site {s}: {url:?} is off its domains");
                    }
                }
            }
        }
    }
    assert!(observed_entries > 0, "loads were observed");
}

#[test]
fn different_seeds_produce_different_fleets() {
    let a = run_fleet(&FleetConfig::quick(60, 3));
    let b = run_fleet(&FleetConfig {
        seed: 0xD1FF,
        ..FleetConfig::quick(60, 3)
    });
    assert_ne!(
        a.report.render(),
        b.report.render(),
        "the seed must actually steer arrivals and site choices"
    );
}

#[test]
fn shard_count_changes_layout_but_not_semantics() {
    let base = FleetConfig::quick(60, 3);
    let (one, one_outcomes) = observe(&FleetConfig {
        shards: 1,
        ..base.clone()
    });
    let (many, many_outcomes) = observe(&FleetConfig { shards: 32, ..base });
    // Shard layout is invisible to clients: every load-derived number
    // matches; only the per-shard breakdown differs.
    assert_eq!(one_outcomes, many_outcomes);
    assert_eq!(one.report.store_entries, many.report.store_entries);
    assert_eq!(one.report.hint_hits, many.report.hint_hits);
    assert_eq!(one.report.onload_p50_ms, many.report.onload_p50_ms);
    assert_eq!(one.report.shard_stats.len(), 1);
    assert_eq!(many.report.shard_stats.len(), 32);
    let total = |r: &vroom_fleet::FleetReport| {
        r.shard_stats.iter().fold((0, 0, 0, 0), |(a, b, c, d), s| {
            (a + s.reads, b + s.hits, c + s.writes, d + s.entries)
        })
    };
    assert_eq!(total(&one.report), total(&many.report));
}

#[test]
fn metrics_json_is_a_canonical_fixed_point() {
    let run = run_fleet(&FleetConfig::quick(30, 2));
    let mut text = String::new();
    run.report.to_json_value().write_pretty_into(&mut text);
    let back = Value::parse(&text).expect("metrics parse");
    let mut second = String::new();
    back.write_pretty_into(&mut second);
    assert_eq!(text, second, "canonical form is a fixed point");
}

// ---------------------------------------------------------------------------
// Freshness determinism tier
// ---------------------------------------------------------------------------

#[test]
fn freshness_fleet_is_byte_identical_across_worker_counts_and_runs() {
    // Multi-bucket arrivals, TTL eviction, and observed-load learning all
    // at once: the freshness machinery must preserve the worker-identity
    // guarantee the legacy fleet pins above.
    let ttl = FleetConfig {
        span_hours: 3,
        policy: EvictionPolicy::Ttl(1),
        learn_from_loads: true,
        ..FleetConfig::quick(90, 3)
    };
    assert_identical_at_all_widths(ttl);
    let refresh = FleetConfig {
        span_hours: 2,
        policy: EvictionPolicy::RefreshOnMiss(1),
        ..FleetConfig::quick(60, 3)
    };
    assert_identical_at_all_widths(refresh);
}

#[test]
fn legacy_fleet_report_has_no_freshness_section() {
    // Policy Never + span 0 + no learning: render and JSON must be
    // byte-identical to the pre-freshness report, which means the
    // freshness section (and its config keys) must not exist at all.
    let run = run_fleet(&FleetConfig::quick(30, 2));
    assert!(run.report.freshness.is_none());
    assert!(!run.report.render().contains("freshness:"));
    let Value::Object(m) = run.report.to_json_value() else {
        panic!("metrics must be an object");
    };
    assert!(!m.contains_key("freshness"));
}

#[test]
fn oversized_arrival_span_is_clamped_and_surfaced() {
    // A 2-hour arrival span used to silently break one-pass-per-site
    // batching (clients claimed an hour their context did not live in);
    // now it clamps to one bucket and says so in the report.
    let (run, outcomes) = observe(&FleetConfig {
        arrival_span_ms: 7_200_000,
        ..FleetConfig::quick(40, 3)
    });
    let r = &run.report;
    assert_eq!(r.resolver_passes, 3, "clamped span keeps one pass per site");
    let f = r.freshness.as_ref().expect("clamp surfaces the section");
    assert_eq!(f.arrival_span_clamped_from_ms, 7_200_000);
    assert!(r
        .render()
        .contains("warning: arrival span clamped 7200000 -> 3600000 ms"));
    assert_eq!(outcomes.len(), 40);
    for o in &outcomes {
        assert!(o.arrival_ms < 3_600_000, "arrivals stay inside one bucket");
    }
}

#[test]
fn sites_past_the_corpus_are_clamped_to_it() {
    // The News+Sports corpus holds 100 sites. Asking for more must not
    // pick client sites past its end: the fleet and the freshness sweep
    // both serve the whole corpus.
    let run = run_fleet(&FleetConfig::quick(40, 150));
    assert_eq!(run.report.sites, Corpus::NEWS_AND_SPORTS_SITES as u64);
    assert!(run.report.render().contains("clients 40  sites 100  "));
    let sweep = run_freshness(&FreshnessConfig::quick(10, 150, 0));
    assert_eq!(sweep.sites, Corpus::NEWS_AND_SPORTS_SITES as u64);
}

#[test]
fn span_hours_spreads_arrivals_and_reruns_passes_per_bucket() {
    let run = run_fleet(&FleetConfig {
        span_hours: 2,
        ..FleetConfig::quick(80, 2)
    });
    let r = &run.report;
    // Under Never, a site is passed at its first bucket only — passes stay
    // at one per site even across buckets.
    assert_eq!(r.resolver_passes, 2);
    let f = r.freshness.as_ref().expect("span > 0 surfaces the section");
    assert_eq!(f.span_hours, 2);
    assert_eq!(f.policy, "never");
    assert_eq!(f.refresh_passes, 0);
}

/// The committed `BENCH_fleet.json` is a legacy run (policy `Never`, zero
/// span): re-running its exact config must reproduce the committed
/// `metrics` section byte-for-byte — the freshness machinery may not move
/// a single counter of the pre-freshness fleet. Release-only (1000
/// clients); CI runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1000-client baseline replay is release-only; CI runs it"
)]
fn legacy_fleet_metrics_match_the_committed_bench_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_fleet.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_fleet.json");
    let Value::Object(root) = Value::parse(&text).expect("baseline parses") else {
        panic!("baseline top level is not an object");
    };
    let Some(Value::Object(config)) = root.get("config") else {
        panic!("baseline has no config section");
    };
    assert!(
        !config.contains_key("policy"),
        "committed baseline must be a legacy run"
    );
    let get = |k: &str| match config.get(k) {
        Some(Value::Int(n)) => *n,
        other => panic!("config.{k}: {other:?}"),
    };
    let run = run_fleet(&FleetConfig {
        clients: get("clients") as usize,
        sites: get("sites") as usize,
        shards: get("shards") as usize,
        seed: get("seed"),
        batch_window_ms: get("batch_window_ms"),
        arrival_span_ms: get("arrival_span_ms"),
        ..FleetConfig::default()
    });
    assert!(run.report.freshness.is_none());
    let mut fresh = String::new();
    run.report.to_json_value().write_pretty_into(&mut fresh);
    let mut committed = String::new();
    root.get("metrics")
        .expect("baseline has a metrics section")
        .write_pretty_into(&mut committed);
    assert_eq!(
        fresh, committed,
        "policy Never + span 0 must reproduce the committed metrics exactly"
    );
}

// ---------------------------------------------------------------------------
// Freshness sweep (speedup vs hint age)
// ---------------------------------------------------------------------------

#[test]
fn freshness_sweep_is_byte_identical_across_worker_counts_and_runs() {
    let mut cfg = FreshnessConfig::quick(10, 2, 2);
    cfg.workers = 1;
    let reference = run_freshness(&cfg);
    assert!(reference.render().starts_with("==== freshness ===="));
    let mut ref_json = String::new();
    reference.to_json_value().write_pretty_into(&mut ref_json);
    for workers in [2, 8] {
        cfg.workers = workers;
        let got = run_freshness(&cfg);
        assert_eq!(reference, got, "sweep diverged at workers={workers}");
        let mut json = String::new();
        got.to_json_value().write_pretty_into(&mut json);
        assert_eq!(ref_json, json, "sweep JSON diverged at workers={workers}");
    }
    cfg.workers = 1;
    assert_eq!(run_freshness(&cfg), reference, "second run identical");
}

/// The exhibit's headline claims, at full scale: speedup decays as hints
/// age, the calibrated TTL beats serving stale hints beyond one bucket of
/// staleness, and RefreshOnMiss recovers fresh-hint speedups at any age.
/// Release-only; CI runs it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full freshness sweep is release-only; CI runs it"
)]
fn speedup_decays_with_age_and_ttl_beats_never_past_the_ttl() {
    let cfg = FreshnessConfig::default();
    let r = run_freshness(&cfg);
    // The committed BENCH_freshness.json is this default sweep: its `config`
    // names the default and its `metrics` are the report's bytes.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_freshness.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_freshness.json");
    let committed = Value::parse(&text).expect("baseline parses");
    let section = |name: &str| {
        committed
            .get(name)
            .unwrap_or_else(|| panic!("baseline has no {name} section"))
            .to_pretty()
    };
    let config = Value::Object(BTreeMap::from([
        ("clients".to_string(), Value::Int(cfg.clients as u64)),
        ("sites".to_string(), Value::Int(cfg.sites as u64)),
        ("shards".to_string(), Value::Int(cfg.shards as u64)),
        ("seed".to_string(), Value::Int(cfg.seed)),
        ("max_age_hours".to_string(), Value::Int(cfg.max_age_hours)),
        ("ttl_hours".to_string(), Value::Int(cfg.ttl_hours)),
        (
            "hint_corruption".to_string(),
            Value::Float(cfg.hint_corruption),
        ),
    ]));
    assert_eq!(section("config"), config.to_pretty(), "committed config");
    assert_eq!(
        section("metrics"),
        r.to_json_value().to_pretty(),
        "the default sweep must reproduce the committed metrics exactly"
    );
    let cell = |age: u64, policy: &str| {
        r.cells
            .iter()
            .find(|c| c.age_hours == age && c.policy == policy)
            .unwrap_or_else(|| panic!("cell ({age}, {policy})"))
    };
    // Fresh hints help.
    assert!(
        cell(0, "never").speedup_p50 > 1.0,
        "fresh hints must beat no hints: {:.3}",
        cell(0, "never").speedup_p50
    );
    // Aged hints are worth less than fresh ones.
    assert!(
        cell(6, "never").speedup_p50 < cell(0, "never").speedup_p50,
        "speedup must decay with age: {:.3} vs {:.3}",
        cell(6, "never").speedup_p50,
        cell(0, "never").speedup_p50
    );
    // Past the TTL, eviction degrades to the baseline *exactly* (no hints
    // left, so the loads are the baseline loads)...
    assert_eq!(cell(2, "ttl(1)").speedup_p50, 1.0);
    assert_eq!(cell(2, "ttl(1)").hint_hits, 0);
    // ...which beats serving the stale hints.
    for age in 2..=6 {
        assert!(
            cell(age, "ttl(1)").speedup_p50 >= cell(age, "never").speedup_p50,
            "age {age}: ttl {:.3} must beat never {:.3}",
            cell(age, "ttl(1)").speedup_p50,
            cell(age, "never").speedup_p50
        );
    }
    // RefreshOnMiss re-resolves stale sites, recovering fresh speedups.
    let refreshed = cell(6, "refresh-on-miss(1)");
    assert!(refreshed.refresh_passes > 0);
    assert!(
        refreshed.speedup_p50 > cell(6, "never").speedup_p50,
        "refreshed {:.3} must beat stale {:.3}",
        refreshed.speedup_p50,
        cell(6, "never").speedup_p50
    );
    // The analytic accuracy curve decays with the speedups.
    let err = |a: &vroom_fleet::AgeAccuracy| a.false_negative + a.false_positive;
    assert!(err(&r.accuracy_by_age[6]) > err(&r.accuracy_by_age[0]));
}

// ---------------------------------------------------------------------------
// Sharded hint store properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard routing is total (always a valid index) and a pure function
    /// of the id value: growing the intern table never re-routes an
    /// existing id.
    #[test]
    fn shard_routing_is_total_and_stable_under_growth(
        hosts in proptest::collection::vec(0u32..500, 1..40),
        shards in 1usize..64,
    ) {
        let mut table = UrlTable::new();
        let mut routed: Vec<(UrlId, usize)> = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            let id = table.intern(Url::https(&format!("h{h}.example.com"), &format!("/r/{i}")));
            let shard = id.shard(shards);
            prop_assert!(shard < shards, "routing must be total");
            // Every id routed earlier still routes identically now that
            // the table has grown.
            for &(prev, expect) in &routed {
                prop_assert_eq!(prev.shard(shards), expect, "routing drifted under growth");
            }
            routed.push((id, shard));
        }
    }
}

// ---------------------------------------------------------------------------
// Versioned store properties (TTL / RefreshOnMiss equivalence)
// ---------------------------------------------------------------------------

/// One versioned store operation: a bucket-stamped put, a policy-aware
/// read, or a TTL eviction sweep.
#[derive(Debug, Clone, Copy)]
enum VersionedOp {
    PutAt {
        key: u32,
        tier: u8,
        hints: u8,
        bucket: i64,
    },
    GetFresh {
        key: u32,
        now: i64,
        policy: u8,
    },
    Evict {
        min_bucket: i64,
    },
}

fn arb_versioned_op() -> impl Strategy<Value = VersionedOp> {
    prop_oneof![
        (0u32..48, 0u8..3, 0u8..5, 1995u64..2006).prop_map(|(key, tier, hints, bucket)| {
            VersionedOp::PutAt {
                key,
                tier,
                hints,
                bucket: bucket as i64,
            }
        }),
        (0u32..64, 1995u64..2010, 0u8..3).prop_map(|(key, now, policy)| {
            VersionedOp::GetFresh {
                key,
                now: now as i64,
                policy,
            }
        }),
        (1993u64..2012).prop_map(|min_bucket| VersionedOp::Evict {
            min_bucket: min_bucket as i64
        }),
    ]
}

fn policy_of(sel: u8) -> EvictionPolicy {
    match sel % 3 {
        0 => EvictionPolicy::Never,
        1 => EvictionPolicy::Ttl(2),
        _ => EvictionPolicy::RefreshOnMiss(2),
    }
}

/// The store's specification: one ordered map of `(hints, bucket)` and the
/// five logical counters, with the eviction rules written out directly.
#[derive(Default)]
struct ModelStore {
    map: BTreeMap<UrlId, (Arc<Vec<Hint>>, i64)>,
    reads: u64,
    hits: u64,
    writes: u64,
    stale: u64,
    evictions: u64,
}

impl ModelStore {
    fn put_at(&mut self, key: UrlId, hints: Vec<Hint>, bucket: i64) {
        self.writes += 1;
        self.map.insert(key, (Arc::new(hints), bucket));
    }

    fn get_fresh(&mut self, key: UrlId, now: i64, policy: EvictionPolicy) -> FreshRead {
        self.reads += 1;
        let Some((hints, bucket)) = self.map.get(&key) else {
            return FreshRead::Miss;
        };
        let (hints, age_hours) = (Arc::clone(hints), (now - bucket).max(0) as u64);
        let read = match policy {
            EvictionPolicy::Ttl(h) if age_hours > h => {
                self.stale += 1;
                return FreshRead::Miss;
            }
            EvictionPolicy::RefreshOnMiss(h) if age_hours > h => {
                self.stale += 1;
                FreshRead::Stale { hints, age_hours }
            }
            _ => FreshRead::Fresh { hints, age_hours },
        };
        self.hits += 1;
        read
    }

    fn evict_resolved_before(&mut self, min_bucket: i64) {
        let before = self.map.len();
        self.map.retain(|_, (_, b)| *b >= min_bucket);
        self.evictions += (before - self.map.len()) as u64;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary versioned operation sequences under every eviction
    /// policy, the sharded store at any shard count agrees with the model
    /// on every read as it happens, on the versioned contents, and on the
    /// read/hit/write/stale/eviction totals.
    #[test]
    fn versioned_sharded_store_equals_unsharded_reference(
        ops in proptest::collection::vec(arb_versioned_op(), 0..120),
        shards in 1usize..24,
    ) {
        let store = ShardedStore::new(shards);
        let mut model = ModelStore::default();
        for op in &ops {
            match *op {
                VersionedOp::PutAt { key, tier, hints, bucket } => {
                    let key = UrlId::from_index(key as usize);
                    let hints: Vec<Hint> = (0..hints)
                        .map(|i| Hint {
                            url: UrlId::from_index(key.index() + usize::from(i) + 1),
                            tier,
                            size_hint: key.index() as u64 * 100 + u64::from(i),
                        })
                        .collect();
                    store.put_at(key, hints.clone(), bucket);
                    model.put_at(key, hints, bucket);
                }
                VersionedOp::GetFresh { key, now, policy } => {
                    let key = UrlId::from_index(key as usize);
                    let policy = policy_of(policy);
                    prop_assert_eq!(
                        store.get_fresh(key, now, policy),
                        model.get_fresh(key, now, policy),
                        "read of {:?} at {} under {:?}",
                        key,
                        now,
                        policy
                    );
                }
                VersionedOp::Evict { min_bucket } => {
                    store.evict_resolved_before(min_bucket);
                    model.evict_resolved_before(min_bucket);
                }
            }
        }
        prop_assert_eq!(store.snapshot_versioned(), model.map.clone());
        prop_assert_eq!(store.len(), model.map.len());
        let stats = store.shard_stats();
        let fresh = store.freshness_stats();
        let sum = |f: &dyn Fn(usize) -> u64| (0..stats.len()).map(f).sum::<u64>();
        prop_assert_eq!(
            (
                sum(&|i| stats[i].reads),
                sum(&|i| stats[i].hits),
                sum(&|i| stats[i].writes),
                sum(&|i| fresh[i].stale),
                sum(&|i| fresh[i].evictions),
            ),
            (model.reads, model.hits, model.writes, model.stale, model.evictions)
        );
    }
}
