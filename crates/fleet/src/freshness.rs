//! The speedup-vs-hint-age sweep behind `vroom-bench freshness`.
//!
//! The paper's Fig 17 asks what stale dependency knowledge costs: Vroom's
//! hints are resolved ahead of time, so by the time a client arrives they
//! are some hours old and the page has churned underneath them. This module
//! sweeps that age directly. For each `(hint age, eviction policy)` cell it
//! builds a fresh store, runs the crawler passes *age* hours before the
//! serving hour, and then loads the same deterministic client population at
//! the serving hour — under the fault layer's hint corruption, so the
//! exhibit measures aged knowledge on an imperfect wire, not a lab-clean
//! one. A no-hints baseline over the identical population turns each cell's
//! onload percentiles into speedups.
//!
//! The three policies bracket the design space:
//!
//! * [`EvictionPolicy::Never`] — serve whatever is stored, however old:
//!   speedup decays with age as stale hints buy wasted fetches.
//! * [`EvictionPolicy::Ttl`] — entries past the Fig 7-calibrated TTL are
//!   evicted, so past one bucket of staleness the fleet degrades to the
//!   baseline (speedup → 1.0) instead of paying for bad hints.
//! * [`EvictionPolicy::RefreshOnMiss`] — the front-end's first stale read
//!   per site admits a fresh resolver pass, so clients get current hints at
//!   the cost of [`FreshnessCell::refresh_passes`] re-resolutions.
//!
//! Everything here is deterministic: passes and loads fan out over
//! [`vroom_exec::par_map_indexed`], counters are logical, and the report is
//! byte-identical at any worker count (pinned by `tests/tests/fleet.rs`).

use std::collections::BTreeMap;

use vroom_browser::EngineScratch;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::json::Value;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, DeviceClass, LoadContext, Page};
use vroom_server::batch::{commit_pass_at, run_pass, PassOutput};
use vroom_server::freshness::{hint_quality_by_age, CALIBRATED_TTL_HOURS};
use vroom_server::store::{EvictionPolicy, HintStore, ShardedStore};
use vroom_sim::mix;

use crate::{load_client, ClientSpec, FleetConfig, OutcomeTally, FLEET_BASE_HOURS};

/// Configuration of one freshness sweep.
#[derive(Debug, Clone)]
pub struct FreshnessConfig {
    /// Clients loaded per cell (the same derived population every cell).
    pub clients: usize,
    /// Distinct sites (a prefix of the News+Sports corpus).
    pub sites: usize,
    /// Sweep seed: client derivation and per-client corruption plans.
    pub seed: u64,
    /// Hint-store shard count (each cell gets a fresh store).
    pub shards: usize,
    /// Hint ages swept: `0..=max_age_hours` hour buckets.
    pub max_age_hours: u64,
    /// TTL for the `Ttl` and `RefreshOnMiss` policy columns, in hour
    /// buckets (defaults to the Fig 7 calibration).
    pub ttl_hours: u64,
    /// Fraction of served hints the fault layer corrupts to stale URLs.
    /// Must stay below the client policy's discard threshold (0.5) or the
    /// whole hint set is thrown away and every cell collapses to baseline.
    pub hint_corruption: f64,
    /// Worker threads; the report is byte-identical for every value.
    pub workers: usize,
}

impl Default for FreshnessConfig {
    fn default() -> Self {
        FreshnessConfig {
            clients: 120,
            sites: 6,
            seed: 0xF8E5,
            shards: 8,
            max_age_hours: 6,
            ttl_hours: CALIBRATED_TTL_HOURS,
            // Calibrated so the exhibit crosses 1.0 one bucket past the TTL:
            // at 0.40 a store serving hints two or more hours stale makes
            // loads *slower* than hintless, so Ttl(1) overtakes Never.
            hint_corruption: 0.40,
            workers: 1,
        }
    }
}

impl FreshnessConfig {
    /// A reduced configuration for quick tests.
    pub fn quick(clients: usize, sites: usize, max_age_hours: u64) -> Self {
        FreshnessConfig {
            clients,
            sites,
            max_age_hours,
            ..Default::default()
        }
    }
}

/// One `(hint age, eviction policy)` cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FreshnessCell {
    /// How many hour buckets before the serving hour the hints were
    /// resolved.
    pub age_hours: u64,
    /// Eviction policy label (`never`, `ttl(1)`, `refresh-on-miss(1)`).
    pub policy: String,
    /// Median onload across the cell's clients (simulated ms).
    pub onload_p50_ms: f64,
    /// 99th-percentile onload (simulated ms).
    pub onload_p99_ms: f64,
    /// Baseline p50 onload over this cell's p50 (`> 1` = hints help).
    pub speedup_p50: f64,
    /// Baseline p99 onload over this cell's p99.
    pub speedup_p99: f64,
    /// HTML documents served hints out of the store.
    pub hint_hits: u64,
    /// HTML documents that missed the store (including logical evictions).
    pub hint_misses: u64,
    /// HTML documents served *stale* hints (RefreshOnMiss only).
    pub stale_served: u64,
    /// Store reads classified stale.
    pub stale_reads: u64,
    /// Entries physically removed by the TTL sweep.
    pub evictions: u64,
    /// Resolver passes run for this cell (aged passes + refreshes).
    pub resolver_passes: u64,
    /// Fresh re-resolutions admitted by stale front-end probes
    /// (RefreshOnMiss only).
    pub refresh_passes: u64,
    /// Bytes wasted on inaccurate hints/pushes across the cell.
    pub wasted_bytes: u64,
}

/// Median hint accuracy at one age, across the sweep's sites.
#[derive(Debug, Clone, PartialEq)]
pub struct AgeAccuracy {
    /// Hint age in hour buckets.
    pub age_hours: u64,
    /// Median false-negative fraction (missed predictable URLs).
    pub false_negative: f64,
    /// Median false-positive fraction (extraneous URLs).
    pub false_positive: f64,
}

/// The full sweep: a no-hints baseline, one cell per `(age, policy)`, and
/// the per-age accuracy curve behind it. Deterministic at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FreshnessReport {
    /// Clients loaded per cell.
    pub clients_per_cell: u64,
    /// Distinct sites.
    pub sites: u64,
    /// Hint-store shards per cell.
    pub shards: u64,
    /// TTL used by the `Ttl` / `RefreshOnMiss` columns.
    pub ttl_hours: u64,
    /// Hint-corruption fraction applied to every hinted load.
    pub hint_corruption: f64,
    /// Median onload of the no-hints baseline (simulated ms).
    pub baseline_p50_ms: f64,
    /// 99th-percentile onload of the baseline (simulated ms).
    pub baseline_p99_ms: f64,
    /// Cells ordered by `(age, policy)`: `never`, `ttl`, `refresh-on-miss`
    /// within each age.
    pub cells: Vec<FreshnessCell>,
    /// Median resolver accuracy per hint age (no store involved — the
    /// analytic curve the cells' speedups should track).
    pub accuracy_by_age: Vec<AgeAccuracy>,
}

impl FreshnessReport {
    /// The deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("==== freshness ====\n");
        out.push_str(&format!(
            "clients/cell {}  sites {}  shards {}  ttl {} h  corruption {:.2}\n",
            self.clients_per_cell, self.sites, self.shards, self.ttl_hours, self.hint_corruption
        ));
        out.push_str(&format!(
            "baseline (no hints): p50 {:.1} ms  p99 {:.1} ms\n",
            self.baseline_p50_ms, self.baseline_p99_ms
        ));
        out.push_str(
            "age policy              p50 ms  speedup    hits  misses   stale   evict  passes\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:>3} {:<18} {:>8.1} {:>8.3} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
                c.age_hours,
                c.policy,
                c.onload_p50_ms,
                c.speedup_p50,
                c.hint_hits,
                c.hint_misses,
                c.stale_served,
                c.evictions,
                c.resolver_passes,
            ));
        }
        out.push_str("accuracy by age (median FN / FP):\n");
        for a in &self.accuracy_by_age {
            out.push_str(&format!(
                "  {:>3} h: {:.3} / {:.3}\n",
                a.age_hours, a.false_negative, a.false_positive
            ));
        }
        out
    }

    /// The deterministic metrics as a canonical-codec JSON tree — the
    /// `metrics` object of `BENCH_freshness.json`.
    pub fn to_json_value(&self) -> Value {
        let num = |x: f64| Value::Float((x * 1e3).round() / 1e3);
        let mut m = BTreeMap::new();
        m.insert("clients_per_cell".into(), Value::Int(self.clients_per_cell));
        m.insert("sites".into(), Value::Int(self.sites));
        m.insert("shards".into(), Value::Int(self.shards));
        m.insert("ttl_hours".into(), Value::Int(self.ttl_hours));
        m.insert("hint_corruption".into(), num(self.hint_corruption));
        m.insert("baseline_p50_ms".into(), num(self.baseline_p50_ms));
        m.insert("baseline_p99_ms".into(), num(self.baseline_p99_ms));
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut e = BTreeMap::new();
                e.insert("age_hours".into(), Value::Int(c.age_hours));
                e.insert("policy".into(), Value::Str(c.policy.clone()));
                e.insert("onload_p50_ms".into(), num(c.onload_p50_ms));
                e.insert("onload_p99_ms".into(), num(c.onload_p99_ms));
                e.insert("speedup_p50".into(), num(c.speedup_p50));
                e.insert("speedup_p99".into(), num(c.speedup_p99));
                e.insert("hint_hits".into(), Value::Int(c.hint_hits));
                e.insert("hint_misses".into(), Value::Int(c.hint_misses));
                e.insert("stale_served".into(), Value::Int(c.stale_served));
                e.insert("stale_reads".into(), Value::Int(c.stale_reads));
                e.insert("evictions".into(), Value::Int(c.evictions));
                e.insert("resolver_passes".into(), Value::Int(c.resolver_passes));
                e.insert("refresh_passes".into(), Value::Int(c.refresh_passes));
                e.insert("wasted_bytes".into(), Value::Int(c.wasted_bytes));
                Value::Object(e)
            })
            .collect();
        m.insert("cells".into(), Value::Array(cells));
        let acc = self
            .accuracy_by_age
            .iter()
            .map(|a| {
                let mut e = BTreeMap::new();
                e.insert("age_hours".into(), Value::Int(a.age_hours));
                e.insert("false_negative".into(), num(a.false_negative));
                e.insert("false_positive".into(), num(a.false_positive));
                Value::Object(e)
            })
            .collect();
        m.insert("accuracy_by_age".into(), Value::Array(acc));
        Value::Object(m)
    }
}

/// The policy columns of the sweep, in cell order.
fn policies(ttl: u64) -> [EvictionPolicy; 3] {
    [
        EvictionPolicy::Never,
        EvictionPolicy::Ttl(ttl),
        EvictionPolicy::RefreshOnMiss(ttl),
    ]
}

/// Run the sweep. Deterministic: byte-identical for any `cfg.workers`.
pub fn run_freshness(cfg: &FreshnessConfig) -> FreshnessReport {
    let sites = cfg.sites.max(1);
    // The client population: derived exactly like a span-0 fleet's, so the
    // sweep measures store policy differences over identical loads. The
    // corpus, the crawls and the access network are the fleet's defaults.
    let fleet_cfg = FleetConfig {
        clients: cfg.clients,
        seed: cfg.seed,
        sites,
        shards: cfg.shards,
        workers: cfg.workers,
        ..FleetConfig::default()
    };
    let server_seed = fleet_cfg.server_seed;
    let corpus = Corpus::news_and_sports_capped(fleet_cfg.corpus_seed, Some(sites));
    let specs: Vec<ClientSpec> = (0..cfg.clients)
        .map(|id| ClientSpec::derive(&fleet_cfg, id))
        .collect();
    // Every cell loads this same population, so its pages are built once.
    let pages = vroom_exec::par_map_indexed(&specs, cfg.workers, |_, spec| {
        corpus.sites[spec.site].snapshot(&spec.ctx())
    });
    // The passes are pure, and every cell of one age commits the same ones
    // (a refresh re-resolves at the serving hour: age 0's passes), so each
    // site's pass at each age runs once for the whole sweep.
    let now = FLEET_BASE_HOURS as i64;
    let passes: Vec<Vec<PassOutput>> = (0..=cfg.max_age_hours)
        .map(|age| {
            vroom_exec::par_map_indexed(&corpus.sites, cfg.workers, |_, site| {
                let resolved_at = now - age as i64;
                run_pass(
                    site,
                    resolved_at as f64,
                    DeviceClass::PhoneLarge,
                    server_seed,
                )
            })
        })
        .collect();

    let profile = &fleet_cfg.profile;
    let baseline = run_cell(cfg, profile, &specs, &pages, &passes, None);
    let mut cells = Vec::new();
    for age in 0..=cfg.max_age_hours {
        for policy in policies(cfg.ttl_hours) {
            let setup = Some((policy, age));
            let mut cell = run_cell(cfg, profile, &specs, &pages, &passes, setup);
            cell.speedup_p50 = baseline.onload_p50_ms / cell.onload_p50_ms;
            cell.speedup_p99 = baseline.onload_p99_ms / cell.onload_p99_ms;
            cells.push(cell);
        }
    }

    // The analytic curve: resolver accuracy per age, median across sites
    // (individual pages churn noisily; the fleet-level exhibit should not).
    let curves: Vec<Vec<(u64, vroom_server::Accuracy)>> = corpus
        .sites
        .iter()
        .enumerate()
        .map(|(s, g)| {
            let ctx = LoadContext {
                hours: FLEET_BASE_HOURS,
                user_id: mix(cfg.seed, 0xACC0 ^ s as u64),
                device: DeviceClass::PhoneLarge,
                nonce: mix(cfg.seed ^ 0xACC1, s as u64),
            };
            hint_quality_by_age(g, &ctx, server_seed, cfg.max_age_hours)
        })
        .collect();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let accuracy_by_age = (0..=cfg.max_age_hours)
        .map(|age| AgeAccuracy {
            age_hours: age,
            false_negative: median(
                curves
                    .iter()
                    .map(|c| c[age as usize].1.false_negative)
                    .collect(),
            ),
            false_positive: median(
                curves
                    .iter()
                    .map(|c| c[age as usize].1.false_positive)
                    .collect(),
            ),
        })
        .collect();

    FreshnessReport {
        clients_per_cell: cfg.clients as u64,
        sites: sites as u64,
        shards: cfg.shards as u64,
        ttl_hours: cfg.ttl_hours,
        hint_corruption: cfg.hint_corruption,
        baseline_p50_ms: baseline.onload_p50_ms,
        baseline_p99_ms: baseline.onload_p99_ms,
        cells,
        accuracy_by_age,
    }
}

/// One cell: a fresh store populated with `age`-hour-old passes (none for
/// the baseline), then the whole client population loaded at the serving
/// hour, `pages[i]` being the page of `specs[i]` and `passes[age][s]` site
/// `s`'s pass resolved `age` hours before it. Speedups are zeroed — the
/// caller fills them in from the baseline.
fn run_cell(
    cfg: &FreshnessConfig,
    profile: &NetworkProfile,
    specs: &[ClientSpec],
    pages: &[Page],
    passes: &[Vec<PassOutput>],
    setup: Option<(EvictionPolicy, u64)>,
) -> FreshnessCell {
    let store = ShardedStore::new(cfg.shards);
    let mut urls = UrlTable::new();
    let now = FLEET_BASE_HOURS as i64;
    let policy = setup.map_or(EvictionPolicy::Never, |(p, _)| p);
    let mut resolver_passes = 0u64;
    let mut refresh_passes = 0u64;

    if let Some((policy, age)) = setup {
        // The crawler ran `age` buckets before the serving hour: commit the
        // passes versioned at that bucket and let the policy judge them.
        let resolved_at = now - age as i64;
        let mut roots: Vec<Option<UrlId>> = Vec::new();
        for pass in &passes[age as usize] {
            let keys = commit_pass_at(pass, &store, &mut urls, resolved_at);
            roots.push(keys.first().copied());
            resolver_passes += 1;
        }
        // The serving hour's maintenance, before any client arrives:
        // the TTL sweep physically drops expired entries...
        if let EvictionPolicy::Ttl(h) = policy {
            store.evict_resolved_before(now - h as i64);
        }
        // ...and the RefreshOnMiss front-end probes each site's root once;
        // a stale probe admits one fresh re-resolution at the serving hour.
        if matches!(policy, EvictionPolicy::RefreshOnMiss(_)) {
            for (s, root) in roots.iter().enumerate() {
                let Some(root) = *root else { continue };
                if store.get_fresh(root, now, policy).is_stale() {
                    commit_pass_at(&passes[0][s], &store, &mut urls, now);
                    resolver_passes += 1;
                    refresh_passes += 1;
                }
            }
        }
    }

    // Load phase: store frozen, loads pure — fan out freely. The baseline
    // skips the corruption plan (it has no hints to corrupt, and a clean
    // denominator keeps speedups interpretable).
    let urls = std::sync::Arc::new(urls);
    let outcomes = vroom_exec::par_map_indexed(specs, cfg.workers, |i, spec| {
        let plan = if setup.is_some() && cfg.hint_corruption > 0.0 {
            FaultPlan::hint_corruption_only(
                mix(cfg.seed ^ 0x0F41_77C5, spec.id as u64),
                cfg.hint_corruption,
            )
        } else {
            FaultPlan::none()
        };
        let mut scratch = EngineScratch::default();
        load_client(
            profile,
            policy,
            spec,
            &pages[i],
            &urls,
            &store,
            &plan,
            &mut scratch,
        )
    });

    let mut tally = OutcomeTally::with_clients(outcomes.len());
    for o in &outcomes {
        tally.add(o);
    }
    let (onload_p50_ms, onload_p99_ms) = tally.onload_p50_p99();
    let fresh = store.freshness_stats();
    FreshnessCell {
        age_hours: setup.map_or(0, |(_, a)| a),
        policy: policy.label(),
        onload_p50_ms,
        onload_p99_ms,
        speedup_p50: 0.0,
        speedup_p99: 0.0,
        hint_hits: tally.hint_hits,
        hint_misses: tally.hint_misses,
        stale_served: tally.hint_stale,
        stale_reads: fresh.iter().map(|f| f.stale).sum(),
        evictions: fresh.iter().map(|f| f.evictions).sum(),
        resolver_passes,
        refresh_passes,
        wasted_bytes: tally.wasted_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_and_cell_order() {
        let cfg = FreshnessConfig::quick(8, 2, 2);
        let r = run_freshness(&cfg);
        assert_eq!(r.cells.len(), 9, "3 ages x 3 policies");
        assert_eq!(r.accuracy_by_age.len(), 3);
        for (i, c) in r.cells.iter().enumerate() {
            assert_eq!(c.age_hours as usize, i / 3);
            let want = ["never", "ttl(1)", "refresh-on-miss(1)"][i % 3];
            assert_eq!(c.policy, want);
        }
        assert!(r.baseline_p50_ms > 0.0);
        for c in &r.cells {
            assert!(c.onload_p50_ms > 0.0);
            assert!(c.speedup_p50 > 0.0);
        }
    }

    #[test]
    fn ttl_column_degrades_to_baseline_past_the_ttl() {
        let cfg = FreshnessConfig::quick(8, 2, 2);
        let r = run_freshness(&cfg);
        // Age 2 > ttl 1: every entry swept, every read a miss, and with no
        // hints left the loads are the baseline loads exactly.
        let cell = r
            .cells
            .iter()
            .find(|c| c.age_hours == 2 && c.policy == "ttl(1)")
            .unwrap();
        assert!(cell.evictions > 0);
        assert_eq!(cell.hint_hits, 0);
        assert_eq!(cell.onload_p50_ms, r.baseline_p50_ms);
        assert_eq!(cell.speedup_p50, 1.0);
        // Fresh hints (age 0) are never evicted.
        let fresh = r
            .cells
            .iter()
            .find(|c| c.age_hours == 0 && c.policy == "ttl(1)")
            .unwrap();
        assert_eq!(fresh.evictions, 0);
        assert!(fresh.hint_hits > 0);
    }

    #[test]
    fn refresh_on_miss_refreshes_stale_sites() {
        let cfg = FreshnessConfig::quick(8, 2, 2);
        let r = run_freshness(&cfg);
        let stale = r
            .cells
            .iter()
            .find(|c| c.age_hours == 2 && c.policy == "refresh-on-miss(1)")
            .unwrap();
        assert_eq!(stale.refresh_passes, 2, "every stale site re-resolved");
        assert_eq!(stale.resolver_passes, 4, "2 aged passes + 2 refreshes");
        let fresh = r
            .cells
            .iter()
            .find(|c| c.age_hours == 0 && c.policy == "refresh-on-miss(1)")
            .unwrap();
        assert_eq!(fresh.refresh_passes, 0);
    }

    #[test]
    fn report_render_and_json_are_consistent() {
        let r = run_freshness(&FreshnessConfig::quick(4, 1, 1));
        let rendered = r.render();
        assert!(rendered.starts_with("==== freshness ===="));
        assert!(rendered.contains("baseline (no hints)"));
        let Value::Object(m) = r.to_json_value() else {
            panic!("metrics must be an object");
        };
        assert!(m.contains_key("baseline_p50_ms"));
        let Some(Value::Array(cells)) = m.get("cells") else {
            panic!("cells array");
        };
        assert_eq!(cells.len(), r.cells.len());
    }
}
