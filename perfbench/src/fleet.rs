//! The `fleet_steady` and `fleet_churn` workloads.
//!
//! Untraced, a workload is a closed loop of whole fleet runs
//! (`vroom_fleet::run_fleet`), each checked against the reference report.
//! Traced, the benchmark replays the fleet loop itself through the public
//! functions the real loop calls, with a span around each call, and proves
//! the replay faithful by rebuilding the real run's `FleetReport` exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vroom_browser::config::{FetchPolicy, Hint, LoadConfig, ServerModel};
use vroom_browser::metrics::percentile_sorted;
use vroom_browser::{BrowserEngine, EngineScratch, LoadResult};
use vroom_exec::Pool;
use vroom_fleet::{FleetConfig, FleetFreshness, FleetReport, FLEET_BASE_HOURS};
use vroom_intern::{UrlId, UrlTable};
use vroom_net::json::Value;
use vroom_net::NetworkProfile;
use vroom_pages::{Corpus, DeviceClass, LoadContext, PageGenerator};
use vroom_server::batch::{commit_pass_at, run_pass, PassOutput};
use vroom_server::freshness::observed_pass;
use vroom_server::push_policy::{select_pushes, PushPolicy};
use vroom_server::resolve::embedded_htmls;
use vroom_server::store::{
    EvictionPolicy, FreshRead, FreshnessStats, HintStore, ShardStats, ShardedStore,
};

use crate::report::Outcome;
use crate::stats::{describe_spread, median};
use crate::trace::{totals_by_name, SpanBuf, SpanId};

/// The two fleet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `FleetConfig::default()`: read-mostly serving, 8 resolver passes.
    Steady,
    /// 64 sites over 24 hour buckets, refresh-on-miss(1), learning on.
    Churn,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Steady => "fleet_steady",
            Shape::Churn => "fleet_churn",
        }
    }

    /// The fleet configuration for `seed`; seed 0 is the committed one.
    pub fn config(self, seed: u64, workers: usize) -> FleetConfig {
        let base = FleetConfig::default();
        let cfg = FleetConfig {
            seed: base.seed ^ seed,
            workers,
            ..base
        };
        match self {
            Shape::Steady => cfg,
            Shape::Churn => FleetConfig {
                sites: 64,
                span_hours: 23,
                policy: EvictionPolicy::RefreshOnMiss(1),
                learn_from_loads: true,
                ..cfg
            },
        }
    }

    fn golden(self) -> &'static str {
        match self {
            Shape::Steady => include_str!("../golden/fleet_steady.json"),
            Shape::Churn => include_str!("../golden/fleet_churn.json"),
        }
    }
}

/// The canonical JSON of a report — what runs are compared by.
pub fn report_json(report: &FleetReport) -> String {
    report.to_json_value().to_pretty()
}

/// Set-up: the workload's inputs — the corpus the fleet serves and the
/// client plan — built with the constructors the fleet itself uses, and
/// the reference report (the committed golden at seed 0).
fn set_up(shape: Shape, seed: u64, cfg: &FleetConfig) -> Option<String> {
    let corpus = Corpus::news_and_sports_capped(cfg.corpus_seed, Some(cfg.sites.max(1)));
    let (batches, _) = plan_batches(cfg);
    std::hint::black_box((&corpus, &batches));
    (seed == 0).then(|| {
        Value::parse(shape.golden())
            .expect("committed fleet golden parses")
            .to_pretty()
    })
}

/// Set-ups before each fleet run. One set-up takes milliseconds, and the
/// first after a run pays for the heap the run returned; the median of
/// several is the set-up itself.
const SETUPS_PER_RUN: usize = 5;

/// Untraced run: until `seconds` have passed, set up and run the fleet,
/// checking every report against the reference.
pub fn run(shape: Shape, seed: u64, seconds: f64, workers: usize, out: &mut Outcome) {
    let cfg = shape.config(seed, workers);
    let (mut setup_s, mut rep_s) = (Vec::new(), Vec::new());
    let mut first: Option<FleetReport> = None;
    let start = Instant::now();
    while rep_s.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let mut golden = None;
        for _ in 0..SETUPS_PER_RUN {
            let t = Instant::now();
            golden = set_up(shape, seed, &cfg);
            setup_s.push(t.elapsed().as_secs_f64());
        }

        let t = Instant::now();
        let fleet = vroom_fleet::run_fleet(&cfg);
        rep_s.push(t.elapsed().as_secs_f64());
        let first = first.get_or_insert_with(|| {
            // Peak memory through set-up and the first run: later runs
            // reuse the same heap, so their peaks add only allocator noise.
            out.set("peak_rss_mb", crate::sys::vmhwm_kb() as f64 / 1024.0);
            fleet.report.clone()
        });
        let ok = *first == fleet.report && golden.is_none_or(|g| g == report_json(&fleet.report));
        if !ok {
            eprintln!("{}: fleet report differs from the reference", shape.name());
        }
        out.check(ok);
    }
    let rep = median(&rep_s).unwrap_or(f64::NAN);
    let loads_per_s = cfg.clients as f64 / rep;
    println!(
        "{}: {} runs of {} clients at {} workers",
        shape.name(),
        rep_s.len(),
        cfg.clients,
        cfg.workers,
    );
    println!("loads_per_s {loads_per_s:.1} 1/s");
    println!("run_ms {}", describe_spread(&rep_s, 1e3));
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.set("ops_per_s", loads_per_s);
}

/// Traced run: alternate the real (clocked) loop with the traced replay
/// until `seconds` have passed; check the replay against the real report.
pub fn run_traced(
    shape: Shape,
    seed: u64,
    seconds: f64,
    workers: usize,
    out: &mut Outcome,
    spans_out: &mut SpanBuf,
) {
    let cfg = shape.config(seed, workers);
    let mut real_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut stages: Vec<[f64; 4]> = Vec::new();
    let mut layers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut counts: Option<BTreeMap<String, f64>> = None;
    let start = Instant::now();
    while real_s.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let clock = || t.elapsed().as_secs_f64();
        let (real, timing) = vroom_fleet::run_fleet_instrumented(&cfg, Some(&clock));
        real_s.push(t.elapsed().as_secs_f64());
        stages.push([
            timing.pass_s,
            timing.commit_s,
            timing.load_s,
            timing.account_s,
        ]);

        let t = Instant::now();
        let replay = replay(&cfg);
        replay_s.push(t.elapsed().as_secs_f64());

        let faithful = replay.report == real.report;
        if !faithful {
            eprintln!(
                "{}: FIDELITY FAILURE: the traced replay's FleetReport differs from the real run's\n\
                 real:\n{}\nreplay:\n{}",
                shape.name(),
                real.report.render(),
                replay.report.render()
            );
        }
        let (times, exact) = layer_metrics(&replay, &cfg);
        let repeat = counts.get_or_insert_with(|| exact.clone()) == &exact;
        if !repeat {
            eprintln!("{}: per-layer counts differ between replays", shape.name());
        }
        out.check(faithful && repeat);
        layers.push(times);
        spans_out.spans = replay.spans.spans;
    }

    for (i, name) in [
        "fleet.pass_s",
        "fleet.commit_s",
        "fleet.load_s",
        "fleet.account_s",
    ]
    .iter()
    .enumerate()
    {
        let v: Vec<f64> = stages.iter().map(|s| s[i]).collect();
        out.set(name, median(&v).unwrap_or(f64::NAN));
    }
    let names: BTreeSet<String> = layers.iter().flat_map(|m| m.keys().cloned()).collect();
    for name in names {
        let v: Vec<f64> = layers
            .iter()
            .filter_map(|m| m.get(&name).copied())
            .collect();
        out.set(&name, median(&v).unwrap_or(f64::NAN));
    }
    for (name, v) in counts.unwrap_or_default() {
        out.set(&name, v);
    }
    let events = out.values.get("browser.events").copied().unwrap_or(0.0);
    let load_s = out.values.get("browser.load_s").copied().unwrap_or(0.0);
    if events > 0.0 {
        out.set("browser.ns_per_event", load_s * 1e9 / events);
    }
    let real = median(&real_s).unwrap_or(f64::NAN);
    let traced = median(&replay_s).unwrap_or(f64::NAN);
    out.set("trace.overhead_s", traced - real);
    println!(
        "{}: {} real runs (median {:.1} ms) and {} traced replays (median {:.1} ms)",
        shape.name(),
        real_s.len(),
        real * 1e3,
        replay_s.len(),
        traced * 1e3
    );
}

/// Per-layer numbers of one replay: times (vary run to run) and exact
/// counts (must repeat).
fn layer_metrics(
    replay: &Replay,
    cfg: &FleetConfig,
) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let totals = totals_by_name(&replay.spans.spans);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let mut times = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        times.insert(k.to_string(), v);
    };
    put("fleet.origins_s", self_s("fleet.origins"));
    put("fleet.unattributed_s", self_s("fleet.load"));
    put("exec.dispatch_s", self_s("exec.dispatch"));
    let dispatch_wall = totals.get("exec.dispatch").map_or(0.0, |t| t.dur_ns as f64);
    let item_time: f64 = ["fleet.load", "resolver.pass"]
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.dur_ns as f64)
        .sum();
    if dispatch_wall > 0.0 {
        put(
            "exec.idle_frac",
            1.0 - item_time / (cfg.workers.max(1) as f64 * dispatch_wall),
        );
    }
    put("pages.corpus_s", self_s("pages.corpus"));
    put("pages.snapshot_s", self_s("pages.snapshot"));
    put("store.read_s", self_s("store.read"));
    put(
        "store.write_s",
        self_s("store.write") + self_s("store.evict"),
    );
    put("resolver.pass_s", self_s("resolver.pass"));
    put("resolver.commit_s", self_s("resolver.commit"));
    put("resolver.observed_s", self_s("resolver.observed"));
    put("resolver.embedded_s", self_s("resolver.embedded"));
    put("push.select_s", self_s("push.select"));
    put("browser.load_s", self_s("browser.load"));
    put("trace.unattributed_s", self_s("fleet.run"));

    let c = &replay.counts;
    let r = &replay.report;
    let shard_sum = |f: fn(&ShardStats) -> u64| r.shard_stats.iter().map(f).sum::<u64>() as f64;
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
    let mut exact = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        exact.insert(k.to_string(), v);
    };
    put("exec.dispatches", count("exec.dispatch"));
    put("exec.items", count("fleet.load") + count("resolver.pass"));
    put("pages.snapshots", count("pages.snapshot"));
    put("pages.resources", c.resources as f64);
    put("store.reads", shard_sum(|s| s.reads));
    put("store.hits", shard_sum(|s| s.hits));
    put("store.writes", shard_sum(|s| s.writes));
    let fresh = r.freshness.as_ref();
    put("store.stale", fresh.map_or(0.0, |f| f.stale_reads as f64));
    put("store.evictions", fresh.map_or(0.0, |f| f.evictions as f64));
    put("resolver.passes", count("resolver.pass"));
    put("resolver.hints", c.pass_hints as f64);
    put("push.selected", c.pushes as f64);
    put("browser.loads", count("browser.load"));
    put("browser.events", c.events as f64);
    put("net.useful_bytes", r.useful_bytes as f64);
    put("net.wasted_bytes", r.wasted_bytes as f64);
    put("trace.spans", replay.spans.spans.len() as f64);
    (times, exact)
}

// ---------------------------------------------------------------------------
// Client derivation: the fleet's own, `vroom_fleet`'s private `ClientSpec`.
// The fidelity check (replayed report == real report) pins it.

const MS_PER_HOUR: u64 = 3_600_000;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy)]
struct Client {
    id: usize,
    site: usize,
    arrival_ms: u64,
    hour_offset: u64,
    device: DeviceClass,
    user_id: u64,
    nonce: u64,
}

impl Client {
    fn derive(cfg: &FleetConfig, id: usize) -> Client {
        let id64 = id as u64;
        let device = if mix(cfg.seed, id64 * 4 + 1).is_multiple_of(2) {
            DeviceClass::PhoneLarge
        } else {
            DeviceClass::PhoneSmall
        };
        Client {
            id,
            site: (mix(cfg.seed, id64 * 4) % cfg.sites.max(1) as u64) as usize,
            arrival_ms: mix(cfg.seed, id64 * 4 + 2) % cfg.arrival_span_ms.max(1),
            hour_offset: mix(cfg.seed ^ 0x5A9B_00C3, id64) % (cfg.span_hours + 1),
            device,
            user_id: mix(cfg.seed, id64 * 4 + 3),
            nonce: mix(cfg.seed ^ 0x0C11E27, id64),
        }
    }

    fn arrival_total_ms(&self) -> u64 {
        self.hour_offset * MS_PER_HOUR + self.arrival_ms
    }

    fn bucket(&self) -> i64 {
        FLEET_BASE_HOURS as i64 + self.hour_offset as i64
    }

    fn ctx(&self) -> LoadContext {
        LoadContext {
            hours: self.bucket() as f64 + self.arrival_ms as f64 / MS_PER_HOUR as f64,
            user_id: self.user_id,
            device: self.device,
            nonce: self.nonce,
        }
    }
}

fn plan_batches(cfg: &FleetConfig) -> (Vec<Vec<Client>>, u64) {
    let mut clients: Vec<Client> = (0..cfg.clients).map(|id| Client::derive(cfg, id)).collect();
    clients.sort_by_key(|c| (c.arrival_total_ms(), c.id));
    let window = cfg.batch_window_ms.max(1);
    let mut batches: Vec<Vec<Client>> = Vec::new();
    for c in clients {
        let slot = c.arrival_total_ms() / window;
        match batches.last_mut() {
            Some(last) if last[0].arrival_total_ms() / window == slot => last.push(c),
            _ => batches.push(vec![c]),
        }
    }
    (batches, window)
}

// ---------------------------------------------------------------------------
// The traced replay.

/// A store wrapper that times the batched writes `commit_pass_at` makes,
/// delegating every call to the real store so its counters are untouched.
struct TracedStore<'a> {
    inner: &'a ShardedStore,
    spans: Mutex<SpanBuf>,
    parent: SpanId,
    op: u64,
}

impl HintStore for TracedStore<'_> {
    fn get_fresh(&self, key: UrlId, now_bucket: i64, policy: EvictionPolicy) -> FreshRead {
        self.inner.get_fresh(key, now_bucket, policy)
    }

    fn put_at(&self, key: UrlId, hints: Vec<Hint>, bucket: i64) {
        self.put_many_at(vec![(key, hints)], bucket);
    }

    fn get_fresh_many(
        &self,
        keys: &[UrlId],
        now_bucket: i64,
        policy: EvictionPolicy,
    ) -> Vec<FreshRead> {
        self.inner.get_fresh_many(keys, now_bucket, policy)
    }

    fn put_many_at(&self, entries: Vec<(UrlId, Vec<Hint>)>, bucket: i64) {
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.span("store.write", Some(self.parent), self.op, || {
            self.inner.put_many_at(entries, bucket)
        });
    }

    fn evict_resolved_before(&self, min_bucket: i64) -> u64 {
        self.inner.evict_resolved_before(min_bucket)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.inner.shard_stats()
    }

    fn freshness_stats(&self) -> Vec<FreshnessStats> {
        self.inner.freshness_stats()
    }

    fn snapshot_versioned(&self) -> BTreeMap<UrlId, (Arc<Vec<Hint>>, i64)> {
        self.inner.snapshot_versioned()
    }
}

/// Per-worker state of the replay's pool: the engine's reusable buffers,
/// as in the real loop.
#[derive(Default)]
struct ReplayScratch {
    engine: EngineScratch,
}

/// What one replayed client load produced.
struct LoadOut {
    site: usize,
    hint_hits: u64,
    hint_misses: u64,
    hint_stale: u64,
    origins: Vec<String>,
    result: LoadResult,
    resources: u64,
    pushes: u64,
    events: u64,
    spans: SpanBuf,
}

/// Exact work counters of one replay.
#[derive(Debug, Default)]
struct Counts {
    resources: u64,
    pushes: u64,
    events: u64,
    pass_hints: u64,
}

struct Replay {
    report: FleetReport,
    spans: SpanBuf,
    counts: Counts,
}

/// Commit one pass through the traced store, under a `resolver.commit`
/// span with the store write as its child.
fn commit_traced(
    spans: &mut SpanBuf,
    parent: SpanId,
    op: u64,
    pass: &PassOutput,
    store: &ShardedStore,
    urls: &mut Arc<UrlTable>,
    bucket: i64,
) {
    let commit = spans.open("resolver.commit", Some(parent), op);
    let traced = TracedStore {
        inner: store,
        spans: Mutex::new(SpanBuf::default()),
        parent: commit,
        op,
    };
    let table = Arc::get_mut(urls).expect("no table refs outstanding between fan-outs");
    commit_pass_at(pass, &traced, table, bucket);
    spans.close(commit);
    spans.absorb(traced.spans.into_inner().expect("span buffer lock"));
}

/// Replay `cfg`'s fleet loop through public functions, one span per call.
/// Batches run unpipelined: passes, commits, loads, accounting — the
/// order the fleet's reference loop defines and its proptests pin equal to
/// the pipelined loop.
fn replay(cfg: &FleetConfig) -> Replay {
    let (cfg, clamped_from) = cfg.validated();
    let cfg = &cfg;
    let mut spans = SpanBuf::default();
    let mut counts = Counts::default();
    let root = spans.open("fleet.run", None, 0);

    let corpus = spans.span("pages.corpus", Some(root), 0, || {
        Arc::new(Corpus::news_and_sports_capped(
            cfg.corpus_seed,
            Some(cfg.sites.max(1)),
        ))
    });
    let store = Arc::new(ShardedStore::new(cfg.shards));
    let mut urls = Arc::new(UrlTable::new());
    let (batches, window) = plan_batches(cfg);
    let pool: Pool<ReplayScratch> = Pool::new(cfg.workers);

    let mut last_pass: BTreeMap<usize, i64> = BTreeMap::new();
    let mut pending_refresh: BTreeSet<usize> = BTreeSet::new();
    let (mut resolver_passes, mut refresh_passes, mut observed_commits) = (0u64, 0u64, 0u64);
    let mut warm_origins: BTreeSet<String> = BTreeSet::new();
    let (mut origins_opened, mut origin_reuses) = (0u64, 0u64);
    let mut outcomes: Vec<(usize, LoadOut)> = Vec::with_capacity(cfg.clients);

    for (bi, batch) in batches.iter().enumerate() {
        let op = bi as u64;
        let batch_bucket = batch
            .iter()
            .map(Client::bucket)
            .min()
            .unwrap_or(FLEET_BASE_HOURS as i64);
        if let EvictionPolicy::Ttl(h) = cfg.policy {
            spans.span("store.evict", Some(root), op, || {
                store.evict_resolved_before(batch_bucket - h as i64)
            });
        }

        let mut needed: BTreeSet<(usize, i64)> = BTreeSet::new();
        for c in batch {
            let due = match (last_pass.get(&c.site), cfg.policy) {
                (None, _) => true,
                (Some(&at), EvictionPolicy::Ttl(h)) => c.bucket() - at > h as i64,
                (Some(_), _) => false,
            };
            if due {
                needed.insert((c.site, c.bucket()));
            }
        }
        for &site in &pending_refresh {
            needed.insert((site, batch_bucket));
        }
        pending_refresh.clear();

        if !needed.is_empty() {
            let keys: Vec<(usize, i64)> = needed.iter().copied().collect();
            let dispatch = spans.open("exec.dispatch", Some(root), op);
            let shared = Arc::clone(&corpus);
            let server_seed = cfg.server_seed;
            let passes = pool.dispatch(keys.clone(), move |_, _, &(site, bucket)| {
                let mut buf = SpanBuf::default();
                let out = buf.span("resolver.pass", Some(dispatch), op, || {
                    run_pass(
                        &shared.sites[site],
                        bucket as f64,
                        DeviceClass::PhoneLarge,
                        server_seed,
                    )
                });
                (out, buf)
            });
            spans.close(dispatch);
            for (&(site, bucket), (pass, buf)) in keys.iter().zip(passes) {
                spans.absorb(buf);
                counts.pass_hints += pass.hint_count() as u64;
                commit_traced(&mut spans, root, op, &pass, &store, &mut urls, bucket);
                let prior = last_pass.insert(site, bucket);
                resolver_passes += 1;
                refresh_passes += u64::from(prior.is_some());
            }
        }

        let dispatch = spans.open("exec.dispatch", Some(root), op);
        let (shared_corpus, shared_urls, shared_store) =
            (Arc::clone(&corpus), Arc::clone(&urls), Arc::clone(&store));
        let (profile, policy) = (cfg.profile.clone(), cfg.policy);
        let loads = pool.dispatch(batch.clone(), move |scratch, _, client| {
            load_client(
                &profile,
                policy,
                client,
                &shared_corpus.sites[client.site],
                &shared_urls,
                shared_store.as_ref(),
                scratch,
                dispatch,
            )
        });
        spans.close(dispatch);

        // Sequential accounting, in arrival order, as the real loop does.
        let mut learned: BTreeSet<usize> = BTreeSet::new();
        for (client, mut load) in batch.iter().zip(loads) {
            spans.absorb(std::mem::take(&mut load.spans));
            counts.resources += load.resources;
            counts.pushes += load.pushes;
            counts.events += load.events;
            if load.hint_stale > 0 {
                pending_refresh.insert(load.site);
            }
            if cfg.learn_from_loads && learned.insert(client.site) {
                let page = spans.span("pages.snapshot", Some(root), op, || {
                    corpus.sites[client.site].snapshot_arc(&client.ctx())
                });
                counts.resources += page.resources.len() as u64;
                let observed = spans.span("resolver.observed", Some(root), op, || {
                    observed_pass(&page, &load.result)
                });
                if !observed.entries.is_empty() {
                    commit_traced(
                        &mut spans,
                        root,
                        op,
                        &observed,
                        &store,
                        &mut urls,
                        client.bucket(),
                    );
                    observed_commits += 1;
                }
            }
            for origin in &load.origins {
                if warm_origins.contains(origin) {
                    origin_reuses += 1;
                } else {
                    warm_origins.insert(origin.clone());
                    origins_opened += 1;
                }
            }
            outcomes.push((client.id, load));
        }
    }
    drop(pool);
    spans.close(root);

    outcomes.sort_by_key(|(id, _)| *id);
    let mut onloads: Vec<f64> = outcomes
        .iter()
        .map(|(_, o)| o.result.plt.as_secs_f64() * 1e3)
        .collect();
    onloads.sort_by(f64::total_cmp);
    let sum = |f: &dyn Fn(&LoadOut) -> u64| outcomes.iter().map(|(_, o)| f(o)).sum::<u64>();
    let fresh = store.freshness_stats();
    let freshness = (cfg.policy != EvictionPolicy::Never
        || cfg.span_hours > 0
        || cfg.learn_from_loads
        || clamped_from > 0)
        .then(|| FleetFreshness {
            policy: cfg.policy.label(),
            span_hours: cfg.span_hours,
            stale_reads: fresh.iter().map(|f| f.stale).sum(),
            stale_served: sum(&|o| o.hint_stale),
            evictions: fresh.iter().map(|f| f.evictions).sum(),
            refresh_passes,
            observed_commits,
            arrival_span_clamped_from_ms: clamped_from,
        });
    let report = FleetReport {
        clients: cfg.clients as u64,
        sites: cfg.sites.max(1) as u64,
        shards: store.shard_count() as u64,
        batch_window_ms: window,
        batches: batches.len() as u64,
        resolver_passes,
        store_entries: store.len() as u64,
        shard_stats: store.shard_stats(),
        hint_hits: sum(&|o| o.hint_hits),
        hint_misses: sum(&|o| o.hint_misses),
        origins_opened,
        origin_reuses,
        onload_p50_ms: percentile_sorted(&onloads, 0.50),
        onload_p99_ms: percentile_sorted(&onloads, 0.99),
        faulted_clients: 0,
        failed_loads: sum(&|o| u64::from(o.result.failed_resources > 0)),
        failed_resources: sum(&|o| o.result.failed_resources as u64),
        retries: sum(&|o| o.result.retries as u64),
        rst_streams: sum(&|o| o.result.rst_streams as u64),
        goaways: sum(&|o| o.result.goaways as u64),
        timeouts: sum(&|o| o.result.timeouts as u64),
        useful_bytes: sum(&|o| o.result.useful_bytes),
        wasted_bytes: sum(&|o| o.result.wasted_bytes),
        freshness,
    };
    Replay {
        report,
        spans,
        counts,
    }
}

/// One client's load, call for call as the fleet serves it, with a span
/// around each call into the program.
#[allow(clippy::too_many_arguments)]
fn load_client(
    profile: &NetworkProfile,
    policy: EvictionPolicy,
    client: &Client,
    site: &PageGenerator,
    urls: &Arc<UrlTable>,
    store: &ShardedStore,
    scratch: &mut ReplayScratch,
    dispatch: SpanId,
) -> LoadOut {
    let op = client.id as u64;
    let mut spans = SpanBuf::default();
    let load = spans.open("fleet.load", Some(dispatch), op);
    let ctx = client.ctx();
    let page = spans.span("pages.snapshot", Some(load), op, || site.snapshot_arc(&ctx));

    let mut load_cfg = LoadConfig::http2_baseline();
    load_cfg.cpu_factor = ctx.device.cpu_factor();
    load_cfg.fetch_policy = FetchPolicy::VroomStaged;
    load_cfg.ordered_responses = true;

    let mut server = ServerModel::default();
    let (mut hint_hits, mut hint_misses, mut hint_stale, mut pushes_selected) =
        (0u64, 0u64, 0u64, 0u64);
    let embedded = spans.span("resolver.embedded", Some(load), op, || {
        embedded_htmls(&page)
    });
    let mut htmls = vec![&page.url];
    htmls.extend(embedded.into_iter().map(|f| &page.resources[f].url));
    let ids: Vec<Option<UrlId>> = htmls.iter().map(|&h| urls.lookup(h)).collect();
    let resolved: Vec<UrlId> = ids.iter().filter_map(|i| *i).collect();
    let mut fetched = spans
        .span("store.read", Some(load), op, || {
            store.get_fresh_many(&resolved, client.bucket(), policy)
        })
        .into_iter();
    for (html, id) in htmls.iter().zip(&ids) {
        let read = match id {
            Some(_) => fetched.next(),
            None => None,
        };
        let stored = read.and_then(|read| {
            hint_stale += u64::from(read.is_stale());
            read.into_hints()
        });
        let (Some(stored), &Some(html_id)) = (stored, id) else {
            hint_misses += 1;
            continue;
        };
        hint_hits += 1;
        let pushes = spans.span("push.select", Some(load), op, || {
            select_pushes(PushPolicy::HighPriorityLocal, &html.host, &stored, urls)
        });
        pushes_selected += pushes.len() as u64;
        if !pushes.is_empty() {
            server.pushes.insert(html_id, pushes);
        }
        server.hints.insert(html_id, stored);
    }
    load_cfg.urls = Arc::clone(urls);
    load_cfg.server = server;

    let result = spans.span("browser.load", Some(load), op, || {
        BrowserEngine::load_with_scratch(&page, profile, &load_cfg, &mut scratch.engine)
    });
    let events = scratch.engine.last_event_count();
    let origins: Vec<String> = spans.span("fleet.origins", Some(load), op, || {
        page.resources
            .iter()
            .map(|r| r.url.origin())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    });
    spans.close(load);
    LoadOut {
        site: client.site,
        hint_hits,
        hint_misses,
        hint_stale,
        origins,
        result,
        resources: page.resources.len() as u64,
        pushes: pushes_selected,
        events,
        spans,
    }
}

/// The report a workload's seed-0 golden holds, pretty-printed.
pub fn golden_report(shape: Shape, workers: usize) -> String {
    report_json(&vroom_fleet::run_fleet(&shape.config(0, workers)).report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_committed_configuration() {
        let steady = Shape::Steady.config(0, 2);
        let base = FleetConfig::default();
        assert_eq!(
            (steady.seed, steady.sites, steady.shards),
            (base.seed, 8, 16)
        );
        assert_eq!(
            (steady.span_hours, steady.policy),
            (0, EvictionPolicy::Never)
        );
        let churn = Shape::Churn.config(0, 2);
        assert_eq!((churn.sites, churn.span_hours), (64, 23));
        assert_eq!(churn.policy, EvictionPolicy::RefreshOnMiss(1));
        assert!(churn.learn_from_loads);
        assert_ne!(Shape::Steady.config(3, 2).seed, base.seed);
    }

    #[test]
    fn replay_reproduces_the_real_report_on_small_fleets() {
        for shape in [Shape::Steady, Shape::Churn] {
            let cfg = FleetConfig {
                clients: 60,
                sites: 4,
                ..shape.config(5, 2)
            };
            let real = vroom_fleet::run_fleet(&cfg).report;
            let replayed = replay(&cfg);
            assert_eq!(replayed.report, real, "{}", shape.name());
            let totals = totals_by_name(&replayed.spans.spans);
            assert_eq!(totals["fleet.load"].count, 60);
            assert_eq!(totals["browser.load"].count, 60);
            assert_eq!(totals["resolver.pass"].count, real.resolver_passes);
        }
    }
}
