//! `vroom-fleet` — fleet-scale serving simulation: one shared Vroom server,
//! thousands of concurrent clients.
//!
//! The paper's deployment story (§6) is a front-end resolution server
//! answering many loads at once; the rest of this workspace models a
//! *single* page load. This crate closes the gap with a throughput mode
//! whose every moving part is deterministic:
//!
//! * **Clients** — `N` simulated clients, each fully derived from the fleet
//!   seed (site, virtual arrival time, device, cookie identity, nonce are
//!   pure hashes of `(seed, client id)`).
//! * **Batched resolution** — clients arriving within one batch window
//!   share a single resolver pass ([`vroom_server::batch`]): the expensive
//!   offline-intersection + online-scan pipeline runs once per
//!   (site, hour, device-bucket), not once per request.
//! * **Sharded hint store** — resolver output is filed in a
//!   [`ShardedStore`] routed by [`vroom_intern::UrlId::shard`]; every load
//!   reads its page's hint lists back out of the store, bumping the
//!   per-shard logical access counters the report exposes as contention
//!   figures.
//! * **Per-origin connection reuse** — the fleet tracks which origins
//!   already hold a warm server connection; later loads touching the same
//!   origin count as reuses (a counter model: reuse does not alter the
//!   simulated load itself).
//! * **Parallel execution** — batches fan resolver passes and client loads
//!   over a persistent [`vroom_exec::Pool`], so the report is
//!   byte-identical at any worker count. Consecutive batches whose loads
//!   commute with the writes between them share one load fan-out (a
//!   *wave*, DESIGN §2w).
//! * **Bounded memory** — the run keeps a compact arrival index (one `u32`
//!   per client) and derives each batch's clients from it when the batch
//!   is due. Each client's outcome is folded into the report's running
//!   tally when its batch is accounted, at the end of its wave (at most
//!   a fixed number of loads per worker), handed to the caller's sink
//!   ([`run_fleet_observed`]), and dropped. What stays per client is the
//!   index entry and one `f64` onload sample.
//!
//! Determinism argument: batch membership and batch order are pure
//! functions of the seed; resolver passes are pure and committed in a fixed
//! order between batches (so shared-table ids are deterministic); client
//! loads within a batch read a frozen store snapshot-equivalent (no writes
//! happen during the load phase) and land in input-index slots; a load
//! runs ahead of an earlier batch's commits only when those commits touch
//! no URL of its site's domains (a wave); the shard
//! counters are *logical* — one bump per operation — so their totals depend
//! on the workload, never on scheduling. Everything in [`FleetReport`] is
//! therefore identical for any `workers`, which `tests/tests/fleet.rs` pins
//! byte-for-byte. Wall-clock throughput (loads/sec) is measured *outside*
//! this crate by `vroom-bench fleet` and kept in a separate `timing`
//! section of `BENCH_fleet.json`.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use vroom::policy::apply_fault_plan;
use vroom_browser::config::{FetchPolicy, LoadConfig, ServerModel};
use vroom_browser::metrics::percentile_sorted;
use vroom_browser::{BrowserEngine, EngineScratch, LoadResult};
use vroom_exec::Pool;
use vroom_html::Url;
use vroom_intern::{UrlId, UrlTable};
use vroom_net::json::Value;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, DeviceClass, LoadContext, Page, PageGenerator};
use vroom_server::batch::{commit_pass_at, run_pass, PassOutput};
use vroom_server::freshness::observed_pass;
use vroom_server::push_policy::{select_pushes, PushPolicy};
use vroom_server::resolve::embedded_htmls;
use vroom_server::store::{EvictionPolicy, HintStore, ShardStats, ShardedStore};
use vroom_sim::mix;

pub mod freshness;

pub use freshness::{run_freshness, AgeAccuracy, FreshnessCell, FreshnessConfig, FreshnessReport};

/// The simulated wall-clock hour the fleet starts in. With
/// [`FleetConfig::span_hours`]` == 0` every client arrives within this one
/// hour bucket, so a site needs exactly one resolver pass for the whole
/// run; larger spans spread arrivals over `span_hours + 1` buckets.
pub const FLEET_BASE_HOURS: f64 = 2000.0;

/// Milliseconds per hour bucket.
const MS_PER_HOUR: u64 = 3_600_000;

/// Upper bound on [`FleetConfig::arrival_span_ms`]: the sub-hour arrival
/// offset must stay inside one hour bucket, or per-bucket resolver-pass
/// batching silently breaks (clients would claim an hour their context
/// does not live in). Larger requested spans are clamped here and surfaced
/// through the report's freshness section; spread arrivals across hours
/// with [`FleetConfig::span_hours`] instead.
pub const MAX_ARRIVAL_SPAN_MS: u64 = MS_PER_HOUR;

/// Which clients an injected fault plan applies to, and how hard it hits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaults {
    /// Seed for per-client plan derivation.
    pub seed: u64,
    /// Plan severity in `[0, 1]`; `<= 0` disables every plan (the inactive
    /// configuration the chaos suite proves byte-identical to no faults).
    pub severity: f64,
    /// Apply the plan to every `one_in`-th client (`client_id % one_in ==
    /// 0`); `1` = every client, `0` = nobody.
    pub one_in: u64,
}

impl FleetFaults {
    /// The fault plan for one client: inactive unless this client is
    /// selected, otherwise seeded from `(seed, client id)` so faults are
    /// independent across clients.
    pub fn plan_for(&self, client: u64) -> FaultPlan {
        if self.severity <= 0.0 || self.one_in == 0 || client % self.one_in != 0 {
            FaultPlan::none()
        } else {
            FaultPlan::from_seed(mix(self.seed, client), self.severity)
        }
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated clients.
    pub clients: usize,
    /// Fleet seed; every per-client parameter derives from it.
    pub seed: u64,
    /// Number of distinct sites the clients are spread over (a prefix of
    /// the News+Sports corpus, so at most
    /// [`Corpus::NEWS_AND_SPORTS_SITES`]).
    pub sites: usize,
    /// Corpus seed (site structures).
    pub corpus_seed: u64,
    /// Seed for the server's crawls.
    pub server_seed: u64,
    /// Hint-store shard count.
    pub shards: usize,
    /// Virtual batch window: clients whose arrival falls in the same
    /// window share one resolver admission round.
    pub batch_window_ms: u64,
    /// Client arrivals spread uniformly over this virtual span *within
    /// their hour bucket* (clamped to [`MAX_ARRIVAL_SPAN_MS`]).
    pub arrival_span_ms: u64,
    /// Hour buckets beyond the base hour that arrivals spread over: each
    /// client derives an hour offset in `0..=span_hours`, so `0` (the
    /// default) keeps the whole fleet inside [`FLEET_BASE_HOURS`].
    pub span_hours: u64,
    /// How stored hint entries age out ([`EvictionPolicy::Never`] is the
    /// pre-freshness behavior, byte-identical to it).
    pub policy: EvictionPolicy,
    /// Feed each batch's *observed* client loads back into the store (one
    /// commit per site per batch, from the site's first arrival). Off by
    /// default: the store then only ever holds crawler-pass output.
    pub learn_from_loads: bool,
    /// Worker threads for resolver passes and client loads (`1` =
    /// sequential). The report is byte-identical for every value.
    pub workers: usize,
    /// The access network every client loads over.
    pub profile: NetworkProfile,
    /// Optional fault injection.
    pub faults: Option<FleetFaults>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 1000,
            seed: 0xF1EE7,
            sites: 8,
            corpus_seed: 7,
            server_seed: 77,
            shards: 16,
            batch_window_ms: 100,
            arrival_span_ms: 10_000,
            span_hours: 0,
            policy: EvictionPolicy::Never,
            learn_from_loads: false,
            workers: 1,
            profile: NetworkProfile::lte(),
            faults: None,
        }
    }
}

impl FleetConfig {
    /// A reduced configuration for quick tests.
    pub fn quick(clients: usize, sites: usize) -> Self {
        FleetConfig {
            clients,
            sites,
            ..Default::default()
        }
    }

    /// Whether the freshness machinery is in play: an eviction policy, an
    /// hour span or learning. Without it, a run's report and its
    /// `BENCH_fleet.json` config are byte-identical to the pre-freshness
    /// fleet's.
    pub fn freshness_in_play(&self) -> bool {
        self.policy != EvictionPolicy::Never || self.span_hours > 0 || self.learn_from_loads
    }

    /// The configuration with `arrival_span_ms` clamped to
    /// [`MAX_ARRIVAL_SPAN_MS`], plus the original (over-limit) value when a
    /// clamp happened (`0` otherwise) — rendered as a warning counter in
    /// the report's freshness section rather than silently ignored.
    pub fn validated(&self) -> (FleetConfig, u64) {
        if self.arrival_span_ms > MAX_ARRIVAL_SPAN_MS {
            // vroom-lint: allow(hot-path-alloc) -- one config clone per run, before any client is served
            let mut cfg = self.clone();
            cfg.arrival_span_ms = MAX_ARRIVAL_SPAN_MS;
            (cfg, self.arrival_span_ms)
        } else {
            // vroom-lint: allow(hot-path-alloc) -- one config clone per run, before any client is served
            (self.clone(), 0)
        }
    }
}

/// One client's derived parameters — a pure function of (fleet seed, id).
#[derive(Debug, Clone, Copy)]
struct ClientSpec {
    id: usize,
    site: usize,
    /// Sub-hour arrival offset within the client's hour bucket; kept below
    /// [`MAX_ARRIVAL_SPAN_MS`] by [`FleetConfig::validated`] so it can
    /// never push the context into a different bucket than [`bucket`].
    ///
    /// [`bucket`]: ClientSpec::bucket
    arrival_ms: u64,
    /// Hour buckets past [`FLEET_BASE_HOURS`] this client arrives in
    /// (always `0` when the fleet's `span_hours` is `0`).
    hour_offset: u64,
    device: DeviceClass,
    user_id: u64,
    nonce: u64,
}

impl ClientSpec {
    fn derive(cfg: &FleetConfig, id: usize) -> ClientSpec {
        let id64 = id as u64;
        // The fleet is a mobile population: phone devices only, so the
        // server's phone-bucket resolver pass serves every client. (Large
        // vs small phones still differ in CPU speed and DPR-keyed URLs —
        // slightly wrong hints for the minority device are part of the
        // model, as in the paper's Fig 9.)
        let device = if mix(cfg.seed, id64 * 4 + 1) % 2 == 0 {
            DeviceClass::PhoneLarge
        } else {
            DeviceClass::PhoneSmall
        };
        ClientSpec {
            id,
            site: (mix(cfg.seed, id64 * 4) % cfg.sites.max(1) as u64) as usize,
            arrival_ms: mix(cfg.seed, id64 * 4 + 2) % cfg.arrival_span_ms.max(1),
            // A fresh hash stream: span-0 fleets keep every other derived
            // parameter byte-identical to the pre-freshness fleet.
            hour_offset: mix(cfg.seed ^ 0x5A9B_00C3, id64) % (cfg.span_hours + 1),
            device,
            user_id: mix(cfg.seed, id64 * 4 + 3),
            nonce: mix(cfg.seed ^ 0x0C11E27, id64),
        }
    }

    /// Total virtual arrival time: the hour offset plus the sub-hour
    /// offset — what arrivals sort and batch by.
    fn arrival_total_ms(&self) -> u64 {
        self.hour_offset * MS_PER_HOUR + self.arrival_ms
    }

    /// The hour bucket this client arrives (and reads the store) in.
    fn bucket(&self) -> i64 {
        FLEET_BASE_HOURS as i64 + self.hour_offset as i64
    }

    fn ctx(&self) -> LoadContext {
        LoadContext {
            // Sub-hour arrival offset: stays inside the client's hour
            // bucket (arrival_ms < MAX_ARRIVAL_SPAN_MS by validation).
            hours: self.bucket() as f64 + self.arrival_ms as f64 / MS_PER_HOUR as f64,
            user_id: self.user_id,
            device: self.device,
            nonce: self.nonce,
        }
    }
}

/// What one client's load produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Client id (index into the fleet).
    pub id: usize,
    /// Site index the client loaded.
    pub site: usize,
    /// Virtual arrival time within the run.
    pub arrival_ms: u64,
    /// Whether an active fault plan was applied to this client.
    pub faulted: bool,
    /// HTML documents whose hints were found in the shared store.
    pub hint_hits: u64,
    /// HTML documents with no store entry (churned iframe URLs, mostly),
    /// including entries the eviction policy logically evicted.
    pub hint_misses: u64,
    /// HTML documents served *stale* hints (counted in `hint_hits` too):
    /// nonzero only under [`EvictionPolicy::RefreshOnMiss`], where it
    /// triggers a re-resolution admission in the next batch.
    pub hint_stale: u64,
    /// Distinct origins the load touched, sorted.
    pub origins: Vec<String>,
    /// The full simulated load result.
    pub result: LoadResult,
}

/// Aggregate report of one fleet run. Every field is deterministic: equal
/// configs produce byte-identical reports at any worker count. Wall-clock
/// throughput is intentionally absent — `vroom-bench fleet` measures it
/// around this crate and files it in a separate `timing` section.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Simulated clients.
    pub clients: u64,
    /// Distinct sites.
    pub sites: u64,
    /// Hint-store shards.
    pub shards: u64,
    /// Batch window (virtual ms).
    pub batch_window_ms: u64,
    /// Batches executed.
    pub batches: u64,
    /// Resolver passes run (≤ sites: passes are shared within and across
    /// batches through the store).
    pub resolver_passes: u64,
    /// Live hint-store entries at end of run.
    pub store_entries: u64,
    /// Per-shard access counters, in shard order.
    pub shard_stats: Vec<ShardStats>,
    /// HTML documents served hints out of the store.
    pub hint_hits: u64,
    /// HTML documents that missed the store.
    pub hint_misses: u64,
    /// Origins that required a new server connection.
    pub origins_opened: u64,
    /// Loads that found their origin's connection already warm.
    pub origin_reuses: u64,
    /// Median onload across the fleet (simulated ms).
    pub onload_p50_ms: f64,
    /// 99th-percentile onload (simulated ms).
    pub onload_p99_ms: f64,
    /// Clients that ran under an active fault plan.
    pub faulted_clients: u64,
    /// Clients with at least one failed resource.
    pub failed_loads: u64,
    /// Failed resources across the fleet.
    pub failed_resources: u64,
    /// Retries across the fleet.
    pub retries: u64,
    /// RST_STREAM-equivalent events.
    pub rst_streams: u64,
    /// GOAWAY-equivalent events.
    pub goaways: u64,
    /// Timed-out attempts.
    pub timeouts: u64,
    /// Bytes fetched that belonged to the pages.
    pub useful_bytes: u64,
    /// Bytes wasted on inaccurate hints/pushes.
    pub wasted_bytes: u64,
    /// Freshness-loop accounting. `None` for a legacy run (policy `Never`,
    /// zero span, no learning, nothing clamped), in which case the render
    /// and JSON are byte-identical to the pre-freshness report.
    pub freshness: Option<FleetFreshness>,
}

/// The freshness section of a [`FleetReport`]: everything the hint-aging
/// loop did during the run. All counters are logical and therefore
/// byte-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFreshness {
    /// The eviction policy label (`never`, `ttl(1)`, `refresh-on-miss(1)`).
    pub policy: String,
    /// Hour buckets past the base hour arrivals spread over.
    pub span_hours: u64,
    /// Store reads classified stale (logically evicted or served stale).
    pub stale_reads: u64,
    /// HTML documents served stale hints (RefreshOnMiss only).
    pub stale_served: u64,
    /// Entries physically removed by TTL sweeps.
    pub evictions: u64,
    /// Resolver passes re-run for a site that already had one (TTL expiry
    /// or stale-read admissions).
    pub refresh_passes: u64,
    /// Observed-load commits fed back into the store.
    pub observed_commits: u64,
    /// The requested `arrival_span_ms` when it exceeded
    /// [`MAX_ARRIVAL_SPAN_MS`] and was clamped; `0` when no clamp happened.
    pub arrival_span_clamped_from_ms: u64,
}

impl FleetReport {
    /// Store hit rate in percent (0 when nothing was looked up).
    pub fn hint_hit_rate(&self) -> f64 {
        let total = self.hint_hits + self.hint_misses;
        if total == 0 {
            return 0.0;
        }
        self.hint_hits as f64 * 100.0 / total as f64
    }

    /// The deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("==== fleet ====\n");
        out.push_str(&format!(
            "clients {}  sites {}  shards {}  window {} ms  batches {}\n",
            self.clients, self.sites, self.shards, self.batch_window_ms, self.batches
        ));
        out.push_str(&format!(
            "resolver passes {}  store entries {}\n",
            self.resolver_passes, self.store_entries
        ));
        out.push_str(&format!(
            "hints: hits {}  misses {}  hit rate {:.1}%\n",
            self.hint_hits,
            self.hint_misses,
            self.hint_hit_rate()
        ));
        out.push_str(&format!(
            "origins: opened {}  reused {}\n",
            self.origins_opened, self.origin_reuses
        ));
        out.push_str(&format!(
            "onload: p50 {:.1} ms  p99 {:.1} ms\n",
            self.onload_p50_ms, self.onload_p99_ms
        ));
        out.push_str(&format!(
            "faults: faulted clients {}  failed loads {}  failed resources {}  \
             retries {}  rst {}  goaway {}  timeouts {}\n",
            self.faulted_clients,
            self.failed_loads,
            self.failed_resources,
            self.retries,
            self.rst_streams,
            self.goaways,
            self.timeouts
        ));
        out.push_str(&format!(
            "bytes: useful {}  wasted {}\n",
            self.useful_bytes, self.wasted_bytes
        ));
        if let Some(f) = &self.freshness {
            if f.arrival_span_clamped_from_ms > 0 {
                out.push_str(&format!(
                    "warning: arrival span clamped {} -> {} ms (use span_hours to cross buckets)\n",
                    f.arrival_span_clamped_from_ms, MAX_ARRIVAL_SPAN_MS
                ));
            }
            out.push_str(&format!(
                "freshness: policy {}  span {} h  stale reads {}  stale served {}  \
                 evictions {}  refresh passes {}  observed commits {}\n",
                f.policy,
                f.span_hours,
                f.stale_reads,
                f.stale_served,
                f.evictions,
                f.refresh_passes,
                f.observed_commits
            ));
        }
        out.push_str("shard   reads    hits  writes entries\n");
        for (i, s) in self.shard_stats.iter().enumerate() {
            out.push_str(&format!(
                "  {:>3} {:>7} {:>7} {:>7} {:>7}\n",
                i, s.reads, s.hits, s.writes, s.entries
            ));
        }
        out
    }

    /// The deterministic metrics as a canonical-codec JSON tree — the
    /// `metrics` object of `BENCH_fleet.json`.
    pub fn to_json_value(&self) -> Value {
        let round3 = |x: f64| (x * 1e3).round() / 1e3;
        let mut m = BTreeMap::new();
        m.insert("clients".into(), Value::Int(self.clients));
        m.insert("sites".into(), Value::Int(self.sites));
        m.insert("shards".into(), Value::Int(self.shards));
        m.insert("batch_window_ms".into(), Value::Int(self.batch_window_ms));
        m.insert("batches".into(), Value::Int(self.batches));
        m.insert("resolver_passes".into(), Value::Int(self.resolver_passes));
        m.insert("store_entries".into(), Value::Int(self.store_entries));
        m.insert("hint_hits".into(), Value::Int(self.hint_hits));
        m.insert("hint_misses".into(), Value::Int(self.hint_misses));
        m.insert("origins_opened".into(), Value::Int(self.origins_opened));
        m.insert("origin_reuses".into(), Value::Int(self.origin_reuses));
        m.insert(
            "onload_p50_ms".into(),
            Value::Float(round3(self.onload_p50_ms)),
        );
        m.insert(
            "onload_p99_ms".into(),
            Value::Float(round3(self.onload_p99_ms)),
        );
        m.insert("faulted_clients".into(), Value::Int(self.faulted_clients));
        m.insert("failed_loads".into(), Value::Int(self.failed_loads));
        m.insert("failed_resources".into(), Value::Int(self.failed_resources));
        m.insert("retries".into(), Value::Int(self.retries));
        m.insert("rst_streams".into(), Value::Int(self.rst_streams));
        m.insert("goaways".into(), Value::Int(self.goaways));
        m.insert("timeouts".into(), Value::Int(self.timeouts));
        m.insert("useful_bytes".into(), Value::Int(self.useful_bytes));
        m.insert("wasted_bytes".into(), Value::Int(self.wasted_bytes));
        let shards = self
            .shard_stats
            .iter()
            .map(|s| {
                let mut e = BTreeMap::new();
                e.insert("reads".into(), Value::Int(s.reads));
                e.insert("hits".into(), Value::Int(s.hits));
                e.insert("writes".into(), Value::Int(s.writes));
                e.insert("entries".into(), Value::Int(s.entries));
                Value::Object(e)
            })
            .collect();
        m.insert("shard_stats".into(), Value::Array(shards));
        if let Some(f) = &self.freshness {
            let mut fo = BTreeMap::new();
            fo.insert("policy".into(), Value::Str(f.policy.clone()));
            fo.insert("span_hours".into(), Value::Int(f.span_hours));
            fo.insert("stale_reads".into(), Value::Int(f.stale_reads));
            fo.insert("stale_served".into(), Value::Int(f.stale_served));
            fo.insert("evictions".into(), Value::Int(f.evictions));
            fo.insert("refresh_passes".into(), Value::Int(f.refresh_passes));
            fo.insert("observed_commits".into(), Value::Int(f.observed_commits));
            fo.insert(
                "arrival_span_clamped_from_ms".into(),
                Value::Int(f.arrival_span_clamped_from_ms),
            );
            m.insert("freshness".into(), Value::Object(fo));
        }
        Value::Object(m)
    }
}

/// A finished fleet run. Client outcomes are not kept: a caller that needs
/// them passes a sink to [`run_fleet_observed`].
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Aggregate, deterministic report.
    pub report: FleetReport,
}

/// Wall-clock time spent in each stage of a fleet run, in seconds.
/// Populated only when [`run_fleet_instrumented`] is given a clock; all
/// zeros otherwise. Purely diagnostic: none of it feeds the report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStageTiming {
    /// Dedicated resolver-pass fan-outs: the passes a wave head needs that
    /// no earlier fan-out ran (the cold start), and one fan-out per wave
    /// for the refresh passes its loads admit.
    pub pass_s: f64,
    /// Sequential store commits between fan-outs.
    pub commit_s: f64,
    /// The combined fan-outs: a wave's client loads overlapped with the
    /// *next* wave's arrival-driven resolver passes.
    pub load_s: f64,
    /// Sequential post-batch accounting (origin pool, learning commits).
    pub account_s: f64,
}

/// One unit of work in a fan-out: a client load of the current wave, or a
/// resolver pass for `(site, bucket)`.
enum FleetWork {
    /// A client load. `learn` builds the load's observed pass on the worker:
    /// set for each site's first load of a batch when the fleet learns from
    /// loads. The page is freed on its worker either way.
    Load {
        spec: ClientSpec,
        learn: bool,
    },
    Pass((usize, i64)),
}

enum FleetDone {
    Load(Box<(ClientOutcome, Option<PassOutput>)>),
    Pass((usize, i64), PassOutput),
}

/// What a report needs from its clients' outcomes, folded one outcome at
/// a time: the sums it prints and one onload sample per client. Neither
/// depends on the order outcomes arrive in. The sums are `u64`, and the
/// samples are sorted with `total_cmp`, a total order, before any
/// percentile is read. So the fold yields the report that keeping every
/// outcome to the end would.
#[derive(Debug, Default)]
struct OutcomeTally {
    /// Onload per client (simulated ms), in arrival order until
    /// [`OutcomeTally::onload_p50_p99`] sorts them.
    onloads_ms: Vec<f64>,
    hint_hits: u64,
    hint_misses: u64,
    hint_stale: u64,
    faulted: u64,
    failed_loads: u64,
    failed_resources: u64,
    retries: u64,
    rst_streams: u64,
    goaways: u64,
    timeouts: u64,
    useful_bytes: u64,
    wasted_bytes: u64,
}

impl OutcomeTally {
    /// An empty tally with room for `clients` onload samples.
    fn with_clients(clients: usize) -> OutcomeTally {
        OutcomeTally {
            onloads_ms: Vec::with_capacity(clients),
            ..OutcomeTally::default()
        }
    }

    fn add(&mut self, o: &ClientOutcome) {
        let r = &o.result;
        self.onloads_ms.push(r.plt.as_secs_f64() * 1e3);
        self.hint_hits += o.hint_hits;
        self.hint_misses += o.hint_misses;
        self.hint_stale += o.hint_stale;
        self.faulted += o.faulted as u64;
        self.failed_loads += (r.failed_resources > 0) as u64;
        self.failed_resources += r.failed_resources as u64;
        self.retries += r.retries as u64;
        self.rst_streams += r.rst_streams as u64;
        self.goaways += r.goaways as u64;
        self.timeouts += r.timeouts as u64;
        self.useful_bytes += r.useful_bytes;
        self.wasted_bytes += r.wasted_bytes;
    }

    /// Median and 99th-percentile onload (simulated ms).
    fn onload_p50_p99(&mut self) -> (f64, f64) {
        self.onloads_ms.sort_by(f64::total_cmp);
        (
            percentile_sorted(&self.onloads_ms, 0.50),
            percentile_sorted(&self.onloads_ms, 0.99),
        )
    }
}

/// Mutable cross-batch accounting state of the fleet loop.
#[derive(Default)]
struct FleetAccum {
    /// The hour bucket each site's store entries were last resolved at.
    last_pass: BTreeMap<usize, i64>,
    /// Sites whose stale reads admitted a re-resolution (RefreshOnMiss).
    pending_refresh: BTreeSet<usize>,
    resolver_passes: u64,
    refresh_passes: u64,
    observed_commits: u64,
    warm_origins: BTreeSet<String>,
    origins_opened: u64,
    origin_reuses: u64,
    tally: OutcomeTally,
}

impl FleetAccum {
    /// Admission: which (site, bucket) pairs need a resolver pass for this
    /// batch's *arrivals* — sites never passed and sites whose pass expired
    /// under the TTL. (Stale-read refresh admissions are a separate input:
    /// they depend on the previous batch's outcomes.) Deterministic order
    /// (BTreeSet) so commit order — and therefore shared-table id
    /// assignment — is schedule-independent; ascending buckets make the
    /// newest pass win for a site admitted at two buckets.
    ///
    /// Depends only on `last_pass`, which commits alone update — that is
    /// what lets the loop compute batch k+1's arrival admissions during
    /// batch k's load phase.
    fn arrivals_needed(
        &self,
        batch: &[ClientSpec],
        policy: EvictionPolicy,
    ) -> BTreeSet<(usize, i64)> {
        let mut needed = BTreeSet::new();
        for spec in batch {
            let due = match (self.last_pass.get(&spec.site), policy) {
                (None, _) => true,
                (Some(_), EvictionPolicy::Never) => false,
                (Some(&at), EvictionPolicy::Ttl(h)) => spec.bucket() - at > h as i64,
                // Stale reads, not arrivals, admit refresh passes.
                (Some(_), EvictionPolicy::RefreshOnMiss(_)) => false,
            };
            if due {
                needed.insert((spec.site, spec.bucket()));
            }
        }
        needed
    }

    /// Admission for one batch: its arrivals' passes plus the refresh
    /// passes the previous batch's stale serves admitted, at the batch's
    /// first hour bucket.
    fn admit(&mut self, batch: &[ClientSpec], policy: EvictionPolicy) -> BTreeSet<(usize, i64)> {
        let bucket = batch_bucket(batch);
        let mut needed = self.arrivals_needed(batch, policy);
        needed.extend(self.pending_refresh.iter().map(|&site| (site, bucket)));
        self.pending_refresh.clear();
        needed
    }

    /// Commit the admitted passes, taken out of `passes`, in deterministic
    /// `(site, bucket)` order. The pool's ack barrier guarantees every
    /// worker dropped its table `Arc`, so `get_mut` is exclusive access,
    /// not a copy.
    fn commit(
        &mut self,
        needed: &BTreeSet<(usize, i64)>,
        passes: &mut BTreeMap<(usize, i64), PassOutput>,
        store: &ShardedStore,
        urls: &mut Arc<UrlTable>,
    ) {
        for &(site, bucket) in needed {
            let pass = passes
                .remove(&(site, bucket))
                .expect("admitted pass was run before its commit");
            let table = Arc::get_mut(urls).expect("no table refs outstanding between fan-outs");
            commit_pass_at(&pass, store, table, bucket);
            let prior = self.last_pass.insert(site, bucket);
            self.resolver_passes += 1;
            self.refresh_passes += prior.is_some() as u64;
        }
    }

    /// Sequential post-batch accounting, in arrival order: the origin
    /// pool models per-origin connection reuse across the fleet, stale
    /// serves admit refresh passes, and each load that came back with an
    /// observed pass (a site's first load of the batch, when learning) is
    /// committed to the store. Then the outcome is folded into the tally
    /// and handed to `on_outcome`, which owns it from there.
    fn account_batch(
        &mut self,
        store: &ShardedStore,
        urls: &mut Arc<UrlTable>,
        batch: &[ClientSpec],
        batch_outcomes: impl Iterator<Item = (ClientOutcome, Option<PassOutput>)>,
        on_outcome: &mut dyn FnMut(ClientOutcome),
    ) {
        for (spec, (outcome, observed)) in batch.iter().zip(batch_outcomes) {
            if outcome.hint_stale > 0 {
                self.pending_refresh.insert(outcome.site);
            }
            if let Some(observed) = observed {
                let table = Arc::get_mut(urls).expect("no table refs outstanding between fan-outs");
                commit_pass_at(&observed, store, table, spec.bucket());
                self.observed_commits += 1;
            }
            for origin in &outcome.origins {
                if self.warm_origins.contains(origin) {
                    self.origin_reuses += 1;
                } else {
                    // vroom-lint: allow(hot-path-alloc) -- one clone per first-seen origin; bounded by distinct origins, not loads
                    self.warm_origins.insert(origin.clone());
                    self.origins_opened += 1;
                }
            }
            self.tally.add(&outcome);
            on_outcome(outcome);
        }
    }

    /// Assemble the final report from the accumulated state.
    fn finish(
        mut self,
        cfg: &FleetConfig,
        clamped_from: u64,
        store: &ShardedStore,
        window: u64,
        batches: u64,
    ) -> FleetRun {
        let (onload_p50_ms, onload_p99_ms) = self.tally.onload_p50_p99();
        let t = &self.tally;
        // The freshness section also reports a clamped arrival span.
        let freshness = (cfg.freshness_in_play() || clamped_from > 0).then(|| {
            let fresh = store.freshness_stats();
            FleetFreshness {
                policy: cfg.policy.label(),
                span_hours: cfg.span_hours,
                stale_reads: fresh.iter().map(|f| f.stale).sum(),
                stale_served: t.hint_stale,
                evictions: fresh.iter().map(|f| f.evictions).sum(),
                refresh_passes: self.refresh_passes,
                observed_commits: self.observed_commits,
                arrival_span_clamped_from_ms: clamped_from,
            }
        });
        let report = FleetReport {
            clients: cfg.clients as u64,
            sites: cfg.sites.max(1) as u64,
            shards: store.shard_count() as u64,
            batch_window_ms: window,
            batches,
            resolver_passes: self.resolver_passes,
            store_entries: store.len() as u64,
            shard_stats: store.shard_stats(),
            hint_hits: t.hint_hits,
            hint_misses: t.hint_misses,
            origins_opened: self.origins_opened,
            origin_reuses: self.origin_reuses,
            onload_p50_ms,
            onload_p99_ms,
            faulted_clients: t.faulted,
            failed_loads: t.failed_loads,
            failed_resources: t.failed_resources,
            retries: t.retries,
            rst_streams: t.rst_streams,
            goaways: t.goaways,
            timeouts: t.timeouts,
            useful_bytes: t.useful_bytes,
            wasted_bytes: t.wasted_bytes,
            freshness,
        };
        FleetRun { report }
    }
}

/// The hour bucket a batch's admissions are made at: its earliest client's.
fn batch_bucket(batch: &[ClientSpec]) -> i64 {
    batch
        .iter()
        .map(ClientSpec::bucket)
        .min()
        .unwrap_or(FLEET_BASE_HOURS as i64)
}

/// Loads a wave may hold per worker. A wave keeps each load's outcome (and,
/// when learning, its observed pass) until its batches are accounted, so
/// the cap bounds the loop's memory by the worker count, never by the
/// client count. DESIGN §2w gives the measurements behind the value.
const WAVE_LOADS_PER_WORKER: usize = 16;

/// The conflict class of each site: sites whose [`PageGenerator::domains`]
/// share a host, closed transitively, form one class, named by its smallest
/// site index. Every URL a site's pages, passes and observed passes hold
/// lies on that site's domains, so a load of one class reads no table or
/// store entry that a commit for another class writes.
fn conflict_classes(sites: &[PageGenerator]) -> Vec<usize> {
    // Union-find whose root is the smallest index of its class.
    fn root(class: &mut [usize], mut site: usize) -> usize {
        while class[site] != site {
            class[site] = class[class[site]];
            site = class[site];
        }
        site
    }
    let mut class: Vec<usize> = (0..sites.len()).collect();
    let mut first_on: BTreeMap<&str, usize> = BTreeMap::new();
    for (site, generator) in sites.iter().enumerate() {
        // Type-qualified: `Page::domains`, which copies, shares the name.
        for host in PageGenerator::domains(generator) {
            let other = *first_on.entry(host).or_insert(site);
            let (a, b) = (root(&mut class, site), root(&mut class, other));
            class[a.max(b)] = a.min(b);
        }
    }
    (0..sites.len())
        .map(|site| root(&mut class, site))
        .collect()
}

/// Consecutive batches whose loads run in one fan-out (DESIGN §2w). A wave
/// starts at a head batch, whose passes are committed before any load runs,
/// and takes the next batch while that batch's loads commute with every
/// write the sequential loop would make before them.
struct Wave {
    /// The conflict class of each site ([`conflict_classes`]).
    class: Vec<usize>,
    /// Whether a load can write before the next batch's loads: it commits
    /// an observed pass when learning, and under `RefreshOnMiss` a stale
    /// serve admits a refresh pass.
    loads_write: bool,
    /// Most loads a wave may hold. `0` when waves are their head alone:
    /// without prefetch, and under TTL, whose sweeps and expiry passes
    /// write for every site.
    cap: usize,
    batches: Vec<Vec<ClientSpec>>,
    loads: usize,
    /// `writing[c]`: the wave holds a load of class `c` that can write.
    writing: Vec<bool>,
}

impl Wave {
    fn new(cfg: &FleetConfig, corpus: &Corpus, prefetch: bool) -> Wave {
        let class = conflict_classes(&corpus.sites);
        let extends = prefetch && !matches!(cfg.policy, EvictionPolicy::Ttl(_));
        Wave {
            writing: vec![false; class.len()],
            class,
            loads_write: cfg.learn_from_loads
                || matches!(cfg.policy, EvictionPolicy::RefreshOnMiss(_)),
            cap: if extends {
                WAVE_LOADS_PER_WORKER * cfg.workers.max(1)
            } else {
                0
            },
            batches: Vec::new(),
            loads: 0,
        }
    }

    /// Empty the wave and start it at `head`.
    fn start(&mut self, head: Vec<ClientSpec>) {
        self.batches.clear();
        self.loads = 0;
        self.writing.fill(false);
        self.push(head);
    }

    fn push(&mut self, batch: Vec<ClientSpec>) {
        self.loads += batch.len();
        if self.loads_write {
            for spec in &batch {
                self.writing[self.class[spec.site]] = true;
            }
        }
        self.batches.push(batch);
    }

    /// Whether `batch` may join: the wave stays under its cap, the batch
    /// admits no arrival pass, and none of its loads is in the class of a
    /// writing load already in the wave. Outside TTL, `arrivals_needed`
    /// reads only which sites were ever passed, which no commit inside a
    /// wave changes.
    fn admits(&self, batch: &[ClientSpec], accum: &FleetAccum, policy: EvictionPolicy) -> bool {
        self.loads + batch.len() <= self.cap
            && batch
                .iter()
                .all(|spec| !self.writing[self.class[spec.site]])
            && accum.arrivals_needed(batch, policy).is_empty()
    }
}

/// Client ids sorted by `(arrival_total_ms, id)`: the fleet's arrival
/// order in four bytes per client. A batch's [`ClientSpec`]s are derived
/// again from these ids when the batch is due. The sort re-derives its key
/// at each comparison, a few hashes, instead of holding a key per client.
fn arrival_order(cfg: &FleetConfig) -> Vec<u32> {
    let clients = u32::try_from(cfg.clients).expect("a fleet has at most u32::MAX clients");
    let mut order: Vec<u32> = (0..clients).collect();
    order.sort_unstable_by_key(|&id| (ClientSpec::derive(cfg, id as usize).arrival_total_ms(), id));
    order
}

/// Run the fleet. Deterministic: the returned report is byte-identical for
/// any `cfg.workers` and across repeated runs with the same config.
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    run_fleet_instrumented(cfg, None).0
}

/// [`run_fleet`] with an injected wall clock (seconds; any epoch) for the
/// per-stage breakdown `vroom-bench fleet` files under `timing`. The clock
/// stays injected so this crate never touches `std::time` — simulated
/// results must be a pure function of the config, and the caller's clock
/// reads only bracket stages, never feed them.
///
/// Execution is *pipelined*: each wave's fan-out combines the client loads
/// of its batches with the **next** wave's arrival-driven resolver passes
/// (both pure in the frozen shared state), so resolver work hides behind
/// load work instead of serializing with it. Commits stay sequential, in
/// batch order, between fan-outs; refresh admissions (which depend on the
/// previous batch's outcomes) run in one fan-out after the wave's loads.
pub fn run_fleet_instrumented(
    cfg: &FleetConfig,
    clock: Option<&dyn Fn() -> f64>,
) -> (FleetRun, FleetStageTiming) {
    run_fleet_observed(cfg, clock, &mut |_| {})
}

/// [`run_fleet_instrumented`] that hands each client's outcome to
/// `on_outcome` once its batch is accounted. Outcomes arrive in arrival
/// order, every client exactly once; the run keeps none of them. This is
/// how the test tier checks per-client results.
pub fn run_fleet_observed(
    cfg: &FleetConfig,
    clock: Option<&dyn Fn() -> f64>,
    on_outcome: &mut dyn FnMut(ClientOutcome),
) -> (FleetRun, FleetStageTiming) {
    let (run, timing, _waves) = run_fleet_loop(cfg, clock, true, on_outcome);
    (run, timing)
}

/// The fleet loop; it also returns how many waves it ran. With `prefetch`
/// off, no pass is overlapped with the previous batch's loads and every
/// wave is one batch: every admitted pass runs in its batch's own pass
/// fan-out, before its loads. That is the sequential reference the crate's
/// proptest pins byte-identical to the prefetching, wave-forming loop.
fn run_fleet_loop(
    cfg: &FleetConfig,
    clock: Option<&dyn Fn() -> f64>,
    prefetch: bool,
    on_outcome: &mut dyn FnMut(ClientOutcome),
) -> (FleetRun, FleetStageTiming, u64) {
    let (cfg, clamped_from) = cfg.validated();
    let cfg = &cfg;
    let now = || clock.map_or(0.0, |c| c());
    let corpus = Arc::new(Corpus::news_and_sports_capped(
        cfg.corpus_seed,
        Some(cfg.sites.max(1)),
    ));
    let store = Arc::new(ShardedStore::new(cfg.shards));
    let mut urls = Arc::new(UrlTable::new());
    let window = cfg.batch_window_ms.max(1);
    let order = arrival_order(cfg);
    // Each worker keeps one engine scratch alive across the many loads it
    // runs. Reuse is observationally pure — a recycled scratch produces
    // byte-identical results to a fresh one (pinned by the browser engine's
    // scratch-reuse test).
    let pool: Pool<EngineScratch> = Pool::new(cfg.workers);
    let mut wave = Wave::new(cfg, &corpus, prefetch);

    let mut accum = FleetAccum {
        tally: OutcomeTally::with_clients(cfg.clients),
        ..FleetAccum::default()
    };
    let mut timing = FleetStageTiming::default();
    // Passes run ahead of their commit: the next wave's arrival passes,
    // prefetched by a combined fan-out, and a wave's refresh passes.
    let mut passes: BTreeMap<(usize, i64), PassOutput> = BTreeMap::new();

    // Batch windows are over total arrival time, so a span across hour
    // buckets yields per-bucket arrival clusters. Each batch is derived
    // once: peeking at the next batch derives it, and the wave or the next
    // iteration takes that same `Vec`.
    let derive = |id: &u32| ClientSpec::derive(cfg, *id as usize);
    let window_of = |id: &u32| derive(id).arrival_total_ms() / window;
    let mut batches = order
        .chunk_by(|a, b| window_of(a) == window_of(b))
        .map(|ids| ids.iter().map(derive).collect::<Vec<_>>())
        .peekable();
    let (mut batch_count, mut waves) = (0, 0);
    while let Some(head) = batches.next() {
        // TTL policy: a sequential eviction sweep before the head's passes
        // — reads never mutate the maps, so the parallel load phase stays
        // pure. Under TTL a wave is its head alone, so every batch is swept.
        if let EvictionPolicy::Ttl(h) = cfg.policy {
            store.evict_resolved_before(batch_bucket(&head) - h as i64);
        }
        let needed = accum.admit(&head, cfg.policy);

        // Run whatever the head needs that no earlier fan-out ran: the cold
        // start, and without prefetch every pass the head admits.
        let t0 = now();
        let missing: Vec<FleetWork> = needed
            .iter()
            .filter(|key| !passes.contains_key(key))
            .map(|&key| FleetWork::Pass(key))
            .collect();
        fan_out(&pool, cfg, &corpus, &urls, &store, missing, &mut passes);
        let t1 = now();
        timing.pass_s += t1 - t0;
        accum.commit(&needed, &mut passes, &store, &mut urls);
        let t2 = now();
        timing.commit_s += t2 - t1;

        // The wave: the head, then each following batch whose loads commute
        // with every write the sequential loop would make before them.
        wave.start(head);
        while let Some(batch) = batches.next_if(|b| wave.admits(b, &accum, cfg.policy)) {
            wave.push(batch);
        }
        let next_head = batches.peek().filter(|_| prefetch);

        // The combined fan-out: the wave's loads (against the store frozen
        // above) plus the next wave's arrival-driven passes (pure — they
        // read neither store nor table). Passes lead so the expensive items
        // never straggle behind the claim counter.
        // vroom-lint: allow(hot-path-alloc) -- one work list per wave, amortized across its loads
        let mut work: Vec<FleetWork> = Vec::with_capacity(wave.loads);
        if let Some(next) = next_head {
            work.extend(
                accum
                    .arrivals_needed(next, cfg.policy)
                    .into_iter()
                    .map(FleetWork::Pass),
            );
        }
        for batch in &wave.batches {
            // Learning reads each site's first load of the batch, so
            // exactly those loads build an observed pass.
            let mut learned = BTreeSet::new();
            work.extend(batch.iter().map(|&spec| FleetWork::Load {
                spec,
                learn: cfg.learn_from_loads && learned.insert(spec.site),
            }));
        }
        let outcomes = fan_out(&pool, cfg, &corpus, &urls, &store, work, &mut passes);
        let t3 = now();
        timing.load_s += t3 - t2;

        // The refresh passes the wave's loads admit: a batch's are the sites
        // the batch before it served stale, so the outcomes name them all
        // now, the next head's included. One fan-out runs them; each commits
        // with its own batch. Without prefetch, the next head runs its own.
        let mut refresh = BTreeSet::new();
        let mut served = outcomes.iter();
        for (batch, next) in wave
            .batches
            .iter()
            .zip(wave.batches[1..].iter().chain(next_head))
        {
            let bucket = batch_bucket(next);
            refresh.extend(
                served
                    .by_ref()
                    .take(batch.len())
                    .filter(|(o, _)| o.hint_stale > 0)
                    .map(|(o, _)| (o.site, bucket)),
            );
        }
        let refresh = refresh.into_iter().map(FleetWork::Pass).collect();
        fan_out(&pool, cfg, &corpus, &urls, &store, refresh, &mut passes);
        let t4 = now();
        timing.pass_s += t4 - t3;

        // Batch by batch, in arrival order, the writes the sequential loop
        // makes: each later batch's admitted passes, then the batch's
        // accounting and learning commits.
        let mut outcomes = outcomes.into_iter();
        for (i, batch) in wave.batches.iter().enumerate() {
            let t5 = now();
            if i > 0 {
                let needed = accum.admit(batch, cfg.policy);
                accum.commit(&needed, &mut passes, &store, &mut urls);
            }
            let t6 = now();
            timing.commit_s += t6 - t5;
            let batch_outcomes = outcomes.by_ref().take(batch.len());
            accum.account_batch(&store, &mut urls, batch, batch_outcomes, on_outcome);
            timing.account_s += now() - t6;
        }
        batch_count += wave.batches.len() as u64;
        waves += 1;
    }
    debug_assert!(passes.is_empty(), "every pass run ahead is committed");

    let run = accum.finish(cfg, clamped_from, &store, window, batch_count);
    (run, timing, waves)
}

/// Fan `work` out over the pool. Resolver passes are pure and land in
/// `passes` under their `(site, bucket)` key; client outcomes come back in
/// input order, each with its observed pass if the work item learns.
fn fan_out(
    pool: &Pool<EngineScratch>,
    cfg: &FleetConfig,
    corpus: &Arc<Corpus>,
    urls: &Arc<UrlTable>,
    store: &Arc<ShardedStore>,
    work: Vec<FleetWork>,
    passes: &mut BTreeMap<(usize, i64), PassOutput>,
) -> Vec<(ClientOutcome, Option<PassOutput>)> {
    let (corpus, urls, store) = (Arc::clone(corpus), Arc::clone(urls), Arc::clone(store));
    let profile = cfg.profile;
    let (policy, faults, server_seed) = (cfg.policy, cfg.faults, cfg.server_seed);
    let done = pool.dispatch(work, move |scratch, _, item| match *item {
        FleetWork::Pass((site, bucket)) => FleetDone::Pass(
            (site, bucket),
            run_pass(
                &corpus.sites[site],
                bucket as f64,
                DeviceClass::PhoneLarge,
                server_seed,
            ),
        ),
        FleetWork::Load { ref spec, learn } => {
            let plan = match &faults {
                Some(f) => f.plan_for(spec.id as u64),
                None => FaultPlan::none(),
            };
            // A client's `(hours, user, device, nonce)` context is unique to
            // it: the page is built for this load alone and freed after it.
            let page = corpus.sites[spec.site].snapshot(&spec.ctx());
            let outcome = load_client(&profile, policy, spec, &page, &urls, &store, &plan, scratch);
            // Learning reads what the load fetched, so its observed pass is
            // built here, beside the page. An empty pass commits nothing.
            let observed = learn
                .then(|| observed_pass(&page, &outcome.result))
                .filter(|pass| !pass.entries.is_empty());
            FleetDone::Load(Box::new((outcome, observed)))
        }
    });
    let mut outcomes = Vec::with_capacity(done.len());
    for d in done {
        match d {
            FleetDone::Pass(key, out) => {
                passes.insert(key, out);
            }
            FleetDone::Load(done) => outcomes.push(*done),
        }
    }
    outcomes
}

/// One client's load of `page` against the shared server state. Pure in
/// the shared state: only reads `urls` and `store` (read locks + logical
/// counters). Store reads are classified by `policy` at the client's own
/// hour bucket; a stale serve still feeds the load (old hints beat none)
/// but is counted so the caller can admit a refresh.
///
/// The load resolves hints against the *shared* intern table directly: the
/// store files hint lists under shared-table ids, and the engine only ever
/// looks ids up by equality (never iterates in id order), so handing every
/// client the server's one `Arc`'d table is behaviorally identical to the
/// old per-load re-interning — minus one table build and one hint-list
/// copy per document per load.
#[allow(clippy::too_many_arguments)]
fn load_client(
    profile: &NetworkProfile,
    policy: EvictionPolicy,
    spec: &ClientSpec,
    page: &Page,
    urls: &Arc<UrlTable>,
    store: &ShardedStore,
    plan: &FaultPlan,
    scratch: &mut EngineScratch,
) -> ClientOutcome {
    let mut load_cfg = LoadConfig::http2_baseline();
    load_cfg.cpu_factor = spec.device.cpu_factor();
    load_cfg.fetch_policy = FetchPolicy::VroomStaged;
    load_cfg.ordered_responses = true;

    // Gather the HTML documents this load will request (root + iframes)
    // and pull each one's hints out of the shared store. The stored lists
    // already carry shared-table ids and are refcounted, so serving a
    // client is a map insert per document — no translation, no copy.
    let mut server = ServerModel::default();
    let mut hint_hits = 0u64;
    let mut hint_misses = 0u64;
    let mut hint_stale = 0u64;
    let mut htmls = vec![&page.url];
    htmls.extend(
        embedded_htmls(page)
            .into_iter()
            .map(|f| &page.resources[f].url),
    );
    // Resolve every document's shared id first, then fetch all hint lists
    // in one batched store pass: one lock acquisition per touched shard
    // instead of one per document. Only resolved ids reach the store, so
    // the logical read/hit counters match the per-document form exactly.
    let ids: Vec<Option<UrlId>> = htmls.iter().map(|&h| urls.lookup(h)).collect();
    let resolved: Vec<UrlId> = ids.iter().filter_map(|i| *i).collect();
    let mut fetched = store
        .get_fresh_many(&resolved, spec.bucket(), policy)
        .into_iter();
    for (html, id) in htmls.iter().zip(&ids) {
        let read = match id {
            Some(_) => fetched.next(),
            None => None,
        };
        let stored = match read {
            Some(read) => {
                hint_stale += read.is_stale() as u64;
                read.into_hints()
            }
            None => None,
        };
        let (Some(stored), &Some(html_id)) = (stored, id) else {
            hint_misses += 1;
            continue;
        };
        hint_hits += 1;
        let pushes = select_pushes(PushPolicy::HighPriorityLocal, &html.host, &stored, urls);
        if !pushes.is_empty() {
            server.pushes.insert(html_id, pushes);
        }
        server.hints.insert(html_id, stored);
    }
    load_cfg.urls = Arc::clone(urls);
    load_cfg.server = server;

    let faulted = plan.is_active();
    if faulted {
        apply_fault_plan(&mut load_cfg, plan);
    }

    let result = BrowserEngine::load_with_scratch(page, profile, &load_cfg, scratch);
    // One origin string per distinct (scheme, host) pair, not per resource.
    let mut distinct: Vec<&Url> = Vec::new();
    for r in &page.resources {
        if !distinct.iter().any(|u| u.same_origin(&r.url)) {
            distinct.push(&r.url);
        }
    }
    let mut origins: Vec<String> = distinct.iter().map(|u| u.origin()).collect();
    origins.sort_unstable();
    ClientOutcome {
        id: spec.id,
        site: spec.site,
        arrival_ms: spec.arrival_ms,
        faulted,
        hint_hits,
        hint_misses,
        hint_stale,
        origins,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn client_derivation_is_deterministic_and_in_range() {
        let cfg = FleetConfig::quick(64, 4);
        for id in 0..64 {
            let a = ClientSpec::derive(&cfg, id);
            let b = ClientSpec::derive(&cfg, id);
            assert_eq!(a.site, b.site);
            assert_eq!(a.arrival_ms, b.arrival_ms);
            assert_eq!(a.nonce, b.nonce);
            assert!(a.site < 4);
            assert!(a.arrival_ms < cfg.arrival_span_ms);
            assert_eq!(a.device.bucket(), "phone");
        }
    }

    #[test]
    fn small_fleet_shares_resolver_passes() {
        let cfg = FleetConfig::quick(40, 3);
        let run = run_fleet(&cfg);
        let r = &run.report;
        assert_eq!(r.clients, 40);
        assert_eq!(r.resolver_passes, 3, "one pass per site, shared by all");
        assert!(r.hint_hits > 0, "root documents hit the store");
        assert!(
            r.hint_hits > r.hint_misses,
            "hits {} should dominate misses {}",
            r.hint_hits,
            r.hint_misses
        );
        assert!(r.origin_reuses > r.origins_opened);
        assert!(r.onload_p99_ms >= r.onload_p50_ms);
        assert!(r.onload_p50_ms > 0.0);
        assert_eq!(r.shard_stats.len(), r.shards as usize);
        let reads: u64 = r.shard_stats.iter().map(|s| s.reads).sum();
        assert_eq!(reads, r.hint_hits + r.hint_misses);
        assert_eq!(r.faulted_clients, 0);
    }

    #[test]
    fn sink_sees_every_client_once_in_arrival_order() {
        for span_hours in [0, 3] {
            let cfg = FleetConfig {
                span_hours,
                ..FleetConfig::quick(60, 2)
            };
            let mut want: Vec<(u64, usize)> = (0..cfg.clients)
                .map(|id| (ClientSpec::derive(&cfg, id).arrival_total_ms(), id))
                .collect();
            want.sort_unstable();
            let mut ids = Vec::new();
            run_fleet_observed(&cfg, None, &mut |o| ids.push(o.id));
            assert_eq!(ids, want.iter().map(|&(_, id)| id).collect::<Vec<_>>());
        }
    }

    #[test]
    fn report_json_matches_render_fields() {
        let run = run_fleet(&FleetConfig::quick(16, 2));
        let Value::Object(m) = run.report.to_json_value() else {
            panic!("metrics must be an object");
        };
        assert_eq!(m.get("clients"), Some(&Value::Int(16)));
        assert!(m.contains_key("onload_p50_ms"));
        assert!(m.contains_key("shard_stats"));
        let rendered = run.report.render();
        assert!(rendered.starts_with("==== fleet ===="));
        assert!(rendered.contains("resolver passes"));
    }

    #[test]
    fn fault_selector_respects_one_in() {
        let f = FleetFaults {
            seed: 5,
            severity: 0.8,
            one_in: 3,
        };
        assert!(f.plan_for(0).is_active());
        assert!(!f.plan_for(1).is_active());
        assert!(!f.plan_for(2).is_active());
        assert!(f.plan_for(3).is_active());
        let off = FleetFaults { severity: 0.0, ..f };
        assert!(!off.plan_for(0).is_active());
        let nobody = FleetFaults { one_in: 0, ..f };
        assert!(!nobody.plan_for(0).is_active());
    }

    /// The byte-comparable projections of a run: the text report and the
    /// deterministic metrics tree of `BENCH_fleet.json`.
    fn fingerprints(run: &FleetRun) -> (String, String) {
        (run.report.render(), run.report.to_json_value().to_pretty())
    }

    fn policy_of(sel: u8) -> EvictionPolicy {
        match sel % 3 {
            0 => EvictionPolicy::Never,
            1 => EvictionPolicy::Ttl(2),
            _ => EvictionPolicy::RefreshOnMiss(2),
        }
    }

    /// The report as the fleet built it when it kept every outcome to the
    /// end of the run: sort the outcomes by id, sum each counter over them,
    /// and sort their onloads for the percentiles. `streamed` supplies the
    /// fields no outcome feeds (store, passes, origins).
    fn report_from_outcomes(
        streamed: &FleetReport,
        mut outcomes: Vec<ClientOutcome>,
    ) -> FleetReport {
        outcomes.sort_by_key(|o| o.id);
        let mut onloads: Vec<f64> = outcomes
            .iter()
            .map(|o| o.result.plt.as_secs_f64() * 1e3)
            .collect();
        onloads.sort_by(f64::total_cmp);
        let sum = |f: &dyn Fn(&ClientOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
        FleetReport {
            clients: outcomes.len() as u64,
            hint_hits: sum(&|o| o.hint_hits),
            hint_misses: sum(&|o| o.hint_misses),
            onload_p50_ms: percentile_sorted(&onloads, 0.50),
            onload_p99_ms: percentile_sorted(&onloads, 0.99),
            faulted_clients: sum(&|o| o.faulted as u64),
            failed_loads: sum(&|o| (o.result.failed_resources > 0) as u64),
            failed_resources: sum(&|o| o.result.failed_resources as u64),
            retries: sum(&|o| o.result.retries as u64),
            rst_streams: sum(&|o| o.result.rst_streams as u64),
            goaways: sum(&|o| o.result.goaways as u64),
            timeouts: sum(&|o| o.result.timeouts as u64),
            useful_bytes: sum(&|o| o.result.useful_bytes),
            wasted_bytes: sum(&|o| o.result.wasted_bytes),
            freshness: streamed.freshness.clone().map(|f| FleetFreshness {
                stale_served: sum(&|o| o.hint_stale),
                ..f
            }),
            ..streamed.clone()
        }
    }

    /// A News+Sports corpus seed whose sites 0 and 3 share a third-party
    /// host (`tp2-8fae.net`); no two of its first 16 sites share another.
    const SHARED_HOST_CORPUS: u64 = 1184;

    #[test]
    fn sites_sharing_a_host_fall_in_one_conflict_class() {
        let shared = Corpus::news_and_sports_capped(SHARED_HOST_CORPUS, Some(16));
        let host = |s: usize| {
            shared.sites[s]
                .domains()
                .contains(&"tp2-8fae.net".to_string())
        };
        assert!(host(0) && host(3));
        let mut want: Vec<usize> = (0..16).collect();
        want[3] = 0;
        assert_eq!(conflict_classes(&shared.sites), want);
        // The committed corpus shares no host: every site is its own class.
        let own = Corpus::news_and_sports_capped(7, Some(64));
        assert_eq!(conflict_classes(&own.sites), (0..64).collect::<Vec<_>>());
        // Classes close transitively, and are named by their smallest site.
        let chain = [SHARED_HOST_CORPUS, SHARED_HOST_CORPUS + 0x10000, 3]
            .map(|seed| PageGenerator::new(vroom_pages::SiteProfile::news(), seed));
        assert_eq!(conflict_classes(&chain), vec![0, 0, 2]);
    }

    /// One client of `site`, in the base hour bucket.
    fn spec_of(site: usize) -> ClientSpec {
        ClientSpec {
            site,
            ..ClientSpec::derive(&FleetConfig::quick(1, 1), 0)
        }
    }

    #[test]
    fn a_wave_takes_no_load_of_a_class_after_a_writing_load_of_it() {
        let corpus = Corpus::news_and_sports_capped(SHARED_HOST_CORPUS, Some(4));
        let mut accum = FleetAccum::default();
        accum
            .last_pass
            .extend((0..4).map(|site| (site, FLEET_BASE_HOURS as i64)));
        for (policy, learn, writes) in [
            (EvictionPolicy::Never, false, false),
            (EvictionPolicy::Never, true, true),
            (EvictionPolicy::RefreshOnMiss(1), false, true),
        ] {
            let cfg = FleetConfig {
                policy,
                learn_from_loads: learn,
                workers: 2,
                ..FleetConfig::quick(8, 4)
            };
            let mut wave = Wave::new(&cfg, &corpus, true);
            wave.start(vec![spec_of(0)]);
            // Site 3 shares site 0's class, so it waits for the writes of
            // site 0's load; site 1 has a class of its own.
            assert_eq!(wave.admits(&[spec_of(3)], &accum, policy), !writes);
            assert_eq!(wave.admits(&[spec_of(0)], &accum, policy), !writes);
            assert!(wave.admits(&[spec_of(1), spec_of(2)], &accum, policy));
            wave.push(vec![spec_of(1)]);
            assert_eq!(
                wave.admits(&[spec_of(2), spec_of(1)], &accum, policy),
                !writes
            );
            // A site never passed needs an arrival pass: it starts a wave.
            accum.last_pass.remove(&2);
            assert!(!wave.admits(&[spec_of(2)], &accum, policy));
            accum.last_pass.insert(2, FLEET_BASE_HOURS as i64);
            // The cap counts the head: two workers, two loads already.
            let full = vec![spec_of(2); 2 * WAVE_LOADS_PER_WORKER - 1];
            assert!(!wave.admits(&full, &accum, policy));
            assert!(wave.admits(&full[1..], &accum, policy));
        }
        // TTL and the sequential reference keep every wave to its head.
        let ttl = FleetConfig {
            policy: EvictionPolicy::Ttl(1),
            ..FleetConfig::quick(8, 4)
        };
        let never = FleetConfig::quick(8, 4);
        for (cfg, prefetch) in [(&ttl, true), (&never, false)] {
            let mut wave = Wave::new(cfg, &corpus, prefetch);
            wave.start(vec![spec_of(0)]);
            assert!(!wave.admits(&[spec_of(1)], &accum, cfg.policy));
        }
    }

    #[test]
    fn waves_span_several_batches_under_every_writer_rule() {
        for (policy, learn) in [
            (EvictionPolicy::Never, false),
            (EvictionPolicy::Never, true),
            (EvictionPolicy::RefreshOnMiss(1), false),
            (EvictionPolicy::RefreshOnMiss(1), true),
            (EvictionPolicy::Ttl(1), true),
        ] {
            let cfg = FleetConfig {
                span_hours: 5,
                policy,
                learn_from_loads: learn,
                workers: 2,
                ..FleetConfig::quick(120, 16)
            };
            let (mut on_seen, mut off_seen) = (Vec::new(), Vec::new());
            let (on, _, waves) = run_fleet_loop(&cfg, None, true, &mut |o| on_seen.push(o));
            let off = run_fleet_loop(&cfg, None, false, &mut |o| off_seen.push(o)).0;
            assert_eq!(
                fingerprints(&on),
                fingerprints(&off),
                "{policy:?} learn={learn}"
            );
            assert_eq!(on_seen, off_seen, "{policy:?} learn={learn}");
            let batches = on.report.batches;
            if matches!(policy, EvictionPolicy::Ttl(_)) {
                assert_eq!(waves, batches, "a TTL wave is one batch");
            } else {
                assert!(
                    waves < batches,
                    "{policy:?} learn={learn}: {waves} waves of {batches} batches"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The report folded batch by batch equals, byte for byte, the
        /// report built from every outcome at the end, at every worker
        /// count, under every eviction policy, with arrivals in one hour
        /// or spread over several, with and without learning and faults.
        #[test]
        fn streamed_report_equals_the_report_from_kept_outcomes(
            clients in 1usize..=50,
            sites in 1usize..=4,
            seed in any::<u64>(),
            policy_sel in 0u8..3,
            span_hours in 0u64..=3,
            learn in any::<bool>(),
            faulted in any::<bool>(),
            fault_seed in any::<u64>(),
            fault_one_in in 1u64..4,
        ) {
            let mut cfg = FleetConfig::quick(clients, sites);
            cfg.seed = seed;
            cfg.policy = policy_of(policy_sel);
            cfg.span_hours = span_hours;
            cfg.learn_from_loads = learn;
            cfg.faults = faulted.then_some(FleetFaults {
                seed: fault_seed,
                severity: 0.7,
                one_in: fault_one_in,
            });
            for workers in [1usize, 2, 8] {
                cfg.workers = workers;
                let mut seen = Vec::new();
                let run = run_fleet_observed(&cfg, None, &mut |o| seen.push(o)).0;
                let reference = report_from_outcomes(&run.report, seen);
                prop_assert_eq!(
                    fingerprints(&run),
                    fingerprints(&FleetRun { report: reference }),
                    "streamed report diverged at workers={}",
                    workers
                );
            }
        }

        /// The wave-forming loop, which prefetches the next wave's passes
        /// during a wave's loads, is byte-identical to the sequential loop
        /// (one batch at a time, every pass in its batch's own fan-out), at
        /// every worker count, under every writer rule: `Never` and
        /// `RefreshOnMiss`, each with and without learning, and `Ttl`, which
        /// keeps each wave to one batch. Arrivals spread over up to 24 hour
        /// buckets, so waves of several batches form; half the cases serve
        /// a corpus in which two sites share a host.
        #[test]
        fn prefetch_on_equals_prefetch_off(
            clients in 1usize..=50,
            sites in 1usize..=16,
            seed in any::<u64>(),
            policy_sel in 0u8..3,
            span_hours in 0u64..=23,
            learn in any::<bool>(),
            shared_host in any::<bool>(),
            faulted in any::<bool>(),
            fault_seed in any::<u64>(),
            fault_one_in in 1u64..4,
        ) {
            let mut cfg = FleetConfig::quick(clients, sites);
            cfg.seed = seed;
            cfg.policy = policy_of(policy_sel);
            cfg.span_hours = span_hours;
            cfg.learn_from_loads = learn;
            if shared_host {
                cfg.corpus_seed = SHARED_HOST_CORPUS;
            }
            cfg.faults = faulted.then_some(FleetFaults {
                seed: fault_seed,
                severity: 0.7,
                one_in: fault_one_in,
            });
            for workers in [1usize, 2, 8] {
                cfg.workers = workers;
                let (mut on_seen, mut off_seen) = (Vec::new(), Vec::new());
                let (on, _, on_waves) = run_fleet_loop(&cfg, None, true, &mut |o| on_seen.push(o));
                let (off, _, off_waves) = run_fleet_loop(&cfg, None, false, &mut |o| off_seen.push(o));
                prop_assert_eq!(
                    fingerprints(&on),
                    fingerprints(&off),
                    "report diverged at workers={}",
                    workers
                );
                prop_assert_eq!(
                    &on_seen,
                    &off_seen,
                    "outcomes diverged at workers={}",
                    workers
                );
                prop_assert_eq!(off_waves, off.report.batches, "one batch per reference wave");
                prop_assert!(on_waves <= on.report.batches);
                if matches!(cfg.policy, EvictionPolicy::Ttl(_)) {
                    prop_assert_eq!(on_waves, on.report.batches, "a TTL wave is one batch");
                }
            }
        }
    }
}
