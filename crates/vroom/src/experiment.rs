//! One runner per table/figure in the paper (see DESIGN.md §4 for the
//! index). Every runner returns both structured data and a rendered text
//! table whose rows/series mirror what the paper plots.
//!
//! Every per-site loop goes through [`ExperimentConfig::for_each_site`],
//! a deterministic parallel map (`vroom_exec::par_map_indexed`): per-site
//! loads are pure functions of `(site, ctx, seeds)` and results are
//! collected by input index, so tables are byte-identical for any worker
//! count (DESIGN.md §2d). The News+Sports loads the comparison sections
//! read are planned once per report: each section lists the `Run`s it
//! reads, and one `ExperimentConfig::site_columns` pass computes their
//! union, with one [`SiteLoad`] per site (`Plan`, DESIGN.md §2q).

use std::sync::OnceLock;

use crate::load::SiteLoad;
use crate::policy::System;
use crate::stats::{quartiles, render_cdf_table, render_quartile_table, Cdf, Quartiles};
use vroom_browser::LoadResult;
use vroom_net::{FaultPlan, NetworkProfile};
use vroom_pages::{Corpus, DeviceClass, LoadContext, PageGenerator};
use vroom_server::accuracy::{evaluate_with, ClientTruth};
use vroom_server::device::{iou, stable_set};
use vroom_server::resolve::{ResolverInput, Strategy};
use vroom_sim::SimDuration;

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Seed for corpus generation (site structures).
    pub corpus_seed: u64,
    /// Seed for server-side crawls.
    pub server_seed: u64,
    /// Cap on sites per corpus (`None` = the paper's full corpus sizes).
    pub max_sites: Option<usize>,
    /// The access network.
    pub profile: NetworkProfile,
    /// The client context of the measured load.
    pub ctx: LoadContext,
    /// Worker threads for the per-site map (`1` = run inline with no
    /// pool). Output is identical for every value; only wall-clock time
    /// changes.
    pub workers: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            corpus_seed: 7,
            server_seed: 77,
            max_sites: None,
            profile: NetworkProfile::lte(),
            ctx: LoadContext::reference(),
            workers: 1,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for quick runs (tests/benches).
    pub fn quick(max_sites: usize) -> Self {
        ExperimentConfig {
            max_sites: Some(max_sites),
            ..Default::default()
        }
    }

    fn sites<'c>(&self, corpus: &'c Corpus) -> &'c [PageGenerator] {
        match self.max_sites {
            Some(n) => &corpus.sites[..n.min(corpus.sites.len())],
            None => &corpus.sites,
        }
    }

    /// Per-site load context (each site is measured at a slightly different
    /// wall-clock minute, like a real crawl).
    pub(crate) fn site_ctx(&self, i: usize) -> LoadContext {
        LoadContext {
            hours: self.ctx.hours + (i as f64) * 0.01,
            nonce: self.ctx.nonce ^ (i as u64) << 8,
            ..self.ctx
        }
    }

    /// The shared site map every figure runner goes through: evaluate `f`
    /// on each configured site of `corpus`, across `self.workers` threads,
    /// returning results in site order regardless of completion order.
    pub(crate) fn for_each_site<T: Send>(
        &self,
        corpus: &Corpus,
        f: impl Fn(usize, &PageGenerator) -> T + Sync,
    ) -> Vec<T> {
        vroom_exec::par_map_indexed(self.sites(corpus), self.workers, f)
    }

    /// The [`LoadSummary`] of each of `runs` on every configured site of
    /// `corpus`: one column per run, each in site order. A site's page and
    /// crawls are built once, in one [`SiteLoad`] that serves all of its
    /// runs.
    fn site_columns(&self, corpus: &Corpus, runs: &[Run]) -> Vec<Vec<LoadSummary>> {
        let mut ages: Vec<f64> = Vec::new();
        for run in runs {
            if let Run::Warm(_, age) = *run {
                if !ages.contains(&age) {
                    ages.push(age);
                }
            }
        }
        let rows = self.for_each_site(corpus, |i, generator| {
            let site = SiteLoad::new(generator, &self.site_ctx(i), self.server_seed);
            // A prior visit's cache depends on its age alone, so one per
            // age serves every system warmed at that age.
            let caches: Vec<_> = ages.iter().map(|&age| site.warm_cache(age)).collect();
            let row = runs.iter().map(|&run| match run {
                Run::Cold(system) => site.run(&self.profile, system),
                Run::Corrupted(system, fraction) => {
                    let plan =
                        FaultPlan::hint_corruption_only(self.server_seed ^ (i as u64), fraction);
                    site.run_faulted(&self.profile, system, &plan)
                }
                Run::Warm(system, age) => {
                    let k = ages
                        .iter()
                        .position(|&a| a == age)
                        .expect("a cache per age");
                    site.run_warm(&self.profile, system, &caches[k])
                }
            });
            row.map(|result| LoadSummary::of(&result))
                .collect::<Vec<_>>()
        });
        let mut columns = vec![Vec::with_capacity(rows.len()); runs.len()];
        for row in rows {
            for (column, value) in columns.iter_mut().zip(row) {
                column.push(value);
            }
        }
        columns
    }
}

/// One column of [`ExperimentConfig::site_columns`]: which load of each
/// site it measures.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Run {
    /// A cold load under the system.
    Cold(System),
    /// A cold load whose hints the fault layer corrupts at this rate, with
    /// a plan seeded per site.
    Corrupted(System, f64),
    /// A warm load, its cache seeded by a load this many hours earlier.
    Warm(System, f64),
}

/// What the tables print of one load: its [`LoadResult`] without the
/// per-resource timings, small enough to keep every load of a report.
#[derive(Debug, Clone, Copy)]
struct LoadSummary {
    plt: SimDuration,
    aft: SimDuration,
    speed_index: f64,
    network_wait_frac: f64,
    discovery_all: SimDuration,
    discovery_high: SimDuration,
    fetch_all: SimDuration,
    fetch_high: SimDuration,
}

impl LoadSummary {
    fn of(r: &LoadResult) -> Self {
        LoadSummary {
            plt: r.plt,
            aft: r.aft,
            speed_index: r.speed_index,
            network_wait_frac: r.network_wait_frac(),
            discovery_all: r.discovery_all,
            discovery_high: r.discovery_high,
            fetch_all: r.fetch_all,
            fetch_high: r.fetch_high,
        }
    }

    /// The load's PLT in seconds.
    fn plt_s(&self) -> f64 {
        self.plt.as_secs_f64()
    }
}

/// A PLT CDF (seconds) of one column.
fn plt_cdf(column: &[LoadSummary]) -> Cdf {
    Cdf::new(column.iter().map(LoadSummary::plt_s).collect())
}

/// One PLT CDF (seconds) per system over a corpus, in the order given,
/// from a `site_columns` pass of its own: for corpora and networks outside
/// a report's plan.
pub(crate) fn plt_cdfs<const N: usize>(
    cfg: &ExperimentConfig,
    corpus: &Corpus,
    systems: [System; N],
) -> [Cdf; N] {
    let columns = cfg.site_columns(corpus, &systems.map(Run::Cold));
    std::array::from_fn(|k| plt_cdf(&columns[k]))
}

/// The cold loads of `systems`, in order.
fn cold(systems: &[System]) -> Vec<Run> {
    systems.iter().map(|&system| Run::Cold(system)).collect()
}

/// The two loads of the §2 lower bound: network-bound, then CPU-bound.
const BOUND: [Run; 2] = [Run::Cold(System::NetworkBound), Run::Cold(System::CpuBound)];

/// The bound's two loads, then `runs`.
fn with_bound(runs: impl IntoIterator<Item = Run>) -> Vec<Run> {
    BOUND.into_iter().chain(runs).collect()
}

/// What one report computes once for all of its sections: each corpus,
/// built on first use, and one [`LoadSummary`] column per distinct
/// News+Sports [`Run`] its sections read, from one
/// [`ExperimentConfig::site_columns`] pass. A runner called alone plans
/// its own section, so it computes only the runs it reads.
pub(crate) struct Plan<'a> {
    pub(crate) cfg: &'a ExperimentConfig,
    top100: OnceLock<Corpus>,
    news_sports: OnceLock<Corpus>,
    top400: OnceLock<Corpus>,
    accuracy: OnceLock<Corpus>,
    /// Sites of the accuracy corpus the sections read: every site Fig 21
    /// reads, or only the history ablation's when Fig 21 is not planned.
    accuracy_sites: Option<usize>,
    runs: Vec<Run>,
    columns: Vec<Vec<LoadSummary>>,
}

impl<'a> Plan<'a> {
    /// The plan of the sections `ids`.
    pub(crate) fn new(cfg: &'a ExperimentConfig, ids: &[&str]) -> Self {
        let accuracy_sites = if ids.contains(&"fig21") {
            cfg.max_sites
        } else {
            Some(crate::ablation::history_sites(cfg))
        };
        let mut plan = Plan {
            cfg,
            top100: OnceLock::new(),
            news_sports: OnceLock::new(),
            top400: OnceLock::new(),
            accuracy: OnceLock::new(),
            accuracy_sites,
            runs: planned_runs(ids),
            columns: Vec::new(),
        };
        if !plan.runs.is_empty() {
            plan.columns = cfg.site_columns(plan.news_sports(), &plan.runs);
        }
        plan
    }

    fn corpus<'p>(
        &'p self,
        cell: &'p OnceLock<Corpus>,
        build: fn(u64, Option<usize>) -> Corpus,
    ) -> &'p Corpus {
        cell.get_or_init(|| build(self.cfg.corpus_seed, self.cfg.max_sites))
    }

    fn top100(&self) -> &Corpus {
        self.corpus(&self.top100, Corpus::top100_capped)
    }

    pub(crate) fn news_sports(&self) -> &Corpus {
        self.corpus(&self.news_sports, Corpus::news_and_sports_capped)
    }

    fn top400(&self) -> &Corpus {
        self.corpus(&self.top400, Corpus::top400_sample_capped)
    }

    pub(crate) fn accuracy(&self) -> &Corpus {
        self.accuracy.get_or_init(|| {
            Corpus::accuracy_pages_capped(self.cfg.corpus_seed, self.accuracy_sites)
        })
    }

    /// `run`'s column over News+Sports, in site order.
    fn column(&self, run: Run) -> &[LoadSummary] {
        let k = self
            .runs
            .iter()
            .position(|planned| *planned == run)
            .unwrap_or_else(|| panic!("{run:?} is not planned"));
        &self.columns[k]
    }

    /// `run`'s PLT CDF (seconds) over News+Sports.
    fn plt_cdf(&self, run: Run) -> Cdf {
        plt_cdf(self.column(run))
    }

    /// The §2 lower bound of each News+Sports site, in seconds: the max of
    /// its network-bound and CPU-bound loads (both must be paid).
    fn lower_bound(&self) -> Vec<f64> {
        let [net, cpu] = BOUND.map(|run| self.column(run));
        net.iter()
            .zip(cpu)
            .map(|(net, cpu)| cpu.plt_s().max(net.plt_s()))
            .collect()
    }
}

/// The union of the News+Sports runs that sections `ids` read, without
/// duplicates, in first-use order.
fn planned_runs(ids: &[&str]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for run in ids.iter().filter_map(|id| section(id)).flat_map(|s| s.runs) {
        if !runs.contains(&run) {
            runs.push(run);
        }
    }
    runs
}

/// A CDF per system over a corpus.
pub struct SystemCdfs {
    /// `(system, distribution)` pairs, in presentation order.
    pub series: Vec<(System, Cdf)>,
}

impl SystemCdfs {
    /// Median PLT of one system.
    pub fn median(&self, system: System) -> f64 {
        self.series
            .iter()
            .find(|(s, _)| *s == system)
            .map(|(_, c)| c.median())
            .expect("system present")
    }

    /// The cold-load PLT CDF of each of `systems` in `plan`.
    fn of(plan: &Plan, systems: &[System]) -> Self {
        SystemCdfs {
            series: systems
                .iter()
                .map(|&system| (system, plan.plt_cdf(Run::Cold(system))))
                .collect(),
        }
    }

    /// The series as a CDF table.
    fn render(&self, title: &str) -> String {
        render_cdf_table(
            title,
            &self
                .series
                .iter()
                .map(|(s, c)| (s.label(), c))
                .collect::<Vec<_>>(),
            "seconds",
        )
    }
}

// --------------------------------------------------------------- Figure 1

/// Fig 1: PLT CDFs on today's mobile web (HTTP/1.1): Top-100 overall vs
/// News+Sports.
pub fn fig01(cfg: &ExperimentConfig) -> (Cdf, Cdf, String) {
    fig01_of(&Plan::new(cfg, &["fig01"]))
}

fn fig01_of(plan: &Plan) -> (Cdf, Cdf, String) {
    let [top_cdf] = plt_cdfs(plan.cfg, plan.top100(), [System::Http1]);
    let ns_cdf = plan.plt_cdf(Run::Cold(System::Http1));
    let table = render_cdf_table(
        "Figure 1: Page load times on today's mobile web",
        &[("Top 100 Overall", &top_cdf), ("News+Sports", &ns_cdf)],
        "seconds",
    );
    (top_cdf, ns_cdf, table)
}

// --------------------------------------------------------------- Figure 2

/// Fig 2: lower bounds vs status quo on News+Sports.
pub fn fig02(cfg: &ExperimentConfig) -> (Vec<(String, Cdf)>, String) {
    fig02_of(&Plan::new(cfg, &["fig02"]))
}

fn fig02_of(plan: &Plan) -> (Vec<(String, Cdf)>, String) {
    let [net, cpu] = BOUND.map(|run| plan.plt_cdf(run));
    let bound = Cdf::new(plan.lower_bound());
    let web = plan.plt_cdf(Run::Cold(System::Http1));
    let table = render_cdf_table(
        "Figure 2: Potential from full CPU/network utilization",
        &[
            ("Network Bottleneck", &net),
            ("CPU Bottleneck", &cpu),
            ("Max(CPU, Network)", &bound),
            ("Loads from Web", &web),
        ],
        "seconds",
    );
    (
        vec![
            ("Network Bottleneck".into(), net),
            ("CPU Bottleneck".into(), cpu),
            ("Max(CPU, Network)".into(), bound),
            ("Loads from Web".into(), web),
        ],
        table,
    )
}

// --------------------------------------------------------------- Figure 3

/// Fig 3's systems, in legend order.
const FIG03: [System; 3] = [System::Http2, System::PushAllStatic, System::Http1];

/// Fig 3: what universal HTTP/2 adoption would buy.
pub fn fig03(cfg: &ExperimentConfig) -> (SystemCdfs, String) {
    fig03_of(&Plan::new(cfg, &["fig03"]))
}

fn fig03_of(plan: &Plan) -> (SystemCdfs, String) {
    let cdfs = SystemCdfs::of(plan, &FIG03);
    let table = cdfs.render("Figure 3: Estimated benefit of global HTTP/2 adoption");
    (cdfs, table)
}

// --------------------------------------------------------------- Figure 4

/// Fig 4's systems: the HTTP/2 baseline, then Vroom.
const FIG04: [System; 2] = [System::Http2, System::Vroom];

/// Fig 4: fraction of the load spent CPU-idle waiting on the network under
/// HTTP/2 (plus Vroom's reduction, §6.1).
pub fn fig04(cfg: &ExperimentConfig) -> (Cdf, Cdf, String) {
    fig04_of(&Plan::new(cfg, &["fig04"]))
}

fn fig04_of(plan: &Plan) -> (Cdf, Cdf, String) {
    let [h2, vroom] = FIG04.map(|system| {
        let column = plan.column(Run::Cold(system));
        Cdf::new(column.iter().map(|s| s.network_wait_frac).collect())
    });
    let mut table = render_cdf_table(
        "Figure 4: Fraction of load spent waiting on network (HTTP/2)",
        &[("HTTP/2 Baseline", &h2), ("Vroom", &vroom)],
        "fraction",
    );
    table.push_str(&format!(
        "\nVroom reduces median network wait by {:.0}% (paper: 24%)\n",
        (1.0 - vroom.median() / h2.median()) * 100.0
    ));
    (h2, vroom, table)
}

// --------------------------------------------------------------- Figure 7

/// Fig 7: fraction of a page's resources that persist over an hour, a day,
/// and a week (Top-100 corpus).
pub fn fig07(cfg: &ExperimentConfig) -> (Vec<(String, Cdf)>, String) {
    fig07_of(&Plan::new(cfg, &["fig07"]))
}

fn fig07_of(plan: &Plan) -> (Vec<(String, Cdf)>, String) {
    let cfg = plan.cfg;
    let windows = [("One Hour", 1.0), ("One Day", 24.0), ("One Week", 168.0)];
    let mut out = Vec::new();
    for (name, dh) in windows {
        let values = cfg.for_each_site(plan.top100(), |i, site| {
            let ctx = cfg.site_ctx(i);
            let before = site.snapshot(&ctx).url_set();
            let after = site.snapshot(&ctx.later(dh, ctx.nonce ^ 0x1A7E4)).url_set();
            before.intersection(&after).count() as f64 / before.len() as f64
        });
        out.push((name.to_string(), Cdf::new(values)));
    }
    let table = render_cdf_table(
        "Figure 7: Resource persistence over time (Top 100)",
        &out.iter().map(|(n, c)| (n.as_str(), c)).collect::<Vec<_>>(),
        "fraction persistent",
    );
    (out, table)
}

// --------------------------------------------------------------- Figure 9

/// Fig 9: stable-set IoU vs a Nexus-6-class phone, for another phone and a
/// tablet.
pub fn fig09(cfg: &ExperimentConfig) -> (Cdf, Cdf, String) {
    fig09_of(&Plan::new(cfg, &["fig09"]))
}

fn fig09_of(plan: &Plan) -> (Cdf, Cdf, String) {
    let cfg = plan.cfg;
    let (phone, tablet): (Vec<f64>, Vec<f64>) = cfg
        .for_each_site(plan.top100(), |i, site| {
            let h = cfg.site_ctx(i).hours;
            let reference = stable_set(site, h, DeviceClass::PhoneLarge, cfg.server_seed);
            let oneplus = stable_set(site, h, DeviceClass::PhoneSmall, cfg.server_seed);
            let nexus10 = stable_set(site, h, DeviceClass::Tablet, cfg.server_seed);
            (iou(&reference, &oneplus), iou(&reference, &nexus10))
        })
        .into_iter()
        .unzip();
    let phone = Cdf::new(phone);
    let tablet = Cdf::new(tablet);
    let table = render_cdf_table(
        "Figure 9: Stable-set similarity vs Nexus 6",
        &[("OnePlus 3", &phone), ("Nexus 10", &tablet)],
        "intersection over union",
    );
    (phone, tablet, table)
}

// -------------------------------------------------------------- Figure 11

/// Fig 11: receipt-time change (s) of the first ten processed resources on
/// one News site, relative to the HTTP/2 baseline, for "Push All, Fetch
/// ASAP" and Vroom. Negative = earlier than baseline.
pub fn fig11(cfg: &ExperimentConfig) -> (Vec<(usize, f64, f64)>, String) {
    fig11_of(&Plan::new(cfg, &["fig11"]))
}

fn fig11_of(plan: &Plan) -> (Vec<(usize, f64, f64)>, String) {
    let cfg = plan.cfg;
    let site = &plan.news_sports().sites[0]; // a eurosport-like popular sports/news page
    let load = SiteLoad::new(site, &cfg.site_ctx(0), cfg.server_seed);
    let page = load.page();
    // One site, three systems: fan the independent loads over the pool.
    let systems = [System::Http2, System::PushAllFetchAsap, System::Vroom];
    let mut loads = vroom_exec::par_map_indexed(&systems, cfg.workers, |_, system| {
        load.run(&cfg.profile, *system)
    })
    .into_iter();
    let (base, asap, vroom) = (
        loads.next().expect("three loads"),
        loads.next().expect("three loads"),
        loads.next().expect("three loads"),
    );

    // The first ten resources needing processing, ordered by when the
    // baseline fetched them.
    let mut processed: Vec<usize> = page
        .resources
        .iter()
        .filter(|r| r.needs_processing())
        .map(|r| r.id)
        .collect();
    processed.sort_by_key(|&id| base.resources[id].fetched);
    processed.truncate(10);

    let mut rows = Vec::new();
    let mut table = String::from(
        "# Figure 11: Receipt-time change vs HTTP/2 baseline (first 10 processed resources)\n",
    );
    table.push_str(&format!(
        "{:>4} {:>22} {:>12}\n",
        "id", "PushAll+FetchASAP (s)", "Vroom (s)"
    ));
    for (i, &id) in processed.iter().enumerate() {
        let b = base.resources[id].fetched.as_secs_f64();
        let a = asap.resources[id].fetched.as_secs_f64() - b;
        let v = vroom.resources[id].fetched.as_secs_f64() - b;
        rows.push((i + 1, a, v));
        table.push_str(&format!("{:>4} {a:>22.3} {v:>12.3}\n", i + 1));
    }
    let worst_asap = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    let worst_vroom = rows.iter().map(|r| r.2).fold(f64::MIN, f64::max);
    table.push_str(&format!(
        "\nworst delay: strawman {worst_asap:+.3}s vs vroom {worst_vroom:+.3}s \
         (paper: strawman delays early resources; Vroom does not)\n"
    ));
    (rows, table)
}

// -------------------------------------------------------------- Figure 13

/// Per-metric CDFs for the headline comparison.
pub struct Fig13 {
    /// PLT seconds per system.
    pub plt: Vec<(String, Cdf)>,
    /// Above-the-fold seconds per system.
    pub aft: Vec<(String, Cdf)>,
    /// Speed Index (ms) per system.
    pub speed_index: Vec<(String, Cdf)>,
}

/// Fig 13's systems after the lower bound, in legend order.
const FIG13: [System; 3] = [System::Vroom, System::Http2, System::Http1];

/// Fig 13: PLT / AFT / Speed Index CDFs for Lower Bound, Vroom, HTTP/2,
/// HTTP/1.1 on News+Sports.
pub fn fig13(cfg: &ExperimentConfig) -> (Fig13, String) {
    fig13_of(&Plan::new(cfg, &["fig13"]))
}

fn fig13_of(plan: &Plan) -> (Fig13, String) {
    let mut plt: Vec<(String, Cdf)> = vec![("Lower Bound".into(), Cdf::new(plan.lower_bound()))];
    let mut aft: Vec<(String, Cdf)> = Vec::new();
    let mut si: Vec<(String, Cdf)> = Vec::new();
    for system in FIG13 {
        let column = plan.column(Run::Cold(system));
        let series = |metric: fn(&LoadSummary) -> f64| {
            let values = column.iter().map(metric).collect();
            (system.label().to_string(), Cdf::new(values))
        };
        plt.push(series(LoadSummary::plt_s));
        aft.push(series(|s| s.aft.as_secs_f64()));
        si.push(series(|s| s.speed_index));
    }
    let mut table = render_cdf_table(
        "Figure 13(a): Page Load Time",
        &plt.iter().map(|(n, c)| (n.as_str(), c)).collect::<Vec<_>>(),
        "seconds",
    );
    table.push('\n');
    table.push_str(&render_cdf_table(
        "Figure 13(b): Above-the-fold Time",
        &aft.iter().map(|(n, c)| (n.as_str(), c)).collect::<Vec<_>>(),
        "seconds",
    ));
    table.push('\n');
    table.push_str(&render_cdf_table(
        "Figure 13(c): Speed Index",
        &si.iter().map(|(n, c)| (n.as_str(), c)).collect::<Vec<_>>(),
        "ms",
    ));
    (
        Fig13 {
            plt,
            aft,
            speed_index: si,
        },
        table,
    )
}

// -------------------------------------------------------------- Figure 14

/// Fig 14's systems.
const FIG14: [System; 2] = [System::Vroom, System::PolarisLike];

/// Fig 14: Vroom vs Polaris.
pub fn fig14(cfg: &ExperimentConfig) -> (SystemCdfs, String) {
    fig14_of(&Plan::new(cfg, &["fig14"]))
}

fn fig14_of(plan: &Plan) -> (SystemCdfs, String) {
    let cdfs = SystemCdfs::of(plan, &FIG14);
    let table = cdfs.render("Figure 14: Vroom vs Polaris");
    (cdfs, table)
}

// -------------------------------------------------------------- Figure 15

/// Fig 15: above-the-fold completion on one Fox-News-like page.
pub fn fig15(cfg: &ExperimentConfig) -> (f64, f64, String) {
    fig15_of(&Plan::new(cfg, &["fig15"]))
}

fn fig15_of(plan: &Plan) -> (f64, f64, String) {
    let cfg = plan.cfg;
    let site = &plan.news_sports().sites[1];
    let load = SiteLoad::new(site, &cfg.site_ctx(1), cfg.server_seed);
    let vroom = load.run(&cfg.profile, System::Vroom);
    let h2 = load.run(&cfg.profile, System::Http2);
    let (v, h) = (vroom.aft.as_secs_f64(), h2.aft.as_secs_f64());
    let table = format!(
        "# Figure 15: Above-the-fold rendering completion, single News site\n\
         Vroom completes above-the-fold content at {v:.2}s\n\
         HTTP/2 baseline completes at {h:.2}s ({:+.2}s later)\n\
         (paper: 9.26s vs 13.87s on m.foxnews.com)\n",
        h - v
    );
    (v, h, table)
}

// -------------------------------------------------------------- Figure 16

/// Fig 16 data: per-site fractional improvement over HTTP/2.
pub struct Fig16 {
    /// Discovery-time improvement, all resources.
    pub discovery_all: Cdf,
    /// Discovery-time improvement, high-priority only.
    pub discovery_high: Cdf,
    /// Fetch-completion improvement, all resources.
    pub fetch_all: Cdf,
    /// Fetch-completion improvement, high-priority only.
    pub fetch_high: Cdf,
}

/// Fig 16's systems: the HTTP/2 baseline, then Vroom.
const FIG16: [System; 2] = [System::Http2, System::Vroom];

/// Fig 16: how much sooner Vroom discovers and finishes fetching resources.
pub fn fig16(cfg: &ExperimentConfig) -> (Fig16, String) {
    fig16_of(&Plan::new(cfg, &["fig16"]))
}

fn fig16_of(plan: &Plan) -> (Fig16, String) {
    let [base, vroom] = FIG16.map(|system| plan.column(Run::Cold(system)));
    // Per site, Vroom's fractional improvement over the baseline.
    let improvement = |time: fn(&LoadSummary) -> SimDuration| {
        let values = vroom
            .iter()
            .zip(base)
            .map(|(v, b)| 1.0 - time(v).as_secs_f64() / time(b).as_secs_f64().max(1e-9))
            .collect();
        Cdf::new(values)
    };
    let data = Fig16 {
        discovery_all: improvement(|s| s.discovery_all),
        discovery_high: improvement(|s| s.discovery_high),
        fetch_all: improvement(|s| s.fetch_all),
        fetch_high: improvement(|s| s.fetch_high),
    };
    let mut table = render_cdf_table(
        "Figure 16(a): Discovery-time improvement over HTTP/2",
        &[
            ("All", &data.discovery_all),
            ("High Priority Only", &data.discovery_high),
        ],
        "fraction improvement",
    );
    table.push('\n');
    table.push_str(&render_cdf_table(
        "Figure 16(b): Fetch-time improvement over HTTP/2",
        &[
            ("All", &data.fetch_all),
            ("High Priority Only", &data.fetch_high),
        ],
        "fraction improvement",
    ));
    (data, table)
}

// ---------------------------------------------------- Figures 17, 18, 19

/// The rows of a Fig 17–19 table over News+Sports: the §2 lower bound,
/// then the PLT quartiles of each `(label, run)` of `series`.
fn bound_and_plt_quartiles(plan: &Plan, series: Vec<(String, Run)>) -> Vec<(String, Quartiles)> {
    let mut rows = vec![("Lower Bound".to_string(), quartiles(&plan.lower_bound()))];
    rows.extend(series.into_iter().map(|(label, run)| {
        let plts: Vec<f64> = plan.column(run).iter().map(LoadSummary::plt_s).collect();
        (label, quartiles(&plts))
    }));
    rows
}

/// The runs a Fig 17–19 table reads: the bound's, then its series'.
fn bound_and_series_runs(series: Vec<(String, Run)>) -> Vec<Run> {
    with_bound(series.into_iter().map(|(_, run)| run))
}

/// A system's label and its cold load, as one Fig 17–19 row.
fn cold_row(system: System) -> (String, Run) {
    (system.label().to_string(), Run::Cold(system))
}

/// Fraction of hints the Fig 17 corruption row degrades — chosen below
/// the policy's discard threshold so the client still follows the
/// (partially wrong) metadata, exactly like trusting an aged crawl.
pub const FIG17_CORRUPTION: f64 = 0.30;

/// Fig 17's rows after the lower bound.
fn fig17_series() -> Vec<(String, Run)> {
    vec![
        cold_row(System::Vroom),
        cold_row(System::VroomStaleDeps),
        (
            format!("Vroom ({:.0}% Corrupted Hints)", FIG17_CORRUPTION * 100.0),
            Run::Corrupted(System::Vroom, FIG17_CORRUPTION),
        ),
        cold_row(System::Http2),
    ]
}

/// Fig 17: the cost of inaccurate dependencies. Two staleness models side
/// by side: hints from a whole prior crawl (the paper's setup) and hints
/// corrupted in place by the fault layer's knob (same trust, aged data),
/// with a per-site plan.
pub fn fig17(cfg: &ExperimentConfig) -> (Vec<(String, Quartiles)>, String) {
    fig17_of(&Plan::new(cfg, &["fig17"]))
}

fn fig17_of(plan: &Plan) -> (Vec<(String, Quartiles)>, String) {
    let rows = bound_and_plt_quartiles(plan, fig17_series());
    let table = render_quartile_table(
        "Figure 17: Utility of accurate dependency inference",
        &rows
            .iter()
            .map(|(n, q)| (n.as_str(), *q))
            .collect::<Vec<_>>(),
        "seconds",
    );
    (rows, table)
}

/// Fig 18's rows after the lower bound.
fn fig18_series() -> Vec<(String, Run)> {
    vec![
        cold_row(System::Vroom),
        cold_row(System::PushHighPriorityNoHints),
        cold_row(System::PushAllNoHints),
    ]
}

/// Fig 18: push alone is not enough.
pub fn fig18(cfg: &ExperimentConfig) -> (Vec<(String, Quartiles)>, String) {
    fig18_of(&Plan::new(cfg, &["fig18"]))
}

fn fig18_of(plan: &Plan) -> (Vec<(String, Quartiles)>, String) {
    let rows = bound_and_plt_quartiles(plan, fig18_series());
    let table = render_quartile_table(
        "Figure 18: Combining PUSH with dependency hints",
        &rows
            .iter()
            .map(|(n, q)| (n.as_str(), *q))
            .collect::<Vec<_>>(),
        "seconds",
    );
    (rows, table)
}

/// Fig 19's rows after the lower bound.
fn fig19_series() -> Vec<(String, Run)> {
    vec![
        cold_row(System::Vroom),
        cold_row(System::PushAllFetchAsap),
        ("No Push, No Hints".to_string(), Run::Cold(System::Http2)),
    ]
}

/// Fig 19: scheduling matters.
pub fn fig19(cfg: &ExperimentConfig) -> (Vec<(String, Quartiles)>, String) {
    fig19_of(&Plan::new(cfg, &["fig19"]))
}

fn fig19_of(plan: &Plan) -> (Vec<(String, Quartiles)>, String) {
    let rows = bound_and_plt_quartiles(plan, fig19_series());
    let table = render_quartile_table(
        "Figure 19: Utility of cooperative scheduling",
        &rows
            .iter()
            .map(|(n, q)| (n.as_str(), *q))
            .collect::<Vec<_>>(),
        "seconds",
    );
    (rows, table)
}

// -------------------------------------------------------------- Figure 20

/// Fig 20's scenarios: a name and the age of the visit that warmed the
/// cache, in hours.
const FIG20_SCENARIOS: [(&str, f64); 3] = [
    ("Back-to-back", 0.003),
    ("1 Day Later", 24.0),
    ("1 Week Later", 168.0),
];

/// Fig 20's systems within each scenario: Vroom, then HTTP/2.
const FIG20: [System; 2] = [System::Vroom, System::Http2];

/// The warm loads Fig 20 reads, in scenario order.
fn fig20_runs() -> Vec<Run> {
    FIG20_SCENARIOS
        .iter()
        .flat_map(|&(_, age)| FIG20.map(|system| Run::Warm(system, age)))
        .collect()
}

/// Fig 20: warm-cache loads at three staleness levels.
pub fn fig20(cfg: &ExperimentConfig) -> (Vec<(String, Quartiles, Quartiles)>, String) {
    fig20_of(&Plan::new(cfg, &["fig20"]))
}

fn fig20_of(plan: &Plan) -> (Vec<(String, Quartiles, Quartiles)>, String) {
    let mut rows = Vec::new();
    let mut table = String::from("# Figure 20: Page load times with warm caches (seconds)\n");
    table.push_str(&format!(
        "{:<14} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8} {:>10}\n",
        "scenario", "v.p25", "v.p50", "v.p75", "h2.p25", "h2.p50", "h2.p75", "Δmedian"
    ));
    for (name, age) in FIG20_SCENARIOS {
        let [v, h] = FIG20.map(|system| {
            let plts: Vec<f64> = plan
                .column(Run::Warm(system, age))
                .iter()
                .map(LoadSummary::plt_s)
                .collect();
            quartiles(&plts)
        });
        table.push_str(&format!(
            "{name:<14} {:>8.3} {:>8.3} {:>8.3}   {:>8.3} {:>8.3} {:>8.3} {:>10.3}\n",
            v.p25,
            v.p50,
            v.p75,
            h.p25,
            h.p50,
            h.p75,
            h.p50 - v.p50
        ));
        rows.push((name.to_string(), v, h));
    }
    (rows, table)
}

// -------------------------------------------------------------- Figure 21

/// Fig 21 data.
pub struct Fig21 {
    /// Predictable share by count (a).
    pub predictable_count: Cdf,
    /// Predictable share by bytes (a).
    pub predictable_bytes: Cdf,
    /// False negatives per strategy (b).
    pub false_negatives: Vec<(String, Cdf)>,
    /// False positives per strategy (c).
    pub false_positives: Vec<(String, Cdf)>,
}

/// Fig 21: accuracy of server-side dependency resolution on the 265-page
/// News/Sports corpus across four user profiles.
pub fn fig21(cfg: &ExperimentConfig) -> (Fig21, String) {
    fig21_of(&Plan::new(cfg, &["fig21"]))
}

fn fig21_of(plan: &Plan) -> (Fig21, String) {
    let cfg = plan.cfg;
    let strategies = [
        ("Vroom", Strategy::Vroom),
        ("Offline Only", Strategy::OfflineOnly),
        ("Online Only", Strategy::OnlineOnly),
    ];
    // Four users with distinct cookie profiles (§6.2).
    let users: [u64; 4] = [101, 202, 303, 404];
    let mut pc = Vec::new();
    let mut pb = Vec::new();
    let mut fns: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut fps: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let per_site = cfg.for_each_site(plan.accuracy(), |i, site| {
        let user = users[i % users.len()];
        let ctx = LoadContext {
            user_id: user,
            ..cfg.site_ctx(i)
        };
        // One resolver input and one client truth score every strategy.
        let input = ResolverInput::new(site, ctx.hours, ctx.device, cfg.server_seed);
        let truth = ClientTruth::new(site, &ctx);
        strategies
            .iter()
            .map(|(_, strategy)| evaluate_with(&input, &truth, None, *strategy))
            .collect::<Vec<_>>()
    });
    for accs in per_site {
        for (k, acc) in accs.into_iter().enumerate() {
            fns[k].push(acc.false_negative);
            fps[k].push(acc.false_positive);
            if k == 0 {
                pc.push(acc.predictable_count_frac);
                pb.push(acc.predictable_bytes_frac);
            }
        }
    }
    let data = Fig21 {
        predictable_count: Cdf::new(pc),
        predictable_bytes: Cdf::new(pb),
        false_negatives: strategies
            .iter()
            .zip(fns)
            .map(|((n, _), v)| (n.to_string(), Cdf::new(v)))
            .collect(),
        false_positives: strategies
            .iter()
            .zip(fps)
            .map(|((n, _), v)| (n.to_string(), Cdf::new(v)))
            .collect(),
    };
    let mut table = render_cdf_table(
        "Figure 21(a): Predictable share of root-derived resources",
        &[
            ("Count", &data.predictable_count),
            ("Bytes", &data.predictable_bytes),
        ],
        "fraction",
    );
    table.push('\n');
    table.push_str(&render_cdf_table(
        "Figure 21(b): Missed fraction of predictable set (false negatives)",
        &data
            .false_negatives
            .iter()
            .map(|(n, c)| (n.as_str(), c))
            .collect::<Vec<_>>(),
        "fraction of predictable set",
    ));
    table.push('\n');
    table.push_str(&render_cdf_table(
        "Figure 21(c): Extraneous fraction (false positives)",
        &data
            .false_positives
            .iter()
            .map(|(n, c)| (n.as_str(), c))
            .collect::<Vec<_>>(),
        "fraction of predictable set",
    ));
    (data, table)
}

// ------------------------------------------------------- text experiments

/// The incremental-deployment systems: universal Vroom, first-party-only
/// Vroom, the HTTP/2 baseline.
const INCR: [System; 3] = [System::Vroom, System::VroomFirstPartyOnly, System::Http2];

/// §6.1: incremental deployment — first-party-only Vroom.
pub fn incremental_deployment(cfg: &ExperimentConfig) -> (f64, f64, f64, String) {
    incremental_deployment_of(&Plan::new(cfg, &["incr"]))
}

fn incremental_deployment_of(plan: &Plan) -> (f64, f64, f64, String) {
    let [full, fp, h2] = INCR.map(|system| plan.plt_cdf(Run::Cold(system)).median());
    let table = format!(
        "# Incremental deployment (News+Sports, median PLT seconds)\n\
         Universal Vroom:        {full:.2}\n\
         First-party-only Vroom: {fp:.2}\n\
         HTTP/2 baseline:        {h2:.2}\n\
         (paper: 5.1 / 5.6 / 7.3)\n"
    );
    (full, fp, h2, table)
}

/// §6.1: the Top-400 sample.
pub fn top400_sample(cfg: &ExperimentConfig) -> (f64, f64, String) {
    top400_sample_of(&Plan::new(cfg, &["t100"]))
}

fn top400_sample_of(plan: &Plan) -> (f64, f64, String) {
    let [h2, vroom] =
        plt_cdfs(plan.cfg, plan.top400(), [System::Http2, System::Vroom]).map(|c| c.median());
    let table = format!(
        "# 100 random sites from the Alexa Top 400 (median PLT seconds)\n\
         HTTP/2 baseline: {h2:.2}\n\
         Vroom:           {vroom:.2}\n\
         (paper: 4.8 / 4.0)\n"
    );
    (h2, vroom, table)
}

// ------------------------------------------------------------ full report

/// Section ids of the full report, in presentation order (the exact
/// stdout order of the seed `run_all` binary).
pub const RUN_ALL_SECTIONS: [&str; 18] = [
    "fig01", "fig02", "fig03", "fig04", "fig07", "fig09", "fig11", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "incr", "t100",
];

/// The ablation sweeps (DESIGN.md §5): runnable by id through
/// [`run_sections`], but not part of the full report.
pub const ABLATION_SECTIONS: [&str; 5] = [
    "ablation_bandwidth",
    "ablation_rtt",
    "ablation_cpu",
    "ablation_history",
    "ablation_hybrid",
];

/// One report section: the News+Sports runs it reads, and its table,
/// rendered from a [`Plan`] that holds them.
struct Section {
    runs: Vec<Run>,
    table: fn(&Plan) -> String,
}

/// Section `id`, or `None` if there is no such section.
fn section(id: &str) -> Option<Section> {
    let (runs, table): (Vec<Run>, fn(&Plan) -> String) = match id {
        "fig01" => (cold(&[System::Http1]), |p| fig01_of(p).2),
        "fig02" => (with_bound(cold(&[System::Http1])), |p| fig02_of(p).1),
        "fig03" => (cold(&FIG03), |p| fig03_of(p).1),
        "fig04" => (cold(&FIG04), |p| fig04_of(p).2),
        "fig07" => (Vec::new(), |p| fig07_of(p).1),
        "fig09" => (Vec::new(), |p| fig09_of(p).2),
        "fig11" => (Vec::new(), |p| fig11_of(p).1),
        "fig13" => (with_bound(cold(&FIG13)), |p| fig13_of(p).1),
        "fig14" => (cold(&FIG14), |p| fig14_of(p).1),
        "fig15" => (Vec::new(), |p| fig15_of(p).2),
        "fig16" => (cold(&FIG16), |p| fig16_of(p).1),
        "fig17" => (bound_and_series_runs(fig17_series()), |p| fig17_of(p).1),
        "fig18" => (bound_and_series_runs(fig18_series()), |p| fig18_of(p).1),
        "fig19" => (bound_and_series_runs(fig19_series()), |p| fig19_of(p).1),
        "fig20" => (fig20_runs(), |p| fig20_of(p).1),
        "fig21" => (Vec::new(), |p| fig21_of(p).1),
        "incr" => (cold(&INCR), |p| incremental_deployment_of(p).3),
        "t100" => (Vec::new(), |p| top400_sample_of(p).2),
        "ablation_bandwidth" => (Vec::new(), |p| crate::ablation::bandwidth_of(p).1),
        "ablation_rtt" => (Vec::new(), |p| crate::ablation::rtt_of(p).1),
        "ablation_cpu" => (Vec::new(), |p| crate::ablation::cpu_of(p).1),
        "ablation_history" => (Vec::new(), |p| crate::ablation::history_window_of(p).1),
        "ablation_hybrid" => (Vec::new(), |p| crate::ablation::hybrid_of(p).3),
        _ => return None,
    };
    Some(Section { runs, table })
}

/// Every table and figure in one string — the contents of
/// `results/run_all.txt`.
pub fn run_all_report(cfg: &ExperimentConfig) -> String {
    run_sections(cfg, &RUN_ALL_SECTIONS)
}

/// The sections `ids` (from [`RUN_ALL_SECTIONS`] and
/// [`ABLATION_SECTIONS`]), each framed by a `==== id ====` line, in the
/// order given. The sections share one `Plan`: its News+Sports loads run
/// first, in one pass across sites, and then the sections render
/// concurrently through the same executor (each additionally parallelizes
/// across its own sites) and are concatenated in input order, so the
/// output is byte-identical for every worker count.
pub fn run_sections(cfg: &ExperimentConfig, ids: &[&str]) -> String {
    let plan = Plan::new(cfg, ids);
    let tables = vroom_exec::par_map_indexed(ids, cfg.workers, |_, id| match section(id) {
        Some(section) => (section.table)(&plan),
        None => format!("unknown section {id}\n"),
    });
    let mut out = String::new();
    for (id, table) in ids.iter().zip(tables) {
        out.push_str(&format!("==== {id} ====\n{table}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick(8)
    }

    #[test]
    fn fig01_news_sports_slower_than_top100() {
        let (top, ns, table) = fig01(&quick());
        assert!(ns.median() > top.median(), "{table}");
    }

    #[test]
    fn fig02_bounds_below_status_quo() {
        let (series, table) = fig02(&quick());
        let find = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.median())
                .unwrap()
        };
        let bound = find("Max(CPU, Network)");
        let web = find("Loads from Web");
        assert!(bound < web * 0.8, "substantial headroom: {table}");
        assert!(find("CPU Bottleneck") <= bound + 1e-9);
        assert!(find("Network Bottleneck") <= bound + 1e-9);
    }

    #[test]
    fn fig13_headline_ordering() {
        let (data, table) = fig13(&quick());
        let med = |name: &str| {
            data.plt
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.median())
                .unwrap()
        };
        let bound = med("Lower Bound");
        let vroom = med("Vroom");
        let h2 = med("HTTP/2 Baseline");
        let h1 = med("HTTP/1.1");
        assert!(bound <= vroom && vroom < h2 && h2 < h1, "{table}");
        // The paper's headline: Vroom ~30% below HTTP/2 at the median.
        let gain = 1.0 - vroom / h2;
        assert!(gain > 0.15, "vroom gains {gain:.2} over HTTP/2\n{table}");
    }

    #[test]
    fn fig14_vroom_beats_polaris_at_median() {
        let (cdfs, table) = fig14(&quick());
        assert!(
            cdfs.median(System::Vroom) < cdfs.median(System::PolarisLike),
            "{table}"
        );
    }

    #[test]
    fn fig17_stale_deps_hurt_tail() {
        let (rows, table) = fig17(&quick());
        let find = |name: &str| rows.iter().find(|(n, _)| n.contains(name)).unwrap().1;
        let vroom = find("Vroom");
        let stale = find("Previous Load");
        let corrupted = find("Corrupted Hints");
        assert!(stale.p75 > vroom.p75, "stale deps hurt the tail: {table}");
        assert!(
            corrupted.p75 >= vroom.p75,
            "corrupted hints cannot beat accurate ones: {table}"
        );
        let h2 = find("HTTP/2");
        assert!(
            corrupted.p50 < h2.p50,
            "partial corruption still beats no hints at all: {table}"
        );
    }

    #[test]
    fn fig19_strawman_far_from_vroom() {
        let (rows, table) = fig19(&quick());
        let find = |name: &str| rows.iter().find(|(n, _)| n.contains(name)).unwrap().1;
        assert!(find("Fetch ASAP").p50 > find("Vroom").p50, "{table}");
    }

    #[test]
    fn fig04_network_wait_shrinks_under_vroom() {
        let (h2, vroom, table) = fig04(&quick());
        assert!(h2.median() > 0.15, "HTTP/2 waits on the network: {table}");
        assert!(vroom.median() < h2.median(), "{table}");
    }

    #[test]
    fn fig07_persistence_decays_with_time() {
        let (series, table) = fig07(&quick());
        let med = |i: usize| series[i].1.median();
        assert!(med(0) > med(1) && med(1) > med(2), "{table}");
        assert!((0.5..0.95).contains(&med(0)), "1h persistence: {table}");
    }

    #[test]
    fn fig09_phones_closer_than_tablets() {
        let (phone, tablet, table) = fig09(&quick());
        assert!(phone.median() > tablet.median(), "{table}");
    }

    #[test]
    fn fig11_strawman_delays_early_resources() {
        let (rows, table) = fig11(&quick());
        assert_eq!(rows.len(), 10);
        let worst_asap = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max);
        let worst_vroom = rows.iter().map(|r| r.2).fold(f64::MIN, f64::max);
        assert!(
            worst_asap > worst_vroom + 0.2,
            "the strawman must delay some early resource: {table}"
        );
    }

    #[test]
    fn fig15_single_site_aft() {
        let (vroom, h2, table) = fig15(&quick());
        assert!(vroom < h2, "{table}");
    }

    #[test]
    fn fig16_improvements_positive_at_median() {
        let (data, table) = fig16(&quick());
        assert!(data.discovery_all.median() > 0.1, "{table}");
        assert!(data.fetch_all.median() > 0.05, "{table}");
    }

    #[test]
    fn fig18_push_alone_is_insufficient() {
        let (rows, table) = fig18(&quick());
        let find = |name: &str| rows.iter().find(|(n, _)| n.contains(name)).unwrap().1;
        assert!(
            find("No Hints").p50 > find("Vroom").p50 + 0.5,
            "push-only trails Vroom by seconds: {table}"
        );
    }

    #[test]
    fn fig21_accuracy_shapes() {
        let (data, table) = fig21(&quick());
        let med =
            |v: &[(String, Cdf)], name: &str| v.iter().find(|(n, _)| n == name).unwrap().1.median();
        assert!(
            med(&data.false_negatives, "Vroom") < med(&data.false_negatives, "Offline Only"),
            "{table}"
        );
        assert!(data.predictable_count.median() > 0.7, "{table}");
    }

    #[test]
    fn incremental_and_top400_orderings() {
        let (full, fp, h2, table) = incremental_deployment(&quick());
        assert!(full <= fp + 0.15 && fp < h2, "{table}");
        let (h2_400, vroom_400, t) = top400_sample(&quick());
        assert!(vroom_400 < h2_400, "{t}");
    }

    /// The full report computes each distinct News+Sports load once:
    /// every run any section reads is planned, and none twice.
    #[test]
    fn full_report_plans_each_distinct_news_sports_run_once() {
        let runs = planned_runs(&RUN_ALL_SECTIONS);
        assert_eq!(runs.len(), 19, "{runs:?}");
        for (k, run) in runs.iter().enumerate() {
            assert!(!runs[..k].contains(run), "{run:?} is planned twice");
        }
        for id in RUN_ALL_SECTIONS {
            for run in section(id).expect("a report section").runs {
                assert!(
                    runs.contains(&run),
                    "{id} reads {run:?}, which is not planned"
                );
            }
        }
    }

    /// A section run alone plans nothing it does not read: it renders
    /// from its own plan, and fails to render from that plan less any
    /// one of its runs.
    #[test]
    fn a_section_alone_plans_only_the_runs_it_reads() {
        let cfg = ExperimentConfig::quick(2);
        for id in RUN_ALL_SECTIONS {
            let table = section(id).expect("a report section").table;
            let runs = planned_runs(&[id]);
            table(&Plan::new(&cfg, &[id]));
            for (k, run) in runs.iter().enumerate() {
                let mut fewer = Plan::new(&cfg, &[id]);
                fewer.runs.remove(k);
                fewer.columns.remove(k);
                let rendered =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| table(&fewer)));
                assert!(
                    rendered.is_err(),
                    "{id} plans {run:?} but renders without it"
                );
            }
        }
    }

    #[test]
    fn fig20_warm_cache_improves_both() {
        let (rows, table) = fig20(&quick());
        for (name, v, h2) in &rows {
            assert!(
                v.p50 < h2.p50,
                "vroom beats h2 warm in scenario {name}: {table}"
            );
        }
    }
}
