//! Synthetic page generation.
//!
//! A [`PageGenerator`] deterministically builds one website's page
//! *structure* from a seed, then materializes per-load [`Page`] snapshots
//! via [`PageGenerator::snapshot`]. The generator is the substitute for the
//! paper's live Alexa corpora; every statistic the paper's results depend on
//! is a profile parameter calibrated to the values the paper quotes:
//! ~100 resources on the average mobile page, HTML/CSS/JS ≈ a quarter of
//! bytes, 22 % of URLs changing across back-to-back loads, 70 %/50 %
//! persistence over an hour/week, multi-domain structure with third-party
//! iframes.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::dynamics::LoadContext;
use crate::model::{Page, Resource, ResourceId, Stability};
use vroom_html::{ExecMode, ResourceKind, Url};
use vroom_sim::{mix, Rng, SimDuration};

/// Tunable statistics for one site category.
#[derive(Debug, Clone)]
pub struct SiteProfile {
    /// Category label ("news", "sports", ...).
    pub category: String,
    /// Count ranges `[lo, hi)` per resource class on the main page.
    pub n_css: (usize, usize),
    /// Synchronous scripts.
    pub n_sync_js: (usize, usize),
    /// Async/defer scripts.
    pub n_async_js: (usize, usize),
    /// Images on the main page.
    pub n_images: (usize, usize),
    /// Third-party iframes (ads, widgets).
    pub n_iframes: (usize, usize),
    /// Web fonts.
    pub n_fonts: (usize, usize),
    /// XHR/JSON fetches issued by scripts.
    pub n_xhr: (usize, usize),
    /// Resources inside each iframe subtree.
    pub iframe_resources: (usize, usize),
    /// Extra second-level resources loaded by scripts (JS→JS, JS→img).
    pub js_children: (usize, usize),
    /// Median bytes of the root HTML.
    pub root_html_bytes: u64,
    /// Median bytes per CSS file.
    pub css_bytes: u64,
    /// Median bytes per JS file.
    pub js_bytes: u64,
    /// Median bytes per image.
    pub image_bytes: u64,
    /// Lognormal sigma applied to all size draws.
    pub size_sigma: f64,
    /// Number of distinct third-party domains.
    pub third_party_domains: (usize, usize),
    /// Fraction of resources that are *permanently* stable (rest rotate).
    pub stable_fraction: f64,
    /// Fraction of main-page (non-iframe) resources whose URL randomizes
    /// every load.
    pub perload_fraction_main: f64,
    /// Same, within iframe subtrees (ads are mostly random).
    pub perload_fraction_iframe: f64,
    /// Fraction of resources personalized per user cookie.
    pub user_personalized_fraction: f64,
    /// Fraction of images that vary by device class.
    pub device_fraction: f64,
    /// Multiplier on all CPU costs (site complexity).
    pub cpu_scale: f64,
}

impl SiteProfile {
    /// Popular News sites — the paper's most complex category
    /// (median PLT 10.5 s on LTE).
    pub fn news() -> Self {
        SiteProfile {
            category: "news".into(),
            n_css: (4, 8),
            n_sync_js: (10, 18),
            n_async_js: (6, 12),
            n_images: (40, 70),
            n_iframes: (3, 6),
            n_fonts: (2, 5),
            n_xhr: (3, 7),
            iframe_resources: (6, 14),
            js_children: (6, 14),
            root_html_bytes: 60_000,
            css_bytes: 32_000,
            js_bytes: 26_000,
            image_bytes: 24_000,
            size_sigma: 0.8,
            third_party_domains: (8, 18),
            stable_fraction: 0.35,
            perload_fraction_main: 0.30,
            perload_fraction_iframe: 0.75,
            user_personalized_fraction: 0.10,
            device_fraction: 0.15,
            cpu_scale: 1.12,
        }
    }

    /// Popular Sports sites — close cousins of News in complexity.
    pub fn sports() -> Self {
        SiteProfile {
            category: "sports".into(),
            n_images: (35, 65),
            n_sync_js: (9, 17),
            ..Self::news()
        }
    }

    /// Median Alexa-Top-100 site (the paper's ~5 s PLT population).
    pub fn top100() -> Self {
        SiteProfile {
            category: "top100".into(),
            n_css: (2, 6),
            n_sync_js: (5, 10),
            n_async_js: (3, 7),
            n_images: (20, 45),
            n_iframes: (1, 3),
            n_fonts: (1, 4),
            n_xhr: (1, 4),
            iframe_resources: (4, 9),
            js_children: (3, 8),
            root_html_bytes: 40_000,
            css_bytes: 26_000,
            js_bytes: 22_000,
            image_bytes: 20_000,
            size_sigma: 0.8,
            third_party_domains: (4, 10),
            stable_fraction: 0.45,
            perload_fraction_main: 0.25,
            perload_fraction_iframe: 0.7,
            user_personalized_fraction: 0.08,
            device_fraction: 0.12,
            cpu_scale: 0.85,
        }
    }

    /// Random sites from the Alexa top 400 (§6.1's secondary corpus,
    /// median HTTP/2 PLT ≈ 4.8 s).
    pub fn top400() -> Self {
        SiteProfile {
            category: "top400".into(),
            cpu_scale: 0.8,
            ..Self::top100()
        }
    }
}

/// Template for one resource, fixed at structure-generation time.
#[derive(Debug, Clone)]
struct NodeTemplate {
    kind: ResourceKind,
    domain_idx: usize,
    slug: String,
    ext: &'static str,
    size: u64,
    cpu_cost: SimDuration,
    parent: Option<ResourceId>,
    discovery_frac: f64,
    exec: ExecMode,
    iframe_root: Option<ResourceId>,
    above_fold: bool,
    visual_weight: f64,
    max_age: Option<SimDuration>,
    stability: Stability,
    via_markup: bool,
    /// Rotation period in hours for `HourlyFlux` resources.
    lifetime_hours: f64,
    /// Whether a device-personalized URL encodes the exact DPR (rather than
    /// the coarse phone/tablet bucket).
    device_exact: bool,
}

/// Deterministic per-site page generator.
#[derive(Debug, Clone)]
pub struct PageGenerator {
    /// The site's landing-page URL.
    pub url: Url,
    profile: SiteProfile,
    site_seed: u64,
    domains: Vec<String>,
    nodes: Vec<NodeTemplate>,
}

impl PageGenerator {
    /// Build the structure for the site identified by `seed`.
    pub fn new(profile: SiteProfile, seed: u64) -> Self {
        Builder::new(profile, seed).build()
    }

    /// The site's first-party domain, lower-cased like every URL host.
    pub fn first_party(&self) -> &str {
        &self.domains[0]
    }

    /// Every host the site's pages use, lower-cased: the first party, its
    /// CDN, then the third parties. Each URL of every snapshot has one of
    /// them as its host.
    pub fn domains(&self) -> &[String] {
        &self.domains
    }

    /// Number of resources in every snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the structure is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Materialize the page as loaded in `ctx`. The build is a pure
    /// function of the generator and the context, and the one way a page
    /// is made: nothing is cached, so the caller owns the page and frees it
    /// when done.
    pub fn snapshot(&self, ctx: &LoadContext) -> Page {
        // One path buffer serves every URL of the page.
        let mut path = String::with_capacity(64);
        let resources: Vec<Resource> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| Resource {
                id,
                url: self.node_url(id, n, ctx, &mut path),
                kind: n.kind,
                size: n.size,
                cpu_cost: n.cpu_cost.mul_f64(self.profile.cpu_scale),
                parent: n.parent,
                discovery_frac: n.discovery_frac,
                exec: n.exec,
                iframe_root: n.iframe_root,
                above_fold: n.above_fold,
                visual_weight: n.visual_weight,
                max_age: n.max_age,
                stability: n.stability,
                via_markup: n.via_markup,
            })
            .collect();
        Page {
            // vroom-lint: allow(hot-path-alloc) -- the page's own copy of its root URL, one per snapshot
            url: resources[0].url.clone(),
            resources,
        }
    }

    /// [`snapshot`](Self::snapshot) behind an `Arc`. It builds a new page on
    /// every call: code that loads one context more than once holds the
    /// page itself (`ResolverInput::offline_loads`, `vroom::load::SiteLoad`).
    pub fn snapshot_arc(&self, ctx: &LoadContext) -> Arc<Page> {
        Arc::new(self.snapshot(ctx))
    }

    /// Node `id`'s URL in `ctx`. The path is written into the page's shared
    /// `path` buffer; scheme, host and path are then allocated once each,
    /// at exact size, as the snapshot's own strings. Hosts were lower-cased
    /// when the generator was built.
    fn node_url(
        &self,
        id: ResourceId,
        n: &NodeTemplate,
        ctx: &LoadContext,
        path: &mut String,
    ) -> Url {
        path.clear();
        if id == 0 {
            path.push('/');
        } else {
            self.write_path(id, n, ctx, path);
        }
        Url {
            // vroom-lint: allow(hot-path-alloc) -- the snapshot's own scheme string, one per URL
            scheme: String::from("https"),
            // vroom-lint: allow(hot-path-alloc) -- the snapshot's own host string, one per URL
            host: self.domains[n.domain_idx].clone(),
            // vroom-lint: allow(hot-path-alloc) -- the snapshot's own path string, copied out of the reused buffer at exact size
            path: String::from(path.as_str()),
        }
    }

    /// Append a non-root node's path: `/{dir}/{slug}`, the stability
    /// class's suffix, the extension, then the query string, if any.
    fn write_path(&self, id: ResourceId, n: &NodeTemplate, ctx: &LoadContext, path: &mut String) {
        path.push('/');
        path.push_str(n.kind_dir());
        path.push('/');
        path.push_str(&n.slug);
        // (key, token, hex digits) of a query string, written last so the
        // extension stays ahead of it. Writing to a `String` cannot fail,
        // so the `write!` results are dropped.
        let query = match n.stability {
            Stability::Stable => None,
            Stability::HourlyFlux => {
                // The slug rotates when the content epoch rolls over; phase
                // is per-node so rotations are spread over time.
                let phase = mix(self.site_seed, id as u64) as f64 / u64::MAX as f64;
                let epoch = ((ctx.hours / n.lifetime_hours) + phase).floor() as i64;
                let _ = write!(path, "-v{epoch}");
                None
            }
            Stability::PerLoadRandom => {
                let token = mix(mix(self.site_seed, id as u64), ctx.nonce);
                Some(("cb", token & 0xffff_ffff_ffff, 12))
            }
            Stability::UserPersonalized => {
                // Cookie-driven *and* session-fresh: rotates hourly, so a
                // crawler's repeated loads never agree on it (the paper's
                // "JavaScript-based personalization will typically vary over
                // time" filtering argument, §4.2).
                let token = mix(
                    mix(self.site_seed, id as u64),
                    ctx.user_id ^ ((ctx.hours.floor() as u64) << 32),
                );
                Some(("u", token & 0xffff_ffff, 8))
            }
            Stability::DevicePersonalized => {
                if n.device_exact {
                    let _ = write!(path, "-dpr{}", (ctx.device.dpr() * 10.0) as u32);
                } else {
                    path.push('-');
                    path.push_str(ctx.device.bucket());
                }
                None
            }
        };
        if !n.ext.is_empty() {
            path.push('.');
            path.push_str(n.ext);
        }
        if let Some((key, token, digits)) = query {
            let _ = write!(path, "?{key}={token:0digits$x}");
        }
    }
}

impl NodeTemplate {
    fn kind_dir(&self) -> &'static str {
        match self.kind {
            ResourceKind::Html => "page",
            ResourceKind::Css => "styles",
            ResourceKind::Js => "js",
            ResourceKind::Image => "img",
            ResourceKind::Font => "fonts",
            ResourceKind::Media => "media",
            ResourceKind::Xhr => "api",
            ResourceKind::Other => "misc",
        }
    }
}

struct Builder {
    profile: SiteProfile,
    site_seed: u64,
    rng: Rng,
    domains: Vec<String>,
    nodes: Vec<NodeTemplate>,
    slug_counter: usize,
}

impl Builder {
    fn new(profile: SiteProfile, seed: u64) -> Self {
        let rng = Rng::new(seed ^ 0x5eed_5eed_5eed_5eed);
        Builder {
            profile,
            site_seed: seed,
            rng,
            domains: Vec::new(),
            nodes: Vec::new(),
            slug_counter: 0,
        }
    }

    fn build(mut self) -> PageGenerator {
        // Domains: first-party + its CDN + third parties.
        // vroom-lint: allow(hot-path-alloc) -- once per generator, at corpus construction
        let site = format!("{}{}.com", self.profile.category, self.site_seed & 0xffff);
        // vroom-lint: allow(hot-path-alloc) -- once per generator, at corpus construction
        let cdn = format!("cdn.{site}");
        self.domains.push(site);
        self.domains.push(cdn);
        let n_third = self.rng.range_usize(
            self.profile.third_party_domains.0,
            self.profile.third_party_domains.1,
        );
        for i in 0..n_third {
            // vroom-lint: allow(hot-path-alloc) -- one per third-party domain, at corpus construction
            self.domains.push(format!(
                "tp{i}-{:x}.net",
                mix(self.site_seed, i as u64) & 0xffff
            ));
        }
        // URL hosts are lower-case. Lowering them here, once, lets every
        // snapshot copy them as they are.
        for d in &mut self.domains {
            d.make_ascii_lowercase();
        }

        self.build_root();
        self.build_main_resources();
        self.build_iframes();

        PageGenerator {
            // vroom-lint: allow(hot-path-alloc) -- once per generator, at corpus construction
            url: Url::https(self.domains[0].clone(), "/"),
            profile: self.profile,
            site_seed: self.site_seed,
            domains: self.domains,
            nodes: self.nodes,
        }
    }

    fn slug(&mut self, prefix: &str) -> String {
        self.slug_counter += 1;
        // vroom-lint: allow(hot-path-alloc) -- one per node, at corpus construction
        format!("{prefix}{:03}", self.slug_counter)
    }

    fn size(&mut self, median: u64) -> u64 {
        // Clamp the lognormal tail: single resources top out around 6x their
        // class median (web pages have heavy but not unbounded tails).
        let draw = self.rng.lognormal(median as f64, self.profile.size_sigma);
        (draw.min(median as f64 * 6.0)) as u64 + 200
    }

    /// CPU cost models: a fixed floor plus a per-byte slope, per kind.
    fn cpu_for(&mut self, kind: ResourceKind, size: u64, exec: ExecMode) -> SimDuration {
        let kb = size as f64 / 1024.0;
        let ms = match kind {
            ResourceKind::Html => 4.0 + 4.5 * kb,
            // Sync scripts on news pages include heavyweight frameworks.
            ResourceKind::Js => {
                let base = 12.0 + 2.2 * kb;
                if exec == ExecMode::Sync {
                    base * self.rng.range_f64(0.8, 1.9)
                } else {
                    base * 0.7
                }
            }
            ResourceKind::Css => 5.0 + 0.9 * kb,
            ResourceKind::Image => 1.0 + 0.06 * kb,
            ResourceKind::Font => 2.0,
            ResourceKind::Media => 4.0,
            ResourceKind::Xhr => 3.0 + 0.5 * kb,
            ResourceKind::Other => 1.0,
        };
        SimDuration::from_millis_f64(ms)
    }

    fn stability_for(
        &mut self,
        in_iframe: bool,
        via_markup: bool,
        kind: ResourceKind,
    ) -> (Stability, f64, bool) {
        let p = &self.profile;
        // Per-load randomness and user personalization come from script
        // execution (ad auctions, cookie-driven DOM writes), not from
        // static markup — the paper's §4.1/§4.2 premise that lets Vroom's
        // online HTML scan stay accurate.
        if !via_markup {
            let perload_p = if in_iframe {
                p.perload_fraction_iframe
            } else {
                p.perload_fraction_main
            };
            if self.rng.chance(perload_p) {
                return (Stability::PerLoadRandom, 0.0, false);
            }
            if !in_iframe && self.rng.chance(p.user_personalized_fraction) {
                return (Stability::UserPersonalized, 0.0, false);
            }
        }
        if kind == ResourceKind::Image && self.rng.chance(p.device_fraction) {
            // 10% of device-dependent URLs encode the exact DPR.
            return (Stability::DevicePersonalized, 0.0, self.rng.chance(0.1));
        }
        if self.rng.chance(p.stable_fraction) {
            return (Stability::Stable, 0.0, false);
        }
        // Rotating content: lifetimes spread from sub-hour to weeks,
        // calibrated to the paper's Fig 7 persistence curve.
        let lifetime = *self
            .rng
            .pick(&[0.7, 0.7, 0.7, 4.0, 4.0, 48.0, 48.0, 500.0, 500.0, 500.0]);
        (Stability::HourlyFlux, lifetime, false)
    }

    fn build_root(&mut self) {
        let size = self.size(self.profile.root_html_bytes);
        let cpu = self.cpu_for(ResourceKind::Html, size, ExecMode::Sync);
        self.nodes.push(NodeTemplate {
            kind: ResourceKind::Html,
            domain_idx: 0,
            slug: "index".into(),
            ext: "",
            size,
            cpu_cost: cpu,
            parent: None,
            discovery_frac: 0.0,
            exec: ExecMode::Sync,
            iframe_root: None,
            above_fold: true,
            visual_weight: 0.25,
            max_age: None, // root HTML is always revalidated
            stability: Stability::Stable,
            via_markup: true,
            lifetime_hours: f64::INFINITY,
            device_exact: false,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn add_node(
        &mut self,
        kind: ResourceKind,
        parent: ResourceId,
        iframe_root: Option<ResourceId>,
        exec: ExecMode,
        median_size: u64,
        via_markup: bool,
        prefix: &str,
        ext: &'static str,
    ) -> ResourceId {
        let in_iframe = iframe_root.is_some();
        let size = self.size(median_size);
        let cpu = self.cpu_for(kind, size, exec);
        let (stability, lifetime, device_exact) = self.stability_for(in_iframe, via_markup, kind);
        let parent_kind = self.nodes[parent].kind;
        // HTML parents reveal children at their position in the document;
        // scripts and stylesheets reveal children only once fully processed.
        let discovery_frac = if parent_kind == ResourceKind::Html {
            self.rng.range_f64(0.05, 0.95)
        } else {
            1.0
        };
        let above_fold = !in_iframe
            && match kind {
                ResourceKind::Css => true,
                ResourceKind::Image => self.rng.chance(0.3),
                ResourceKind::Font => true,
                _ => false,
            };
        let visual_weight = if above_fold && kind == ResourceKind::Image {
            self.rng.range_f64(0.2, 1.0)
        } else if above_fold {
            0.1
        } else {
            0.0
        };
        let max_age = match stability {
            Stability::Stable => Some(SimDuration::from_secs(30 * 24 * 3600)),
            Stability::HourlyFlux => {
                Some(SimDuration::from_secs((lifetime.max(0.5) * 1800.0) as u64))
            }
            Stability::DevicePersonalized => Some(SimDuration::from_secs(7 * 24 * 3600)),
            _ => None,
        };
        let slug = self.slug(prefix);
        let id = self.nodes.len();
        self.nodes.push(NodeTemplate {
            kind,
            domain_idx: 0, // set by caller via set_domain
            slug,
            ext,
            size,
            cpu_cost: cpu,
            parent: Some(parent),
            discovery_frac,
            exec,
            iframe_root,
            above_fold,
            visual_weight,
            max_age,
            stability,
            via_markup,
            lifetime_hours: lifetime.max(0.5),
            device_exact,
        });
        id
    }

    fn set_domain(&mut self, id: ResourceId, domain_idx: usize) {
        self.nodes[id].domain_idx = domain_idx;
    }

    /// First-party or CDN domain for own content; Zipf-popular third party
    /// for external content.
    fn own_domain(&mut self) -> usize {
        if self.rng.chance(0.55) {
            0
        } else {
            1
        }
    }

    fn third_domain(&mut self) -> usize {
        if self.domains.len() <= 2 {
            return 0;
        }
        2 + self.rng.zipf(self.domains.len() - 2, 1.1)
    }

    fn count(&mut self, range: (usize, usize)) -> usize {
        self.rng.range_usize(range.0, range.1)
    }

    fn build_main_resources(&mut self) {
        let root = 0;

        // Stylesheets: own, early in the document, above the fold.
        let n_css = self.count(self.profile.n_css);
        let mut css_ids = Vec::new();
        for _ in 0..n_css {
            let id = self.add_node(
                ResourceKind::Css,
                root,
                None,
                ExecMode::Sync,
                self.profile.css_bytes,
                true,
                "style",
                "css",
            );
            let d = self.own_domain();
            self.set_domain(id, d);
            self.nodes[id].discovery_frac = self.rng.range_f64(0.02, 0.25);
            css_ids.push(id);
        }
        // Fonts hang off stylesheets.
        let n_fonts = self.count(self.profile.n_fonts);
        for _ in 0..n_fonts {
            if css_ids.is_empty() {
                break;
            }
            let parent = *self.rng.pick(&css_ids);
            let id = self.add_node(
                ResourceKind::Font,
                parent,
                None,
                ExecMode::Sync,
                30_000,
                true,
                "font",
                "woff2",
            );
            let d = self.own_domain();
            self.set_domain(id, d);
        }

        // Synchronous scripts: mostly own + a few third-party libraries.
        let n_sync = self.count(self.profile.n_sync_js);
        let mut js_ids = Vec::new();
        for i in 0..n_sync {
            let id = self.add_node(
                ResourceKind::Js,
                root,
                None,
                ExecMode::Sync,
                self.profile.js_bytes,
                true,
                "app",
                "js",
            );
            let d = if i % 4 == 3 {
                self.third_domain()
            } else {
                self.own_domain()
            };
            self.set_domain(id, d);
            js_ids.push(id);
        }
        // Async/defer scripts: analytics, social widgets — mostly third-party.
        let n_async = self.count(self.profile.n_async_js);
        for _ in 0..n_async {
            let exec = if self.rng.chance(0.7) {
                ExecMode::Async
            } else {
                ExecMode::Defer
            };
            let id = self.add_node(
                ResourceKind::Js,
                root,
                None,
                exec,
                self.profile.js_bytes / 2,
                true,
                "widget",
                "js",
            );
            let d = self.third_domain();
            self.set_domain(id, d);
            js_ids.push(id);
        }

        // Script-derived children: more scripts, XHRs, injected images
        // (the Figure 5 pattern: foo.js creates an Image pointing at b.com).
        let n_js_children = self.count(self.profile.js_children);
        for _ in 0..n_js_children {
            if js_ids.is_empty() {
                break;
            }
            let parent = *self.rng.pick(&js_ids);
            let roll = self.rng.f64();
            if roll < 0.35 {
                let id = self.add_node(
                    ResourceKind::Js,
                    parent,
                    None,
                    ExecMode::Sync,
                    self.profile.js_bytes / 2,
                    false,
                    "chunk",
                    "js",
                );
                let d = self.third_domain();
                self.set_domain(id, d);
                js_ids.push(id);
            } else if roll < 0.6 {
                let id = self.add_node(
                    ResourceKind::Xhr,
                    parent,
                    None,
                    ExecMode::Sync,
                    8_000,
                    false,
                    "data",
                    "json",
                );
                self.set_domain(id, 0);
            } else {
                let id = self.add_node(
                    ResourceKind::Image,
                    parent,
                    None,
                    ExecMode::Sync,
                    self.profile.image_bytes,
                    false,
                    "lazy",
                    "jpg",
                );
                let d = self.third_domain();
                self.set_domain(id, d);
            }
        }

        // XHRs straight from inline scripts in the HTML.
        let n_xhr = self.count(self.profile.n_xhr);
        for _ in 0..n_xhr {
            let id = self.add_node(
                ResourceKind::Xhr,
                root,
                None,
                ExecMode::Sync,
                8_000,
                false,
                "feed",
                "json",
            );
            self.set_domain(id, 0);
        }

        // Images: the bulk of the bytes. One hero image is large and above
        // the fold.
        let n_images = self.count(self.profile.n_images);
        for i in 0..n_images {
            let median = if i == 0 {
                self.profile.image_bytes * 12 // hero
            } else {
                self.profile.image_bytes
            };
            let id = self.add_node(
                ResourceKind::Image,
                root,
                None,
                ExecMode::Sync,
                median,
                true,
                "img",
                "jpg",
            );
            let d = self.own_domain();
            self.set_domain(id, d);
            if i == 0 {
                self.nodes[id].above_fold = true;
                self.nodes[id].visual_weight = 2.5;
                self.nodes[id].discovery_frac = self.rng.range_f64(0.1, 0.4);
            }
        }
    }

    fn build_iframes(&mut self) {
        let n_iframes = self.count(self.profile.n_iframes);
        for _ in 0..n_iframes {
            let frame = self.add_node(
                ResourceKind::Html,
                0,
                None,
                ExecMode::Sync,
                12_000,
                true,
                "frame",
                "html",
            );
            let d = self.third_domain();
            self.set_domain(frame, d);
            // Frames land late in the document and are never above the fold.
            self.nodes[frame].discovery_frac = self.rng.range_f64(0.5, 0.98);
            self.nodes[frame].above_fold = false;
            self.nodes[frame].visual_weight = 0.0;
            // The iframe's own HTML *content* is user-personalized (served
            // with that domain's cookie); keep the URL itself stable-ish.
            let n_sub = self.count(self.profile.iframe_resources);
            let mut parents = vec![frame];
            for j in 0..n_sub {
                let parent = *self.rng.pick(&parents);
                let (kind, median, prefix, ext): (ResourceKind, u64, &str, &'static str) =
                    match j % 4 {
                        0 => (ResourceKind::Js, 20_000, "adjs", "js"),
                        1 | 2 => (
                            ResourceKind::Image,
                            self.profile.image_bytes,
                            "adimg",
                            "gif",
                        ),
                        _ => (ResourceKind::Xhr, 4_000, "adtrack", "json"),
                    };
                let id = self.add_node(
                    kind,
                    parent,
                    Some(frame),
                    ExecMode::Sync,
                    median,
                    j % 3 == 0,
                    prefix,
                    ext,
                );
                let dd = self.third_domain();
                self.set_domain(id, dd);
                if kind == ResourceKind::Js {
                    parents.push(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{DeviceClass, LoadContext};

    fn ctx() -> LoadContext {
        LoadContext {
            hours: 1000.0,
            user_id: 7,
            device: DeviceClass::PhoneLarge,
            nonce: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PageGenerator::new(SiteProfile::news(), 123).snapshot(&ctx());
        let b = PageGenerator::new(SiteProfile::news(), 123).snapshot(&ctx());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.resources.iter().zip(&b.resources) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.size, y.size);
            assert_eq!(x.cpu_cost, y.cpu_cost);
        }
        let c = PageGenerator::new(SiteProfile::news(), 124).snapshot(&ctx());
        assert_ne!(
            a.resources[1].url, c.resources[1].url,
            "different sites differ"
        );
    }

    #[test]
    fn pages_validate_and_have_realistic_shape() {
        for seed in 0..30 {
            let generator = PageGenerator::new(SiteProfile::news(), seed);
            let page = generator.snapshot(&ctx());
            page.validate().expect("structurally valid");
            assert!(
                (60..260).contains(&page.len()),
                "news page has ~100+ resources, got {}",
                page.len()
            );
            let bytes = page.total_bytes();
            assert!(
                (800_000..6_000_000).contains(&bytes),
                "plausible page weight, got {bytes}"
            );
            let domains = page.domains();
            assert!(domains.len() >= 4, "multi-domain page: {domains:?}");
            // Paper/HTTP-Archive: resources needing processing are a minority
            // of bytes (≈25%) but significant in count.
            let proc_bytes: u64 = page
                .resources
                .iter()
                .filter(|r| r.needs_processing())
                .map(|r| r.size)
                .sum();
            let frac = proc_bytes as f64 / bytes as f64;
            assert!(
                (0.10..0.60).contains(&frac),
                "processed bytes fraction {frac}"
            );
        }
    }

    #[test]
    fn back_to_back_loads_differ_only_in_perload_urls() {
        let generator = PageGenerator::new(SiteProfile::news(), 5);
        let a = generator.snapshot(&ctx());
        let b = generator.snapshot(&LoadContext { nonce: 43, ..ctx() });
        let mut changed = 0;
        for (x, y) in a.resources.iter().zip(&b.resources) {
            if x.url != y.url {
                changed += 1;
                assert_eq!(x.stability, Stability::PerLoadRandom);
            }
        }
        assert!(changed > 0, "some URLs must randomize");
        let frac = changed as f64 / a.len() as f64;
        assert!(
            (0.05..0.40).contains(&frac),
            "paper: ~22% of URLs change back-to-back; got {frac}"
        );
    }

    #[test]
    fn hourly_flux_rotates_over_time() {
        let generator = PageGenerator::new(SiteProfile::news(), 5);
        let t0 = generator.snapshot(&ctx());
        let later = generator.snapshot(&LoadContext {
            hours: 1000.0 + 7.0 * 24.0,
            ..ctx()
        });
        let set0 = t0.url_set();
        let set1 = later.url_set();
        let kept = set0.intersection(&set1).count() as f64 / set0.len() as f64;
        assert!(
            (0.25..0.75).contains(&kept),
            "paper Fig 7: ~50% persistence over a week; got {kept}"
        );
        // Over one hour, much higher.
        let hour = generator.snapshot(&LoadContext {
            hours: 1001.0,
            ..ctx()
        });
        // Ignore per-load randomness by comparing same-nonce snapshots.
        let kept_hour = set0.intersection(&hour.url_set()).count() as f64 / set0.len() as f64;
        assert!(kept_hour > kept, "persistence decays with time");
        assert!(
            (0.55..0.95).contains(&kept_hour),
            "paper Fig 7: ~70% persistence over an hour; got {kept_hour}"
        );
    }

    #[test]
    fn user_and_device_variation() {
        // User personalization is probabilistic per site; aggregate over a
        // few sites so the assertion is stable.
        let mut total_changed_user = 0;
        for seed in 9..15 {
            let generator = PageGenerator::new(SiteProfile::news(), seed);
            let base = generator.snapshot(&ctx());
            let other_user = generator.snapshot(&LoadContext {
                user_id: 8,
                ..ctx()
            });
            let changed_user: Vec<_> = base
                .resources
                .iter()
                .zip(&other_user.resources)
                .filter(|(x, y)| x.url != y.url)
                .collect();
            assert!(changed_user
                .iter()
                .all(|(x, _)| x.stability == Stability::UserPersonalized));
            total_changed_user += changed_user.len();
        }
        assert!(
            total_changed_user > 0,
            "some user-personalized URLs across sites"
        );
        let generator = PageGenerator::new(SiteProfile::news(), 9);
        let base = generator.snapshot(&ctx());

        let tablet = generator.snapshot(&LoadContext {
            device: DeviceClass::Tablet,
            ..ctx()
        });
        let phone_small = generator.snapshot(&LoadContext {
            device: DeviceClass::PhoneSmall,
            ..ctx()
        });
        let diff_tablet = base
            .resources
            .iter()
            .zip(&tablet.resources)
            .filter(|(x, y)| x.url != y.url)
            .count();
        let diff_phone = base
            .resources
            .iter()
            .zip(&phone_small.resources)
            .filter(|(x, y)| x.url != y.url)
            .count();
        assert!(
            diff_phone < diff_tablet,
            "paper Fig 9: another phone is closer than a tablet \
             (phone diff {diff_phone}, tablet diff {diff_tablet})"
        );
    }

    #[test]
    fn iframe_descendants_are_marked() {
        let page = PageGenerator::new(SiteProfile::news(), 11).snapshot(&ctx());
        let frames: Vec<_> = page
            .resources
            .iter()
            .filter(|r| r.kind == ResourceKind::Html && r.id != 0)
            .collect();
        assert!(!frames.is_empty());
        for f in &frames {
            let subtree: Vec<_> = page
                .resources
                .iter()
                .filter(|r| r.iframe_root == Some(f.id))
                .collect();
            assert!(!subtree.is_empty(), "iframe {} has content", f.id);
            assert!(subtree.iter().all(|r| r.hint_tier() == 2));
        }
    }

    /// The generator's domain names as first formatted, before hosts were
    /// lower-cased at build time.
    fn reference_domains(g: &PageGenerator) -> Vec<String> {
        let site = format!("{}{}.com", g.profile.category, g.site_seed & 0xffff);
        let mut domains = vec![site.clone(), format!("cdn.{site}")];
        domains.extend(
            (0..g.domains.len() - 2)
                .map(|i| format!("tp{i}-{:x}.net", mix(g.site_seed, i as u64) & 0xffff)),
        );
        domains
    }

    /// The reference URL builder: a chain of `format!`s per URL, with
    /// `Url::https` lower-casing the host. The generator's one-pass builder
    /// must match it byte for byte.
    fn reference_url(g: &PageGenerator, domains: &[String], id: usize, ctx: &LoadContext) -> Url {
        let n = &g.nodes[id];
        let domain = &domains[n.domain_idx];
        if id == 0 {
            return Url::https(domain.clone(), "/");
        }
        let mut path = format!("/{}/{}", n.kind_dir(), n.slug);
        match n.stability {
            Stability::Stable => {}
            Stability::HourlyFlux => {
                let phase = mix(g.site_seed, id as u64) as f64 / u64::MAX as f64;
                let epoch = ((ctx.hours / n.lifetime_hours) + phase).floor() as i64;
                path = format!("/{}/{}-v{}", n.kind_dir(), n.slug, epoch);
            }
            Stability::PerLoadRandom => {
                let token = mix(mix(g.site_seed, id as u64), ctx.nonce);
                path = format!(
                    "/{}/{}?cb={:012x}",
                    n.kind_dir(),
                    n.slug,
                    token & 0xffff_ffff_ffff
                );
            }
            Stability::UserPersonalized => {
                let token = mix(
                    mix(g.site_seed, id as u64),
                    ctx.user_id ^ ((ctx.hours.floor() as u64) << 32),
                );
                path = format!("/{}/{}?u={:08x}", n.kind_dir(), n.slug, token & 0xffff_ffff);
            }
            Stability::DevicePersonalized => {
                if n.device_exact {
                    path = format!(
                        "/{}/{}-dpr{}",
                        n.kind_dir(),
                        n.slug,
                        (ctx.device.dpr() * 10.0) as u32
                    );
                } else {
                    path = format!("/{}/{}-{}", n.kind_dir(), n.slug, ctx.device.bucket());
                }
            }
        }
        if !n.ext.is_empty() && !path.contains('?') {
            path = format!("{path}.{}", n.ext);
        } else if !n.ext.is_empty() {
            let (p, q) = path.split_once('?').expect("query checked");
            path = format!("{p}.{}?{q}", n.ext);
        }
        Url::https(domain.clone(), path)
    }

    /// A custom profile whose category is not lower-case.
    fn upper_case_profile() -> SiteProfile {
        SiteProfile {
            category: "BigNews".into(),
            ..SiteProfile::news()
        }
    }

    #[test]
    fn url_builder_matches_the_format_chain_reference() {
        let profiles = [
            SiteProfile::news(),
            SiteProfile::sports(),
            SiteProfile::top100(),
            SiteProfile::top400(),
            upper_case_profile(),
        ];
        let loads = [
            (1000.0, 7, 42),
            (0.0, 0, 0),
            (2000.75, u64::MAX, 0xDEAD_BEEF),
            (-30.5, 1 << 40, u64::MAX),
        ];
        let mut forms = std::collections::HashSet::new();
        for profile in profiles {
            for seed in [5, 0x1234, 0xFFFF_0042] {
                let g = PageGenerator::new(profile.clone(), seed);
                let domains = reference_domains(&g);
                for device in DeviceClass::all() {
                    for (hours, user_id, nonce) in loads {
                        let ctx = LoadContext {
                            hours,
                            user_id,
                            device,
                            nonce,
                        };
                        let page = g.snapshot(&ctx);
                        assert_eq!(page.url, reference_url(&g, &domains, 0, &ctx));
                        for r in &page.resources {
                            let want = reference_url(&g, &domains, r.id, &ctx);
                            assert_eq!(r.url, want, "{} node {}", profile.category, r.id);
                            // Each string is allocated at its exact size.
                            for part in [&r.url.scheme, &r.url.host, &r.url.path] {
                                assert_eq!(part.capacity(), part.len());
                            }
                            forms.insert((r.stability, g.nodes[r.id].device_exact));
                        }
                    }
                }
            }
        }
        for form in [
            (Stability::Stable, false),
            (Stability::HourlyFlux, false),
            (Stability::PerLoadRandom, false),
            (Stability::UserPersonalized, false),
            (Stability::DevicePersonalized, false),
            (Stability::DevicePersonalized, true),
        ] {
            assert!(forms.contains(&form), "no {form:?} URL was checked");
        }
        let page = PageGenerator::new(upper_case_profile(), 5).snapshot(&ctx());
        assert_eq!(page.url.host, "bignews5.com");
    }

    #[test]
    fn top100_pages_are_lighter_than_news() {
        let news: u64 = (0..10)
            .map(|s| {
                PageGenerator::new(SiteProfile::news(), s)
                    .snapshot(&ctx())
                    .total_cpu()
                    .as_millis()
            })
            .sum();
        let top: u64 = (0..10)
            .map(|s| {
                PageGenerator::new(SiteProfile::top100(), s)
                    .snapshot(&ctx())
                    .total_cpu()
                    .as_millis()
            })
            .sum();
        assert!(
            news > top * 3 / 2,
            "news pages are CPU-heavier: news {news} vs top100 {top}"
        );
    }
}
